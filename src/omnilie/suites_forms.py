"""Suite tables of the form and L-Courant layers: atiyah-calculus,
lcourant-axioms and exact-curvature, and the default twist that every
table reading ``forms.omega`` shares.  ``omnilie.suites`` imports this
module on the first call of one of these tables."""

from __future__ import annotations

from functools import cache

from .sampling import CheckResult, Family
from .scalar import Scalar, random_polynomial
from .gauge import Derivation, commutator, random_derivation
from .atiyah import AtiyahForm, contract, differential, lie_derivative, primitive, random_form
from .dcourant import Connection, LCourantStructure, curvature, lcourant_axioms
from .suites import Row


def default_twist(ctx):
    """The named twist if provided, else a basis 3-form (zero when n < 2)."""
    if "omega" in ctx.forms:
        return ctx.forms["omega"]
    n = ctx.n
    if n >= 2:
        return AtiyahForm.basis(n, (0, 1, n))
    return AtiyahForm.zero(n, 3)


def atiyah_calculus(ctx):
    n = ctx.n
    bounds = (ctx.max_degree, ctx.coeff_bound)

    def draw(rng, case):
        degree = case % (n + 2)
        w = random_form(n, degree, rng, *bounds)
        D = random_derivation(n, rng, *bounds)
        E = random_derivation(n, rng, *bounds)
        return degree, w, D, E, random_polynomial(n, rng, *bounds)

    def checks(degree, w, D, E, s):
        # a unit of its own per case: a derivation keeps its contractions
        unit = Derivation.unit(n)
        dw, lie_w = differential(w), lie_derivative(D, w)
        out = {
            "d-squared": differential(dw),
            "cartan": lie_w - contract(D, dw) - differential(contract(D, w)),
            "unit-homotopy": differential(contract(unit, w)) + contract(unit, dw) - w,
        }
        if degree >= 1:
            out["lie-contract"] = (
                lie_derivative(D, contract(E, w))
                - contract(E, lie_w)
                - contract(commutator(D, E), w)
            )
        out["jet-injectivity"] = contract(unit, differential(s)).scalar() - s
        return out

    return [Family("atiyah", ctx.samples, draw, checks, seed=ctx.seed)]


def lcourant_axioms_suite(ctx):
    def axioms(name, structure, tag):
        bounds = (ctx.max_degree, ctx.coeff_bound)
        return lcourant_axioms(structure, ctx.samples, ctx.seed, *bounds, tag, f"{name}:")

    def control():
        # negative control with its own three-variable model: a non-closed
        # twist must break the first axiom; the cases run one at a time up
        # to the first that does
        bad = AtiyahForm(3, 3, {(0, 1, 3): Scalar.variable(3, 3)})
        family = lcourant_axioms(LCourantStructure.twisted(bad), 6, ctx.seed, 1, 2, "lc-bad")
        detected = any(
            label.startswith("LC1") and not ok
            for case in range(family.count)
            for label, ok, _ in family.rows(case, case + 1)
        )
        return CheckResult(detected, {"error": "no LC1 failure found"})

    return [
        axioms("omni", LCourantStructure.omni(ctx.n), "lc-omni"),
        axioms("twisted", LCourantStructure.twisted(default_twist(ctx)), "lc-twisted"),
        Row("nonclosed-twist-detected", control),
    ]


def exact_curvature(ctx):
    n = ctx.n
    omega = default_twist(ctx)
    structure = LCourantStructure.twisted(omega)
    flat = cache(lambda: curvature(Connection.zero(n), structure))

    def draw(rng, case):
        if case == 0 and "theta" in ctx.forms:
            return (ctx.forms["theta"],)
        return (random_form(n, 2, rng, ctx.max_degree, ctx.coeff_bound),)

    def checks(theta):
        shifted = curvature(Connection.zero(n).shifted(theta), structure)
        return {
            "shift-law": shifted - flat() - differential(theta),
            "primitive-reproduces": differential(primitive(shifted)) - shifted,
        }

    return [
        Row("zero-splitting-curvature", lambda: flat() - omega),
        Row("curvature-closed", lambda: differential(flat())),
        Family("curv", ctx.samples, draw, checks, seed=ctx.seed),
    ]
