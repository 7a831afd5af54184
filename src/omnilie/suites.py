"""Named verification suites: one per certified family of identities.

Each suite is a table: a function of the context (model size, sample
count, master seed, generator bounds, optional named forms) that returns
its items in report order.  A ``sampling.Family`` is one seeded
identity family, built by the table or by a layer helper such as
``lcourant_axioms`` from the master seed and a seed tag; a ``Row`` is
one fixed check, shaped as a family of one case tagged with its label.
Building a table computes no row: ``SuiteSpec.units`` makes one unit
per case of each item, with an address (suite, tag and case range) and
a ``run()`` that returns the rows ``(label, ok, witness)`` of that
case, so one unit can run anywhere in any process.  All randomness is
derived from the master seed and the seed tags, so a rerun of the same
scenario reproduces the same report byte for byte.  Negative controls
are built in: they pass exactly when the expected failure is detected.
"""

from __future__ import annotations

import random
import types
from fractions import Fraction
from functools import cache, partial

from .errors import NonInvertible
from .sampling import CheckResult, Family, derive_seed, outcome
from .scalar import Scalar, Polynomial, monomials_upto, random_polynomial
from .gauge import Derivation, commutator, random_derivation
from .atiyah import (
    AtiyahForm,
    contract,
    differential,
    lie_derivative,
    primitive,
    random_form,
)
from .dcourant import (
    Connection,
    DSection,
    LCourantStructure,
    curvature,
    gauge_auto,
    lcourant_axioms,
    random_section,
)
from .observables import (
    HamiltonianForm,
    Subbundle,
    failing_pair,
    graph_of_form,
    hamiltonian_ambiguity,
    hamiltonian_form,
    induced_algebroid_residuals,
    is_involutive,
    is_isotropic,
    jacobiator_residual,
    observable_bracket,
    observable_bracket_hamiltonian,
    random_hamiltonian,
    section_coordinates,
    useful_lemma_residual,
)
from .linf import (
    RepHomotopyData,
    anchor_extension_algebra,
    build_dg_leibniz,
    build_graph_linf,
    build_semidirect,
    build_three_term,
    build_two_term,
    cohomologous_iso,
    derivation_residual,
    drop_bracket,
    injective_graph_morphism,
    jacobi_residual,
    kappa,
    leibniz_residual,
    morphism_residuals,
    prolongation_morphism,
    section_map_matrix,
)
from .jacobi import (
    JacobiBiderivation,
    _check_closed,
    dirac_gauge,
    failing_triple,
    find_noninvertible_pair,
    gauge_jacobi,
    graph,
    is_jacobi,
    is_twisted_jacobi,
    jacobi_bracket,
    jet_algebroid_residuals,
    monomial_scalars,
    section_derivation,
    span_equal,
    twisted_jacobi_residual,
)
from . import linalg


class SuiteContext:
    __slots__ = ("n", "samples", "seed", "max_degree", "coeff_bound", "forms", "sabotage")

    def __init__(self, n, samples, seed, max_degree=2, coeff_bound=3, forms=None, sabotage=None):
        self.n = n
        self.samples = samples
        self.seed = seed
        self.max_degree = max_degree
        self.coeff_bound = coeff_bound
        self.forms = {} if forms is None else forms
        self.sabotage = sabotage


class Row:
    """One fixed row of a suite table, shaped as a family of one case whose
    tag is the row's label: ``value()`` returns its residual or
    CheckResult, and is called only when the row runs."""

    __slots__ = ("tag", "value")
    count = 1

    def __init__(self, label, value):
        self.tag = label
        self.value = value

    def rows(self, lo, hi):
        return [outcome(self.tag, self.value())] if lo <= 0 < hi else []


class Unit:
    """The unit of scheduling: the cases ``lo..hi-1`` of the family or row
    ``tag`` of a suite.  ``run()`` returns their rows."""

    __slots__ = ("suite", "tag", "lo", "hi", "run")

    def __init__(self, suite, tag, lo, hi, run):
        self.suite = suite
        self.tag = tag
        self.lo = lo
        self.hi = hi
        self.run = run


def default_twist(ctx):
    """The named twist if provided, else a basis 3-form (zero when n < 2)."""
    if "omega" in ctx.forms:
        return ctx.forms["omega"]
    n = ctx.n
    if n >= 2:
        return AtiyahForm.basis(n, (0, 1, n))
    return AtiyahForm.zero(n, 3)


# ---------------------------------------------------------------------------
# suite tables
# ---------------------------------------------------------------------------


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


def _degree_pattern(case, size, terms):
    """Deterministic degree tuples: case index written in base ``terms``."""
    out = []
    value = case
    for _ in range(size):
        out.append(value % terms)
        value //= terms
    return out


def _oracle_families(ctx, structure, tag):
    """The coherence identity of ``structure`` on 1 to 4 inputs."""

    def family(size):
        def draw(rng, case):
            degrees = _degree_pattern(case, size, structure.terms)
            return structure.random_tuple(
                size, rng, min(ctx.max_degree, 2), ctx.coeff_bound, degrees=degrees
            )

        def context(*inputs):
            return {
                "structure": structure.name,
                "identity-size": size,
                "inputs": [str(e) for e in inputs],
            }

        return Family(
            f"oracle:{tag}:{size}",
            ctx.samples,
            draw,
            lambda *inputs: {f"{tag}:n{size}": jacobi_residual(structure, list(inputs))},
            context,
            seed=ctx.seed,
        )

    return [family(size) for size in range(1, min(4, structure.arity + 1) + 1)]


def linf_oracle(ctx):
    omni = LCourantStructure.omni(ctx.n)
    twist = default_twist(ctx)
    two_twisted = build_two_term(LCourantStructure.twisted(twist))
    if ctx.sabotage == "drop-l3":
        two_twisted = drop_bracket(two_twisted, 3)
    structures = [
        ("two-term", build_two_term(omni)),
        ("two-term-twisted", two_twisted),
        ("three-term", build_three_term(omni)),
    ]
    if ctx.n >= 2:
        structures.append(("graph", build_graph_linf(twist)))

    def kappa_table():
        expected = {2: 1, 3: -1, 4: -1, 5: 1}
        got = {k: kappa(k) for k in expected}
        return CheckResult(got == expected, {"got": got})

    return [
        *(f for tag, structure in structures for f in _oracle_families(ctx, structure, tag)),
        Row("kappa-table", kappa_table),
    ]


def _agreement(a, b):
    """Whether two brackets agree; None stands for zero outside the complex."""
    same = (a is None and b is None) or (
        a is not None and b is not None and a.payload == b.payload
    )
    return CheckResult(same, None if same else {"two-term": str(a), "semidirect": str(b)})


def semidirect_agreement(ctx):
    data = RepHomotopyData(ctx.n)
    semi = build_semidirect(data)
    two = build_two_term(LCourantStructure.omni(ctx.n))

    def draw(rng, case):
        x, y, z = (two.random_element(0, rng, 1, ctx.coeff_bound) for _ in range(3))
        return x, y, z, two.random_element(1, rng, 1, ctx.coeff_bound)

    def checks(x, y, z, s):
        return {
            "l2-sections": _agreement(two.l(2, [x, y]), semi.l(2, [x, y])),
            "l2-mixed": _agreement(two.l(2, [x, s]), semi.l(2, [x, s])),
            "l3": _agreement(two.l(3, [x, y, z]), semi.l(3, [x, y, z])),
        }

    return [
        data.axiom_residuals(
            max(3, ctx.samples // 5),
            ctx.seed,
            min(ctx.max_degree, 1),
            ctx.coeff_bound,
            "rep-axioms",
        ),
        Family("semidirect", ctx.samples, draw, checks, seed=ctx.seed),
    ]


def _injectivity(label, basis, fn, coordinates, n):
    """Row certifying fn injective on ``basis()``: its image's coefficients
    of degree <= 2, one column per basis element, have full column rank."""

    def value():
        monos = monomials_upto(n, 2)
        cols = []
        for b in basis():
            col = []
            for s in coordinates(fn(b)):
                if not s.is_polynomial():
                    raise ValueError("injectivity certificates expect polynomial entries")
                col += [Scalar.from_fraction(n, s.num.coefficient(mono)) for mono in monos]
            cols.append(col)
        rows = [[col[i] for col in cols] for i in range(len(cols[0]))]
        return CheckResult(linalg.rank(rows) == len(cols), {"error": "kernel found"})

    return Row(label, value)


def morphism_3_9(ctx):
    n = ctx.n
    rng = random.Random(derive_seed(ctx.seed, "m39", "form"))
    b_closed = differential(random_form(n, 1, rng, ctx.max_degree, ctx.coeff_bound))
    domain = anchor_extension_algebra(b_closed)
    morphism = prolongation_morphism(b_closed)

    def draw(rng, case):
        return domain.random_tuple(3, rng, 1, ctx.coeff_bound, degrees=[0, 0, 0])

    def basis():
        return [
            DSection(Derivation.basis(n, t).scale(m), AtiyahForm.zero(n, 0))
            for t in range(n + 1)
            for m in monomial_scalars(n, 2)
        ] + [
            DSection(Derivation.zero(n), AtiyahForm.from_scalar(m))
            for m in monomial_scalars(n, 2)
        ]

    return [
        morphism_residuals(
            morphism,
            domain,
            build_two_term(LCourantStructure.omni(n)),
            ctx.samples,
            ctx.seed,
            min(ctx.max_degree, 1),
            ctx.coeff_bound,
            "m39-res",
        ),
        # the domain bracket is a Lie algebra bracket for a closed shift
        Family(
            "m39-lie",
            max(3, ctx.samples // 10),
            draw,
            lambda *tup: {"domain-jacobi": jacobi_residual(domain, list(tup))},
            seed=ctx.seed,
        ),
        _injectivity("phi0-injective", basis, morphism.phi0, section_coordinates, n),
    ]


def morphism_5_9(ctx):
    n = ctx.n
    omega = default_twist(ctx)
    xi = graph_of_form(omega)
    morphism = injective_graph_morphism(omega)

    # supporting identities on random Hamiltonian pairs and triples
    def draw(rng, case):
        return tuple(random_hamiltonian(xi, rng, 1, ctx.coeff_bound) for _ in range(3))

    def corr(u, v):
        return (
            contract(u.ham_der, v.alpha) - contract(v.ham_der, u.alpha)
        ).scale(Fraction(1, 2))

    def checks(a, b, c):
        lie_a_b = lie_derivative(a.ham_der, b.alpha)
        triple = contract(
            a.ham_der, contract(b.ham_der, contract(c.ham_der, omega))
        ).scale(3)
        cyc = (
            contract(a.ham_der, differential(corr(b, c)))
            + contract(b.ham_der, differential(corr(c, a)))
            + contract(c.ham_der, differential(corr(a, b)))
        ).scale(2)
        lhs = (
            contract(commutator(a.ham_der, b.ham_der), c.alpha)
            + contract(commutator(b.ham_der, c.ham_der), a.alpha)
            + contract(commutator(c.ham_der, a.ham_der), b.alpha)
        )
        return {
            "lie-split": lie_a_b
            - observable_bracket(a, b)
            - differential(contract(a.ham_der, b.alpha)),
            "lie-antisym": lie_a_b
            - lie_derivative(b.ham_der, a.alpha)
            - (observable_bracket(a, b) + differential(corr(a, b))).scale(2),
            "bracket-via-form": observable_bracket(a, b)
            - contract(a.ham_der, contract(b.ham_der, omega)),
            "triple-contraction": lhs - triple - cyc,
        }

    def forms_basis():
        return [
            hamiltonian_form(AtiyahForm(n, 1, {(a_idx,): m}), xi)
            for a_idx in range(n + 1)
            for m in monomial_scalars(n, 2)
        ]

    return [
        morphism_residuals(
            morphism,
            build_graph_linf(omega),
            build_two_term(LCourantStructure.twisted(omega)),
            ctx.samples,
            ctx.seed,
            min(ctx.max_degree, 2),
            ctx.coeff_bound,
            "m59-res",
        ),
        Family("m59-eqs", ctx.samples, draw, checks, seed=ctx.seed),
        _injectivity("phi0-injective", forms_basis, morphism.phi0, section_coordinates, n),
        _injectivity(
            "phi1-injective", partial(monomial_scalars, n, 2), morphism.phi1, lambda s: [s], n
        ),
    ]


def cohomologous_iso_suite(ctx):
    n = ctx.n
    omega = default_twist(ctx)

    def draw(rng, case):
        if case == 0 and "B" in ctx.forms:
            b_form = ctx.forms["B"]
        else:
            b_form = random_form(n, 2, rng, min(ctx.max_degree, 2), ctx.coeff_bound)
        return case, b_form, random_section(n, 1, rng, 1, ctx.coeff_bound)

    def checks(case, b_form, e):
        morphism = cohomologous_iso(omega, b_form)
        source = build_two_term(LCourantStructure.twisted(omega))
        target = build_two_term(
            LCourantStructure.twisted(omega + differential(b_form))
        )
        residuals = morphism_residuals(
            morphism, source, target, 3, ctx.seed, 1, ctx.coeff_bound, f"coho-res:{case}"
        )
        out = {label: CheckResult(ok, witness) for label, ok, witness in residuals}
        det = linalg.determinant(section_map_matrix(morphism.phi0, n, 1))
        out["invertible"] = CheckResult(not det.is_zero(), {"determinant": str(det)})
        inverse = cohomologous_iso(omega + differential(b_form), -b_form)
        out["inverse-composes"] = inverse.phi0(morphism.phi0(e)) - e
        return out

    return [
        Family(
            "coho", max(1, ctx.samples // 5), draw, checks, label="case{case}:{name}", seed=ctx.seed
        )
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


def _degenerate_fixture(n):
    """An order-1 isotropic involutive span with nonzero ambiguity."""
    gens = [
        DSection(Derivation.partial(n, 1), AtiyahForm.basis(n, (n,))),
        DSection(Derivation.unit(n), -AtiyahForm.basis(n, (0,))),
        DSection(Derivation.partial(n, 2), AtiyahForm.zero(n, 1)),
    ]
    return Subbundle(gens)


def _fixture_hamiltonian(xi, rng, coeff_bound):
    """Hamiltonian section of the degenerate fixture: depends on x1 only."""
    n = xi.n
    terms = {}
    for k in range(3):
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            mono = tuple(k if i == 0 else 0 for i in range(n))
            terms[mono] = Fraction(c)
    s = Scalar(Polynomial(n, terms))
    return hamiltonian_form(AtiyahForm.from_scalar(s), xi)


def observables(ctx):
    n = ctx.n
    xi = graph_of_form(default_twist(ctx))

    def draw(rng, case):
        return tuple(
            random_hamiltonian(xi, rng, ctx.max_degree, ctx.coeff_bound) for _ in range(3)
        )

    def checks(a, b, c):
        bracket = observable_bracket_hamiltonian(a, b)
        member = xi.contains(DSection(bracket.ham_der, differential(bracket.alpha)))
        return {
            "antisymmetry": observable_bracket(a, b) + observable_bracket(b, a),
            "jacobiator": jacobiator_residual(a, b, c),
            "closure": CheckResult(
                member is not None, None if member is not None else {"bracket": str(bracket)}
            ),
        }

    def ambiguity_empty():
        ambiguity = hamiltonian_ambiguity(xi)
        return CheckResult(not ambiguity, {"basis": [str(d) for d in ambiguity]})

    table = [
        Row("graph-isotropic", lambda: is_isotropic(xi)),
        Row("graph-involutive", lambda: is_involutive(xi)),
        Family("obs", ctx.samples, draw, checks, seed=ctx.seed),
        induced_algebroid_residuals(xi, max(3, ctx.samples // 10), ctx.seed, tag="obs-alg"),
    ]
    if linalg.rank(xi._form_matrix()) == n + 1:
        table.append(Row("ambiguity-empty", ambiguity_empty))

    # representative independence on a degenerate fixture
    fixture = _degenerate_fixture(n)
    amb = cache(lambda: hamiltonian_ambiguity(fixture))

    def draw_fixture(rng, case):
        a = _fixture_hamiltonian(fixture, rng, ctx.coeff_bound)
        b = _fixture_hamiltonian(fixture, rng, ctx.coeff_bound)
        return a, b, [random_polynomial(n, rng, 1, ctx.coeff_bound) for _ in amb()]

    def fixture_checks(a, b, shifts):
        shifted_der = a.ham_der
        for amb_d, c in zip(amb(), shifts):
            shifted_der = shifted_der + amb_d.scale(c)
        shifted = HamiltonianForm(a.alpha, shifted_der)
        return {
            "representative-independence": observable_bracket(shifted, b)
            - observable_bracket(a, b)
        }

    return table + [
        Row(
            "fixture-ambiguity-nonzero",
            lambda: CheckResult(bool(amb()), {"error": "expected a nonzero ambiguity basis"}),
        ),
        Family("obs-fix", max(3, ctx.samples // 5), draw_fixture, fixture_checks, seed=ctx.seed),
    ]


def useful_lemma(ctx):
    xi = graph_of_form(default_twist(ctx))

    def draw(rng, case):
        return tuple(
            random_hamiltonian(xi, rng, min(ctx.max_degree, 2), ctx.coeff_bound)
            for _ in range(4)
        )

    def checks(*hams):
        return {
            "three-forms": useful_lemma_residual(hams[:3]),
            "four-forms": useful_lemma_residual(hams),
        }

    return [Family("useful", ctx.samples, draw, checks, seed=ctx.seed)]


def dg_leibniz(ctx):
    structure = build_dg_leibniz(default_twist(ctx))
    terms = structure.terms

    def element(rng, degree):
        return structure.random_element(degree, rng, 1, ctx.coeff_bound)

    def draw(rng, case):
        a, b, c = (element(rng, rng.randrange(terms)) for _ in range(3))
        hi = element(rng, 1 + rng.randrange(terms - 1)) if terms > 1 else None
        return a, b, c, hi

    def checks(a, b, c, hi):
        out = {
            "derivation-rule": derivation_residual(structure, a, b),
            "graded-leibniz": leibniz_residual(structure, a, b, c),
        }
        if hi is not None:
            out["positive-degree-vanishes"] = structure.l(2, [hi, b])
        return out

    return [Family("dgl", ctx.samples, draw, checks, seed=ctx.seed)]


def _random_biderivation(n, rng, coeff_bound):
    entries = {}
    for a in range(n + 1):
        for b in range(a + 1, n + 1):
            entries[(a, b)] = random_polynomial(n, rng, 1, coeff_bound)
    return JacobiBiderivation.from_entries(n, entries)


def _route_agreement(J, twist=None):
    """Whether the bracket route and the graph route decide the (twisted)
    Jacobi identity of J alike; a disagreement's witness is the two
    verdicts.  Only the verdicts are read, so no failure is rendered."""
    if twist is not None:
        _check_closed(twist)
    routes = {
        "bracket_route": failing_triple(J, twist) is None,
        "graph_route": failing_pair(graph(J), twist) is None,
    }
    agree = routes["bracket_route"] == routes["graph_route"]
    return CheckResult(agree, None if agree else routes)


def jacobi(ctx):
    n = ctx.n

    def draw(rng, case):
        J = _random_biderivation(n, rng, 2)
        s, t, f = (random_polynomial(n, rng, 2, 2) for _ in range(3))
        return J, s, t, f

    def checks(J, s, t, f):
        agreement = _route_agreement(J)
        X = section_derivation(J, s)
        return {
            "route-agreement": agreement,
            # biderivation property of the induced bracket {s, -} = X
            "biderivation": X(f * t) - f * X(t) - X.symbol_apply(f) * t,
        }

    # the canonical contact-type bracket in one variable
    contact = JacobiBiderivation.from_closed_form(AtiyahForm.basis(1, (0, 1)))
    flipped = JacobiBiderivation(1, [[-v for v in row] for row in contact.matrix])

    def contact_value():
        value = jacobi_bracket(contact, Scalar.variable(1, 1), Scalar.one(1))
        return CheckResult(value == -1, {"got": str(value)})

    return [
        Family("jacobi", ctx.samples, draw, checks, seed=ctx.seed),
        Row("contact-bracket-value", contact_value),
        Row("contact-is-jacobi", lambda: is_jacobi(contact)),
        Row("evaluation-orientation-is-jacobi", lambda: is_jacobi(flipped)),
    ]


def twisted_jacobi(ctx):
    n = ctx.n

    def draw(rng, case):
        J = _random_biderivation(n, rng, 2)
        return J, differential(random_form(n, 2, rng, 1, 2))

    def checks(J, twist):
        return {"cross-oracle": _route_agreement(J, twist)}

    table = [Family("twj", max(2, ctx.samples // 5), draw, checks, seed=ctx.seed)]
    if n >= 2:
        # a genuinely twisted structure: gauge a product bracket by a
        # non-closed 2-form and twist by its differential
        base = JacobiBiderivation.from_entries(n, {(0, 1): Scalar.one(n)})
        shear = AtiyahForm(n, 2, {(1, n): Scalar.variable(n, 1)})
        twist = differential(shear)
        twisted = gauge_jacobi(base, shear)
        table.append(Row("gauged-is-twisted", lambda: is_twisted_jacobi(twisted, twist)))
    else:
        # one variable admits no nonzero twist: fall back to the
        # canonical contact-type bracket
        twisted = JacobiBiderivation.from_closed_form(AtiyahForm.basis(1, (0, 1)))
        twist = AtiyahForm.zero(1, 3)
    table.append(
        jet_algebroid_residuals(
            twisted, twist, max(2, ctx.samples // 10), ctx.seed, tag="twj-jet"
        )
    )

    def spanning_twist_detected():
        # fixed three-variable negative control: a contact-type bracket is
        # untwisted, so a spanning twist must leave a nonzero residual
        n3 = 3
        alpha = AtiyahForm(n3, 1, {(0,): Scalar.variable(n3, 2), (2,): Scalar.one(n3)})
        contact = JacobiBiderivation.from_closed_form(differential(alpha))
        residual = twisted_jacobi_residual(
            contact,
            AtiyahForm.basis(n3, (0, 1, 3)),
            Scalar.variable(n3, 1),
            Scalar.variable(n3, 2),
            Scalar.variable(n3, 3),
        )
        detected = not residual.is_zero()
        return CheckResult(detected, {"error": "residual vanished"})

    return table + [Row("spanning-twist-detected", spanning_twist_detected)]


def gauge(ctx):
    n = ctx.n
    omni = LCourantStructure.omni(n)

    def draw(rng, case):
        b_closed = differential(random_form(n, 1, rng, ctx.max_degree, ctx.coeff_bound))
        e1 = random_section(n, 1, rng, 1, ctx.coeff_bound)
        return b_closed, e1, random_section(n, 1, rng, 1, ctx.coeff_bound)

    def checks(b_closed, e1, e2):
        return {
            "auto-intertwines": gauge_auto(b_closed, omni.bracket(e1, e2))
            - omni.bracket(gauge_auto(b_closed, e1), gauge_auto(b_closed, e2))
        }

    base = JacobiBiderivation.from_entries(n, {(0, 1): Scalar.one(n)})
    xi = graph(base)

    def draw_tau(rng, case):
        return tuple(differential(random_form(n, 1, rng, 1, 2)) for _ in range(2))

    def tau_checks(b1, b2):
        shifted = dirac_gauge(xi, b1)
        same = span_equal(dirac_gauge(shifted, b2), dirac_gauge(xi, b1 + b2))
        out = {
            "tau-composes": CheckResult(same, None if same else {"error": "span mismatch"}),
            "tau-involutive": is_involutive(shifted),
        }
        try:
            transformed = gauge_jacobi(base, b1)
        except NonInvertible:
            # singular draw: the graph law is vacuous here
            out["graph-law"] = CheckResult(True)
            return out
        same = span_equal(graph(transformed), shifted)
        out["graph-law"] = CheckResult(same, None if same else {"error": "graph mismatch"})
        return out

    def noninvertible_witness():
        found = find_noninvertible_pair(max(2, n))
        if found is None:
            return CheckResult(False, {"error": "no singular pair found in the search box"})
        try:
            gauge_jacobi(*found)
        except NonInvertible:
            return CheckResult(True)
        return CheckResult(False, {"error": "expected the gauge move to be singular"})

    return [
        Family("gauge", ctx.samples, draw, checks, seed=ctx.seed),
        Family("gauge-tau", max(2, ctx.samples // 5), draw_tau, tau_checks, seed=ctx.seed),
        Row("noninvertible-witness", noninvertible_witness),
    ]


class SuiteSpec:
    """A registered suite.  ``omega`` says what it needs of a named twist:
    None when it never reads ``forms.omega``, "closed" when it reads it
    as its closed 3-form twist, "nondegenerate" when it also builds the
    graph's observables from it, and "constant" when it also needs the
    graph's Hamiltonian derivations to be polynomial.  ``runner(ctx)``
    returns the rows of the table, by default by running every unit of
    ``units(ctx)`` in order, in process.  The field records let
    ``dataclasses.replace`` rebuild a spec (``perfbench/traced_verify.py``
    swaps each runner so) with no import of ``dataclasses``, which would
    add ``inspect``, ``ast``, ``dis`` and ``tokenize`` to the start-up of
    every command."""

    __slots__ = ("name", "min_n", "max_n", "omega", "table", "runner")
    __dataclass_fields__ = {
        name: types.SimpleNamespace(name=name, init=True, _field_type=None) for name in __slots__
    }

    def __init__(self, name, min_n, max_n, omega, table, runner=None):
        self.name = name
        self.min_n = min_n
        self.max_n = max_n
        self.omega = omega
        self.table = table
        self.runner = runner or (
            lambda ctx: [row for unit in self.units(ctx) for row in unit.run()]
        )

    def units(self, ctx):
        """The units of the table in report order, one per case of each item."""
        return [
            Unit(self.name, item.tag, case, case + 1, partial(item.rows, case, case + 1))
            for item in self.table(ctx)
            for case in range(item.count)
        ]


SUITES = {
    spec.name: spec
    for spec in [
        SuiteSpec("atiyah-calculus", 1, None, None, atiyah_calculus),
        SuiteSpec("lcourant-axioms", 1, None, "closed", lcourant_axioms_suite),
        SuiteSpec("linf-oracle", 1, None, "closed", linf_oracle),
        SuiteSpec("semidirect-agreement", 1, None, None, semidirect_agreement),
        SuiteSpec("morphism-3-9", 1, None, None, morphism_3_9),
        SuiteSpec("morphism-5-9", 2, 2, "constant", morphism_5_9),
        SuiteSpec("cohomologous-iso", 1, None, "closed", cohomologous_iso_suite),
        SuiteSpec("exact-curvature", 1, None, "closed", exact_curvature),
        SuiteSpec("observables", 2, 2, "closed", observables),
        SuiteSpec("useful-lemma", 2, 2, "closed", useful_lemma),
        SuiteSpec("dg-leibniz", 2, 2, "nondegenerate", dg_leibniz),
        SuiteSpec("jacobi", 1, None, None, jacobi),
        SuiteSpec("twisted-jacobi", 1, None, None, twisted_jacobi),
        SuiteSpec("gauge", 1, None, None, gauge),
    ]
}
