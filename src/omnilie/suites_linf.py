"""Suite tables of the L-infinity layer: linf-oracle,
semidirect-agreement, morphism-3-9, morphism-5-9, cohomologous-iso and
dg-leibniz.  ``omnilie.suites`` imports this module on the first call of
one of these tables."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial

from .sampling import CheckResult, Family, derive_seed
from .scalar import Scalar, monomial_scalars, monomials_upto
from .gauge import Derivation, commutator
from .atiyah import AtiyahForm, contract, differential, lie_derivative, random_form
from .dcourant import DSection, LCourantStructure, random_section
from .observables import (
    graph_of_form,
    hamiltonian_form,
    observable_bracket,
    random_hamiltonian,
    section_coordinates,
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
from . import linalg
from .suites import Row
from .suites_forms import default_twist


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
