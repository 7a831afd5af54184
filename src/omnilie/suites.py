"""Named verification suites: one per certified family of identities.

Each suite maps a context (model size, sample count, master seed,
generator bounds, optional named forms) to an ordered list of case
outcomes ``(label, ok, witness)``.  All randomness is derived from the
master seed and the case labels, so a rerun of the same scenario
reproduces the same report byte for byte.  Negative controls are built
in: they pass exactly when the expected failure is detected and carry
its witness.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NonInvertible
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
    useful_lemma_residual,
)
from .linf import (
    GradedElement,
    anchor_extension_algebra,
    build_dg_leibniz,
    build_graph_linf,
    build_semidirect,
    build_three_term,
    build_two_term,
    cohomologous_iso,
    drop_bracket,
    ge_is_zero,
    injective_graph_morphism,
    jacobi_residual,
    kappa,
    morphism_residuals,
    prolongation_morphism,
    rep_homotopy_data,
    section_map_matrix,
)
from .jacobi import (
    JacobiBiderivation,
    dirac_gauge,
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


@dataclass
class SuiteContext:
    n: int
    samples: int
    seed: int
    max_degree: int = 2
    coeff_bound: int = 3
    forms: dict = field(default_factory=dict)
    sabotage: str | None = None


def derive_seed(master, *parts):
    text = ":".join([str(master)] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _rng(ctx, *parts):
    return random.Random(derive_seed(ctx.seed, *parts))


def default_twist(ctx):
    """The named twist if provided, else a basis 3-form (zero when n < 2)."""
    if "omega" in ctx.forms:
        return ctx.forms["omega"]
    n = ctx.n
    if n >= 2:
        return AtiyahForm.basis(n, (0, 1, n))
    return AtiyahForm.zero(n, 3)


def _ok(label, value):
    if value is None or isinstance(value, GradedElement):
        zero = ge_is_zero(value)
        shown = None if value is None else str(value.payload)
    else:
        zero = value.is_zero()
        shown = str(value)
    return (label, zero, None if zero else {"residual": shown})


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def run_atiyah_calculus(ctx):
    out = []
    n = ctx.n
    unit = Derivation.unit(n)
    for case in range(ctx.samples):
        rng = _rng(ctx, "atiyah", case)
        degree = case % (n + 2)
        w = random_form(n, degree, rng, ctx.max_degree, ctx.coeff_bound)
        D = random_derivation(n, rng, ctx.max_degree, ctx.coeff_bound)
        E = random_derivation(n, rng, ctx.max_degree, ctx.coeff_bound)
        out.append(_ok(f"d-squared[{case}]", differential(differential(w))))
        out.append(
            _ok(
                f"cartan[{case}]",
                lie_derivative(D, w)
                - contract(D, differential(w))
                - differential(contract(D, w)),
            )
        )
        out.append(
            _ok(
                f"unit-homotopy[{case}]",
                differential(contract(unit, w))
                + contract(unit, differential(w))
                - w,
            )
        )
        if degree >= 1:
            out.append(
                _ok(
                    f"lie-contract[{case}]",
                    lie_derivative(D, contract(E, w))
                    - contract(E, lie_derivative(D, w))
                    - contract(commutator(D, E), w),
                )
            )
        s = random_polynomial(n, rng, ctx.max_degree, ctx.coeff_bound)
        out.append(
            _ok(
                f"jet-injectivity[{case}]",
                contract(unit, differential(s)).scalar() - s,
            )
        )
    return out


def run_lcourant_axioms(ctx):
    out = []
    omni = LCourantStructure.omni(ctx.n)
    for label, ok, witness in lcourant_axioms(
        omni, ctx.samples, derive_seed(ctx.seed, "lc-omni"), ctx.max_degree, ctx.coeff_bound
    ):
        out.append((f"omni:{label}", ok, witness))
    twist = default_twist(ctx)
    twisted = LCourantStructure.twisted(twist)
    for label, ok, witness in lcourant_axioms(
        twisted, ctx.samples, derive_seed(ctx.seed, "lc-twisted"), ctx.max_degree, ctx.coeff_bound
    ):
        out.append((f"twisted:{label}", ok, witness))

    # negative control with its own three-variable model: a non-closed
    # twist must break the first axiom with a witness
    bad = AtiyahForm(3, 3, {(0, 1, 3): Scalar.variable(3, 3)})
    control = lcourant_axioms(
        LCourantStructure.twisted(bad), 6, derive_seed(ctx.seed, "lc-bad"), 1, 2
    )
    failures = [w for label, ok, w in control if label.startswith("LC1") and not ok]
    out.append(
        (
            "nonclosed-twist-detected",
            bool(failures),
            failures[0] if failures else {"error": "no LC1 failure found"},
        )
    )
    return out


def _degree_pattern(case, size, terms):
    """Deterministic degree tuples: case index written in base ``terms``."""
    out = []
    value = case
    for _ in range(size):
        out.append(value % terms)
        value //= terms
    return out


def _oracle_cases(ctx, structure, tag, max_n=4):
    out = []
    top = min(max_n, structure.arity + 1)
    for nn in range(1, top + 1):
        for case in range(ctx.samples):
            rng = _rng(ctx, "oracle", tag, nn, case)
            degrees = _degree_pattern(case, nn, structure.terms)
            tup = structure.random_tuple(
                nn, rng, min(ctx.max_degree, 2), ctx.coeff_bound, degrees=degrees
            )
            residual = jacobi_residual(structure, tup)
            zero = ge_is_zero(residual)
            witness = None
            if not zero:
                witness = {
                    "structure": structure.name,
                    "identity-size": nn,
                    "inputs": [str(e.payload) for e in tup],
                    "residual": str(residual.payload),
                }
            out.append((f"{tag}:n{nn}[{case}]", zero, witness))
    return out


def run_linf_oracle(ctx):
    out = []
    omni = LCourantStructure.omni(ctx.n)
    twist = default_twist(ctx)
    twisted = LCourantStructure.twisted(twist)
    two_omni = build_two_term(omni)
    two_twisted = build_two_term(twisted)
    if ctx.sabotage == "drop-l3":
        two_twisted = drop_bracket(two_twisted, 3)
    out.extend(_oracle_cases(ctx, two_omni, "two-term"))
    out.extend(_oracle_cases(ctx, two_twisted, "two-term-twisted"))
    out.extend(_oracle_cases(ctx, build_three_term(omni), "three-term"))
    if ctx.n >= 2:
        out.extend(_oracle_cases(ctx, build_graph_linf(twist), "graph"))
    expected = {2: 1, 3: -1, 4: -1, 5: 1}
    ok = all(kappa(k) == v for k, v in expected.items())
    out.append(
        (
            "kappa-table",
            ok,
            None if ok else {"got": {k: kappa(k) for k in expected}},
        )
    )
    return out


def run_semidirect_agreement(ctx):
    out = []
    data = rep_homotopy_data(ctx.n)
    out.extend(
        data.axiom_residuals(
            max(3, ctx.samples // 5),
            derive_seed(ctx.seed, "rep-axioms"),
            min(ctx.max_degree, 1),
            ctx.coeff_bound,
        )
    )
    semi = build_semidirect(data)
    two = build_two_term(LCourantStructure.omni(ctx.n))
    for case in range(ctx.samples):
        rng = _rng(ctx, "semidirect", case)
        x = two.random_element(0, rng, 1, ctx.coeff_bound)
        y = two.random_element(0, rng, 1, ctx.coeff_bound)
        z = two.random_element(0, rng, 1, ctx.coeff_bound)
        s = two.random_element(1, rng, 1, ctx.coeff_bound)
        pairs = [
            ("l2-sections", two.l(2, [x, y]), semi.l(2, [x, y])),
            ("l2-mixed", two.l(2, [x, s]), semi.l(2, [x, s])),
            ("l3", two.l(3, [x, y, z]), semi.l(3, [x, y, z])),
        ]
        for tag, a, b in pairs:
            same = (a is None and b is None) or (
                a is not None and b is not None and a.payload == b.payload
            )
            out.append(
                (
                    f"{tag}[{case}]",
                    same,
                    None
                    if same
                    else {
                        "two-term": str(None if a is None else a.payload),
                        "semidirect": str(None if b is None else b.payload),
                    },
                )
            )
    return out


def _flatten_polynomials(scalars, n, deg):
    monos = monomials_upto(n, deg)
    out = []
    for s in scalars:
        if not s.is_polynomial():
            raise ValueError("injectivity certificates expect polynomial entries")
        for mono in monos:
            out.append(s.num.coefficient(mono))
    return out


def _injective_on_truncation(basis_payloads, fn, coordinates, n, deg):
    cols = [
        _flatten_polynomials(coordinates(fn(b)), n, deg) for b in basis_payloads
    ]
    rows = [[col[i] for col in cols] for i in range(len(cols[0]))]
    return linalg.fraction_rank(rows) == len(cols)


def run_morphism_3_9(ctx):
    from .observables import section_coordinates

    out = []
    n = ctx.n
    rng = _rng(ctx, "m39", "form")
    b_closed = differential(random_form(n, 1, rng, ctx.max_degree, ctx.coeff_bound))
    domain = anchor_extension_algebra(b_closed)
    target = build_two_term(LCourantStructure.omni(n))
    morphism = prolongation_morphism(b_closed)
    out.extend(
        morphism_residuals(
            morphism,
            domain,
            target,
            ctx.samples,
            derive_seed(ctx.seed, "m39-res"),
            min(ctx.max_degree, 1),
            ctx.coeff_bound,
        )
    )
    # the domain bracket is a Lie algebra bracket for a closed shift
    for case in range(max(3, ctx.samples // 10)):
        rng = _rng(ctx, "m39-lie", case)
        tup = domain.random_tuple(3, rng, 1, ctx.coeff_bound, degrees=[0, 0, 0])
        out.append(_ok(f"domain-jacobi[{case}]", jacobi_residual(domain, tup)))

    basis = []
    for t in range(n + 1):
        for m in monomial_scalars(n, 2):
            basis.append(
                DSection(Derivation.basis(n, t).scale(m), AtiyahForm.zero(n, 0))
            )
    for m in monomial_scalars(n, 2):
        basis.append(DSection(Derivation.zero(n), AtiyahForm.from_scalar(m)))
    injective = _injective_on_truncation(
        basis, morphism.phi0, section_coordinates, n, 2
    )
    out.append(
        ("phi0-injective", injective, None if injective else {"error": "kernel found"})
    )
    return out


def run_morphism_5_9(ctx):
    from .observables import section_coordinates

    out = []
    n = ctx.n
    omega = default_twist(ctx)
    source = build_graph_linf(omega)
    xi = graph_of_form(omega)
    target = build_two_term(LCourantStructure.twisted(omega))
    morphism = injective_graph_morphism(omega)
    out.extend(
        morphism_residuals(
            morphism,
            source,
            target,
            ctx.samples,
            derive_seed(ctx.seed, "m59-res"),
            min(ctx.max_degree, 2),
            ctx.coeff_bound,
        )
    )
    # supporting identities on random Hamiltonian pairs and triples
    for case in range(ctx.samples):
        rng = _rng(ctx, "m59-eqs", case)
        a = random_hamiltonian(xi, rng, 1, ctx.coeff_bound)
        b = random_hamiltonian(xi, rng, 1, ctx.coeff_bound)
        c = random_hamiltonian(xi, rng, 1, ctx.coeff_bound)
        lie_a_b = lie_derivative(a.ham_der, b.alpha)
        out.append(
            _ok(
                f"lie-split[{case}]",
                lie_a_b
                - observable_bracket(a, b)
                - differential(contract(a.ham_der, b.alpha)),
            )
        )
        corrector = (
            contract(a.ham_der, b.alpha) - contract(b.ham_der, a.alpha)
        ).scale(Fraction(1, 2))
        out.append(
            _ok(
                f"lie-antisym[{case}]",
                lie_a_b
                - lie_derivative(b.ham_der, a.alpha)
                - (observable_bracket(a, b) + differential(corrector)).scale(2),
            )
        )
        out.append(
            _ok(
                f"bracket-via-form[{case}]",
                observable_bracket(a, b)
                - contract(a.ham_der, contract(b.ham_der, omega)),
            )
        )

        def corr(u, v):
            return (
                contract(u.ham_der, v.alpha) - contract(v.ham_der, u.alpha)
            ).scale(Fraction(1, 2))

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
        out.append(_ok(f"triple-contraction[{case}]", lhs - triple - cyc))

    forms_basis = []
    for a_idx in range(n + 1):
        for m in monomial_scalars(n, 2):
            forms_basis.append(
                hamiltonian_form(AtiyahForm(n, 1, {(a_idx,): m}), xi)
            )
    injective0 = _injective_on_truncation(
        forms_basis, morphism.phi0, section_coordinates, n, 2
    )
    out.append(
        ("phi0-injective", injective0, None if injective0 else {"error": "kernel found"})
    )
    injective1 = _injective_on_truncation(
        monomial_scalars(n, 2), morphism.phi1, lambda s: [s], n, 2
    )
    out.append(
        ("phi1-injective", injective1, None if injective1 else {"error": "kernel found"})
    )
    return out


def run_cohomologous_iso(ctx):
    out = []
    n = ctx.n
    omega = default_twist(ctx)
    for case in range(max(1, ctx.samples // 5)):
        rng = _rng(ctx, "coho", case)
        if case == 0 and "B" in ctx.forms:
            b_form = ctx.forms["B"]
        else:
            b_form = random_form(n, 2, rng, min(ctx.max_degree, 2), ctx.coeff_bound)
        morphism = cohomologous_iso(omega, b_form)
        source = build_two_term(LCourantStructure.twisted(omega))
        target = build_two_term(
            LCourantStructure.twisted(omega + differential(b_form))
        )
        for label, ok, witness in morphism_residuals(
            morphism, source, target, 3, derive_seed(ctx.seed, "coho-res", case), 1, ctx.coeff_bound
        ):
            out.append((f"case{case}:{label}", ok, witness))
        matrix = section_map_matrix(morphism.phi0, n, 1)
        det = linalg.determinant(matrix)
        out.append(
            (
                f"case{case}:invertible",
                not det.is_zero(),
                None if not det.is_zero() else {"determinant": str(det)},
            )
        )
        inverse = cohomologous_iso(omega + differential(b_form), -b_form)
        e = random_section(n, 1, rng, 1, ctx.coeff_bound)
        round_trip = inverse.phi0(morphism.phi0(e)) - e
        out.append(_ok(f"case{case}:inverse-composes", round_trip))
    return out


def run_exact_curvature(ctx):
    out = []
    n = ctx.n
    omega = default_twist(ctx)
    structure = LCourantStructure.twisted(omega)
    flat = curvature(Connection.zero(n), structure)
    out.append(_ok("zero-splitting-curvature", flat - omega))
    out.append(_ok("curvature-closed", differential(flat)))
    for case in range(ctx.samples):
        rng = _rng(ctx, "curv", case)
        if case == 0 and "theta" in ctx.forms:
            theta = ctx.forms["theta"]
        else:
            theta = random_form(n, 2, rng, ctx.max_degree, ctx.coeff_bound)
        shifted = curvature(Connection.zero(n).shifted(theta), structure)
        out.append(_ok(f"shift-law[{case}]", shifted - flat - differential(theta)))
        out.append(
            _ok(f"primitive-reproduces[{case}]", differential(primitive(shifted)) - shifted)
        )
    return out


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


def run_observables(ctx):
    out = []
    n = ctx.n
    omega = default_twist(ctx)
    xi = graph_of_form(omega)
    out.append(
        (
            "graph-isotropic",
            is_isotropic(xi).ok,
            None if is_isotropic(xi).ok else is_isotropic(xi).witness,
        )
    )
    involutive = is_involutive(
        xi, samples=3, seed=derive_seed(ctx.seed, "obs-inv")
    )
    out.append(("graph-involutive", involutive.ok, involutive.witness))
    for case in range(ctx.samples):
        rng = _rng(ctx, "obs", case)
        a = random_hamiltonian(xi, rng, ctx.max_degree, ctx.coeff_bound)
        b = random_hamiltonian(xi, rng, ctx.max_degree, ctx.coeff_bound)
        c = random_hamiltonian(xi, rng, ctx.max_degree, ctx.coeff_bound)
        out.append(
            _ok(
                f"antisymmetry[{case}]",
                observable_bracket(a, b) + observable_bracket(b, a),
            )
        )
        out.append(_ok(f"jacobiator[{case}]", jacobiator_residual(a, b, c)))
        bracket = observable_bracket_hamiltonian(a, b)
        member = xi.contains(
            DSection(bracket.ham_der, differential(bracket.alpha))
        )
        out.append(
            (
                f"closure[{case}]",
                member is not None,
                None if member is not None else {"bracket": str(bracket)},
            )
        )
    out.extend(
        induced_algebroid_residuals(
            xi, max(3, ctx.samples // 10), derive_seed(ctx.seed, "obs-alg")
        )
    )
    ambiguity = hamiltonian_ambiguity(xi)
    nondeg = linalg.rank(xi._form_matrix()) == n + 1
    if nondeg:
        out.append(
            (
                "ambiguity-empty",
                not ambiguity,
                None if not ambiguity else {"basis": [str(d) for d in ambiguity]},
            )
        )

    # representative independence on a degenerate fixture
    fixture = _degenerate_fixture(n)
    amb = hamiltonian_ambiguity(fixture)
    out.append(
        (
            "fixture-ambiguity-nonzero",
            bool(amb),
            None if amb else {"error": "expected a nonzero ambiguity basis"},
        )
    )
    for case in range(max(3, ctx.samples // 5)):
        rng = _rng(ctx, "obs-fix", case)
        a = _fixture_hamiltonian(fixture, rng, ctx.coeff_bound)
        b = _fixture_hamiltonian(fixture, rng, ctx.coeff_bound)
        base = observable_bracket(a, b)
        shifted_der = a.ham_der
        for amb_d in amb:
            shifted_der = shifted_der + amb_d.scale(
                random_polynomial(n, rng, 1, ctx.coeff_bound)
            )
        shifted = HamiltonianForm(a.alpha, shifted_der)
        out.append(
            _ok(f"representative-independence[{case}]", observable_bracket(shifted, b) - base)
        )
    return out


def run_useful_lemma(ctx):
    out = []
    omega = default_twist(ctx)
    xi = graph_of_form(omega)
    for case in range(ctx.samples):
        rng = _rng(ctx, "useful", case)
        hams = [
            random_hamiltonian(xi, rng, min(ctx.max_degree, 2), ctx.coeff_bound)
            for _ in range(4)
        ]
        out.append(_ok(f"three-forms[{case}]", useful_lemma_residual(hams[:3])))
        out.append(_ok(f"four-forms[{case}]", useful_lemma_residual(hams)))
    return out


def run_dg_leibniz(ctx):
    out = []
    omega = default_twist(ctx)
    structure = build_dg_leibniz(omega)
    terms = structure.terms
    for case in range(ctx.samples):
        rng = _rng(ctx, "dgl", case)
        a = structure.random_element(rng.randrange(terms), rng, 1, ctx.coeff_bound)
        b = structure.random_element(rng.randrange(terms), rng, 1, ctx.coeff_bound)
        c = structure.random_element(rng.randrange(terms), rng, 1, ctx.coeff_bound)
        out.append(_ok(f"derivation-rule[{case}]", structure.derivation_residual(a, b)))
        out.append(_ok(f"graded-leibniz[{case}]", structure.leibniz_residual(a, b, c)))
        if terms > 1:
            hi = structure.random_element(
                1 + rng.randrange(terms - 1), rng, 1, ctx.coeff_bound
            )
            out.append(_ok(f"positive-degree-vanishes[{case}]", structure.bracket(hi, b)))
    return out


def _random_biderivation(n, rng, coeff_bound):
    entries = {}
    for a in range(n + 1):
        for b in range(a + 1, n + 1):
            entries[(a, b)] = random_polynomial(n, rng, 1, coeff_bound)
    return JacobiBiderivation.from_entries(n, entries)


def run_jacobi(ctx):
    out = []
    n = ctx.n
    for case in range(ctx.samples):
        rng = _rng(ctx, "jacobi", case)
        J = _random_biderivation(n, rng, 2)
        result = is_jacobi(J, samples=2, seed=derive_seed(ctx.seed, "jac-r", case))
        agree = result.witness["bracket_route"] == result.witness["graph_route"]
        out.append(
            (
                f"route-agreement[{case}]",
                agree,
                None if agree else result.witness,
            )
        )
        # biderivation property of the induced bracket
        s = random_polynomial(n, rng, 2, 2)
        t = random_polynomial(n, rng, 2, 2)
        f = random_polynomial(n, rng, 2, 2)
        res = (
            jacobi_bracket(J, s, f * t)
            - f * jacobi_bracket(J, s, t)
            - section_derivation(J, s).symbol_apply(f) * t
        )
        out.append(_ok(f"biderivation[{case}]", res))

    # the canonical contact-type bracket in one variable
    contact = JacobiBiderivation.from_closed_form(AtiyahForm.basis(1, (0, 1)))
    x = Scalar.variable(1, 1)
    value = jacobi_bracket(contact, x, Scalar.one(1))
    out.append(
        (
            "contact-bracket-value",
            value == -1,
            None if value == -1 else {"got": str(value)},
        )
    )
    verdict = is_jacobi(contact, samples=3, seed=derive_seed(ctx.seed, "jac-c"))
    out.append(("contact-is-jacobi", verdict.ok, verdict.witness if not verdict.ok else None))
    flipped = JacobiBiderivation(
        1, [[-v for v in row] for row in contact.matrix]
    )
    verdict = is_jacobi(flipped, samples=3, seed=derive_seed(ctx.seed, "jac-f"))
    out.append(("evaluation-orientation-is-jacobi", verdict.ok, verdict.witness if not verdict.ok else None))
    return out


def run_twisted_jacobi(ctx):
    out = []
    n = ctx.n
    for case in range(max(2, ctx.samples // 5)):
        rng = _rng(ctx, "twj", case)
        J = _random_biderivation(n, rng, 2)
        twist = differential(random_form(n, 2, rng, 1, 2))
        route_a = is_twisted_jacobi(J, twist).ok
        route_b = is_involutive(graph(J), twist=twist).ok
        out.append(
            (
                f"cross-oracle[{case}]",
                route_a == route_b,
                None
                if route_a == route_b
                else {"bracket_route": route_a, "graph_route": route_b},
            )
        )

    if n >= 2:
        # a genuinely twisted structure: gauge a product bracket by a
        # non-closed 2-form and twist by its differential
        base = JacobiBiderivation.from_entries(n, {(0, 1): Scalar.one(n)})
        shear = AtiyahForm(n, 2, {(1, n): Scalar.variable(n, 1)})
        twist = differential(shear)
        twisted = gauge_jacobi(base, shear)
        verdict = is_twisted_jacobi(twisted, twist)
        out.append(("gauged-is-twisted", verdict.ok, verdict.witness if not verdict.ok else None))
    else:
        # one variable admits no nonzero twist: fall back to the
        # canonical contact-type bracket
        twisted = JacobiBiderivation.from_closed_form(AtiyahForm.basis(1, (0, 1)))
        twist = AtiyahForm.zero(1, 3)
    out.extend(
        jet_algebroid_residuals(
            twisted,
            twist,
            max(2, ctx.samples // 10),
            derive_seed(ctx.seed, "twj-jet"),
        )
    )

    # fixed three-variable negative control: a contact-type bracket is
    # untwisted, so a spanning twist must leave a nonzero residual
    n3 = 3
    alpha = AtiyahForm(
        n3, 1, {(0,): Scalar.variable(n3, 2), (2,): Scalar.one(n3)}
    )
    contact = JacobiBiderivation.from_closed_form(differential(alpha))
    spanning = AtiyahForm.basis(n3, (0, 1, 3))
    residual = twisted_jacobi_residual(
        contact,
        spanning,
        Scalar.variable(n3, 1),
        Scalar.variable(n3, 2),
        Scalar.variable(n3, 3),
    )
    out.append(
        (
            "spanning-twist-detected",
            not residual.is_zero(),
            None if not residual.is_zero() else {"error": "residual vanished"},
        )
    )
    return out


def run_gauge(ctx):
    out = []
    n = ctx.n
    omni = LCourantStructure.omni(n)
    for case in range(ctx.samples):
        rng = _rng(ctx, "gauge", case)
        b_closed = differential(random_form(n, 1, rng, ctx.max_degree, ctx.coeff_bound))
        e1 = random_section(n, 1, rng, 1, ctx.coeff_bound)
        e2 = random_section(n, 1, rng, 1, ctx.coeff_bound)
        res = gauge_auto(b_closed, omni.bracket(e1, e2)) - omni.bracket(
            gauge_auto(b_closed, e1), gauge_auto(b_closed, e2)
        )
        out.append(_ok(f"auto-intertwines[{case}]", res))

    base = JacobiBiderivation.from_entries(n, {(0, 1): Scalar.one(n)})
    xi = graph(base)
    for case in range(max(2, ctx.samples // 5)):
        rng = _rng(ctx, "gauge-tau", case)
        b1 = differential(random_form(n, 1, rng, 1, 2))
        b2 = differential(random_form(n, 1, rng, 1, 2))
        composed = dirac_gauge(dirac_gauge(xi, b1), b2)
        direct = dirac_gauge(xi, b1 + b2)
        ok = span_equal(composed, direct)
        out.append((f"tau-composes[{case}]", ok, None if ok else {"error": "span mismatch"}))
        inv = is_involutive(dirac_gauge(xi, b1))
        out.append((f"tau-involutive[{case}]", inv.ok, inv.witness))
        try:
            transformed = gauge_jacobi(base, b1)
        except NonInvertible:
            # singular draw: the graph law is vacuous here
            out.append((f"graph-law[{case}]", True, None))
            continue
        ok = span_equal(graph(transformed), dirac_gauge(xi, b1))
        out.append((f"graph-law[{case}]", ok, None if ok else {"error": "graph mismatch"}))

    found = find_noninvertible_pair(max(2, n))
    ok = found is not None
    if ok:
        J_bad, B_bad = found
        try:
            gauge_jacobi(J_bad, B_bad)
            ok = False
            witness = {"error": "expected the gauge move to be singular"}
        except NonInvertible as exc:
            witness = None
    else:
        witness = {"error": "no singular pair found in the search box"}
    out.append(("noninvertible-witness", ok, witness))
    return out


@dataclass(frozen=True)
class SuiteSpec:
    name: str
    min_n: int
    max_n: int | None
    runner: object


SUITES = {
    spec.name: spec
    for spec in [
        SuiteSpec("atiyah-calculus", 1, None, run_atiyah_calculus),
        SuiteSpec("lcourant-axioms", 1, None, run_lcourant_axioms),
        SuiteSpec("linf-oracle", 1, None, run_linf_oracle),
        SuiteSpec("semidirect-agreement", 1, None, run_semidirect_agreement),
        SuiteSpec("morphism-3-9", 1, None, run_morphism_3_9),
        SuiteSpec("morphism-5-9", 2, 2, run_morphism_5_9),
        SuiteSpec("cohomologous-iso", 1, None, run_cohomologous_iso),
        SuiteSpec("exact-curvature", 1, None, run_exact_curvature),
        SuiteSpec("observables", 2, 2, run_observables),
        SuiteSpec("useful-lemma", 2, 2, run_useful_lemma),
        SuiteSpec("dg-leibniz", 2, 2, run_dg_leibniz),
        SuiteSpec("jacobi", 1, None, run_jacobi),
        SuiteSpec("twisted-jacobi", 1, None, run_twisted_jacobi),
        SuiteSpec("gauge", 1, None, run_gauge),
    ]
}
