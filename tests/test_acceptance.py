"""Acceptance criteria, one test per criterion, each at its stated sample
counts with exact zero tolerances.  Every test prints one pass line; a
failed assertion aborts before the line is printed."""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from omnilie.errors import NonInvertible
from omnilie.gauge import Derivation, commutator, random_derivation
from omnilie.atiyah import (
    AtiyahForm,
    contract,
    differential,
    lie_derivative,
    primitive,
    random_form,
)
from omnilie.dcourant import (
    Connection,
    DSection,
    LCourantStructure,
    curvature,
    lcourant_axioms,
)
from omnilie.observables import (
    HamiltonianForm,
    graph_of_form,
    hamiltonian_ambiguity,
    jacobiator_residual,
    observable_bracket,
    random_hamiltonian,
    useful_lemma_residual,
)
from omnilie.linf import (
    GradedElement,
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
    ge_is_zero,
    injective_graph_morphism,
    jacobi_residual,
    kappa,
    leibniz_residual,
    morphism_residuals,
    prolongation_morphism,
    section_map_matrix,
)
from omnilie.jacobi import (
    JacobiBiderivation,
    dirac_gauge,
    find_noninvertible_pair,
    gauge_jacobi,
    graph,
    is_jacobi,
    is_twisted_jacobi,
    monomial_scalars,
    span_equal,
)
from omnilie.observables import is_involutive
from omnilie.scalar import Polynomial, Scalar, random_polynomial
from omnilie import linalg

ROOT = Path(__file__).resolve().parent.parent
OMEGA2 = AtiyahForm.basis(2, (0, 1, 2))


def announce(number, text):
    print(f"ACCEPTANCE {number:02d} [{text}]: PASS")


def test_criterion_01_atiyah_calculus():
    start = time.time()
    for n in (1, 2, 3):
        rng = random.Random(1000 + n)
        unit = Derivation.unit(n)
        for case in range(100):
            degree = case % (n + 2)
            w = random_form(n, degree, rng, 2, 3)
            d = random_derivation(n, rng, 2, 3)
            e = random_derivation(n, rng, 1, 2)
            assert differential(differential(w)).is_zero()
            assert lie_derivative(d, w) == contract(d, differential(w)) + differential(
                contract(d, w)
            )
            assert (
                differential(contract(unit, w)) + contract(unit, differential(w)) == w
            )
            if degree >= 1:
                lhs = lie_derivative(d, contract(e, w)) - contract(
                    e, lie_derivative(d, w)
                )
                assert lhs == contract(commutator(d, e), w)
    elapsed = time.time() - start
    assert elapsed < 30, f"calculus sweep took {elapsed:.1f}s"
    announce(1, f"atiyah calculus, 3 models x 100 forms in {elapsed:.1f}s")


def test_criterion_02_lcourant_axioms():
    for structure, seed in (
        (LCourantStructure.omni(2), 21),
        (LCourantStructure.twisted(OMEGA2), 22),
    ):
        entries = lcourant_axioms(structure, 25, seed)
        assert all(ok for _, ok, _ in entries), structure.name
    bad = AtiyahForm(3, 3, {(0, 1, 3): Scalar.variable(3, 3)})
    entries = lcourant_axioms(LCourantStructure.twisted(bad), 8, 23)
    witnesses = [
        w for label, ok, w in entries if label.startswith("LC1") and not ok
    ]
    assert witnesses and "residual" in witnesses[0]
    announce(2, "bracket axioms, 25 triples per instance plus failure witness")


def test_criterion_03_linf_oracle():
    structures = [
        build_two_term(LCourantStructure.omni(2)),
        build_two_term(LCourantStructure.twisted(OMEGA2)),
        build_three_term(LCourantStructure.omni(2)),
    ]
    for structure in structures:
        for size in range(1, 5):
            rng = random.Random(3000 + size)
            for case in range(50):
                degrees = [
                    (case + slot) % structure.terms for slot in range(size)
                ]
                tup = structure.random_tuple(size, rng, 1, 2, degrees=degrees)
                assert ge_is_zero(jacobi_residual(structure, tup)), (
                    structure.name,
                    size,
                    case,
                )
    sabotaged = drop_bracket(build_two_term(LCourantStructure.twisted(OMEGA2)), 3)
    witness = [
        GradedElement(0, DSection(Derivation.partial(2, 1), AtiyahForm.zero(2, 1))),
        GradedElement(0, DSection(Derivation.partial(2, 2), AtiyahForm.zero(2, 1))),
        GradedElement(0, DSection(Derivation.unit(2), AtiyahForm.zero(2, 1))),
    ]
    assert not ge_is_zero(jacobi_residual(sabotaged, witness))
    announce(3, "homotopy oracle n=1..4, 50 tuples per size, mutation caught")


def test_criterion_04_semidirect_agreement():
    data = RepHomotopyData(2)
    semi = build_semidirect(data)
    two = build_two_term(LCourantStructure.omni(2))
    rng = random.Random(4000)
    for _ in range(200):
        x = two.random_element(0, rng, 1, 2)
        y = two.random_element(0, rng, 1, 2)
        z = two.random_element(0, rng, 1, 2)
        s = two.random_element(1, rng, 1, 2)
        assert two.l(2, [x, y]).payload == semi.l(2, [x, y]).payload
        assert two.l(2, [x, s]).payload == semi.l(2, [x, s]).payload
        assert two.l(3, [x, y, z]).payload == semi.l(3, [x, y, z]).payload
    announce(4, "semidirect product agreement on 200 random inputs")


def _flatten(scalars, n, deg):
    from omnilie.scalar import monomials_upto

    out = []
    for s in scalars:
        assert s.is_polynomial()
        for mono in monomials_upto(n, deg):
            out.append(Scalar.from_fraction(n, s.num.coefficient(mono)))
    return out


def _truncated_injective(basis, fn, coords, n, deg):
    cols = [_flatten(coords(fn(b)), n, deg) for b in basis]
    rows = [[col[i] for col in cols] for i in range(len(cols[0]))]
    return linalg.rank(rows) == len(cols)


def test_criterion_05_morphism_suites():
    from omnilie.observables import hamiltonian_form, section_coordinates

    rng = random.Random(5000)
    # canonical morphism from the twisted order-0 algebra
    b_closed = differential(random_form(2, 1, rng, 2, 2))
    domain = anchor_extension_algebra(b_closed)
    target = build_two_term(LCourantStructure.omni(2))
    morphism = prolongation_morphism(b_closed)
    entries = morphism_residuals(morphism, domain, target, 50, seed=51)
    assert all(ok for _, ok, _ in entries)
    basis = [
        DSection(Derivation.basis(2, t).scale(m), AtiyahForm.zero(2, 0))
        for t in range(3)
        for m in monomial_scalars(2, 2)
    ] + [
        DSection(Derivation.zero(2), AtiyahForm.from_scalar(m))
        for m in monomial_scalars(2, 2)
    ]
    assert _truncated_injective(basis, morphism.phi0, section_coordinates, 2, 2)

    # strict isomorphism between cohomologous twists
    for case in range(50):
        b_form = random_form(2, 2, random.Random(5200 + case), 1, 2)
        iso = cohomologous_iso(OMEGA2, b_form)
        source = build_two_term(LCourantStructure.twisted(OMEGA2))
        shifted = build_two_term(
            LCourantStructure.twisted(OMEGA2 + differential(b_form))
        )
        entries = morphism_residuals(iso, source, shifted, 1, seed=case)
        assert all(ok for _, ok, _ in entries), case
        if case % 10 == 0:
            matrix = section_map_matrix(iso.phi0, 2, 1)
            assert linalg.nullspace(matrix) == []
            assert not linalg.determinant(matrix).is_zero()
            assert _truncated_injective(
                monomial_scalars(2, 2), iso.phi1, lambda s: [s], 2, 2
            )

    # injective embedding of the graph observables
    source = build_graph_linf(OMEGA2)
    target = build_two_term(LCourantStructure.twisted(OMEGA2))
    embedding = injective_graph_morphism(OMEGA2)
    entries = morphism_residuals(embedding, source, target, 50, seed=52)
    assert all(ok for _, ok, _ in entries)
    xi = graph_of_form(OMEGA2)
    form_basis = [
        hamiltonian_form(AtiyahForm(2, 1, {(a,): m}), xi)
        for a in range(3)
        for m in monomial_scalars(2, 2)
    ]
    assert _truncated_injective(
        form_basis, embedding.phi0, section_coordinates, 2, 2
    )
    assert _truncated_injective(
        monomial_scalars(2, 2), embedding.phi1, lambda s: [s], 2, 2
    )
    announce(5, "three morphism families, 50 cases each, kernels trivial")


def test_criterion_06_exact_curvature():
    structure = LCourantStructure.twisted(OMEGA2)
    flat = curvature(Connection.zero(2), structure)
    assert flat == OMEGA2
    assert differential(flat).is_zero()
    rng = random.Random(6000)
    for _ in range(25):
        theta = random_form(2, 2, rng, 2, 2)
        shifted = curvature(Connection.zero(2).shifted(theta), structure)
        assert shifted == flat + differential(theta)
        assert differential(shifted).is_zero()
        assert differential(primitive(shifted)) == shifted
    announce(6, "splitting curvature: base twist, closedness, 25 shifts")


def test_criterion_07_observables():
    xi = graph_of_form(OMEGA2)
    rng = random.Random(7000)
    for _ in range(50):
        a = random_hamiltonian(xi, rng, 2, 2)
        b = random_hamiltonian(xi, rng, 2, 2)
        c = random_hamiltonian(xi, rng, 2, 2)
        assert (observable_bracket(a, b) + observable_bracket(b, a)).is_zero()
        assert jacobiator_residual(a, b, c).is_zero()
    for _ in range(10):
        hams = [random_hamiltonian(xi, rng, 2, 2) for _ in range(4)]
        assert useful_lemma_residual(hams[:3]).is_zero()
        assert useful_lemma_residual(hams).is_zero()
    # representative independence over a degenerate span
    from omnilie.observables import Subbundle, hamiltonian_form

    fixture = Subbundle(
        [
            DSection(Derivation.partial(2, 1), AtiyahForm.basis(2, (2,))),
            DSection(Derivation.unit(2), -AtiyahForm.basis(2, (0,))),
            DSection(Derivation.partial(2, 2), AtiyahForm.zero(2, 1)),
        ]
    )
    ambiguity = hamiltonian_ambiguity(fixture)
    assert ambiguity == [Derivation.partial(2, 2)]
    saw_nonzero = False
    for case in range(10):
        rng2 = random.Random(7100 + case)
        terms = {}
        for k in range(3):
            cch = rng2.randint(-2, 2)
            if cch:
                terms[(k, 0)] = Fraction(cch)
        alpha = AtiyahForm.from_scalar(Scalar(Polynomial(2, terms)))
        beta_terms = {}
        for k in range(3):
            cch = rng2.randint(-2, 2)
            if cch:
                beta_terms[(k, 0)] = Fraction(cch)
        beta = AtiyahForm.from_scalar(Scalar(Polynomial(2, beta_terms)))
        a = hamiltonian_form(alpha, fixture)
        b = hamiltonian_form(beta, fixture)
        base = observable_bracket(a, b)
        saw_nonzero = saw_nonzero or not base.is_zero()
        shifted = a.ham_der + ambiguity[0].scale(
            random_polynomial(2, rng2, 1, 2)
        )
        assert observable_bracket(HamiltonianForm(a.alpha, shifted), b) == base
    assert saw_nonzero
    announce(7, "observable bracket: 50 triples, hatted lemma, ambiguity shifts")


def test_criterion_08_graph_structure_full_oracle():
    structure = build_graph_linf(OMEGA2)
    for size in range(1, 5):
        rng = random.Random(8000 + size)
        for case in range(50):
            degrees = [(case + slot) % structure.terms for slot in range(size)]
            tup = structure.random_tuple(size, rng, 1, 2, degrees=degrees)
            assert ge_is_zero(jacobi_residual(structure, tup)), (size, case)
    assert [kappa(k) for k in (2, 3, 4, 5)] == [1, -1, -1, 1]
    announce(8, "graded observable structure: oracle n=1..4, sign table")


def test_criterion_09_dg_leibniz():
    structure = build_dg_leibniz(OMEGA2)
    rng = random.Random(9000)
    for case in range(50):
        a = structure.random_element(case % 2, rng, 1, 2)
        b = structure.random_element((case // 2) % 2, rng, 1, 2)
        c = structure.random_element((case // 4) % 2, rng, 1, 2)
        assert ge_is_zero(derivation_residual(structure, a, b))
        assert ge_is_zero(leibniz_residual(structure, a, b, c))
        hi = structure.random_element(1, rng, 1, 2)
        assert ge_is_zero(structure.l(2, [hi, b]))
    announce(9, "dg Leibniz: derivation rule and graded identity, 50 triples")


def test_criterion_10_jacobi_suites():
    rng = random.Random(10000)
    for case in range(50):
        entries = {}
        for a in range(3):
            for b in range(a + 1, 3):
                entries[(a, b)] = random_polynomial(2, rng, 1, 2)
        J = JacobiBiderivation.from_entries(2, entries)
        verdict = is_jacobi(J)
        assert verdict.witness["bracket_route"] == verdict.witness["graph_route"]
    for case in range(10):
        entries = {}
        for a in range(3):
            for b in range(a + 1, 3):
                entries[(a, b)] = random_polynomial(2, rng, 1, 2)
        J = JacobiBiderivation.from_entries(2, entries)
        twist = differential(random_form(2, 2, rng, 1, 2))
        assert is_twisted_jacobi(J, twist).ok == is_involutive(
            graph(J), twist=twist
        ).ok
    base = JacobiBiderivation.from_entries(2, {(0, 1): Scalar.one(2)})
    xi = graph(base)
    exercised = 0
    for case in range(8):
        b1 = differential(random_form(2, 1, rng, 1, 2))
        b2 = differential(random_form(2, 1, rng, 1, 2))
        assert span_equal(
            dirac_gauge(dirac_gauge(xi, b1), b2), dirac_gauge(xi, b1 + b2)
        )
        try:
            transformed = gauge_jacobi(base, b1)
        except NonInvertible:
            continue
        exercised += 1
        assert span_equal(graph(transformed), dirac_gauge(xi, b1))
    assert exercised >= 2
    pair = find_noninvertible_pair(2)
    assert pair is not None
    with pytest.raises(NonInvertible):
        gauge_jacobi(*pair)
    announce(10, "bracket integrability routes, gauge laws, singular witness")


def test_criterion_11_end_to_end_cli(tmp_path, cli_env):
    scenario = ROOT / "scenarios" / "all-suites.json"
    payload = json.loads(scenario.read_text(encoding="utf-8"))
    assert payload["n"] <= 2 and payload["max_degree"] <= 2
    start = time.time()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "omnilie.cli",
            "verify",
            "--scenario",
            str(scenario),
            "--report",
            "acceptance-report.json",
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=cli_env,
        timeout=300,
    )
    elapsed = time.time() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 300, f"scenario took {elapsed:.1f}s"
    report = json.loads((tmp_path / "acceptance-report.json").read_text())
    assert report["all_passed"] is True
    ran = {entry["suite"] for entry in report["results"]}
    from omnilie.suites import SUITES

    assert ran == set(SUITES)
    announce(11, f"shipped scenario, every suite, exit 0 in {elapsed:.1f}s")
