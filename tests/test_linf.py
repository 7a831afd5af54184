import itertools
import random
from fractions import Fraction

import pytest

from omnilie.errors import ArityError, Degenerate, NotClosed, ZeroScale
from omnilie.gauge import Derivation, commutator, random_derivation
from omnilie.atiyah import AtiyahForm, differential, random_form
from omnilie.dcourant import DSection, LCourantStructure, random_section
from omnilie.observables import graph_of_form, hamiltonian_form
from omnilie.linf import (
    GradedElement,
    LInfinityStructure,
    LInfMorphism,
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
    koszul_sign,
    leibniz_residual,
    morphism_residuals,
    observable_linf,
    perm_signature,
    prolongation_morphism,
    rep_homotopy_data,
    rescale_iso,
    section_map_matrix,
    unshuffles,
)
from omnilie.scalar import Scalar
from omnilie import linalg

OMEGA2 = AtiyahForm.basis(2, (0, 1, 2))
OMEGA3 = AtiyahForm.basis(3, (0, 1, 2, 3))


def test_unshuffle_counts():
    assert len(unshuffles(2, 3)) == 3
    assert len(unshuffles(1, 2)) == 2
    assert len(unshuffles(2, 4)) == 6
    for perm in unshuffles(2, 4):
        assert list(perm[:2]) == sorted(perm[:2])
        assert list(perm[2:]) == sorted(perm[2:])


def test_signs():
    assert perm_signature((0, 1)) == 1
    assert perm_signature((1, 0)) == -1
    assert koszul_sign((1, 0), [0, 0]) == 1
    assert koszul_sign((1, 0), [1, 1]) == -1
    assert koszul_sign((0, 1), [1, 1]) == 1


def test_kappa_table():
    assert [kappa(k) for k in (2, 3, 4, 5)] == [1, -1, -1, 1]


def derivation_lie_algebra(n):
    """The commutator bracket as a one-term structure: an oracle self-check."""

    class DerSpace:
        def zero(self):
            return Derivation.zero(n)

        def random(self, rng, max_degree, coeff_bound):
            return random_derivation(n, rng, max_degree, coeff_bound)

    return LInfinityStructure("derivations", (DerSpace(),), 2, {(0, 0): commutator})


def test_oracle_reduces_to_jacobi_for_a_lie_algebra():
    structure = derivation_lie_algebra(2)
    rng = random.Random(1)
    for _ in range(5):
        tup = structure.random_tuple(3, rng, 1, 2, degrees=[0, 0, 0])
        assert ge_is_zero(jacobi_residual(structure, tup))
    with pytest.raises(ArityError):
        jacobi_residual(structure, structure.random_tuple(4, rng, 1, 1, degrees=[0] * 4))


def test_two_term_oracle_untwisted_and_twisted():
    rng = random.Random(2)
    for structure in (
        build_two_term(LCourantStructure.omni(1)),
        build_two_term(LCourantStructure.twisted(OMEGA2)),
    ):
        for size in range(1, 5):
            for _ in range(4):
                tup = structure.random_tuple(size, rng, 1, 2)
                assert ge_is_zero(jacobi_residual(structure, tup)), (
                    structure.name,
                    size,
                )


def test_two_term_mixed_bracket_value():
    structure = build_two_term(LCourantStructure.twisted(OMEGA2))
    e = GradedElement(0, DSection(Derivation.unit(2), AtiyahForm.zero(2, 1)))
    s = GradedElement(1, Scalar.one(2))
    value = structure.l(2, [e, s])
    assert value.degree == 1 and value.payload == Scalar.one(2) * Fraction(1, 2)
    swapped = structure.l(2, [s, e])
    assert swapped.payload == -Scalar.one(2) * Fraction(1, 2)
    assert structure.l(2, [s, s]) is None


def test_trilinear_bracket_is_alternating():
    structure = build_two_term(LCourantStructure.twisted(OMEGA2))
    rng = random.Random(3)
    e1 = structure.random_element(0, rng, 1, 2)
    e2 = structure.random_element(0, rng, 1, 2)
    assert structure.l(3, [e1, e1, e2]).payload.is_zero()


def linf_structures():
    b_closed = differential(random_form(2, 1, random.Random(9), 2, 2))
    return [
        build_two_term(LCourantStructure.omni(2)),
        build_two_term(LCourantStructure.twisted(OMEGA2)),
        build_three_term(LCourantStructure.omni(2)),
        build_semidirect(rep_homotopy_data(2)),
        build_graph_linf(OMEGA2),
        anchor_extension_algebra(b_closed),
    ]


def built_structures():
    """Every bracket table: the L-infinity structures and the dg Leibniz ones."""
    return linf_structures() + [build_dg_leibniz(OMEGA2), build_dg_leibniz(OMEGA3)]


@pytest.mark.parametrize("structure", built_structures(), ids=lambda s: s.name)
def test_every_table_entry_lands_in_its_degree(structure):
    rng = random.Random(19)
    for degs, fn in structure.brackets.items():
        assert len(degs) <= structure.arity
        out = structure.space(sum(degs) + len(degs) - 2).zero()
        for _ in range(3):
            payloads = [structure.space(d).random(rng, 1, 2) for d in degs]
            assert type(fn(*payloads)) is type(out), (degs, structure.name)



def test_every_table_entry_lands_inside_the_complex():
    # jacobi_residual returns None before any bracket when the identity's
    # degree lies outside the complex; that rests on no entry landing there
    structures = built_structures()
    structures += [
        drop_bracket(s, k) for s in structures for k in {len(degs) for degs in s.brackets}
    ]
    for structure in structures:
        for degs in structure.brackets:
            assert 0 <= sum(degs) + len(degs) - 2 < structure.terms, (structure.name, degs)


@pytest.mark.parametrize("structure", built_structures(), ids=lambda s: s.name)
def test_a_degree_outside_the_complex_has_no_space(structure):
    for degree in (-1, structure.terms):
        with pytest.raises(IndexError):
            structure.space(degree)
    with pytest.raises(IndexError):
        structure.zero_element(-1)


def test_a_residual_outside_the_complex_computes_no_bracket():
    outside = 0
    for structure in built_structures():

        def forbidden(k, elems):
            raise AssertionError("a bracket was computed")

        structure.l = forbidden
        for size in range(1, structure.arity + 2):
            for degrees in itertools.product(range(structure.terms), repeat=size):
                if 0 <= sum(degrees) + size - 3 < structure.terms:
                    continue
                outside += 1
                tup = [structure.zero_element(d) for d in degrees]
                assert jacobi_residual(structure, tup) is None
    assert outside > 0

def _sabotage_witness(intact, k, rng):
    """The first seeded tuple of at most four inputs, in order of size and
    degrees, on which dropping l_k leaves a nonzero residual."""
    sabotaged = drop_bracket(intact, k)
    for size in range(1, min(4, intact.arity + 1) + 1):
        for degrees in itertools.product(range(intact.terms), repeat=size):
            tup = intact.random_tuple(size, rng, 1, 2, degrees=list(degrees))
            if not ge_is_zero(jacobi_residual(sabotaged, tup)):
                assert ge_is_zero(jacobi_residual(intact, tup))
                return tup
    return None


def test_sabotaged_structure_fails_at_three_inputs():
    structure = drop_bracket(build_two_term(LCourantStructure.twisted(OMEGA2)), 3)
    witness = [
        GradedElement(0, DSection(Derivation.partial(2, 1), AtiyahForm.zero(2, 1))),
        GradedElement(0, DSection(Derivation.partial(2, 2), AtiyahForm.zero(2, 1))),
        GradedElement(0, DSection(Derivation.unit(2), AtiyahForm.zero(2, 1))),
    ]
    assert not ge_is_zero(jacobi_residual(structure, witness))
    intact = build_two_term(LCourantStructure.twisted(OMEGA2))
    assert ge_is_zero(jacobi_residual(intact, witness))
    # the oracle sees every bracket; the anchor extension's lone l2 is a
    # Lie bracket, so dropping it leaves the zero structure
    rng = random.Random(20)
    for intact in linf_structures():
        if intact.name == "anchor-extension":
            continue
        for k in sorted({len(degs) for degs in intact.brackets}):
            witness = _sabotage_witness(intact, k, rng)
            assert witness is not None and len(witness) == 3, (intact.name, k)


def test_three_term_structure():
    structure = build_three_term(LCourantStructure.omni(2))
    assert structure.terms == 3
    rng = random.Random(4)
    assert structure.space(2).random(rng, 2, 2).is_zero()
    for size in range(1, 5):
        for _ in range(3):
            tup = structure.random_tuple(size, rng, 1, 2)
            assert ge_is_zero(jacobi_residual(structure, tup))
    # agreement with the two-term brackets away from the top degree
    two = build_two_term(LCourantStructure.omni(2))
    x = two.random_element(0, rng, 1, 2)
    y = two.random_element(0, rng, 1, 2)
    s = two.random_element(1, rng, 1, 2)
    assert structure.l(2, [x, y]).payload == two.l(2, [x, y]).payload
    assert structure.l(2, [x, s]).payload == two.l(2, [x, s]).payload


def test_rep_homotopy_data():
    data = rep_homotopy_data(1)
    x = Scalar.variable(1, 1)
    assert data.mu1(Derivation.unit(1), x) == x * Fraction(1, 2)
    got = data.mu0(Derivation.partial(1, 1), AtiyahForm(1, 1, {(1,): x}))
    assert got == AtiyahForm.basis(1, (1,))
    rng = random.Random(5)
    d = random_derivation(1, rng, 1, 2)
    alpha = random_form(1, 1, rng, 1, 2)
    assert data.nu(d, d, alpha).is_zero()
    entries = data.axiom_residuals(6, seed=6)
    assert all(ok for _, ok, _ in entries)


def test_semidirect_agrees_with_two_term():
    data = rep_homotopy_data(2)
    semi = build_semidirect(data)
    two = build_two_term(LCourantStructure.omni(2))
    rng = random.Random(7)
    for _ in range(25):
        x = two.random_element(0, rng, 1, 2)
        y = two.random_element(0, rng, 1, 2)
        z = two.random_element(0, rng, 1, 2)
        s = two.random_element(1, rng, 1, 2)
        assert two.l(2, [x, y]).payload == semi.l(2, [x, y]).payload
        assert two.l(2, [x, s]).payload == semi.l(2, [x, s]).payload
        assert two.l(2, [s, x]).payload == semi.l(2, [s, x]).payload
        assert two.l(3, [x, y, z]).payload == semi.l(3, [x, y, z]).payload
    # the half-jet sample: l2(unit + alpha, x1) = x1/2
    x1 = Scalar.variable(2, 1)
    e = GradedElement(0, DSection(Derivation.unit(2), AtiyahForm.zero(2, 1)))
    s = GradedElement(1, x1)
    assert semi.l(2, [e, s]).payload == x1 * Fraction(1, 2)


def test_graph_structure_oracle_and_example():
    structure = build_graph_linf(OMEGA2)
    rng = random.Random(8)
    for size in range(1, 5):
        for _ in range(4):
            tup = structure.random_tuple(size, rng, 1, 2)
            assert ge_is_zero(jacobi_residual(structure, tup))
    xi = graph_of_form(OMEGA2)
    x2 = Scalar.variable(2, 2)
    a = hamiltonian_form(AtiyahForm(2, 1, {(0,): x2}), xi)
    b = hamiltonian_form(AtiyahForm.basis(2, (2,)), xi)
    assert structure.l(2, [GradedElement(0, a), GradedElement(0, b)]).payload.is_zero()
    with pytest.raises(NotClosed):
        build_graph_linf(AtiyahForm(3, 3, {(0, 1, 3): Scalar.variable(3, 3)}))


def test_morphism_prolongation():
    rng = random.Random(9)
    b_closed = differential(random_form(2, 1, rng, 2, 2))
    domain = anchor_extension_algebra(b_closed)
    target = build_two_term(LCourantStructure.omni(2))
    entries = morphism_residuals(
        prolongation_morphism(b_closed), domain, target, 6, seed=10
    )
    assert all(ok for _, ok, _ in entries)
    for _ in range(4):
        tup = domain.random_tuple(3, rng, 1, 2, degrees=[0, 0, 0])
        assert ge_is_zero(jacobi_residual(domain, tup))


def test_morphism_graph_embedding_and_sabotage():
    source = build_graph_linf(OMEGA2)
    target = build_two_term(LCourantStructure.twisted(OMEGA2))
    morphism = injective_graph_morphism(OMEGA2)
    entries = morphism_residuals(morphism, source, target, 8, seed=11)
    assert all(ok for _, ok, _ in entries)
    broken = LInfMorphism(
        morphism.phi0, morphism.phi1, lambda a, b: Scalar.zero(2)
    )
    entries = morphism_residuals(broken, source, target, 8, seed=11)
    assert any(not ok for _, ok, _ in entries)


def test_cohomologous_iso_and_inverse():
    rng = random.Random(12)
    b_form = random_form(2, 2, rng, 2, 2)
    shifted = OMEGA2 + differential(b_form)
    morphism = cohomologous_iso(OMEGA2, b_form)
    source = build_two_term(LCourantStructure.twisted(OMEGA2))
    target = build_two_term(LCourantStructure.twisted(shifted))
    entries = morphism_residuals(morphism, source, target, 6, seed=13)
    assert all(ok for _, ok, _ in entries)
    assert cohomologous_iso(OMEGA2, AtiyahForm.zero(2, 2)).phi0(
        DSection(Derivation.partial(2, 1), AtiyahForm.zero(2, 1))
    ) == DSection(Derivation.partial(2, 1), AtiyahForm.zero(2, 1))
    inverse = cohomologous_iso(shifted, -b_form)
    for _ in range(4):
        e = random_section(2, 1, rng, 1, 2)
        assert inverse.phi0(morphism.phi0(e)) == e
    matrix = section_map_matrix(morphism.phi0, 2, 1)
    assert not linalg.determinant(matrix).is_zero()
    assert linalg.nullspace(matrix) == []


def test_rescale_iso():
    xi = graph_of_form(OMEGA2)
    with pytest.raises(ZeroScale):
        rescale_iso(0, xi)
    new_xi, morphism = rescale_iso(Fraction(3), xi)
    scaled = graph_of_form(OMEGA2.scale(3))
    from omnilie.jacobi import span_equal

    assert span_equal(new_xi, scaled)
    entries = morphism_residuals(
        morphism, observable_linf(xi), observable_linf(new_xi), 5, seed=14
    )
    assert all(ok for _, ok, _ in entries)
    identity, _ = rescale_iso(1, xi)
    assert span_equal(identity, xi)
    # bracket law on random Hamiltonian pairs
    rng = random.Random(15)
    from omnilie.observables import observable_bracket, random_hamiltonian

    for _ in range(4):
        a = random_hamiltonian(xi, rng, 1, 2)
        b = random_hamiltonian(xi, rng, 1, 2)
        assert observable_bracket(
            morphism.phi0(a), morphism.phi0(b)
        ) == observable_bracket(a, b).scale(3)


def test_dg_leibniz_structure():
    structure = build_dg_leibniz(OMEGA2)
    rng = random.Random(16)
    for _ in range(8):
        a = structure.random_element(rng.randrange(2), rng, 1, 2)
        b = structure.random_element(rng.randrange(2), rng, 1, 2)
        c = structure.random_element(rng.randrange(2), rng, 1, 2)
        assert ge_is_zero(derivation_residual(structure, a, b))
        assert ge_is_zero(leibniz_residual(structure, a, b, c))
        if a.degree > 0:
            assert ge_is_zero(structure.l(2, [a, b]))
    xi = graph_of_form(OMEGA2)
    x2 = Scalar.variable(2, 2)
    a = GradedElement(0, hamiltonian_form(AtiyahForm(2, 1, {(0,): x2}), xi))
    b = GradedElement(0, hamiltonian_form(AtiyahForm.basis(2, (2,)), xi))
    assert structure.l(2, [a, b]).payload.alpha == -AtiyahForm.basis(2, (2,))
    # p = 3 has a form-valued middle degree; two draws on every degree triple
    p3 = build_dg_leibniz(OMEGA3)
    for degrees in itertools.product(range(p3.terms), repeat=3):
        for _ in range(2):
            a, b, c = p3.random_tuple(3, rng, 1, 2, degrees=list(degrees))
            assert ge_is_zero(derivation_residual(p3, a, b)), degrees
            assert ge_is_zero(leibniz_residual(p3, a, b, c)), degrees
    # an input of positive degree acts by zero: no entry starts with one
    for dg in (structure, p3):
        assert all(len(degs) == 1 or degs[0] == 0 for degs in dg.brackets)
    with pytest.raises(Degenerate):
        build_dg_leibniz(AtiyahForm.zero(2, 3))
    with pytest.raises(NotClosed):
        build_dg_leibniz(AtiyahForm(3, 3, {(0, 1, 3): Scalar.variable(3, 3)}))


def test_oracle_requires_declared_degrees():
    structure = build_two_term(LCourantStructure.omni(1))
    rng = random.Random(17)
    with pytest.raises(ArityError):
        jacobi_residual(structure, structure.random_tuple(5, rng, 1, 1))


def _permuted_equal(structure, k, elems, perm):
    """l_k on permuted inputs equals the signed value on ordered inputs."""
    degrees = [e.degree for e in elems]
    sign = perm_signature(perm) * koszul_sign(perm, degrees)
    base = structure.l(k, elems)
    permuted = structure.l(k, [elems[t] for t in perm])
    if base is None or ge_is_zero(base):
        return permuted is None or ge_is_zero(permuted)
    return permuted is not None and permuted.payload == (
        base.payload.scale(sign)
        if hasattr(base.payload, "scale")
        else base.payload * sign
    )


def test_bracket_graded_skewness_under_permutations():
    rng = random.Random(18)
    for structure in (
        build_two_term(LCourantStructure.twisted(OMEGA2)),
        build_graph_linf(OMEGA2),
    ):
        for _ in range(3):
            pair = structure.random_tuple(2, rng, 1, 2)
            for perm in itertools.permutations(range(2)):
                assert _permuted_equal(structure, 2, pair, perm)
            triple = structure.random_tuple(3, rng, 1, 2)
            for perm in itertools.permutations(range(3)):
                assert _permuted_equal(structure, 3, triple, perm)


@pytest.mark.parametrize("n, key", [(2, (0, 1)), (2, (0, 1, 2)), (3, (0, 1, 2, 3))])
def test_rescale_iso_passes_the_morphism_residuals_at_each_order(n, key):
    # p = 1, 2, 3: phi2 lands in the degree-1 space, scalars at p = 2 and
    # 1-forms at p = 3; at p = 1 the structures are Lie algebras.
    xi = graph_of_form(AtiyahForm.basis(n, key))
    new_xi, morphism = rescale_iso(Fraction(3), xi)
    source, target = observable_linf(xi), observable_linf(new_xi)
    if xi.p > 1:
        assert type(morphism.phi2(None, None)) is type(target.space(1).zero())
        assert morphism.phi2(None, None) == target.space(1).zero()
    family = morphism_residuals(morphism, source, target, 3, seed=20)
    rows = family.rows(0, family.count)
    labels = {label.split("[")[0] for label, _, _ in rows}
    assert labels == ({"phi2-skew", "cond1"} if xi.p == 1 else
                      {"chain", "phi2-skew", "cond1", "cond2", "cond3"})
    assert all(ok for _, ok, _ in rows)


def test_graded_brackets_and_residuals_multiply_by_no_sign(monkeypatch):
    # kappa(k) and the Koszul signs are +-1: the brackets negate or
    # subtract, and never multiply a form, derivation or scalar by them.
    from omnilie.observables import HamiltonianForm

    rng = random.Random(19)
    graph = observable_linf(graph_of_form(AtiyahForm.basis(3, (0, 1, 2, 3))))
    tuples = [graph.random_tuple(k, rng, 1, 2, degrees=[0] * k) for k in (2, 3, 4)]
    tuples.append(graph.random_tuple(3, rng, 1, 2, degrees=[0, 0, 1]))
    dg = build_dg_leibniz(OMEGA2)
    triples = [[dg.random_element(d, rng, 1, 2) for d in degrees] for degrees in ([0, 0, 0], [0, 1, 0], [1, 0, 0])]

    def forbidden(*args):
        raise AssertionError("multiplied by a constant")

    for cls in (AtiyahForm, HamiltonianForm, Derivation):
        monkeypatch.setattr(cls, "scale", forbidden)
    mul = Scalar.__mul__

    def no_constant(self, other):
        if isinstance(other, (int, Fraction)):
            forbidden()
        return mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", no_constant)
    monkeypatch.setattr(Scalar, "__rmul__", no_constant)
    for elems in tuples:
        assert ge_is_zero(jacobi_residual(graph, elems))
    for a, b, c in triples:
        assert ge_is_zero(derivation_residual(dg, a, b))
        assert ge_is_zero(leibniz_residual(dg, a, b, c))
