import random
from fractions import Fraction

import pytest

from omnilie.errors import NotHamiltonian
from omnilie.gauge import Derivation, commutator
from omnilie.atiyah import AtiyahForm, contract, differential, random_form
from omnilie.dcourant import DSection, dorfman
from omnilie.jacobi import JacobiBiderivation, dirac_gauge, graph
from omnilie.observables import (
    HamiltonianForm,
    Subbundle,
    graph_of_form,
    hamiltonian_ambiguity,
    hamiltonian_derivation,
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
from omnilie.scalar import Polynomial, Scalar, random_polynomial

OMEGA2 = AtiyahForm.basis(2, (0, 1, 2))


def full_derivation_subbundle(n, p):
    """The subbundle of bare derivations (zero form part)."""
    return Subbundle(
        [DSection(Derivation.basis(n, t), AtiyahForm.zero(n, p)) for t in range(n + 1)]
    )


def test_graph_generators():
    gr = graph_of_form(OMEGA2)
    g1, g2, gu = gr.generators
    assert g1.form == AtiyahForm.basis(2, (1, 2))
    assert g2.form == -AtiyahForm.basis(2, (0, 2))
    assert gu.form == AtiyahForm.basis(2, (0, 1))

    gr1 = graph_of_form(AtiyahForm.basis(1, (0, 1)))
    assert gr1.generators[0].form == AtiyahForm.basis(1, (1,))
    assert gr1.generators[1].form == -AtiyahForm.basis(1, (0,))

    zero_graph = graph_of_form(AtiyahForm.zero(2, 3))
    assert all(g.form.is_zero() for g in zero_graph.generators)


def test_subbundle_rejects_dependent_generators():
    d1 = DSection(Derivation.partial(2, 1), AtiyahForm.zero(2, 1))
    with pytest.raises(ValueError):
        Subbundle([d1, d1.scale(Scalar.variable(2, 1))])


def test_is_isotropic():
    assert is_isotropic(graph_of_form(OMEGA2)).ok
    assert is_isotropic(full_derivation_subbundle(2, 2)).ok
    bad = Subbundle([DSection(Derivation.partial(2, 1), AtiyahForm.basis(2, (0, 1)))])
    verdict = is_isotropic(bad)
    assert not verdict.ok
    # the self pairing doubles the contraction
    assert verdict.witness["pairing"] == str(AtiyahForm.basis(2, (1,)).scale(2))


def test_is_involutive():
    assert is_involutive(graph_of_form(OMEGA2)).ok
    assert is_involutive(full_derivation_subbundle(2, 2)).ok
    bad = graph_of_form(AtiyahForm(3, 3, {(0, 1, 3): Scalar.variable(3, 3)}))
    verdict = is_involutive(bad)
    assert not verdict.ok and verdict.witness is not None


def _sampled_involutive(xi, samples, seed, twist=None):
    # the generator pairs plus seeded random module combinations of the
    # generators, kept as the oracle of the generator-pair route
    gens = xi.generators
    pairs = [(gens[i], gens[j]) for i in range(len(gens)) for j in range(i + 1, len(gens))]
    rng = random.Random(seed)
    for _ in range(samples):
        pairs.append((xi.random_element(rng, 1, 2), xi.random_element(rng, 1, 2)))
    return all(xi.contains(dorfman(a, b, twist)) is not None for a, b in pairs)


def test_generator_pairs_decide_involutivity_of_isotropic_subbundles():
    rng = random.Random(22)
    cases = [(graph_of_form(OMEGA2), None)]
    for _ in range(20):
        J = JacobiBiderivation.from_entries(
            2, {(a, b): random_polynomial(2, rng, 1, 1) for a in range(3) for b in range(a + 1, 3)}
        )
        gauge = differential(random_form(2, 1, rng, 1, 2))
        for twist in (None, differential(random_form(2, 2, rng, 1, 2))):
            cases += [(graph(J), twist), (dirac_gauge(graph(J), gauge), twist)]
    verdicts = set()
    for seed, (xi, twist) in enumerate(cases):
        assert is_isotropic(xi).ok
        verdict = is_involutive(xi, twist=twist).ok
        assert verdict == _sampled_involutive(xi, 3, seed, twist)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_hamiltonian_derivation_examples():
    gr = graph_of_form(OMEGA2)
    assert hamiltonian_derivation(AtiyahForm.basis(2, (2,)), gr).is_zero()
    x2 = Scalar.variable(2, 2)
    delta = hamiltonian_derivation(AtiyahForm(2, 1, {(0,): x2}), gr)
    assert delta == Derivation((Scalar.zero(2), x2, -Scalar.one(2)))
    line = Subbundle([DSection(Derivation.unit(1), AtiyahForm.zero(1, 1))])
    with pytest.raises(NotHamiltonian):
        hamiltonian_derivation(AtiyahForm.basis(1, (0,)), line)


def test_hamiltonian_ambiguity_examples():
    assert hamiltonian_ambiguity(graph_of_form(OMEGA2)) == []
    line = Subbundle([DSection(Derivation.unit(2), AtiyahForm.zero(2, 1))])
    assert hamiltonian_ambiguity(line) == [Derivation.unit(2)]
    full = full_derivation_subbundle(2, 1)
    basis = hamiltonian_ambiguity(full)
    assert len(basis) == 3


def test_observable_bracket_canonical_example():
    gr1 = graph_of_form(AtiyahForm.basis(1, (0, 1)))
    x = Scalar.variable(1, 1)
    hx = hamiltonian_form(x, gr1)
    h1 = hamiltonian_form(Scalar.one(1), gr1)
    assert hx.ham_der == Derivation((x, -Scalar.one(1)))
    assert observable_bracket(hx, h1).scalar() == -Scalar.one(1)
    assert observable_bracket(hx, hx).is_zero()


def test_bracket_properties_on_graph():
    gr = graph_of_form(OMEGA2)
    rng = random.Random(11)
    for _ in range(6):
        a = random_hamiltonian(gr, rng, 2, 2)
        b = random_hamiltonian(gr, rng, 2, 2)
        c = random_hamiltonian(gr, rng, 2, 2)
        assert (observable_bracket(a, b) + observable_bracket(b, a)).is_zero()
        assert jacobiator_residual(a, b, c).is_zero()
        bracket = observable_bracket_hamiltonian(a, b)
        assert gr.contains(
            DSection(bracket.ham_der, differential(bracket.alpha))
        ) is not None
        assert bracket.ham_der == commutator(a.ham_der, b.ham_der)


def test_useful_lemma_three_and_four_inputs():
    gr = graph_of_form(OMEGA2)
    rng = random.Random(12)
    for _ in range(5):
        hams = [random_hamiltonian(gr, rng, 2, 2) for _ in range(4)]
        assert useful_lemma_residual(hams[:3]).is_zero()
        assert useful_lemma_residual(hams).is_zero()
    with pytest.raises(ValueError):
        useful_lemma_residual(hams[:2])


def test_induced_algebroid():
    entries = induced_algebroid_residuals(graph_of_form(OMEGA2), 5, seed=3)
    assert all(ok for _, ok, _ in entries)


def degenerate_fixture():
    gens = [
        DSection(Derivation.partial(2, 1), AtiyahForm.basis(2, (2,))),
        DSection(Derivation.unit(2), -AtiyahForm.basis(2, (0,))),
        DSection(Derivation.partial(2, 2), AtiyahForm.zero(2, 1)),
    ]
    return Subbundle(gens)


def fixture_hamiltonian(xi, rng):
    terms = {}
    for k in range(3):
        c = rng.randint(-2, 2)
        if c:
            terms[(k, 0)] = Fraction(c)
    return hamiltonian_form(
        AtiyahForm.from_scalar(Scalar(Polynomial(2, terms))), xi
    )


def test_degenerate_fixture_is_isotropic_involutive_with_ambiguity():
    xi = degenerate_fixture()
    assert is_isotropic(xi).ok
    assert is_involutive(xi).ok
    ambiguity = hamiltonian_ambiguity(xi)
    assert ambiguity == [Derivation.partial(2, 2)]


def test_representative_independence_on_degenerate_fixture():
    xi = degenerate_fixture()
    ambiguity = hamiltonian_ambiguity(xi)
    rng = random.Random(13)
    saw_nonzero = False
    for _ in range(8):
        a = fixture_hamiltonian(xi, rng)
        b = fixture_hamiltonian(xi, rng)
        base = observable_bracket(a, b)
        if not base.is_zero():
            saw_nonzero = True
        shifted = a.ham_der
        for amb in ambiguity:
            from omnilie.scalar import random_polynomial

            shifted = shifted + amb.scale(random_polynomial(2, rng, 1, 2))
        assert observable_bracket(HamiltonianForm(a.alpha, shifted), b) == base
    assert saw_nonzero  # the fixture carries a genuinely nonzero bracket


def test_supporting_lie_identities_for_nondegenerate_graph():
    # the Lie derivative splits as bracket plus exact part, and the
    # bracket is the double contraction of the defining form
    gr = graph_of_form(OMEGA2)
    rng = random.Random(14)
    for _ in range(5):
        a = random_hamiltonian(gr, rng, 1, 2)
        b = random_hamiltonian(gr, rng, 1, 2)
        c = random_hamiltonian(gr, rng, 1, 2)
        from omnilie.atiyah import lie_derivative

        lie_ab = lie_derivative(a.ham_der, b.alpha)
        assert lie_ab == observable_bracket(a, b) + differential(
            contract(a.ham_der, b.alpha)
        )
        corr = (
            contract(a.ham_der, b.alpha) - contract(b.ham_der, a.alpha)
        ).scale(Fraction(1, 2))
        assert lie_ab - lie_derivative(b.ham_der, a.alpha) == (
            observable_bracket(a, b) + differential(corr)
        ).scale(2)
        assert observable_bracket(a, b) == contract(
            a.ham_der, contract(b.ham_der, OMEGA2)
        )

        def corr2(u, v):
            return (
                contract(u.ham_der, v.alpha) - contract(v.ham_der, u.alpha)
            ).scale(Fraction(1, 2))

        lhs = (
            contract(commutator(a.ham_der, b.ham_der), c.alpha)
            + contract(commutator(b.ham_der, c.ham_der), a.alpha)
            + contract(commutator(c.ham_der, a.ham_der), b.alpha)
        )
        rhs = contract(
            a.ham_der, contract(b.ham_der, contract(c.ham_der, OMEGA2))
        ).scale(3) + (
            contract(a.ham_der, differential(corr2(b, c)))
            + contract(b.ham_der, differential(corr2(c, a)))
            + contract(c.ham_der, differential(corr2(a, b)))
        ).scale(2)
        assert lhs == rhs
