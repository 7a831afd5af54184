"""Form calculus tests, with an independent brute-force differential oracle.

The library computes the differential and the Lie derivative on
coefficient tables over constant basis directions, where all commutator
terms vanish.  The oracle here expands the full alternating-sum
formulas through ``evaluate`` on arbitrary (non-basis) derivation
tuples, so the two routes share no code path.
"""

import itertools
import random

import pytest

from omnilie.errors import ArityMismatch, NotClosed
from omnilie.gauge import Derivation, commutator, random_derivation
from omnilie.atiyah import (
    AtiyahForm,
    as_form,
    contract,
    differential,
    evaluate,
    lie_derivative,
    primitive,
    random_form,
)
from omnilie.scalar import Scalar


def brute_differential_value(omega, deltas):
    """Alternating-sum expansion of the cochain differential via evaluate."""
    k = len(deltas) - 1
    total = Scalar.zero(omega.n)
    for i, d in enumerate(deltas):
        rest = deltas[:i] + deltas[i + 1 :]
        term = d.apply(evaluate(omega, *rest))
        total = total + (term if i % 2 == 0 else -term)
    for i, j in itertools.combinations(range(k + 1), 2):
        rest = [deltas[t] for t in range(k + 1) if t not in (i, j)]
        term = evaluate(omega, commutator(deltas[i], deltas[j]), *rest)
        total = total + (-term if (i + j) % 2 else term)
    return total


def brute_lie_value(delta, omega, deltas):
    """Defining formula of the Lie derivative via evaluate."""
    total = delta.apply(evaluate(omega, *deltas))
    for i, d in enumerate(deltas):
        args = list(deltas)
        args[i] = commutator(delta, d)
        total = total - evaluate(omega, *args)
    return total


def test_evaluate_examples():
    e1inf = AtiyahForm.basis(2, (0, 2))
    d1 = Derivation.partial(2, 1)
    unit = Derivation.unit(2)
    assert evaluate(e1inf, d1, unit) == Scalar.one(2)
    assert evaluate(e1inf, unit, d1) == -Scalar.one(2)
    rng = random.Random(1)
    omega = random_form(2, 2, rng, 2, 2)
    d = random_derivation(2, rng, 2, 2)
    assert evaluate(omega, d, d).is_zero()
    with pytest.raises(ArityMismatch):
        evaluate(e1inf, d1)


def test_differential_examples():
    x = Scalar.variable(1, 1)
    assert differential(x**2) == AtiyahForm(1, 1, {(0,): 2 * x, (1,): x**2})
    assert differential(Scalar.one(1)) == AtiyahForm.basis(1, (1,))
    assert differential(AtiyahForm.basis(1, (1,))).is_zero()
    assert differential(AtiyahForm.basis(3, (3,))).is_zero()


def test_differential_against_brute_oracle():
    rng = random.Random(2)
    for n in (1, 2):
        for k in range(0, n + 1):
            for _ in range(3):
                omega = random_form(n, k, rng, 2, 2)
                deltas = [
                    random_derivation(n, rng, 1, 2) for _ in range(k + 1)
                ]
                table = evaluate(differential(omega), *deltas)
                assert table == brute_differential_value(omega, deltas)


def test_contract_examples():
    assert contract(
        Derivation.partial(2, 2), AtiyahForm.basis(2, (1, 2))
    ) == AtiyahForm.basis(2, (2,))
    rng = random.Random(3)
    d = random_derivation(2, rng, 2, 2)
    assert contract(d, Scalar.variable(2, 1)).is_zero()
    assert contract(
        Derivation.unit(2), AtiyahForm.basis(2, (0, 1, 2))
    ) == AtiyahForm.basis(2, (0, 1))


def test_contractions_anticommute():
    rng = random.Random(4)
    for _ in range(5):
        omega = random_form(2, 2, rng, 2, 2)
        d1 = random_derivation(2, rng, 2, 2)
        d2 = random_derivation(2, rng, 2, 2)
        assert contract(d1, contract(d2, omega)) == -contract(
            d2, contract(d1, omega)
        )


def test_lie_derivative_examples():
    rng = random.Random(5)
    for k in range(0, 3):
        omega = random_form(1, k, rng, 2, 2)
        assert lie_derivative(Derivation.unit(1), omega) == omega
    x = Scalar.variable(1, 1)
    got = lie_derivative(
        Derivation.partial(1, 1), AtiyahForm(1, 1, {(1,): x})
    )
    assert got == AtiyahForm.basis(1, (1,))
    d = random_derivation(1, rng, 2, 2)
    s = Scalar.variable(1, 1) ** 2
    assert lie_derivative(d, s).scalar() == d.apply(s)


def test_lie_derivative_against_brute_oracle():
    rng = random.Random(6)
    for n in (1, 2):
        for k in range(1, n + 2):
            for _ in range(3):
                omega = random_form(n, k, rng, 2, 2)
                delta = random_derivation(n, rng, 1, 2)
                deltas = [random_derivation(n, rng, 1, 2) for _ in range(k)]
                assert evaluate(
                    lie_derivative(delta, omega), *deltas
                ) == brute_lie_value(delta, omega, deltas)


def test_basis_brackets_are_kept_on_the_derivation(monkeypatch):
    # Lie derivatives along one derivation build its brackets with the
    # basis once, and give what a fresh copy of it gives.
    from omnilie import atiyah

    rng = random.Random(7)
    delta = random_derivation(2, rng, 2, 2)
    forms = [random_form(2, k, rng, 2, 2) for k in (0, 1, 2, 1)]
    fresh = [lie_derivative(Derivation(delta.symbol_coeffs, delta.endo), omega) for omega in forms]
    build, built = atiyah._basis_brackets, []

    def counted(d, other):
        built.append(d)
        return build(d, other)

    monkeypatch.setattr(atiyah, "_basis_brackets", counted)
    assert [lie_derivative(delta, omega) for omega in forms] == fresh
    assert len(built) == 1 and built[0] is delta


def test_primitive_examples():
    assert primitive(AtiyahForm.basis(1, (1,))) == as_form(Scalar.one(1))
    top = AtiyahForm.basis(2, (0, 1, 2))
    prim = primitive(top)
    assert prim == AtiyahForm.basis(2, (0, 1))
    assert differential(prim) == top
    assert primitive(AtiyahForm.zero(2, 2)).is_zero()
    x = Scalar.variable(1, 1)
    with pytest.raises(NotClosed):
        primitive(AtiyahForm(1, 1, {(0,): x * x}))
    with pytest.raises(ValueError):
        primitive(as_form(Scalar.zero(1)))


def test_structural_identities_random_sweep():
    rng = random.Random(7)
    for n in (1, 2, 3):
        unit = Derivation.unit(n)
        for k in range(0, n + 2):
            for _ in range(3):
                omega = random_form(n, k, rng, 2, 2)
                d = random_derivation(n, rng, 2, 2)
                e = random_derivation(n, rng, 1, 2)
                assert differential(differential(omega)).is_zero()
                assert lie_derivative(d, omega) == contract(
                    d, differential(omega)
                ) + differential(contract(d, omega))
                assert (
                    differential(contract(unit, omega))
                    + contract(unit, differential(omega))
                    == omega
                )
                if k >= 1:
                    lhs = lie_derivative(d, contract(e, omega)) - contract(
                        e, lie_derivative(d, omega)
                    )
                    assert lhs == contract(commutator(d, e), omega)


def test_injectivity_of_degree_zero_differential():
    rng = random.Random(8)
    unit = Derivation.unit(2)
    from omnilie.scalar import random_polynomial

    for _ in range(10):
        s = random_polynomial(2, rng, 2, 3)
        assert contract(unit, differential(s)).scalar() == s


def test_forms_and_derivations_subtract_without_negating(monkeypatch):
    # Each coefficient is subtracted with Scalar.__sub__; only a key that
    # the first operand lacks needs a negation.
    from omnilie.scalar import Scalar

    rng = random.Random(30)
    f, g = (random_form(3, 2, rng, 2, 3) for _ in range(2))
    d1, d2 = (random_derivation(3, rng, 2, 3) for _ in range(2))
    assert set(f.coeffs) == set(g.coeffs)
    expected = f + (-g), d1 + (-d2)

    def forbidden(self):
        raise AssertionError("a coefficient was negated")

    monkeypatch.setattr(Scalar, "__neg__", forbidden)
    assert (f - g, d1 - d2) == expected
    monkeypatch.undo()
    lone = AtiyahForm.basis(3, (0, 1))
    assert lone - g == lone + (-g) and AtiyahForm.zero(3, 1) - g == -g
