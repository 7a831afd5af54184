import random

import pytest

from omnilie.gauge import Derivation, commutator, random_derivation, symbol
from omnilie.scalar import Scalar, random_polynomial


def test_apply_examples():
    x = Scalar.variable(1, 1)
    dx = Derivation.partial(1, 1)
    assert dx.apply(x**2) == 2 * x
    unit = Derivation.unit(1)
    assert unit.apply(x**2 + 1) == x**2 + 1
    # mixed symbol and multiplication part: expand x*1 + 1*x
    mixed = Derivation((x, Scalar.one(1)))
    assert mixed.apply(x) == 2 * x


def test_commutator_examples():
    x = Scalar.variable(1, 1)
    dx = Derivation.partial(1, 1)
    xdx = Derivation((x, Scalar.zero(1)))
    assert commutator(dx, xdx) == dx
    mult_x = Derivation((Scalar.zero(1), x))
    assert commutator(dx, mult_x) == Derivation((Scalar.zero(1), Scalar.one(1)))
    rng = random.Random(3)
    for _ in range(10):
        d = random_derivation(2, rng, 2, 3)
        assert commutator(Derivation.unit(2), d).is_zero()


def test_symbol_examples():
    assert symbol(Derivation.partial(1, 1)) == (Scalar.one(1),)
    assert symbol(Derivation.unit(2)) == (Scalar.zero(2), Scalar.zero(2))


def test_symbol_is_bracket_morphism():
    rng = random.Random(5)
    for _ in range(8):
        d1 = random_derivation(2, rng, 2, 2)
        d2 = random_derivation(2, rng, 2, 2)
        got = symbol(commutator(d1, d2))
        s1 = Derivation((*symbol(d1), Scalar.zero(2)))
        s2 = Derivation((*symbol(d2), Scalar.zero(2)))
        assert got == symbol(commutator(s1, s2))


def test_commutator_matches_operator_difference():
    rng = random.Random(7)
    for _ in range(8):
        d1 = random_derivation(2, rng, 2, 2)
        d2 = random_derivation(2, rng, 2, 2)
        s = random_polynomial(2, rng, 2, 2)
        assert commutator(d1, d2).apply(s) == d1.apply(d2.apply(s)) - d2.apply(
            d1.apply(s)
        )


def test_jacobi_identity_and_bilinearity():
    rng = random.Random(11)
    for _ in range(5):
        a = random_derivation(2, rng, 1, 2)
        b = random_derivation(2, rng, 1, 2)
        c = random_derivation(2, rng, 1, 2)
        jac = (
            commutator(a, commutator(b, c))
            + commutator(b, commutator(c, a))
            + commutator(c, commutator(a, b))
        )
        assert jac.is_zero()
        assert commutator(a, b) + commutator(b, a) == Derivation.zero(2)
        assert commutator(a + b, c) == commutator(a, c) + commutator(b, c)


def test_leibniz_rule():
    rng = random.Random(13)
    for _ in range(8):
        d = random_derivation(2, rng, 2, 2)
        f = random_polynomial(2, rng, 2, 2)
        s = random_polynomial(2, rng, 2, 2)
        assert d.apply(f * s) == f * d.apply(s) + d.symbol_apply(f) * s


def test_a_derivation_is_its_coordinates_on_d1_to_dn_then_unit():
    x1, x2 = Scalar.variable(2, 1), Scalar.variable(2, 2)
    coeffs = (x1 * x2, -x1, x2 / 3 + 1)
    d = Derivation(coeffs)
    assert d.coeffs == coeffs and d.n == 2
    assert Derivation(list(coeffs)) == d and Derivation(iter(coeffs)).coeffs == coeffs
    assert symbol(d) == coeffs[:2]
    assert str(d) == "(x1*x2)*d1 + (-x1)*d2 + (1/3*x2 + 1)*unit"
    assert str(Derivation.zero(2)) == "0"
    assert Derivation.zero(2).coeffs == (Scalar.zero(2),) * 3


def test_the_named_derivations_are_basis_elements():
    for n in (1, 2, 3):
        assert Derivation.unit(n) == Derivation.basis(n, n)
        for i in range(1, n + 1):
            assert Derivation.partial(n, i) == Derivation.basis(n, i - 1)
        for t in range(n + 1):
            assert Derivation.basis(n, t).coeffs == tuple(
                Scalar.one(n) if u == t else Scalar.zero(n) for u in range(n + 1)
            )


@pytest.mark.parametrize("count", [0, 1, 2, 4])
def test_a_coordinate_count_other_than_n_plus_one_raises(count):
    with pytest.raises(ValueError):
        Derivation((Scalar.one(2),) * count)


def test_random_derivation_draws_its_coordinates_in_frame_order():
    drawn = random_derivation(2, random.Random(17), 2, 3)
    rng = random.Random(17)
    assert drawn.coeffs == tuple(random_polynomial(2, rng, 2, 3) for _ in range(3))
