"""The scalar kernel against sympy, an implementation it shares no code with.

Every operation is compared as a rational function, and the canonical
form is checked against sympy's gcd and graded-lex leading coefficient.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from omnilie.scalar import Polynomial, Scalar, divexact, monomials_upto, poly_gcd

sympy = pytest.importorskip("sympy")

N = 3
XS = sympy.symbols(f"x1:{N + 1}")

coefficients = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(bool)


@st.composite
def polynomials(draw, max_degree=2, max_terms=4):
    """Nonzero polynomials with rational coefficients."""
    monos = draw(
        st.lists(
            st.sampled_from(monomials_upto(N, max_degree)),
            min_size=1,
            max_size=max_terms,
            unique=True,
        )
    )
    return Polynomial(N, {m: draw(coefficients) for m in monos})


@st.composite
def scalars(draw):
    """Polynomials and true quotients, with non-unit denominators."""
    num = draw(polynomials())
    if draw(st.booleans()):
        return Scalar(num)
    return Scalar(num, draw(polynomials(max_degree=2, max_terms=3)))


def to_sympy(p):
    total = sympy.Integer(0)
    for mono, c in p.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for x, e in zip(XS, mono):
            term *= x**e
        total += term
    return total


def from_sympy(expr):
    poly = sympy.Poly(sympy.expand(expr), *XS)
    return Polynomial(
        N, {mono: Fraction(int(c.p), int(c.q)) for mono, c in poly.terms()}
    )


def scalar_to_sympy(s):
    return to_sympy(s.num) / to_sympy(s.den)


def same_function(ours, expected):
    return sympy.cancel(scalar_to_sympy(ours) - expected) == 0


def grlex_monic(expr):
    poly = sympy.Poly(expr, *XS)
    return sympy.expand(expr / poly.LC(order="grlex"))


def assert_canonical(s):
    num, den = to_sympy(s.num), to_sympy(s.den)
    assert sympy.Poly(sympy.gcd(num, den), *XS).total_degree() == 0
    assert sympy.Poly(den, *XS).LC(order="grlex") == 1
    assert s.is_polynomial() == (sympy.Poly(den, *XS).total_degree() == 0)
    if s.is_zero():
        assert s.den == Polynomial.one(N)


ORACLE = settings(max_examples=60, deadline=None)


@ORACLE
@given(scalars(), scalars())
def test_field_operations_match_sympy(a, b):
    sa, sb = scalar_to_sympy(a), scalar_to_sympy(b)
    for ours, expected in ((a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb)):
        assert same_function(ours, expected)
        assert_canonical(ours)
    if not b.is_zero():
        assert same_function(a / b, sa / sb)
        assert_canonical(a / b)


@ORACLE
@given(scalars(), st.integers(min_value=1, max_value=N))
def test_derive_matches_sympy(a, index):
    ours = a.derive(index)
    assert same_function(ours, sympy.diff(scalar_to_sympy(a), XS[index - 1]))
    assert_canonical(ours)


@ORACLE
@given(polynomials(), polynomials(), polynomials(max_degree=1, max_terms=3))
def test_gcd_matches_sympy(f, g, common):
    f, g = f * common, g * common
    ours = poly_gcd(f, g)
    expected = sympy.gcd(to_sympy(f), to_sympy(g))
    assert ours == from_sympy(grlex_monic(expected))
    assert ours.leading()[1] == 1


@st.composite
def univariate(draw, max_degree=4, max_terms=4):
    """Nonzero polynomials in x1 alone, often with gaps between degrees."""
    exps = draw(
        st.lists(st.integers(0, max_degree), min_size=1, max_size=max_terms, unique=True)
    )
    return Polynomial(1, {(e,): draw(coefficients) for e in exps})


def univariate_to_sympy(p):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * XS[0] ** e for (e,), c in p.items()),
        sympy.Integer(0),
    )


@ORACLE
@given(univariate(), univariate(), univariate(max_degree=3, max_terms=3))
def test_univariate_gcd_matches_sympy(f, g, common):
    # one variable runs the integer pseudo-remainder sequence directly
    f, g = f * common, g * common
    expected = sympy.Poly(
        sympy.gcd(univariate_to_sympy(f), univariate_to_sympy(g)), XS[0]
    ).monic()
    assert poly_gcd(f, g) == Polynomial(
        1, {e: Fraction(int(c.p), int(c.q)) for e, c in expected.terms()}
    )


@ORACLE
@given(polynomials(), polynomials())
def test_exact_division_matches_sympy(f, g):
    product = from_sympy(to_sympy(f) * to_sympy(g))
    assert product == f * g
    assert divexact(product, g) == f
    assert divexact(product, f) == g


@ORACLE
@given(polynomials(), polynomials(max_degree=2, max_terms=3))
def test_normalization_matches_sympy_cancel(f, g):
    s = Scalar(f, g)
    num, den = sympy.fraction(sympy.cancel(to_sympy(f) / to_sympy(g)))
    lc = sympy.Poly(den, *XS).LC(order="grlex")
    assert s.num == from_sympy(num / lc)
    assert s.den == from_sympy(den / lc)


@ORACLE
@given(polynomials())
def test_items_and_coefficient_round_trip(p):
    assert Polynomial(N, dict(p.items())) == p
    assert from_sympy(to_sympy(p)) == p
    for mono, c in p.items():
        assert p.coefficient(mono) == c and c != 0
    monos = [mono for mono, _ in p.items()]
    assert monos == sorted(monos, key=lambda m: (sum(m), m))
