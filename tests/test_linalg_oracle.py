"""Exact elimination against sympy's DomainMatrix over QQ(x1, x2).

Matrices are small, some with constant entries and some without, and some
singular on purpose: a row repeated or a combination of earlier rows.
Rank is also checked on true quotients, polynomials over linear
denominators.  Solves, inverses and determinants of quotient matrices
are left out: their canonical entries cost large gcds.
"""

import pytest
from hypothesis import given, settings, strategies as st

from omnilie import linalg
from omnilie.scalar import Polynomial, Scalar, monomials_upto

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

XS = sympy.symbols("x1:3")
coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool)


@st.composite
def polynomials(draw, n, constant):
    if constant:
        return Polynomial.constant(n, draw(coefficients))
    monos = monomials_upto(n, 2)
    terms = [draw(st.sampled_from(monos[1:])), draw(st.sampled_from(monos))]
    return Polynomial(n, {m: draw(coefficients) for m in terms})


@st.composite
def linear_denominators(draw, n):
    monos = monomials_upto(n, 1)
    return Polynomial(n, {monos[0]: draw(coefficients), draw(st.sampled_from(monos[1:])): 1})


@st.composite
def entries(draw, n, constants, quotients=False):
    kinds = ["zero", "poly", "poly"] + ["constant"] * (2 * constants)
    kind = draw(st.sampled_from(kinds + ["quotient"] * (2 * quotients)))
    if kind == "zero":
        return Scalar.zero(n)
    if kind == "quotient":
        return Scalar(draw(polynomials(n, False)), draw(linear_denominators(n)))
    return Scalar(draw(polynomials(n, kind == "constant")))


@st.composite
def matrices(draw, square=False, quotients=False):
    """(n, rows): 1-4 rows and columns over 1-2 variables, with true
    quotients among the entries if asked.  Rows past the drawn ones repeat
    a row or combine earlier rows, so the matrix is singular; the row
    order is then shuffled."""
    n = draw(st.integers(1, 2))
    ncols = draw(st.integers(1, 4))
    nrows = ncols if square else draw(st.integers(1, 4))
    constants = draw(st.booleans())
    independent = draw(st.integers(1, nrows))
    rows = [
        [draw(entries(n, constants, quotients)) for _ in range(ncols)]
        for _ in range(independent)
    ]
    while len(rows) < nrows:
        if draw(st.booleans()):
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            factors = [Scalar.from_fraction(n, draw(coefficients)) for _ in rows]
            rows.append(
                [
                    sum((f * row[c] for f, row in zip(factors, rows)), Scalar.zero(n))
                    for c in range(ncols)
                ]
            )
    return n, draw(st.permutations(rows))


def to_sympy(s):
    def poly(p):
        return sum(
            (
                sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(x**e for x, e in zip(XS, mono)))
                for mono, c in p.items()
            ),
            sympy.Integer(0),
        )

    return poly(s.num) / poly(s.den)


def oracle(n, rows):
    field = sympy.QQ.frac_field(*XS[:n])
    return DomainMatrix(
        [[field.from_sympy(to_sympy(v)) for v in row] for row in rows],
        (len(rows), len(rows[0])),
        field,
    )


def column(values):
    return [[v] for v in values]


@settings(max_examples=50, deadline=None)
@given(st.booleans().flatmap(lambda quotients: matrices(quotients=quotients)))
def test_rank_matches_sympy(drawn):
    n, rows = drawn
    assert linalg.rank(rows) == oracle(n, rows).rank()


@settings(max_examples=50, deadline=None)
@given(matrices(square=True))
def test_determinant_matches_sympy(drawn):
    n, rows = drawn
    det = sympy.QQ.frac_field(*XS[:n]).from_sympy(to_sympy(linalg.determinant(rows)))
    assert det == oracle(n, rows).det()


@settings(max_examples=50, deadline=None)
@given(matrices(square=True))
def test_inverse_exactly_when_nonsingular(drawn):
    n, rows = drawn
    size = len(rows)
    inv = linalg.inverse(rows)
    assert (inv is None) == (oracle(n, rows).rank() < size)
    if inv is not None:
        identity = [
            [Scalar.one(n) if i == j else Scalar.zero(n) for j in range(size)]
            for i in range(size)
        ]
        assert linalg.matmul(rows, inv) == identity
        assert linalg.matmul(inv, rows) == identity


@settings(max_examples=50, deadline=None)
@given(matrices(), st.data())
def test_solve_least_matches_sympy(drawn, data):
    n, rows = drawn
    ncols = len(rows[0])
    rank = oracle(n, rows).rank()
    if rank == ncols:
        x = [data.draw(entries(n, True)) for _ in range(ncols)]
        built = [row[0] for row in linalg.matmul(rows, column(x))]
        assert linalg.solve_least(rows, built) == x
    rhs = [data.draw(entries(n, True)) for _ in rows]
    augmented = [row + [b] for row, b in zip(rows, rhs)]
    consistent = oracle(n, augmented).rank() == rank
    solution = linalg.solve_least(rows, rhs)
    assert (solution is None) == (not consistent)
    if consistent:
        assert [row[0] for row in linalg.matmul(rows, column(solution))] == rhs


@settings(max_examples=50, deadline=None)
@given(matrices())
def test_nullspace_matches_sympy(drawn):
    n, rows = drawn
    basis = linalg.nullspace(rows)
    assert len(basis) == len(rows[0]) - oracle(n, rows).rank()
    for vec in basis:
        assert all(v.is_zero() for v, in linalg.matmul(rows, column(vec)))
