"""Exact Gauss-Jordan elimination over the rational-function field, run
fraction-free over the polynomial ring (E. H. Bareiss, Math. Comp. 22,
1968; Geddes, Czapor & Labahn, Algorithms for Computer Algebra, ch. 9).

Matrices are lists of rows of Scalars.  Each row is multiplied by the lcm
of its denominators.  Columns are reduced from left to right, pivoting on
a nonzero constant where the column has one.  Every pivot is made equal
to one common polynomial d, 1 at first: a constant pivot is a unit, so
its row is scaled to d and only rows with an entry in its column change;
any other pivot p takes the step (p*a - f*b) / d, an exact division, on
every other row and becomes d.  The rows end as d times the reduced
row-echelon form, which does not depend on the pivot rows; each entry
read from it is one Scalar(entry, d).  Free variables are set to zero.
"""

from functools import reduce
from math import prod
from operator import mul

from . import scalar
from .scalar import Polynomial, Scalar, divexact


def _polynomial_row(row):
    """(row times the lcm of its denominators, that lcm or None)."""
    m = None
    for v in row:
        if not v.is_polynomial() and v.den != m:
            m = v.den if m is None else m * divexact(v.den, scalar.poly_gcd(m, v.den))
    return [v.num if m is None else v.num * divexact(m, v.den) for v in row], m


def _eliminate(matrix, ncols=None):
    """Pivots in the first ``ncols`` columns (all by default).

    Returns (rows, pivots, d, det): the polynomial rows, d times the
    reduced row-echelon form; the pivots' (row, col) pairs; the common
    pivot d; and (sign, scaled, multipliers): the sign of the row swaps,
    a (pivot, d it was scaled to) pair per constant pivot, the row lcms.
    """
    if not matrix or not matrix[0]:
        return [], [], None, None
    rows, multipliers = map(list, zip(*map(_polynomial_row, matrix)))
    d = Polynomial.one(rows[0][0].nvars)
    sign, scaled, pivots = 1, [], []
    for c in range(len(rows[0]) if ncols is None else ncols):
        r = len(pivots)
        nonzero = [i for i in range(r, len(rows)) if rows[i][c].terms]
        if not nonzero:
            continue
        i = next((i for i in nonzero if rows[i][c].is_constant()), nonzero[0])
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
            sign = -sign
        b = rows[r]
        p = b[c]
        if p.is_constant():
            scaled.append((p, d))
            if not p.is_one():
                factor = 1 / p.constant_value()
                b = [v.scale(factor) for v in b]
            rows[r] = b if d.is_one() else [d * v for v in b]
            for i, row in enumerate(rows):
                f = row[c]
                if i != r and f.terms:
                    rows[i] = [a - f * v if v.terms else a for a, v in zip(row, b)]
        else:
            for i, row in enumerate(rows):
                if i != r:
                    f = row[c]
                    row = [p * a - f * v for a, v in zip(row, b)]
                    rows[i] = row if d.is_one() else [divexact(v, d) for v in row]
            d = p
        pivots.append((r, c))
    return rows, pivots, d, (sign, scaled, multipliers)


def from_columns(columns):
    """The matrix, a list of rows, whose columns are these."""
    return [list(row) for row in zip(*columns)]


def rank(matrix):
    return len(_eliminate(matrix)[1])


def solve_least(matrix, rhs):
    """One solution of matrix @ x = rhs with zeros in the free variables.

    Returns None when the system is inconsistent.
    """
    if not matrix:
        return [] if all(v.is_zero() for v in rhs) else None
    n = matrix[0][0].nvars
    ncols = len(matrix[0])
    rows, pivots, d, _ = _eliminate([list(row) + [b] for row, b in zip(matrix, rhs)], ncols)
    if any(row[ncols].terms for row in rows[len(pivots):]):
        return None
    solution = [Scalar.zero(n)] * ncols
    for r, c in pivots:
        solution[c] = Scalar(rows[r][ncols], d)
    return solution


def nullspace(matrix):
    """Deterministic basis of the kernel (one vector per free column)."""
    if not matrix:
        return []
    n = matrix[0][0].nvars
    ncols = len(matrix[0])
    rows, pivots, d, _ = _eliminate(matrix)
    pivot_cols = {c: r for r, c in pivots}
    basis = []
    for f in range(ncols):
        if f not in pivot_cols:
            vec = [Scalar.zero(n)] * ncols
            vec[f] = Scalar.one(n)
            for c, r in pivot_cols.items():
                vec[c] = Scalar(-rows[r][f], d)
            basis.append(vec)
    return basis


def determinant(matrix):
    """The rows end as d times the identity, so det(matrix) times the row
    lcms is the sign times d times each constant pivot over the d that
    pivot was scaled to."""
    size = len(matrix)
    if size == 0:
        raise ValueError("determinant of an empty matrix")
    _, pivots, d, (sign, scaled, multipliers) = _eliminate(matrix)
    if len(pivots) < size:
        return Scalar.zero(matrix[0][0].nvars)
    units = sign * prod(p.constant_value() for p, _ in scaled)
    det = reduce(divexact, [scaled_to for _, scaled_to in scaled], d.scale(units))
    return Scalar(det, reduce(mul, [m for m in multipliers if m is not None], d.one(d.nvars)))


def inverse(matrix):
    """Inverse over the fraction field, or None when singular."""
    size = len(matrix)
    one, zero = Scalar.one(matrix[0][0].nvars), Scalar.zero(matrix[0][0].nvars)
    aug = [list(r) + [one if i == j else zero for j in range(size)] for i, r in enumerate(matrix)]
    rows, pivots, d, _ = _eliminate(aug, size)
    if len(pivots) < size:
        return None
    return [[Scalar(v, d) for v in row[size:]] for row in rows]


def matmul(a, b):
    """a @ b, one sum of products per entry."""
    if not a or not b:
        return []
    n = a[0][0].nvars
    return [
        [
            scalar.sum_of_products(
                n, [(1, v, w) for v, w in zip(row, col) if not (v.is_zero() or w.is_zero())]
            )
            for col in zip(*b)
        ]
        for row in a
    ]
