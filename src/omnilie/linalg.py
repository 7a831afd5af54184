"""Exact Gaussian elimination over the rational-function field.

Matrices are lists of rows of Scalars.  Columns are reduced from left
to right to the reduced row-echelon form, which does not depend on which
row of a column is the pivot; free variables are set to zero.  The pivot
is a nonzero constant where the column has one, so row operations scale
by numbers instead of normalizing rational functions.
"""

from __future__ import annotations

from .scalar import Scalar


def _clone(matrix):
    return [list(row) for row in matrix]


def _is_constant(v):
    return v.is_polynomial() and v.num.is_constant() and not v.is_zero()


def _eliminate(rows, ncols=None):
    """Row-reduce in place; returns pivot (row, col) pairs.

    Pivots are taken in the first ``ncols`` columns (all by default).
    The pivot of a column is its first remaining row holding a nonzero
    constant, or its first nonzero remaining row if there is none.
    """
    if not rows:
        return []
    if ncols is None:
        ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next(
            (i for i in range(r, len(rows)) if _is_constant(rows[i][c])), None
        )
        if pivot_row is None:
            pivot_row = next(
                (i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None
            )
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][c]
        if not pivot.is_one():
            rows[r] = [v / pivot for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                factor = rows[i][c]
                rows[i] = [
                    a - factor * b for a, b in zip(rows[i], rows[r])
                ]
        pivots.append((r, c))
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(matrix):
    rows = _clone(matrix)
    return len(_eliminate(rows))


def solve_least(matrix, rhs):
    """One solution of matrix @ x = rhs with zeros in the free variables.

    Returns None when the system is inconsistent.
    """
    if not matrix:
        return [] if all(v.is_zero() for v in rhs) else None
    n = matrix[0][0].nvars
    ncols = len(matrix[0])
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    pivots = _eliminate(rows, ncols)
    if any(not row[ncols].is_zero() for row in rows[len(pivots):]):
        return None
    solution = [Scalar.zero(n)] * ncols
    for r, c in pivots:
        solution[c] = rows[r][ncols]
    return solution


def nullspace(matrix):
    """Deterministic basis of the kernel (one vector per free column)."""
    if not matrix:
        return []
    n = matrix[0][0].nvars
    ncols = len(matrix[0])
    rows = _clone(matrix)
    pivots = _eliminate(rows)
    pivot_cols = {c: r for r, c in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for f in free_cols:
        vec = [Scalar.zero(n)] * ncols
        vec[f] = Scalar.one(n)
        for c, r in pivot_cols.items():
            vec[c] = -rows[r][f]
        basis.append(vec)
    return basis


def determinant(matrix):
    size = len(matrix)
    if size == 0:
        raise ValueError("determinant of an empty matrix")
    n = matrix[0][0].nvars
    rows = _clone(matrix)
    det = Scalar.one(n)
    for c in range(size):
        pivot_row = None
        for i in range(c, size):
            if not rows[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            return Scalar.zero(n)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            det = -det
        pivot = rows[c][c]
        det = det * pivot
        inv = Scalar.one(n) / pivot
        rows[c] = [v * inv for v in rows[c]]
        for i in range(c + 1, size):
            if not rows[i][c].is_zero():
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[c])]
    return det


def inverse(matrix):
    """Inverse over the fraction field, or None when singular."""
    size = len(matrix)
    n = matrix[0][0].nvars
    aug = [
        list(row)
        + [
            Scalar.one(n) if i == j else Scalar.zero(n)
            for j in range(size)
        ]
        for i, row in enumerate(matrix)
    ]
    if len(_eliminate(aug, size)) < size:
        return None
    return [row[size:] for row in aug]


def matmul(a, b):
    if not a or not b:
        return []
    n = a[0][0].nvars
    out = []
    for row in a:
        new_row = []
        for j in range(len(b[0])):
            s = Scalar.zero(n)
            for k, v in enumerate(row):
                if not v.is_zero() and not b[k][j].is_zero():
                    s = s + v * b[k][j]
            new_row.append(s)
        out.append(new_row)
    return out
