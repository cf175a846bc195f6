"""Dense exact linear algebra over the package's coefficient fields.

Matrices are lists of rows of field scalars.  Everything is fraction-free
only in the sense of being exact; no pivoting heuristics are needed
because there is no rounding.  Sizes here stay small (tens of rows by a
few hundred columns), so plain Gaussian elimination is the right tool.

Polynomials enter as coefficient vectors over their joint monomial
support, and ``independent`` is the one place that decides which of a
list of vectors lie outside the span of the ones before them: the
Nakayama count in ``linkage`` and the generator and relation search in
``divisors`` both ask it.
"""

from __future__ import annotations


def row_reduce(rows, field):
    """Reduced row echelon form. Returns (rref_rows, pivot_columns).

    The input rows are not modified.
    """
    matrix = [list(r) for r in rows]
    if not matrix:
        return [], []
    ncols = len(matrix[0])
    pivots = []
    pivot_row = 0
    for col in range(ncols):
        found = None
        for r in range(pivot_row, len(matrix)):
            if matrix[r][col]:
                found = r
                break
        if found is None:
            continue
        matrix[pivot_row], matrix[found] = matrix[found], matrix[pivot_row]
        inv = field.inv(matrix[pivot_row][col])
        matrix[pivot_row] = [field.mul(inv, x) for x in matrix[pivot_row]]
        for r in range(len(matrix)):
            if r != pivot_row and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [
                    field.sub(x, field.mul(factor, y))
                    for x, y in zip(matrix[r], matrix[pivot_row])
                ]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(matrix):
            break
    return matrix, pivots


def rank(rows, field) -> int:
    return len(row_reduce(rows, field)[1])


def kernel_basis(rows, field):
    """Basis of the right kernel {x : A x = 0}, one vector per free column.

    Deterministic: free columns are processed in increasing order and each
    basis vector has a 1 in its free column.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = row_reduce(rows, field)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for free in free_cols:
        vec = [field.zero] * ncols
        vec[free] = field.one
        for prow, pcol in enumerate(pivots):
            vec[pcol] = field.neg(rref[prow][free])
        basis.append(vec)
    return basis


def coefficient_vectors(polys, field):
    """Dense coefficient vectors of the polynomials, one coordinate per
    monomial of their joint support."""
    support = sorted({m for f in polys for m, _ in f.terms})
    column = {m: i for i, m in enumerate(support)}
    vectors = []
    for f in polys:
        row = [field.zero] * len(support)
        for m, c in f.terms:
            row[column[m]] = c
        vectors.append(row)
    return vectors


def independent(vectors, field):
    """Ascending indices of the vectors outside the span of the earlier
    ones: the pivot columns of the matrix with the vectors as columns.
    Their number is the rank."""
    return row_reduce([list(col) for col in zip(*vectors)], field)[1]
