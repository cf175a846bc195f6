"""Dense exact linear algebra over the package's coefficient fields.

Matrices are lists of rows of field scalars.  Everything is fraction-free
only in the sense of being exact; no pivoting heuristics are needed
because there is no rounding.  Sizes here stay small (tens of rows by a
few hundred columns), so plain Gaussian elimination is the right tool.

Polynomials enter as coefficient vectors over their joint monomial
support.  ``independent`` gives the indices of the vectors outside the
span of the earlier ones (the Nakayama count in ``linkage`` asks it);
``dependencies`` gives the same pivots and, from the same reduction, a
relation for each other vector (the section-ring search in ``divisors``).
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
    """Basis of the right kernel {x : A x = 0}: the relations among the columns."""
    return dependencies([list(col) for col in zip(*rows)], field)[1]


def dependencies(vectors, field):
    """(pivots, relations) from one row reduction with the vectors as
    columns: the pivots of ``independent``, and for each other vector, in
    increasing order, the relation writing it through the earlier pivot
    vectors, with a 1 at its index and zeros past it."""
    rref, pivots = row_reduce([list(col) for col in zip(*vectors)], field)
    relations = []
    for j in sorted(set(range(len(vectors))) - set(pivots)):
        vec = [field.zero] * len(vectors)
        vec[j] = field.one
        for row, col in zip(rref, pivots):
            vec[col] = field.neg(row[j])
        relations.append(vec)
    return pivots, relations


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
