"""Dense exact linear algebra over the package's coefficient fields.

One elimination, ``dependencies``, serves every caller.  Each vector is
reduced against the echelon rows of the earlier independent vectors; a
row carries the combination of inputs it equals as identity tags past
its last entry.  Rows are kept in the field's ``normalize`` form, as the
Groebner engine keeps its elements: primitive integer rows over Q, so
elimination cross-multiplies Python ints, and monic rows over F_p.
Exact field values are built only for the relations that leave.

``independent`` gives the indices of the vectors outside the span of the
earlier ones; the Nakayama count in ``linkage`` asks it of polynomials
turned into coefficient vectors over their joint monomial support by
``coefficient_vectors``.  ``dependencies`` gives the same pivots and,
from the same reduction, a relation for each other vector; the
section-ring search in ``divisors`` passes it the integer coefficient
lists of its binary forms directly.
"""

from __future__ import annotations


def dependencies(vectors, field):
    """(pivots, relations): the ascending indices of the vectors outside
    the span of the earlier ones, and for each other vector, in increasing
    order, the relation writing it through the earlier pivot vectors, with
    a 1 at its index and zeros past it.

    Entries may be ints or field values: over Q ``normalize`` reads only
    their ``numerator`` and ``denominator``, and the relations leave as
    field values through ``field.div`` either way."""
    width = len(vectors[0]) if vectors else 0
    mul, sub = field.mul, field.sub
    rows = {}  # leading column -> echelon row, as normal-form (column, entry) terms
    pivots, relations = [], []
    for j, vec in enumerate(vectors):
        terms = [(k, c) for k, c in enumerate(vec) if c]
        terms.append((width + j, 1))
        while True:
            terms = field.normalize(terms)[1]
            lead, a = terms[0]
            row = rows.get(lead)
            if row is None:
                break
            b = row[0][1]
            # cross-multiply: b*terms - a*row cancels the leading entry
            acc = {k: mul(b, c) for k, c in terms}
            for k, c in row:
                acc[k] = sub(acc.get(k, 0), mul(a, c))
            terms = sorted((k, c) for k, c in acc.items() if c)
        if lead < width:
            rows[lead] = terms
            pivots.append(j)
        else:  # only tags are left, the last one its own: sum of tag * vector is zero
            own = terms[-1][1]
            relation = [field.zero] * len(vectors)
            for k, c in terms:
                relation[k - width] = field.div(c, own)
            relations.append(relation)
    return pivots, relations


def independent(vectors, field):
    """Ascending indices of the vectors outside the span of the earlier
    ones.  Their number is the rank."""
    return dependencies(vectors, field)[0]


def rank(rows, field) -> int:
    return len(independent(rows, field))


def kernel_basis(rows, field):
    """Basis of the right kernel {x : A x = 0}: the relations among the columns."""
    return dependencies(list(zip(*rows)), field)[1]


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
