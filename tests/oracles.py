"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: membership is decided
by a degree-bounded exact linear system, ranks by a reduced row echelon
form over field inverses (the library eliminates fraction-free, without
inverses), dimension by a scan of every
variable subset (the library branches and bounds), complete-intersection
Hilbert functions by generating-function coefficient extraction, point
multiplicities by repeated exact division, and section spaces by
``Polynomial`` products of prime forms (the library convolves integer
coefficient lists).
"""

from __future__ import annotations

from math import comb

from quasigor.divisors import P1_RING, SectionSpace
from quasigor.errors import InputError
from quasigor.groebner import exact_quotient
from quasigor.rings import Polynomial, monomial_mul


def monomials_up_to(nvars: int, degree: int):
    """All exponent tuples of total degree <= degree, low degrees first."""
    out = [()]
    for _ in range(nvars):
        out = [m + (e,) for m in out for e in range(degree + 1 - sum(m))]
    return sorted(out, key=lambda m: (sum(m), m))


def membership_by_linear_algebra(f: Polynomial, generators, slack: int = 3) -> bool:
    """Decide f in (generators) by solving sum h_i g_i = f exactly, with all
    products bounded by deg(f) + slack."""
    ring = f.ring
    field = ring.field
    if not f:
        return True
    bound = max(sum(m) for m, _ in f.terms) + slack
    columns = []
    for g in generators:
        if not g:
            continue
        gdeg = max(sum(m) for m, _ in g.terms)
        for m in monomials_up_to(ring.nvars, bound - gdeg):
            product = {}
            for gm, gc in g.terms:
                product[monomial_mul(gm, m)] = gc
            columns.append(product)
    support = sorted({m for col in columns for m in col} | {m for m, _ in f.terms})
    index = {m: i for i, m in enumerate(support)}
    rows = []
    for col in columns:
        row = [field.zero] * len(support)
        for m, c in col.items():
            row[index[m]] = c
        rows.append(row)
    target = [field.zero] * len(support)
    for m, c in f.terms:
        target[index[m]] = c
    base_rank = rank(rows, field)
    return rank(rows + [target], field) == base_rank


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


def dependencies_by_row_reduction(vectors, field):
    """(pivots, relations) read off the reduced row echelon form of the
    matrix with the vectors as columns: the pivot columns, and for each
    other column j the relation with a 1 at j and the negated entries of
    column j at the pivot columns."""
    rref, pivots = row_reduce([list(col) for col in zip(*vectors)], field)
    relations = []
    for j in sorted(set(range(len(vectors))) - set(pivots)):
        vec = [field.zero] * len(vectors)
        vec[j] = field.one
        for row, col in zip(rref, pivots):
            vec[col] = field.neg(row[j])
        relations.append(vec)
    return pivots, relations


def dimension_by_subset_scan(leading_monomials, nvars: int) -> int:
    """Dimension oracle enumerating all 2^nvars subsets, tracking the largest
    one that contains no leading-monomial support."""
    supports = [frozenset(i for i, e in enumerate(lm) if e) for lm in leading_monomials]
    best = -1
    for code in range(2**nvars):
        subset = {i for i in range(nvars) if code >> i & 1}
        if any(s <= subset for s in supports):
            continue
        best = max(best, len(subset))
    return best


def ci_hilbert_coefficient(degrees, nvars: int, n: int) -> int:
    """Coefficient of t^n in prod(1 - t^d) / (1 - t)^nvars."""
    numerator = [1]
    for d in degrees:
        nxt = numerator + [0] * d
        for i, c in enumerate(numerator):
            nxt[i + d] -= c
        numerator = nxt
    total = 0
    for i, c in enumerate(numerator):
        if i > n or not c:
            continue
        total += c * comb(n - i + nvars - 1, nvars - 1)
    return total


def vanishing_order(form: Polynomial, prime: Polynomial) -> int:
    """Multiplicity of the prime form in a nonzero form of k[w,z]."""
    if not form:
        raise InputError("the zero form has no vanishing order")
    order = 0
    while True:
        try:
            form = exact_quotient(form, prime)
        except InputError:
            return order
        order += 1


def prime_form(point) -> Polynomial:
    """The linear form ell_p of a curve point in ``P1_RING``: w + i*z for
    P(i), z at infinity."""
    one = P1_RING.field.one
    if point.at_infinity:
        return P1_RING.polynomial({(0, 1): one})
    return P1_RING.polynomial({(1, 0): one, (0, 1): P1_RING.field.scalar(point.scalar)})


def section_basis_by_polynomials(divisor, n: int) -> SectionSpace:
    """The level-n section space of ``divisor`` built in ``P1_RING``: the
    denominator is prod ell_p^c over the positive floor coefficients c, and
    the numerators are prod ell_p^(-c) over the negative ones times the
    monomials w^(deg-i)*z^i, each prime power ``prime_form(p) ** e``."""
    floored = divisor.floor_multiple(n)

    def prime_product(form, powers):
        for p, e in powers:
            if e > 0:
                form = form * prime_form(p) ** int(e)
        return form

    one = P1_RING.one()
    den = prime_product(one, floored.coefficients.items())
    deg = int(floored.degree())
    if deg < 0:
        return SectionSpace(n, floored, den, ())
    forced = prime_product(one, ((p, -c) for p, c in floored.coefficients.items()))
    w, z = P1_RING.gens()
    numerators = tuple(forced * w ** (deg - i) * z**i for i in range(deg + 1))
    return SectionSpace(n, floored, den, numerators)


def random_polynomial(ring, rng, max_degree: int = 3, max_terms: int = 4) -> Polynomial:
    """Deterministic random polynomial driven by the caller's seeded rng."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        monomial = [0] * ring.nvars
        for _ in range(rng.randint(0, max_degree)):
            monomial[rng.randrange(ring.nvars)] += 1
        coeff = ring.field.scalar(rng.randint(-5, 5))
        if coeff:
            terms[tuple(monomial)] = coeff
    return ring.polynomial(terms)
