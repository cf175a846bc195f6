"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: membership is decided
by a degree-bounded exact linear system, dimension by a scan of every
variable subset (the library branches and bounds), complete-intersection
Hilbert functions by generating-function coefficient extraction, and point
multiplicities by repeated exact division.
"""

from __future__ import annotations

from math import comb

from quasigor import linalg
from quasigor.errors import InputError
from quasigor.ideals import exact_quotient
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
    base_rank = linalg.rank(rows, field)
    return linalg.rank(rows + [target], field) == base_rank


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
