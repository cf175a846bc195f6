"""Q-divisors on the projective line and Segre cohomology tables.

Points of P^1 = Proj k[w,z] are the primes (w + i*z) for integer scalars
i, written P(i), plus the point at infinity (z), written inf.  A divisor
is a finite formal sum with exact rational coefficients.  For an integral
divisor E of degree d on P^1, h0 = max(0, d+1) and h1 = max(0, -d-1)
(Riemann-Roch with genus 0; Serre duality pairs E with -E-2*point).

Sections are written in the trivialization by the prime forms ell_p:
for an integral divisor E, H0(P^1, O(E)) is the space of binary forms f
of degree deg E in k[w,z] = P1_RING, read as f / prod_p ell_p^(E_p)
(``section_basis`` puts the same space over the positive coefficients'
denominator).  The product of sections f_i of O(floor(d_i*D)) to the
powers e_i has the form prod f_i^(e_i) * prod_p ell_p^(floor(n*D)_p -
sum_i e_i*floor(d_i*D)_p) at level n = sum e_i*d_i, with exponents >= 0
since floors are superadditive.  So each level of the section ring is
the forms of one degree, and one ``linalg.dependencies`` elimination
gives its new generators and its new relations.

Inside this module a binary form of degree d is a list of d+1 Python
ints, entry k the coefficient of w^(d-k)*z^k: prime powers come from the
binomial theorem, (w + i*z)^e = sum_k C(e,k)*i^k * w^(e-k)*z^k, and
products are integer convolutions.  The forms only become ``P1_RING``
polynomials with ``Fraction`` coefficients where ``section_basis``
returns them.

A second, fixed cohomology table covers the degree-3 polarization of an
elliptic curve (h0 = 1, 3n for n = 0, n >= 1; h1(n) = h0(-n)); this is a
documented lookup, not a curve-cohomology engine, and the dimensions it
lists are characteristic-independent only away from characteristic 3.
Kuenneth turns a pair of tables into graded local-cohomology dimensions
of the Segre product of the two section rings.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import linalg
from .errors import InputError, ParseError, UnsupportedRequestError
from .fields import QQ
from .groebner import buchberger
from .parse import _TokenStream, tokenize
from .rings import Polynomial, PolyRing, monomial_divides, monomials_of_degree

#: Homogeneous coordinate ring of P^1 used for section numerators.
P1_RING = PolyRing(("w", "z"), QQ)


@dataclass(frozen=True, order=True)
class CurvePoint:
    """A closed point of P^1: P(i) is the prime (w + i*z), inf is (z)."""

    at_infinity: bool
    scalar: int = 0

    @staticmethod
    def finite(i: int) -> "CurvePoint":
        return CurvePoint(False, int(i))

    @staticmethod
    def infinity() -> "CurvePoint":
        return CurvePoint(True, 0)

    @property
    def label(self) -> str:
        return "inf" if self.at_infinity else f"P({self.scalar})"

    def __repr__(self):
        return self.label


class QDivisor:
    """Finite formal sum of curve points with exact rational coefficients.

    Zero coefficients are pruned at construction, so support and degree
    are always meaningful; instances are immutable.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        clean = {}
        for point, coeff in coefficients.items() if isinstance(coefficients, dict) else coefficients:
            if isinstance(coeff, float):  # Fraction(0.1) is 3602879701896397/2^55
                raise InputError(f"divisor coefficient {coeff!r} is a float; give an int, a Fraction or a string")
            coeff = Fraction(coeff)
            if coeff:
                acc = clean.get(point, Fraction(0)) + coeff
                if acc:
                    clean[point] = acc
                else:
                    clean.pop(point, None)
        self.coefficients = dict(sorted(clean.items()))

    def degree(self) -> Fraction:
        return sum(self.coefficients.values(), Fraction(0))

    @property
    def support(self):
        return tuple(self.coefficients)

    def coefficient(self, point: CurvePoint) -> Fraction:
        return self.coefficients.get(point, Fraction(0))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coefficients.values())

    def floors(self, n: int):
        """Coefficients of floor(n*D) as ints, in support order."""
        return tuple(n * c.numerator // c.denominator for c in self.coefficients.values())

    def floor_multiple(self, n: int) -> "QDivisor":
        """Coefficient-wise floor of n*D (an integral divisor)."""
        return QDivisor(zip(self.support, self.floors(n)))

    def __add__(self, other: "QDivisor") -> "QDivisor":
        acc = dict(self.coefficients)
        for p, c in other.coefficients.items():
            acc[p] = acc.get(p, Fraction(0)) + c
        return QDivisor(acc)

    def __sub__(self, other: "QDivisor") -> "QDivisor":
        return self + other.scaled(-1)

    def scaled(self, factor) -> "QDivisor":
        return QDivisor({p: c * factor for p, c in self.coefficients.items()})

    def __eq__(self, other):
        return isinstance(other, QDivisor) and self.coefficients == other.coefficients

    def __hash__(self):
        return hash(tuple(self.coefficients.items()))

    def __str__(self):
        if not self.coefficients:
            return "0"
        parts = []
        for i, (p, c) in enumerate(self.coefficients.items()):
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            body = p.label if mag == 1 else f"{mag}*{p.label}"
            if i == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"QDivisor({self})"


def h0(divisor: QDivisor) -> int:
    """Global sections of an integral divisor on P^1: max(0, deg+1)."""
    if not divisor.is_integral():
        raise InputError("h0 needs an integral divisor; take floor_multiple first")
    return max(0, int(divisor.degree()) + 1)


def h1(divisor: QDivisor) -> int:
    """First cohomology on P^1: max(0, -deg-1) (Serre dual to h0)."""
    if not divisor.is_integral():
        raise InputError("h1 needs an integral divisor; take floor_multiple first")
    return max(0, -int(divisor.degree()) - 1)


# ---------------------------------------------------------------------------
# explicit section spaces


@dataclass(frozen=True)
class SectionSpace:
    """Basis of H0(P^1, O(floor(n*D))) as numerator/denominator pairs."""

    level: int
    floor_divisor: QDivisor
    denominator: Polynomial
    numerators: tuple

    def __len__(self):
        return len(self.numerators)


def _prime_power(point: CurvePoint, e: int):
    """ell_p^e as a coefficient list: (w + i*z)^e, or z^e at inf."""
    if point.at_infinity:
        return [0] * e + [1]
    i = point.scalar
    return [comb(e, k) * i**k for k in range(e + 1)]


def _binary_mul(a, b):
    """Product of two binary forms given as coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _prime_product(form, powers):
    """``form`` times ell_p^e for each (point p, exponent e) with e > 0."""
    for p, e in powers:
        if e > 0:
            form = _binary_mul(form, _prime_power(p, e))
    return form


def _as_polynomial(form) -> Polynomial:
    """The coefficient list as a ``P1_RING`` polynomial.  The terms of a
    form of one degree descend in any order with w > z as k ascends, so
    they are already in canonical order."""
    d = len(form) - 1
    return Polynomial(P1_RING, tuple(((d - k, k), Fraction(c)) for k, c in enumerate(form) if c))


def section_basis(divisor: QDivisor, n: int) -> SectionSpace:
    """Explicit basis of the level-n piece of the section ring of D.

    Numerators are the forced vanishing factor (primes with negative floor
    coefficient) times the monomials of degree deg(floor(n*D)); the
    denominator collects the positive floor coefficients.  The basis size
    equals h0 of the floored divisor.
    """
    if n < 0:
        raise InputError("section spaces are indexed by n >= 0")
    floored = divisor.floor_multiple(n)
    floors = divisor.floors(n)
    den = _as_polynomial(_prime_product([1], zip(divisor.support, floors)))
    deg = sum(floors)
    if deg < 0:
        return SectionSpace(n, floored, den, ())
    forced = _prime_product([1], ((p, -c) for p, c in zip(divisor.support, floors)))
    numerators = tuple(_as_polynomial([0] * i + forced + [0] * (deg - i)) for i in range(deg + 1))
    return SectionSpace(n, floored, den, numerators)


def generator_degrees(divisor: QDivisor, degree_bound: int):
    """Scan levels 1..degree_bound for new algebra generators of the section
    ring and for minimal relations among them.

    Returns (generator degree multiset, relation degree multiset) as sorted
    tuples.  The relations found so far are kept as a reduced Groebner
    basis in k[T0..], one variable per generator weighted by its degree.
    At level n, one ``linalg.dependencies`` over the products for the
    degree-n monomials in the T that are standard for that basis and the
    monomials w^(deg-i)*z^i of degree deg = deg floor(n*D) gives the new
    generators (the monomials outside the span of the products) and the
    new minimal relations (every relation among the products, since
    standard monomials stay independent modulo the earlier relations).
    For deg D < 0 the section ring is k and both tuples are empty.
    """
    if degree_bound < 1:
        raise InputError("degree bound must be at least 1")
    if divisor.degree() < 0:  # floor(n*D) has negative degree at every level
        return (), ()
    field = P1_RING.field
    points = divisor.support
    generators = []  # (degree, form, floors of degree*D)
    relations = []  # (degree, {exponent tuple: coefficient})
    leading = ()  # leading monomials of the reduced basis of the relations

    for n in range(1, degree_bound + 1):
        floors = divisor.floors(n)
        deg = sum(floors)
        # w^(deg-i)*z^i is the unit coefficient list with its 1 at entry i
        monomials = [[0] * i + [1] + [0] * (deg - i) for i in range(deg + 1)]
        exponents = [
            e
            for e in monomials_of_degree([d for d, _, _ in generators], n)
            if not any(monomial_divides(m, e) for m in leading)
        ]
        products = [_product(generators, e, points, floors) for e in exponents]
        pivots, kernel = linalg.dependencies(products + monomials, field)
        # the product relations come first and are zero past their own column
        free = len(products) - sum(i < len(products) for i in pivots)
        for vec in kernel[:free]:
            relations.append((n, {e: c for e, c in zip(exponents, vec) if c}))
        for i in pivots:
            if i >= len(products):
                generators.append((n, monomials[i - len(products)], floors))
        # an appended variable leaves weighted grevlex unchanged on the old
        # monomials, and monomial_divides reads a shorter tuple as padded
        # with zeros, so only new relations call for a new basis
        if free:
            weights = [d for d, _, _ in generators]
            ring = PolyRing([f"T{i}" for i in range(len(weights))], field, weights)
            polys = [
                ring.polynomial({e + (0,) * (len(weights) - len(e)): c for e, c in rel.items()})
                for _, rel in relations
            ]
            leading = buchberger(polys).leading_monomials()

    if not generators:  # no level up to the bound has a section
        warnings.warn("degree bound too small to see any section", stacklevel=2)
        return (), ()
    gen_degrees = tuple(sorted(d for d, _, _ in generators))
    rel_degrees = tuple(sorted(d for d, _ in relations))
    return gen_degrees, rel_degrees


def _product(generators, exponents, points, floors):
    """Form of a product of generator sections at the level whose floors
    at ``points`` are ``floors``: prod f_i^(e_i) times
    ell_p^(floors_p - sum_i e_i*floor(d_i*D)_p)."""
    product, short = [1], list(floors)
    for (_, form, gen_floors), e in zip(generators, exponents):
        for _ in range(e):
            product = _binary_mul(product, form)
        short = [s - e * f for s, f in zip(short, gen_floors)]
    if any(s < 0 for s in short):
        raise AssertionError("floor superadditivity violated")
    return _prime_product(product, zip(points, short))


# ---------------------------------------------------------------------------
# Gorenstein test for section rings (fractional-part criterion)


def watanabe_gorenstein(divisor: QDivisor, a: int) -> bool:
    """Section ring R(P^1, D) is Gorenstein with a-invariant ``a`` iff
    K + D' - a*D is an integral divisor of degree 0, where D' takes the
    fractional-part coefficient (q-1)/q at each support point and the
    canonical divisor K contributes -2 to the degree."""
    if a == 0:
        raise InputError("the a-invariant test needs a nonzero integer")
    degree = Fraction(-2)
    for p, c in divisor.coefficients.items():
        dprime = Fraction(c.denominator - 1, c.denominator)
        adjusted = dprime - a * c
        if adjusted.denominator != 1:
            return False
        degree += adjusted
    return degree == 0


# ---------------------------------------------------------------------------
# cohomology tables and Segre/Kuenneth dimensions


class P1CohomologyTable:
    """n -> (h0, h1) of O(floor(n*D)) on P^1 for a fixed Q-divisor D."""

    def __init__(self, divisor: QDivisor):
        self.divisor = divisor

    def h0(self, n: int) -> int:
        return max(0, sum(self.divisor.floors(n)) + 1)

    def h1(self, n: int) -> int:
        return max(0, -sum(self.divisor.floors(n)) - 1)


class EllipticCohomologyTable:
    """Fixed table for a degree-3 polarization of an elliptic curve:
    h0 = 1, 3n for n = 0, n >= 1, else 0, and h1(n) = h0(-n) (genus 1,
    trivial canonical divisor).  Valid away from characteristic 3."""

    def h0(self, n: int) -> int:
        if n < 0:
            return 0
        if n == 0:
            return 1
        return 3 * n

    def h1(self, n: int) -> int:
        return self.h0(-n)


def segre_hilbert(table1, table2, n: int) -> int:
    """dim of the degree-n piece of the Segre product: h0*h0."""
    return table1.h0(n) * table2.h0(n)


def segre_local_cohomology_dim(table1, table2, i: int, n: int) -> int:
    """Graded local cohomology of the Segre product S at the irrelevant
    ideal: dim H^i(S)_n = sum over p+q = i-1 of h^p(n)*h^q(n) by Kuenneth
    (valid for i >= 2, where local and sheaf cohomology agree)."""
    if i <= 1:
        raise UnsupportedRequestError(
            "local cohomology indices <= 1 are outside the sheaf identification"
        )
    total = 0
    for p in range(i):
        q = i - 1 - p
        hp = table1.h0(n) if p == 0 else table1.h1(n) if p == 1 else 0
        hq = table2.h0(n) if q == 0 else table2.h1(n) if q == 1 else 0
        total += hp * hq
    return total


def quasi_gorenstein_hilbert_check(table1, table2, a: int, n_range) -> bool:
    """Necessary condition for the canonical module of the surface Segre
    product to be S(a): the Hilbert function of top local cohomology at -n
    must match dim S_(n+a) for every n in the range.  Dimension data alone
    never proves the isomorphism; a True here is only consistency."""
    for n in n_range:
        if segre_local_cohomology_dim(table1, table2, 3, -n) != segre_hilbert(table1, table2, n + a):
            return False
    return True


# ---------------------------------------------------------------------------
# divisor expressions


def parse_divisor(text: str) -> QDivisor:
    """Parse expressions like ``2*P(0) - 5/8*P(1) + inf``."""
    stream = _TokenStream(tokenize(text))
    coefficients: list = []
    sign = 1
    if stream.accept("sym", "-"):
        sign = -1
    while True:
        coefficients.append(_parse_divisor_term(stream, sign))
        if stream.accept("sym", "+"):
            sign = 1
        elif stream.accept("sym", "-"):
            sign = -1
        else:
            break
    tail = stream.peek()
    if tail.kind != "end":
        raise ParseError(f"unexpected trailing input {tail.value!r}", tail.line, tail.column)
    return QDivisor(coefficients)


def _parse_divisor_term(stream: _TokenStream, sign: int):
    tok = stream.peek()
    coeff = Fraction(sign)
    if tok.kind == "int":
        stream.next()
        num = int(tok.value)
        den = 1
        if stream.accept("sym", "/"):
            den = int(stream.expect("int", what="denominator").value)
            if den == 0:
                raise ParseError("zero denominator", tok.line, tok.column)
        coeff *= Fraction(num, den)
        stream.expect("sym", "*", what="'*' between coefficient and point")
    return (_parse_point(stream), coeff)


def _parse_point(stream: _TokenStream) -> CurvePoint:
    tok = stream.expect("ident", what="a point (P(i) or inf)")
    if tok.value == "inf":
        return CurvePoint.infinity()
    if tok.value != "P":
        raise ParseError(f"unknown point {tok.value!r}", tok.line, tok.column)
    stream.expect("sym", "(", what="'('")
    negative = stream.accept("sym", "-") is not None
    itok = stream.expect("int", what="point scalar")
    stream.expect("sym", ")", what="')'")
    scalar = -int(itok.value) if negative else int(itok.value)
    return CurvePoint.finite(scalar)
