"""Sparse multivariate polynomials over an exact field.

Monomials are exponent tuples (one entry per ring variable).  A
polynomial is an immutable, canonically sorted tuple of
``(monomial, coefficient)`` terms, strictly descending in the ring's
monomial order, with no zero coefficients, so equality is structural and
reduction is a linear scan.  All arithmetic is exact; there is no
floating point anywhere in this package.
"""

from __future__ import annotations

from .errors import InputError, RingMismatchError
from .fields import QQ, PrimeField, RationalField, field_label
from .orders import GrevlexOrder, integer_tuple


# ---------------------------------------------------------------------------
# exponent-tuple helpers

def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a, b):
    """True iff monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def monomial_coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def monomials_of_degree(weights, n: int):
    """All exponent tuples of weighted degree exactly n over positive
    weights, in ascending lexicographic order."""
    k = len(weights)
    out = []

    def rec(i, remaining, prefix):
        if remaining == 0:
            out.append(prefix + (0,) * (k - i))
        elif i < k:
            w = weights[i]
            for e in range(remaining // w + 1):
                rec(i + 1, remaining - w * e, prefix + (e,))

    rec(0, n, ())
    return out


class PolyRing:
    """A polynomial ring: variable names, per-variable integer weights, an
    exact coefficient field and a monomial order.

    Weights may include 0 (graded bookkeeping only; such variables get a
    secondary degree inside the default order so it stays a well-order).
    """

    def __init__(self, names, field=QQ, weights=None, order=None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise InputError("duplicate variable name")
        if not names:
            raise InputError("a ring needs at least one variable")
        self.names = names
        self.field = field
        if weights is None:
            weights = (1,) * len(names)
        self.weights = integer_tuple(weights, "weights")
        if len(self.weights) != len(names):
            raise InputError("one weight per variable required")
        if any(w < 0 for w in self.weights):
            raise InputError("weights must be non-negative")
        self.order = order if order is not None else GrevlexOrder(self.weights)
        if self.order.nvars != len(names):
            raise InputError(
                f"the monomial order has {self.order.nvars} columns for {len(names)} variables"
            )
        self._index = {n: i for i, n in enumerate(names)}
        self.nvars = len(names)
        self.zero_monomial = (0,) * self.nvars

    # -- construction ------------------------------------------------------

    def polynomial(self, coeff_map) -> "Polynomial":
        """Canonicalize a {monomial: coefficient} map into a Polynomial."""
        key = self.order.key
        terms = tuple(
            (m, c)
            for m, c in sorted(coeff_map.items(), key=lambda t: key(t[0]), reverse=True)
            if c
        )
        return Polynomial(self, terms)

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def one(self) -> "Polynomial":
        return self.constant(self.field.one)

    def constant(self, scalar) -> "Polynomial":
        if not scalar:
            return self.zero()
        return Polynomial(self, ((self.zero_monomial, scalar),))

    def variable(self, name: str) -> "Polynomial":
        try:
            i = self._index[name]
        except KeyError:
            raise InputError(f"unknown variable '{name}'") from None
        m = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, ((m, self.field.one),))

    def gens(self):
        return tuple(self.variable(n) for n in self.names)

    def parse(self, text: str) -> "Polynomial":
        from .parse import parse_polynomial

        return parse_polynomial(text, self)

    # -- metadata ----------------------------------------------------------

    def monomial_degree(self, m) -> int:
        """Weighted degree of an exponent tuple."""
        return sum(w * e for w, e in zip(self.weights, m))

    def monomial_str(self, m) -> str:
        parts = []
        for name, e in zip(self.names, m):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def with_order(self, order) -> "PolyRing":
        return PolyRing(self.names, self.field, self.weights, order)

    def extended(self) -> "PolyRing":
        """Append one fresh weight-1 variable named ``t#0``.

        The name contains '#', which the parser rejects in identifiers, so
        it can never collide with a user variable.  The extension keeps the
        original variables in their positions, and its order is the ring's
        order extended by one column (``MatrixOrder.extended``), so the two
        orders agree on monomials free of the new variable.
        """
        return PolyRing(
            self.names + ("t#0",), self.field, self.weights + (1,), self.order.extended(1)
        )

    def describe(self) -> str:
        parts = [f"field {field_label(self.field)}", "vars " + ",".join(self.names)]
        if any(w != 1 for w in self.weights):
            parts.append("weights " + ",".join(str(w) for w in self.weights))
        if self.order != GrevlexOrder(self.weights):
            parts.append(f"order {self.order.name}")
        return "; ".join(parts)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, PolyRing)
            and self.names == other.names
            and self.weights == other.weights
            and self.field == other.field
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.names, self.weights, self.field, self.order))

    def __repr__(self):
        return f"PolyRing({self.describe()!r})"


def _coerce(ring: PolyRing, value):
    if isinstance(value, Polynomial):
        if value.ring != ring:
            raise RingMismatchError("operands belong to different rings")
        return value
    if isinstance(value, int):
        return ring.constant(ring.field.scalar(value))
    return NotImplemented


class Polynomial:
    """Immutable sparse polynomial; terms sorted descending in the ring order."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms):
        self.ring = ring
        self.terms = terms

    # -- basic queries -----------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def leading_monomial(self):
        if not self.terms:
            raise InputError("the zero polynomial has no leading monomial")
        return self.terms[0][0]

    def leading_coefficient(self):
        if not self.terms:
            raise InputError("the zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == self.ring.zero_monomial)

    def weighted_degree(self) -> int:
        """Max weighted degree over the terms; undefined for 0."""
        if not self.terms:
            raise InputError("the zero polynomial has no weighted degree")
        return max(self.ring.monomial_degree(m) for m, _ in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {self.ring.monomial_degree(m) for m, _ in self.terms}
        return len(degs) == 1

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(self.ring, other)
        if other is NotImplemented:
            return NotImplemented
        field = self.ring.field
        acc = dict(self.terms)
        for m, c in other.terms:
            prev = acc.get(m)
            if prev is None:
                acc[m] = c
            else:
                s = field.add(prev, c)
                if s:
                    acc[m] = s
                else:
                    del acc[m]
        return self.ring.polynomial(acc)

    __radd__ = __add__

    def __neg__(self):
        neg = self.ring.field.neg
        return Polynomial(self.ring, tuple((m, neg(c)) for m, c in self.terms))

    def __sub__(self, other):
        other = _coerce(self.ring, other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(self.ring, other)
        if other is NotImplemented:
            return NotImplemented
        field = self.ring.field
        mul = field.mul
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = monomial_mul(m1, m2)
                c = mul(c1, c2)
                prev = acc.get(m)
                if prev is None:
                    acc[m] = c
                else:
                    s = field.add(prev, c)
                    if s:
                        acc[m] = s
                    else:
                        del acc[m]
        return self.ring.polynomial(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise InputError("polynomial powers must be non-negative integers")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scaled(self, scalar) -> "Polynomial":
        if not scalar:
            return self.ring.zero()
        mul = self.ring.field.mul
        return Polynomial(self.ring, tuple((m, mul(scalar, c)) for m, c in self.terms))

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.terms[0][1]
        if lc == self.ring.field.one:
            return self
        return self.scaled(self.ring.field.inv(lc))

    def compose(self, target: PolyRing, images: dict) -> "Polynomial":
        """Ring map sending each variable to ``images[name]`` in ``target``."""
        gens = []
        for name in self.ring.names:
            if name not in images:
                raise InputError(f"no image provided for variable '{name}'")
            gens.append(_coerce(target, images[name]))
        result = target.zero()
        for m, c in self.terms:
            term = target.constant(_convert_scalar(self.ring.field, target.field, c))
            for g, e in zip(gens, m):
                if e:
                    term = term * g**e
            result = result + term
        return result

    # -- comparisons / formatting -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, int):
            return self == self.ring.constant(self.ring.field.scalar(other))
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __str__(self):
        if not self.terms:
            return "0"
        field = self.ring.field
        out = []
        for i, (m, c) in enumerate(self.terms):
            mono = self.ring.monomial_str(m)
            text = field.format(c)
            negative = text.startswith("-")
            if negative:
                text = text[1:]
            if mono != "1":
                body = mono if text == "1" else f"{text}*{mono}"
            else:
                body = text
            if i == 0:
                out.append(("-" if negative else "") + body)
            else:
                out.append(("- " if negative else "+ ") + body)
        return " ".join(out)

    def __repr__(self):
        return f"<{self}>"


def _convert_scalar(src_field, dst_field, c):
    if src_field == dst_field:
        return c
    if isinstance(src_field, RationalField):
        return dst_field.scalar(c.numerator, c.denominator)
    if isinstance(src_field, PrimeField):
        return dst_field.scalar(int(c))
    raise InputError("cannot convert scalars between these fields")
