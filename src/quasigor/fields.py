"""Exact coefficient fields: the rationals and prime fields F_p.

Scalars are plain values (rationals, or ints in ``[0, p)``), not wrapper
objects; the field object supplies the arithmetic.  This keeps the inner
loops of the Groebner engine free of per-element dispatch.  Rational
scalars are ``fractions.Fraction`` values.

``normalize`` gives the canonical scalar multiple the Groebner engine
works with: over Q a primitive integer vector (denominators cleared,
content divided out, leading entry positive), so the engine reduces with
integers and builds a rational only when a result leaves it; over F_p a
monic vector.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from .errors import InputError


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 3.3e24)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field of rational numbers with exact arbitrary-precision scalars."""

    characteristic = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def scalar(self, numerator: int, denominator: int = 1):
        if denominator == 0:
            raise InputError("zero denominator")
        return Fraction(numerator, denominator)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    def div(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero scalar")
        return Fraction(a) / b

    def inv(self, a):
        return self.div(self.one, a)

    def normalize(self, terms):
        """``(unit, primitive)`` for nonempty ``terms``, (key, rational)
        pairs with the leading pair first: ``primitive`` holds the same keys
        with coprime integer coefficients, the leading one positive, and
        ``terms`` is ``unit`` times ``primitive``."""
        den = lcm(*(c.denominator for _, c in terms))
        nums = [c.numerator * (den // c.denominator) for _, c in terms]
        content = gcd(*nums)
        if nums[0] < 0:
            content = -content
        return self.scalar(content, den), tuple((k, n // content) for (k, _), n in zip(terms, nums))

    @staticmethod
    def format(a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """F_p for a prime p; scalars are ints reduced into ``[0, p)``."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise InputError(f"modulus {p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def scalar(self, numerator: int, denominator: int = 1):
        num = numerator % self.p
        if denominator == 1:
            return num
        den = denominator % self.p
        if den == 0:
            raise InputError(f"denominator {denominator} is not invertible mod {self.p}")
        return num * pow(den, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero scalar")
        return a * pow(b, -1, self.p) % self.p

    def inv(self, a):
        return self.div(1, a)

    def normalize(self, terms):
        """``(unit, monic)`` for nonempty ``terms``, (key, scalar) pairs with
        the leading pair first: ``terms`` is ``unit`` times ``monic``."""
        lc = terms[0][1]
        if lc == 1:
            return 1, terms
        p = self.p
        inv = pow(lc, -1, p)
        return lc, tuple((k, c * inv % p) for k, c in terms)

    @staticmethod
    def format(a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F{self.p}"


QQ = RationalField()


_FIELD_LABEL = re.compile(r"Q|F([0-9]+)|Fp:([0-9]+)")


def parse_field(label):
    """The field named by ``Q``, ``F<p>`` or ``Fp:<p>`` (ASCII digits only,
    no sign or space)."""
    m = _FIELD_LABEL.fullmatch(label) if isinstance(label, str) else None
    if m is None:
        raise InputError(f"bad field label {label!r} (expected Q, F<p> or Fp:<p>)")
    digits = m.group(1) or m.group(2)
    return PrimeField(int(digits)) if digits else QQ


def field_label(field) -> str:
    """``Q`` or ``F<p>``; parse_field reads it back."""
    return "Q" if field == QQ else f"F{field.p}"
