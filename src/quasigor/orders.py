"""Monomial orders given by integer matrices.

Every monomial order is a matrix order (Robbiano, "Term orderings on the
polynomial ring", EUROCAL 1985), so one type represents them all: a
``MatrixOrder`` is its rows and nothing else.  The key of an exponent
tuple ``m`` is the integer vector ``matrix . m``, and monomial
comparison is tuple comparison on keys (bigger key, bigger monomial).
The key is linear in the exponents by construction, which the packed
monomials of the Groebner engine rely on.  The rows must have full
column rank (the order is total) and the first nonzero entry of every
column must be positive (it is a well-order).

Restriction, extension and elimination are column operations:
``restricted_to`` keeps some columns, ``extended`` appends columns with
a lex tie-break row each, and ``elimination_order`` stacks two
restrictions.

The graded reverse lexicographic order grades by the ring's weights.  A
declared weight may be 0; such variables contribute a secondary degree
(the total exponent over all weight-0 variables) right after the weighted
degree, which keeps the order a well-order; otherwise division would not
terminate in rings like k[Z1..Z9, Y] with Y of weight 0.
"""

from __future__ import annotations

from operator import index, itemgetter, mul

from .errors import InputError


def integer_tuple(values, what: str) -> tuple:
    """``values`` as a tuple of ints; an entry that is not an integer (a
    float, a Fraction) raises InputError instead of being truncated."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise InputError(f"{what} must be integers") from None


def _picker(positions):
    """Function returning the entries of ``m`` at ``positions`` as a tuple."""
    if len(positions) == 1:
        i = positions[0]
        return lambda m: (m[i],)
    if not positions:
        return lambda m: ()
    return itemgetter(*positions)


class MatrixOrder:
    """The monomial order with key ``matrix . m``; ``name`` is a label.

    Rows are evaluated sparsely; consecutive rows with one nonzero entry
    (the tie-breaking rows of grevlex and lex) are gathered in one step.
    Two orders are equal when their matrices are.
    """

    def __init__(self, name: str, rows):
        self.name = name
        self.matrix = tuple(integer_tuple(row, "order matrix entries") for row in rows)
        self.nvars = len(self.matrix[0]) if self.matrix else 0
        if any(len(row) != self.nvars for row in self.matrix):
            raise InputError("order matrix rows must have equal length")
        for column in zip(*self.matrix):
            if next((c for c in column if c), 0) <= 0:
                raise InputError("each order matrix column needs a positive first nonzero entry")
        steps = []
        for row in self.matrix:
            entries = [(i, c) for i, c in enumerate(row) if c]
            if len(entries) == 1 and steps and steps[-1][0]:
                steps[-1][1].extend(entries)
            else:
                steps.append((len(entries) == 1, entries))
        self._steps = tuple(
            (single, _picker(tuple(i for i, _ in entries)), tuple(c for _, c in entries))
            for single, entries in steps
        )

    def key(self, m):
        out = []
        for single, pick, coeffs in self._steps:
            if single:
                out.extend(map(mul, pick(m), coeffs))
            else:
                out.append(sum(map(mul, pick(m), coeffs)))
        return tuple(out)

    def restricted_to(self, positions) -> "MatrixOrder":
        """The order on the variables at ``positions``: those columns, with
        the rows that become zero dropped."""
        rows = ([row[i] for i in positions] for row in self.matrix)
        return MatrixOrder(self.name, [row for row in rows if any(row)])

    def extended(self, count: int) -> "MatrixOrder":
        """The order on ``count`` more variables, appended: ties under this
        order are broken lexicographically on the new ones, so the two
        orders agree on monomials free of them."""
        n = self.nvars + count
        rows = [row + (0,) * count for row in self.matrix]
        return MatrixOrder(self.name, rows + _unit_rows(n, range(self.nvars, n)))

    def __eq__(self, other):
        return isinstance(other, MatrixOrder) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"MatrixOrder({self.name!r}, {self.matrix})"


def _unit_rows(n, positions, sign=1):
    return [tuple(sign if j == i else 0 for j in range(n)) for i in positions]


def GrevlexOrder(weights) -> MatrixOrder:
    """Weighted graded reverse lexicographic order.

    Rows: the weights, the indicator of the weight-0 variables, then the
    negated unit vectors from the last variable to the first.
    """
    weights = integer_tuple(weights, "monomial order weights")
    if any(w < 0 for w in weights):
        raise InputError("monomial order weights must be non-negative")
    n = len(weights)
    zero = tuple(int(w == 0) for w in weights)
    return MatrixOrder("grevlex", [weights, zero] + _unit_rows(n, reversed(range(n)), -1))


def LexOrder(nvars: int) -> MatrixOrder:
    """Pure lexicographic order (first variable dominant); the identity
    matrix."""
    return MatrixOrder("lex", _unit_rows(nvars, range(nvars)))


def elimination_order(nvars: int, eliminate_positions, base_order: MatrixOrder) -> MatrixOrder:
    """Order making ``eliminate_positions`` dominant over the rest.

    The rows of ``base_order`` restricted to the eliminated variables come
    first, then its rows restricted to the rest, so on polynomials free of
    the eliminated variables the two orders agree.
    """
    elim = set(eliminate_positions)
    rest = set(range(nvars)) - elim
    if not elim or not rest:
        return base_order
    rows = [
        [c if i in block else 0 for i, c in enumerate(row)]
        for block in (elim, rest)
        for row in base_order.matrix
    ]
    return MatrixOrder("block", [row for row in rows if any(row)])
