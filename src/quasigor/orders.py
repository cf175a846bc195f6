"""Monomial orders given by integer matrices.

Every order here is a matrix order: its key is the integer vector
``matrix . m`` for an exponent tuple ``m``, and monomial comparison is
tuple comparison on keys (bigger key, bigger monomial).  The key is
computed from ``matrix`` and nothing else, so it is linear in the
exponents by construction, which the packed monomials of the Groebner
engine rely on.  All orders here are total and multiplicative.

The graded reverse lexicographic order grades by the ring's weights.  A
declared weight may be 0; such variables contribute a secondary degree
(the total exponent over all weight-0 variables) right after the weighted
degree, which keeps the order a well-order; otherwise division would not
terminate in rings like k[Z1..Z9, Y] with Y of weight 0.
"""

from __future__ import annotations

from operator import itemgetter, mul

from .errors import InputError


def _picker(positions):
    """Function returning the entries of ``m`` at ``positions`` as a tuple."""
    if len(positions) == 1:
        i = positions[0]
        return lambda m: (m[i],)
    if not positions:
        return lambda m: ()
    return itemgetter(*positions)


class _MatrixOrder:
    """Shared key evaluation: ``key(m) = matrix . m``.

    Rows are evaluated sparsely; consecutive rows with one nonzero entry
    (the tie-breaking rows of grevlex and lex) are gathered in one step.
    """

    def _set_matrix(self, rows):
        self.matrix = tuple(tuple(row) for row in rows)
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


def _unit_rows(n, positions, sign=1):
    return [tuple(sign if j == i else 0 for j in range(n)) for i in positions]


class GrevlexOrder(_MatrixOrder):
    """Weighted graded reverse lexicographic order.

    Rows: the weights, the indicator of the weight-0 variables, then the
    negated unit vectors from the last variable to the first.
    """

    name = "grevlex"

    def __init__(self, weights):
        self.weights = tuple(int(w) for w in weights)
        if any(w < 0 for w in self.weights):
            raise InputError("monomial order weights must be non-negative")
        n = len(self.weights)
        zero = tuple(int(w == 0) for w in self.weights)
        self._set_matrix([self.weights, zero] + _unit_rows(n, reversed(range(n)), -1))

    def restricted_to(self, positions):
        return GrevlexOrder(tuple(self.weights[i] for i in positions))

    def __eq__(self, other):
        return isinstance(other, GrevlexOrder) and self.weights == other.weights

    def __hash__(self):
        return hash(("grevlex", self.weights))

    def __repr__(self):
        return f"GrevlexOrder(weights={self.weights})"


class LexOrder(_MatrixOrder):
    """Pure lexicographic order (first variable dominant); the identity
    matrix."""

    name = "lex"

    def __init__(self, nvars: int):
        self.nvars = nvars
        self._set_matrix(_unit_rows(nvars, range(nvars)))

    def restricted_to(self, positions):
        return LexOrder(len(positions))

    def __eq__(self, other):
        return isinstance(other, LexOrder) and self.nvars == other.nvars

    def __hash__(self):
        return hash(("lex", self.nvars))

    def __repr__(self):
        return f"LexOrder({self.nvars})"


class BlockOrder(_MatrixOrder):
    """Elimination order: earlier blocks dominate, each block ordered by its
    own sub-order on the block's variables.

    ``blocks`` is a sequence of ``(positions, suborder)`` pairs where
    ``positions`` are variable indices into the full exponent tuple.  The
    blocks must partition the variables.  The matrix stacks each
    sub-order's rows, spread onto the block's positions.
    """

    name = "block"

    def __init__(self, blocks):
        self.blocks = tuple((tuple(pos), sub) for pos, sub in blocks)
        seen = [i for pos, _ in self.blocks for i in pos]
        if len(seen) != len(set(seen)):
            raise InputError("block order blocks must be disjoint")
        n = max(seen, default=-1) + 1
        rows = []
        for positions, sub in self.blocks:
            for sub_row in sub.matrix:
                row = [0] * n
                for i, c in zip(positions, sub_row):
                    row[i] = c
                rows.append(row)
        self._set_matrix(rows)

    def __eq__(self, other):
        return isinstance(other, BlockOrder) and self.blocks == other.blocks

    def __hash__(self):
        return hash(("block", self.blocks))

    def __repr__(self):
        return f"BlockOrder({self.blocks!r})"


def elimination_order(nvars: int, eliminate_positions, base_order):
    """Block order making ``eliminate_positions`` dominant over the rest.

    The remaining variables keep ``base_order`` restricted to them, so on
    polynomials free of the eliminated variables the two orders agree.
    """
    elim = tuple(sorted(eliminate_positions))
    if not elim:
        return base_order
    rest = tuple(i for i in range(nvars) if i not in set(elim))
    if not rest:
        return base_order
    if isinstance(base_order, BlockOrder):
        raise InputError("nested block orders are not supported")
    first = base_order.restricted_to(elim)
    second = base_order.restricted_to(rest)
    return BlockOrder([(elim, first), (rest, second)])
