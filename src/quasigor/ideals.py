"""Ideal algebra on top of the Groebner engine.

Every ideal takes its Groebner basis in its ring's monomial order; another
order means an ideal over ``ring.with_order(order)``.  Intersections adjoin
one fresh weight-1 variable t (``PolyRing.extended``: appended, named with a
``t#`` prefix the parser cannot produce, ordered by the ring's order
extended by one column) and eliminate it: in the ring reordered by
``elimination_order`` (the rows on t first, then the rows on the rest), the
t-free part of the reduced basis of t*I + (1-t)*J is the reduced basis of
the intersection.  Colon ideals split over the generators of the divisor
ideal, each handled through I : g = (1/g)(I and (g)), with I given by its
reduced basis; the factors are intersected pairwise, level by level, as a
balanced tree.  Dimension is the combinatorial dimension of the initial
ideal (Kredel and Weispfenning, JSC 6, 1988): the variable count minus the
fewest variables meeting every leading-monomial support, found by branch
and bound on support bitmasks.  On edge ideals that is vertex cover, so
the search stays exponential in the worst case.
"""

from __future__ import annotations

from .errors import InputError, RingMismatchError, UnsupportedRequestError
from .groebner import GroebnerBasis, buchberger, exact_quotient
from .orders import elimination_order
from .rings import Polynomial, PolyRing, monomial_divides, monomials_of_degree


class Ideal:
    """An ideal given by generators, with a lazily cached reduced Groebner
    basis in the ring's monomial order.

    The cache fill is idempotent (an immutable value, computed again at
    worst under a race), so Ideal values may be shared across threads.
    """

    def __init__(self, ring: PolyRing, generators):
        self.ring = ring
        gens = []
        for g in generators:
            if isinstance(g, Polynomial):
                if g.ring != ring:
                    raise RingMismatchError("generator from a different ring")
                gens.append(g)
            elif isinstance(g, str):
                gens.append(ring.parse(g))
            elif isinstance(g, int):
                gens.append(ring.constant(ring.field.scalar(g)))
            else:
                raise InputError(f"cannot use {g!r} as an ideal generator")
        self.generators = tuple(gens)
        self._basis = None

    # -- basics -------------------------------------------------------------

    def is_zero_ideal(self) -> bool:
        return all(not g for g in self.generators)

    def groebner_basis(self) -> GroebnerBasis:
        if self._basis is None:
            if self.is_zero_ideal():
                self._basis = GroebnerBasis(self.ring, self.ring.order, ())
            else:
                self._basis = buchberger(self.generators)
        return self._basis

    def contains(self, f: Polynomial) -> bool:
        return self.groebner_basis().contains(f)

    def is_proper(self) -> bool:
        return not self.groebner_basis().is_unit()

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ring != other.ring:
            return False
        return self.groebner_basis().polys == other.groebner_basis().polys

    def __hash__(self):
        return hash((self.ring, self.groebner_basis().polys))

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.generators[:6])
        if len(self.generators) > 6:
            inside += ", ..."
        return f"Ideal({inside})"

    def _require_same_ring(self, other: "Ideal"):
        if not isinstance(other, Ideal) or other.ring != self.ring:
            raise RingMismatchError("ideals belong to different rings")

    # -- sums and products ----------------------------------------------------

    def __add__(self, other: "Ideal") -> "Ideal":
        self._require_same_ring(other)
        return Ideal(self.ring, self.generators + other.generators)

    def __mul__(self, other: "Ideal") -> "Ideal":
        self._require_same_ring(other)
        gens = [
            f * g
            for f in self.generators
            if f
            for g in other.generators
            if g
        ]
        return Ideal(self.ring, gens)

    # -- intersection via elimination ----------------------------------------

    def intersect(self, other: "Ideal") -> "Ideal":
        self._require_same_ring(other)
        ring = self.ring
        if self.is_zero_ideal() or other.is_zero_ideal():
            return Ideal(ring, [])
        ext = ring.extended()
        t = ext.variable(ext.names[-1])
        one = ext.one()

        # the orders of ring and ext agree on t-free monomials, so terms keep
        # their order on the way in and on the way out
        def embed(f: Polynomial) -> Polynomial:
            return Polynomial(ext, tuple((m + (0,), c) for m, c in f.terms))

        gens = [t * embed(f) for f in self.generators if f]
        gens += [(one - t) * embed(g) for g in other.generators if g]
        meet = Ideal(ext, gens).eliminate([t])
        kept = [Polynomial(ring, tuple((m[:-1], c) for m, c in p.terms)) for p in meet.generators]
        result = Ideal(ring, kept)
        result._basis = GroebnerBasis(ring, ring.order, kept)
        return result

    # -- colon ideals ----------------------------------------------------------

    def colon(self, other: "Ideal") -> "Ideal":
        """I : J = { f : f*J inside I }, as the intersection over the
        generators g of J of (1/g)(I and (g)).

        Each factor intersects the ideal of I's cached reduced basis, not of
        its raw generators, with (g): the basis is needed anyway for the
        membership test of g, and under lex the raw generators can swell a
        single reduction to thousands of terms."""
        self._require_same_ring(other)
        ring = self.ring
        if other.is_zero_ideal():
            raise InputError("colon by the zero ideal")
        gb_self = self.groebner_basis()
        factors = []
        seen = set()
        for g in other.generators:
            if not g:
                continue
            monic = g.monic()
            if monic.terms in seen:
                continue
            seen.add(monic.terms)
            if gb_self.contains(g):
                continue  # g already in I, so I : g is the unit ideal
            meet = Ideal(ring, gb_self.polys).intersect(Ideal(ring, [g]))
            factors.append(Ideal(ring, [exact_quotient(f, g) for f in meet.generators]))
        if not factors:
            return Ideal(ring, [ring.one()])
        # a balanced tree: the same number of intersections as a left fold,
        # on smaller operands than one ever-growing accumulator
        while len(factors) > 1:
            factors = [
                factors[i].intersect(factors[i + 1]) if i + 1 < len(factors) else factors[i]
                for i in range(0, len(factors), 2)
            ]
        return factors[0]

    # -- elimination --------------------------------------------------------------

    def eliminate(self, variables) -> "Ideal":
        """Generators of I meeting only the remaining variables; equals the
        contraction of I to the subring they span."""
        ring = self.ring
        positions = []
        for v in variables:
            name = v if isinstance(v, str) else _variable_name(v)
            if name not in ring._index:
                raise InputError(f"unknown variable '{name}'")
            positions.append(ring._index[name])
        positions = sorted(set(positions))
        if not positions:
            return self
        if self.is_zero_ideal():
            return Ideal(ring, [])
        work = ring.with_order(elimination_order(ring.nvars, positions, ring.order))
        gb = Ideal(work, [work.polynomial(dict(g.terms)) for g in self.generators]).groebner_basis()
        # the orders agree on monomials free of the eliminated variables, so
        # the kept elements are the reduced basis in the ring's order
        kept = [Polynomial(ring, p.terms) for p in gb if not any(m[i] for m, _ in p.terms for i in positions)]
        result = Ideal(ring, kept)
        result._basis = GroebnerBasis(ring, ring.order, kept)
        return result

    # -- dimension theory ------------------------------------------------------------

    def dimension(self) -> int:
        """Krull dimension of ring/I (combinatorial dimension of the initial
        ideal): the variable count minus the fewest variables meeting every
        leading-monomial support."""
        gb = self.groebner_basis()
        if gb.is_unit():
            raise InputError("the unit ideal has no dimension")
        supports = [sum(1 << i for i, e in enumerate(lm) if e) for lm in gb.leading_monomials()]
        return self.ring.nvars - _fewest_meeting(supports)

    def codimension(self) -> int:
        return self.ring.nvars - self.dimension()

    # -- Hilbert function -----------------------------------------------------------

    def hilbert_function(self, n: int) -> int:
        """dim_k (ring/I)_n for the weighted grading: the number of degree-n
        standard monomials.  Requires strictly positive weights and
        weight-homogeneous generators."""
        ring = self.ring
        if any(w == 0 for w in ring.weights):
            raise UnsupportedRequestError(
                "Hilbert functions are not defined here for rings with "
                "weight-0 variables (graded pieces would be infinite-dimensional)"
            )
        if n < 0:
            return 0
        for g in self.generators:
            if not g.is_homogeneous():
                raise InputError("Hilbert function requires homogeneous generators")
        lms = self.groebner_basis().leading_monomials()
        count = 0
        for m in monomials_of_degree(ring.weights, n):
            if not any(monomial_divides(lm, m) for lm in lms):
                count += 1
        return count

    # -- regularity ---------------------------------------------------------------------

    def is_regular_element(self, f: Polynomial) -> bool:
        """True iff I : f = I, i.e. f is a non-zerodivisor on ring/I."""
        if not f:
            raise InputError("the zero polynomial is never a regular element")
        if not self.is_proper():
            raise InputError("regularity is tested modulo a proper ideal")
        return self.colon(Ideal(self.ring, [f])) == self


def _variable_name(v) -> str:
    if isinstance(v, Polynomial) and len(v.terms) == 1:
        m, c = v.terms[0]
        if c == v.ring.field.one and sum(m) == 1:
            return v.ring.names[m.index(1)]
    raise InputError(f"{v!r} is not a variable")


def _fewest_meeting(supports) -> int:
    """The fewest bits meeting every one of the nonzero bitmasks ``supports``.

    Branch and bound with an explicit stack on one bit of a smallest mask:
    either take it, dropping every mask it meets, or clear it from every
    mask, which empties none because a one-bit mask is only ever taken.
    One bit per mask is the first bound; a branch ends once it cannot win.
    """
    best = len(supports)
    stack = [(0, supports)]
    while stack:
        taken, left = stack.pop()
        if not left:
            best = min(best, taken)
        elif taken + 1 < best:
            smallest = min(left, key=int.bit_count)
            bit = smallest & -smallest
            if smallest != bit:
                stack.append((taken, [s & ~bit for s in left]))
            stack.append((taken + 1, [s for s in left if not s & bit]))
    return best
