"""Deterministic Buchberger engine on packed monomials.

Division ("normal form") always cancels the largest remaining term against
the first listed reducer whose leading monomial divides it, so remainders
are reproducible.  The basis completion applies the coprime-leading-term
criterion and the chain criterion while updating the pair set
(Gebauer-Moeller style pruning), selects pairs by the sugar strategy
(Giovini, Mora, Niesi, Robbiano and Traverso, "One sugar cube, please",
ISSAC 1991), and finishes with full interreduction and monic
normalization.  Each element carries its ecart: its sugar minus the
weighted degree of its leading monomial.  A seed's sugar is the largest
weighted degree among its terms, a pair's sugar is the weighted degree of
its lcm plus the larger ecart of its two elements, and a new element
inherits the sugar of its pair.  The smallest sugar goes first, ties
broken by the monomial order on the lcm, then by pair indices.  On
weighted-homogeneous input every ecart is 0, so pairs go by the weighted
degree of their lcm (the normal strategy).  Sugar does not cure every
small lex elimination: some trinomial pairs in three variables still run
for minutes.  One routine interreduces both the seed generators
and the final basis: each element is reduced against all the others, in
list order, and passes repeat until one moves no leading monomial.  The
final elements already have pairwise non-dividing leading monomials, so
there one pass suffices.  The output is the reduced Groebner basis, which
is unique for a given ideal and order, hence independent of the order in
which generators are supplied.

Inside the engine each element is the field's ``normalize`` form of its
polynomial: monic over F_p, and over Q a primitive integer polynomial
(denominators cleared, content divided out, leading coefficient positive),
so Q coefficients are Python ints there.  When a reduction step cancels a
term with coefficient ``c`` by a reducer with leading coefficient ``a``, it
multiplies the rest of the dividend and the remainder found so far by
``a / gcd(a, c)`` and subtracts ``c / gcd(a, c)`` times the shifted
reducer (primitive pseudo-division; Geddes, Czapor and Labahn,
*Algorithms for Computer Algebra*, 1992).  Each such step is a nonzero
multiple of the field step on the same support, so every step cancels the
same term with the same reducer as division over the field; over F_p
``a`` is 1 and the step is the field step.  The factors are tracked, and
results leave the engine as exact field elements: a basis as monic
polynomials, a remainder or quotient as the unit of its input times the
result over the accumulated scale.

Inside the engine a monomial is one Python int (packed exponent vectors,
Monagan and Pearce, CASC 2007).  The low bits hold the exponents, one
field of ``width`` bits per variable, each topped by a guard bit that is
always clear.  The high bits hold the order key ``order.matrix . m`` as
signed digits, each digit wide enough for every monomial whose exponents
fit the fields.  Hence integer ``<`` is the monomial order, multiplication
and division are ``+`` and ``-``, ``a`` divides ``b`` exactly when
``b - a`` has no guard bit set, and lcm and coprimality are mask
operations on the exponent part.  Terms are packed when they enter the
engine and unpacked when they leave; nothing outside this module sees the
representation.

The field width comes from the largest input exponent.  A product whose
exponent reaches a guard bit raises ``_Overflow``, and the whole call is
redone with fields twice as wide (trace lines an earlier attempt already
emitted are not repeated).  Division by a fixed list of reducers
(``_Division``, the one way into the division loop from outside the
completion) packs the reducers once and packs them again only then.
Exponents therefore never wrap, and there is no exponent cap.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from math import gcd
from operator import mul

from .errors import InputError, RingMismatchError
from .rings import Polynomial, PolyRing

_MIN_WIDTH = 8  # exponent bits per variable for inputs of small degree


class _Overflow(Exception):
    """A product's exponent outgrew its packed field."""


class GroebnerBasis:
    """A reduced Groebner basis: monic, fully interreduced, sorted by
    ascending leading monomial.  Immutable and safe to share."""

    __slots__ = ("ring", "order", "polys", "_division")

    def __init__(self, ring: PolyRing, order, polys):
        self.ring = ring
        self.order = order
        self.polys = tuple(polys)
        self._division = _Division(ring, self.polys)

    def leading_monomials(self):
        return tuple(p.leading_monomial() for p in self.polys)

    def is_unit(self) -> bool:
        return len(self.polys) == 1 and self.polys[0].is_constant() and bool(self.polys[0])

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ring.names != self.ring.names or f.ring.field != self.ring.field:
            raise RingMismatchError("polynomial does not belong to the basis ring")
        return self._division(f)

    def contains(self, f: Polynomial) -> bool:
        return not self.normal_form(f)

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.ring == other.ring
            and self.polys == other.polys
        )

    def __hash__(self):
        return hash((self.ring, self.polys))

    def __repr__(self):
        return f"GroebnerBasis({len(self.polys)} elements)"


class _Engine:
    """Packed monomials for one ring and field width, and the division loop.

    Holds no per-call state, so one engine serves any number of calls.
    """

    def __init__(self, ring: PolyRing, width: int):
        self.ring = ring
        self.field = ring.field
        # (unit, element) of nonempty packed terms: the element is the
        # engine form (primitive integer over Q, monic over F_p)
        self.normalize = ring.field.normalize
        self.weights = ring.weights
        self.width = width
        n = ring.nvars
        step = width + 1
        self.shifts = tuple(range(0, n * step, step))
        self.fmask = (1 << width) - 1
        self.ones = sum(1 << s for s in self.shifts)
        self.guard = self.ones << width
        self.emask = (1 << n * step) - 1
        # key digits above the exponents, last row lowest; a digit of row r
        # has absolute value at most sum|row| * fmask, which fits its width
        rows = [row for row in ring.order.matrix if any(row)]
        place = 1 << n * step
        scales = []
        for row in reversed(rows):
            scales.append(place)
            place <<= (sum(map(abs, row)) * self.fmask).bit_length() + 1
        scales.reverse()
        self.units = tuple(
            sum(row[i] * scale for row, scale in zip(rows, scales)) + (1 << self.shifts[i])
            for i in range(n)
        )

    # -- packing ------------------------------------------------------------

    def pack(self, m) -> int:
        if max(m) > self.fmask:
            raise _Overflow
        return sum(map(mul, m, self.units))

    def unpack(self, p):
        e = p & self.emask
        fmask = self.fmask
        return tuple([(e >> s) & fmask for s in self.shifts])

    def pack_terms(self, terms):
        """Packed terms, descending in the order."""
        pack = self.pack
        return tuple(sorted(((pack(m), c) for m, c in terms), reverse=True))

    def unpack_terms(self, terms, unit, scale):
        """Unpacked terms with each coefficient ``c`` turned into the field
        element ``unit * c / scale``."""
        unpack = self.unpack
        field = self.field
        mul_, scalar = field.mul, field.scalar
        return tuple((unpack(m), mul_(unit, scalar(c, scale))) for m, c in terms)

    @staticmethod
    def reducer(terms):
        """(lm, lc, tail) of an element, as the division loop takes it."""
        return terms[0][0], terms[0][1], terms[1:]

    # -- exponent-part operations ------------------------------------------

    def lcm_exps(self, a, b):
        """Fieldwise maximum of two exponent parts."""
        ge = ((a | self.guard) - b) & self.guard  # guard bit where a_i >= b_i
        take_a = ge - (ge >> self.width)
        return (a & take_a) | (b & ~take_a)

    def wdeg(self, p):
        """Weighted degree of a packed monomial."""
        return sum(map(mul, self.weights, self.unpack(p)))

    def record(self, terms, sugar=None):
        """(lm, lm exponent part, lm support, terms, reducer, ecart) of an
        element; the support has the guard bit of each nonzero exponent
        set, and the ecart is the sugar minus the weighted degree of the
        lm.  A seed (``sugar`` None) has the largest weighted degree among
        its terms as its sugar."""
        lm = terms[0][0]
        e = lm & self.emask
        if sugar is None:
            sugar = max(self.wdeg(m) for m, _ in terms)
        support = ((e | self.guard) - self.ones) & self.guard
        return (lm, e, support, terms, self.reducer(terms), sugar - self.wdeg(lm))

    def pair_key(self, lcm_e, ecart):
        """(sugar, packed monomial) of a pair with this lcm exponent part
        whose elements have at most this ecart."""
        m = self.unpack(lcm_e)
        return sum(map(mul, self.weights, m)) + ecart, self.pack(m)

    # -- arithmetic ---------------------------------------------------------

    def normal_form_terms(self, items, reducers, quotient=None):
        """Fully reduce engine terms; ``reducers`` are (lm, lc, tail) of
        engine elements.

        Returns ``(remainder, scale)``: the remainder as a descending terms
        tuple, equal to ``scale`` times the remainder of division over the
        field.  When ``quotient`` is a list, each reduction step appends its
        (quotient monomial, coefficient) to it, kept at the same scale; with
        a single reducer that is the quotient, in descending order.
        """
        p = dict(items)
        if not p:
            return (), 1
        field = self.field
        sub, mul_, neg = field.sub, field.mul, field.neg
        guard = self.guard
        heap = [-m for m in p]
        heapq.heapify(heap)
        push, pop = heapq.heappush, heapq.heappop
        remainder = []
        scale = 1
        while heap:
            m = -pop(heap)
            c = p.pop(m, None)
            if c is None:
                continue
            for lm, a, tail in reducers:
                if not (m - lm) & guard:
                    break
            else:
                remainder.append((m, c))
                continue
            if a != 1:
                g = gcd(a, c)
                mult = a // g
                c //= g
                if mult != 1:
                    # cross-multiply: scale what is left and what is done
                    scale *= mult
                    p = {k: mul_(v, mult) for k, v in p.items()}
                    remainder = [(k, mul_(v, mult)) for k, v in remainder]
                    if quotient is not None:
                        quotient[:] = [(k, mul_(v, mult)) for k, v in quotient]
            q = m - lm
            if quotient is not None:
                quotient.append((q, c))
            for mg, cg in tail:
                mm = mg + q
                delta = mul_(c, cg)
                prev = p.get(mm)
                if prev is None:
                    if mm & guard:
                        raise _Overflow
                    p[mm] = neg(delta)
                    push(heap, -mm)
                else:
                    s = sub(prev, delta)
                    if s:
                        p[mm] = s
                    else:
                        del p[mm]
        return tuple(remainder), scale

    def spoly_dict(self, terms_f, terms_g, lcm):
        """S-polynomial of two engine elements, as a dict: ``b/g * x^qf * f
        - a/g * x^qg * g`` for leading coefficients ``a`` and ``b`` with
        ``g = gcd(a, b)``, which is ``lcm(a, b)`` times the S-polynomial of
        the monic elements."""
        qf = lcm - terms_f[0][0]
        qg = lcm - terms_g[0][0]
        guard = self.guard
        field = self.field
        a, b = terms_f[0][1], terms_g[0][1]
        if a != b:
            g = gcd(a, b)
            terms_f = self._scaled(terms_f, b // g)
            terms_g = self._scaled(terms_g, a // g)
        acc = {}
        for m, c in terms_f:
            mm = m + qf
            if mm & guard:
                raise _Overflow
            acc[mm] = c
        for m, c in terms_g:
            mm = m + qg
            prev = acc.get(mm)
            if prev is None:
                if mm & guard:
                    raise _Overflow
                acc[mm] = field.neg(c)
            else:
                s = field.sub(prev, c)
                if s:
                    acc[mm] = s
                else:
                    del acc[mm]
        return acc

    def _scaled(self, terms, s):
        mul_ = self.field.mul
        return [(m, mul_(c, s)) for m, c in terms]


class _Division:
    """Division by fixed nonzero reducers, all in one ring.

    The reducers are packed once, on the first call, and packed again with
    fields twice as wide only when a dividend outgrows them.
    """

    __slots__ = ("ring", "reducers", "_packing")

    def __init__(self, ring: PolyRing, reducers):
        self.ring = ring
        self.reducers = tuple(reducers)
        self._packing = None  # (engine, reducer units, engine reducers)

    def _pack(self, width):
        engine = _Engine(self.ring, width)
        forms = [engine.normalize(engine.pack_terms(g.terms)) for g in self.reducers]
        self._packing = engine, [unit for unit, _ in forms], [engine.reducer(t) for _, t in forms]

    def __call__(self, f: Polynomial, quotient=False) -> Polynomial:
        """The remainder of ``f``; with ``quotient``, the quotient of ``f``
        by the one reducer, raising unless the remainder is zero."""
        if not f:
            return self.ring.zero()
        if self._packing is None:
            self._pack(_width(self.reducers + (f,)))
        while True:
            engine, units, reducers = self._packing
            steps = [] if quotient else None
            try:
                unit, terms = engine.normalize(engine.pack_terms(f.terms))
                remainder, scale = engine.normal_form_terms(terms, reducers, steps)
                break
            except _Overflow:
                self._pack(2 * engine.width)
        if not quotient:
            return Polynomial(self.ring, engine.unpack_terms(remainder, unit, scale))
        if remainder:
            raise InputError("polynomial is not an exact multiple")
        return Polynomial(self.ring, engine.unpack_terms(steps, engine.field.div(unit, units[0]), scale))


def _width(polys) -> int:
    """Starting field width: room for the largest input exponent doubled."""
    top = max((max(m) for f in polys for m, _ in f.terms), default=0)
    return max(_MIN_WIDTH, top.bit_length() + 1)


def _common_ring(polys) -> PolyRing:
    rings = {f.ring for f in polys}
    if len(rings) != 1:
        raise RingMismatchError("polynomials belong to different rings")
    return next(iter(rings))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """lcm-cancellation of the leading terms of two nonzero polynomials,
    ``m/lm(f) * f/lc(f) - m/lm(g) * g/lc(g)`` for m the lcm of the leading
    monomials.  Plain polynomial arithmetic, sharing no code with the
    engine, so S-closure checks of its bases are independent of it."""
    if not f or not g:
        raise InputError("S-polynomials need nonzero inputs")
    ring = _common_ring([f, g])
    m = tuple(map(max, f.leading_monomial(), g.leading_monomial()))

    def shifted(p):
        q = tuple(a - b for a, b in zip(m, p.leading_monomial()))
        return p * ring.polynomial({q: ring.field.inv(p.leading_coefficient())})

    return shifted(f) - shifted(g)


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f on division by ``basis`` (any list of nonzero
    polynomials, not necessarily a Groebner basis), in the order of their
    common ring.

    Deterministic: the largest reducible term is always cancelled by the
    first listed reducer.  No term of the result is divisible by any
    reducer's leading monomial, and f minus the result lies in the ideal
    the reducers generate.
    """
    basis = list(basis)
    if not basis or any(not g for g in basis):
        raise InputError("reducers must be nonzero")
    return _Division(_common_ring([f] + basis), basis)(f)


def exact_quotient(f: Polynomial, g: Polynomial) -> Polynomial:
    """f / g for f a known multiple of g; raises if the division leaves a
    remainder."""
    if not g:
        raise InputError("division by the zero polynomial")
    if f.ring != g.ring:
        raise RingMismatchError("operands belong to different rings")
    return _Division(f.ring, [g])(f, quotient=True)


def buchberger(generators, *, trace=None) -> GroebnerBasis:
    """Reduced Groebner basis, in the order of their ring, of the ideal the
    generators span.

    The result is independent of generator permutation (reduced bases are
    unique).  ``trace``, when given, receives one line of text per pair
    considered and per basis update.
    """
    gens = [g for g in generators if g is not None]
    if not gens:
        raise InputError("no generators given")
    ring = _common_ring(gens)
    gens = [g for g in gens if g]
    if not gens:
        raise InputError("all generators are zero")
    seen = sent = 0  # trace lines of this attempt; lines already passed on by earlier ones

    def log(line):
        nonlocal seen, sent
        seen += 1
        if seen > sent:
            sent = seen
            trace(line)

    width = _width(gens)
    while True:
        seen = 0
        try:
            return _complete(_Engine(ring, width), gens, log if trace else None)
        except _Overflow:
            width *= 2


def _complete(engine, gens, trace) -> GroebnerBasis:
    work = engine.ring
    seed = []
    seen = set()
    for g in gens:
        _, terms = engine.normalize(engine.pack_terms(g.terms))
        if terms not in seen:
            seen.add(terms)
            seed.append(terms)
    seed.sort(key=lambda terms: [-m for m, _ in terms])

    records = [engine.record(terms) for terms in _interreduce(engine, seed)]
    reducers = None  # rebuilt lazily after each basis change

    pairs = []
    current = []
    for idx in range(len(records)):
        current, pairs = _update_pairs(engine, records, current, pairs, idx)

    n_zero = 0
    while pairs:
        sugar, lcm, i, j, _ = heapq.heappop(pairs)
        if trace:
            trace(f"pair ({i},{j}) lcm={work.monomial_str(engine.unpack(lcm))}")
        s_dict = engine.spoly_dict(records[i][3], records[j][3], lcm)
        if reducers is None:
            reducers = [records[k][4] for k in sorted(current, key=lambda k: records[k][0])]
        remainder, _ = engine.normal_form_terms(s_dict.items(), reducers)
        if not remainder:
            n_zero += 1
            if trace:
                trace("  -> reduced to 0")
            continue
        records.append(engine.record(engine.normalize(remainder)[1], sugar))
        new_idx = len(records) - 1
        if trace:
            lm = work.monomial_str(engine.unpack(records[new_idx][0]))
            trace(f"  -> new element g{new_idx}: lm={lm}")
        current, pairs = _update_pairs(engine, records, current, pairs, new_idx)
        reducers = None
    if trace:
        trace(f"{n_zero} pairs reduced to zero")

    final = _interreduce(engine, sorted((records[k][3] for k in current), key=lambda t: t[0][0]))
    one = work.field.one
    polys = [Polynomial(work, engine.unpack_terms(terms, one, terms[0][1])) for terms in final]
    return GroebnerBasis(work, work.order, polys)


def _interreduce(engine, elements):
    """Reduce each element against all the others, in list order, earlier
    ones already reduced, and drop zeros; repeat until a pass moves no
    leading monomial.  After such a pass every element is reduced against
    every other element's leading monomial, so a further pass would change
    nothing."""
    current = list(elements)
    while True:
        moved = False
        done = []
        done_reducers = []
        waiting = [engine.reducer(t) for t in current]
        for terms in current:
            del waiting[0]  # superseded by its reduced form, which joins done_reducers
            reduced, _ = engine.normal_form_terms(terms, done_reducers + waiting)
            if not reduced:
                continue
            if reduced[0][0] != terms[0][0]:
                moved = True
            _, reduced = engine.normalize(reduced)
            done.append(reduced)
            done_reducers.append(engine.reducer(reduced))
        if not moved:
            return done
        current = done


def _update_pairs(engine, records, current, pairs, new_idx):
    """Gebauer-Moeller pair update when basis element ``new_idx`` arrives.

    Applies the coprime-leading-term criterion and the chain criterion,
    processing candidates in deterministic (sorted index) order.  ``pairs``
    is a heap of (sugar, lcm, i, j, lcm exponent part).
    """
    guard = engine.guard
    lcm_exps = engine.lcm_exps
    _, e_new, s_new, _, _, ecart_new = records[new_idx]

    ordered = sorted(current)
    lcms = [lcm_exps(e_new, records[idx][1]) for idx in ordered]
    # a proper divisor of an exponent part is a smaller int
    ascending = sorted(set(lcms))
    new_pairs = []
    for pos, (idx, lcm) in enumerate(zip(ordered, lcms)):
        if not s_new & records[idx][2]:
            continue  # coprime leading monomials
        if lcm in lcms[:pos]:
            continue  # chain criterion: an earlier pair has the same lcm
        below = ascending[: bisect_left(ascending, lcm)]
        if not all(map(guard.__and__, map(lcm.__sub__, below))):
            continue  # chain criterion: a proper divisor of lcm is an lcm
        new_pairs.append(engine.pair_key(lcm, max(records[idx][5], ecart_new)) + (idx, new_idx, lcm))

    kept = [
        rec
        for rec in pairs
        if (rec[4] - e_new) & guard
        or lcm_exps(records[rec[2]][1], e_new) == rec[4]
        or lcm_exps(records[rec[3]][1], e_new) == rec[4]
    ]
    kept.extend(new_pairs)
    heapq.heapify(kept)

    new_current = [idx for idx in current if (records[idx][1] - e_new) & guard]
    new_current.append(new_idx)
    return new_current, kept
