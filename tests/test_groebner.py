import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasigor import groebner, ideals
from quasigor.errors import InputError, RingMismatchError
from quasigor.fields import QQ, PrimeField
from quasigor.groebner import buchberger, exact_quotient, normal_form, s_polynomial
from quasigor.linkage import verify_quotient_ring
from quasigor.orders import LexOrder, elimination_order
from quasigor.parse import parse_ring
from quasigor.rings import PolyRing

from oracles import membership_by_linear_algebra, random_polynomial


@pytest.fixture
def rxy():
    return PolyRing(("x", "y"))


def gb_strings(gb):
    return [str(p) for p in gb]


def assert_spoly_closure(gb):
    polys = list(gb.polys)
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            assert not gb.normal_form(s_polynomial(polys[i], polys[j]))


def assert_two_way_membership(gb, generators):
    for g in generators:
        assert gb.contains(g)
    original = buchberger(generators)
    for p in gb:
        assert original.contains(p)


def test_normal_form_examples(rxy):
    x, y = rxy.gens()
    assert not normal_form(x**2 * y, [x**2])
    # substituting x = y in x^2 + y^2 leaves 2y^2; remainder checked by division
    r = normal_form(x**2 + y**2, [x - y])
    assert r == 2 * y**2
    assert buchberger([x - y]).contains(x**2 + y**2 - r)


def test_normal_form_idempotent_randomized(rxy):
    rng = random.Random(23)
    basis = [rxy.parse("x^2-y"), rxy.parse("x*y+1")]
    for _ in range(25):
        f = random_polynomial(rxy, rng)
        once = normal_form(f, basis)
        assert normal_form(once, basis) == once


def test_normal_form_determinism_first_reducer(rxy):
    # classic order-sensitive division: the first listed reducer wins each
    # step, so the two arrangements give different (hand-checked) remainders
    x, y = rxy.gens()
    f = x**2 * y + x * y**2 + y**2
    a = [rxy.parse("x*y-1"), rxy.parse("y^2-1")]
    b = [rxy.parse("y^2-1"), rxy.parse("x*y-1")]
    assert normal_form(f, a) == x + y + 1
    assert normal_form(f, b) == 2 * x + 1
    assert normal_form(f, a) == normal_form(f, a)  # reproducible


def test_s_polynomial_examples(rxy):
    x, y = rxy.gens()
    assert not s_polynomial(x**2, x * y)  # y*x^2 - x*(xy) = 0
    f, g = rxy.parse("x^2-y"), rxy.parse("x*y-1")
    assert s_polynomial(f, g) == x - y**2
    assert not s_polynomial(f, f)
    with pytest.raises(InputError):
        s_polynomial(rxy.zero(), f)


def test_rational_results_are_exact_field_values():
    # The engine reduces primitive integer polynomials over Q; what leaves
    # it must be the exact rational values of division over the field.
    R = parse_ring("field Q; vars x,y,z")
    f = R.parse("3/2*x^2*y - 5/7*z^3 + x")
    g = R.parse("2/3*x*y - 1/5*z")
    remainder = normal_form(f, [g])
    assert remainder == R.parse("-5/7*z^3 + 9/20*x*z + x")
    assert s_polynomial(f, g) == R.parse("-10/21*z^3 + 3/10*x*z + 2/3*x")
    assert exact_quotient(f * g, g) == f
    assert buchberger([g]).normal_form(f) == remainder
    assert all(type(c) is type(QQ.one) for _, c in remainder.terms)


@st.composite
def _rational_ideals(draw):
    """Two or three squarefree polynomials in Q[x,y,z] with denominators,
    nonzero rational scale factors for them, and a permutation of their
    indices.  Squarefree keeps the oracle's linear systems small."""
    monomials = st.tuples(*[st.integers(0, 1)] * 3)
    rationals = st.builds(QQ.scalar, st.integers(-9, 9).filter(bool), st.integers(1, 9))
    gens = draw(
        st.lists(st.dictionaries(monomials, rationals, min_size=1, max_size=3), min_size=2, max_size=3)
    )
    scales = draw(st.lists(rationals, min_size=len(gens), max_size=len(gens)))
    return gens, scales, draw(st.permutations(range(len(gens))))


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(_rational_ideals())
def test_rational_basis_is_scale_and_permutation_invariant(case):
    coefficient_maps, scales, permutation = case
    ring = PolyRing(("x", "y", "z"))
    gens = [ring.polynomial(terms) for terms in coefficient_maps]
    gb = buchberger(gens)
    moved = [gens[i].scaled(scales[i]) for i in permutation]
    assert buchberger(moved).polys == gb.polys
    for p in gb:
        assert any(membership_by_linear_algebra(p, gens, slack=slack) for slack in (3, 6, 9))


def test_buchberger_single_generator(rxy):
    assert gb_strings(buchberger([rxy.parse("x")])) == ["x"]
    assert gb_strings(buchberger([rxy.parse("3*x")])) == ["x"]


def test_buchberger_grevlex_example(rxy):
    # oracle-frozen value: S-polynomial closure plus two-way membership
    # certify {y^2 - x, x*y - 1, x^2 - y} as the reduced grevlex basis.
    gens = [rxy.parse("x^2-y"), rxy.parse("x*y-1")]
    gb = buchberger(gens)
    assert gb_strings(gb) == ["y^2 - x", "x*y - 1", "x^2 - y"]
    assert_spoly_closure(gb)
    assert_two_way_membership(gb, gens)


def test_buchberger_lex_example():
    R = parse_ring("field Q; vars x,y; order lex")
    gb = buchberger([R.parse("x^2-y"), R.parse("x*y-1")])
    assert gb_strings(gb) == ["y^3 - 1", "x - y^2"]
    assert_spoly_closure(gb)


def test_reduced_basis_is_permutation_invariant(rxy):
    rng = random.Random(29)
    gens = [rxy.parse(s) for s in ("x^3-2*x*y", "x^2*y-2*y^2+x", "x*y^2-x")]
    reference = buchberger(gens).polys
    for _ in range(6):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled).polys == reference


def test_reduced_basis_properties_randomized():
    # The checks work on exponent tuples, independent of the engine's packed
    # monomials; the cases cover every order kind and all three field kinds.
    rng = random.Random(31)
    shuffler = random.Random(37)  # kept apart so the cases stay the same
    xyz = PolyRing(("x", "y", "z"))
    weighted = PolyRing(("x", "y", "z"), weights=(1, 2, 0))
    cases = [
        (xyz, None, 20),
        (weighted, None, 15),
        (xyz, LexOrder(3), 15),
        (xyz, elimination_order(3, [1], xyz.order), 15),
        (weighted, elimination_order(3, [0], weighted.order), 10),
        (PolyRing(("x", "y", "z"), PrimeField(2)), None, 15),
        (PolyRing(("x", "y", "z"), PrimeField(32003)), elimination_order(3, [2], LexOrder(3)), 15),
    ]
    for ring, order, count in cases:
        for _ in range(count):
            gens = [random_polynomial(ring, rng) for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if g]
            if not gens:
                continue
            work = ring if order is None else ring.with_order(order)
            mapped = [work.polynomial(dict(g.terms)) for g in gens]
            gb = buchberger(mapped)
            assert gb.ring.order == (order or ring.order)
            shuffled = shuffler.sample(mapped, len(mapped))
            assert buchberger(shuffled).polys == gb.polys
            for g in gens:
                assert gb.contains(gb.ring.polynomial(dict(g.terms)))
            assert_spoly_closure(gb)
            key = gb.ring.order.key
            lms = gb.leading_monomials()
            assert [key(m) for m in lms] == sorted(key(m) for m in lms)
            for i, a in enumerate(lms):
                for j, b in enumerate(lms):
                    if i != j:
                        assert not all(x <= y for x, y in zip(a, b)), "basis not minimal"
            for i, p in enumerate(gb):
                assert p.leading_coefficient() == ring.field.one
                assert p.leading_monomial() == max((m for m, _ in p.terms), key=key)
                # fully reduced: no term of p is divisible by another element's lm
                for m, _ in p.terms:
                    for j, lm in enumerate(lms):
                        if i != j:
                            assert not all(x <= y for x, y in zip(lm, m)), "basis not reduced"


def test_exponents_outgrowing_the_packed_fields():
    # The engine's exponent fields start just wide enough for the inputs;
    # results must not depend on that width.
    R = parse_ring("field Q; vars y,x; order lex")
    gb = buchberger([R.parse("y - x^200"), R.parse("y^200")])
    assert gb_strings(gb) == ["x^40000", "y - x^200"]
    # inputs beyond 16 bits per exponent
    gb = buchberger([R.parse("y - x^70000"), R.parse("y^3 + x")])
    assert gb_strings(gb) == ["x^210000 + x", "y - x^70000"]
    # a basis built for small exponents, then asked about large ones
    basis = buchberger([R.parse("y - x")])
    assert basis.normal_form(R.parse("y^2")) == R.parse("x^2")
    assert basis.normal_form(R.parse("y*x^255")) == R.parse("x^256")
    assert basis.normal_form(R.parse("y*x^100000")) == R.parse("x^100001")
    assert normal_form(R.parse("y^3*x^65535"), [R.parse("y - x")]) == R.parse("x^65538")
    assert exact_quotient(R.parse("y*x^70000 - x^70001"), R.parse("y - x")) == R.parse("x^70000")


def test_widening_does_not_repeat_trace_lines(monkeypatch):
    widths = []
    engine = groebner._Engine

    def recording(ring, width):
        widths.append(width)
        return engine(ring, width)

    monkeypatch.setattr(groebner, "_Engine", recording)
    R = parse_ring("field Q; vars y,x; order lex")
    lines = []
    gb = buchberger([R.parse("y^3 - x"), R.parse("y*x^250 - 1")], trace=lines.append)
    assert len(widths) > 1  # the run was redone with wider fields
    assert gb_strings(gb) == ["x^751 - 1", "y - x^501"]
    assert lines == [
        "pair (0,1) lcm=y^3*x^250",
        "  -> new element g2: lm=y^2",
        "pair (0,2) lcm=y^3",
        "  -> reduced to 0",
        "pair (1,2) lcm=y^2*x^250",
        "  -> new element g3: lm=y",
        "pair (2,3) lcm=y^2",
        "  -> new element g4: lm=x^1002",
        "pair (1,3) lcm=y*x^250",
        "  -> new element g5: lm=x^751",
        "pair (4,5) lcm=x^1002",
        "  -> reduced to 0",
        "2 pairs reduced to zero",
    ]


def test_seed_interreduction_over_several_passes():
    # The seed interreduction moves a leading monomial in two passes
    # (x^2*y -> y^2*z -> y*z^2); its output order fixes the pair indices.
    R = PolyRing(("x", "y", "z"))
    lines = []
    gb = buchberger([R.parse("x - y"), R.parse("x^2 + y*z"), R.parse("x^2*y - z")], trace=lines.append)
    assert gb_strings(gb) == ["x - y", "y*z + z^2", "y^2 - z^2", "z^3 + z"]
    assert lines == [
        "pair (0,1) lcm=y^2*z^2",
        "  -> new element g3: lm=y*z",
        "pair (0,3) lcm=y*z^2",
        "  -> new element g4: lm=z^3",
        "pair (1,3) lcm=y^2*z",
        "  -> reduced to 0",
        "pair (3,4) lcm=y*z^3",
        "  -> reduced to 0",
        "2 pairs reduced to zero",
    ]


# sha256 of the reduced bases of verify-quotient, call by call: ring names
# and the str of each polynomial
_QUOTIENT_RING_BASES = {
    "F2": "ddb3ef6a2545f3e5b75daa8b4d70b175f40a48f6fcbfe2cb328c976bd837fa2c",
    "Q": "1f061d8761674c6ada7627e0122bc2a2117e2ef494cb4cb90628702755b3bba8",
}


@pytest.mark.parametrize("field", ["F2", "Q"])
def test_work_counters_on_the_quotient_ring(monkeypatch, field):
    # Pair selection order and pruning decide these counts; any change to
    # either shows up here even when the bases stay the same.  The digest
    # of the bases does not depend on them: reduced bases are unique.
    counts = dict(calls=0, pairs=0, zero=0, new=0, basis=0)
    digest = hashlib.sha256()
    engine_buchberger = ideals.buchberger

    def counting(generators, trace=None):
        def count(line):
            if line.startswith("pair "):
                counts["pairs"] += 1
            elif line == "  -> reduced to 0":
                counts["zero"] += 1
            elif line.startswith("  -> new element"):
                counts["new"] += 1

        counts["calls"] += 1
        gb = engine_buchberger(generators, trace=count)
        counts["basis"] += len(gb)
        digest.update(repr((gb.ring.names, [str(p) for p in gb])).encode())
        return gb

    monkeypatch.setattr(ideals, "buchberger", counting)
    verify_quotient_ring(field)
    assert counts == dict(calls=46, pairs=2773, zero=2461, new=312, basis=804)
    assert digest.hexdigest() == _QUOTIENT_RING_BASES[field]


def test_membership_examples(rxy):
    x, y = rxy.gens()
    assert buchberger([x]).contains(x)
    gens = [rxy.parse("x^2-y"), rxy.parse("x*y-1"), rxy.parse("x-y^2")]
    assert buchberger(gens).contains(rxy.parse("y^3-1"))
    assert not buchberger(gens).contains(rxy.one())


def test_membership_agrees_with_linear_algebra_oracle():
    # Non-members must be rejected by the bounded oracle outright (it can
    # only certify true members).  Members must admit an explicit linear
    # certificate; the default degree slack of 3 covers all but rare
    # instances, which escalate until the certificate appears.
    rng = random.Random(37)
    ring = PolyRing(("x", "y", "z"))
    checked = escalated = 0
    for _ in range(60):
        gens = [random_polynomial(ring, rng) for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if g]
        if not gens:
            continue
        f = random_polynomial(ring, rng)
        member = buchberger(gens).contains(f)
        if not member:
            assert not membership_by_linear_algebra(f, gens)
        else:
            for slack in (3, 6, 9, 12):
                if membership_by_linear_algebra(f, gens, slack=slack):
                    break
            else:
                raise AssertionError(f"no certificate for {f} in {gens}")
            if slack > 3:
                escalated += 1
        checked += 1
    assert checked >= 50
    assert escalated <= checked // 10


def test_normal_form_is_linear_modulo_the_ideal(rxy):
    rng = random.Random(41)
    gb = buchberger([rxy.parse("x^2-y"), rxy.parse("x*y-1")])
    basis = list(gb.polys)
    field = rxy.field
    for _ in range(25):
        f = random_polynomial(rxy, rng)
        g = random_polynomial(rxy, rng)
        a = field.scalar(rng.randint(-4, 4))
        b = field.scalar(rng.randint(-4, 4))
        combined = normal_form(f.scaled(a) + g.scaled(b), basis)
        split = normal_form(f, basis).scaled(a) + normal_form(g, basis).scaled(b)
        assert combined == split


def test_all_zero_generators_rejected(rxy):
    with pytest.raises(InputError, match="zero"):
        buchberger([rxy.zero(), rxy.zero()])


def test_ring_mismatch_rejected(rxy):
    other = PolyRing(("u",))
    with pytest.raises(RingMismatchError):
        normal_form(rxy.parse("x"), [other.parse("u")])


def test_membership_rejects_polynomial_from_other_ring(rxy):
    other = PolyRing(("a", "b", "c"))
    x, _ = rxy.gens()
    with pytest.raises(RingMismatchError):
        buchberger([x]).contains(other.parse("a"))


def test_f2_basis_runs():
    R = PolyRing(("x", "y"), PrimeField(2))
    gb = buchberger([R.parse("x^2+y"), R.parse("x*y+1")])
    assert_spoly_closure(gb)
    assert gb.contains(R.parse("y^3+1"))
