import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasigor import linalg
from quasigor.errors import InputError, RingMismatchError
from quasigor.fields import QQ, PrimeField
from quasigor.orders import GrevlexOrder, LexOrder, MatrixOrder, elimination_order
from quasigor.parse import parse_polynomial, parse_ring
from quasigor.rings import PolyRing

from oracles import random_polynomial


@pytest.fixture
def paper_ring():
    return parse_ring("field Q; vars Z1..Z9,Y; weights 1,1,1,1,1,1,1,1,1,0")


def test_simple_sums_and_products():
    R = PolyRing(("x", "y"))
    x, y = R.gens()
    assert (x + y) + (x - y) == 2 * x
    assert (x + y) * (x - y) == x**2 - y**2
    assert x - x == R.zero()
    assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1


def test_frobenius_square_mod_2():
    # brute-force expansion: (x+y)^2 = x^2 + 2xy + y^2, and 2 = 0 in F_2
    R = PolyRing(("x", "y"), PrimeField(2))
    x, y = R.gens()
    assert (x + y) ** 2 == x**2 + y**2


def test_weighted_degree(paper_ring):
    R = paper_ring
    assert R.parse("Z1*Z2").weighted_degree() == 2
    assert R.parse("Y").weighted_degree() == 0
    assert R.parse("Z4*Z7*Y").weighted_degree() == 2  # 1 + 1 + 0
    with pytest.raises(InputError):
        R.zero().weighted_degree()


def test_canonical_form_invariants():
    R = PolyRing(("x", "y", "z"))
    f = R.parse("3*x*y - 3*x*y + z")
    assert [c for _, c in f.terms] == [R.field.one]
    g = R.parse("y + x + z")
    # strictly descending in the order, no duplicates
    keys = [R.order.key(m) for m, _ in g.terms]
    assert keys == sorted(keys, reverse=True)


def test_ring_mismatch_rejected():
    a = PolyRing(("x",)).parse("x")
    b = PolyRing(("y",)).parse("y")
    with pytest.raises(RingMismatchError):
        a + b


def test_zero_weight_order_is_well_order(paper_ring):
    # Y must sort above the constants, otherwise division would not end.
    R = paper_ring
    y = R.variable("Y")
    assert (y + 1).leading_monomial() == y.leading_monomial()
    assert (y**2 + y).leading_monomial() == (y**2).leading_monomial()


def test_exact_ring_axioms_randomized():
    rng = random.Random(7)
    for ring in (PolyRing(("x", "y", "z")), PolyRing(("x", "y"), PrimeField(5))):
        for _ in range(40):
            f = random_polynomial(ring, rng)
            g = random_polynomial(ring, rng)
            h = random_polynomial(ring, rng)
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert f * (g + h) == f * g + f * h


def test_frobenius_additivity_randomized():
    rng = random.Random(11)
    for p in (2, 3, 5):
        ring = PolyRing(("x", "y"), PrimeField(p))
        for _ in range(15):
            f = random_polynomial(ring, rng)
            g = random_polynomial(ring, rng)
            assert (f + g) ** p == f**p + g**p


def test_order_multiplicativity_randomized():
    rng = random.Random(13)
    ring = PolyRing(("x", "y", "z", "w"), weights=(1, 2, 1, 0))
    key = ring.order.key
    for _ in range(300):
        m1 = tuple(rng.randint(0, 4) for _ in range(4))
        m2 = tuple(rng.randint(0, 4) for _ in range(4))
        n = tuple(rng.randint(0, 4) for _ in range(4))
        if key(m1) < key(m2):
            assert key(tuple(a + b for a, b in zip(m1, n))) < key(
                tuple(a + b for a, b in zip(m2, n))
            )


def test_order_keys_are_matrix_products():
    grevlex = GrevlexOrder((1, 2, 0))
    assert grevlex.matrix == ((1, 2, 0), (0, 0, 1), (0, 0, -1), (0, -1, 0), (-1, 0, 0))
    assert grevlex.key((3, 1, 4)) == (5, 4, -4, -1, -3)
    assert LexOrder(3).key((3, 1, 4)) == (3, 1, 4)
    # a block order's key is the blocks' own keys, one after the other
    rng = random.Random(19)
    for base in (grevlex, LexOrder(3)):
        for elim in ([0], [1], [2], [0, 2]):
            order = elimination_order(3, elim, base)
            rest = [i for i in range(3) if i not in elim]
            for _ in range(20):
                m = tuple(rng.randint(0, 6) for _ in range(3))
                expected = base.restricted_to(elim).key(tuple(m[i] for i in elim))
                expected += base.restricted_to(rest).key(tuple(m[i] for i in rest))
                assert order.key(m) == expected


def _cmp(a, b):
    return (a > b) - (a < b)


@st.composite
def _orders(draw):
    """Random weights (0 allowed) and the orders built from them."""
    weights = draw(st.lists(st.integers(0, 3), min_size=1, max_size=5))
    n = len(weights)
    grevlex = GrevlexOrder(weights)
    positions = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    inner = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    outer = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    base = draw(st.sampled_from([grevlex, LexOrder(n)]))
    orders = [
        grevlex,
        LexOrder(n),
        grevlex.restricted_to(positions),
        elimination_order(n, outer, elimination_order(n, inner, base)),
    ]
    monomials = st.lists(st.integers(0, 5), min_size=n + 1, max_size=n + 1).map(tuple)
    return orders, draw(st.lists(st.tuples(monomials, monomials), min_size=1, max_size=10))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_orders())
def test_matrix_orders_are_well_orders_and_extend_faithfully(case):
    orders, pairs = case
    for order in orders + [o.extended(1) for o in orders]:
        rows = [[QQ.scalar(c) for c in row] for row in order.matrix]
        assert linalg.rank(rows, QQ) == order.nvars  # total
        for column in zip(*order.matrix):
            assert next(c for c in column if c) > 0  # a well-order
    for order in orders:
        ext = order.extended(1)
        assert ext.nvars == order.nvars + 1
        for a, b in pairs:
            a, b = a[: order.nvars], b[: order.nvars]
            assert _cmp(ext.key(a + (0,)), ext.key(b + (0,))) == _cmp(order.key(a), order.key(b))


@pytest.mark.parametrize(
    "entry",
    [
        lambda xyz: PolyRing(xyz.names, order=LexOrder(2)),
        lambda xyz: PolyRing(xyz.names, order=LexOrder(4)),
        lambda xyz: xyz.with_order(GrevlexOrder((1, 1))),
    ],
    ids=["ring-narrow", "ring-wide", "with_order"],
)
def test_order_must_have_one_column_per_variable(entry):
    with pytest.raises(InputError, match="columns for 3 variables"):
        entry(PolyRing(("x", "y", "z")))


def test_non_integer_weights_are_refused():
    # int() would truncate 1.5 to 1 and give another grading
    with pytest.raises(InputError, match="weights must be integers"):
        PolyRing(("x", "y"), weights=(1.5, 1))
    with pytest.raises(InputError, match="weights must be integers"):
        GrevlexOrder((Fraction(3, 2), 1))
    assert PolyRing(("x", "y"), weights=(2, 1)).weights == (2, 1)


def test_non_integer_order_matrix_entries_are_refused():
    with pytest.raises(InputError, match="order matrix entries must be integers"):
        MatrixOrder("m", [(1.7, 1), (0, 1)])
    assert MatrixOrder("m", [(2, 1), (0, 1)]).matrix == ((2, 1), (0, 1))


def test_print_parse_round_trip_randomized():
    rng = random.Random(17)
    for ring in (PolyRing(("x", "y", "z")), PolyRing(("a", "b"), PrimeField(7))):
        for _ in range(50):
            f = random_polynomial(ring, rng)
            assert parse_polynomial(str(f), ring) == f


def test_print_parse_round_trip_examples(paper_ring):
    R = PolyRing(("x",))
    f = R.parse("x^2+2*x+1")
    assert str(f) == "x^2 + 2*x + 1"
    assert R.parse(str(f)) == f
    g = paper_ring.parse("Z4*Z7*Y-Z6*Z8+Z5*Z9")
    assert paper_ring.parse(str(g)) == g
    assert str(R.parse("0")) == "0"


def test_compose_ring_map():
    R = PolyRing(("x", "y"))
    S = PolyRing(("t",))
    t = S.variable("t")
    f = R.parse("y - x^2")
    assert not f.compose(S, {"x": t, "y": t**2})


def test_rational_coefficients():
    R = PolyRing(("x",))
    f = R.parse("1/2*x + 1/3")
    assert f + f == R.parse("x + 2/3")
    assert str(f) == "1/2*x + 1/3"
