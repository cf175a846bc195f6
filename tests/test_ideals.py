import random

import pytest

from quasigor import ideals
from quasigor.errors import InputError, RingMismatchError, UnsupportedRequestError
from quasigor.fields import QQ, PrimeField
from quasigor.ideals import Ideal, exact_quotient
from quasigor.orders import GrevlexOrder, LexOrder, elimination_order
from quasigor.parse import parse_ring
from quasigor.rings import PolyRing

from oracles import (
    ci_hilbert_coefficient,
    dimension_by_subset_scan,
    monomials_up_to,
    random_polynomial,
)


@pytest.fixture
def rxy():
    return PolyRing(("x", "y"))


@pytest.fixture
def rxyz():
    return PolyRing(("x", "y", "z"))


def test_sum_and_product(rxy):
    I = Ideal(rxy, ["x"])
    J = Ideal(rxy, ["y"])
    assert (I + J) == Ideal(rxy, ["x", "y"])
    assert (I * J) == Ideal(rxy, ["x*y"])


def test_intersection_examples(rxy):
    I = Ideal(rxy, ["x"])
    J = Ideal(rxy, ["y"])
    meet = I.intersect(J)
    assert meet == Ideal(rxy, ["x*y"])
    # oracle: two-way membership up to degree 4
    for m in monomials_up_to(2, 4):
        f = rxy.polynomial({m: rxy.field.one})
        in_both = I.contains(f) and J.contains(f)
        assert meet.contains(f) == in_both
    assert I.intersect(I) == I
    assert Ideal(rxy, ["x^2"]).intersect(I) == Ideal(rxy, ["x^2"])


def _random_rings(rxyz):
    """(ring, terms per random generator) on grevlex, lex and a weight-0
    grevlex ring over the variables of rxyz."""
    lex = PolyRing(rxyz.names, order=LexOrder(3))
    weighted = PolyRing(rxyz.names, weights=(1, 0, 2))
    # binomials on the lex and weight-0 rings: some random trinomial pairs
    # take minutes to intersect there, even with sugar pair selection
    # (lex over F32003: cases 9, 15, 26, 38 and 55 of 60 from Random(43))
    return ((rxyz, 4), (lex, 2), (weighted, 2))


def test_intersection_randomized_containment(rxyz):
    rng = random.Random(43)
    for ring, terms in _random_rings(rxyz):
        for _ in range(10):
            I = Ideal(ring, [random_polynomial(ring, rng, 3, terms) for _ in range(2)])
            J = Ideal(ring, [random_polynomial(ring, rng, 3, terms) for _ in range(2)])
            if I.is_zero_ideal() or J.is_zero_ideal():
                continue
            meet = I.intersect(J)
            for g in meet.generators:
                assert I.contains(g) and J.contains(g)
            for g in (I + J).generators:
                assert (I + J).contains(g)


def test_intersect_colon_eliminate_on_block_ordered_rings():
    # intersect and colon extend the ring's own order by the column of t
    for order in (
        elimination_order(3, [0], LexOrder(3)),
        elimination_order(3, [2], GrevlexOrder((1, 2, 1))),
    ):
        ring = PolyRing(("x", "y", "z"), order=order)
        I = Ideal(ring, ["x*y", "y*z^2 - x^2"])
        J = Ideal(ring, ["y*z", "x^2"])
        meet = I.intersect(J)
        assert meet.generators
        for g in meet.generators:
            assert I.contains(g) and J.contains(g)
        for g in (I * J).generators:
            assert meet.contains(g)
        colon = I.colon(J)
        for c in colon.generators:
            for g in J.generators:
                assert I.contains(c * g)
        for g in I.generators:
            assert colon.contains(g)
        assert not colon.contains(ring.one())
    # eliminating s over an elimination-ordered base nests two blocks
    names = ("s", "x", "y")
    base = PolyRing(names, order=elimination_order(3, [2], GrevlexOrder((1, 1, 1))))
    curve = ["x - s^2", "y - s^3"]
    contraction = Ideal(base, curve).eliminate(["s"])
    assert contraction == Ideal(base, ["x^3 - y^2"])
    for g in contraction.generators:
        assert Ideal(base, curve).contains(g)
        assert all(m[0] == 0 for m, _ in g.terms)
    plain = Ideal(PolyRing(names), curve).eliminate(["s"])
    assert [str(g) for g in plain.groebner_basis()] == ["x^3 - y^2"]


def test_colon_examples(rxy):
    I = Ideal(rxy, ["x^2", "x*y"])
    out = I.colon(Ideal(rxy, ["x"]))
    assert out == Ideal(rxy, ["x", "y"])
    # brute-force oracle: f*x in I iff f in (x, y), degree <= 3
    for m in monomials_up_to(2, 3):
        f = rxy.polynomial({m: rxy.field.one})
        assert I.contains(f * rxy.parse("x")) == out.contains(f)
    assert I.colon(Ideal(rxy, ["1"])) == I
    with pytest.raises(InputError):
        I.colon(Ideal(rxy, []))


def test_colon_membership_property_randomized(rxyz):
    rng = random.Random(47)
    for _ in range(8):
        I = Ideal(rxyz, [random_polynomial(rxyz, rng) for _ in range(2)])
        J = Ideal(rxyz, [random_polynomial(rxyz, rng) for _ in range(2)])
        if I.is_zero_ideal() or J.is_zero_ideal() or not I.is_proper():
            continue
        quotient = I.colon(J)
        for f in quotient.generators:
            for g in J.generators:
                assert I.contains(f * g)


def test_colon_is_intersection_of_principal_colons_randomized(rxyz):
    # five divisor generators: the balanced tree ((f0 & f1) & (f2 & f3)) & f4
    # and the left fold take different operands, and f4 waits a level
    rng = random.Random(71)
    for ring, terms in _random_rings(rxyz):
        for _ in range(10):
            I = Ideal(ring, [random_polynomial(ring, rng, 3, terms) for _ in range(2)])
            J = Ideal(ring, [random_polynomial(ring, rng, 3, terms) for _ in range(5)])
            if I.is_zero_ideal() or J.is_zero_ideal():
                continue
            quotient = I.colon(J)
            fold = None
            for g in J.generators:
                if g:
                    factor = I.colon(Ideal(ring, [g]))
                    fold = factor if fold is None else fold.intersect(factor)
            assert quotient == fold
            for f in I.generators:
                assert quotient.contains(f)
            for f in quotient.generators:
                for g in J.generators:
                    assert I.contains(f * g)


# Small inputs that once ran for minutes.  Each finishes in at most a few
# seconds under sugar pair selection, or, for the colon, with factors
# seeded by the reduced basis.  Left out: the elimination-order
# intersection over Q, which takes about 4.5 s, more than all of these
# together; its F32003 twin below runs the same 114 pairs, and the cubics
# cover coefficient growth over Q.
F32003 = PrimeField(32003)


@pytest.mark.parametrize("field", [QQ, F32003], ids=["Q", "F32003"])
def test_lex_intersection_of_trinomials_finishes(field):
    ring = PolyRing(("x", "y", "z"), field=field, order=LexOrder(3))
    I = Ideal(ring, ["5*x^2*y - 4*y^3 - y*z", "2*y*z + 1"])
    J = Ideal(ring, ["-4*x*z - 3*y^3 + 2", "-x*y^2 + 5*y^2"])
    meet = I.intersect(J)
    for g in meet.generators:
        assert I.contains(g) and J.contains(g)
    for g in (I * J).generators:
        assert meet.contains(g)


def test_block_order_cubics_over_q_finish():
    names = ("x", "y", "z")
    cubics = ["-x*z + z^3", "-2*x*y*z - 2*x^2 + 3*x", "2*y^2*z + 3*x*y*z + 3*x^3"]
    weights = (1, 2, 0)
    ring = PolyRing(names, weights=weights, order=elimination_order(3, [0, 2], GrevlexOrder(weights)))
    gb = Ideal(ring, cubics).groebner_basis()
    # two-way containment against the basis of the same ideal in grevlex
    grevlex = PolyRing(names, weights=weights)
    other = Ideal(grevlex, cubics).groebner_basis()
    for g in cubics:
        assert gb.contains(ring.parse(g))
    for p in gb:
        assert other.contains(grevlex.polynomial(dict(p.terms)))
    for p in other:
        assert gb.contains(ring.polynomial(dict(p.terms)))


def test_elimination_order_intersection_over_f32003_finishes():
    weights = (1, 2, 0)
    order = elimination_order(3, [0], GrevlexOrder(weights))
    ring = PolyRing(("x", "y", "z"), field=F32003, weights=weights, order=order)
    I = Ideal(ring, ["-x*y*z - x*y", "3*x*y*z + 3*y*z - x"])
    J = Ideal(ring, ["y + 3*x - 2*z", "-3*y^2 - 4*x*z - 1"])
    meet = I.intersect(J)
    for g in meet.generators:
        assert I.contains(g) and J.contains(g)
    for g in (I * J).generators:
        assert meet.contains(g)


@pytest.mark.parametrize("field", [QQ, F32003], ids=["Q", "F32003"])
def test_lex_colon_by_unit_ideal_finishes(field):
    # the divisor contains the unit -3, so I : J = I
    ring = PolyRing(("x", "y", "z"), field=field, order=LexOrder(3))
    I = Ideal(ring, ["-x*y*z - 3*x*z", "4*x*y^2 + 1", "3*y^2*z"])
    J = Ideal(ring, ["-3", "-2*y + 4*z + 2"])
    quotient = I.colon(J)
    assert quotient == I
    for f in quotient.generators:
        for g in J.generators:
            assert I.contains(f * g)


def test_eliminate_examples(rxyz):
    x, y, z = rxyz.gens()
    parabola = Ideal(rxyz, [x - z, y - z**2])
    out = parabola.eliminate(["z"])
    assert out == Ideal(rxyz, [y - x**2])
    # oracle: substitution x -> t, y -> t^2 kills every generator
    T = PolyRing(("t",))
    t = T.variable("t")
    for g in out.generators:
        assert not g.compose(T, {"x": t, "y": t**2, "z": t})
    unit_t = Ideal(rxyz, [z * x, z - 1])
    assert unit_t.eliminate([z]) == Ideal(rxyz, [x])
    assert parabola.eliminate([]) == parabola
    with pytest.raises(InputError):
        parabola.eliminate(["missing"])


def test_eliminate_keeps_its_reduced_basis(monkeypatch):
    calls = []
    run = ideals.buchberger
    monkeypatch.setattr(ideals, "buchberger", lambda gens: calls.append(1) or run(gens))
    R = parse_ring("field Q; vars x,y,z")
    out = Ideal(R, ["x - y^2", "y - z^3"]).eliminate(["y"])
    basis = out.groebner_basis()
    assert len(calls) == 1
    assert basis == run(out.generators)
    assert [str(p) for p in basis] == ["z^6 - x"]


def test_dimension_examples(rxyz):
    assert Ideal(rxyz, ["x*y", "x*z"]).dimension() == 2
    ten = parse_ring("field Q; vars a1..a10")
    assert Ideal(ten, []).dimension() == 10
    assert Ideal(rxyz, ["x"]).codimension() == 1
    with pytest.raises(InputError):
        Ideal(rxyz, ["1"]).dimension()


def test_dimension_matches_subset_oracle_randomized():
    rng = random.Random(53)
    ring = PolyRing(("x", "y", "z", "w"))
    for _ in range(30):
        monomials = []
        for _ in range(rng.randint(1, 4)):
            m = [0, 0, 0, 0]
            for _ in range(rng.randint(1, 3)):
                m[rng.randrange(4)] += 1
            monomials.append(ring.polynomial({tuple(m): ring.field.one}))
        ideal = Ideal(ring, monomials)
        expected = dimension_by_subset_scan(
            ideal.groebner_basis().leading_monomials(), 4
        )
        assert ideal.dimension() == expected
    # wider rings: random monomials, and edge ideals of random graphs
    rng = random.Random(59)
    for case in range(40):
        n = rng.randint(6, 12)
        ring = PolyRing(tuple(f"x{i}" for i in range(n)))
        monomials = []
        if case % 2:
            for a, b in rng.sample([(a, b) for a in range(n) for b in range(a + 1, n)], rng.randint(1, 2 * n)):
                m = [0] * n
                m[a] = m[b] = 1
                monomials.append(ring.polynomial({tuple(m): ring.field.one}))
        else:
            for _ in range(rng.randint(1, n)):
                m = [0] * n
                for _ in range(rng.randint(1, 4)):
                    m[rng.randrange(n)] += 1
                monomials.append(ring.polynomial({tuple(m): ring.field.one}))
        ideal = Ideal(ring, monomials)
        expected = dimension_by_subset_scan(ideal.groebner_basis().leading_monomials(), n)
        assert ideal.dimension() == expected


def test_dimension_of_wide_monomial_ideals():
    ring = parse_ring("field Q; vars x1..x30")
    assert Ideal(ring, [f"x{i}" for i in range(1, 31)]).dimension() == 0
    assert Ideal(ring, [f"x{i}*x{i + 1}" for i in range(1, 31, 2)]).dimension() == 15


def test_hilbert_function_examples(rxyz):
    assert Ideal(rxyz, ["x^3"]).hilbert_function(3) == 9  # C(5,2) - C(2,2)
    one_var = PolyRing(("x",))
    assert Ideal(one_var, []).hilbert_function(0) == 1
    assert Ideal(rxyz, ["x^2", "y^3"]).hilbert_function(2) == ci_hilbert_coefficient(
        (2, 3), 3, 2
    )


def test_hilbert_function_weighted():
    ring = PolyRing(("x", "y"), weights=(1, 2))
    ideal = Ideal(ring, ["x^2"])
    # degree-4 monomials: x^4, x^2 y, y^2; x^4 and x^2 y are cut
    assert ideal.hilbert_function(4) == 1
    assert Ideal(ring, []).hilbert_function(4) == 3


def test_hilbert_refuses_weight_zero():
    ring = parse_ring("field Q; vars x,y; weights 1,0")
    with pytest.raises(UnsupportedRequestError):
        Ideal(ring, ["x"]).hilbert_function(1)


def test_hilbert_refuses_inhomogeneous(rxyz):
    with pytest.raises(InputError):
        Ideal(rxyz, ["x^2 - y"]).hilbert_function(2)


def test_hilbert_complete_intersection_series_randomized(rxyz):
    rng = random.Random(59)
    x, y, z = rxyz.gens()
    variables = [x, y, z]
    for _ in range(10):
        codim = rng.randint(1, 3)
        degrees = [rng.randint(1, 4) for _ in range(codim)]
        gens = [variables[i] ** d for i, d in enumerate(degrees)]
        ideal = Ideal(rxyz, gens)
        for n in range(8):
            assert ideal.hilbert_function(n) == ci_hilbert_coefficient(degrees, 3, n)


def test_is_regular_element(rxy):
    assert Ideal(rxy, ["x"]).is_regular_element(rxy.parse("y"))
    assert not Ideal(rxy, ["x*y"]).is_regular_element(rxy.parse("x"))
    with pytest.raises(InputError):
        Ideal(rxy, ["x"]).is_regular_element(rxy.zero())
    with pytest.raises(InputError):
        Ideal(rxy, ["1"]).is_regular_element(rxy.parse("x"))


def test_exact_quotient(rxy):
    f = rxy.parse("(x+y)*(x^2-3*y)")
    assert exact_quotient(f, rxy.parse("x+y")) == rxy.parse("x^2-3*y")
    with pytest.raises(InputError):
        exact_quotient(rxy.parse("x^2+1"), rxy.parse("x+y"))


def test_equality_is_reduced_basis_equality(rxy):
    I = Ideal(rxy, ["x^2-y", "x*y-1"])
    J = Ideal(rxy, ["x*y-1", "y^2-x", "x^2-y"])
    assert I == J
    assert hash(I) == hash(J)
    assert I != Ideal(rxy, ["x"])


def test_groebner_cache_per_order(rxy):
    from quasigor.orders import LexOrder

    I = Ideal(rxy, ["x^2-y", "x*y-1"])
    default = I.groebner_basis()
    again = I.groebner_basis()
    assert default is again  # cached
    lex = Ideal(rxy.with_order(LexOrder(2)), ["x^2-y", "x*y-1"]).groebner_basis()
    assert [str(p) for p in lex] == ["y^3 - 1", "x - y^2"]


def test_ring_mismatch(rxy, rxyz):
    with pytest.raises(RingMismatchError):
        Ideal(rxy, ["x"]).intersect(Ideal(rxyz, ["x"]))


def test_f2_ideal_ops():
    ring = PolyRing(("x", "y"), PrimeField(2))
    I = Ideal(ring, ["x^2", "x*y"])
    assert I.colon(Ideal(ring, ["x"])) == Ideal(ring, ["x", "y"])
    assert I.dimension() == 1
