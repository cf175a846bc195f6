"""Degenerate and boundary inputs across the ideal/linkage layers."""

import pytest

from quasigor.divisors import parse_divisor
from quasigor.errors import InputError, RingMismatchError
from quasigor.groebner import buchberger
from quasigor.ideals import Ideal
from quasigor.rings import PolyRing


@pytest.fixture
def rxy():
    return PolyRing(("x", "y"))


def test_inconsistent_system_gives_unit_basis(rxy):
    gb = buchberger([rxy.parse("x"), rxy.parse("x+1")])
    assert [str(p) for p in gb] == ["1"]
    assert gb.is_unit()


def test_zero_ideal_basics(rxy):
    zero = Ideal(rxy, [])
    assert zero.is_zero_ideal()
    assert zero.groebner_basis().polys == ()
    assert zero.dimension() == 2
    assert not zero.contains(rxy.parse("x"))
    assert zero.contains(rxy.zero())


def test_zero_ideal_rejects_polynomial_from_other_ring(rxy):
    f = PolyRing(("x", "y", "z")).parse("x")
    for ideal in (Ideal(rxy, []), Ideal(rxy, ["x"])):
        with pytest.raises(RingMismatchError):
            ideal.contains(f)


def test_intersect_with_zero_ideal(rxy):
    I = Ideal(rxy, ["x"])
    zero = Ideal(rxy, [])
    assert I.intersect(zero) == zero
    assert zero.intersect(I) == zero


def test_colon_when_divisor_inside(rxy):
    I = Ideal(rxy, ["x^2", "x*y"])
    inside = Ideal(rxy, ["x^2*y"])
    assert I.colon(inside) == Ideal(rxy, ["1"])


def test_colon_of_zero_ideal(rxy):
    zero = Ideal(rxy, [])
    assert zero.colon(Ideal(rxy, ["x"])) == zero


def test_unit_ideal_has_no_standard_monomials(rxy):
    assert Ideal(rxy, ["x", "y", "1"]).hilbert_function(3) == 0


def test_eliminate_every_variable(rxy):
    proper = Ideal(rxy, ["x-1"])
    assert proper.eliminate(["x", "y"]) == Ideal(rxy, [])
    unit = Ideal(rxy, ["x", "x-1"])
    assert unit.eliminate(["x", "y"]) == Ideal(rxy, ["1"])


def test_generators_accept_strings_ints_polynomials(rxy):
    x, _ = rxy.gens()
    ideal = Ideal(rxy, ["x^2", 0, x])
    assert ideal == Ideal(rxy, [x])
    with pytest.raises(InputError):
        Ideal(rxy, [object()])


def test_duplicate_points_accumulate():
    assert parse_divisor("P(0) + P(0)") == parse_divisor("2*P(0)")
    assert parse_divisor("P(1) - P(1)") == parse_divisor("0*P(0)")


def test_constant_coefficient_and_monic(rxy):
    f = rxy.parse("2*x + 4")
    assert f.constant_coefficient() == rxy.field.scalar(4)
    assert f.monic() == rxy.parse("x + 2")
    assert rxy.zero().monic() == rxy.zero()


def test_power_edge_cases(rxy):
    f = rxy.parse("x+1")
    assert f**0 == rxy.one()
    assert f**1 == f
    with pytest.raises(InputError):
        f ** (-1)
