"""Integrity checks on the shipped generator data."""

from pathlib import Path

import pytest

from quasigor.errors import InputError
from quasigor.fields import PrimeField, parse_field
from quasigor.ideals import Ideal
from quasigor.linkage import built_in_row
from quasigor.parse import parse_ring
from quasigor.rings import PolyRing

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "quasigor" / "data"


def test_ring_shapes():
    big, ideal, link = built_in_row("verify-counterexample", "F2")
    declared = parse_ring((DATA_DIR / "deformation_ring.txt").read_text())
    assert (big.names, big.weights) == (declared.names, declared.weights)
    assert big.field == PrimeField(2)
    # deg Z_ij = r_i + c_j with r = (1,1,1), c = (0,1,1), and deg Y = 2: a
    # positive grading in which the ideal, the link and Y are homogeneous
    assert big.names[-1] == "Y" and big.weights == (1, 2, 2, 1, 2, 2, 1, 2, 2, 2)
    assert all(w > 0 for w in big.weights)
    assert all(g.is_homogeneous() for g in ideal.generators + link.generators)
    small, _, _ = built_in_row("verify-quotient", "F2")
    assert small.nvars == 9 and small.field == PrimeField(2)


def test_generator_counts():
    _, ideal, link = built_in_row("verify-counterexample")
    assert len(ideal.generators) == 28
    assert len(link.generators) == 6
    _, ideal, link = built_in_row("verify-quotient")
    assert len(ideal.generators) == 28
    assert len(link.generators) == 6


def test_listed_minor_is_a_member():
    big, ideal, _ = built_in_row("verify-counterexample")
    assert ideal.contains(big.parse("Z6*Z7-Z4*Z9"))
    assert not ideal.contains(big.parse("Z1"))


def test_link_generators_sit_inside_the_ideal():
    _, ideal, link = built_in_row("verify-counterexample")
    for g in link.generators:
        assert ideal.contains(g)


def test_quotient_data_is_the_y_zero_image():
    _, big_ideal, big_link = built_in_row("verify-counterexample")
    small, segre, segre_link = built_in_row("verify-quotient")
    images = {name: small.variable(name) for name in small.names}
    images["Y"] = small.zero()
    mapped = Ideal(small, [g.compose(small, images) for g in big_ideal.generators])
    assert mapped == segre
    mapped_link = Ideal(small, [g.compose(small, images) for g in big_link.generators])
    assert mapped_link == segre_link


@pytest.mark.parametrize("field", ["F2", "Q"])
def test_segre_ideal_from_its_definition(field):
    # the Segre product of k[x,y,z]/(x^3) and k[a,b,c]/(a^3) is the
    # subring spanned by Z_(3i+j+1) = r_i*c_j, r = (x, y, z), c = (a, b, c):
    # its ideal is what eliminating the six factors leaves
    small, segre, _ = built_in_row("verify-quotient", field)
    rows, cols = ("x", "y", "z"), ("a", "b", "c")
    big = PolyRing(small.names + rows + cols, small.field)
    products = [f"Z{3 * i + j + 1} - {r}*{c}" for i, r in enumerate(rows) for j, c in enumerate(cols)]
    kept = Ideal(big, products + ["x^3", "a^3"]).eliminate(rows + cols)
    images = {name: small.variable(name) for name in small.names}
    images.update((name, small.zero()) for name in rows + cols)
    assert Ideal(small, [g.compose(small, images) for g in kept.generators]) == segre


def test_resolve_field_labels():
    assert parse_field("Q").characteristic == 0
    assert parse_field("F2") == PrimeField(2)
    assert parse_field("Fp:11") == PrimeField(11)
    with pytest.raises(InputError):
        parse_field("F9")
    with pytest.raises(InputError):
        parse_field("R")
    with pytest.raises(InputError):
        built_in_row("verify-quotient", "F9")
