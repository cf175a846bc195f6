import random

import pytest

from quasigor.errors import InputError
from quasigor.ideals import Ideal
from quasigor.linkage import (
    LinkagePair,
    build_linkage,
    built_in_row,
    is_quasi_gorenstein,
    is_unmixed,
    minimal_generator_count,
    present_canonical_module,
    select_complete_intersection,
    unmixed_part,
)
from quasigor.rings import PolyRing


@pytest.fixture
def rxy():
    return PolyRing(("x", "y"))


def test_self_link_of_principal_ideal(rxy):
    I = Ideal(rxy, ["x"])
    pair = build_linkage(I, I)
    assert pair.colon == Ideal(rxy, ["1"])
    assert minimal_generator_count(pair) == 1
    assert is_quasi_gorenstein(pair)


def test_complete_intersection_self_links_randomized():
    # a complete intersection is Gorenstein: mu must be 1 for c = a
    ring = PolyRing(("x", "y", "z"))
    x, y, z = ring.gens()
    rng = random.Random(61)
    # all cases sit inside the ideal of variables: the count is local there
    cases = [
        [x, y],
        [x**2, y**3, z],
        [x - y**2, z**3],
        [x**2 - y * z, z**3],
    ]
    for gens in cases:
        I = Ideal(ring, gens)
        assert minimal_generator_count(build_linkage(I, I)) == 1


def test_certificate_failures(rxy):
    ambient = Ideal(rxy, ["x", "y"])
    with pytest.raises(InputError, match="codimension mismatch"):
        build_linkage(ambient, Ideal(rxy, ["x^2"]))
    with pytest.raises(InputError, match="not in the ambient"):
        build_linkage(Ideal(rxy, ["x"]), Ideal(rxy, ["y"]))
    with pytest.raises(InputError, match="complete intersection"):
        build_linkage(ambient, Ideal(rxy, ["x", "y", "x+y"]))


def test_unmixed_part_example(rxy):
    # (x^2, xy) = (x) meet (x^2, y): the unmixed part is (x)
    ambient = Ideal(rxy, ["x^2", "x*y"])
    link = Ideal(rxy, ["x^2"])
    pair = build_linkage(ambient, link)
    assert pair.colon == Ideal(rxy, ["x"])  # hand liaison computation
    part = unmixed_part(pair)
    assert part == Ideal(rxy, ["x"])
    assert not is_unmixed(pair)
    # oracle: two-way membership checks of the liaison identity
    assert part.contains(rxy.parse("x"))
    assert not part.contains(rxy.parse("y"))


def test_unmixed_for_complete_intersection(rxy):
    I = Ideal(rxy, ["x^2"])
    pair = build_linkage(I, I)
    assert unmixed_part(pair) == I
    assert is_unmixed(pair)


def test_double_link_closure(rxy):
    ambient = Ideal(rxy, ["x^2", "x*y"])
    link = Ideal(rxy, ["x^2"])
    once = unmixed_part(build_linkage(ambient, link))
    twice = unmixed_part(build_linkage(once, link))
    assert once == twice


def test_liaison_sanity(rxy):
    ambient = Ideal(rxy, ["x^2", "x*y"])
    link = Ideal(rxy, ["x^2"])
    pair = build_linkage(ambient, link)
    part = unmixed_part(pair)
    for g in link.generators:
        assert pair.colon.contains(g)
        assert ambient.contains(g)
    for g in ambient.generators:
        assert part.contains(g)


def test_mu_independent_of_colon_generators(rxy):
    ambient = Ideal(rxy, ["x^2", "x*y"])
    link = Ideal(rxy, ["x^2"])
    pair = build_linkage(ambient, link)
    mu = minimal_generator_count(pair)
    gens = list(pair.colon.generators)
    ring = pair.ring
    variants = [
        list(reversed(gens)),
        gens + [gens[0] * ring.parse("x")],  # redundant extension
        gens + [g.scaled(ring.field.scalar(7)) for g in gens],
    ]
    for variant in variants:
        tweaked = LinkagePair(
            ambient=pair.ambient,
            link=pair.link,
            colon=Ideal(ring, variant),
            codim=pair.codim,
        )
        assert minimal_generator_count(tweaked) == mu


def test_presentation_quotient_killed_by_variables(rxy):
    ambient = Ideal(rxy, ["x^2", "x*y"])
    link = Ideal(rxy, ["x^2"])
    pair = build_linkage(ambient, link)
    irrelevant = Ideal(rxy, rxy.gens())
    cone = (pair.link + irrelevant * pair.colon).groebner_basis()
    for v in rxy.gens():
        for g in pair.colon.generators:
            assert cone.contains(v * g)


def test_presentation_object(rxy):
    I = Ideal(rxy, ["x"])
    pres = present_canonical_module(build_linkage(I, I))
    assert pres.min_generators == 1
    assert len(pres.generator_images) == len(pres.pair.colon.generators)
    assert len(pres.independent) == pres.min_generators


def test_unmixed_part_falls_back_when_selection_misses_colon():
    # Y has weight 0, so 1 + Y is a unit locally at M but not globally: both
    # colon generators vanish modulo link + M*colon (mu = 0), yet the link
    # alone does not generate the colon (x)
    ring = PolyRing(("x", "Y"), weights=(1, 0))
    link = Ideal(ring, ["x^2", "x*(1+Y)"])
    ambient = Ideal(ring, ["x", "Y + 1"])
    colon = Ideal(ring, ["x*(1+Y)", "x*Y"])
    assert link.colon(ambient) == colon
    pair = LinkagePair(ambient=ambient, link=link, colon=colon, codim=1)
    assert minimal_generator_count(pair) == 0
    assert pair.presentation.independent == ()
    assert link != colon
    assert unmixed_part(pair) == Ideal(ring, ["x", "Y + 1"])
    assert link.colon(link) == Ideal(ring, ["1"])  # what skipping the check gives


def test_quotient_ring_pair_over_f2():
    # the colon of the verify-quotient pipeline: d*a inside c and c inside d
    _, ideal, link = built_in_row("verify-quotient", "F2")
    pair = build_linkage(ideal, link)
    link_basis = pair.link.groebner_basis()
    for f in pair.colon.generators:
        for g in pair.ambient.generators:
            assert link_basis.contains(f * g)
    for g in pair.link.generators:
        assert pair.colon.contains(g)


@pytest.mark.parametrize("field", ["F2", "Q"])
def test_segre_ideal_is_unmixed(field):
    # verify-quotient reads quasi-Gorenstein from mu = 1, which presumes
    # the Segre ideal unmixed; its row has no deformation variable, so the
    # pipeline's own unmixed step never runs on it
    _, ideal, link = built_in_row("verify-quotient", field)
    assert is_unmixed(build_linkage(ideal, link)) is True


@pytest.mark.parametrize("field", ["F2", "Q"])
def test_regularity_agrees_with_hilbert_functions(field):
    # a homogeneous v of degree e that is regular on R/a gives the exact
    # sequence 0 -> (R/a)(-e) -> R/a -> R/(a + v) -> 0, so
    # HF(R/(a + v))(n) = HF(R/a)(n) - HF(R/a)(n - e).  Checked only up to
    # degree 10, the identity is a necessary condition, not a proof: here
    # it must hold for the regular Y and fail for the zero divisor Z1
    ring, ideal, _ = built_in_row("verify-counterexample", field)
    for name, regular in (("Y", True), ("Z1", False)):
        v = ring.variable(name)
        e = v.weighted_degree()
        cut = ideal + Ideal(ring, [v])
        identity = all(
            cut.hilbert_function(n) == ideal.hilbert_function(n) - ideal.hilbert_function(n - e)
            for n in range(11)
        )
        assert ideal.is_regular_element(v) is regular
        assert identity is regular


def test_select_complete_intersection_small(rxy):
    ambient = Ideal(rxy, ["x^2", "x*y"])
    link = select_complete_intersection(ambient)
    assert len(link.generators) == 1
    pair = build_linkage(ambient, link)
    assert pair.codim == 1


def test_select_complete_intersection_codim2():
    ring = PolyRing(("x", "y", "z"))
    ambient = Ideal(ring, ["x*y", "z^2", "x^3"])
    link = select_complete_intersection(ambient)
    assert len(link.generators) == 2
    assert Ideal(ring, link.generators).codimension() == 2


def test_select_complete_intersection_needs_generator_subset():
    # every pair of these generators shares a variable, so no subset is a
    # complete intersection of codimension 2; the selector must say so
    # rather than invent combinations
    ring = PolyRing(("x", "y", "z"))
    ambient = Ideal(ring, ["x*y", "x*z", "y*z"])
    with pytest.raises(InputError):
        select_complete_intersection(ambient)


def test_mu_is_link_independent_at_full_scale():
    # the automatic selector picks a different complete intersection than
    # the shipped link (two plain minors, the deformed minor, three cubes);
    # the canonical module count must not depend on the chosen link
    _, ambient, _ = built_in_row("verify-counterexample", "F2")
    link = select_complete_intersection(ambient)
    assert len(link.generators) == 6
    pair = build_linkage(ambient, link)
    assert minimal_generator_count(pair) == 9


def test_select_rejects_hopeless(rxy):
    ambient = Ideal(rxy, ["x", "y"])  # codim 2, but only one usable pair
    # (x) and (y) do give a regular sequence, so this must succeed
    link = select_complete_intersection(ambient)
    assert len(link.generators) == 2
    impossible = Ideal(rxy, ["x", "x + x^2"])
    with pytest.raises(InputError):
        # codim(ambient) is 1 but asking for 2 cannot be satisfied
        select_complete_intersection(impossible, codim=2)
