"""Built-in data for the deformed-Segre verification pipelines.

The Segre product of k[x,y,z]/(x^3) and k[a,b,c]/(a^3) is presented on
the nine pairwise products Z1..Z9; its defining ideal consists of the 2x2
minors of the generic 3x3 matrix plus the cubic monomials inherited from
the two cube relations.  The deformed ring adds a weight-0 variable Y and
replaces two of the minors by Y-deformed trinomials, so that setting
Y -> 0 recovers the Segre product.  The generator lists live in
human-readable text files under ``data/`` and are parsed on demand into a
ring over the requested field.
"""

from __future__ import annotations

from importlib import resources

from .fields import QQ, PrimeField, RationalField, parse_field
from .ideals import Ideal
from .parse import parse_generators, parse_ring
from .rings import PolyRing


def data_text(name: str) -> str:
    return (resources.files("quasigor") / "data" / name).read_text(encoding="utf-8")


def resolve_field(spec):
    """Accepts a field object or one of the labels Q, F<p>, Fp:<p>."""
    if isinstance(spec, (RationalField, PrimeField)):
        return spec
    return parse_field(spec)


def _ring_from_file(name: str, field) -> PolyRing:
    declared = parse_ring(data_text(name))
    field = resolve_field(field)
    if field == declared.field:
        return declared
    return PolyRing(declared.names, field, declared.weights)


def deformation_ring(field=QQ) -> PolyRing:
    """Ten-variable ambient ring: Z1..Z9 of weight 1 and Y of weight 0."""
    return _ring_from_file("deformation_ring.txt", field)


def deformation_ideal(ring: PolyRing) -> Ideal:
    return Ideal(ring, parse_generators(data_text("deformation_ideal.txt"), ring))


def deformation_link(ring: PolyRing) -> Ideal:
    return Ideal(ring, parse_generators(data_text("link_ideal.txt"), ring))


def segre_ring(field=QQ) -> PolyRing:
    """Nine-variable ambient ring of the Segre product itself."""
    return _ring_from_file("segre_ring.txt", field)


def segre_ideal(ring: PolyRing) -> Ideal:
    return Ideal(ring, parse_generators(data_text("segre_ideal.txt"), ring))


def segre_link(ring: PolyRing) -> Ideal:
    return Ideal(ring, parse_generators(data_text("segre_link_ideal.txt"), ring))
