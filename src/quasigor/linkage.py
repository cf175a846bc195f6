"""Canonical modules via liaison and the quasi-Gorenstein certificates.

For an ideal a of codimension c containing a complete intersection ideal
c0 generated by exactly c elements, the colon ideal d = c0 : a presents
the canonical module of the unmixed part of ring/a as d/c0.  Its minimal
generator count mu is computed by graded Nakayama at the ideal M of all
variables: reduce each generator of d against a Groebner basis of
c0 + M*d and take the exact rank of the resulting normal forms over the
coefficient field.  mu equals 1 exactly when the module is cyclic, which
together with unmixedness (checked through the liaison identity
c0 : (c0 : a) = unmixed part of a) is the quasi-Gorenstein certificate.
That second colon divides by the generators of d whose normal forms are
independent, together with c0, once reduced-basis equality certifies that
they generate d.  On a positively graded ring with homogeneous d, graded
Nakayama implies that and the certificate always holds, as on both
built-in rows; a weight-0 variable keeps local minimality at M from
implying it, so without the certificate all of d's generators are used.

The verification commands run one driver over ``_PIPELINES``, a table
with one row per built-in ring naming its data files, its expected mu and
its deformation variable; ``built_in_row`` loads a row over any field.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

from . import linalg
from .errors import InputError, VerificationError
from .fields import field_label, parse_field
from .ideals import Ideal
from .parse import parse_generators, parse_ring
from .reporting import VerificationReport
from .rings import PolyRing


@dataclass(frozen=True)
class LinkagePair:
    """An ideal, a complete-intersection link inside it, and their colon."""

    ambient: Ideal      # the ideal being studied
    link: Ideal         # the complete intersection contained in it
    colon: Ideal        # link : ambient, presenting the canonical module
    codim: int

    @property
    def ring(self):
        return self.ambient.ring

    @cached_property
    def presentation(self) -> "CanonicalModulePresentation":
        """The Nakayama count of this pair, computed once."""
        return present_canonical_module(self)


@dataclass(frozen=True)
class CanonicalModulePresentation:
    """The canonical module of the unmixed part as colon/link, with its
    minimal generator count over the local ring at the irrelevant ideal."""

    pair: LinkagePair
    generator_images: tuple
    min_generators: int
    independent: tuple  # colon generators whose images are a k-basis of all images


def build_linkage(ambient: Ideal, link: Ideal) -> LinkagePair:
    """Validate the complete-intersection certificate and take the colon.

    Requires every generator of ``link`` to lie in ``ambient`` and
    codim(link) == codim(ambient) == number of link generators; a failure
    of either is reported rather than silently repaired.
    """
    if ambient.ring != link.ring:
        raise InputError("ambient ideal and link live in different rings")
    ambient_gb = ambient.groebner_basis()
    link_gens = [g for g in link.generators if g]
    for g in link_gens:
        if not ambient_gb.contains(g):
            raise InputError(f"link generator {g} is not in the ambient ideal")
    codim_link = link.codimension()
    codim_ambient = ambient.codimension()
    if codim_link != codim_ambient:
        raise InputError(
            f"codimension mismatch: link has {codim_link}, ambient has {codim_ambient}"
        )
    if len(link_gens) != codim_link:
        raise InputError(
            f"{len(link_gens)} generators cannot be a complete intersection of "
            f"codimension {codim_link}"
        )
    colon = link.colon(ambient)
    return LinkagePair(ambient=ambient, link=link, colon=colon, codim=codim_link)


def present_canonical_module(pair: LinkagePair) -> CanonicalModulePresentation:
    """Nakayama count: mu = rank over k of the normal forms of the colon
    generators against a basis of link + M*colon, M the ideal of all
    variables.

    The count is taken over the local ring at M, so it is meaningful for
    ideals contained in M (the graded/local situation); an ideal with a
    unit in the localization gives mu = 0 because the module localizes to
    zero there.
    """
    ring = pair.ring
    field = ring.field
    irrelevant = Ideal(ring, ring.gens())
    cone = pair.link + (irrelevant * pair.colon)
    basis = cone.groebner_basis()
    generators = [g for g in pair.colon.generators if g]
    images = tuple(basis.normal_form(g) for g in generators)
    picked = linalg.independent(linalg.coefficient_vectors(images, field), field)
    return CanonicalModulePresentation(
        pair=pair,
        generator_images=images,
        min_generators=len(picked),
        independent=tuple(generators[j] for j in picked),
    )


def minimal_generator_count(pair: LinkagePair) -> int:
    return pair.presentation.min_generators


def is_quasi_gorenstein(pair: LinkagePair) -> bool:
    """True iff the linkage module is cyclic (mu = 1).

    This certifies the canonical module of the unmixed part; pair it with
    ``is_unmixed`` when the ideal is not known to be unmixed.
    """
    return minimal_generator_count(pair) == 1


def unmixed_part(pair: LinkagePair) -> Ideal:
    """link : (link : ambient), the intersection of the top-dimensional
    primary components of the ambient ideal.

    The divisor is link + the Nakayama-independent colon generators when
    that ideal has the same reduced basis as the colon, else the colon.
    """
    divisor = Ideal(pair.ring, pair.link.generators + pair.presentation.independent)
    if divisor != pair.colon:
        divisor = pair.colon
    return pair.link.colon(divisor)


def is_unmixed(pair: LinkagePair) -> bool:
    return unmixed_part(pair) == pair.ambient


def select_complete_intersection(ambient: Ideal, codim: int | None = None) -> Ideal:
    """Convenience: search the given generators for a complete-intersection
    link (greedy on leading-term disjointness, verified by the codimension
    certificate, with backtracking).  Never replaces a caller-chosen link.
    """
    target = ambient.codimension() if codim is None else codim
    ring = ambient.ring
    candidates = [g for g in ambient.generators if g]
    order_key = ring.order.key
    candidates.sort(key=lambda g: (g.weighted_degree(), order_key(g.leading_monomial())))

    def disjoint(g, chosen):
        support = {i for m, _ in g.terms for i, e in enumerate(m) if e}
        for h in chosen:
            hs = {i for m, _ in h.terms for i, e in enumerate(m) if e}
            if not support.isdisjoint(hs):
                return False
        return True

    def extend(chosen, pool):
        if len(chosen) == target:
            return list(chosen)
        ranked = sorted(
            range(len(pool)),
            key=lambda i: (not disjoint(pool[i], chosen), i),
        )
        for i in ranked:
            g = pool[i]
            attempt = chosen + [g]
            if Ideal(ring, attempt).codimension() != len(attempt):
                continue
            result = extend(attempt, pool[i + 1 :])
            if result is not None:
                return result
        return None

    found = extend([], candidates)
    if found is None:
        raise InputError("no complete-intersection link found among the generators")
    return Ideal(ring, found)


# ---------------------------------------------------------------------------
# verification pipelines over the built-in data


def _timed(report: VerificationReport, label: str, fn):
    start = time.perf_counter()
    try:
        value = fn()
    except Exception as exc:  # annotate which step failed, keep the cause
        raise VerificationError(label, str(exc)) from exc
    report.timings_ms[label] = (time.perf_counter() - start) * 1000.0
    return value


# command -> (ring, ideal and link files under data/, expected mu,
# deformation variable); a ring with a deformation variable also gets its
# regularity and the unmixedness of the ideal checked.  The first row is
# the Segre ring plus a variable Y, graded positively by deg Z_ij = r_i + c_j
# with r = (1,1,1), c = (0,1,1) and deg Y = 2, so that its ideal, its link
# and Y are homogeneous; Y -> 0 maps its ideal and link files, line by
# line, onto the second row's: the Segre product of k[x,y,z]/(x^3) and
# k[a,b,c]/(a^3) and its induced link, standard graded.
_PIPELINES = {
    "verify-counterexample": ("deformation_ring.txt", "deformation_ideal.txt", "link_ideal.txt", 9, "Y"),
    "verify-quotient": ("segre_ring.txt", "segre_ideal.txt", "segre_link_ideal.txt", 1, None),
}


def built_in_row(command: str, field="Q"):
    """(ring, ideal, link) of a built-in row: the declared ring rebuilt
    over the field labelled ``field``, with the same names and weights."""
    data = resources.files("quasigor") / "data"
    files = _PIPELINES[command][:3]
    ring_text, *ideal_texts = ((data / name).read_text(encoding="utf-8") for name in files)
    declared = parse_ring(ring_text)
    ring = PolyRing(declared.names, parse_field(field), declared.weights)
    ideal, link = (Ideal(ring, parse_generators(text, ring)) for text in ideal_texts)
    return ring, ideal, link


def _verify(command: str, field) -> VerificationReport:
    """The liaison pipeline on one built-in ring: codimensions, canonical
    module generator count, then colon stability of the deformation
    variable and unmixedness where the ring has one.

    Over Q and F2 every step is asserted; other prime fields run the same
    computation flagged experimental, with nothing asserted.
    """
    expected_mu, deformation = _PIPELINES[command][3:]
    ring, ambient, link = built_in_row(command, field)
    label = field_label(ring.field)
    asserted = label in ("Q", "F2")
    report = VerificationReport(command=command, field_label=label, experimental=not asserted)

    codim_link = _timed(report, "codim-link", link.codimension)
    report.add("codim-link", codim_link, 6, asserted)
    codim_ambient = _timed(report, "codim-ambient", ambient.codimension)
    report.add("codim-ambient", codim_ambient, 6, asserted)
    report.add("codims-equal", codim_link == codim_ambient, True, asserted)

    pair = _timed(report, "linkage-colon", lambda: build_linkage(ambient, link))
    mu = _timed(report, "canonical-min-gens", lambda: minimal_generator_count(pair))
    report.add("canonical-min-gens", mu, expected_mu, asserted)
    report.add("quasi-gorenstein", mu == 1, expected_mu == 1, asserted)
    report.summary = {
        "codim_c": codim_link,
        "codim_a": codim_ambient,
        "codims_equal": codim_link == codim_ambient,
        "mu_canonical": mu,
        "quasi_gorenstein": mu == 1,
    }
    if deformation is None:
        return report

    y = ring.variable(deformation)
    y_regular = _timed(report, "regular-element", lambda: ambient.is_regular_element(y))
    report.add("regular-element", y_regular, True, asserted)
    unmixed = _timed(report, "unmixed", lambda: is_unmixed(pair))
    report.add("unmixed", unmixed, True, asserted)
    report.summary.update(y_regular=y_regular, unmixed=unmixed)
    return report


def verify_counterexample(field="Q") -> VerificationReport:
    """The deformed Segre ring R: mu = 9, Y regular, the ideal unmixed."""
    return _verify("verify-counterexample", field)


def verify_quotient_ring(field="Q") -> VerificationReport:
    """The Segre product R/yR itself: the induced link gives mu = 1."""
    return _verify("verify-quotient", field)
