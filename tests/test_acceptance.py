"""Acceptance suite: one test per criterion, one printed line per outcome.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is exact (integer/boolean equality, no tolerances)
and finishes in a few minutes, dominated by the two full verification
pipelines.
"""

import json
import random
from contextlib import contextmanager
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from quasigor.divisors import (
    CurvePoint,
    EllipticCohomologyTable,
    P1CohomologyTable,
    QDivisor,
    generator_degrees,
    h0,
    h1,
    parse_divisor,
    quasi_gorenstein_hilbert_check,
    segre_local_cohomology_dim,
    watanabe_gorenstein,
)
from quasigor.groebner import buchberger, s_polynomial
from quasigor.ideals import Ideal
from quasigor.linkage import built_in_row, verify_counterexample, verify_quotient_ring
from quasigor.rings import PolyRing

from oracles import (
    ci_hilbert_coefficient,
    dimension_by_subset_scan,
    membership_by_linear_algebra,
    random_polynomial,
)

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
DATA_DIR = Path(__file__).resolve().parent / "data"

D1 = parse_divisor("2*P(0) - 5/8*P(1) - 5/8*P(2) - 5/8*P(3)")
D2 = parse_divisor(
    "5*P(0) - 1/2*P(1) - 1/2*P(2) - 1/2*P(3) - 1/2*P(4) - 1/2*P(5)"
    " - 1/2*P(6) - 1/2*P(7) - 1/2*P(8) - 1/2*P(9)"
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}", flush=True)
        raise
    print(f"[PASS] criterion {number}: {description}", flush=True)


def check_full_pipeline(report):
    assert report.summary["codim_c"] == 6
    assert report.summary["codim_a"] == 6
    assert report.summary["codims_equal"] is True
    assert report.summary["mu_canonical"] == 9
    assert report.summary["quasi_gorenstein"] is False
    assert report.summary["y_regular"] is True
    assert report.passed


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def check_pinned_report(report, reference):
    """The report's JSON, without the timings, equals ``reference``."""
    payload = report.to_json_dict()
    del payload["timings_ms"]
    assert json.dumps(payload, indent=2, sort_keys=True) == json.dumps(
        reference, indent=2, sort_keys=True
    )


def test_criterion_1_counterexample_over_q():
    with criterion(1, "deformed Segre ring over Q: codims 6/6, mu = 9, Y regular"):
        report = verify_counterexample("Q")
        check_full_pipeline(report)
        check_pinned_report(report, read_json(DATA_DIR / "verify-counterexample-Q.json"))


def test_criterion_2_counterexample_over_f2():
    with criterion(2, "same flags over F2"):
        report = verify_counterexample("F2")
        check_full_pipeline(report)
        # the report the benchmark checks, without the CLI's digest
        reference = read_json(REFERENCE_DIR / "verify-counterexample-F2.json")
        del reference["inputs_digest"]
        check_pinned_report(report, reference)


def test_criterion_3_quotient_ring_is_quasi_gorenstein():
    with criterion(3, "quotient ring: induced link gives mu = 1"):
        report = verify_quotient_ring("Q")
        assert report.summary["mu_canonical"] == 1
        assert report.summary["quasi_gorenstein"] is True
        assert report.passed
        check_pinned_report(report, read_json(DATA_DIR / "verify-quotient-Q.json"))


def test_criterion_4_hilbert_cross_check():
    with criterion(4, "Hilbert function of the Segre ideal is 1,9,36,81,144,225"):
        _, ideal, _ = built_in_row("verify-quotient")
        expected = [1, 9, 36, 81, 144, 225]
        values = [ideal.hilbert_function(n) for n in range(6)]
        assert values == expected
        # oracle: square of the hypersurface Hilbert function
        for n, value in enumerate(values):
            hypersurface = comb(n + 2, 2) - (comb(n - 1, 2) if n >= 1 else 0)
            assert value == hypersurface**2


def test_criterion_5_divisor_suite():
    with criterion(5, "divisor suite: h0/h1, generators {2,2,9}/{3,8,8}, Gorenstein at a=5"):
        for n in range(11):
            assert h0(D2.floor_multiple(2 * n)) == n + 1
        assert h1(D2.floor_multiple(3)) == 2
        assert generator_degrees(D2, 18) == ((2, 2, 9), (18,))
        assert generator_degrees(D1, 24) == ((3, 8, 8), (24,))
        for divisor in (D1, D2):
            assert watanabe_gorenstein(divisor, 5)
            for a in (1, 2, 3, 4):
                assert not watanabe_gorenstein(divisor, a)


def test_criterion_6_kuenneth_witnesses():
    with criterion(6, "Kuenneth witnesses: H^2 dimension 2; elliptic square passes at a=0"):
        t1, t2 = P1CohomologyTable(D1), P1CohomologyTable(D2)
        assert segre_local_cohomology_dim(t1, t2, 2, 3) == 2
        elliptic = EllipticCohomologyTable()
        assert segre_local_cohomology_dim(elliptic, elliptic, 2, 0) == 2
        assert quasi_gorenstein_hilbert_check(elliptic, elliptic, 0, range(-5, 6))


def _spoly_closure(gb):
    polys = list(gb.polys)
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            assert not gb.normal_form(s_polynomial(polys[i], polys[j]))


def test_criterion_7_property_suites():
    with criterion(7, "property suites: S-closure, membership, dimension, CI series, RR/Serre"):
        rng = random.Random(2024)
        ring3 = PolyRing(("x", "y", "z"))

        # membership against the degree-bounded linear oracle, 100 ideals;
        # S-polynomial closure asserted on every one of those bases
        checked = 0
        while checked < 100:
            gens = [random_polynomial(ring3, rng) for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if g]
            if not gens:
                continue
            gb = buchberger(gens)
            _spoly_closure(gb)
            f = random_polynomial(ring3, rng)
            if gb.contains(f):
                assert any(
                    membership_by_linear_algebra(f, gens, slack=s) for s in (3, 6, 9, 12)
                )
            else:
                assert not membership_by_linear_algebra(f, gens)
            checked += 1

        # the link ideal of the built-in pipeline also closes
        _spoly_closure(built_in_row("verify-counterexample")[2].groebner_basis())

        # dimension vs the exhaustive subset oracle, 50 monomial ideals
        ring4 = PolyRing(("x", "y", "z", "w"))
        for _ in range(50):
            monomials = []
            for _ in range(rng.randint(1, 5)):
                m = [0, 0, 0, 0]
                for _ in range(rng.randint(1, 3)):
                    m[rng.randrange(4)] += 1
                monomials.append(ring4.polynomial({tuple(m): ring4.field.one}))
            ideal = Ideal(ring4, monomials)
            oracle = dimension_by_subset_scan(ideal.groebner_basis().leading_monomials(), 4)
            assert ideal.dimension() == oracle

        # complete-intersection Hilbert functions vs the generating function
        gens3 = ring3.gens()
        for _ in range(20):
            codim = rng.randint(1, 3)
            degrees = [rng.randint(1, 4) for _ in range(codim)]
            ideal = Ideal(ring3, [gens3[i] ** d for i, d in enumerate(degrees)])
            for n in range(9):
                assert ideal.hilbert_function(n) == ci_hilbert_coefficient(degrees, 3, n)

        # Riemann-Roch and Serre duality over 200 random integral divisors
        canonical_shift = QDivisor({CurvePoint.infinity(): Fraction(-2)})
        points = [CurvePoint.finite(i) for i in range(-4, 8)] + [CurvePoint.infinity()]
        for _ in range(200):
            chosen = rng.sample(points, rng.randint(1, 5))
            E = QDivisor({p: Fraction(rng.randint(-7, 7)) for p in chosen})
            deg = int(E.degree())
            assert h0(E) - h1(E) == deg + 1
            assert h1(E) == h0(canonical_shift - E)
