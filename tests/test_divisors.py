import hashlib
import random
import warnings
from fractions import Fraction

import pytest

from quasigor.divisors import (
    CurvePoint,
    EllipticCohomologyTable,
    P1CohomologyTable,
    QDivisor,
    generator_degrees,
    h0,
    h1,
    P1_RING,
    parse_divisor,
    quasi_gorenstein_hilbert_check,
    section_basis,
    segre_hilbert,
    segre_local_cohomology_dim,
    watanabe_gorenstein,
)
from quasigor.errors import InputError, ParseError, UnsupportedRequestError
from quasigor.ideals import exact_quotient
from quasigor.linalg import rank
from quasigor.rings import Polynomial

from oracles import section_basis_by_polynomials, vanishing_order


D1 = parse_divisor("2*P(0) - 5/8*P(1) - 5/8*P(2) - 5/8*P(3)")
D2 = parse_divisor(
    "5*P(0) - 1/2*P(1) - 1/2*P(2) - 1/2*P(3) - 1/2*P(4) - 1/2*P(5)"
    " - 1/2*P(6) - 1/2*P(7) - 1/2*P(8) - 1/2*P(9)"
)


def random_integral_divisor(rng):
    points = [CurvePoint.finite(i) for i in range(-3, 7)] + [CurvePoint.infinity()]
    chosen = rng.sample(points, rng.randint(1, 4))
    return QDivisor({p: Fraction(rng.randint(-6, 6)) for p in chosen})


# ---------------------------------------------------------------------------
# floors


def test_floor_examples():
    assert D1.floor_multiple(0) == QDivisor({})
    for n in range(0, 6):
        floored = D2.floor_multiple(2 * n)
        assert floored.coefficient(CurvePoint.finite(0)) == 10 * n
        for i in range(1, 10):
            assert floored.coefficient(CurvePoint.finite(i)) == -n
        assert floored.degree() == n
    three = D2.floor_multiple(3)
    assert three.coefficient(CurvePoint.finite(0)) == 15
    assert three.coefficient(CurvePoint.finite(1)) == -2  # floor(-3/2)
    assert three.degree() == -3


def test_float_divisor_coefficients_are_refused():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    p = CurvePoint.finite(0)
    with pytest.raises(InputError, match="is a float"):
        QDivisor({p: 0.1})
    with pytest.raises(InputError, match="is a float"):
        QDivisor({p: 1}).scaled(0.5)
    assert QDivisor({p: "1/10"}).coefficient(p) == Fraction(1, 10)


def test_floor_superadditive_randomized():
    rng = random.Random(67)
    for _ in range(40):
        divisor = QDivisor(
            {
                CurvePoint.finite(i): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for i in range(rng.randint(1, 4))
            }
        )
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        lower = divisor.floor_multiple(m) + divisor.floor_multiple(n)
        upper = divisor.floor_multiple(m + n)
        for p in set(lower.support) | set(upper.support):
            assert lower.coefficient(p) <= upper.coefficient(p)


# ---------------------------------------------------------------------------
# cohomology of integral divisors (genus 0)


def test_h0_h1_examples():
    for n in range(0, 11):
        assert h0(D2.floor_multiple(2 * n)) == n + 1
    assert h1(D2.floor_multiple(3)) == 2
    minus_one = QDivisor({CurvePoint.finite(0): Fraction(-1)})
    assert h0(minus_one) == 0 and h1(minus_one) == 0
    with pytest.raises(InputError):
        h0(D1)  # not integral


def test_riemann_roch_and_serre_duality_randomized():
    rng = random.Random(71)
    canonical_shift = QDivisor({CurvePoint.infinity(): Fraction(-2)})
    for _ in range(200):
        E = random_integral_divisor(rng)
        deg = int(E.degree())
        assert h0(E) - h1(E) == deg + 1  # Riemann-Roch, genus 0
        dual = canonical_shift - E
        assert h1(E) == h0(dual)  # Serre duality with K = -2 points


# ---------------------------------------------------------------------------
# explicit sections


def test_section_basis_sizes_match_h0():
    for divisor in (D1, D2):
        for n in range(0, 20):
            space = section_basis(divisor, n)
            assert len(space) == h0(divisor.floor_multiple(n))


def test_section_basis_shape_for_level_two():
    space = section_basis(D2, 2)
    assert len(space) == 2
    w, z = P1_RING.gens()
    product = P1_RING.one()
    for i in range(1, 10):
        product = product * (w + z.scaled(P1_RING.field.scalar(i)))
    assert space.denominator == w**10
    assert space.numerators == (product * w, product * z)


def test_section_basis_level_nine_single_section():
    space = section_basis(D2, 9)
    assert len(space) == 1
    w, z = P1_RING.gens()
    product = P1_RING.one()
    for i in range(1, 10):
        product = product * (w + z.scaled(P1_RING.field.scalar(i)))
    assert space.numerators[0] == product**5
    assert space.denominator == w**45


def test_sections_satisfy_pole_constraints():
    # div(f/g) + floor(nD) >= 0 at every point of the divisor's support
    for divisor, n in ((D1, 3), (D1, 8), (D2, 2), (D2, 9), (D2, 11)):
        space = section_basis(divisor, n)
        floored = divisor.floor_multiple(n)
        for numerator in space.numerators:
            for point in floored.support:
                prime = point.prime_form(P1_RING)
                order = vanishing_order(numerator, prime) - vanishing_order(
                    space.denominator, prime
                )
                assert order + floored.coefficient(point) >= 0


def test_empty_section_space():
    assert len(section_basis(D2, 1)) == 0
    assert section_basis(D2, 1).numerators == ()


def test_products_stay_in_span():
    # multiplicative closure: a product of level-m and level-n sections is
    # a combination of the level-(m+n) basis (checked by exact rank)
    field = P1_RING.field
    for divisor, m, n in ((D2, 2, 2), (D2, 2, 9), (D1, 3, 8)):
        target = section_basis(divisor, m + n)
        degree = int(
            sum(c for c in divisor.floor_multiple(m + n).coefficients.values() if c > 0)
        )

        def coefficients(form):
            row = [field.zero] * (degree + 1)
            for (ew, ez), c in form.terms:
                row[ez] = c
            return row

        basis_rows = [coefficients(b) for b in target.numerators]
        base_rank = rank(basis_rows, field)
        for left in section_basis(divisor, m).numerators:
            for right in section_basis(divisor, n).numerators:
                product = left * right
                # rescale onto the canonical denominator of level m+n
                adjust = exact_quotient(
                    target.denominator,
                    section_basis(divisor, m).denominator
                    * section_basis(divisor, n).denominator,
                )
                row = coefficients(product * adjust)
                assert rank(basis_rows + [row], field) == base_rank


def test_section_basis_agrees_with_polynomial_oracle_randomized():
    # integer coefficient lists inside, Fraction polynomials at the return:
    # the same spaces, term for term and scalar type for scalar type, as
    # products of prime-form powers in P1_RING
    rng = random.Random(97)
    points = [CurvePoint.finite(i) for i in range(-4, 7)] + [CurvePoint.infinity()]
    for _ in range(200):
        chosen = rng.sample(points, rng.randint(1, 4))
        divisor = QDivisor({p: Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for p in chosen})
        for n in range(13):
            space = section_basis(divisor, n)
            assert space == section_basis_by_polynomials(divisor, n), (divisor, n)
            for form in (space.denominator,) + space.numerators:
                assert all(type(c) is Fraction for _, c in form.terms)
        table = P1CohomologyTable(divisor)
        for n in range(-12, 13):
            assert table.h0(n) == h0(divisor.floor_multiple(n))
            assert table.h1(n) == h1(divisor.floor_multiple(n))


def test_divisors_do_no_polynomial_arithmetic_on_p1(monkeypatch):
    # section spaces and the generator search multiply integer coefficient
    # lists; only the relation bases in k[T] may use Polynomial arithmetic
    seen = []
    for name in ("__mul__", "__pow__"):
        original = getattr(Polynomial, name)

        def recording(self, other, _original=original):
            seen.append(self.ring)
            if isinstance(other, Polynomial):
                seen.append(other.ring)
            return _original(self, other)

        monkeypatch.setattr(Polynomial, name, recording)
    section_basis(D2, 9)
    assert generator_degrees(D2, 18) == ((2, 2, 9), (18,))
    assert P1_RING not in seen
    w, z = P1_RING.gens()
    assert w * z**2 and P1_RING in seen  # the recording sees P1_RING products


# ---------------------------------------------------------------------------
# generators and relations of section rings


def test_generator_degrees_d2():
    assert generator_degrees(D2, 18) == ((2, 2, 9), (18,))


def test_generator_degrees_d1():
    assert generator_degrees(D1, 24) == ((3, 8, 8), (24,))


def test_generator_degrees_polynomial_ring():
    assert generator_degrees(parse_divisor("P(0)"), 3) == ((1, 1), ())


def test_generator_degrees_integral_positive_divisor():
    # all-integer positive degree: standard graded, generators in degree 1
    gens, rels = generator_degrees(parse_divisor("2*P(0) + P(1)"), 4)
    assert set(gens) == {1}


def test_generator_degrees_with_fractional_positive_coefficients():
    # positive fractional coefficients leave products short of the target
    # floor at some point, so the short-prime correction runs; inf as well
    assert generator_degrees(parse_divisor("1/2*P(0)"), 4) == ((1, 2), ())
    assert generator_degrees(parse_divisor("1/2*inf"), 4) == ((1, 2), ())
    assert generator_degrees(parse_divisor("1/2*P(0) + 1/2*P(1)"), 6) == ((1, 2, 2), (4,))
    assert generator_degrees(parse_divisor("1/3*P(0) + 1/3*P(1) + 1/3*inf"), 8) == (
        (1, 3, 3, 3),
        (6, 6, 6),
    )


def hilbert_series_coefficients(gen_degrees, rel_degrees, bound):
    """Coefficients of t^0..t^bound in prod(1 - t^r) / prod(1 - t^d)."""
    coeffs = [1] + [0] * bound
    for r in rel_degrees:
        for n in range(bound, r - 1, -1):
            coeffs[n] -= coeffs[n - r]
    for d in gen_degrees:
        for n in range(d, bound + 1):
            coeffs[n] += coeffs[n - d]
    return coeffs


def random_fractional_divisor(rng):
    """A divisor of degree in (0, 1] with a fractional positive coefficient."""
    points = [CurvePoint.finite(i) for i in range(-2, 4)] + [CurvePoint.infinity()] * 2
    while True:
        chosen = set(rng.sample(points, rng.randint(1, 3)))
        divisor = QDivisor({p: Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for p in chosen})
        fractional = any(c > 0 and c.denominator > 1 for c in divisor.coefficients.values())
        if fractional and 0 < divisor.degree() <= 1:
            return divisor


def test_generator_degrees_match_hilbert_series_randomized():
    # a ring with at most one relation is a hypersurface, so its Hilbert
    # series prod(1 - t^r) / prod(1 - t^d) must reproduce h0(floor(n*D))
    rng = random.Random(89)
    bound, checked = 10, 0
    while checked < 40:
        divisor = random_fractional_divisor(rng)
        gens, rels = generator_degrees(divisor, bound)
        if len(rels) > 1:
            continue
        checked += 1
        expected = [h0(divisor.floor_multiple(n)) for n in range(bound + 1)]
        assert hilbert_series_coefficients(gens, rels, bound) == expected, divisor


def test_generator_degrees_many_generators_and_relations():
    divisor = parse_divisor("1/5*P(-3) + 1/4*P(-2) + 3/2*P(-1) - 1/5*P(0)")
    assert generator_degrees(divisor, 8) == (
        (1, 2, 2, 3, 4, 4, 5, 5),
        (4, 4, 5, 5, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 8, 8, 8),
    )
    # nothing new at levels 11 and 12
    assert generator_degrees(divisor, 12) == (
        (1, 2, 2, 3, 4, 4, 5, 5),
        (4, 4, 5, 5, 6, 6, 6, 6, 6, 7, 7, 7, 7, 7, 8, 8, 8, 9, 9, 9, 10),
    )


def test_generator_degrees_pinned_randomized():
    # rings of every shape, not only hypersurfaces: sha256 of the degrees
    # of 100 random divisors as the row reduction over all lifted earlier
    # relations computed them
    rng = random.Random(2026)
    results = []
    for _ in range(100):
        divisor = random_fractional_divisor(rng)
        bound = rng.randint(4, 10)
        results.append((str(divisor), bound, generator_degrees(divisor, bound)))
    assert sum(len(rels) > 1 for _, _, (_, rels) in results) >= 10
    digest = hashlib.sha256(str(results).encode()).hexdigest()
    assert digest == "f6cbfd97277014f1df114aa5ffa8654a1094efd02938a5954fd24c160b4ab1c9"


def test_generator_degrees_warns_when_bound_too_small():
    with pytest.warns(UserWarning, match="bound too small"):
        gens, rels = generator_degrees(D2.scaled(Fraction(1, 100)), 1)
    assert gens == () and rels == ()


def test_generator_degrees_negative_degree_is_the_ground_field():
    # no level of a negative-degree divisor has a section, whatever the bound
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert generator_degrees(parse_divisor("-P(0)"), 3) == ((), ())
        assert generator_degrees(D2.scaled(-1), 1) == ((), ())


# ---------------------------------------------------------------------------
# Gorenstein criterion


def test_watanabe_on_both_sample_divisors():
    assert watanabe_gorenstein(D1, 5)
    assert watanabe_gorenstein(D2, 5)
    for a in (1, 2, 3, 4):
        assert not watanabe_gorenstein(D1, a)
        assert not watanabe_gorenstein(D2, a)


def test_watanabe_fractional_part_arithmetic():
    # at P(1) the adjusted coefficient is 7/8 + 5/8 = 3/2: not integral
    assert not watanabe_gorenstein(D1, 1)
    # a divisor designed to pass at a = 1: K + D' - D = 0 needs deg D' = deg D + 2...
    pointy = parse_divisor("2*P(0) - 1/2*P(1) - 1/2*P(2) - 1/2*P(3) - 1/2*P(4)")
    assert watanabe_gorenstein(pointy, 1)
    with pytest.raises(InputError):
        watanabe_gorenstein(D1, 0)


# ---------------------------------------------------------------------------
# Segre / Kuenneth tables


def test_elliptic_table():
    table = EllipticCohomologyTable()
    assert [table.h0(n) for n in (-2, 0, 1, 2, 5)] == [0, 1, 3, 6, 15]
    for n in range(-4, 5):
        assert table.h1(n) == table.h0(-n)
        # Riemann-Roch on a genus-1 curve: h0 - h1 = deg = 3n
        assert table.h0(n) - table.h1(n) == 3 * n


def test_segre_hilbert_values():
    elliptic = EllipticCohomologyTable()
    assert segre_hilbert(elliptic, elliptic, 1) == 9
    assert segre_hilbert(elliptic, elliptic, 0) == 1
    t1, t2 = P1CohomologyTable(D1), P1CohomologyTable(D2)
    assert segre_hilbert(t1, t2, 3) == 0  # odd level kills the D2 side


def test_local_cohomology_dimensions():
    t1, t2 = P1CohomologyTable(D1), P1CohomologyTable(D2)
    assert segre_local_cohomology_dim(t1, t2, 2, 3) == 2  # 1*2 + 0*0
    elliptic = EllipticCohomologyTable()
    assert segre_local_cohomology_dim(elliptic, elliptic, 2, 0) == 2
    assert segre_local_cohomology_dim(elliptic, elliptic, 3, 1) == 0
    with pytest.raises(UnsupportedRequestError):
        segre_local_cohomology_dim(t1, t2, 1, 0)


def test_quasi_gorenstein_hilbert_check():
    elliptic = EllipticCohomologyTable()
    assert quasi_gorenstein_hilbert_check(elliptic, elliptic, 0, range(-5, 6))
    assert not quasi_gorenstein_hilbert_check(elliptic, elliptic, 1, range(-5, 6))
    # h1 = 0 on both sides: left side vanishes identically, so the check
    # can only pass when the right side vanishes as well
    flat1 = P1CohomologyTable(parse_divisor("P(0)"))
    ample_range = range(0, 4)
    assert not quasi_gorenstein_hilbert_check(flat1, flat1, 0, ample_range)


# ---------------------------------------------------------------------------
# parsing and printing


def test_divisor_parse_round_trip():
    for text in (
        "2*P(0) - 5/8*P(1) - 5/8*P(2) - 5/8*P(3)",
        "P(0)",
        "inf - P(-2)",
        "3/7*P(1) + inf",
    ):
        divisor = parse_divisor(text)
        assert parse_divisor(str(divisor)) == divisor


def test_divisor_parse_errors():
    # the grammar is ASCII: other decimal digits are not integers
    for bad in ("", "2*", "P(x)", "P(1", "1/0*P(0)", "2*P(0) +", "P(\u0663)", "\u0662*P(0)"):
        with pytest.raises(ParseError):
            parse_divisor(bad)


def test_divisor_arithmetic():
    sum_div = D1 + D1
    assert sum_div.coefficient(CurvePoint.finite(0)) == 4
    assert (D1 - D1) == QDivisor({})
    assert D1.scaled(8).is_integral()
