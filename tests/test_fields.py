import pytest

from quasigor.errors import InputError
from quasigor.fields import QQ, PrimeField, is_prime


def test_prime_check():
    assert [p for p in range(2, 40) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert is_prime(2**31 - 1)
    assert not is_prime(1)
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(41 * 43)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5 and 7
    assert is_prime(65537)  # p - 1 = 2^16: Miller-Rabin squares until it reaches -1


def test_rationals_are_exact():
    third = QQ.scalar(1, 3)
    assert QQ.add(third, QQ.add(third, third)) == QQ.one
    assert QQ.scalar(2, 4) == QQ.scalar(1, 2)
    assert QQ.format(QQ.scalar(-3, 6)) == "-1/2"
    assert QQ.div(QQ.one, QQ.scalar(7)) == QQ.scalar(1, 7)
    with pytest.raises(ZeroDivisionError):
        QQ.div(QQ.one, QQ.zero)


def test_rational_division_stays_exact_on_int_operands():
    half = QQ.div(1, 2)
    assert half == QQ.scalar(1, 2)
    assert not isinstance(half, float)
    assert QQ.format(QQ.div(2, 4)) == "1/2"
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)


def test_normalize_gives_the_canonical_multiple():
    unit, terms = QQ.normalize(((2, QQ.scalar(-3, 2)), (1, QQ.scalar(6, 7)), (0, QQ.scalar(9))))
    assert terms == ((2, 7), (1, -4), (0, -42))
    assert all(type(c) is int for _, c in terms)
    assert unit == QQ.scalar(-3, 14)
    f7 = PrimeField(7)
    assert f7.normalize(((1, 3), (0, 5))) == (3, ((1, 1), (0, 4)))
    monic = ((1, 1), (0, 5))
    assert f7.normalize(monic)[1] is monic


def test_prime_field_arithmetic():
    f5 = PrimeField(5)
    assert f5.scalar(7) == 2
    assert f5.add(3, 4) == 2
    assert f5.mul(3, 4) == 2
    assert f5.inv(2) == 3
    assert f5.scalar(1, 2) == 3  # rational literal 1/2 maps to the inverse
    assert f5.neg(0) == 0
    with pytest.raises(InputError):
        f5.scalar(1, 5)  # denominator not invertible


def test_non_prime_modulus_rejected():
    with pytest.raises(InputError):
        PrimeField(4)
    with pytest.raises(InputError):
        PrimeField(1)


def test_field_equality():
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(5)
    assert QQ == type(QQ)()
    assert QQ != PrimeField(2)
