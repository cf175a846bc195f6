import pytest

from quasigor.errors import ParseError
from quasigor.fields import QQ, PrimeField
from quasigor.parse import parse_generators, parse_polynomial, parse_ring


def test_paper_style_ring():
    R = parse_ring("field Q; vars Z1..Z9,Y; weights 1,1,1,1,1,1,1,1,1,0")
    assert R.names == ("Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Y")
    assert R.weights == (1, 1, 1, 1, 1, 1, 1, 1, 1, 0)
    assert R.field == QQ


def test_prime_field_ring():
    R = parse_ring("field F2; vars x")
    assert R.field == PrimeField(2)
    assert R.names == ("x",)


def test_duplicate_variable_rejected():
    with pytest.raises(ParseError, match="duplicate variable"):
        parse_ring("field Q; vars x; vars x")
    with pytest.raises(ParseError, match="duplicate variable"):
        parse_ring("field Q; vars x,x")


def test_non_prime_modulus_rejected():
    with pytest.raises(ParseError, match="not prime"):
        parse_ring("field F6; vars x")


def test_malformed_ring_has_position():
    with pytest.raises(ParseError) as err:
        parse_ring("field Q\nvars x,")
    assert err.value.line == 2
    with pytest.raises(ParseError, match="unknown statement"):
        parse_ring("field Q; stuff x")
    with pytest.raises(ParseError, match="missing 'field'"):
        parse_ring("vars x")
    with pytest.raises(ParseError, match="weights"):
        parse_ring("field Q; vars x,y; weights 1")


def test_newlines_and_comments():
    R = parse_ring("# a ring\nfield Q\nvars x,y  # two variables\n")
    assert R.names == ("x", "y")


def test_lex_order_declaration():
    R = parse_ring("field Q; vars x,y; order lex")
    assert R.parse("y^3 + x").leading_monomial() == (1, 0)


def test_unknown_variable_position():
    R = parse_ring("field Q; vars x")
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + q", R)
    assert err.value.column == 5


def test_division_only_in_coefficients():
    R = parse_ring("field Q; vars x")
    assert parse_polynomial("3/4*x", R) == R.parse("x").scaled(QQ.scalar(3, 4))
    with pytest.raises(ParseError, match="integer literals"):
        parse_polynomial("x/2", R)


def test_nonsense_rejected():
    R = parse_ring("field Q; vars x")
    for bad in ("x +", "^2", "(x", "x ** 2", "2x"):
        with pytest.raises(ParseError):
            parse_polynomial(bad, R)


def test_generator_files():
    R = parse_ring("field Q; vars x,y")
    gens = parse_generators("# comment\nx^2\n\nx*y  # tail comment\n", R)
    assert [str(g) for g in gens] == ["x^2", "x*y"]
    with pytest.raises(ParseError, match="line 2"):
        parse_generators("x\nx+\n", R)


def test_parenthesized_expressions():
    R = parse_ring("field Q; vars x,y")
    assert R.parse("(x+y)*(x-y)") == R.parse("x^2-y^2")
    assert R.parse("-(x-y)") == R.parse("y-x")


def test_non_ascii_digits_rejected():
    # Unicode decimal digits are not integer literals in the ASCII grammar
    with pytest.raises(ParseError, match="unexpected character"):
        parse_ring("field Q; vars x,y; weights 1,\u0662")
    R = parse_ring("field Q; vars x,y")
    for bad in ("x^\u0663 + 5*y", "x^3 + \u0665*y"):
        with pytest.raises(ParseError, match="unexpected character"):
            R.parse(bad)
