from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from biblio import decimal_str, rational_json, rational_str, round_half_up
from oracles import decimal_half_up, decimal_quantized

rationals = st.fractions(max_denominator=10_000, min_value=-10_000, max_value=10_000)


def test_half_up_at_halves():
    assert round_half_up(Fraction(1, 2)) == 1
    assert round_half_up(Fraction(3, 2)) == 2
    assert round_half_up(Fraction(5, 2)) == 3
    assert round_half_up(Fraction(-1, 2)) == -1
    assert round_half_up(Fraction(-3, 2)) == -2


def test_half_up_examples():
    assert round_half_up(Fraction(38048, 100)) == 380
    assert round_half_up(Fraction(105, 10)) == 11
    assert round_half_up(Fraction(89, 100)) == 1


@given(rationals)
def test_half_up_matches_decimal_module(x):
    assert round_half_up(x) == decimal_half_up(x)


@given(rationals)
def test_half_up_is_an_integer_within_half(x):
    r = round_half_up(x)
    assert isinstance(r, int)
    assert abs(Fraction(r) - x) <= Fraction(1, 2)


def test_decimal_str_examples():
    assert decimal_str(Fraction(6850, 86), 1) == "79.7"
    assert decimal_str(Fraction(6225, 86), 1) == "72.4"
    assert decimal_str(Fraction(57, 22), 2) == "2.59"
    assert decimal_str(Fraction(42, 44), 2) == "0.95"
    assert decimal_str(Fraction(11, 12), 4) == "0.9167"
    assert decimal_str(Fraction(380 * 100, 38048), 3) == "0.999"
    assert decimal_str(Fraction(0), 2) == "0.00"
    assert decimal_str(Fraction(-1, 8), 2) == "-0.13"


def test_decimal_str_zero_places():
    assert decimal_str(Fraction(5, 2), 0) == "3"


# Exact halves at up to seven places, so every rounding position meets them.
halves = st.builds(
    lambda k, e: Fraction(2 * k + 1, 2 * 10**e),
    st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=0, max_value=7),
)


@given(rationals | halves, st.integers(min_value=0, max_value=6))
def test_decimal_str_is_decimal_quantize_half_up(x, places):
    assert decimal_str(x, places) == decimal_quantized(x, places)


@given(rationals, st.integers(min_value=0, max_value=6))
def test_decimal_str_round_trips_within_half_ulp(x, places):
    text = decimal_str(x, places)
    back = Fraction(text)
    assert abs(back - x) <= Fraction(1, 2 * 10**places)


def test_rational_round_trip():
    for f in (Fraction(11, 12), Fraction(-3, 7), Fraction(4), Fraction(0)):
        assert Fraction(rational_str(f)) == f
    assert rational_str(Fraction(11, 12)) == "11/12"
    assert rational_str(Fraction(4)) == "4"


def test_rational_json_shape():
    assert rational_json(Fraction(11, 12), 4) == {
        "rational": "11/12",
        "decimal": "0.9167",
    }
