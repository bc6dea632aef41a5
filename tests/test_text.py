"""Polynomial text: parser behavior, error reporting, and the canonical formatter."""

import tracemalloc
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjointalg import (
    DegreeCapError,
    PolyParseError,
    TruncatedPoly,
    format_poly,
    parse_poly,
)

from adjointalg.text import _compress

from oracle import polys


@pytest.mark.parametrize(
    "text,p,cap,expected",
    [
        ("x + y", 2, 4, {"x": 1, "y": 1}),
        ("x^2y", 2, 4, {"xxy": 1}),
        ("2xy", 3, 4, {"xy": 2}),
        ("x*y", 2, 4, {"xy": 1}),
        ("x * y * x", 2, 4, {"xyx": 1}),
        ("0", 2, 4, {}),
        ("-x", 3, 4, {"x": 2}),
        ("x - x", 2, 4, {}),
        (" x ^ 2 ", 2, 4, {"xx": 1}),
        ("3x", 3, 4, {}),
        ("x^0", 2, 4, {"": 1}),
        ("2", 3, 4, {"": 2}),
        ("1 + x", 2, 4, {"": 1, "x": 1}),
        ("y^2x^2", 2, 4, {"yyxx": 1}),
        ("2x + x", 3, 4, {}),
        ("x+y-y", 5, 4, {"x": 1}),
    ],
)
def test_parse_examples(text, p, cap, expected):
    assert parse_poly(text, p, cap).terms == {w: c for w, c in expected.items() if c}


@pytest.mark.parametrize(
    "text",
    ["", "   ", "x +", "+", "^2", "x^", "x^y", "z", "x**y", "*x", "2 3", "x y z"]
    + [
        # Past the interpreter's 4300-digit limit on int(str).
        pytest.param("x + " + "9" * 5000 + "y", id="5000-digit-coefficient"),
        pytest.param("x^" + "9" * 5000, id="5000-digit-exponent"),
        # A superscript digit is no decimal digit.
        pytest.param("x^\u00b2", id="superscript-exponent"),
    ],
)
def test_parse_errors_carry_position(text):
    with pytest.raises(PolyParseError) as err:
        parse_poly(text, 2, 8)
    assert isinstance(err.value.position, int)
    assert err.value.position >= 0
    assert "position" in str(err.value)


def test_degree_cap_rejection():
    with pytest.raises(DegreeCapError) as err:
        parse_poly("x + x^7", 2, 5)
    assert err.value.term_text == "x^7"
    assert err.value.degree == 7
    assert err.value.cap == 5
    with pytest.raises(DegreeCapError):
        parse_poly("xyxyxy", 2, 5)
    with pytest.raises(DegreeCapError):
        parse_poly("x^200", 2, 10)


def test_huge_exponent_is_refused_before_the_word_is_built():
    tracemalloc.start()
    try:
        with pytest.raises(DegreeCapError) as err:
            parse_poly("x^100000000", 2, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (err.value.term_text, err.value.degree, err.value.cap) == ("x^100000000", 10**8, 10)
    assert peak < 1 << 20


def test_format_examples():
    assert format_poly(TruncatedPoly(2, 4)) == "0"
    assert format_poly(parse_poly("y + x", 2, 4)) == "x + y"
    assert format_poly(parse_poly("xxy", 2, 4)) == "x^2y"
    assert format_poly(parse_poly("2x", 3, 4)) == "2x"
    assert format_poly(parse_poly("x + 1", 3, 4)) == "1 + x"
    assert format_poly(parse_poly("yx + xy + y + x^2", 2, 4)) == "y + x^2 + xy + yx"


def test_format_orders_by_degree_then_lex():
    a = parse_poly("yy + yx + xy + xx + y + x", 2, 4)
    assert format_poly(a) == "x + y + x^2 + xy + yx + y^2"


@settings(max_examples=100)
@given(polys(p=3, cap=6))
def test_round_trip_through_text(a):
    assert parse_poly(format_poly(a), 3, 6) == a


@settings(max_examples=60)
@given(polys(p=2, cap=5))
def test_format_is_canonical(a):
    text = format_poly(a)
    assert format_poly(parse_poly(text, 2, 5)) == text


@settings(max_examples=100)
@given(st.text("xy", max_size=40))
def test_compress_matches_a_groupby_reference(word):
    runs = ((ch, len(list(g))) for ch, g in groupby(word))
    assert _compress(word) == "".join(ch if n == 1 else f"{ch}^{n}" for ch, n in runs)
