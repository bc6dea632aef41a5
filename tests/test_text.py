"""Polynomial text: parser behavior, error reporting, and the canonical formatter."""

import re
import tracemalloc
from itertools import groupby

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adjointalg import (
    DegreeCapError,
    PolyParseError,
    TruncatedPoly,
    format_poly,
    monomial,
    parse_poly,
)

from adjointalg.text import _RUN_TEXT, _compress

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
    "text,message,position",
    [
        pytest.param(text, message, position, id=text)
        for text, message, position in [
            ("", "empty input", 0),
            ("   ", "empty input", 3),
            ("x +", "expected a term", 3),
            ("+", "expected a term", 0),
            ("^2", "expected a term", 0),
            ("x^", "expected an exponent after '^'", 2),
            ("x^y", "expected an exponent after '^'", 2),
            ("z", "expected a term", 0),
            ("x**y", "expected a factor after '*'", 2),
            ("*x", "'*' needs a factor on its left", 0),
            ("2 3", "expected '+' or '-', found '3'", 2),
            ("x y z", "expected '+' or '-', found 'z'", 4),
            ("x 23", "expected '+' or '-', found '2'", 2),
            (" x + 2*", "expected a factor after '*'", 7),
            ("- x - y^ 3 x 2", "expected '+' or '-', found '2'", 13),
        ]
    ]
    + [
        # Past the interpreter's 4300-digit limit on int(str).
        pytest.param(
            "x + " + "9" * 5000 + "y",
            "number of 5000 digits is too long to read",
            4,
            id="5000-digit-coefficient",
        ),
        pytest.param(
            "x^" + "9" * 5000,
            "number of 5000 digits is too long to read",
            2,
            id="5000-digit-exponent",
        ),
        # A superscript digit is no decimal digit.
        pytest.param("x^\u00b2", "expected an exponent after '^'", 2, id="superscript-exponent"),
    ],
)
def test_parse_errors_carry_position(text, message, position):
    with pytest.raises(PolyParseError) as err:
        parse_poly(text, 2, 8)
    assert err.value.position == position
    assert str(err.value) == f"{message} (at position {position})"


def test_degree_cap_rejection():
    with pytest.raises(DegreeCapError) as err:
        parse_poly("x + x^7", 2, 5)
    assert err.value.term_text == "x^7"
    assert err.value.degree == 7
    assert err.value.cap == 5
    # The term text runs from the term's first token to its last, across whitespace.
    for text in ("x + x^7 y", "x^7 y + x"):
        with pytest.raises(DegreeCapError) as err:
            parse_poly(text, 2, 5)
        assert (err.value.term_text, err.value.degree) == ("x^7 y", 8)
    with pytest.raises(DegreeCapError):
        parse_poly("xyxyxy", 2, 5)
    with pytest.raises(DegreeCapError):
        parse_poly("x^200", 2, 10)


@pytest.mark.parametrize(
    "text,p,cap,message",
    [
        ("x^99", 4, 5, "p must be prime, got 4"),
        ("x +", 1, 3, "p must be prime, got 1"),
        ("x", 2, 0, "degree cap must be at least 1, got 0"),
        ("x", 2, -1, "degree cap must be at least 1, got -1"),
    ],
)
def test_modulus_and_cap_are_checked_before_any_token(text, p, cap, message):
    """No term or syntax error is reported for an algebra that does not exist."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as err:
        parse_poly(text, p, cap)
    assert not isinstance(err.value, (DegreeCapError, PolyParseError))


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
    # Past cap 63 the product runs on object ranks, and its run of 70 is past the run table.
    assert format_poly(monomial("x" * 40, 2, 80) * monomial("x" * 30 + "y", 2, 80)) == "x^70y"


def test_format_orders_by_degree_then_lex():
    a = parse_poly("yy + yx + xy + xx + y + x", 2, 4)
    assert format_poly(a) == "x + y + x^2 + xy + yx + y^2"


@settings(max_examples=100)
@given(polys(p=3, cap=6))
def test_round_trip_through_text(a):
    assert parse_poly(format_poly(a), 3, 6) == a


@st.composite
def respelled(draw, p=5, cap=6):
    """A random poly and a non-canonical spelling of it.

    Terms come in random order, each as '+ c' or '- (p - c)', with the
    coefficient 1 written out or left implicit, and every letter run split
    into pieces written as 'x^k' (so 'x^1' too) or as k juxtaposed letters;
    an optional '*' joins neighbouring factors, and random whitespace goes
    between all tokens.
    """
    a = draw(polys(p=p, cap=cap))
    tokens = [] if a.terms else ["0"]
    for word, c in draw(st.permutations(sorted(a.terms.items()))):
        sign, shown = ("-", p - c) if draw(st.booleans()) else ("+", c)
        if tokens or sign == "-":
            tokens.append(sign)
        atoms = [[str(shown)]] if shown != 1 or not word or draw(st.booleans()) else []
        for letter, run in groupby(word):
            left = len(list(run))
            while left:
                k = draw(st.integers(1, left))
                left -= k
                atoms.append([letter, "^", str(k)] if draw(st.booleans()) else [letter] * k)
        for i, atom in enumerate(atoms):
            if i and draw(st.booleans()):
                tokens.append("*")
            tokens += atom
    n = len(tokens) + 1
    gaps = draw(st.lists(st.text(" \t\n", max_size=2), min_size=n, max_size=n))
    return a, gaps[0] + "".join(t + g for t, g in zip(tokens, gaps[1:]))


@settings(max_examples=200)
@given(respelled())
def test_non_canonical_spellings_parse_to_the_same_poly(case):
    a, text = case
    assert parse_poly(text, 5, 6) == a


@settings(max_examples=60)
@given(polys(p=2, cap=5))
def test_format_is_canonical(a):
    text = format_poly(a)
    assert format_poly(parse_poly(text, 2, 5)) == text


@settings(max_examples=100)
@given(st.text("xy", max_size=160))
@example("x" * 64 + "y" * 70 + "x")
def test_compress_matches_a_groupby_reference(word):
    """Runs of any length, past the run table's 63 too, which must not grow."""
    table_size = len(_RUN_TEXT)
    runs = ((ch, len(list(g))) for ch, g in groupby(word))
    assert _compress(word) == "".join(ch if n == 1 else f"{ch}^{n}" for ch, n in runs)
    assert len(_RUN_TEXT) == table_size


#: Primes up to 101, so that two-digit coefficients meet letters ("12x^2y").
PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79,
          83, 89, 97, 101]


@st.composite
def formatted_polys(draw, cap=14):
    """Polys over p up to 101 whose words are letter runs of any length up to the cap."""
    p = draw(st.sampled_from(PRIMES))
    runs = st.lists(st.tuples(st.sampled_from("xy"), st.integers(1, cap)), max_size=4)
    words = runs.map(lambda rs: "".join(ch * n for ch, n in rs)[:cap])
    return TruncatedPoly(p, cap, draw(st.dictionaries(words, st.integers(1, p - 1), max_size=8)))


@settings(max_examples=200)
@given(formatted_polys())
@example(TruncatedPoly(13, 14, {"": 12, "xxy": 12, "x" * 12: 1, "yx": 10, "y" * 10: 3}))
def test_format_matches_a_per_term_reference(a):
    """One pass over the joined text equals compressing each word and sorting by (len, word)."""
    terms = a.terms
    texts = [
        str(c) if not w else ("" if c == 1 else str(c)) + _compress(w)
        for w, c in sorted(terms.items(), key=lambda item: (len(item[0]), item[0]))
    ]
    assert format_poly(a) == (" + ".join(texts) if texts else "0")
