"""Text form of truncated polynomials: a small parser and the canonical formatter.

The grammar is deliberately tiny::

    expr   := ['-'] term (('+' | '-') term)*
    term   := coeff | coeff? factor+
    factor := ('x' | 'y') ['^' uint]
    coeff  := uint

Juxtaposition of factors means concatenation, as does '*'.  The parser
reads tokens, each a run of decimal digits or one other character;
whitespace only separates tokens, so it never splits a number ("x^1 2" is
an error, not x^12).  "0" denotes the zero element.  The formatter emits
terms in canonical order (ascending degree, then lexicographic), with
" + " separators and '^' for letter runs, so format and parse are mutually
inverse on canonical output.
"""

from __future__ import annotations

import re

from .freealg import TruncatedPoly, check_context

_RUN = re.compile("(x{2,}|y{2,})")
_TOKEN = re.compile(r"\d+|\S")


class PolyParseError(ValueError):
    """Syntax error in polynomial text; carries the 0-based offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DegreeCapError(ValueError):
    """A parsed term exceeds the degree cap of the target algebra."""

    def __init__(self, term_text, degree, cap):
        super().__init__(
            f"term {term_text!r} has degree {degree}, beyond the cap {cap}"
        )
        self.term_text = term_text
        self.degree = degree
        self.cap = cap


def _offset(text, k):
    """Offset in text of its k-th token, or len(text) for the end marker."""
    return ([m.start() for m in _TOKEN.finditer(text)] + [len(text)])[k]


def _uint(text, tokens, k):
    try:
        return int(tokens[k])
    except ValueError:  # more digits than the interpreter converts
        raise PolyParseError(
            f"number of {len(tokens[k])} digits is too long to read", _offset(text, k)
        ) from None


def parse_poly(text, p, cap):
    """Parse polynomial text into a :class:`TruncatedPoly` over F_p with the given cap.

    p and cap are checked (:func:`~adjointalg.freealg.check_context`) before any token is read.
    """
    p, cap = check_context(p, cap)
    tokens = _TOKEN.findall(text) + [""]
    if len(tokens) == 1:
        raise PolyParseError("empty input", len(text))
    terms = {}
    sign = -1 if tokens[0] == "-" else 1
    k = 1 if sign < 0 else 0

    while True:
        first = k
        coeff = None
        if tokens[k].isdecimal():
            coeff = _uint(text, tokens, k)
            k += 1
        letters = []
        degree = 0
        while True:
            if tokens[k] == "*":
                if coeff is None and not letters:
                    raise PolyParseError("'*' needs a factor on its left", _offset(text, k))
                k += 1
                if tokens[k] not in ("x", "y"):
                    raise PolyParseError("expected a factor after '*'", _offset(text, k))
            elif tokens[k] not in ("x", "y"):
                break
            letter = tokens[k]
            exponent = 1
            k += 1
            if tokens[k] == "^":
                k += 1
                if not tokens[k].isdecimal():
                    raise PolyParseError("expected an exponent after '^'", _offset(text, k))
                exponent = _uint(text, tokens, k)
                k += 1
            letters.append((letter, exponent))
            degree += exponent
        if coeff is None and not letters:
            raise PolyParseError("expected a term", _offset(text, k))

        if degree > cap:
            term_text = text[_offset(text, first) : _offset(text, k)].strip()
            raise DegreeCapError(term_text, degree, cap)
        word = "".join(letter * exponent for letter, exponent in letters)
        c = (sign * (1 if coeff is None else coeff)) % p
        terms[word] = (terms.get(word, 0) + c) % p

        if not tokens[k]:
            break
        if tokens[k] == "+":
            sign = 1
        elif tokens[k] == "-":
            sign = -1
        else:
            raise PolyParseError(f"expected '+' or '-', found {tokens[k][0]!r}", _offset(text, k))
        k += 1

    return TruncatedPoly(p, cap, terms)


class _RunText(dict):
    """Run -> its text, 'xxx' -> 'x^3', held for runs of 2..63 letters.

    63 is the int64 rank range of :func:`freealg._rank_dtype`, so a table
    of 124 entries covers every run of a word-rank algebra.  A longer run is
    formatted on the fly and not stored, so the table never grows.
    """

    def __missing__(self, run):
        return f"{run[0]}^{len(run)}"


_RUN_TEXT = _RunText({ch * n: f"{ch}^{n}" for ch in "xy" for n in range(2, 64)})


def _compress(text):
    """Run-length encode the letter runs of a text: 'xxy + 2x' -> 'x^2y + 2x'.

    One split on the capturing :data:`_RUN` puts the runs at the odd
    indices, between the texts around them; the run table replaces each
    run with its text, and one join puts the pieces back.
    """
    parts = _RUN.split(text)
    parts[1::2] = map(_RUN_TEXT.__getitem__, parts[1::2])
    return "".join(parts)


def format_poly(a):
    """Canonical text for a: terms in degree-then-lexicographic order with ' + ' separators.

    Digits, spaces and '+' separate the terms, so no run of one letter
    crosses from a term into the next and one pass of :func:`_compress`
    encodes the whole text.
    """
    slices = a._slices
    if not slices:
        return "0"
    return _compress(" + ".join(
        w if part[w] == 1 and w else f"{part[w]}{w}"
        for part in map(slices.get, sorted(slices)) for w in sorted(part)
    ))
