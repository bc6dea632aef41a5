"""Text form of truncated polynomials: a small parser and the canonical formatter.

The grammar is deliberately tiny::

    expr   := ['-'] term (('+' | '-') term)*
    term   := coeff | coeff? factor+
    factor := ('x' | 'y') ['^' uint]
    coeff  := uint

Juxtaposition of factors means concatenation, as does '*'.  Whitespace is
ignored everywhere.  "0" denotes the zero element.  The formatter emits
terms in canonical order (ascending degree, then lexicographic), with
" + " separators and '^' for letter runs, so format and parse are mutually
inverse on canonical output.
"""

from __future__ import annotations

import re

from .freealg import TruncatedPoly, term_sort_key

_RUN = re.compile("x{2,}|y{2,}")


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


def parse_poly(text, p, cap):
    """Parse polynomial text into a :class:`TruncatedPoly` over F_p with the given cap."""
    terms = {}
    i = 0
    n = len(text)

    def skip_ws():
        nonlocal i
        while i < n and text[i].isspace():
            i += 1

    def read_uint():
        nonlocal i
        start = i
        while i < n and text[i].isdecimal():
            i += 1
        try:
            return int(text[start:i])
        except ValueError:  # more digits than the interpreter converts
            raise PolyParseError(f"number of {i - start} digits is too long to read", start) from None

    skip_ws()
    if i == n:
        raise PolyParseError("empty input", i)

    sign = 1
    if text[i] == "-":
        sign = -1
        i += 1

    while True:
        skip_ws()
        term_start = i
        coeff = None
        if i < n and text[i].isdecimal():
            coeff = read_uint()
        letters = []
        degree = 0
        while True:
            skip_ws()
            star = False
            if i < n and text[i] == "*":
                if coeff is None and not letters:
                    raise PolyParseError("'*' needs a factor on its left", i)
                star = True
                i += 1
                skip_ws()
            if i < n and text[i] in "xy":
                letter = text[i]
                i += 1
                exponent = 1
                skip_ws()
                if i < n and text[i] == "^":
                    i += 1
                    skip_ws()
                    if i >= n or not text[i].isdecimal():
                        raise PolyParseError("expected an exponent after '^'", i)
                    exponent = read_uint()
                letters.append((letter, exponent))
                degree += exponent
            elif star:
                raise PolyParseError("expected a factor after '*'", i)
            else:
                break
        if coeff is None and not letters:
            raise PolyParseError("expected a term", i)

        if degree > cap:
            raise DegreeCapError(text[term_start:i].strip(), degree, cap)
        word = "".join(letter * exponent for letter, exponent in letters)
        c = (sign * (1 if coeff is None else coeff)) % p
        terms[word] = (terms.get(word, 0) + c) % p

        skip_ws()
        if i == n:
            break
        if text[i] == "+":
            sign = 1
        elif text[i] == "-":
            sign = -1
        else:
            raise PolyParseError(f"expected '+' or '-', found {text[i]!r}", i)
        i += 1

    return TruncatedPoly(p, cap, terms)


def _compress(word):
    """Run-length encode a word: 'xxy' -> 'x^2y'."""
    return _RUN.sub(lambda run: f"{run[0][0]}^{len(run[0])}", word)


def _format_term(word, coeff):
    if not word:
        return str(coeff)
    head = "" if coeff == 1 else str(coeff)
    return head + _compress(word)


def format_poly(a):
    """Canonical text for a: terms in degree-then-lexicographic order with ' + ' separators."""
    items = a._terms
    if not items:
        return "0"
    return " + ".join(
        _format_term(w, items[w]) for w in sorted(items, key=term_sort_key)
    )
