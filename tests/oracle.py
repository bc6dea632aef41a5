"""Hypothesis strategies, seeded inputs, symmetry maps and a form check shared by the test files.

The reference routines the suite checks against live in
:mod:`adjointalg.oracle`, which imports nothing from the package; this
module draws random elements, so every test file draws from the same
shapes, maps term dicts by symmetries of the free algebra, and checks
the stored form of an element.
"""

from hypothesis import strategies as st

from adjointalg import TruncatedPoly
from adjointalg.oracle import seeded_terms


def seeded_poly(rng, p, cap, max_degree, max_terms=6):
    """Random element of the augmentation part from a seeded RNG."""
    return TruncatedPoly(p, cap, seeded_terms(rng, p, max_degree, max_terms))


def term_dicts(p=2, max_degree=6, max_terms=5, allow_const=True):
    words = st.text(alphabet="xy", min_size=0 if allow_const else 1, max_size=max_degree)
    return st.dictionaries(words, st.integers(1, p - 1), max_size=max_terms)


def polys(p=2, cap=6, max_degree=None, max_terms=5, allow_const=True):
    """Strategy for truncated polynomials with terms up to max_degree."""
    md = cap if max_degree is None else max_degree
    return term_dicts(p, md, max_terms, allow_const).map(
        lambda t: TruncatedPoly(p, cap, t)
    )


_SWAP = str.maketrans("xy", "yx")


def reversed_terms(terms):
    """Every word read backwards: an anti-automorphism of F_p<x, y> fixing x and y."""
    return {w[::-1]: c for w, c in terms.items()}


def swapped_terms(terms):
    """x and y exchanged in every word: a graded automorphism of F_p<x, y>."""
    return {w.translate(_SWAP): c for w, c in terms.items()}


def assert_canonical(a):
    """a's terms are stored per degree in canonical form.

    Every slice is nonempty, every word of slice d has d letters from "xy"
    and d is at most the cap, and every coefficient lies in 1..p - 1.
    """
    for d, part in a._slices.items():
        assert part, f"empty slice at degree {d}"
        assert 0 <= d <= a.cap
        for w, c in part.items():
            assert len(w) == d and set(w) <= set("xy"), (d, w)
            assert type(c) is int and 1 <= c < a.p, (w, c)


def view_terms(a):
    """a's terms read from each of its two views: (from the slices, from the ranks).

    The ranks are read back one bit at a time, first letter highest, not by
    the package's own decoder.  Each rank pair must be nonempty, hold
    distinct ranks of its degree and residues in 1..p - 1, and have the
    dtype its algebra calls for: int64 up to cap 63 and below p = 2^31,
    Python ints in object arrays past either.
    """
    dtype = object if a.cap > 63 or a.p >= 2**31 else "int64"
    from_slices = {w: c for part in a._slices.values() for w, c in part.items()}
    from_ranks = {}
    for d, (ranks, coeffs) in a._ranks.items():
        assert ranks.dtype == coeffs.dtype == dtype and ranks.size == coeffs.size > 0, d
        for r, c in zip(ranks.tolist(), coeffs.tolist()):
            word = "".join("xy"[r >> (d - 1 - k) & 1] for k in range(d))
            assert 0 <= r < 2**d and word not in from_ranks, (d, r)
            assert type(c) is int and 1 <= c < a.p, (word, c)
            from_ranks[word] = c
    return from_slices, from_ranks
