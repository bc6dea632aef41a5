"""Hypothesis strategies and seeded inputs shared by the test files.

The reference routines the suite checks against live in
:mod:`adjointalg.oracle`, which imports nothing from the package; this
module only draws random elements, so every test file draws from the
same shapes.
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
