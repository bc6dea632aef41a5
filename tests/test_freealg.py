"""Core truncated arithmetic: ring operations, valuations, and the circle group."""

import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjointalg import (
    INFINITY,
    CapMismatchError,
    ConstantTermError,
    ResourceLimitError,
    TruncatedPoly,
    circle_inv,
    circle_mul,
    circle_pow,
    homogeneous_part,
    homogeneous_parts,
    monomial,
    one,
    valuation,
    variable,
    words_of_degree,
    zero,
)
from adjointalg import freealg, linalg
from adjointalg.freealg import TERM_BYTES, index_words, is_prime, word_indices
from adjointalg.linalg import index_mask, mask_indices
from adjointalg.oracle import naive_add, naive_mul

from oracle import polys, seeded_poly


def test_is_prime_agrees_with_trial_division_below_10_to_the_5():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if trial(n)]


@pytest.mark.parametrize(
    "n,prime",
    [
        (3215031751, False),
        (3825123056546413051, False),  # a strong pseudoprime to every base 2..31
        (318665857834031151167461, False),  # psi_12, strong pseudoprime to every base 2..37
        (2**31 - 1, True),
        (2**61 - 1, True),
    ],
)
def test_is_prime_on_strong_pseudoprimes_and_mersenne_primes(n, prime):
    assert is_prime(n) is prime


def test_is_prime_refuses_a_number_past_its_exact_range():
    assert is_prime(3317044064679887385961980) is False
    with pytest.raises(ValueError, match="decided only below 3317044064679887385961981"):
        is_prime(3317044064679887385961981)


def test_rejects_bad_construction():
    with pytest.raises(ValueError):
        TruncatedPoly(4, 5, {"x": 1})
    with pytest.raises(ValueError):
        TruncatedPoly(2, 0, {"x": 1})
    with pytest.raises(ValueError):
        TruncatedPoly(2, 5, {"xz": 1})
    with pytest.raises(ValueError):
        TruncatedPoly(2, 3, {"xxxx": 1})


@pytest.mark.parametrize("p", [np.int64(43), np.int32(7), np.int64(2), np.uint16(3)])
def test_numpy_integer_modulus_is_stored_as_the_python_int(p):
    """Past 41 the primality test takes powers of p, which numpy integers cannot do."""
    poly = TruncatedPoly(p, 4, {"x": 1, "xy": 2})
    assert type(poly.p) is int
    assert poly == TruncatedPoly(int(p), 4, {"x": 1, "xy": 2})
    assert type((poly * poly).p) is int


@pytest.mark.parametrize("p", [43.0, np.float64(3.0), "3", None])
def test_non_integer_modulus_is_refused_by_name(p):
    with pytest.raises(ValueError, match=rf"^p must be an integer, got {re.escape(repr(p))}$"):
        TruncatedPoly(p, 4, {"x": 1})


def test_terms_normalized_mod_p():
    assert TruncatedPoly(3, 4, {"x": 5}).terms == {"x": 2}
    assert TruncatedPoly(3, 4, {"x": 3}).is_zero
    assert TruncatedPoly(3, 4, [("x", 1), ("x", 2)]).is_zero
    assert TruncatedPoly(2, 4, [("xy", 1), ("xy", 1), ("y", 1)]).terms == {"y": 1}


def test_equality_and_hash_include_context():
    a = TruncatedPoly(2, 5, {"x": 1})
    b = TruncatedPoly(2, 5, {"x": 1})
    assert a == b and hash(a) == hash(b)
    assert a != TruncatedPoly(2, 6, {"x": 1})
    assert a != TruncatedPoly(3, 5, {"x": 1})


def test_product_examples():
    x = variable("x", 2, 6)
    y = variable("y", 2, 6)
    assert x * y == monomial("xy", 2, 6)
    assert ((x + y) ** 2).terms == {"xx": 1, "xy": 1, "yx": 1, "yy": 1}
    assert (monomial("x" * 6, 2, 6) * x).is_zero


def test_noncommutativity():
    x = variable("x", 2, 4)
    y = variable("y", 2, 4)
    assert x * y != y * x


def test_mixed_contexts_raise():
    x5 = variable("x", 2, 5)
    x6 = variable("x", 2, 6)
    x5_mod3 = variable("x", 3, 5)
    for other in (x6, x5_mod3):
        with pytest.raises(CapMismatchError):
            _ = x5 + other
        with pytest.raises(CapMismatchError):
            _ = x5 * other
        with pytest.raises(CapMismatchError):
            circle_mul(x5, other)


def test_scalar_arithmetic():
    x = variable("x", 3, 4)
    assert (2 * x).terms == {"x": 2}
    assert (-x).terms == {"x": 2}
    assert (x - x).is_zero
    assert (3 * x).is_zero


def test_powers():
    x = variable("x", 2, 6)
    assert x**3 == monomial("xxx", 2, 6)
    assert (one(2, 6) + x) ** 0 == one(2, 6)
    with pytest.raises(ValueError):
        _ = x ** (-1)


def test_valuation_basics():
    assert valuation(zero(2, 5)) == INFINITY
    assert math.isinf(valuation(zero(2, 5)))
    x = variable("x", 2, 5)
    assert valuation(x) == 1
    assert valuation(x + x * variable("y", 2, 5)) == 1
    assert valuation(monomial("xyx", 2, 5)) == 3
    assert INFINITY > 5


@settings(max_examples=60)
@given(polys(p=2, cap=6), polys(p=2, cap=6))
def test_valuation_of_products(a, b):
    va, vb, vab = valuation(a), valuation(b), valuation(a * b)
    assert vab >= min(va + vb, INFINITY)


@settings(max_examples=60)
@given(polys(p=3, cap=5))
def test_homogeneous_parts_reassemble(a):
    parts = homogeneous_parts(a)
    total = zero(3, 5)
    degrees = []
    for d, part in parts:
        assert part.is_homogeneous and not part.is_zero
        assert part == homogeneous_part(a, d)
        degrees.append(d)
        total = total + part
        # a homogeneous element is its own only slice, returned as it is
        ((degree, same),) = homogeneous_parts(part)
        assert degree == d and same is part
    assert degrees == sorted(set(degrees))
    assert total == a


@settings(max_examples=40)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_circle_group_axioms(p, data):
    cap = 6
    r = data.draw(polys(p=p, cap=cap, allow_const=False))
    s = data.draw(polys(p=p, cap=cap, allow_const=False))
    t = data.draw(polys(p=p, cap=cap, allow_const=False))
    e = zero(p, cap)
    assert circle_mul(circle_mul(r, s), t) == circle_mul(r, circle_mul(s, t))
    assert circle_mul(r, e) == r and circle_mul(e, r) == r
    assert circle_mul(r, circle_inv(r)) == e
    assert circle_mul(circle_inv(r), r) == e
    assert circle_mul(r, s).constant_term == 0


@settings(max_examples=60)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_circle_inverse_is_the_alternating_series_of_naive_products(p, data):
    """circle_inv(r) = -r + r^2 - r^3 + ..., each power a naive product, up to the cap."""
    cap = 6
    r = data.draw(polys(p=p, cap=cap, allow_const=False)).terms
    expected, power = {}, {"": 1}
    for k in range(1, cap + 1):
        power = naive_mul(power, r, p, cap)
        expected = naive_add(expected, {w: (-1) ** k * c % p for w, c in power.items()}, p)
    assert naive_mul(power, r, p, cap) == {}
    assert circle_inv(TruncatedPoly(p, cap, r)).terms == expected


@st.composite
def inverse_inputs(draw):
    """An element of A+ over p in {2, 3, 5, 7} at cap 8-10, often with a degree-1 term.

    With x and y both in degree 1 the inverse holds every word up to the cap.
    """
    p = draw(st.sampled_from([2, 3, 5, 7]))
    cap = draw(st.integers(8, 10))
    r = draw(polys(p=p, cap=cap, allow_const=False))
    for letter in draw(st.sampled_from(["", "x", "y", "xy"])):
        r = r + monomial(letter, p, cap, draw(st.integers(1, p - 1)))
    return r


@settings(max_examples=60, deadline=None)
@given(inverse_inputs())
def test_circle_inverse_recursion_matches_naive_circle_products(r):
    """r o s and s o r, with naive products, are zero for s = circle_inv(r), and s inverts back to r."""
    p, cap = r.p, r.cap
    s = circle_inv(r)
    rt, sv = r.terms, s.terms
    assert naive_add(naive_add(rt, sv, p), naive_mul(rt, sv, p, cap), p) == {}
    assert naive_add(naive_add(rt, sv, p), naive_mul(sv, rt, p, cap), p) == {}
    assert circle_inv(s) == r


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(1, 9), st.integers(2, 5), st.data())
def test_term_bound_covers_every_inverse_and_power(p, cap, k, data):
    """A ceiling one byte below the terms an answer holds refuses it, so the bound never undercounts."""
    r = data.draw(polys(p=p, cap=cap, max_terms=4, allow_const=False))
    for compute in (lambda: circle_inv(r), lambda: r**k):
        size = len(compute().terms)
        if size:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(linalg, "MAX_GF2_BLOCK_BYTES", size * TERM_BYTES - 1)
                with pytest.raises(ResourceLimitError):
                    compute()


def test_inverses_and_powers_past_the_ceiling_are_refused_before_any_product(monkeypatch):
    """x + y at p = 5, cap 25 would give 2^26 terms; tiny bounds at cap 60 still answer."""

    def refuse(*args):
        raise AssertionError("a product was built")

    h = variable("x", 5, 25) + variable("y", 5, 25)
    with monkeypatch.context() as patch:
        patch.setattr(freealg, "_mul_terms", refuse)
        with pytest.raises(ResourceLimitError, match="^a power with exponent 25 may hold 33554431 terms"):
            h**25
    with pytest.raises(ResourceLimitError, match="^the circle inverse may hold 33554431 terms"):
        circle_inv(h)
    # A low power stays far below the cap, so it answers.
    assert len((h**3).terms) == 8
    xx = monomial("xx", 5, 60)
    assert circle_inv(xx) == sum((monomial("xx" * j, 5, 60, (-1) ** j) for j in range(1, 31)), zero(5, 60))
    assert variable("x", 5, 60) ** 40 == monomial("x" * 40, 5, 60)


def test_circle_requires_zero_constant_term():
    u = one(2, 4)
    x = variable("x", 2, 4)
    with pytest.raises(ConstantTermError):
        circle_mul(u, x)
    with pytest.raises(ConstantTermError):
        circle_inv(u + x)
    with pytest.raises(ConstantTermError):
        circle_pow(u, 2)


@settings(max_examples=40)
@given(polys(p=3, cap=6, allow_const=False))
def test_circle_powers_consistent(r):
    assert circle_pow(r, 0).is_zero
    assert circle_pow(r, 1) == r
    assert circle_pow(r, 2) == circle_mul(r, r)
    assert circle_pow(r, 3) == circle_mul(r, circle_mul(r, r))
    assert circle_pow(r, -1) == circle_inv(r)
    assert circle_mul(circle_pow(r, 4), circle_pow(r, -4)).is_zero


@settings(max_examples=60)
@given(st.sampled_from([2, 3]), st.data())
def test_multiplication_matches_naive_oracle(p, data):
    a = data.draw(polys(p=p, cap=6))
    b = data.draw(polys(p=p, cap=6))
    assert (a * b).terms == naive_mul(a.terms, b.terms, p, 6)


@settings(max_examples=40)
@given(polys(p=2, cap=5), polys(p=2, cap=5), polys(p=2, cap=5))
def test_ring_identities(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


def test_word_index_round_trip():
    """Word ranks in numpy agree with the order of words_of_degree, both ways."""
    rng = np.random.default_rng(3)
    for d in (0, 1, 7, 8, 9, 16, 17):
        words = list(words_of_degree(d))
        assert len(words) == 2**d
        assert words == sorted(words)
        ranks = word_indices(words, d)
        assert ranks.dtype == np.int64
        assert np.array_equal(ranks, np.arange(2**d))
        assert index_words(ranks, d) == words
        picked = np.unique(rng.integers(0, 2**d, size=min(2**d, 50)))
        assert index_words(picked, d) == [words[i] for i in picked]
        assert np.array_equal(word_indices([words[i] for i in picked], d), picked)
        mask = index_mask(picked)
        assert mask == sum(1 << int(i) for i in picked)
        assert np.array_equal(mask_indices(mask), picked)
    assert index_mask(np.empty(0, dtype=np.int64)) == 0
    assert mask_indices(0).size == 0
    assert word_indices(["y" * 63, "x" * 62 + "y"], 63).tolist() == [2**63 - 1, 1]
    with pytest.raises(ValueError, match="int64"):
        word_indices(["x" * 64], 64)


@settings(max_examples=100)
@given(st.integers(1, 63).flatmap(lambda d: st.tuples(st.just(d), st.lists(st.text("xy", min_size=d, max_size=d)))))
def test_word_ranks_match_a_per_word_binary_reading(case):
    """Ranks agree with reading each word as binary (x = 0, y = 1), and index_words inverts them."""
    d, words = case
    ranks = word_indices(words, d)
    assert ranks.dtype == np.int64
    assert ranks.tolist() == [int(w.translate(str.maketrans("xy", "01")), 2) for w in words]
    assert index_words(ranks, d) == words


def test_words_of_degree_is_the_lexicographic_product():
    for d in range(13):
        assert words_of_degree(d) == ["".join(t) for t in itertools.product("xy", repeat=d)]


@st.composite
def homogeneous_pair(draw, cap=6):
    """(p, a, b) with b homogeneous and a homogeneous or mixed-degree.

    The degrees of a's first slice and of b sum to within the cap or past it.
    A mixed a adds a slice just within the cap against b's degree, one just
    past it and one at random, so a * b keeps some of a's words and drops others.
    """
    p = draw(st.sampled_from([2, 3]))
    da = draw(st.integers(0, cap))
    if da and draw(st.booleans()):
        db = draw(st.integers(cap - da + 1, cap))
    else:
        db = draw(st.integers(0, cap - da))

    def slice_of(d):
        words = st.lists(st.text("xy", min_size=d, max_size=d), min_size=1, max_size=4, unique=True)
        return {w: draw(st.integers(1, p - 1)) for w in draw(words)}

    # One slice per degree, so no two slices share a word and nothing cancels.
    terms = slice_of(da)
    if draw(st.booleans()):
        for d in {cap - db, min(cap - db + 1, cap), draw(st.integers(0, cap))} - {da}:
            terms |= slice_of(d)
    return p, TruncatedPoly(p, cap, terms), TruncatedPoly(p, cap, slice_of(db))


@settings(max_examples=80)
@given(homogeneous_pair())
def test_homogeneous_products_match_naive_oracle(pab):
    """Homogeneous or mixed-degree operands, monomials and constants multiply as the oracle does."""
    p, a, b = pab
    cap = a.cap
    m = monomial(next(iter(b.terms)), p, cap)
    c = (p - 1) * one(p, cap)
    for left, right in ((a, b), (b, a), (a, m), (m, a), (a, c), (c, a), (m, m)):
        assert (left * right).terms == naive_mul(left.terms, right.terms, p, cap)


@st.composite
def power_bases(draw, cap=5):
    """A homogeneous or mixed-degree element over p in {2, 3, 5}, the empty word allowed."""
    p = draw(st.sampled_from([2, 3, 5]))
    if draw(st.booleans()):
        d = draw(st.integers(0, cap))
        words = st.lists(st.text("xy", min_size=d, max_size=d), min_size=1, max_size=4, unique=True)
    else:
        words = st.lists(st.text("xy", max_size=cap), min_size=2, max_size=5, unique=True)
    return TruncatedPoly(p, cap, {w: draw(st.integers(1, p - 1)) for w in draw(words)})


@settings(max_examples=80)
@given(power_bases())
def test_powers_match_repeated_naive_products(a):
    """a ** k for k = 0 .. cap + 2, past the cap too, equals k oracle products from 1."""
    p, cap = a.p, a.cap
    assert a**0 == one(p, cap)
    expected = {"": 1}
    for k in range(1, cap + 3):
        expected = naive_mul(expected, a.terms, p, cap)
        assert (a**k).terms == expected


@settings(max_examples=80)
@given(st.sampled_from([2, 3, 5]), st.data())
def test_one_term_products_match_naive_oracle(p, data):
    """A single term on either side, with any coefficient and the empty word among them."""
    cap = 6
    word = data.draw(st.text("xy", max_size=cap))
    single = monomial(word, p, cap, data.draw(st.integers(1, p - 1)))
    # A word of every degree 0..cap, so the products straddle the cap for every nonempty word.
    ladder = TruncatedPoly(p, cap, {"xy"[d % 2] * d: 1 + d % (p - 1) for d in range(cap + 1)})
    other = data.draw(polys(p=p, cap=cap)) + ladder
    for left, right in ((single, other), (other, single), (single, single)):
        assert (left * right).terms == naive_mul(left.terms, right.terms, p, cap)


def test_prime_power_circle_identity():
    rng = random.Random(7)
    for p in (2, 3):
        for _ in range(25):
            f = seeded_poly(rng, p, 12, max_degree=3)
            for beta in (1, 2):
                q = p**beta
                assert circle_pow(f, q) == f**q
        beyond = p ** (5 if p == 2 else 3)
        f = seeded_poly(rng, p, 12, max_degree=3)
        assert circle_pow(f, beyond).is_zero
