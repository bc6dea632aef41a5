"""Core truncated arithmetic: ring operations, valuations, and the circle group."""

import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adjointalg import (
    INFINITY,
    CapMismatchError,
    ConstantTermError,
    GradedIdeal,
    ResourceLimitError,
    TruncatedPoly,
    circle_inv,
    circle_mul,
    circle_pow,
    factor_to_valuation,
    format_poly,
    homogeneous_part,
    homogeneous_parts,
    monomial,
    normal_form,
    one,
    parse_poly,
    trace_to_json,
    valuation,
    variable,
    words_of_degree,
    zero,
)
from adjointalg import freealg, linalg
from adjointalg.freealg import TERM_BYTES, index_words, word_indices
from adjointalg.linalg import index_mask, is_prime, mask_indices
from adjointalg.oracle import naive_add, naive_mul

from oracle import assert_canonical, polys, seeded_poly, term_dicts, view_terms


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


@pytest.mark.parametrize("k", [np.int64(3), np.int32(0), np.uint8(2), np.int64(-2)])
def test_numpy_integer_exponents_equal_their_python_int_forms(k):
    a = TruncatedPoly(3, 6, {"x": 1, "xy": 2, "yxy": 1})
    assert circle_pow(a, k) == circle_pow(a, int(k))
    if k >= 0:
        assert a**k == a ** int(k)


@pytest.mark.parametrize("k", [2.0, np.float64(2.0), -1, np.int64(-1), "2"])
def test_an_exponent_that_is_not_a_nonnegative_integer_is_refused(k):
    with pytest.raises(ValueError, match="^exponent must be (an integer|at least 0), got "):
        TruncatedPoly(3, 6, {"x": 1}) ** k


@pytest.mark.parametrize("product", [lambda a: a * True, lambda a: False * a])
def test_a_bool_scalar_is_refused(product):
    """A bool is an int to Python, and x * True used to give x."""
    with pytest.raises(ValueError, match="^scalar must be an integer, got (True|False)$"):
        product(TruncatedPoly(3, 6, {"x": 1}))


@pytest.mark.parametrize("p", [43.0, np.float64(3.0), "3", None, True])
def test_non_integer_modulus_is_refused_by_name(p):
    with pytest.raises(ValueError, match=rf"^p must be an integer, got {re.escape(repr(p))}$"):
        TruncatedPoly(p, 4, {"x": 1})


@pytest.mark.parametrize("cap", [2.5, np.float64(3.0), "3", None, True])
def test_non_integer_cap_is_refused_by_name(cap):
    """A cap of 2.5 used to build an element that factoring and inversion then failed on, and True was read as 1."""
    with pytest.raises(ValueError, match=rf"^degree cap must be an integer, got {re.escape(repr(cap))}$"):
        TruncatedPoly(2, cap, {"xy": 1})


@pytest.mark.parametrize("cap", [np.int64(4), np.int32(4), np.uint8(4)])
def test_numpy_integer_cap_is_stored_as_the_python_int(cap):
    poly = TruncatedPoly(3, cap, {"x": 1, "xy": 2})
    assert type(poly.cap) is int
    assert poly == TruncatedPoly(3, 4, {"x": 1, "xy": 2})


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
    # A product holds only ranks; it hashes as the equal element built from terms.
    square = a * b
    assert square == TruncatedPoly(2, 5, {"xx": 1}) and hash(square) == hash(TruncatedPoly(2, 5, {"xx": 1}))


def test_arithmetic_with_a_non_polynomial_is_refused():
    """Sums, differences and products take only elements (and integer scalars); == is False."""
    a = parse_poly("x + y", 2, 3)
    for op in (lambda: a + 1, lambda: a - 1, lambda: a * 1.5):
        with pytest.raises(TypeError):
            op()
    assert (a == "x") is False


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


def test_power_bound_counts_the_partial_products(monkeypatch):
    """(x + y)^3 at p = 2 holds 8 terms and its squares at most 4: the last product is counted."""
    h = variable("x", 2, 9) + variable("y", 2, 9)
    assert len((h**3).terms) == 8
    monkeypatch.setattr(linalg, "MAX_GF2_BLOCK_BYTES", 8 * TERM_BYTES - 1)
    with pytest.raises(ResourceLimitError, match="^a power with exponent 3 may hold 8 terms"):
        h**3


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 6), st.data())
def test_every_route_keeps_the_canonical_form(p, cap, data):
    """Each operation stores nonempty slices of words of their degree with residues in 1..p - 1."""
    a = data.draw(polys(p=p, cap=cap, max_terms=6))
    b = data.draw(polys(p=p, cap=cap, max_terms=6))
    r = data.draw(polys(p=p, cap=cap, max_terms=4, allow_const=False))
    d = data.draw(st.integers(0, cap))
    k = data.draw(st.integers(-2 * p, 2 * p))
    trace = factor_to_valuation(r, data.draw(st.integers(1, cap + 1)))
    # A homogeneous generator of degree at least 1, so the ideal has a component to reduce by.
    g = homogeneous_part(a + b, max(d, 1))
    g = g if not g.is_zero else monomial("x" * max(d, 1), p, cap)
    results = [
        a + b, a - b, a - homogeneous_part(a, d), b + (-b + a), -a, a * k, a * p, k * a,
        a * b, a ** data.draw(st.integers(0, 4)), circle_inv(r),
        circle_pow(r, data.draw(st.integers(-3, 3))), homogeneous_part(a, d),
        *(part for _, part in homogeneous_parts(a)), parse_poly(str(a), p, cap),
        parse_poly(f"{a} + {-a} + {b}", p, cap),
        *trace.factors, trace.residual, normal_form(a, GradedIdeal(p, cap, [g])),
    ]
    for x in results:
        assert_canonical(x)
    # Equal elements built by different routes are equal and hash alike.
    for x, y in ((a - a, zero(p, cap)), (a, TruncatedPoly(p, cap, a.terms)), (a * p, a - a)):
        assert x == y and hash(x) == hash(y)


def test_inverses_and_powers_past_the_ceiling_are_refused_before_any_product(monkeypatch):
    """x + y at p = 5, cap 25 would give 2^26 terms; tiny bounds at cap 60 still answer.

    The bound reads the rank view, which a product holds and a parsed sum
    builds from its words, so either power is refused before any word is built.
    A power is bounded by the degrees of the powers its loop forms: h^25
    by its 2^25 words of degree 25, and h^24, whose 2^24 words fit, passes.
    """

    class Built(Exception):
        pass

    def refuse(*args):
        raise Built

    h = variable("x", 5, 25) + variable("y", 5, 25)
    ranked = h * one(5, 25)
    with monkeypatch.context() as patch:
        patch.setattr(freealg, "_mul_ranks", refuse)
        patch.setattr(freealg, "index_words", refuse)
        for base in (h, ranked):
            with pytest.raises(ResourceLimitError, match="^a power with exponent 25 may hold 33554432 terms"):
                base**25
            # The bound passes, and the first product is the sentinel: nothing was built.
            with pytest.raises(Built):
                base**24
    with pytest.raises(ResourceLimitError, match="^the circle inverse may hold 33554431 terms"):
        circle_inv(h)
    # A low power stays far below the cap, so it answers.
    assert len((h**3).terms) == 8
    xx = monomial("xx", 5, 60)
    assert circle_inv(xx) == sum((monomial("xx" * j, 5, 60, (-1) ** j) for j in range(1, 31)), zero(5, 60))
    assert variable("x", 5, 60) ** 40 == monomial("x" * 40, 5, 60)
    # x + x^2 has 2 words but one letter: its powers stay one word per degree, in either view.
    chain = variable("x", 5, 60) + monomial("xx", 5, 60)
    expected = sum((monomial("x" * (40 + j), 5, 60, math.comb(40, j)) for j in range(21)), zero(5, 60))
    assert chain**40 == (chain * one(5, 60)) ** 40 == expected


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
        beyond = p ** (4 if p == 2 else 3)
        f = seeded_poly(rng, p, 12, max_degree=3)
        assert circle_pow(f, beyond).is_zero


#: The Mersenne prime 2^61 - 1: a product of two residues passes int64.
BIG_P = 2**61 - 1


@st.composite
def rank_operands(draw):
    """(p, cap, terms of a, terms of b) over p in {2, 3, 5} and caps up to 6."""
    p = draw(st.sampled_from([2, 3, 5]))
    cap = draw(st.integers(1, 6))
    a, b = (draw(polys(p=p, cap=cap, max_terms=6)) for _ in range(2))
    return p, cap, a.terms, b.terms


@settings(max_examples=80, deadline=None)
@given(rank_operands())
# Past the int64 range: residues whose products pass 2^63, and output degrees 64-70,
# where several pairs of degrees meet (69 = 35 + 34 = 34 + 35) and cancel (34 = 33 + 1 = 34 + 0).
@example((BIG_P, 6, {"xy": BIG_P - 1, "y": 2**60, "": 3}, {"x": BIG_P - 2, "yx": 5, "": BIG_P - 1}))
@example((
    BIG_P, 70,
    {"x" * 35: BIG_P - 1, "y" * 34: 2**40 + 1, "x" * 33: 1, "x" * 34: 1, "xy": 7},
    {"y" * 35: BIG_P - 2, "x" * 30 + "y" * 4: 3, "x": BIG_P - 1, "": 1},
))
@example((
    2, 70,
    {"x" * 32 + "y" * 32: 1, "y" * 33: 1, "x" * 33: 1, "x" * 34: 1, "": 1},
    {"y" * 6: 1, "x" * 37: 1, "xy" * 3: 1, "x": 1, "": 1},
))
@example((3, 64, {"y" * 32: 2, "x" * 31 + "y": 1, "y": 1}, {"x" * 32: 2, "y" * 33: 1, "": 2}))
def test_rank_born_products_and_powers_match_the_oracle(case):
    """Products of elements made by products, and their powers, agree with the naive oracle.

    Both views of every result give the same terms; a result equals and
    hashes like its twin built from terms; degrees, constant term,
    homogeneous parts and, where an engine reaches, normal forms agree too.
    """
    p, cap, ta, tb = case
    a, b = TruncatedPoly(p, cap, ta), TruncatedPoly(p, cap, tb)
    ranked_a, ranked_b = (a * one(p, cap), ta), (b * one(p, cap), tb)
    pairs = [(ranked_a, ranked_b), (ranked_b, ranked_a), (ranked_a, (b, tb)), ((a, ta), ranked_b), (ranked_a, ranked_a)]
    results = [(x * y, naive_mul(tx, ty, p, cap)) for (x, tx), (y, ty) in pairs]
    expected = {"": 1}
    for k in range(5):
        results.append((ranked_a[0] ** k, expected))
        expected = naive_mul(expected, ta, p, cap)
    # An ideal whose engines reach every degree of the random draws; none reaches the examples past int64.
    ideal = None
    if cap <= 6 and p <= linalg.MAX_MODULUS:
        ideal = GradedIdeal(p, cap, [parse_poly("xy + yx" if cap > 1 else "x", p, cap)])
    for product, expected in results:
        twin = TruncatedPoly(p, cap, expected)
        assert (product.is_zero, product.max_degree(), product.is_homogeneous, product.constant_term) == (
            twin.is_zero, twin.max_degree(), twin.is_homogeneous, twin.constant_term)
        assert valuation(product) == valuation(twin)
        parts = homogeneous_parts(product)
        assert [d for d, _ in parts] == [d for d, _ in homogeneous_parts(twin)]
        assert all(part == homogeneous_part(twin, d) for d, part in parts)
        if ideal is not None:
            assert normal_form(product, ideal) == normal_form(twin, ideal)
        assert view_terms(product) == (expected, expected)
        assert product == twin and twin == product and hash(product) == hash(twin)
    assert view_terms(a) == (ta, ta) and view_terms(ranked_a[0]) == (ta, ta)


@settings(max_examples=60)
@given(st.integers(0, 80).flatmap(lambda d: st.tuples(st.just(d), st.lists(st.text("xy", min_size=d, max_size=d)))))
def test_python_int_ranks_read_words_at_any_degree(case):
    """With dtype=object a rank is the word read as binary at any degree, and index_words inverts it."""
    d, words = case
    ranks = word_indices(words, d, object)
    assert ranks.dtype == object
    assert ranks.tolist() == [int("0" + w.translate(str.maketrans("xy", "01")), 2) for w in words]
    assert index_words(ranks, d) == words


def built_views(monkeypatch):
    """A list that records each view an element builds from the other, by slot name."""
    built = []
    build = TruncatedPoly.__getattr__

    def spy(self, name):
        built.append(name)
        return build(self, name)

    monkeypatch.setattr(TruncatedPoly, "__getattr__", spy)
    return built


def read_without_words(q):
    """Degrees, constant term, valuation and homogeneous parts: the reads of the view q was made with."""
    parts = [(d, part.max_degree(), part.constant_term) for d, part in homogeneous_parts(q)]
    return q.is_zero, q.max_degree(), q.is_homogeneous, q.constant_term, valuation(q), parts


@pytest.mark.parametrize("p", [2, 3])
def test_text_factoring_and_inverses_build_no_ranks_and_sandwiches_build_no_words(p, monkeypatch):
    """Dict-born input stays words through text, factoring and inverses; products stay ranks.

    A sandwich u * g * w of monomials around a generator, a product
    outside the ideal, and their normal forms are made and reduced without
    one word being built.  Dict-born generators and monomials build their
    ranks once, when first multiplied or encoded.
    """
    cap = 10
    ideal = GradedIdeal(p, cap, [parse_poly("xy + 2yx", p, cap), parse_poly("x^3 + y^3", p, cap)])
    built = built_views(monkeypatch)
    a = parse_poly("x^2 + 2xy + y^2x", p, cap)
    trace = factor_to_valuation(a, cap + 1)
    inverse = circle_inv(a)
    for x in (a, inverse, trace.residual, *trace.factors):
        format_poly(x)
    trace_to_json(trace)
    assert built == []
    g = ideal.generators[0][1]
    sandwich = monomial("yxy", p, cap) * g * monomial("xxyx", p, cap)
    outside = monomial("y", p, cap) * parse_poly("yx + xyx", p, cap) * variable("x", p, cap)
    residues = [normal_form(q, ideal) for q in (sandwich, outside)]
    elements = (sandwich, outside, *residues)
    reads = [read_without_words(q) for q in elements]
    assert "_slices" not in built and "_ranks" in built
    assert residues[0].is_zero and not residues[1].is_zero
    assert reads == [read_without_words(TruncatedPoly(p, cap, q.terms)) for q in elements]
    # Read as words only now: the outside product reduces as its twin built from terms does.
    assert residues[1] == normal_form(TruncatedPoly(p, cap, outside.terms), ideal)


@pytest.mark.parametrize(
    "view,slot",
    [
        ({2: {"xy": 1, "yy": 2}}, "_slices"),
        ({2: (np.array([1, 3]), np.array([1, 2]))}, "_ranks"),
        ({}, "_slices"),
    ],
    ids=["slices", "ranks", "empty"],
)
def test_from_view_keeps_the_view_in_the_slot_of_its_kind(view, slot, monkeypatch):
    """The view is the born one and sits in its own slot, so reading it builds nothing."""
    built = built_views(monkeypatch)
    q = TruncatedPoly._from_view(3, 4, view)
    assert q._born is view and getattr(q, slot) is view
    assert built == []


def test_term_count_builds_no_view(monkeypatch):
    """``_terms`` is sized as the terms of a slice-born or rank-born element and builds no view."""
    a = parse_poly("x + 2xy + y^3x", 3, 6)
    elements = (a, a * a, a * one(3, 6), zero(3, 6) * a)
    built = built_views(monkeypatch)
    counts = [len(q._terms) for q in elements]
    assert built == []
    assert counts == [len(q.terms) for q in elements]


@settings(max_examples=60)
@given(st.sampled_from([2, 3, 5]).flatmap(lambda p: st.tuples(
    st.just(p),
    st.dictionaries(st.text("xy", max_size=4), st.integers(-3 * p, 3 * p), max_size=6),
    term_dicts(p, max_degree=4, max_terms=6),
)))
@example((3, {"x": 3, "y": -6, "xy": 0}, {"y": 1}))
def test_accumulate_reduces_left_coefficients_and_matches_the_oracle(case):
    """Unreduced left coefficients, multiples of p among them, give the naive product mod p.

    A left term that is 0 mod p adds no word.
    """
    p, left, right = case
    acc = {}
    freealg._accumulate(acc, left, right, p)
    assert {w: c % p for w, c in acc.items() if c % p} == naive_mul(left, right, p, 8)
    assert set(acc) <= {wa + wb for wa, ca in left.items() if ca % p for wb in right}
