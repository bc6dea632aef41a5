"""Core truncated arithmetic: ring operations, valuations, and the circle group."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjointalg import (
    INFINITY,
    CapMismatchError,
    ConstantTermError,
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
from adjointalg.freealg import index_to_word, word_to_index
from adjointalg.oracle import naive_mul

from oracle import polys, seeded_poly


def test_rejects_bad_construction():
    with pytest.raises(ValueError):
        TruncatedPoly(4, 5, {"x": 1})
    with pytest.raises(ValueError):
        TruncatedPoly(2, 0, {"x": 1})
    with pytest.raises(ValueError):
        TruncatedPoly(2, 5, {"xz": 1})
    with pytest.raises(ValueError):
        TruncatedPoly(2, 3, {"xxxx": 1})


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
    for d in range(5):
        words = list(words_of_degree(d))
        assert len(words) == 2**d
        assert words == sorted(words)
        for i, w in enumerate(words):
            assert word_to_index(w) == i
            assert index_to_word(i, d) == w


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
