"""Homogeneous factorization of 1 + a: seeds, correction rounds, exactness, invariants."""

import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adjointalg import (
    INFINITY,
    TruncatedPoly,
    correction_step,
    factor_to_valuation,
    one,
    parse_poly,
    trace_to_json,
)
from adjointalg.freealg import homogeneous_parts
from adjointalg.oracle import expand_one_plus, naive_add, naive_mul

from oracle import polys


@pytest.mark.parametrize("m", [2.5, np.float64(3.0), "3", None, True])
def test_a_target_valuation_that_is_not_an_integer_is_refused(m):
    """2.5 used to run to valuation 3, and True to valuation 1."""
    with pytest.raises(ValueError, match=rf"^target valuation must be an integer, got {re.escape(repr(m))}$"):
        factor_to_valuation(parse_poly("x + xy", 2, 6), m)


@pytest.mark.parametrize("m", [1, 3, 7])
def test_a_numpy_integer_target_valuation_gives_the_python_int_trace(m):
    a = parse_poly("x + 2y^2 + xyx", 3, 6)
    trace, ref = factor_to_valuation(a, np.int64(m)), factor_to_valuation(a, m)
    assert trace == ref and trace_to_json(trace) == trace_to_json(ref)


def test_seed_for_two_slice_target():
    a = parse_poly("x + x^2", 2, 6)
    trace = factor_to_valuation(a, 1)
    assert [str(h) for h in trace.factors] == ["x", "x^2"]
    assert str(trace.residual) == "x^3"
    assert trace.steps == 0
    assert trace.residual_valuation == 3


def test_first_correction_round_for_two_slice_target():
    trace = correction_step(factor_to_valuation(parse_poly("x + x^2", 2, 6), 1))
    assert trace.steps == 1
    assert [str(h) for h in trace.factors] == ["x", "x^2", "x^3"]
    assert str(trace.residual) == "x^4 + x^5 + x^6"
    assert trace.residual_valuation == 4


def test_noncommutative_correction_rounds():
    a = parse_poly("x + xy", 2, 5)
    seed = factor_to_valuation(a, 1)
    assert str(seed.residual) == "x^2y"
    once = correction_step(seed)
    assert str(once.residual) == "x^3y + xyx^2y"
    assert once.residual_valuation == 4
    exact = factor_to_valuation(a, 6)
    assert exact.residual.is_zero
    assert exact.residual_valuation == INFINITY
    assert exact.steps == 3


def test_correction_on_exact_trace_is_identity():
    trace = factor_to_valuation(parse_poly("x + xy", 2, 5), 6)
    assert correction_step(trace) is trace


def test_constant_term_rejected():
    with pytest.raises(ValueError, match="constant"):
        factor_to_valuation(parse_poly("1 + x", 2, 4), 1)


def test_target_valuation_window():
    a = parse_poly("x", 2, 4)
    with pytest.raises(ValueError):
        factor_to_valuation(a, 0)
    with pytest.raises(ValueError):
        factor_to_valuation(a, 6)
    assert factor_to_valuation(a, 5).residual.is_zero


def test_homogeneous_target_factors_immediately():
    a = parse_poly("x + y", 2, 7)
    trace = factor_to_valuation(a, 8)
    assert trace.factors == (a,)
    assert trace.residual.is_zero
    assert trace.steps == 0


def test_valuation_strictly_increases_per_round():
    trace = factor_to_valuation(parse_poly("x + y^2 + xyx", 2, 6), 1)
    seen = [trace.residual_valuation]
    while not trace.residual.is_zero:
        trace = correction_step(trace)
        seen.append(trace.residual_valuation)
    assert seen == sorted(set(seen))
    assert seen[-1] == INFINITY


def _subset_correction_residual(trace):
    """Closed form for the next residual, via explicit subset expansion.

    With product P = 1 + a + r and slices b_1 < ... < b_k of r, the round
    multiplies P by (1 - b_1)...(1 - b_k) = 1 - r + c where c collects the
    signed ascending products over subsets of size >= 2.  The new residual
    is then c + a*c + r*c - a*r - r*r.
    """
    a, r = trace.target, trace.residual
    slices = [part for _, part in homogeneous_parts(r)]
    c = trace.residual * 0
    for size in range(2, len(slices) + 1):
        for subset in combinations(slices, size):
            term = one(a.p, a.cap)
            for b in subset:
                term = term * b
            c = c + term * ((-1) ** size)
    return c + a * c + r * c - a * r - r * r


@pytest.mark.parametrize(
    "text,p,cap",
    [
        ("x + x^2", 2, 6),
        ("x + xy + yx^2", 2, 6),
        ("x + 2y^2 + xy", 3, 5),
        ("2x + y + 2xyx", 3, 6),
    ],
)
def test_correction_matches_subset_closed_form(text, p, cap):
    trace = factor_to_valuation(parse_poly(text, p, cap), 1)
    while not trace.residual.is_zero:
        stepped = correction_step(trace)
        assert stepped.residual == _subset_correction_residual(trace)
        trace = stepped


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_product_invariant_against_expansion_oracle(data):
    p = data.draw(st.sampled_from([2, 3]))
    a = data.draw(polys(p=p, cap=5, max_terms=4).filter(lambda q: not q.constant_term))
    m = data.draw(st.integers(1, 6))
    trace = factor_to_valuation(a, m)
    assert trace.steps <= m
    assert trace.residual_valuation >= m
    for h in trace.factors:
        assert h.is_homogeneous and not h.is_zero
    expected = expand_one_plus([h.terms for h in trace.factors], p, 5)
    assert expected == (one(p, 5) + a + trace.residual).terms


@settings(max_examples=25, deadline=None)
@given(polys(p=2, cap=6, max_terms=5).filter(lambda q: not q.constant_term))
def test_full_precision_is_exact(a):
    trace = factor_to_valuation(a, 7)
    assert trace.residual.is_zero
    prod = one(2, 6)
    for h in trace.factors:
        prod = prod * (one(2, 6) + h)
    assert prod == one(2, 6) + a


def test_runs_are_deterministic():
    a = parse_poly("x + xy + y^2x", 2, 6)
    assert factor_to_valuation(a, 7) == factor_to_valuation(a, 7)


def test_trace_json():
    payload = trace_to_json(factor_to_valuation(parse_poly("x + x^2", 2, 6), 4))
    assert payload["a"] == "x + x^2"
    assert payload["factors"][:3] == ["x", "x^2", "x^3"]
    assert payload["valuation"] == 4
    assert payload["steps"] == 1
    exact = trace_to_json(factor_to_valuation(parse_poly("x + x^2", 2, 6), 7))
    assert exact["valuation"] == "infinity"
    assert exact["residual"] == "0"


def _slices(terms):
    """Homogeneous slices of a term dict, ascending in degree."""
    by_degree = {}
    for w, c in terms.items():
        by_degree.setdefault(len(w), {})[w] = c
    return [by_degree[d] for d in sorted(by_degree)]


def _reference_rounds(a, p, cap):
    """Every trace of the factorization as (factors, residual, steps), on naive term dicts.

    The product starts at 1 and takes prod + prod * h for each factor 1 + h:
    first the slices of a, then, each round, the negated slices of the
    residual prod - 1 - a, until the residual is zero.
    """
    minus_one_a = {w: -c % p for w, c in naive_add({"": 1}, a, p).items()}
    prod, factors, steps, new = {"": 1}, [], 0, _slices(a)
    while True:
        for h in new:
            # Words past cap - deg h meet no word of h: naive_mul would only discard them.
            room = cap - len(next(iter(h)))
            left = {w: c for w, c in prod.items() if len(w) <= room}
            prod = naive_add(prod, naive_mul(left, h, p, cap), p)
        factors = factors + new
        residual = naive_add(prod, minus_one_a, p)
        yield factors, residual, steps
        if not residual:
            return
        new = [{w: -c % p for w, c in part.items()} for part in _slices(residual)]
        steps += 1


@st.composite
def factorization_targets(draw):
    """Targets over p in {2, 3, 5, 7}, caps 1-14, up to six terms of any degree up to the cap."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    cap = draw(st.integers(1, 14))
    words = st.integers(1, cap).flatmap(lambda d: st.text("xy", min_size=d, max_size=d))
    terms = draw(st.dictionaries(words, st.integers(1, p - 1), min_size=1, max_size=6))
    return TruncatedPoly(p, cap, terms)


@settings(max_examples=150, deadline=None)
@given(factorization_targets())
@example(parse_poly("x + 3y + 2xy + 5y^2x + 6x^2y^2 + xyxyx", 7, 14))
@example(parse_poly("x + y^2 + xyx", 2, 14))
@example(parse_poly("2y + x^2 + 2yxy^2", 3, 13))
# At p = 2^61 - 1 the carried product's unreduced coefficients are sums of products past 2^120.
@example(parse_poly(
    "2305843009213693950x + 3y + 2305843009213693949xy + 7y^2x + 1152921504606846976x^2y^2",
    2305843009213693951, 6,
))
def test_factorization_matches_the_naive_product_loop(a):
    """Every target valuation m gives the first naive trace whose residual reaches m."""
    rounds = list(_reference_rounds(a.terms, a.p, a.cap))
    for m in range(1, a.cap + 2):
        factors, residual, steps = next(
            t for t in rounds if not t[1] or min(map(len, t[1])) >= m
        )
        trace = factor_to_valuation(a, m)
        assert [h.terms for h in trace.factors] == factors
        assert trace.residual.terms == residual
        assert trace.steps == steps


@settings(max_examples=100, deadline=None)
@given(factorization_targets())
@example(parse_poly("x + 3y + 2xy + 5y^2x + 6x^2y^2 + xyxyx", 7, 14))
def test_stepping_api_matches_the_naive_product_loop(a):
    """The seed, then one correction round at a time, yields every naive trace in turn.

    So does one round after ``factor_to_valuation(a, m)`` for every m short of an
    exact trace.
    """
    def as_reference(trace):
        return [h.terms for h in trace.factors], trace.residual.terms, trace.steps

    rounds = list(_reference_rounds(a.terms, a.p, a.cap))
    trace = factor_to_valuation(a, 1)
    for reference in rounds:
        assert as_reference(trace) == reference
        trace = correction_step(trace)
    for m in range(1, a.cap + 2):
        trace = factor_to_valuation(a, m)
        if not trace.residual.is_zero:
            assert as_reference(correction_step(trace)) == rounds[trace.steps + 1]


@settings(max_examples=60, deadline=None)
@given(factorization_targets())
def test_correction_step_leaves_its_trace_unchanged(a):
    """A round on a trace twice gives equal traces, and the trace's terms stay as they were."""
    trace = factor_to_valuation(a, 1)
    while not trace.residual.is_zero:
        before = (a.terms, [h.terms for h in trace.factors], trace.residual.terms)
        stepped = correction_step(trace)
        assert correction_step(trace) == stepped
        assert (a.terms, [h.terms for h in trace.factors], trace.residual.terms) == before
        trace = stepped


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_correction_step_is_the_run_to_the_next_valuation(data):
    """On every trace a run visits, one round equals the run to one past its valuation."""
    p = data.draw(st.sampled_from([2, 3, 5]))
    cap = data.draw(st.integers(1, 8))
    a = data.draw(polys(p=p, cap=cap, max_terms=5, allow_const=False))
    trace = factor_to_valuation(a, 1)
    while not trace.residual.is_zero:
        stepped = correction_step(trace)
        rerun = factor_to_valuation(trace.target, trace.residual_valuation + 1)
        assert (stepped.factors, stepped.residual, stepped.steps) == (
            rerun.factors, rerun.residual, rerun.steps
        )
        trace = stepped


def test_zero_target_has_no_factors():
    zero = parse_poly("0", 3, 5)
    for trace in (factor_to_valuation(zero, 1), factor_to_valuation(zero, 6)):
        assert trace.factors == ()
        assert trace.residual.is_zero
        assert trace.steps == 0
