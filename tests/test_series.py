"""Exact rational series: tails, censuses, the test function, and the dimension recursion."""

import re
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adjointalg import (
    DivergentTailError,
    GeneratorCensus,
    GeometricTail,
    HilbertTable,
    OnePerDegreeTail,
    f_eval,
    gs_recursion_check,
    gs_report,
    tail_bound_census,
    witness_search,
)
from adjointalg import series
from adjointalg.series import census_from_json, tail_from_json


@pytest.mark.parametrize(
    "tail,tau,horizon",
    [
        (GeometricTail(2, 7), Fraction(3, 4), 35),
        (GeometricTail(3, 2, scale=4), Fraction(1, 5), 11),
        (OnePerDegreeTail(14), Fraction(3, 4), 40),
        (OnePerDegreeTail(3), Fraction(1, 2), 9),
    ],
)
def test_tail_value_is_partial_sum_plus_exact_remainder(tail, tau, horizon):
    partial = sum(r * tau**n for n, r in tail.counts_up_to(horizon).items())
    if isinstance(tail, GeometricTail):
        ratio = tail.growth * tau**tail.step
        terms_used = horizon // tail.step
        remainder = tail.scale * ratio ** (terms_used + 1) / (1 - ratio)
    else:
        remainder = tau ** (horizon + 1) / (1 - tau)
    assert tail.value_at(tau) == partial + remainder


def test_tail_divergence():
    assert not GeometricTail(2, 7).convergent_at(Fraction(99, 100))
    with pytest.raises(DivergentTailError):
        GeometricTail(2, 7).value_at(Fraction(99, 100))
    with pytest.raises(DivergentTailError):
        GeometricTail(4, 1).value_at(Fraction(1, 4))  # ratio exactly 1
    assert not OnePerDegreeTail(5).convergent_at(Fraction(1))
    with pytest.raises(DivergentTailError):
        OnePerDegreeTail(5).value_at(Fraction(1))
    assert GeometricTail(2, 7).convergent_at(Fraction(3, 4))


def test_f_eval_domain():
    census = tail_bound_census()
    for bad in (0, 1, Fraction(3, 2), -1, Fraction(-1, 4)):
        with pytest.raises(ValueError):
            f_eval(census, bad)


def test_census_validation_and_normalization():
    with pytest.raises(ValueError, match="degree 2"):
        GeneratorCensus({1: 3})
    with pytest.raises(ValueError, match="degree 2"):
        GeneratorCensus({0: 1})
    with pytest.raises(ValueError, match="^relation count at degree 3 must be at least 0, got -1$"):
        GeneratorCensus({3: -1})
    for tail in (OnePerDegreeTail(1), GeometricTail(2, 1)):
        with pytest.raises(ValueError, match="start at degree 2, got .* at degree 1$"):
            GeneratorCensus(tails=(tail,))
    assert GeneratorCensus({2: 0, 3: 1}).counts == ((3, 1),)
    assert GeneratorCensus([(2, 1), (2, 2)]).counts == ((2, 3),)
    assert GeneratorCensus({3: 1, 2: 5}).counts == ((2, 5), (3, 1))


@pytest.mark.parametrize("count", [1.5, True, 2.0, Fraction(3)])
def test_census_refuses_a_count_that_is_not_an_int(count):
    """A float count would make f(tau) a float, and a bool would be read as 0 or 1."""
    for counts in ({3: count}, [(3, count)]):
        with pytest.raises(ValueError, match="^relation count at degree 3 must be an integer"):
            GeneratorCensus(counts)


@pytest.mark.parametrize("degree", [2.5, 3.0, True, "3", Fraction(3)])
def test_census_refuses_a_degree_that_is_not_an_int(degree):
    """A degree of 2.5 made f(1/2) a float, broke gs_report and was dropped by gs_recursion_check."""
    for counts in ({degree: 1}, [(degree, 1)]):
        with pytest.raises(ValueError, match=rf"^relation degree must be an integer, got {re.escape(repr(degree))}$"):
            GeneratorCensus(counts)


def test_census_reads_numpy_integers_as_python_ints():
    """run_construction takes numpy integers, so the census does too."""
    census = GeneratorCensus({np.int64(8): np.int64(3)})
    assert census == GeneratorCensus({8: 3})
    assert [type(x) for pair in census.counts for x in pair] == [int, int]


def test_tail_bound_census_expansion():
    expanded = tail_bound_census().with_tails_expanded(16)
    assert expanded.tails == ()
    assert expanded.count_dict() == {7: 2, 14: 5, 15: 1, 16: 1}
    wider = tail_bound_census().with_tails_expanded(21)
    assert wider.count_dict()[21] == 2**3 + 1  # third geometric term lands on 21


def test_frozen_certificate_values():
    tau = Fraction(3, 4)
    assert GeometricTail(2, 7).value_at(tau) == Fraction(2187, 6005)
    assert OnePerDegreeTail(14).value_at(tau) == Fraction(4782969, 67108864)
    assert round(float(Fraction(2187, 6005)), 4) == 0.3642
    assert round(float(Fraction(4782969, 67108864)), 4) == 0.0713
    value = f_eval(tail_bound_census(), tau)
    assert value == Fraction(-26005549747, 402988728320)
    assert value < 0
    assert abs(float(value) - -0.0645) < 5e-4


def test_witness_search():
    census = tail_bound_census()
    assert witness_search(census, 4) == Fraction(3, 4)
    assert witness_search(census, 2) is None
    with pytest.raises(ValueError):
        witness_search(census, 1)
    # every grid point diverges for a fast tail: skipped, not an error
    fast = GeneratorCensus(tails=(GeometricTail(256, 2),))
    assert witness_search(fast, 4) is None


@pytest.mark.parametrize(
    "census,name",
    [
        (GeneratorCensus({3000000: 1}), "census degree 3000000"),
        (GeneratorCensus(tails=(GeometricTail(2, 3000000),)), "geometric tail field 'step' 3000000"),
    ],
)
def test_witness_search_refuses_a_census_past_the_evaluation_ceiling(census, name):
    """Its taus used to be evaluated unguarded: the count took seconds to reach 4/7."""
    message = f"{name} at tau 1/7: f(tau) would hold more than 262144 bits, past the evaluation ceiling"
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        witness_search(census, 7)
    assert time.perf_counter() - start < 0.5


def test_gs_recursion_check():
    free = HilbertTable(2, (2, 4, 8, 16, 32))
    assert gs_recursion_check(free, GeneratorCensus()) == (True, None)
    dented = HilbertTable(2, (2, 4, 8, 15))
    assert gs_recursion_check(dented, GeneratorCensus()) == (False, 4)
    # one degree-2 relation: the commutator quotient meets the bound with equality
    commutator = HilbertTable(2, (2, 3, 4))
    assert gs_recursion_check(commutator, GeneratorCensus({2: 1})) == (True, None)
    with pytest.raises(ValueError, match="beyond"):
        gs_recursion_check(dented, GeneratorCensus({5: 1}))


def test_json_round_trips():
    for tail in (GeometricTail(3, 2, scale=5), OnePerDegreeTail(9)):
        assert tail_from_json(tail.to_json_dict()) == tail
    with pytest.raises(ValueError, match="kind"):
        tail_from_json({"kind": "harmonic"})
    census = tail_bound_census()
    again = census_from_json(census.to_json_dict())
    assert again == census
    finite = GeneratorCensus({2: 1, 9: 4})
    assert census_from_json(finite.to_json_dict()) == finite


@pytest.mark.parametrize(
    "data,message",
    [
        ([1, 2], "a census must be a JSON object"),
        ({"counts": [2, 1]}, "census field 'counts' must map degrees to integers"),
        ({"counts": {"2": "1"}}, "census field 'counts' must map degrees to integers"),
        ({"tails": {"kind": "geometric"}}, "census field 'tails' must be a list"),
        ({"tails": [7]}, "a census tail must be a JSON object"),
        ({"tails": [{"kind": "geometric", "step": 7}]}, "geometric tail field 'growth'"),
        ({"tails": [{"kind": "geometric", "growth": 2, "step": 7.0}]}, "geometric tail field 'step'"),
        ({"tails": [{"kind": "one_per_degree", "start": "14"}]}, "one_per_degree tail field 'start'"),
        ({"counts": {"x": 1}}, "census field 'counts' must map integer degrees to integers"),
        ({"counts": {"1_0": 1}}, "census field 'counts' must map integer degrees to integers, got key '1_0'"),
        ({"counts": {" 4 ": 1}}, "census field 'counts' must map integer degrees to integers, got key ' 4 '"),
    ],
)
def test_census_json_of_another_shape_names_the_field(data, message):
    with pytest.raises(ValueError) as err:
        census_from_json(data)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize(
    "make,args,field",
    [
        (GeometricTail, (-100, 1), "growth"),
        (GeometricTail, (2, 0), "step"),
        (GeometricTail, (2, 1, -1), "scale"),
        (GeometricTail, (2, Fraction(1)), "step"),
        (OnePerDegreeTail, (0,), "start"),
        (OnePerDegreeTail, (True,), "start"),
    ],
)
def test_tail_fields_must_be_positive_integers(make, args, field):
    """A negative growth would certify a false negative f(tau); a zero step never ends a tail."""
    with pytest.raises(ValueError, match=f"tail field '{field}' must be an integer >= 1"):
        make(*args)


def test_gs_report_accepts_fraction_strings():
    report = gs_report(tail_bound_census(), "3/4")
    assert report["tau"] == "3/4"
    assert report["f_value_exact"] == "-26005549747/402988728320"
    assert report["negative"] is True
    assert abs(report["f_value_decimal"] - -0.064532) < 1e-6


def test_gs_report_refuses_a_value_past_the_largest_float():
    """f(1/2) = r / 4 for r words at degree 2: 2^1028 is past float's range, 2^1018 prints."""
    with pytest.raises(ValueError, match=r"census degree 2 at tau 1/2: \|f\(tau\)\| is past the largest float"):
        gs_report(GeneratorCensus({2: 2**1030}), "1/2")
    assert gs_report(GeneratorCensus({2: 2**1020}), "1/2")["f_value_decimal"] == 2.0**1018


def test_gs_report_names_a_tau_outside_the_unit_interval_before_the_ceiling():
    """A census past the evaluation ceiling does not hide that tau itself is out of range."""
    deep = GeneratorCensus({30000000: 1})
    for tau in ("2", "0", "-1/2"):
        with pytest.raises(ValueError, match=f"tau must lie strictly between 0 and 1, got {tau}$"):
            gs_report(deep, tau)


#: Degrees drawn uniformly, so that draws reach the digit limit as often as not.
DEGREES = range(2, 2401)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["1/2", "3/4", "2/3", "5/6", "7/10", "1/12"]),
    st.sampled_from(range(300, 2401)),
    st.dictionaries(
        st.sampled_from(DEGREES),
        st.sampled_from([1, 2, 3, 6, 12, 2**41, 3**50, 10**30 + 1]),
        max_size=4,
    ),
    st.lists(
        st.one_of(
            st.builds(GeometricTail, st.sampled_from([1, 2, 3, 2**70]), st.sampled_from(DEGREES)),
            st.builds(OnePerDegreeTail, st.sampled_from(DEGREES)),
        ),
        max_size=2,
    ),
    st.integers(0, 2),
)
def test_gs_report_refuses_exactly_the_values_past_the_digit_limit(tau, deep, counts, tails, near):
    """At the interpreter's least digit limit, 640, a value prints as before or is refused.

    The oracle is the exact value: it is refused exactly when its numerator
    or denominator has more than 640 digits.  A count at a degree from 300
    to 2400 straddles that limit for every tau drawn; counts at neighbouring
    degrees and counts sharing the primes of tau's denominator are drawn too.
    Every draw is under the evaluation ceiling, whose bound on the bits of
    the numerator and the denominator is checked as well.
    """
    tau = Fraction(tau)
    counts = {deep: 1, **counts}
    counts.update({n - 1: 1 for n in list(counts)[:near] if n > 2})
    assume(all(t.convergent_at(tau) for t in tails))
    census = GeneratorCensus(counts, tails)
    value = f_eval(census, tau)
    bits, _ = series._eval_bits(census, tau)
    assert max(value.numerator.bit_length(), value.denominator.bit_length()) <= bits
    assert bits <= series.MAX_EVAL_BITS
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        if max(abs(value.numerator), value.denominator) < 10**640:
            report = gs_report(census, tau)
            assert report["f_value_exact"] == f"{value.numerator}/{value.denominator}"
        else:
            message = rf" at tau {tau}: f\(tau\) holds an integer of more than 640 digits"
            with pytest.raises(ValueError, match=message):
                gs_report(census, tau)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "census",
    [
        GeneratorCensus({1000: 2**100}),
        GeneratorCensus({}, (GeometricTail(1, 1000, scale=3**100),)),
        GeneratorCensus({}, (OnePerDegreeTail(1000),)),
    ],
)
def test_eval_bits_covers_a_lone_term_at_tau_near_one(census):
    """At tau = (2^20 - 2)/(2^20 - 1), a^n holds nearly all the n k bits the bound counts."""
    tau = Fraction(2**20 - 2, 2**20 - 1)
    value = f_eval(census, tau)
    bits, _ = series._eval_bits(census, tau)
    assert max(value.numerator.bit_length(), value.denominator.bit_length()) <= bits


@settings(max_examples=50)
@given(
    st.dictionaries(st.integers(2, 9), st.integers(1, 5), max_size=5),
    st.integers(1, 9),
)
def test_f_eval_matches_direct_formula(counts, numerator):
    tau = Fraction(numerator, 10)
    value = f_eval(GeneratorCensus(counts), tau)
    direct = 1 - 2 * tau + sum(r * tau**n for n, r in counts.items())
    assert value == direct


@settings(max_examples=30)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 3), st.integers(5, 30))
def test_geometric_counts_match_closed_form(growth, step, scale, horizon):
    tail = GeometricTail(growth, step, scale)
    counts = tail.counts_up_to(horizon)
    assert all(n % step == 0 and n <= horizon for n in counts)
    for n, r in counts.items():
        assert r == scale * growth ** (n // step)
