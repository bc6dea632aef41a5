"""Exact rational evaluation of relation-count generating functions.

A census records how many defining relations a presentation has in each
degree: finitely many explicit counts plus optional infinite tails with
closed-form sums.  The test function

    f(tau) = 1 - 2*tau + sum_n r_n tau^n

is evaluated exactly with :class:`fractions.Fraction`; a strictly negative
value at some tau in (0, 1) certifies that the algebra presented by two
generators and the censused relations is infinite-dimensional, and the
same counts drive the dimension recursion

    b_n >= 2*b_{n-1} - sum_{i>=2} r_i b_{n-i},   b_0 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import reprlib
import sys

from .linalg import as_integer


class DivergentTailError(ValueError):
    """A tail sum does not converge at the requested evaluation point."""


def _check_fields(tail, kind):
    """Refuse a tail with a field that is not a positive integer, as a count must be."""
    for name, value in vars(tail).items():
        if type(value) is not int or value < 1:
            raise ValueError(f"{kind} tail field {name!r} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class GeometricTail:
    """scale * growth^d relations at degree step*d, for every d >= 1.

    Sums to scale * g*tau^step / (1 - g*tau^step) wherever g*tau^step < 1.
    """

    growth: int
    step: int
    scale: int = 1

    def __post_init__(self):
        _check_fields(self, "geometric")

    def convergent_at(self, tau):
        return self.growth * tau**self.step < 1

    def value_at(self, tau):
        ratio = self.growth * tau**self.step
        if ratio >= 1:
            raise DivergentTailError(
                f"geometric tail (growth {self.growth}, step {self.step}) diverges at tau={tau}"
            )
        return self.scale * ratio / (1 - ratio)

    def counts_up_to(self, horizon):
        out = {}
        d = 1
        while d * self.step <= horizon:
            n = d * self.step
            out[n] = out.get(n, 0) + self.scale * self.growth**d
            d += 1
        return out

    def to_json_dict(self):
        return {
            "kind": "geometric",
            "growth": self.growth,
            "step": self.step,
            "scale": self.scale,
        }


@dataclass(frozen=True)
class OnePerDegreeTail:
    """Exactly one relation at every degree n >= start; sums to tau^start / (1 - tau)."""

    start: int

    def __post_init__(self):
        _check_fields(self, "one_per_degree")

    def convergent_at(self, tau):
        return tau < 1

    def value_at(self, tau):
        if tau >= 1:
            raise DivergentTailError(f"one-per-degree tail diverges at tau={tau}")
        return tau**self.start / (1 - tau)

    def counts_up_to(self, horizon):
        return {n: 1 for n in range(self.start, horizon + 1)}

    def to_json_dict(self):
        return {"kind": "one_per_degree", "start": self.start}


def tail_from_json(data):
    """A tail from its JSON object; any other shape is a ValueError naming the field."""
    if not isinstance(data, dict):
        raise ValueError("a census tail must be a JSON object")
    kind = data.get("kind")
    if kind == "geometric":
        return GeometricTail(data.get("growth"), data.get("step"), data.get("scale", 1))
    if kind == "one_per_degree":
        return OnePerDegreeTail(data.get("start"))
    raise ValueError(f"unknown tail kind {kind!r}")


@dataclass(frozen=True)
class GeneratorCensus:
    """Relation counts by degree: explicit finite counts plus closed-form tails.

    Degrees 0 and 1 never carry relations (the presentation has two
    generators and relations start in degree 2), so such entries, and tails
    with relations at degree 1, are rejected.
    """

    counts: tuple
    tails: tuple = ()

    def __init__(self, counts=(), tails=()):
        items = counts.items() if hasattr(counts, "items") else counts
        clean = {}
        for n, r in items:
            n = as_integer(n, "relation degree")
            r = as_integer(r, f"relation count at degree {n}", 0)
            if r == 0:
                continue
            if n < 2:
                raise ValueError(f"relation counts start at degree 2, got degree {n}")
            clean[n] = clean.get(n, 0) + r
        tails = tuple(tails)
        for tail in tails:
            if tail.counts_up_to(1):
                raise ValueError(f"relation counts start at degree 2, got {tail!r} at degree 1")
        object.__setattr__(self, "counts", tuple(sorted(clean.items())))
        object.__setattr__(self, "tails", tails)

    def count_dict(self):
        return dict(self.counts)

    def with_tails_expanded(self, horizon):
        """A tail-free census whose counts include every tail contribution up to horizon."""
        merged = self.count_dict()
        for tail in self.tails:
            for n, r in tail.counts_up_to(horizon).items():
                merged[n] = merged.get(n, 0) + r
        return GeneratorCensus(merged)

    def to_json_dict(self):
        return {
            "counts": {str(n): r for n, r in self.counts},
            "tails": [t.to_json_dict() for t in self.tails],
        }


def census_from_json(data):
    """A census from its JSON object; any other shape is a ValueError naming the field."""
    if not isinstance(data, dict):
        raise ValueError("a census must be a JSON object with fields counts and tails")
    counts = data.get("counts", {})
    tails = data.get("tails", [])
    if not isinstance(counts, dict) or any(type(r) is not int for r in counts.values()):
        raise ValueError("census field 'counts' must map degrees to integers")
    for n in counts:
        # A degree has one spelling, so "8" and "08" cannot each keep a count of their own.
        try:
            written = str(int(n))
        except ValueError:
            written = None
        if written != n:
            raise ValueError(
                f"census field 'counts' must map integer degrees to integers, got key {reprlib.repr(n)}"
            )
    counts = {int(n): r for n, r in counts.items()}
    if not isinstance(tails, list):
        raise ValueError("census field 'tails' must be a list")
    return GeneratorCensus(counts, tuple(tail_from_json(t) for t in tails))


def tail_bound_census():
    """The census used to certify the generated presentations without running them.

    The torsion relations contribute at most 2^d in degree 7d (a geometric
    tail convergent while 2*tau^7 < 1) and the factorization relations at
    most one per degree from 14 on.
    """
    return GeneratorCensus(
        counts={}, tails=(GeometricTail(growth=2, step=7), OnePerDegreeTail(start=14))
    )


def f_eval(census, tau):
    """Exact value of f(tau) = 1 - 2*tau + sum r_n tau^n at a rational tau in (0, 1).

    Refused before any term is evaluated, naming the term of highest degree
    and tau, when :func:`_eval_bits` passes :data:`MAX_EVAL_BITS`.
    """
    tau = Fraction(tau)
    if not 0 < tau < 1:
        raise ValueError(f"tau must lie strictly between 0 and 1, got {tau}")
    bits, name = _eval_bits(census, tau)
    if bits > MAX_EVAL_BITS:
        raise ValueError(
            f"{name} at tau {tau}: f(tau) would hold more than {MAX_EVAL_BITS} bits,"
            " past the evaluation ceiling"
        )
    total = 1 - 2 * tau
    for n, r in census.counts:
        total += r * tau**n
    for tail in census.tails:
        total += tail.value_at(tau)
    return total


def witness_search(census, denominator):
    """Smallest tau = k/denominator in (0, 1) with every tail convergent and f(tau) < 0.

    Each tau is evaluated by :func:`f_eval`, so a census past its ceiling is
    refused before any term, a tail's included, is computed.
    """
    denominator = as_integer(denominator, "denominator", 2)
    for k in range(1, denominator):
        tau = Fraction(k, denominator)
        try:
            value = f_eval(census, tau)
        except DivergentTailError:
            continue
        if value < 0:
            return tau
    return None


def gs_recursion_check(table, census):
    """Verify b_n >= 2*b_{n-1} - sum_{i=2}^{n} r_i b_{n-i} for 1 <= n <= cap.

    b_0 = 1 is the ground-field convention; b_n for n >= 1 comes from the
    Hilbert table.  Returns (True, None) or (False, first failing degree).
    """
    expanded = census.with_tails_expanded(table.cap).count_dict()
    if any(n > table.cap for n in expanded):
        raise ValueError("census has explicit counts beyond the table's cap")
    b = [1] + [table.dimension(n) for n in range(1, table.cap + 1)]
    for n in range(1, table.cap + 1):
        rhs = 2 * b[n - 1] - sum(
            expanded.get(i, 0) * b[n - i] for i in range(2, n + 1)
        )
        if b[n] < rhs:
            return False, n
    return True, None


#: f(tau) is evaluated only while its terms hold at most this many bits in all (:func:`_eval_bits`).
MAX_EVAL_BITS = 1 << 18


def _eval_bits(census, tau):
    """(bits, name): a bound on the bits of f(tau)'s numerator and denominator, and its top term.

    With tau = a/b in (0, 1) and k = bits(b), each term p/q of f(tau) has
    |p| < 2^t and q < 2^(t - 1) for its t: k + 1 for 1 - 2 tau, n k + bits(r)
    for a count r at degree n, step k + bits(scale growth) for a geometric
    tail and start k + k for a one-per-degree tail.  The sum of m terms has
    a numerator below m 2^(T - m + 1) <= 2^T and a denominator below 2^T,
    T the sum of their t.  The name is the term of highest degree, a
    one-per-degree tail counting as degree start - 1; on a tie, a
    one-per-degree tail is named before a count, a count before a geometric tail.
    """
    k = tau.denominator.bit_length()
    terms = [(1, k + 1, "-2 tau")]
    terms += [
        (t.start - 1, t.start * k + k, f"one_per_degree tail field 'start' {t.start}")
        for t in census.tails
        if isinstance(t, OnePerDegreeTail)
    ]
    terms += [(n, n * k + r.bit_length(), f"census degree {n}") for n, r in census.counts]
    terms += [
        (t.step, t.step * k + (t.scale * t.growth).bit_length(), f"geometric tail field 'step' {t.step}")
        for t in census.tails
        if isinstance(t, GeometricTail)
    ]
    return sum(bits for _, bits, _ in terms), max(terms, key=lambda term: term[0])[2]


def gs_report(census, tau):
    """JSON-ready report of an exact evaluation at tau.

    Refused, naming the term of highest degree and tau: by :func:`f_eval`
    before evaluation past its ceiling, whatever the interpreter's digit
    limit, and after it when f(tau) holds an integer past that limit or is
    past the largest float, so that no decimal prints.
    """
    tau = Fraction(tau)
    value = f_eval(census, tau)
    name = _eval_bits(census, tau)[1]
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if limit and max(abs(value.numerator), value.denominator) >= 10**limit:
        raise ValueError(
            f"{name} at tau {tau}: f(tau) holds an integer of more than {limit} digits,"
            " past the interpreter's limit on printing one"
        )
    try:
        decimal = float(value)
    except OverflowError:
        raise ValueError(
            f"{name} at tau {tau}: |f(tau)| is past the largest float, so no decimal prints"
        ) from None
    return {
        "tau": str(tau),
        "f_value_exact": f"{value.numerator}/{value.denominator}",
        "f_value_decimal": decimal,
        "negative": value < 0,
    }
