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
import math
import sys


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
        for n, r in sorted(items):
            if r < 0:
                raise ValueError(f"negative relation count {r} at degree {n}")
            if r == 0:
                continue
            if n < 2:
                raise ValueError(f"relation counts start at degree 2, got degree {n}")
            clean[n] = clean.get(n, 0) + r
        tails = tuple(tails)
        for tail in tails:
            if tail.counts_up_to(1):
                raise ValueError(f"relation counts start at degree 2, got {tail!r} at degree 1")
        object.__setattr__(self, "counts", tuple(clean.items()))
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
    try:
        counts = {int(n): r for n, r in counts.items()}
    except ValueError:
        raise ValueError("census field 'counts' must map integer degrees to integers") from None
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
    """Exact value of f(tau) = 1 - 2*tau + sum r_n tau^n at a rational tau in (0, 1)."""
    tau = Fraction(tau)
    if not 0 < tau < 1:
        raise ValueError(f"tau must lie strictly between 0 and 1, got {tau}")
    total = 1 - 2 * tau
    for n, r in census.counts:
        total += r * tau**n
    for tail in census.tails:
        total += tail.value_at(tau)
    return total


def witness_search(census, denominator):
    """Smallest tau = k/denominator in (0, 1) with every tail convergent and f(tau) < 0."""
    if denominator < 2:
        raise ValueError(f"denominator must be at least 2, got {denominator}")
    for k in range(1, denominator):
        tau = Fraction(k, denominator)
        if not all(t.convergent_at(tau) for t in census.tails):
            continue
        if f_eval(census, tau) < 0:
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


def _denominator_bits(census, tau):
    """(bits, name): the term of highest degree, and 2^bits at most the denominator of f(tau).

    Let tau = a/b and q be a prime of b.  A count r at degree n has q-adic
    valuation v_q(r) - n v_q(b); so has 1 with r = 1 at n = 0, -2 tau with
    r = 2 at n = 1, and a one-per-degree tail with r = 1 at n = start - 1.
    A geometric tail has at least 0 unless q divides a growth of more bits
    than the step, and such q are left out.  A count r alone at the top
    degree D, the next at D2, then has the least valuation wherever
    v_q(r) < (D - D2) v_q(b): at each q prime to r, and at each q once
    bits(r) <= D - D2.  There q^(D v_q(b) - v_q(r)) divides the denominator.
    While r has more bits than D - D2 and both are census counts, the two
    are folded into one count at D: r a^k / b^D + s tau^D2 is
    (r a^(k - D2) + s b^(D - D2)) a^D2 / b^D, with k = D before the first
    fold.  The geometric tail of largest step gives a bound of its own,
    :func:`_geometric_bits`, and the larger bound is returned.
    """
    a, b = tau.numerator, tau.denominator
    base = b
    terms = [(0, 1, "1"), (1, 2, "-2 tau")]
    geometric = []
    for t in census.tails:
        if isinstance(t, OnePerDegreeTail):
            terms.append((t.start - 1, 1, f"one_per_degree tail field 'start' {t.start}"))
        else:
            geometric.append((t.step, 0, f"geometric tail field 'step' {t.step}"))
            if t.step < t.growth.bit_length():
                base = _coprime_part(base, t.growth)
    if census.counts:
        other_top = max(n for n, _, _ in terms)
        *rest, (top, count) = census.counts
        power = top
        while rest and rest[-1][0] >= other_top and count.bit_length() > top - rest[-1][0]:
            n, r = rest.pop()
            count, power = count * a ** (power - n) + r * b ** (top - n), n
        terms += [(n, r, f"census degree {n}") for n, r in [*rest, (top, count)]]
    terms.sort(key=lambda term: term[0])
    (below, _, _), (top, count, _) = terms[-2:]
    name = max(terms + geometric, key=lambda term: term[0])[2]
    bits = _geometric_bits(census, tau, top)
    if below < top:
        bits = max(bits, top * (_coprime_part(base, count).bit_length() - 1))
        if count.bit_length() <= top - below:
            bits = max(bits, top * (base.bit_length() - 1) - count.bit_length())
    return bits, name


#: Steps are read as at most this in :func:`_geometric_bits`, so that they stay floats.
_STEP_CAP = 1 << 64


def _geometric_bits(census, tau, top):
    """A lower bound on the bits of the denominator of f(tau) from its geometric tail of largest step.

    With tau = a/b, a geometric tail is scale g a^s / E, E = b^s - g a^s
    prime to a, so its denominator is at least E / (scale g), and E >= b^s / 2
    once g a^s <= b^s / 2.  The rest of f has a denominator dividing
    b^top (b - a)^k prod E_i, over its k one-per-degree tails and its other
    geometric tails, with each E_i < b^(s_i) while that tail converges.  The
    denominator of f is at least the tail's over the rest's.  Logarithms are
    floats, so each comparison keeps a margin, and a step past
    :data:`_STEP_CAP` counts as that cap only where it lowers the bound.
    Where the conditions are not sure to hold, the bound is 0.
    """
    tails = sorted((t for t in census.tails if isinstance(t, GeometricTail)), key=lambda t: t.step)
    a, b = tau.numerator, tau.denominator
    if not (tails and 0 < a < b):
        return 0
    *others, tail = tails
    # log2(b / a) > 0, with log1p where b is close to a and the difference would lose it.
    log_ratio = math.log2(b) - math.log2(a) if b > 2 * a else math.log1p((b - a) / a) / math.log(2)

    def room(t):
        """A lower bound on log2(b^s / (g a^s)), the bits of 1 / (g tau^s)."""
        x, y = min(t.step, _STEP_CAP) * log_ratio, math.log2(t.growth)
        return x - y - 1e-9 * (x + y)

    if room(tail) < 1 or any(room(t) <= 0 for t in others):
        return 0
    m = min(tail.step - top - sum(t.step for t in others), _STEP_CAP)
    if m <= 0:
        return 0
    k = sum(isinstance(t, OnePerDegreeTail) for t in census.tails)
    x = m * math.log2(b)
    y = 1 + math.log2(tail.scale) + math.log2(tail.growth) + k * math.log2(b - a)
    return max(0, math.floor(x - y - 1e-9 * (x + y)))


def _coprime_part(b, m):
    """The largest divisor of b prime to m: b / gcd(b, m^bits(b)), as v_q(b) < bits(b)."""
    return b // math.gcd(b, pow(m, b.bit_length(), b))


def gs_report(census, tau):
    """JSON-ready report of an exact evaluation at tau.

    A value with an integer past the interpreter's limit on printing one is
    refused, naming the term of highest degree (``_denominator_bits``) and
    tau: before evaluation when its denominator has more than 10/3 bits a
    digit allowed, since 10^limit < 2^(10 limit / 3), and otherwise after it.
    A value of magnitude past the largest float, which has no decimal
    approximation to print, is refused the same way.
    """
    tau = Fraction(tau)
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    bits, name = _denominator_bits(census, tau)
    refusal = ValueError(
        f"{name} at tau {tau}: f(tau) holds an integer of more than {limit} digits,"
        " past the interpreter's limit on printing one"
    )
    if limit and bits > 10 * limit // 3:
        raise refusal
    value = f_eval(census, tau)
    if limit and max(abs(value.numerator), value.denominator) >= 10**limit:
        raise refusal
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
