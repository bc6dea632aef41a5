"""Factorization of 1 + a into homogeneous factors 1 + h_i, to any target precision.

For a in the augmentation part A+, the product of 1 + a_d over the
homogeneous slices a_d of a equals 1 + a + (higher-order cross terms).
Appending, for each homogeneous slice b_d of the current residual in
ascending degree, a further factor 1 - b_d cancels that slice and only
disturbs strictly higher degrees, so each correction round raises the
residual valuation by at least one.  Iterating until the valuation
reaches m writes 1 + a as a product of homogeneous factors times
1 + (terms of degree >= m); with m = cap + 1 the residual is identically
zero and the factorization is exact in the truncated algebra.

The seed and every round run one loop.  The product (1 for the seed) is
held as one plain-int term dict per degree, seeded from 1 + a + residual.
A factor 1 + h of degree e adds prod_d * h into prod_(d + e) by
``freealg._accumulate`` for d from cap - e down to 0: top degree first,
every slice is read before anything is added to it, so prod + prod * h is
built in place.  A coefficient is reduced mod p when it is read, and the
residual, prod - 1 - a, once at the end of the round, into the per-degree
slices the next round reads as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

from .freealg import TruncatedPoly, _accumulate, homogeneous_parts, one, valuation
from .text import format_poly


@dataclass(frozen=True)
class FactorizationTrace:
    """State of a factorization run.

    factors holds homogeneous h_i with product(1 + h_i) = 1 + target + residual;
    steps counts completed correction rounds.
    """

    target: object
    factors: tuple
    residual: object
    steps: int

    @property
    def residual_valuation(self):
        return valuation(self.residual)

    def product(self):
        """The current partial product of the 1 + h_i, recomputed from the invariant."""
        return one(self.target.p, self.target.cap) + self.target + self.residual


def _append_factors(trace, factors, steps):
    """Multiply the trace's product by each homogeneous 1 + h in order and read off the residual."""
    a = trace.target
    p, cap = a.p, a.cap
    prod = [{} for _ in range(cap + 1)]
    prod[0][""] = 1
    for d, part in [*a._slices.items(), *trace.residual._slices.items()]:
        slot = prod[d]
        for w, c in part.items():
            slot[w] = slot.get(w, 0) + c
    for h in factors:
        ((e, right),) = h._slices.items()
        for d in range(cap - e, -1, -1):
            if prod[d]:
                _accumulate(prod[d + e], prod[d], right, p)
    # The seed put every word of a into prod, so the residual prod - 1 - a is read in place.
    residual = {}
    for d in range(1, cap + 1):
        slot = prod[d]
        for w, c in a._slices.get(d, {}).items():
            slot[w] -= c
        part = {w: c % p for w, c in slot.items() if c % p}
        if part:
            residual[d] = part
    return FactorizationTrace(
        a, trace.factors + tuple(factors), TruncatedPoly._from_view(p, cap, residual), steps
    )


def initial_factorization(a):
    """Seed trace: one factor 1 + a_d per homogeneous slice of a, ascending degree."""
    if a.constant_term:
        raise ValueError("factorization targets must have zero constant term")
    parts = [part for _, part in homogeneous_parts(a)]
    return _append_factors(FactorizationTrace(a, (), -a, 0), parts, 0)


def correction_step(trace):
    """One round: cancel every homogeneous slice of the residual, lowest degree first.

    The returned trace has strictly larger residual valuation (or an
    already-zero residual, in which case the trace is returned unchanged).
    """
    if trace.residual.is_zero:
        return trace
    before = trace.residual_valuation
    parts = [-part for _, part in homogeneous_parts(trace.residual)]
    after = _append_factors(trace, parts, trace.steps + 1)
    if after.residual_valuation <= before:
        raise AssertionError(
            "correction round failed to raise the residual valuation"
            f" ({before} -> {after.residual_valuation})"
        )
    return after


def factor_to_valuation(a, m):
    """Correct until the residual valuation is at least m (1 <= m <= cap + 1).

    At most m rounds are needed; m = cap + 1 forces a residual of exactly
    zero, i.e. an exact factorization of 1 + a in the truncated algebra.
    """
    if not 1 <= m <= a.cap + 1:
        raise ValueError(f"target valuation must lie in 1..{a.cap + 1}, got {m}")
    trace = initial_factorization(a)
    for _ in range(m):
        if trace.residual_valuation >= m:
            break
        trace = correction_step(trace)
    if trace.residual_valuation < m:
        raise AssertionError(f"factorization failed to reach valuation {m}")
    return trace


def trace_to_json(trace):
    """JSON-ready dict with the target, factors, residual, valuation, and step count."""
    rv = trace.residual_valuation
    return {
        "a": format_poly(trace.target),
        "factors": [format_poly(h) for h in trace.factors],
        "residual": format_poly(trace.residual),
        "valuation": "infinity" if rv == float("inf") else int(rv),
        "steps": trace.steps,
    }
