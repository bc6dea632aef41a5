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

The seed, which is the round from the residual -a, and every correction
round run one loop.  The run starts from the product 1, one plain-int term
dict per degree, and carries it through every round.  A factor 1 + h of
degree e adds prod_d * h into prod_(d + e) by ``freealg._accumulate`` for
d from cap - e down to 0: top degree first, every slice is read before
anything is added to it, so prod + prod * h is built in place.  A
coefficient is reduced mod p when it is read, never in prod.  The residual,
prod - 1 - a, is read from the round's valuation up, the least degree the
round can change, into the slices the next round reads as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

from .freealg import INFINITY, TruncatedPoly, _accumulate, valuation
from .linalg import as_integer
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


def correction_step(trace):
    """One round: cancel every homogeneous slice of the residual, lowest degree first.

    Each round strictly raises the residual valuation, so the round after a trace is the
    run from its target to one past its valuation.  A zero residual returns the trace.
    """
    if trace.residual.is_zero:
        return trace
    return factor_to_valuation(trace.target, trace.residual_valuation + 1)


def factor_to_valuation(a, m):
    """Correct until the residual valuation is at least m (1 <= m <= cap + 1).

    At most m rounds are needed; m = cap + 1 forces a residual of exactly
    zero, i.e. an exact factorization of 1 + a in the truncated algebra.
    An m that is not an integer is refused.
    """
    m = as_integer(m, "target valuation", 1, a.cap + 1)
    if a.constant_term:
        raise ValueError("factorization targets must have zero constant term")
    p, cap = a.p, a.cap
    target = a._slices
    prod = [{} for _ in range(cap + 1)]
    prod[0][""] = 1
    factors = []
    # The seed is the round from the residual -a, whose negated slices are those of a.  It
    # counts no correction step, so it starts from step -1; a zero a runs no round.
    residual = (-a)._slices
    steps = 0 if a.is_zero else -1
    while residual:
        low = min(residual)
        for e in sorted(residual):
            h = {w: p - c for w, c in residual[e].items()}
            factors.append(TruncatedPoly._from_view(p, cap, {e: h}))
            for d in range(cap - e, -1, -1):
                if prod[d]:
                    _accumulate(prod[d + e], prod[d], h, p)
        # Below low the round changed nothing and the residual was already zero.  Only words
        # of prod are read: the seed adds a's slices to prod_0 = 1, so every word of a is one.
        residual = {}
        for d in range(low, cap + 1):
            if less := target.get(d):
                part = {w: r for w, c in prod[d].items() if (r := (c - less.get(w, 0)) % p)}
            else:
                part = {w: r for w, c in prod[d].items() if (r := c % p)}
            if part:
                residual[d] = part
        steps += 1
        after = min(residual, default=INFINITY)
        if after <= low:
            raise AssertionError(
                f"correction round failed to raise the residual valuation ({low} -> {after})"
            )
        if after >= m:
            break
    trace = FactorizationTrace(a, tuple(factors), TruncatedPoly._from_view(p, cap, residual), steps)
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
