"""Deterministic construction of relation generators for the two-generator algebra.

The driver enumerates the nonzero augmentation-part elements f_1, f_2, ...
in a fixed order and factors 1 + f_l into homogeneous factors until the
residual valuation clears a moving threshold: at least 14, and strictly
above every residual degree produced so far.  The homogeneous slices of
each residual join the ideal I, so their degrees are pairwise distinct and
at least 14 (at most one relation per degree).  Independently, the ideal J
collects the q-th powers h^q of one representative h per projective
equivalence class of homogeneous elements, where q = p^alpha is the
smallest p-th power with p^alpha >= 7; by the binomial theorem mod p these
powers are exactly the q-th circle powers, so every homogeneous class is
torsion of exponent dividing q in the quotient's adjoint group.  The same
identity, (1 + h)^(p^t) - 1 = h^(p^t), lets the torsion certificate test
each class by plain powers of h: homogeneous products only, never the
mixed-degree expansion of (1 + h)^(p^t).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice, product

from . import linalg
from .factorization import factor_to_valuation, trace_to_json
from .freealg import TERM_BYTES, TruncatedPoly, check_context, homogeneous_parts, words_of_degree
from .graded import GradedIdeal, normal_form
from .series import GeneratorCensus, tail_bound_census
from .text import format_poly

#: Residual degrees must reach at least this before they may enter I.
MIN_RELATION_DEGREE = 14


def torsion_exponent(p):
    """Smallest alpha >= 1 with p^alpha >= 7; a p that is not prime is refused."""
    return linalg.ceil_log(linalg.check_modulus(p), 7)


def projective_class_count(p, d):
    """Number of lines through nonzero homogeneous elements of degree d >= 1: (p^(2^d)-1)/(p-1)."""
    p, d = linalg.check_modulus(p), linalg.as_integer(d, "degree", 1)
    return (p ** (1 << d) - 1) // (p - 1)


def projective_class_reps(p, d, cap):
    """One normalized representative per projective class of nonzero degree-d elements (1 <= d <= cap).

    Normalization: the coefficient of the first supported word (in
    canonical order) is 1.  Representatives are emitted by ascending
    support size, then support, then coefficient vector, so the order is
    deterministic and starts with the single words x..., y....
    """
    words = words_of_degree(linalg.as_integer(d, "degree", 1, cap))
    for size in range(1, len(words) + 1):
        for support in combinations(words, size):
            for rest in product(range(1, p), repeat=size - 1):
                yield TruncatedPoly(p, cap, dict(zip(support, (1,) + rest)))


def element_stream(p, cap):
    """Yield the nonzero augmentation part in a fixed order, truncated at cap.

    Elements are grouped by stage (their maximal term degree), ascending;
    within a stage, by support size, then by support combination in the
    canonical word order, then by ascending coefficient vectors.  Every
    element with bounded term degrees therefore appears after finitely
    many steps, and the enumeration begins x, y, x + y over F_2.
    """
    words = []
    for stage in range(1, cap + 1):
        fresh = list(words_of_degree(stage))
        words += fresh
        top = set(fresh)
        for size in range(1, len(words) + 1):
            for support in combinations(words, size):
                if not top.intersection(support):
                    continue
                for coeffs in product(range(1, p), repeat=size):
                    yield TruncatedPoly(p, cap, dict(zip(support, coeffs)))


def enumerate_aplus(p, index, cap):
    """The index-th element of element_stream(p, cap), counting from 1."""
    index = linalg.as_integer(index, "index", 1)
    element = next(islice(element_stream(p, cap), index - 1, None), None)
    if element is None:
        raise ValueError(f"enumeration exhausted before index {index}")
    return element


@dataclass(frozen=True)
class ConstructionState:
    """Everything a construction run produced, enough to rebuild its ideals.

    It stores only what the run decided; ``alpha``, ``processed`` and
    ``cap_too_small`` are read off those fields, so none can disagree with them.
    """

    p: int
    cap: int
    max_elements: int
    i_generators: tuple
    j_generators: tuple
    traces: tuple

    @property
    def alpha(self):
        """The torsion exponent of p: q = p^alpha is the least power of p at or above 7."""
        return torsion_exponent(self.p)

    @property
    def processed(self):
        """The number of elements factored, one trace each."""
        return len(self.traces)

    @property
    def cap_too_small(self):
        """True when no degree up to the cap can hold an I-generator."""
        return self.cap < MIN_RELATION_DEGREE


def build_j_generators(p, cap):
    """(degree, h^q) for one representative h per class per degree d with q*d <= cap.

    Before the first class is built, the generators are refused with a
    :class:`~adjointalg.linalg.ResourceLimitError` if their terms, at most
    every word of degree q*d for each class, would take more bytes than
    ``linalg.MAX_GF2_BLOCK_BYTES``.  The sum stops at the first degree past
    that ceiling, so even a huge cap is refused at once.  A p that is not
    prime or a cap below 1 is refused first.
    """
    p, cap = check_context(p, cap)
    q = p ** torsion_exponent(p)
    terms, limit = 0, linalg.MAX_GF2_BLOCK_BYTES
    for d in range(1, cap // q + 1):
        terms += projective_class_count(p, d) << q * d
        if terms * TERM_BYTES > limit:
            raise linalg.ResourceLimitError(
                f"the torsion generators up to degree {q * d} may hold {terms} terms,"
                f" about {terms * TERM_BYTES} bytes, over the limit of {limit} bytes"
            )
    out = []
    for d in range(1, cap // q + 1):
        for h in projective_class_reps(p, d, cap):
            out.append((q * d, h**q))
    return out


def run_construction(p, cap, max_elements):
    """Run the generator construction at the given truncation cap.

    Factorization thresholds above the cap cannot be requested, so the run
    stops once the next threshold would exceed it (or after max_elements
    enumerated elements).  Caps below 14 cannot hold any I-generator at
    all; such runs return an empty I with cap_too_small set, but still
    carry the torsion generators J.  A p that is not prime, a cap below 1
    and a max_elements below 0 or not an integer are refused before any
    work.
    """
    p, cap = check_context(p, cap)
    max_elements = linalg.as_integer(max_elements, "max_elements", 0)
    j_gens = tuple(build_j_generators(p, cap))
    stream = element_stream(p, cap)
    i_gens = []
    traces = []
    threshold = MIN_RELATION_DEGREE
    while len(traces) < max_elements and threshold <= cap:
        trace = factor_to_valuation(next(stream), threshold)
        traces.append(trace)
        for d, part in homogeneous_parts(trace.residual):
            if d < threshold:
                raise AssertionError(
                    f"residual degree {d} violates the threshold invariant"
                )
            i_gens.append((d, part))
            threshold = d + 1
    return ConstructionState(p, cap, max_elements, tuple(i_gens), j_gens, tuple(traces))


def combined_ideal(state):
    """The graded ideal generated by I and J together."""
    gens = [g for _, g in state.i_generators] + [g for _, g in state.j_generators]
    return GradedIdeal(state.p, state.cap, gens)


def torsion_certificate(state, ideal=None):
    """Exact adjoint order of every projective class representative modulo I + J.

    For each representative h with q*d <= cap the q-th circle power lies in
    J by construction, so every order divides q = p^alpha; the certificate
    records the exact p-power order found.  In characteristic p, 1 commutes
    with h and the binomial coefficients C(p, i) with 0 < i < p vanish, so
    the p^t-th circle power (1 + h)^(p^t) - 1 is h^(p^t).  The orders are
    therefore read off the chain h, h^p, h^(p^2), ..., each link the p-th
    power of the one before, and the chain stops at the first link in the
    ideal.
    """
    if ideal is None:
        ideal = combined_ideal(state)
    if ideal.p != state.p or ideal.cap != state.cap:
        raise ValueError("certificate ideal does not match the construction context")
    q = state.p**state.alpha
    entries = []
    for d in range(1, state.cap // q + 1):
        for h in projective_class_reps(state.p, d, state.cap):
            order = None
            power = h
            for t in range(state.alpha + 1):
                if t:
                    power = power**state.p
                if normal_form(power, ideal).is_zero:
                    order = state.p**t
                    break
            entries.append(
                {
                    "degree": d,
                    "element": format_poly(h),
                    "order": order,
                    "divides_bound": order is not None,
                }
            )
    return {
        "p": state.p,
        "alpha": state.alpha,
        "torsion_bound": q,
        "classes": entries,
        "ok": all(e["divides_bound"] for e in entries),
    }


def census_from_state(state):
    """Actual relation counts of the run: one entry per I-generator and per J-generator."""
    counts = {}
    for d, _ in state.i_generators + state.j_generators:
        counts[d] = counts.get(d, 0) + 1
    return GeneratorCensus(counts)


def compare_with_tail_bound(state):
    """How the run's actual counts sit against the closed-form tail census.

    The I side is covered degree-for-degree (at most one relation per
    degree, starting at 14).  The torsion side is modeled as 2^d relations
    at degree 7d; the actual count per degree d is the class count
    (p^(2^d) - 1)/(p - 1) at degree q*d >= 7d, which exceeds the modeled
    count once d >= 1, so the comparison is reported rather than asserted.
    """
    i_degrees = sorted(d for d, _ in state.i_generators)
    i_ok = len(set(i_degrees)) == len(i_degrees) and all(
        d >= MIN_RELATION_DEGREE for d in i_degrees
    )
    q = state.p**state.alpha
    j_rows = []
    for d in range(1, state.cap // q + 1):
        count = projective_class_count(state.p, d)
        j_rows.append(
            {
                "d": d,
                "degree": q * d,
                "count": count,
                "modeled_degree": 7 * d,
                "modeled_count": 2**d,
                "within_model": count <= 2**d,
            }
        )
    return {
        "i": {"ok": i_ok, "degrees": i_degrees},
        "j": j_rows,
        "tail_census": tail_bound_census().to_json_dict(),
        "note": (
            "torsion class counts grow doubly exponentially in d and are"
            " reported against the modeled 2^d, not asserted to match"
        ),
    }


def manifest(state):
    """JSON-ready record of a construction run."""
    return {
        "p": state.p,
        "cap": state.cap,
        "max_elements": state.max_elements,
        "alpha": state.alpha,
        "processed": state.processed,
        "cap_too_small": state.cap_too_small,
        "I": [{"degree": d, "poly": format_poly(g)} for d, g in state.i_generators],
        "J": [{"degree": d, "poly": format_poly(g)} for d, g in state.j_generators],
        "traces": [trace_to_json(t) for t in state.traces],
        "census": census_from_state(state).to_json_dict(),
    }
