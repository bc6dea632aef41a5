"""End-to-end acceptance checks, runnable from the command line or the test suite.

Each check exercises one guaranteed behavior of the package at a fixed
scale, compares against values frozen from independent computations or
against the package-independent reference routines in :mod:`.oracle`
(plain dict multiplication, exhaustive span closure, pure-Python group
tables), and returns a result record with a pass/fail verdict, timing,
and a one-line detail.  Checks with a stated time budget fail when they
exceed it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .construction import (
    census_from_state,
    combined_ideal,
    run_construction,
    torsion_certificate,
)
from .factorization import factor_to_valuation
from .finite import (
    AdjointGroup,
    cyclic_width,
    direct_sum,
    exp_bound_check,
    index_exponent_check,
    strictly_upper_triangular_algebra,
    truncated_polynomial_algebra,
)
from .freealg import TruncatedPoly, circle_pow
from .graded import GradedIdeal, quotient_dimensions
from .oracle import (
    brute_circle,
    brute_cyclic_width,
    component_span_vectors,
    expand_one_plus,
    naive_add,
    seeded_terms,
    span_closure,
)
from .series import f_eval, gs_recursion_check, tail_bound_census

DEFAULT_SEED = 20260823


@dataclass
class CheckResult:
    name: str
    ok: bool
    seconds: float
    budget: float | None
    detail: str

    @property
    def passed(self):
        if self.budget is not None and self.seconds >= self.budget:
            return False
        return self.ok

    def line(self):
        verdict = "PASS" if self.passed else "FAIL"
        timing = f"{self.seconds:.2f}s"
        if self.budget is not None:
            timing += f" (budget {self.budget:.0f}s)"
        return f"{verdict} {self.name} [{timing}] {self.detail}"


# ---------------------------------------------------------------------------
# The checks.


def check_series_evaluation(seed=DEFAULT_SEED):
    census = tail_bound_census()
    tau = Fraction(3, 4)
    torsion_tail, relation_tail = census.tails
    tv = torsion_tail.value_at(tau)
    rv = relation_tail.value_at(tau)
    fv = f_eval(census, tau)
    checks = [
        tv == Fraction(2187, 6005),
        round(float(tv), 4) == 0.3642,
        rv == Fraction(4782969, 67108864),
        round(float(rv), 4) == 0.0713,
        abs(float(rv) - 0.071) <= 5e-4,
        fv == Fraction(-26005549747, 402988728320),
        fv < 0,
        abs(float(fv) - (-0.0645)) <= 5e-4,
    ]
    detail = f"f(3/4) = {fv} ~ {float(fv):.7f}"
    return all(checks), detail


def check_factorization(seed=DEFAULT_SEED):
    rng = random.Random(seed)
    p, cap, m = 2, 10, 10
    failures = 0
    for _ in range(200):
        a = TruncatedPoly(p, cap, seeded_terms(rng, p, max_degree=4))
        trace = factor_to_valuation(a, m)
        good = trace.residual_valuation >= m
        good &= all(h.is_homogeneous and not h.is_zero for h in trace.factors)
        expanded = expand_one_plus([h.terms for h in trace.factors], p, cap)
        expected = naive_add(naive_add({"": 1}, a.terms, p), trace.residual.terms, p)
        good &= expanded == expected
        if not good:
            failures += 1
    return failures == 0, f"200 runs at cap {cap}, target valuation {m}; {failures} failures"


def check_frobenius_powers(seed=DEFAULT_SEED):
    rng = random.Random(seed)
    cap = 12
    failures = 0
    for p in (2, 3):
        for _ in range(100):
            f = TruncatedPoly(p, cap, seeded_terms(rng, p, max_degree=3))
            for beta in (1, 2):
                if circle_pow(f, p**beta) != f ** (p**beta):
                    failures += 1
        big = p ** (5 if p == 2 else 3)  # first p-power beyond the cap
        for _ in range(20):
            f = TruncatedPoly(p, cap, seeded_terms(rng, p, max_degree=3))
            if not circle_pow(f, big).is_zero:
                failures += 1
    return failures == 0, f"100 samples per prime at cap {cap}; {failures} failures"


def check_construction_pipeline(seed=DEFAULT_SEED):
    state = run_construction(2, 16, max_elements=10)
    i_degrees = [d for d, _ in state.i_generators]
    j_degrees = sorted(d for d, _ in state.j_generators)
    checks = [
        len(set(i_degrees)) == len(i_degrees),
        all(d >= 14 for d in i_degrees),
        j_degrees == [8] * 3 + [16] * 15,
    ]
    table = quotient_dimensions(combined_ideal(state))
    checks.append(all(table.dimension(n) == 2**n for n in range(1, 8)))
    checks.append(table.dimension(8) == 253)
    holds, bad = gs_recursion_check(table, census_from_state(state))
    checks.append(holds)
    dims = ",".join(str(d) for d in table.dims)
    detail = (
        f"I degrees {sorted(i_degrees)}; J 3@8+15@16;"
        f" dims {dims}; recursion {'holds' if holds else f'fails at {bad}'}"
    )
    return all(checks), detail


def check_torsion_certificate(seed=DEFAULT_SEED):
    state = run_construction(2, 8, max_elements=0)
    cert = torsion_certificate(state)
    orders = [e["order"] for e in cert["classes"]]
    checks = [
        cert["ok"],
        cert["torsion_bound"] == 8,
        len(orders) == 3,
        all(o == 8 for o in orders),
    ]
    return all(checks), f"degree-1 class orders {orders} all divide 8"


def _index_identity_holds(alg):
    """Dual route: subgroup sizes counted exhaustively match the rank formula."""
    population = np.array(list(alg.elements()), dtype=np.int64)
    for n in range(1, alg.nilpotency_class):
        sub = alg.power_space(n + 1)
        reduced = sub.reduce_matrix(population)
        members = int(np.sum(~reduced.any(axis=1)))
        if members != alg.p**sub.rank:
            return False
        if (alg.p**alg.dim) // members != alg.p ** (alg.dim - sub.rank):
            return False
    return True


def check_exponent_bounds(seed=DEFAULT_SEED):
    algebras = []
    for p in (2, 3):
        algebras += [truncated_polynomial_algebra(p, n) for n in range(2, 10)]
        algebras += [strictly_upper_triangular_algebra(p, s) for s in (2, 3, 4)]
    bad = []
    for alg in algebras:
        report = exp_bound_check(alg)
        if not report["ok"] or not _index_identity_holds(alg):
            bad.append(repr(alg))
    return not bad, f"{len(algebras)} algebras, exact bounds and indices; bad: {bad or 'none'}"


def check_cyclic_width(seed=DEFAULT_SEED):
    """Widths by rank on abelian groups, by bound and witness on a nonabelian one; oracle agrees."""
    w_chain = cyclic_width(AdjointGroup(truncated_polynomial_algebra(2, 3)))
    klein = direct_sum(
        truncated_polynomial_algebra(2, 2), truncated_polynomial_algebra(2, 2)
    )
    w_klein = cyclic_width(AdjointGroup(klein))
    ut = AdjointGroup(strictly_upper_triangular_algebra(2, 4))
    w_ut = cyclic_width(ut)
    w_ut_searched = brute_cyclic_width(ut.multiplication_index_table().tolist(), 8)
    big = truncated_polynomial_algebra(2, 9)
    w_big = cyclic_width(AdjointGroup(big))
    w_searched = brute_cyclic_width(AdjointGroup(big).multiplication_index_table().tolist(), 8)
    chain_report = index_exponent_check(big, w_big) if w_big else {"ok": False}
    checks = [
        w_chain == 1,
        w_klein == 2,
        w_ut == 3,
        w_ut_searched == w_ut,
        w_big is not None,
        w_searched == w_big,
        chain_report["ok"],
        chain_report.get("aggregate_ok", False),
    ]
    detail = (
        f"width(order-4 chain group) = {w_chain}; width(Klein group) = {w_klein};"
        f" width(order-64 unitriangular group) = {w_ut} by bound and witness,"
        f" {w_ut_searched} by the oracle;"
        f" width(order-256 group) = {w_big} by rank, {w_searched} by the oracle, index bounds hold"
    )
    return all(checks), detail


def check_independent_routes(seed=DEFAULT_SEED):
    problems = []

    # Route one: degree components versus exhaustive span closure.
    cases = [
        (2, 4, [{"xy": 1, "yx": 1}]),
        (2, 5, [{"xxx": 1, "xyy": 1}]),
        (3, 3, [{"xx": 1}, {"xy": 1, "yx": 2}]),
    ]
    for p, cap, gen_dicts in cases:
        ideal = GradedIdeal(p, cap, [TruncatedPoly(p, cap, g) for g in gen_dicts])
        for n in range(1, cap + 1):
            basis = ideal.component_basis(n)
            vectors = component_span_vectors(gen_dicts, p, n)
            closure = (
                span_closure(vectors, p) if vectors else {tuple([0] * (2**n))}
            )
            if len(closure) != p**basis.rank:
                problems.append(f"rank mismatch p={p} cap={cap} degree={n}")
                continue
            for row in basis.row_vectors():
                if tuple(row) not in closure:
                    problems.append(f"stray basis row p={p} cap={cap} degree={n}")
                    break

    # Route two: group multiplication tables versus pure-Python circle products.
    small = [
        strictly_upper_triangular_algebra(2, 3),
        truncated_polynomial_algebra(2, 5),
        truncated_polynomial_algebra(3, 3),
        direct_sum(
            truncated_polynomial_algebra(2, 2), truncated_polynomial_algebra(2, 2)
        ),
    ]
    for alg in small:
        group = AdjointGroup(alg)
        table = group.multiplication_index_table()
        rows = alg.table.tolist()
        elems = list(alg.elements())
        index = {e: i for i, e in enumerate(elems)}
        for i, u in enumerate(elems):
            for j, v in enumerate(elems):
                if table[i, j] != index[brute_circle(rows, alg.p, u, v)]:
                    problems.append(f"table mismatch in {alg!r} at ({i},{j})")
                    break
        n = group.order
        latin = all(
            len(set(table[i, :].tolist())) == n and len(set(table[:, i].tolist())) == n
            for i in range(n)
        )
        assoc = np.array_equal(table[table], table[:, table])
        ident = np.array_equal(table[0], np.arange(n)) and np.array_equal(
            table[:, 0], np.arange(n)
        )
        if not (latin and assoc and ident):
            problems.append(f"group axioms fail for {alg!r}")

    return not problems, f"span closures and brute tables agree; problems: {problems or 'none'}"


CHECKS = [
    ("series-evaluation-exact", check_series_evaluation, 1.0),
    ("factorization-exact", check_factorization, 30.0),
    ("frobenius-circle-powers", check_frobenius_powers, None),
    ("construction-pipeline", check_construction_pipeline, 600.0),
    ("torsion-certificate", check_torsion_certificate, None),
    ("exponent-bounds", check_exponent_bounds, None),
    ("cyclic-width", check_cyclic_width, 120.0),
    ("independent-routes", check_independent_routes, None),
]


def run_checks(names=None, seed=DEFAULT_SEED):
    """Run the acceptance checks (all, or the named subset) and return results."""
    selected = [c for c in CHECKS if names is None or c[0] in names]
    if names is not None:
        known = {c[0] for c in CHECKS}
        unknown = set(names) - known
        if unknown:
            raise ValueError(f"unknown check names: {sorted(unknown)}")
    results = []
    for name, fn, budget in selected:
        start = time.perf_counter()
        try:
            ok, detail = fn(seed=seed)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        results.append(CheckResult(name, ok, seconds, budget, detail))
    return results
