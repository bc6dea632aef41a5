"""Finite nilpotent algebras: structure validation, adjoint groups, bounds, width."""

import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adjointalg import (
    AdjointGroup,
    FiniteNilAlgebra,
    ModpRowSpace,
    NotNilpotentError,
    ResourceLimitError,
    algebra_from_json,
    cyclic_width,
    direct_sum,
    exp_bound_check,
    finite,
    index_exponent_check,
    linalg,
    quotient_algebra,
    quotient_exponent,
    strictly_upper_triangular_algebra,
    truncated_polynomial_algebra,
)
from adjointalg.oracle import brute_circle, brute_cyclic_width, rref_mod_p


def klein_algebra():
    """Two null lines: the adjoint group is the Klein four-group."""
    return direct_sum(
        truncated_polynomial_algebra(2, 2), truncated_polynomial_algebra(2, 2)
    )


def in_basis(alg, m):
    """The algebra in the basis f_i = sum_a m[i][a] e_a, for m invertible mod p."""
    k, p = alg.dim, alg.p
    # The rows (e_i | m_i) reduce to (row i of m^-1 | e_i).
    echelon = rref_mod_p([[int(i == j) for j in range(k)] + list(row) for i, row in enumerate(m)], p)
    inv = np.array([row[:k] for row in echelon], dtype=np.int64).reshape(k, k)
    m = np.array(m, dtype=np.int64).reshape(k, k)
    table = np.einsum("ia,jb,abc,ct->ijt", m, m, alg.table, inv)
    return FiniteNilAlgebra(p, [f"f{i + 1}" for i in range(k)], table)


def in_random_basis(alg, grid, stride):
    """The algebra in the basis given by the invertible m = L U read off a grid.

    L is unit lower triangular and U upper triangular with a nonzero
    diagonal; entry (i, j) of either comes from grid[stride * i + j].
    """
    k, p = alg.dim, alg.p
    lower = [
        [grid[stride * i + j] % p if j < i else int(i == j) for j in range(k)] for i in range(k)
    ]
    upper = [
        [
            grid[stride * i + j] % p if j > i else (grid[(stride + 1) * i] % (p - 1) + 1) * (i == j)
            for j in range(k)
        ]
        for i in range(k)
    ]
    m = [[sum(lower[i][t] * upper[t][j] for t in range(k)) % p for j in range(k)] for i in range(k)]
    return in_basis(alg, m)


def brute_powers(alg, u, count):
    """u^0, u^1, ..., u^(count - 1) under the circle product, by brute iteration."""
    rows = alg.table.tolist()
    powers = [alg.zero()]
    for _ in range(count - 1):
        powers.append(brute_circle(rows, alg.p, powers[-1], u))
    return powers


def brute_exponent(alg):
    """The largest element order, by brute iteration of each element."""
    rows = alg.table.tolist()
    orders = []
    for g in alg.elements():
        acc, order = g, 1
        while any(acc):
            acc = brute_circle(rows, alg.p, acc, g)
            order += 1
        orders.append(order)
    return max(orders)


def frattini_rank(table, p):
    """d(G) = log_p [G : G^p [G, G]], for a p-group given by its index table.

    Index 0 is the identity.  The Frattini subgroup G^p [G, G] is closed
    under the table from the p-th powers and the commutators.
    """
    n = len(table)
    inverse = [row.index(0) for row in table]
    gens = set()
    for g in range(n):
        acc = 0
        for _ in range(p):
            acc = table[acc][g]
        gens.add(acc)
    gens |= {table[table[inverse[a]][inverse[b]]][table[a][b]] for a in range(n) for b in range(n)}
    frattini, fresh = {0}, {0}
    while fresh:
        fresh = {table[h][g] for h in fresh for g in gens} - frattini
        frattini |= fresh
    d = 0
    while p**d * len(frattini) < n:
        d += 1
    assert p**d * len(frattini) == n
    return d


def power_period(alg):
    """The least power of p at or above the nilpotency class."""
    q = 1
    while q < alg.nilpotency_class:
        q *= alg.p
    return q


def test_constructor_validation(monkeypatch):
    with pytest.raises(ValueError, match="prime"):
        FiniteNilAlgebra(4, ["a"], np.zeros((1, 1, 1), dtype=np.int64))
    with pytest.raises(ValueError, match="shape"):
        FiniteNilAlgebra(2, ["a", "b"], np.zeros((1, 1, 1), dtype=np.int64))
    bad = np.zeros((2, 2, 2), dtype=np.int64)
    bad[0, 0, 1] = 1  # e0*e0 = e1
    bad[1, 0, 0] = 1  # e1*e0 = e0, so (e0 e0) e0 = e0 but e0 (e0 e0) = 0
    with pytest.raises(ValueError, match="associative"):
        FiniteNilAlgebra(2, ["a", "b"], bad)
    # The check reads dim^4 products of 8 bytes: 128 for dim 2, 648 for dim 3.
    monkeypatch.setattr(linalg, "MAX_BLOCK_BYTES", 128)
    assert FiniteNilAlgebra(2, ["a", "b"], np.zeros((2, 2, 2), dtype=np.int64)).nilpotency_class == 2
    with pytest.raises(ResourceLimitError, match="3-dimensional algebra reads 648 bytes"):
        truncated_polynomial_algebra(2, 4)


@pytest.mark.parametrize("entries", [1, 54, 1 << 14])
def test_associativity_refusal_names_the_first_failing_triple(monkeypatch, entries):
    """Blocks of one e_i, a few or all: the error names the least (i, j, k) a brute check finds."""
    monkeypatch.setattr(finite, "_BLOCK_ENTRIES", entries)
    rng = random.Random(entries)
    refused = 0
    for _ in range(60):
        p, k = rng.choice((2, 3)), rng.randint(1, 4)
        table = [
            [[rng.randrange(p) if rng.random() < 0.3 else 0 for _ in range(k)] for _ in range(k)]
            for _ in range(k)
        ]

        def left_first(i, j, m):
            return [sum(table[i][j][t] * table[t][m][c] for t in range(k)) % p for c in range(k)]

        def right_first(i, j, m):
            return [sum(table[j][m][t] * table[i][t][c] for t in range(k)) % p for c in range(k)]

        triples = product(range(k), repeat=3)
        bad = next((t for t in triples if left_first(*t) != right_first(*t)), None)
        if bad is None:
            try:
                FiniteNilAlgebra(p, [f"e{t}" for t in range(k)], table)
            except NotNilpotentError:
                pass
            continue
        i, j, m = bad
        message = f"structure constants are not associative: (e{i} e{j}) e{m} != e{i} (e{j} e{m})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FiniteNilAlgebra(p, [f"e{t}" for t in range(k)], table)
        refused += 1
    assert refused >= 20


def test_idempotent_is_rejected():
    table = np.zeros((1, 1, 1), dtype=np.int64)
    table[0, 0, 0] = 1
    with pytest.raises(NotNilpotentError):
        FiniteNilAlgebra(2, ["e"], table)


def test_truncated_polynomial_chain():
    alg = truncated_polynomial_algebra(2, 5)
    assert alg.dim == 4
    assert alg.labels == ("x", "x^2", "x^3", "x^4")
    assert alg.nilpotency_class == 5
    assert [alg.power_space(n).rank for n in range(1, 7)] == [4, 3, 2, 1, 0, 0]
    with pytest.raises(ValueError):
        alg.power_space(0)
    # x * x^2 = x^3
    assert alg.multiply((1, 0, 0, 0), (0, 1, 0, 0)) == (0, 0, 1, 0)


def test_repr_names_the_modulus_dimension_and_class():
    assert repr(truncated_polynomial_algebra(3, 5)) == "<FiniteNilAlgebra p=3 dim=4 class=5>"


def test_upper_triangular_products():
    alg = strictly_upper_triangular_algebra(2, 3)
    assert alg.labels == ("e12", "e13", "e23")
    e12, e13, e23 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert alg.multiply(e12, e23) == e13
    assert alg.multiply(e23, e12) == (0, 0, 0)
    assert alg.multiply(e13, e13) == (0, 0, 0)
    assert alg.nilpotency_class == 3
    with pytest.raises(ValueError):
        strictly_upper_triangular_algebra(2, 1)


def test_direct_sum_cross_products_vanish():
    alg = klein_algebra()
    assert alg.labels == ("x_1", "x_2")
    assert alg.multiply((1, 0), (0, 1)) == (0, 0)
    mixed = direct_sum(
        truncated_polynomial_algebra(2, 2), strictly_upper_triangular_algebra(2, 2)
    )
    assert mixed.labels == ("x", "e12")
    with pytest.raises(ValueError, match="F_"):
        direct_sum(
            truncated_polynomial_algebra(2, 3), truncated_polynomial_algebra(3, 3)
        )


def test_circle_group_axioms_exhaustively():
    alg = truncated_polynomial_algebra(3, 3)
    elements = list(alg.elements())
    zero = alg.zero()
    for u in elements:
        assert alg.circle(u, zero) == u == alg.circle(zero, u)
        inv = alg.circle_inv(u)
        assert alg.circle(u, inv) == zero == alg.circle(inv, u)
    for u in elements:
        for v in elements:
            for w in elements:
                assert alg.circle(alg.circle(u, v), w) == alg.circle(u, alg.circle(v, w))


def test_circle_matches_structure_constant_oracle():
    alg = strictly_upper_triangular_algebra(3, 3)
    rows = alg.table.tolist()
    for u in alg.elements():
        for v in alg.elements():
            assert alg.circle(u, v) == brute_circle(rows, 3, u, v)


def test_circle_pow_matches_iteration():
    for alg in (truncated_polynomial_algebra(2, 5), strictly_upper_triangular_algebra(3, 3)):
        q = power_period(alg)
        rows = alg.table.tolist()
        for u in alg.elements():
            powers = brute_powers(alg, u, 2 * q + 1)
            for k in range(2 * q + 1):
                assert alg.circle_pow(u, k) == powers[k]
                # The inverse is unique, so this pins down u^(-k).
                assert brute_circle(rows, alg.p, alg.circle_pow(u, -k), powers[k]) == alg.zero()


def test_element_order_against_brute_force():
    for alg in (
        truncated_polynomial_algebra(2, 4),
        truncated_polynomial_algebra(3, 5),
        strictly_upper_triangular_algebra(2, 4),
    ):
        assert AdjointGroup(alg).exponent() == brute_exponent(alg)
    assert AdjointGroup(truncated_polynomial_algebra(2, 4)).exponent() == 4


def test_products_near_the_modulus_limit_are_exact():
    """Products of residues near 2^24 must not overflow int64 on their way to mod p."""
    p = 16777213
    alg = in_basis(truncated_polynomial_algebra(p, 4), [[1, 2, 3], [0, 1, 5], [0, 0, 1]])
    rows = alg.table.tolist()
    u, v = (p - 1, p - 2, p - 3), (p - 5, p - 7, p - 11)
    expected = brute_circle(rows, p, u, v)
    assert expected == (16777207, 16777209, 16777211)
    assert alg.circle(u, v) == expected
    assert alg.multiply(u, v) == tuple((c - a - b) % p for a, b, c in zip(u, v, expected))
    assert alg.circle(u, alg.circle_inv(u)) == alg.zero()


#: poly, ut and direct sums at p in {2, 3, 5}, the zero-dimensional poly(p, 1) among them.
ELEMENT_ORDER_SHAPES = [
    (p, spec)
    for p in (2, 3, 5)
    for spec in [
        ("poly", 1), ("poly", 4), ("ut", 3), ("sum", ("poly", 1), ("ut", 3)),
        ("sum", ("poly", 2), ("ut", 3)), ("sum", ("ut", 3), ("poly", 3)),
    ]
]


@pytest.mark.parametrize("p,spec", ELEMENT_ORDER_SHAPES)
def test_population_rows_are_the_elements_in_order(p, spec):
    """Row i of the population is the i-th element, and a row @ the place values is its index."""
    alg = family(p, spec)
    population = alg._population
    assert population.dtype == np.int64 and not population.flags.writeable
    assert population.shape == (p**alg.dim, alg.dim)
    assert list(map(tuple, population.tolist())) == list(alg.elements())
    assert np.array_equal(population @ alg._place_values, np.arange(p**alg.dim))


def test_population_past_its_ceiling_is_refused_before_allocation():
    """The population is refused before any row is built.

    ut(6) over F_2 has order 32768 (3.9 MB of rows); poly(30) over the largest
    prime would have place values past int64.
    """
    for alg in (strictly_upper_triangular_algebra(2, 6), truncated_polynomial_algebra(16777213, 30)):
        refusal = f"^population size {alg.p**alg.dim} exceeds 16384$"
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=refusal):
                alg._population
            with pytest.raises(ResourceLimitError, match=refusal):
                finite._population_exponents(alg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert "_population" not in vars(alg) and "_place_values" not in vars(alg)


def test_the_group_table_and_the_exponents_share_one_population(monkeypatch):
    """Neither reads elements(); the table builds the rows and the exponent chain reuses them."""
    alg = direct_sum(truncated_polynomial_algebra(3, 3), strictly_upper_triangular_algebra(3, 3))
    expected = brute_exponent(alg)
    chained = []
    chain = finite._exponent_chain
    monkeypatch.setattr(
        finite, "_exponent_chain", lambda *args: chained.append(args[1]) or chain(*args)
    )
    monkeypatch.setattr(FiniteNilAlgebra, "elements", None)
    AdjointGroup(alg).multiplication_index_table()
    population = vars(alg)["_population"]
    assert alg.quotient_exponents[-1] == expected
    assert len(chained) == 1 and chained[0] is population


def test_multiplication_table_is_a_group_table():
    group = AdjointGroup(truncated_polynomial_algebra(2, 3))
    table = group.multiplication_index_table()
    n = group.order
    alg = group.algebra
    rows = alg.table.tolist()
    elements = list(alg.elements())
    index = {e: i for i, e in enumerate(elements)}
    for i in range(n):
        for j in range(n):
            expected = brute_circle(rows, alg.p, elements[i], elements[j])
            assert table[i, j] == index[expected]
    for i in range(n):
        assert sorted(table[i]) == list(range(n))
        assert sorted(table[:, i]) == list(range(n))
    assert list(table[0]) == list(range(n))  # zero is the identity


def test_large_group_table_is_associative_in_chunks():
    group = AdjointGroup(truncated_polynomial_algebra(2, 10))
    table = group.multiplication_index_table()
    n = group.order
    assert n == 512
    for j in range(n):
        # (g_i o g_j) o g_k == g_i o (g_j o g_k) for all i, k at this j
        assert np.array_equal(table[table[:, j], :], table[:, table[j, :]])


def test_quotient_algebra_collapses_high_powers():
    alg = truncated_polynomial_algebra(2, 6)
    quo = quotient_algebra(alg, 2)
    assert quo.labels == ("x", "x^2")
    assert np.array_equal(quo.table, truncated_polynomial_algebra(2, 3).table)
    full = quotient_algebra(alg, alg.nilpotency_class - 1)
    assert full.dim == alg.dim


def test_quotient_algebra_is_the_image_of_the_projection():
    """In a basis that mixes the powers, the projection onto R / R^(n+1) respects o."""
    alg = in_basis(
        truncated_polynomial_algebra(3, 5),
        [[1, 0, 0, 0], [2, 1, 0, 0], [0, 1, 1, 0], [1, 0, 2, 1]],
    )
    rows = alg.table.tolist()
    elements = list(alg.elements())
    for n in range(1, alg.nilpotency_class):
        sub = alg.power_space(n + 1)
        quo = quotient_algebra(alg, n)
        keep = [alg.labels.index(label) for label in quo.labels]
        quo_rows = quo.table.tolist()
        image = {u: tuple(int(sub.reduce(u)[i]) for i in keep) for u in elements}
        for u in elements:
            for v in elements:
                assert image[brute_circle(rows, 3, u, v)] == brute_circle(quo_rows, 3, image[u], image[v])


def test_quotient_exponent_agrees_with_direct_group_computation(monkeypatch):
    """Dual route: population reduction vs the adjoint group of the quotient algebra."""
    for alg in (
        truncated_polynomial_algebra(2, 6),
        truncated_polynomial_algebra(3, 4),
        strictly_upper_triangular_algebra(2, 3),
    ):
        direct = [
            brute_exponent(quotient_algebra(alg, n)) for n in range(1, alg.nilpotency_class)
        ]
        for n, e in enumerate(direct, 1):
            assert quotient_exponent(alg, n) == e
        assert [r["exponent"] for r in exp_bound_check(alg)["rows"]] == direct
    with pytest.raises(ValueError):
        quotient_exponent(truncated_polynomial_algebra(2, 4), 0)
    # One chain per algebra: the index check reads what the bound check computed.
    # A commutative algebra takes powers of its Frobenius matrix instead, so the
    # population chain is counted on a noncommutative one.
    calls = []
    chain_step = finite._circle_pow_rows
    monkeypatch.setattr(
        finite, "_circle_pow_rows", lambda *args: calls.append(args) or chain_step(*args)
    )
    alg = direct_sum(strictly_upper_triangular_algebra(2, 3), truncated_polynomial_algebra(2, 4))
    exp_bound_check(alg)
    steps = len(calls)
    assert steps > 0
    index_exponent_check(alg, 4)
    assert len(calls) == steps


@pytest.mark.parametrize("seed", range(3))
def test_index_check_reads_the_exponents_without_the_bound_report(seed, monkeypatch):
    """The index check equals its composition from exp_bound_check's rows, and never calls it."""
    rng = random.Random(seed)
    for alg in (
        truncated_polynomial_algebra(2, 5),
        strictly_upper_triangular_algebra(3, 3),
        direct_sum(strictly_upper_triangular_algebra(2, 3), truncated_polynomial_algebra(2, 3)),
    ):
        grid = [rng.randrange(alg.p) for _ in range(alg.dim * (alg.dim + 2))]
        alg = in_random_basis(alg, grid, alg.dim + 1)
        width = rng.randint(1, 4)
        composed = [
            {
                "n": r["n"],
                "index": alg.p ** r["quotient_dim"],
                "exponent": r["exponent"],
                "index_le_exp_pow_width": alg.p ** r["quotient_dim"] <= r["exponent"] ** width,
                "index_le_linear_bound_pow_width": alg.p ** r["quotient_dim"] <= r["bound"] ** width,
            }
            for r in exp_bound_check(alg)["rows"]
        ]
        with monkeypatch.context() as patch:
            patch.setattr(finite, "exp_bound_check", lambda *args: pytest.fail("called"))
            report = index_exponent_check(alg, width)
        assert report == {
            "width": width,
            "rows": composed,
            "ok": all(r["index_le_exp_pow_width"] for r in composed),
            "aggregate_ok": all(r["index_le_linear_bound_pow_width"] for r in composed),
        }


def test_exponent_bound_report():
    report = exp_bound_check(truncated_polynomial_algebra(2, 4))
    assert [r["exponent"] for r in report["rows"]] == [2, 4, 4]
    assert [r["bound"] for r in report["rows"]] == [4, 6, 8]
    assert [r["quotient_dim"] for r in report["rows"]] == [1, 2, 3]
    assert report["ok"] is True
    assert "severity" not in report
    assert report["sharpest_ratio"] == "2/3"


def test_exponent_bound_over_odd_prime():
    report = exp_bound_check(truncated_polynomial_algebra(3, 6))
    assert report["ok"] is True
    assert all(r["exponent"] <= r["bound"] for r in report["rows"])


def test_index_exponent_check():
    report = index_exponent_check(truncated_polynomial_algebra(2, 4), width=2)
    assert report["width"] == 2
    assert [r["index"] for r in report["rows"]] == [2, 4, 8]
    assert report["ok"] is True
    assert report["aggregate_ok"] is True


@pytest.mark.parametrize(
    "make,expected",
    [
        (lambda: truncated_polynomial_algebra(2, 3), 1),  # cyclic of order 4
        (klein_algebra, 2),
        (lambda: strictly_upper_triangular_algebra(2, 3), 2),  # dihedral of order 8
        (lambda: truncated_polynomial_algebra(2, 1), 1),  # trivial group
        (
            lambda: direct_sum(
                truncated_polynomial_algebra(2, 3), truncated_polynomial_algebra(2, 2)
            ),
            2,
        ),
    ],
)
def test_cyclic_width_small_groups(make, expected):
    assert cyclic_width(AdjointGroup(make())) == expected


def test_cyclic_width_limit_and_guards():
    klein = AdjointGroup(klein_algebra())
    assert cyclic_width(klein, limit=1) is None
    with pytest.raises(ValueError):
        cyclic_width(klein, limit=0)


def test_every_size_refusal_is_a_resource_limit_error():
    """The group-table and population ceilings, like the others, raise ResourceLimitError."""
    vast = AdjointGroup(strictly_upper_triangular_algebra(2, 6))  # nonabelian, order 32768
    assert vast.algebra.frobenius is None
    table_refusal = "^group order 32768 exceeds the limit 4096$"
    with pytest.raises(ResourceLimitError, match=table_refusal):
        vast.multiplication_index_table()
    with pytest.raises(ResourceLimitError, match=table_refusal):
        cyclic_width(vast)
    population_refusal = "^population size 32768 exceeds 16384$"
    with pytest.raises(ResourceLimitError, match=population_refusal):
        vast.exponent()
    with pytest.raises(ResourceLimitError, match=population_refusal):
        quotient_exponent(vast.algebra, 1)


def test_cyclic_width_refusal_is_the_same_under_every_hash_seed():
    """The witness draws from a seeded generator, so its bracket does not follow hashing."""
    script = "\n".join([
        "from adjointalg import AdjointGroup, finite",
        "alg = finite.direct_sum(",
        "    finite.truncated_polynomial_algebra(3, 5), finite.strictly_upper_triangular_algebra(3, 3)",
        ")",
        "try:",
        "    finite.cyclic_width(AdjointGroup(alg))",
        "except ValueError as exc:",
        "    print(exc)",
    ])
    src = str(Path(finite.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    texts = []
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        texts.append(run.stdout)
    assert "order 2187 is in [5, 6]" in texts[0]
    assert texts[0] == texts[1]


def test_cyclic_width_is_monotone_along_quotients():
    alg = truncated_polynomial_algebra(2, 6)
    widths = [
        cyclic_width(AdjointGroup(quotient_algebra(alg, n)))
        for n in range(1, alg.nilpotency_class)
    ]
    assert widths == sorted(widths)
    assert widths[0] == 1


def test_json_round_trip():
    """Every family, the zero-dimensional algebra (an empty table) among them, reads back as itself."""
    for p, spec in ELEMENT_ORDER_SHAPES:
        alg = family(p, spec)
        again = algebra_from_json(json.loads(json.dumps(alg.to_json_dict())))
        assert (again.p, again.labels) == (alg.p, alg.labels)
        assert again.table.dtype == np.int64 and np.array_equal(again.table, alg.table)
        assert again.quotient_exponents == alg.quotient_exponents
    alg = strictly_upper_triangular_algebra(3, 3)
    again = algebra_from_json(alg.to_json_dict())
    assert again.p == alg.p
    assert again.labels == alg.labels
    assert np.array_equal(again.table, alg.table)
    u, v = (1, 2, 0), (0, 1, 1)
    assert again.circle(u, v) == alg.circle(u, v)


@pytest.mark.parametrize(
    "mul",
    [
        [[[None]]],
        [[[2**70]]],
        [[[0], [0, 0]]],
        [[[1.5]]],
        [[[1.0]]],
        [[["1"]]],
        [[[True]]],
        [[[2**63]]],
        [[[0, True], [0, 0]], [[0, 0], [0, 0]]],
        [],
    ],
    ids=[
        "null-entry", "entry-past-int64", "ragged", "fraction", "float", "string", "bool", "uint64",
        "bool-among-ints", "empty-under-a-label",
    ],
)
def test_json_table_that_numpy_cannot_read_names_the_field(mul):
    """Told to read int64, numpy would take 1.5 and 1.0 as 1, "1" as 1, and wrap 2^63.

    Left to itself, it reads a true among integers as 1; that table is 2 x 2 x
    2 against one label, so it is refused before the shape check.
    """
    with pytest.raises(ValueError, match="^algebra field 'mul' must be a table of integers"):
        algebra_from_json({"p": 2, "labels": ["a"], "mul": mul})


@pytest.mark.parametrize(
    "table",
    [[[[0.5]]], np.full((1, 1, 1), 1.0), [[[True]]], np.zeros((1, 1, 1), dtype=np.uint64), [[["0"]]]],
    ids=["half", "float-one", "bool", "uint64", "string"],
)
def test_a_table_that_numpy_does_not_read_as_integers_is_refused(table):
    """[[[0.5]]] used to be truncated to the zero table, and a float 1.0 read as 1."""
    with pytest.raises(ValueError, match="^structure constants must be integers, read as "):
        FiniteNilAlgebra(2, ["a"], table)


@pytest.mark.parametrize("row", [(1.5, 0, 0), (1.0, 0, 0), (True, False, False), ("1", "0", "0")])
def test_an_element_row_that_numpy_does_not_read_as_integers_is_refused(row):
    """multiply((1.5, 0, 0), (1, 0, 0)) used to read 1.5 as 1 and give (0, 1, 0)."""
    alg = truncated_polynomial_algebra(3, 4)
    for call in (lambda: alg.multiply(row, (1, 0, 0)), lambda: alg.circle((1, 0, 0), row),
                 lambda: alg.circle_pow(row, 2)):
        with pytest.raises(ValueError, match="^element coordinates must be integers, read as "):
            call()


def test_integer_tables_and_rows_of_any_integer_dtype_are_read():
    small = truncated_polynomial_algebra(3, 4)
    alg = FiniteNilAlgebra(3, small.labels, small.table.astype(np.uint8))
    assert np.array_equal(alg.table, small.table) and alg.table.dtype == np.int64
    assert alg.multiply(np.array([1, 0, 0], dtype=np.int8), (1, 0, 0)) == (0, 1, 0)
    # An empty table or row has no entries to misread, though numpy reads it as float64.
    zero = FiniteNilAlgebra(2, (), np.zeros((0, 0, 0)))
    assert zero.multiply((), ()) == ()


@pytest.mark.parametrize("p", [-3, 0, 1, 2**24 + 1, 2**61 - 1])
def test_modulus_outside_the_exact_range_is_refused_before_the_primality_test(monkeypatch, p):
    def refuse(n):
        raise AssertionError("primality was tested")

    monkeypatch.setattr(linalg, "is_prime", refuse)
    with pytest.raises(ValueError, match=r"^modulus -?\d+ is outside 2\.\.16777216 \(2\^24\)"):
        FiniteNilAlgebra(p, ["a"], np.zeros((1, 1, 1)))


@pytest.mark.parametrize(
    "p,n", [(np.int64(2), 5), (np.int32(3), 7), (np.int64(3), 45), (np.int64(16777213), 30)]
)
def test_numpy_integer_modulus_answers_as_the_python_int(p, n):
    alg, ref = truncated_polynomial_algebra(p, n), truncated_polynomial_algebra(int(p), n)
    assert type(alg.p) is int and alg.p == ref.p
    assert np.array_equal(alg.table, ref.table)
    assert alg.nilpotency_class == ref.nilpotency_class
    assert alg.quotient_exponents == ref.quotient_exponents
    assert np.array_equal(alg.frobenius, ref.frobenius)
    assert cyclic_width(AdjointGroup(alg), limit=64) == cyclic_width(AdjointGroup(ref), limit=64)
    assert exp_bound_check(alg) == exp_bound_check(ref)
    u = alg.zero()[1:] + (alg.p - 1,)  # position p - 1 of elements(), too long to list here
    assert alg.circle_pow(u, -3) == ref.circle_pow(u, -3)


@pytest.mark.parametrize("p", [2.0, np.float64(3.0), "3", None, True])
def test_non_integer_modulus_is_refused_by_name(p):
    with pytest.raises(ValueError, match=rf"^p must be an integer, got {re.escape(repr(p))}$"):
        FiniteNilAlgebra(p, ["a"], np.zeros((1, 1, 1)))


def family(p, spec):
    name, *args = spec
    if name == "poly":
        return truncated_polynomial_algebra(p, *args)
    if name == "ut":
        return strictly_upper_triangular_algebra(p, *args)
    return direct_sum(family(p, args[0]), family(p, args[1]))


#: (p, family spec) pairs whose adjoint groups have order at most 256.
SMALL_GROUPS = [
    (p, spec)
    for p in (2, 3, 5)
    for spec in [("poly", n) for n in range(1, 10)]
    + [("ut", 3), ("ut", 4), ("sum", ("poly", 3), ("ut", 3)), ("sum", ("poly", 2), ("poly", 4))]
    if p ** family(p, spec).dim <= 256
]


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from(SMALL_GROUPS),
    st.lists(st.integers(0, 4), min_size=64, max_size=64),
    st.integers(0, 255),
)
@example((2, ("poly", 1)), [0] * 64, 0)
def test_group_table_and_powers_match_brute_routes(case, grid, pick):
    """Random bases: the group table, circle powers, exponent and width against brute routes.

    The width also meets the Burnside basis theorem: a p-group needs at
    least d(G) = log_p [G : G^p [G, G]] cyclic factors, and an abelian one
    is a product of exactly d(G) cyclic groups.  The pure-Python frozenset
    search for the width is slow beyond order 64, so it runs on the smaller
    groups and on ut(3) over F_5 (order 125, width 3, about 0.4 s) only.
    poly(3) + ut(3) over F_3 (order 243), whose exponent 3 needs 5 cyclic
    factors, has width 5, which that search takes far longer to confirm.
    """
    p, spec = case
    alg = in_random_basis(family(p, spec), grid, 8)
    rows = alg.table.tolist()
    elements = list(alg.elements())
    index = {e: i for i, e in enumerate(elements)}
    expected = [[index[brute_circle(rows, p, u, v)] for v in elements] for u in elements]
    group = AdjointGroup(alg)
    assert group.multiplication_index_table().tolist() == expected
    assert group.exponent() == brute_exponent(alg)
    abelian = all(expected[i][j] == expected[j][i] for i in range(len(elements)) for j in range(i))
    width = cyclic_width(group)
    if len(elements) <= 64 or not abelian and len(elements) == 125:
        assert width == brute_cyclic_width(expected, 8)
    elif not abelian:
        assert width == 5
    d = frattini_rank(expected, p)
    assert d <= width
    if abelian:
        assert max(d, 1) == width  # the trivial group has d = 0 but width 1
    u = elements[pick % len(elements)]
    q = power_period(alg)
    powers = brute_powers(alg, u, 2 * q + 1)
    for k in range(2 * q + 1):
        assert alg.circle_pow(u, k) == powers[k]
        assert brute_circle(rows, p, alg.circle_pow(u, -k), powers[k]) == alg.zero()


#: (p, family spec) pairs of commutative algebras, Klein's among them, of order at most 512.
COMMUTATIVE_GROUPS = [
    (p, spec)
    for p in (2, 3, 5, 7)
    for spec in [("poly", n) for n in range(1, 11)]
    + [("sum", ("poly", a), ("poly", b)) for a in range(2, 10) for b in range(a, 10)]
    if p ** family(p, spec).dim <= 512
]

#: Noncommutative algebras: ut and its sums with poly, on either side.
NONCOMMUTATIVE = [
    (p, spec)
    for p in (2, 3, 5)
    for spec in [
        ("ut", 3), ("ut", 4), ("sum", ("ut", 3), ("poly", 3)), ("sum", ("poly", 2), ("ut", 3)),
        ("sum", ("ut", 3), ("ut", 3)),
    ]
]


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(COMMUTATIVE_GROUPS),
    st.lists(st.integers(0, 6), min_size=81, max_size=81),
)
@example((2, ("sum", ("poly", 2), ("poly", 2))), [0] * 81)
def test_frobenius_route_matches_burnside_and_the_population(case, grid):
    """Commutative algebras in random bases: the Frobenius route against the element-level one.

    An abelian p-group is a product of exactly d(G) cyclic groups (Burnside),
    d(G) read off the group table, and the population chain is the route of
    noncommutative exponents; here they are the oracle of the rank and the
    matrix powers.
    """
    p, spec = case
    alg = in_random_basis(family(p, spec), grid, 9)
    assert alg.frobenius is not None
    group = AdjointGroup(alg)
    width = cyclic_width(group)
    assert width == max(frattini_rank(group.multiplication_index_table().tolist(), p), 1)
    # A small limit: the width when it is at most 2, else None.
    assert cyclic_width(group, limit=2) == (width if width <= 2 else None)
    assert alg.quotient_exponents == finite._population_exponents(alg)


@settings(max_examples=10, deadline=None)
@given(
    st.sampled_from(NONCOMMUTATIVE),
    st.lists(st.integers(0, 4), min_size=81, max_size=81),
)
def test_noncommutative_algebras_have_no_frobenius_map(case, grid):
    p, spec = case
    assert in_random_basis(family(p, spec), grid, 9).frobenius is None


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from(NONCOMMUTATIVE),
    st.lists(st.integers(0, 4), min_size=81, max_size=81),
)
# ut(3) over F_2 is the dihedral group of order 8, of width L = 2: the witness
# draws only maximal cyclic subgroups, and a C4 times a reflection's C2 covers it.
@example((2, ("ut", 3)), [0] * 81)
def test_bound_and_witness_match_the_frozen_widths(case, grid):
    """Noncommutative algebras in random bases: the width against frozen widths and the brute route.

    Width is a group invariant, so ``SMALL_NONCOMMUTATIVE_WIDTHS`` holds in
    every basis.  L (``_width_bound``) and the Frattini rank d(G) are lower
    bounds, and L is never below the least m with exp(G)^m >= |G|.  ut(4)
    over F_3 (order 729, exponent 9) has width 5: the power chain gives
    L = 5 where the exponent gives 3, and the witness closes there.  The
    brute search runs where it is fast: up to order 64, and on ut(3) over
    F_5 (order 125, about 0.4 s), not on poly(2) + ut(3) over F_3 (order
    81, about 5 s).  Past the table ceiling the width is refused.
    """
    p, spec = case
    alg = in_random_basis(family(p, spec), grid, 9)
    group = AdjointGroup(alg)
    if group.order > finite.MAX_GROUP_ORDER:
        with pytest.raises(ResourceLimitError, match="^group order .* exceeds the limit 4096$"):
            cyclic_width(group)
        return
    width = cyclic_width(group)
    assert width == SMALL_NONCOMMUTATIVE_WIDTHS.get((p, spec), width)
    bound = finite._width_bound(alg)
    assert bound <= width
    exponent = alg.quotient_exponents[-1]
    assert exponent**bound >= group.order
    assert cyclic_width(group, limit=2) == (width if width <= 2 else None)
    table = group.multiplication_index_table()
    if group.order <= 125:
        # No draw of fewer subgroups than the width covers the group.
        assert width == 1 or not finite._witness(table, p, width - 1)
    table = table.tolist()
    if group.order <= 64 or spec == ("ut", 3):
        assert width == brute_cyclic_width(table, 8)
    if group.order <= 729:
        assert frattini_rank(table, p) <= width


def test_the_witness_answers_groups_the_search_refuses():
    """Widths 5 and 6 at orders 243 to 1024, and every workload shape likewise.

    A breadth-first search over product sets runs out of memory on the
    first two.  On ut(5) over F_2 and ut(4) over F_3 the exponent alone
    gives L = 4 and 3; the power chain gives 5, from R/R^4 of order 2^9 and
    exponent 4, and from R/R^3 of order 3^5 and exponent 3.
    """
    ut3, poly = strictly_upper_triangular_algebra(3, 3), truncated_polynomial_algebra
    assert cyclic_width(AdjointGroup(direct_sum(ut3, poly(3, 3)))) == 5
    assert cyclic_width(AdjointGroup(direct_sum(ut3, ut3))) == 6
    assert cyclic_width(AdjointGroup(strictly_upper_triangular_algebra(2, 5))) == 5
    assert cyclic_width(AdjointGroup(strictly_upper_triangular_algebra(3, 4))) == 5
    for alg, width in [
        (strictly_upper_triangular_algebra(2, 4), 3),
        (ut3, 3),
        (direct_sum(strictly_upper_triangular_algebra(2, 3), poly(2, 4)), 4),
        (direct_sum(ut3, poly(3, 2)), 4),
        (strictly_upper_triangular_algebra(2, 3), 2),
    ]:
        assert cyclic_width(AdjointGroup(alg)) == width


#: Widths of the noncommutative shapes of order at most 729: NONCOMMUTATIVE's,
#: then the two workload shapes it does not hold.
SMALL_NONCOMMUTATIVE_WIDTHS = {
    (2, ("ut", 3)): 2, (2, ("ut", 4)): 3, (2, ("sum", ("ut", 3), ("poly", 3))): 3,
    (2, ("sum", ("poly", 2), ("ut", 3))): 3, (2, ("sum", ("ut", 3), ("ut", 3))): 4,
    (3, ("ut", 3)): 3, (3, ("ut", 4)): 5, (3, ("sum", ("ut", 3), ("poly", 3))): 5,
    (3, ("sum", ("poly", 2), ("ut", 3))): 4, (3, ("sum", ("ut", 3), ("ut", 3))): 6,
    (5, ("ut", 3)): 3, (5, ("sum", ("poly", 2), ("ut", 3))): 4,
    (2, ("sum", ("ut", 3), ("poly", 4))): 4, (3, ("sum", ("ut", 3), ("poly", 2))): 4,
}


def test_the_width_reads_no_population(monkeypatch):
    """The width bound reads ranks of the power chain, never the exponents of all elements."""
    def refuse(algebra):
        raise AssertionError("the population was read")

    monkeypatch.setattr(finite, "_population_exponents", refuse)
    small = {(p, spec) for p, spec in NONCOMMUTATIVE if p ** family(p, spec).dim <= 729}
    assert small <= SMALL_NONCOMMUTATIVE_WIDTHS.keys()
    for (p, spec), width in SMALL_NONCOMMUTATIVE_WIDTHS.items():
        assert cyclic_width(AdjointGroup(family(p, spec))) == width, (p, spec)


def test_without_a_witness_the_width_is_refused_with_its_bound(monkeypatch):
    monkeypatch.setattr(finite, "_WITNESS_DRAWS", 0)
    for size, order, bound in [(3, 8, 2), (4, 64, 3)]:
        group = AdjointGroup(strictly_upper_triangular_algebra(2, size))
        with pytest.raises(ValueError, match=(
            rf"^cyclic width of a group of order {order} is in \[{bound}, \?\]: no witness draw"
            rf" of {bound} cyclic subgroups covers it, nor does one of up to 8$"
        )):
            cyclic_width(group)


def test_a_width_the_witness_misses_at_the_bound_is_bracketed():
    """poly(5) + ut(3) over F_3, order 2187: L = 5, and a draw covers it at 6, not at 5."""
    poly5, ut3 = truncated_polynomial_algebra(3, 5), strictly_upper_triangular_algebra(3, 3)
    for alg in (direct_sum(poly5, ut3), direct_sum(ut3, poly5)):
        with pytest.raises(ValueError, match=(
            r"^cyclic width of a group of order 2187 is in \[5, 6\]: no witness draw of 5"
            r" cyclic subgroups covers it, one of 6 does$"
        )):
            cyclic_width(AdjointGroup(alg))


#: Shapes for the circle-power kernel: poly, ut and their sums, with p at or past the class too.
KERNEL_SHAPES = [
    (p, spec)
    for p in (2, 3, 5, 7)
    for spec in [("poly", n) for n in (1, 2, 3, 4, 6, 9)]
    + [
        ("ut", 3), ("ut", 4), ("sum", ("poly", 3), ("ut", 3)), ("sum", ("ut", 3), ("poly", 5)),
        ("sum", ("poly", 4), ("poly", 6)),
    ]
]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(KERNEL_SHAPES),
    st.lists(st.integers(0, 6), min_size=81, max_size=81),
    st.lists(st.integers(0, 6), min_size=9, max_size=9),
    st.integers(-2, 1),
    st.integers(0, 1 << 16),
)
@example((2, ("poly", 9)), [0] * 81, [1] * 9, 1, 16)
@example((7, ("sum", ("poly", 4), ("poly", 6))), [0] * 81, [1] * 9, -2, 0)
def test_circle_pow_matches_brute_iteration_for_every_integer(
    case, grid, coefficients, multiple, offset
):
    """k = multiple * q + offset mod (q + 1) in [-2q, 2q]: powers against brute iteration.

    Offsets 0 and q give the multiples of q.  A negative power is pinned
    down by its brute product with the opposite power, since inverses are
    unique.
    """
    p, spec = case
    alg = in_random_basis(family(p, spec), grid, 9)
    rows = alg.table.tolist()
    u = tuple(c % p for c in coefficients[:alg.dim])
    q = power_period(alg)
    k = multiple * q + offset % (q + 1)
    power = alg.circle_pow(u, k)
    powers = brute_powers(alg, u, abs(k) + 1)
    if k >= 0:
        assert power == powers[k]
    else:
        assert brute_circle(rows, p, power, powers[-k]) == alg.zero()


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(
        KERNEL_SHAPES + [(5, ("poly", 4)), (7, ("poly", 3)), (5, ("ut", 3)), (7, ("ut", 3))]
    ),
    st.lists(st.integers(0, 6), min_size=81, max_size=81),
)
@example((5, ("poly", 4)), [0] * 81)
@example((7, ("poly", 3)), [0] * 81)
@example((5, ("ut", 3)), [0] * 81)
def test_frobenius_rows_are_brute_pth_powers_of_the_basis(case, grid):
    """Row i of the kernel's p-th powers of the basis is the brute p-th circle power of e_i.

    That matrix is ``frobenius`` on a commutative algebra (None on any
    other), and it is zero once p reaches the nilpotency class.
    """
    p, spec = case
    alg = in_random_basis(family(p, spec), grid, 9)
    eye = np.eye(alg.dim, dtype=np.int64)
    rows = finite._circle_pow_rows(alg, eye, p)
    for i, e in enumerate(eye.tolist()):
        assert tuple(rows[i].tolist()) == brute_powers(alg, tuple(e), p + 1)[p]
    if p >= alg.nilpotency_class:
        assert not rows.any()
    if alg.frobenius is not None:
        assert np.array_equal(alg.frobenius, rows)


def test_circle_pow_rows_squares_only_up_to_the_top_bit(monkeypatch):
    """k mod q is taken first; then bit_length - 1 squarings and popcount - 1 products."""
    calls = []
    product = finite._circle_rows
    monkeypatch.setattr(
        finite, "_circle_rows", lambda *args: calls.append(args) or product(*args)
    )
    alg = direct_sum(strictly_upper_triangular_algebra(2, 4), truncated_polynomial_algebra(2, 6))
    q = power_period(alg)
    assert q == 8
    population = np.array(list(alg.elements()), dtype=np.int64)
    finite._circle_pow_rows(alg, population, 2)
    assert len(calls) == 1
    for k in range(-2 * q, 2 * q + 1):
        calls.clear()
        finite._circle_pow_rows(alg, population, k)
        r = k % q
        assert len(calls) == (r.bit_length() - 1 + bin(r).count("1") - 1 if r else 0)
    # At p >= class the p-th powers are zero, so neither the Frobenius matrix
    # nor the population chain multiplies anything.
    calls.clear()
    for alg in (truncated_polynomial_algebra(7, 3), strictly_upper_triangular_algebra(7, 3)):
        finite._population_exponents(alg)
        assert alg.frobenius is None or not alg.frobenius.any()
    assert calls == []


@pytest.mark.parametrize("p,top", [(2, 40), (3, 20)])
def test_poly_widths_and_exponents_past_both_ceilings(p, top):
    """Closed forms for x F_p[x] / (x^n): its p-th powers span x^p F_p[x] / (x^n).

    So the width is (n - 1) - floor((n - 1) / p), at least 1, and an element
    with a nonzero x term has order p^ceil(log_p m) modulo x^m.
    """
    def ceil_log(m):
        t = 0
        while p**t < m:
            t += 1
        return t

    for n in range(1, top + 1):
        alg = truncated_polynomial_algebra(p, n)
        assert cyclic_width(AdjointGroup(alg), limit=64) == max(1, (n - 1) - (n - 1) // p)
        # R / R^(m+1) is x F_p[x] / (x^min(m+1, n)).
        expected = tuple(p ** ceil_log(min(m + 1, n)) for m in range(1, alg.nilpotency_class + 1))
        assert alg.quotient_exponents == expected
        assert AdjointGroup(alg).exponent() == p ** ceil_log(n)


#: Moduli for the span: the three least primes and the largest prime below 2^24.
SPAN_MODULI = (2, 3, 5, 16777213)


@st.composite
def span_cases(draw):
    """(p, k, rows, probes): rows of k <= 64 residues, some of them combinations of the others.

    Entries lean to 0 and p - 1, which give sparse rows and the largest
    products.  The probes are combinations of the rows and free vectors.
    """
    p = draw(st.sampled_from(SPAN_MODULI))
    k = draw(st.integers(1, 64))
    entry = st.one_of(st.just(0), st.just(p - 1), st.integers(0, p - 1))
    vectors = st.lists(st.lists(entry, min_size=k, max_size=k), max_size=8)
    rows = draw(vectors)

    def combinations(count):
        coefficients = st.lists(entry, min_size=len(rows), max_size=len(rows))
        picks = draw(st.lists(coefficients, max_size=count))
        return [[sum(c * row[i] for c, row in zip(cs, rows)) % p for i in range(k)] for cs in picks]

    rows += combinations(4)
    return p, k, rows, combinations(4) + draw(vectors)


def top_pivots(rows):
    return [max(i for i, c in enumerate(row) if c) for row in rows]


@settings(max_examples=60, deadline=None)
@given(span_cases())
# Every entry p - 1 at the largest modulus and the widest algebra.
@example((16777213, 64, [[16777212] * 64] * 64, [[16777212] * 64, [1] + [0] * 63]))
def test_span_matches_the_textbook_echelon(case):
    """``_echelon`` against ``rref_mod_p`` on Python ints: rank, pivots, rows and reductions.

    ``linalg.echelon`` also takes the rows as float64 residues, the form
    ``ModpRowSpace.add`` hands it, and returns the leads in the order found.
    """
    p, k, rows, probes = case
    matrix = np.array(rows, dtype=np.int64).reshape(len(rows), k)
    span = finite._echelon(matrix, p)
    expected = rref_mod_p(rows, p)
    assert span.rank == len(expected)
    assert list(span.pivots) == top_pivots(expected)
    assert [row.tolist() for row in span.rows()] == expected

    # Row i finds the one pivot that the span of rows[:i + 1] has and that of rows[:i] lacks.
    found, before = [], set()
    for i in range(len(rows)):
        after = set(top_pivots(rref_mod_p(rows[:i + 1], p)))
        found += after - before
        before = after
    leads, reduced = linalg.echelon(matrix.astype(np.float64), p)
    assert leads.tolist() == found
    assert [reduced[i].tolist() for i in np.argsort(leads)] == expected

    def in_span(v):
        return len(rref_mod_p(expected + [v], p)) == len(expected)

    reduced = span.reduce_matrix(np.array(probes, dtype=np.int64).reshape(len(probes), k))
    for v, r in zip(probes, reduced.tolist()):
        assert r == span.reduce(v).tolist()
        assert (not any(r)) == in_span(v)
        assert not any(r[c] for c in span.pivots)
        assert in_span([(a - b) % p for a, b in zip(v, r)])


def test_span_sums_reach_dim_p_squared_exactly():
    """At p = 16777213 and 64 columns a reduction sums 63 products of (p - 1)^2, about 2^54."""
    p = 16777213
    # Row i is 1 at coordinate i and p - 1 at coordinate 0: pivots 1..63, one free column.
    rows = [[p - 1] + [int(j == i) for j in range(1, 64)] for i in range(1, 64)]
    span = finite._echelon(np.array(rows, dtype=np.int64), p)
    assert span.pivots == tuple(range(1, 64))
    probe = [p - 1] * 64
    expected = (p - 1 - 63 * (p - 1) * (p - 1)) % p
    assert span.reduce(probe).tolist() == [expected] + [0] * 63
    assert [row.tolist() for row in span.rows()] == rref_mod_p(rows, p)


def modp_power_chain(alg):
    """R^1 >= R^2 >= ... down to zero on ``ModpRowSpace``, with products from einsum."""
    p, k = alg.p, alg.dim
    chain = [ModpRowSpace(k, p)]
    chain[0].add(np.eye(k, dtype=np.int64))
    while chain[-1].rank:
        basis = np.array(chain[-1].rows(), dtype=np.int64)
        # Row (i, j) is b_i e_j = sum_a b_i[a] e_a e_j.
        products = np.einsum("ia,ajt->ijt", basis, alg.table) % p
        chain.append(ModpRowSpace(k, p))
        chain[-1].add(products.reshape(-1, k))
    return chain


#: Poly, ut and direct-sum algebras of dimension up to 9 for the span's chain.
CHAIN_SHAPES = [
    (p, spec)
    for p in (2, 3, 5, 7)
    for spec in [
        ("poly", 5), ("poly", 10), ("ut", 3), ("ut", 4), ("sum", ("ut", 3), ("poly", 4)),
        ("sum", ("poly", 3), ("ut", 4)), ("sum", ("poly", 4), ("poly", 6)),
    ]
]


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(CHAIN_SHAPES),
    st.lists(st.integers(0, 6), min_size=100, max_size=100),
    st.randoms(use_true_random=False),
)
def test_power_chain_matches_the_float_engine(case, grid, rng):
    """Random bases: every ``power_space`` equals the chain on ``ModpRowSpace``, reductions too."""
    p, spec = case
    alg = in_random_basis(family(p, spec), grid, 10)
    chain = modp_power_chain(alg)
    assert alg.nilpotency_class == len(chain)
    probes = np.array([[rng.randrange(p) for _ in range(alg.dim)] for _ in range(8)])
    for n in range(1, len(chain) + 2):
        span, reference = alg.power_space(n), chain[min(n, len(chain)) - 1]
        assert span.rank == reference.rank
        assert list(span.pivots) == reference.pivots
        assert [row.tolist() for row in span.rows()] == [row.tolist() for row in reference.rows()]
        assert span.reduce_matrix(probes).tolist() == reference.reduce_matrix(probes).tolist()
