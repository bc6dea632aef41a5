"""Row-echelon engines: one contract suite over every p, engine-specific paths, and the integer readers."""

import inspect
import os
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adjointalg import (
    AdjointGroup,
    GeneratorCensus,
    Gf2RowSpace,
    GradedIdeal,
    HilbertTable,
    ModpRowSpace,
    TruncatedPoly,
    circle_pow,
    combined_ideal,
    cyclic_width,
    enumerate_aplus,
    factor_to_valuation,
    homogeneous_part,
    index_exponent_check,
    linalg,
    manifest,
    projective_class_count,
    projective_class_reps,
    quotient_algebra,
    quotient_dimensions,
    quotient_exponent,
    row_space,
    run_construction,
    strictly_upper_triangular_algebra,
    truncated_polynomial_algebra,
    witness_search,
    words_of_degree,
)
from adjointalg.linalg import MAX_MODULUS
from adjointalg.oracle import rref_mod_p


#: The moduli of the engine contract suite: the F_2 engine, two small odd
#: primes and the largest prime the dense engine takes.
PRIMES = (2, 3, 5, 16777213)


def to_row(v, space):
    """A dense list as a row of the engine: for F_2 an int with bit i at coordinate i, else an int64 array."""
    if isinstance(space, Gf2RowSpace):
        return sum((int(c) & 1) << i for i, c in enumerate(v))
    return np.array(v, dtype=np.int64)


def to_list(row, ncols):
    """An engine row as a list of its ncols residues; the inverse of :func:`to_row`."""
    return [row >> i & 1 for i in range(ncols)] if isinstance(row, int) else [int(c) for c in row]


def _random_rows(rng, p, ncols, count):
    """Dense rows over F_p, each zero above a random coordinate, so that the pivots spread."""
    tops = rng.choices(range(1, ncols + 1), k=count)
    return [[rng.randrange(p) if j < top else 0 for j in range(ncols)] for top in tops]


def _row_lists(p, ncols, max_rows):
    return st.lists(st.lists(st.integers(0, p - 1), min_size=ncols, max_size=ncols), max_size=max_rows)


def reduce_by(basis, v, p):
    """v minus the combination of a fully reduced basis that clears its pivots."""
    for row in basis:
        c = v[max(i for i, x in enumerate(row) if x)]
        v = [(a - c * b) % p for a, b in zip(v, row)]
    return v


def test_dispatcher_picks_engine_by_prime():
    assert isinstance(row_space(5, 2), Gf2RowSpace)
    assert isinstance(row_space(5, 3), ModpRowSpace)
    assert isinstance(row_space(5, 7), ModpRowSpace)


@pytest.mark.parametrize("p", [4, 9, 15, 16777215])
def test_a_composite_modulus_is_refused_when_the_engine_is_built(p):
    """Z/4 used to give an engine whose first add failed inside linalg.echelon."""
    for build in (lambda: row_space(3, p), lambda: ModpRowSpace(3, p)):
        with pytest.raises(ValueError, match=f"^p must be prime, got {p}$"):
            build()


def test_empty_spaces():
    for p in PRIMES:
        space = row_space(6, p)
        assert (space.rank, space.pivots, space.rows(), space.row_vectors()) == (0, [], [], [])
        assert to_list(space.reduce(to_row([1, 1, 0, 0, 0, 1], space)), 6) == [1, 1, 0, 0, 0, 1]


@pytest.mark.parametrize("p", PRIMES)
def test_rank_and_membership(p):
    space = row_space(4, p)
    u, w = [1, 1, 0, 0], [0, 1, 1, 0]
    difference = [(a - b) % p for a, b in zip(u, w)]  # u + w at p = 2
    assert [space.add(to_row(r, space)) for r in (u, w, difference)] == [True, True, False]
    assert space.rank == 2
    assert space.contains(to_row(difference, space))
    assert space.contains(to_row([0, 0, 0, 0], space))
    assert not space.contains(to_row([0, 0, 0, 1], space))
    assert not space.contains(to_row([1, 1, 1, 0], space))


def test_both_engines_add_a_list_of_rows():
    for p in PRIMES:
        space = row_space(4, p)
        u, w = [1, 1, 0, 0], [0, 1, 1, 0]
        difference = [(a - b) % p for a, b in zip(u, w)]
        # Only the last row of the second list is new, and the third list's row is in the span.
        batches = [u, w, difference], [difference, [0, 0, 0, 1]], [difference[:3] + [1]]
        assert [space.add([to_row(r, space) for r in rows]) for rows in batches] == [True, True, False]
        assert space.rank == 3


@pytest.mark.parametrize("p", PRIMES)
def test_a_row_wider_than_the_engine_is_refused(p):
    """add and reduce refuse a row with a coordinate past ncols before they change anything.

    A list whose first row fits is refused whole: over F_2 that row is not added.
    """
    space = row_space(4, p)
    space.add(to_row([1, 0, 0, 0], space))
    wide = to_row([1, 0, 1, 0, 1], space)
    calls = space.add, space.reduce, space.contains, lambda r: space.add([to_row([0, 1, 0, 0, 0], space), r])
    for call in calls:
        with pytest.raises(ValueError, match="^row of width 5 does not fit the engine's 4 columns$"):
            call(wide)
    assert (space.rank, space.pivots) == (1, [0])
    if p == 2:
        # An F_2 row is read as an integer of at least 0: a negative row or a bool is refused by name.
        for call in calls:
            for bad, message in ((-1, "row must be at least 0, got -1"), (True, "row must be an integer, got True")):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    call(bad)
        assert (space.rank, space.pivots) == (1, [0])
        assert space.add(np.int64(0b0110)) and space.add([np.int64(0b1010)])
        assert space.reduce(np.int64(0b1101)) == 0 and space.contains(np.int64(0b0111))


def test_gf2_add_of_a_list_is_one_call_of_add(monkeypatch):
    """Each row of a list goes in through a private step, so a counter on ``add`` reads one call."""
    calls = []
    add = Gf2RowSpace.add

    def counted(self, row):
        calls.append(row)
        return add(self, row)

    monkeypatch.setattr(Gf2RowSpace, "add", counted)
    space = Gf2RowSpace(4)
    assert space.add([0b0011, 0b0110, 0b0101]) is True
    assert (len(calls), space.rank) == (1, 2)


def _check_exported_rows(p, seed):
    """Each row is 1 at its pivot, which is its top nonzero coordinate, and 0 at every other pivot."""
    ncols = 20
    rng, space, again = random.Random(seed), row_space(ncols, p), row_space(ncols, p)
    rows = _random_rows(rng, p, ncols, 14)
    for r in rows:
        space.add(to_row(r, space))
    reduced, pivots = [to_list(r, ncols) for r in space.rows()], space.pivots
    assert len(reduced) == len(pivots) == space.rank
    assert reduced == rref_mod_p(rows, p)
    for b, row in zip(pivots, reduced):
        assert row[b] == 1 and max(j for j, c in enumerate(row) if c) == b
        assert [row[other] for other in pivots if other != b] == [0] * (len(pivots) - 1)
    # Exporting is idempotent, and the exported rows span the same space.
    assert [to_list(r, ncols) for r in space.rows()] == reduced
    assert [again.add(to_row(r, again)) for r in reduced] == [True] * len(reduced)
    for r in rows + _random_rows(rng, p, ncols, 14):
        v = to_row(r, space)
        assert space.contains(v) == again.contains(v)
        assert to_list(space.reduce(v), ncols) == to_list(again.reduce(v), ncols)


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_gf2_reduced_rows_have_single_pivot_per_column(seed):
    _check_exported_rows(2, seed)


@pytest.mark.parametrize("seed", [3, 11])
def test_modp_reduced_rows_have_single_pivot_per_column(seed):
    _check_exported_rows(3, seed)


@pytest.mark.parametrize("p", PRIMES[2:])
def test_exported_rows_are_reduced_and_span_the_same_space(p):
    """The same check as the two tests above, at the primes they leave out."""
    for seed in (1, 7, 23):
        _check_exported_rows(p, seed)


@pytest.mark.parametrize("p", PRIMES)
def test_reduce_is_coset_invariant(p):
    """reduce(v) is the same on all of v + span, and v minus it lies in the span."""
    rng, ncols = random.Random(p), 16
    space = row_space(ncols, p)
    added = [r for r in _random_rows(rng, p, ncols, 10) if space.add(to_row(r, space))]
    for v in _random_rows(rng, p, ncols, 50):
        moved = v
        for r in added:
            c = rng.randrange(p)
            moved = [(a + c * b) % p for a, b in zip(moved, r)]
        residue = to_list(space.reduce(to_row(v, space)), ncols)
        assert to_list(space.reduce(to_row(moved, space)), ncols) == residue
        assert space.contains(to_row([(a - b) % p for a, b in zip(v, residue)], space))


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_span_combinations_never_grow_rank_and_reduce_is_idempotent(p, data):
    ncols = data.draw(st.integers(1, 12))
    rows = data.draw(_row_lists(p, ncols, 14))
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=len(rows), max_size=len(rows)))
    vs = data.draw(_row_lists(p, ncols, 4))
    space = row_space(ncols, p)
    for r in rows:
        space.add(to_row(r, space))
    rank = space.rank
    combo = [sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(ncols)]
    assert space.add(to_row(combo, space)) is False
    assert space.rank == rank
    assert all(space.contains(to_row(r, space)) for r in rows)
    for v in vs:
        once = space.reduce(to_row(v, space))
        assert to_list(space.reduce(once), ncols) == to_list(once, ncols)


def test_modp_float_input_is_reduced_exactly():
    p = 16777213
    rows = np.array([[p - 1, p - 2, 5], [p - 2, 7, 1]], dtype=np.float32)
    space, exact = ModpRowSpace(3, p), ModpRowSpace(3, p)
    space.add(rows)
    exact.add(rows.astype(np.int64))
    assert space.row_vectors() == exact.row_vectors()
    v = np.array([p - 3, p - 4, p - 5], dtype=np.float32)
    assert space.reduce(v).tolist() == exact.reduce(v.astype(np.int64)).tolist()


def test_modp_reduce_matrix_matches_rowwise_reduce():
    rng = np.random.default_rng(17)
    space = ModpRowSpace(14, 3)
    for row in rng.integers(0, 3, size=(8, 14)):
        space.add(row)
    m = rng.integers(0, 3, size=(25, 14))
    batch = space.reduce_matrix(m)
    for i in range(m.shape[0]):
        assert np.array_equal(batch[i], space.reduce(m[i]))


@pytest.mark.parametrize("seed", [2, 13, 404])
def test_engines_agree_at_p_equals_two(seed):
    """The bitset engine and the dense engine build the same echelon space."""
    ncols, rng = 24, random.Random(seed)
    bitspace, dense = Gf2RowSpace(ncols), ModpRowSpace(ncols, 2)
    for r in _random_rows(rng, 2, ncols, 40):
        assert bitspace.add(to_row(r, bitspace)) == dense.add(r)
        assert bitspace.rank == dense.rank
    assert bitspace.pivots == dense.pivots
    assert bitspace.row_vectors() == dense.row_vectors()
    for v in _random_rows(rng, 2, ncols, 30):
        assert to_list(bitspace.reduce(to_row(v, bitspace)), ncols) == to_list(dense.reduce(v), ncols)
        assert bitspace.contains(to_row(v, bitspace)) == dense.contains(v)


def test_modp_refuses_moduli_outside_the_exact_range():
    # (p - 1)^2 overflows int64 here: an int64 engine reduced [p - 3, 5] against
    # [p - 1, p - 2] to [2147484775, 1125] instead of [2147483650, 0].
    with pytest.raises(ValueError, match=str(MAX_MODULUS)):
        ModpRowSpace(2, 4294967311)
    with pytest.raises(ValueError, match=str(MAX_MODULUS)):
        ModpRowSpace(2, 1)


def test_modp_is_exact_at_the_largest_prime_in_range():
    p = 16777213  # the largest prime below MAX_MODULUS = 2^24
    space = ModpRowSpace(2, p)
    space.add([p - 1, p - 2])
    lead = (p - 1) * pow(p - 2, -1, p) % p
    assert space.row_vectors() == [[lead, 1]]
    assert space.reduce([p - 3, 5]).tolist() == [(p - 3 - 5 * lead) % p, 0]
    # Near the worst case: 128 products of about 2^48 sum past 2^54, where
    # float64 integers are 4 apart, unless the product is split.
    m = 128
    big = [p - 2 - 2 * (i % 3) for i in range(m)]
    worst = ModpRowSpace(2 * m, p)
    worst.add([[big[i]] * m + [int(j == i) for j in range(m)] for i in range(m)])
    assert worst.reduce([0] * m + [2] * m).tolist() == [-2 * sum(big) % p] * m + [0] * m
    # Wide batches: every product is split so that its partial sums stay below 2^53.
    rng = random.Random(p)
    rows = [[rng.randrange(p) for _ in range(90)] for _ in range(70)]
    space = ModpRowSpace(90, p)
    space.add(rows[:40])
    space.add(rows[40:])
    basis = rref_mod_p(rows, p)
    assert space.row_vectors() == basis
    v = [rng.randrange(p) for _ in range(90)]
    assert space.reduce(v).tolist() == reduce_by(basis, v, p)


@pytest.mark.parametrize("p", [3, 7])
def test_modp_sliced_products_and_blocks_match_the_oracle(p, monkeypatch):
    # Tiny slices: products run in pieces of 32 rows and columns, and a batch
    # goes in blocks of 32 rows, each merged into the basis before the next.
    monkeypatch.setattr(linalg, "_PART_BYTES", 8)
    rng = random.Random(p)
    gens = [[rng.randrange(p) for _ in range(60)] for _ in range(55)]
    rows = []
    for _ in range(90):
        c = [rng.randrange(p) for _ in gens]
        rows.append([sum(a * g[j] for a, g in zip(c, gens)) % p for j in range(60)])
    space = ModpRowSpace(60, p)
    space.add(rows[:5])
    space.add(rows[5:])
    basis = rref_mod_p(rows, p)
    assert space.row_vectors() == basis
    m = [[rng.randrange(p) for _ in range(60)] for _ in range(40)]
    assert space.reduce_matrix(m).tolist() == [reduce_by(basis, v, p) for v in m]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_modp_batch_add_matches_rowwise_add_and_the_oracle(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    ncols = data.draw(st.integers(1, 12))
    rows = data.draw(_row_lists(p, ncols, 16))
    cut = data.draw(st.integers(0, len(rows)))
    height = data.draw(st.integers(1, 4))
    batched, rowwise = ModpRowSpace(ncols, p), ModpRowSpace(ncols, p)
    # Blocks of a few rows: each batch spans several blocks, each merged before the next.
    with mock.patch.object(linalg, "_part_rows", lambda ncols: height):
        for part in (rows[:cut], rows[cut:]):
            if part:
                rank = batched.rank
                assert batched.add(part) == (batched.rank > rank)
    for r in rows:
        rank = rowwise.rank
        assert rowwise.add(r) == (rowwise.rank > rank)
    expected = rref_mod_p(rows, p)
    assert batched.row_vectors() == rowwise.row_vectors() == expected
    assert batched.pivots == [max(i for i, c in enumerate(r) if c) for r in expected]
    # Leads are found in row order whatever the blocking, so the stored form is the same.
    assert batched._piv.tolist() == rowwise._piv.tolist()
    assert np.array_equal(batched._coef, rowwise._coef)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**10 - 1), max_size=20), st.integers(0, 2**10 - 1))
def test_engines_agree_at_p_equals_two_on_random_rows(rows, v):
    bitspace, dense = Gf2RowSpace(10), ModpRowSpace(10, 2)
    for r in rows:
        assert bitspace.add(r) == dense.add(to_list(r, 10))
    assert bitspace.pivots == dense.pivots
    assert bitspace.row_vectors() == dense.row_vectors()
    assert to_list(bitspace.reduce(v), 10) == dense.reduce(to_list(v, 10)).tolist()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_modp_add_on_a_column_subset_matches_the_dense_rows(data):
    p = data.draw(st.sampled_from([3, 5]))
    ncols = data.draw(st.integers(2, 10))
    base = data.draw(_row_lists(p, ncols, 6))
    order = data.draw(st.permutations(range(ncols)))
    m = data.draw(st.integers(0, ncols - 1))
    columns = order[:m]
    k = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=m, max_size=m), min_size=k, max_size=k))
    leads = data.draw(st.lists(st.integers(0, ncols - 1), min_size=k, max_size=k))
    dense = np.zeros((k, ncols), dtype=np.int64)
    dense[:, columns] = np.array(rows, dtype=np.int64).reshape(k, m)
    dense[np.arange(k), leads] += 1
    gathered, plain = ModpRowSpace(ncols, p), ModpRowSpace(ncols, p)
    for space in (gathered, plain):
        if base:
            space.add(base)
    grew = gathered.add(np.array(rows).reshape(k, m), np.array(columns, dtype=np.int64), np.array(leads))
    assert grew == plain.add(dense)
    assert gathered.row_vectors() == plain.row_vectors()


def _naive_grown(left, right, ncols):
    """Spanning vectors of x V + y V + N x + N y, V spanned by left and N by right.

    Coordinate j is the word of index j (first letter highest bit): x w keeps
    the index, y w adds ncols, and w x, w y go to 2j and 2j + 1.
    """
    zero = [0] * ncols
    shifted = [r + zero for r in left] + [zero + r for r in left]
    multiples = []
    for r in right:
        for bit in (0, 1):
            v = [0] * (2 * ncols)
            v[bit::2] = r
            multiples.append(v)
    return shifted + multiples, multiples


def _grow_twice(engines, first, extra, p, export):
    """Grow fresh engines, add more rows, grow again; yield each level's rows and the oracle's."""
    ncols = len(first[0])
    for space in engines:
        for r in first:
            space.add(to_row(r, space))
    spanning, multiples = _naive_grown(first, first, ncols)
    if export:
        for space in engines:
            space.rows()  # back-substitute before growing
    engines = [space.grown() for space in engines]
    yield [space.row_vectors() for space in engines], rref_mod_p(spanning, p)
    for space in engines:
        for r in extra:
            space.add(to_row(r, space))
        if export:
            space.rows()
    spanning, _ = _naive_grown(spanning + extra, multiples + extra, 2 * ncols)
    yield [space.grown().row_vectors() for space in engines], rref_mod_p(spanning, p)


@pytest.mark.parametrize("export", [False, True])
@pytest.mark.parametrize("ncols", [1, 4, 8, 12, 16, 17, 24, 40, 256, 512])
def test_gf2_grown_matches_the_dense_engine_and_the_naive_span(ncols, export):
    """Rows cross byte and half-word boundaries; the second growth reads only the rows added after the first."""
    rng = random.Random(ncols)
    count = min(ncols, 4)
    rows = [rng.getrandbits(ncols) | 1 << rng.randrange(ncols) for _ in range(count)]
    # Added first, so their top bits stay pivots: one at the last coordinate,
    # one whose bit_length is 1 past a multiple of 16.
    edge = (ncols - 1) // 16 * 16
    first = [rng.getrandbits(ncols) | 1 << ncols - 1, rng.getrandbits(edge) | 1 << edge]
    first = [to_list(r, ncols) for r in first + rows + [rows[0] ^ rows[-1]]]  # the last is dependent
    extra = [to_list(rng.getrandbits(2 * ncols) & rng.getrandbits(2 * ncols), 2 * ncols) for _ in range(3)]
    levels = _grow_twice([Gf2RowSpace(ncols), ModpRowSpace(ncols, 2)], first, extra, 2, export)
    for (gf2, dense), expected in levels:
        assert gf2 == dense == expected


def test_gf2_spread_table_moves_bit_i_to_bit_2i():
    """Every half-word, against the per-bit formula."""
    half = np.arange(1 << 16, dtype=np.uint64)
    table = linalg._spread_table()
    assert table.dtype == np.dtype("<u4")
    assert np.array_equal(table, sum((half >> i & 1) << 2 * i for i in range(16)))


def _shifted_copy():
    """``Gf2RowSpace._row`` with its whole upper left copy shifted by n - 1 instead of n, as a script.

    The copy's top bit is then not its pivot.  The script is built from the
    source of ``_row`` by one exact replacement, so it follows ``_row``.
    """
    old, new = "self._below._row(b - n) << n\n", "self._below._row(b - n) << n - 1\n"
    source = textwrap.dedent(inspect.getsource(Gf2RowSpace._row))
    assert source.count(old) == 1
    return source.replace(old, new) + "\nlinalg.Gf2RowSpace._row = _row\n"


_SHIFTED_COPY = _shifted_copy()


@pytest.mark.parametrize(
    "script,code,last",
    [
        (
            _SHIFTED_COPY + "quotient_dimensions(GradedIdeal(2, 6, [parse_poly('xy + yx', 2, 6)]))",
            1,
            r"AssertionError: the row at pivot (\d+) left bit \1 set",
        ),
        (
            _SHIFTED_COPY + "raise SystemExit(main(['hilbert', '--p', '2', '--cap', '6', '--ideal-file', 'xy.json']))",
            3,
            r"internal error: the row at pivot (\d+) left bit \1 set",
        ),
        (
            "space = Gf2RowSpace(4)\nspace.add(0b1000)\nspace._halves[3] = 0b100, 0\nspace.reduce(0b1000)",
            1,
            r"AssertionError: the row at pivot 3 left bit 3 set",
        ),
    ],
    ids=["shifted-copy", "shifted-copy-cli", "reduce"],
)
def test_gf2_row_whose_top_bit_is_not_its_pivot_fails_instead_of_hanging(script, code, last, tmp_path):
    """In a child process with a timeout, so a reduction that never ends fails the test.

    The CLI case reads the ideal of xy + yx from a file: a whole upper left
    copy is built only for the walk of the engine above, which the CLI's
    default construction ideal does not reach at small caps.
    """
    (tmp_path / "xy.json").write_text('[[2, "xy + yx"]]')
    src = str(Path(linalg.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    head = "from adjointalg import GradedIdeal, Gf2RowSpace, linalg, parse_poly, quotient_dimensions\n"
    head += "from adjointalg.cli import main\n"
    run = subprocess.run(
        [sys.executable, "-c", head + script],
        env=dict(os.environ, PYTHONPATH=path),
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert run.returncode == code
    assert re.fullmatch(last, run.stderr.splitlines()[-1])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_modp_grown_matches_the_naive_span(data):
    p = data.draw(st.sampled_from(PRIMES[1:]))
    ncols = data.draw(st.integers(1, 8))
    first = data.draw(_row_lists(p, ncols, 5).filter(bool))
    extra = data.draw(_row_lists(p, 2 * ncols, 3))
    export = data.draw(st.booleans())
    height = data.draw(st.integers(1, 3))
    # Blocks of a few rows, so the sparse right multiples span several blocks.
    with mock.patch.object(linalg, "_part_rows", lambda ncols: height):
        for (rows,), expected in _grow_twice([ModpRowSpace(ncols, p)], first, extra, p, export):
            assert rows == expected


def _state(space):
    """A copy of every stored attribute of an engine."""
    return {k: v.copy() if isinstance(v, (dict, list, bytearray, np.ndarray)) else v for k, v in vars(space).items()}


def _same_state(a, b):
    return a.keys() == b.keys() and all(
        isinstance(a[k], np.ndarray) and a[k].dtype == b[k].dtype and np.array_equal(a[k], b[k])
        or not isinstance(a[k], np.ndarray) and a[k] == b[k]
        for k in a
    )


def _answers(space, v):
    """Everything a read gives, in plain Python values; reduce and contains come before rows()."""
    return (
        space.rank, list(space.pivots), to_list(space.reduce(v), space.ncols), space.contains(v),
        [to_list(r, space.ncols) for r in space.rows()], space.row_vectors(),
    )


def _whole_row(engine, b):
    """The whole row at pivot b from the halves stored at b, or from the engine below."""
    n = engine._low.bit_length()
    if b in engine._halves:
        high, low = engine._halves[b]
        return high << n | low
    below = engine._below
    return below._rows[b - n] << n if b >= n else below._rows[b]


def _chain(space):
    """The engine and every F_2 engine it was grown from, top first."""
    while space is not None:
        yield space
        space = getattr(space, "_below", None)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reads_never_change_an_engine(data):
    """Reads keep an engine's span and answers; an F_2 read may only store whole rows.

    Every attribute is compared exactly, except ``_rows`` of the F_2 engine:
    its old entries must stay, and each new one must be the whole row it stands for:
    the two stored halves joined, or the row of the engine below at the same
    pivot, shifted by that engine's width when the pivot is in the upper half.
    """
    p = data.draw(st.sampled_from(PRIMES))
    ncols = data.draw(st.integers(1, 6))
    levels = data.draw(st.integers(1, 2))
    first = data.draw(_row_lists(p, ncols, 5))
    v = data.draw(st.lists(st.integers(0, p - 1), min_size=ncols << levels, max_size=ncols << levels))
    space = row_space(ncols, p)
    for r in first:
        space.add(to_row(r, space))
    for _ in range(levels):
        space = space.grown()
        for r in data.draw(_row_lists(p, space.ncols, 3)):
            space.add(to_row(r, space))
    before = [_state(s) for s in _chain(space)]
    # The second round of reads runs after the first has built every left copy.
    assert _answers(space, to_row(v, space)) == _answers(space, to_row(v, space))
    after = [_state(s) for s in _chain(space)]
    for engine, old, new in zip(_chain(space), before, after):
        if p == 2:
            old_rows, new_rows = old.pop("_rows"), new.pop("_rows")
            assert all(new_rows[b] == r for b, r in old_rows.items())
            for b in new_rows.keys() - old_rows.keys():
                assert new_rows[b] == _whole_row(engine, b)
        assert _same_state(new, old)


def _pivot_flags(space):
    """The F_2 engine's flags for the pivots of an engine: one byte per coordinate, 1 at a pivot."""
    flags = bytearray(space.ncols)
    for b in space.pivots:
        flags[b] = 1
    return flags


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.none(), st.integers(min_value=0)), max_size=30))
def test_gf2_flags_hold_exactly_the_pivots(steps):
    """None grows the engines; an integer is added as a row, cut to the current width.

    The flags are compared with the pivots of the dense engine fed the same
    steps, through growths up to width 256, past the four of the left-copy
    test below; every row stored as halves is at a flagged pivot.
    """
    space, dense = Gf2RowSpace(2), ModpRowSpace(2, 2)
    for step in steps:
        if step is None:
            if space.ncols < 1 << 8:
                space, dense = space.grown(), dense.grown()
        else:
            row = step % (1 << space.ncols)
            space.add(row)
            dense.add(to_list(row, dense.ncols))
        assert space._flags == _pivot_flags(dense)
        assert all(space._flags[b] for b in space._halves)
        assert space.rank == dense.rank


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gf2_left_copies_built_on_first_use_match_the_eager_engine(data):
    """Chains of 0-4 growths with adds and reads interleaved, against the eager dense engine.

    Level 0 compares the two engines fed the same rows; its width reaches 24,
    so rows cross byte boundaries.  Reads between the adds build some left
    copies before more rows go in, so ``add`` meets both built and unbuilt
    copies.  After every add and read the pivot flags hold exactly the dense pivots.
    """
    ncols = data.draw(st.integers(1, 24))
    space, dense = Gf2RowSpace(ncols), ModpRowSpace(ncols, 2)

    def same_pivots():
        assert (space.rank, space.pivots) == (dense.rank, dense.pivots)
        assert space._flags == _pivot_flags(dense)

    def agree():
        width = space.ncols
        same_pivots()
        assert space.row_vectors() == dense.row_vectors()
        for v in data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=3)):
            assert to_list(space.reduce(v), width) == dense.reduce(to_list(v, width)).tolist()
            assert space.contains(v) == dense.contains(to_list(v, width))

    for level in range(data.draw(st.integers(0, 4)) + 1):
        if level:
            space, dense = space.grown(), dense.grown()
        steps = st.lists(st.one_of(st.none(), st.integers(0, (1 << space.ncols) - 1)), max_size=8)
        for step in data.draw(steps):
            if step is None:
                agree()
            else:
                assert space.add(step) == dense.add(to_list(step, space.ncols))
                same_pivots()
        agree()


def test_gf2_reduce_sets_aside_upper_bits_below_the_lowest_upper_pivot():
    """Bits 8 and 9 lie in the upper half under its lowest pivot, 10, and above the lower pivots 2, 4 and 5.

    So they stay as they are, however far the lower half's pivots reach.
    """
    space, dense = Gf2RowSpace(8), ModpRowSpace(8, 2)
    space.add(0b100)
    dense.add(to_list(0b100, 8))
    space, dense = space.grown(), dense.grown()
    assert space.pivots == dense.pivots == [2, 4, 5, 10]
    v = 1 << 10 | 1 << 9 | 1 << 8 | 1 << 5 | 1 << 3
    assert space.reduce(v) == 1 << 9 | 1 << 8 | 1 << 3
    assert to_list(space.reduce(v), 16) == dense.reduce(to_list(v, 16)).tolist()


def test_gf2_rows_added_below_after_growth_do_not_reach_the_grown_engine():
    space, copy = Gf2RowSpace(4), Gf2RowSpace(4)
    for engine in (space, copy):
        engine.add(0b0011)
        engine.add(0b0110)
    grown, expected = space.grown(), copy.grown()
    space.add(0b1000)
    assert (grown.rank, grown.pivots) == (expected.rank, expected.pivots)
    assert grown.row_vectors() == expected.row_vectors()
    assert grown.reduce(0xFF) == expected.reduce(0xFF)


def test_gf2_top_component_stores_fewer_rows_than_its_rank():
    """The Hilbert table reads only ranks, so the top degree builds no whole row and keeps only its own rows."""
    ideal = combined_ideal(run_construction(2, 16, 100))
    quotient_dimensions(ideal)
    top = ideal.component_basis(16)
    assert top._rows == {}
    assert len(top._halves) < top.rank


_X = TruncatedPoly(3, 6, {"x": 1})
_ALGEBRA = truncated_polynomial_algebra(3, 4)

#: Every entry point that reads an integer argument with ``linalg.as_integer``:
#: (name, call, least, most, a valid value).  ``call`` returns something ``==`` compares.
INTEGER_ARGUMENTS = {
    "TruncatedPoly cap": ("degree cap", lambda v: TruncatedPoly(2, v, {"x": 1}), 1, None, 3),
    "TruncatedPoly coefficient": ("coefficient", lambda v: TruncatedPoly(3, 4, {"x": v}), None, None, 2),
    "__pow__": ("exponent", lambda v: _X**v, 0, None, 2),
    "circle_pow": ("exponent", lambda v: circle_pow(_X, v), None, None, -2),
    "homogeneous_part": ("degree", lambda v: homogeneous_part(_X + _X * _X, v), 0, 6, 2),
    "words_of_degree": ("degree", words_of_degree, 0, None, 2),
    "component_basis": (
        "degree", lambda v: GradedIdeal(2, 4, [TruncatedPoly(2, 4, {"xy": 1})]).component_basis(v).rank, 1, 4, 3
    ),
    "HilbertTable.dimension": ("degree", HilbertTable(2, (2, 3, 5)).dimension, 1, 3, 2),
    "HilbertTable.ideal_rank": ("degree", HilbertTable(2, (2, 3, 5)).ideal_rank, 1, 3, 2),
    "factor_to_valuation": ("target valuation", lambda v: factor_to_valuation(_X + _X * _X, v), 1, 7, 3),
    "run_construction": ("max_elements", lambda v: manifest(run_construction(2, 4, v)), 0, None, 2),
    "enumerate_aplus": ("index", lambda v: enumerate_aplus(2, v, 4), 1, None, 3),
    "projective_class_reps": ("degree", lambda v: list(projective_class_reps(2, v, 3)), 1, 3, 1),
    "projective_class_count": ("degree", lambda v: projective_class_count(2, v), 1, None, 2),
    "projective_class_count p": ("p", lambda v: projective_class_count(v, 2), None, None, 3),
    "witness_search": ("denominator", lambda v: witness_search(GeneratorCensus({2: 2}), v), 2, None, 4),
    "GeneratorCensus": ("relation count at degree 3", lambda v: GeneratorCensus({3: v}), 0, None, 2),
    "power_space": ("power index", lambda v: _ALGEBRA.power_space(v).basis.tolist(), 1, None, 2),
    "quotient_exponent": ("congruence index", lambda v: quotient_exponent(_ALGEBRA, v), 1, None, 2),
    "quotient_algebra": (
        "congruence index", lambda v: quotient_algebra(_ALGEBRA, v).to_json_dict(), 0, None, 1
    ),
    "truncated_polynomial_algebra": (
        "modulus exponent", lambda v: truncated_polynomial_algebra(2, v).to_json_dict(), 1, None, 3
    ),
    "strictly_upper_triangular_algebra": (
        "matrix size", lambda v: strictly_upper_triangular_algebra(2, v).to_json_dict(), 2, None, 3
    ),
    "cyclic_width": ("limit", lambda v: cyclic_width(AdjointGroup(_ALGEBRA), v), 1, None, 4),
    "index_exponent_check": ("width", lambda v: index_exponent_check(_ALGEBRA, v), 1, None, 2),
    "FiniteNilAlgebra.circle_pow": ("exponent", lambda v: _ALGEBRA.circle_pow((1, 2, 0), v), None, None, -2),
    "row_space at p = 2": ("ncols", lambda v: row_space(v, 2).ncols, 1, None, 3),
    "row_space at p = 3": ("ncols", lambda v: row_space(v, 3).ncols, 1, None, 3),
}


def _refusals():
    for entry, (name, _, least, most, _) in INTEGER_ARGUMENTS.items():
        yield entry, True, f"{name} must be an integer, got True"
        yield entry, 2.5, f"{name} must be an integer, got 2.5"
        if most is not None:
            yield entry, least - 1, f"{name} must lie in {least}..{most}, got {least - 1}"
            yield entry, most + 1, f"{name} must lie in {least}..{most}, got {most + 1}"
        elif least is not None:
            yield entry, least - 1, f"{name} must be at least {least}, got {least - 1}"


@pytest.mark.parametrize("entry,value,message", list(_refusals()))
def test_every_integer_argument_is_refused_by_name(entry, value, message):
    """A bool, a float and a value out of range each raise one ValueError naming the argument."""
    call = INTEGER_ARGUMENTS[entry][1]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("entry", list(INTEGER_ARGUMENTS))
def test_a_numpy_integer_argument_gives_the_python_int_answer(entry):
    _, call, _, _, value = INTEGER_ARGUMENTS[entry]
    assert call(np.int64(value)) == call(value)


def test_ceil_log_gives_the_least_power_at_or_above_a_bound():
    for p in (2, 3, 5, 7):
        for m in range(1, 130):
            t = linalg.ceil_log(p, m)
            assert p**t >= m and (t == 0 or p ** (t - 1) < m)


def test_numpy_coefficients_are_stored_as_python_ints():
    """At p = 2^61 - 1 an int64 coefficient squared used to overflow and print 0x^2."""
    p = 2**61 - 1
    square = TruncatedPoly(p, 4, {"x": np.int64(2**60)}) ** 2
    assert square == TruncatedPoly(p, 4, {"x": 2**60}) ** 2
    assert str(square) == "576460752303423488x^2"
    assert all(type(c) is int for c in TruncatedPoly(p, 4, {"x": np.int64(2**60)}).terms.values())


@pytest.mark.parametrize("coeff", [1.5, 2.0, np.float64(1.0), True, "1"])
def test_a_coefficient_that_is_not_an_integer_is_refused(coeff):
    """A float coefficient used to be stored, and its product with y read xy."""
    with pytest.raises(ValueError, match=f"^coefficient must be an integer, got {re.escape(repr(coeff))}$"):
        TruncatedPoly(3, 4, {"x": coeff})
