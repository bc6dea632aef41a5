"""Row-echelon engines: ranks, membership, reduced forms, and cross-engine agreement."""

import random
import re
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


def bits_to_vec(r, ncols):
    return [(r >> i) & 1 for i in range(ncols)]


def reduce_by(basis, v, p):
    """v minus the combination of a fully reduced basis that clears its pivots."""
    for row in basis:
        c = v[max(i for i, x in enumerate(row) if x)]
        v = [(a - c * b) % p for a, b in zip(v, row)]
    return v


def vec_to_bits(v):
    return sum(int(c) << i for i, c in enumerate(v) if int(c) % 2)


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
    for space in (Gf2RowSpace(6), ModpRowSpace(6, 3)):
        assert space.rank == 0
        assert space.pivots == []
        assert space.rows() == []
        assert space.row_vectors() == []
    assert Gf2RowSpace(6).reduce(0b101) == 0b101
    assert list(ModpRowSpace(6, 3).reduce([1, 2, 0, 0, 0, 1])) == [1, 2, 0, 0, 0, 1]


def test_gf2_rank_and_membership():
    space = Gf2RowSpace(4)
    assert space.add(0b0011) is True
    assert space.add(0b0110) is True
    assert space.add(0b0101) is False  # XOR of the first two
    assert space.rank == 2
    assert space.contains(0b0101)
    assert space.contains(0)
    assert not space.contains(0b1000)
    assert not space.contains(0b0111)


def test_both_engines_add_a_list_of_rows():
    gf2, dense = Gf2RowSpace(4), ModpRowSpace(4, 2)
    assert gf2.add([0b0011, 0b0110, 0b0101]) is True
    assert dense.add([bits_to_vec(r, 4) for r in (0b0011, 0b0110, 0b0101)]) is True
    assert gf2.rank == dense.rank == 2
    assert gf2.add([0b0101, 0b1000]) is True  # only the last row is new
    assert gf2.add([0b1101]) is False
    assert gf2.rank == 3


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


def test_modp_rank_and_membership():
    space = ModpRowSpace(3, 5)
    assert space.add([1, 2, 0]) is True
    assert space.add([0, 1, 1]) is True
    assert space.add([2, 2, 3]) is False  # 2*(first) + 3*(second) mod 5
    assert space.rank == 2
    assert space.contains([2, 2, 3])
    assert space.contains([0, 0, 0])
    assert not space.contains([0, 0, 1])


def test_modp_pivots_are_normalized():
    space = ModpRowSpace(4, 7)
    space.add([0, 3, 0, 0])
    space.add([2, 0, 0, 5])
    for row in space.rows():
        pivot = int(np.nonzero(row)[0][-1])
        assert int(row[pivot]) == 1


def _random_gf2_rows(seed, ncols, count):
    rng = random.Random(seed)
    return [rng.getrandbits(ncols) for _ in range(count)]


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_gf2_reduced_rows_have_single_pivot_per_column(seed):
    ncols = 20
    space = Gf2RowSpace(ncols)
    for r in _random_gf2_rows(seed, ncols, 14):
        space.add(r)
    reduced = space.rows()
    pivots = space.pivots
    assert len(reduced) == len(pivots) == space.rank
    for b, row in zip(pivots, reduced):
        assert row.bit_length() - 1 == b
        for other_b, other in zip(pivots, reduced):
            if other_b != b:
                assert not (other >> b) & 1
    # exporting is idempotent and does not disturb the span
    assert space.rows() == reduced
    again = Gf2RowSpace(ncols)
    for row in reduced:
        assert again.add(row) is True
    for r in _random_gf2_rows(seed, ncols, 14):
        assert space.contains(r) == again.contains(r)
        assert space.reduce(r) == again.reduce(r)


@pytest.mark.parametrize("seed", [3, 11])
def test_modp_reduced_rows_have_single_pivot_per_column(seed):
    rng = np.random.default_rng(seed)
    space = ModpRowSpace(12, 3)
    for row in rng.integers(0, 3, size=(9, 12)):
        space.add(row)
    reduced = space.rows()
    pivots = space.pivots
    for b, row in zip(pivots, reduced):
        assert int(row[b]) == 1
        assert int(np.nonzero(row)[0][-1]) == b
        for other_b, other in zip(pivots, reduced):
            if other_b != b:
                assert int(other[b]) == 0


def test_gf2_reduce_is_coset_invariant():
    rng = random.Random(99)
    space = Gf2RowSpace(16)
    added = []
    for _ in range(10):
        r = rng.getrandbits(16)
        if space.add(r):
            added.append(r)
    for _ in range(50):
        v = rng.getrandbits(16)
        shift = 0
        for r in added:
            if rng.random() < 0.5:
                shift ^= r
        assert space.reduce(v ^ shift) == space.reduce(v)
        # v minus its residue lies in the span
        assert space.contains(v ^ space.reduce(v))


def test_modp_reduce_is_coset_invariant():
    rng = np.random.default_rng(5)
    space = ModpRowSpace(10, 5)
    added = []
    for row in rng.integers(0, 5, size=(7, 10)):
        if space.add(row):
            added.append(np.array(row) % 5)
    for _ in range(40):
        v = rng.integers(0, 5, size=10)
        shift = np.zeros(10, dtype=np.int64)
        for r in added:
            shift = shift + int(rng.integers(0, 5)) * r
        lhs = space.reduce((v + shift) % 5)
        rhs = space.reduce(v)
        assert np.array_equal(lhs, rhs)
        # v minus its residue lies in the span
        assert space.contains((v - rhs) % 5)


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
    ncols = 24
    bitspace = Gf2RowSpace(ncols)
    dense = ModpRowSpace(ncols, 2)
    for r in _random_gf2_rows(seed, ncols, 40):
        grew_bits = bitspace.add(r)
        grew_dense = dense.add(bits_to_vec(r, ncols))
        assert grew_bits == grew_dense
        assert bitspace.rank == dense.rank
    assert bitspace.pivots == dense.pivots
    assert bitspace.row_vectors() == dense.row_vectors()
    rng = random.Random(seed + 1)
    for _ in range(30):
        v = rng.getrandbits(ncols)
        assert bits_to_vec(bitspace.reduce(v), ncols) == list(
            int(c) for c in dense.reduce(bits_to_vec(v, ncols))
        )
        assert bitspace.contains(v) == dense.contains(bits_to_vec(v, ncols))


@settings(max_examples=60)
@given(st.lists(st.integers(min_value=0, max_value=2**12 - 1), max_size=16))
def test_gf2_span_combinations_never_grow_rank(rows):
    space = Gf2RowSpace(12)
    for r in rows:
        space.add(r)
    rank = space.rank
    combo = 0
    for r in rows:
        combo ^= r
    assert space.add(combo) is False
    assert space.rank == rank


@settings(max_examples=40)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=4), min_size=8, max_size=8),
        max_size=10,
    )
)
def test_modp_reduce_is_idempotent(rows):
    space = ModpRowSpace(8, 5)
    for r in rows:
        space.add(r)
    for r in rows:
        once = space.reduce(r)
        assert np.array_equal(space.reduce(once), once)
        assert space.contains(r)


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


def _row_lists(p, ncols, max_rows):
    return st.lists(st.lists(st.integers(0, p - 1), min_size=ncols, max_size=ncols), max_size=max_rows)


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
        assert bitspace.add(r) == dense.add(bits_to_vec(r, 10))
    assert bitspace.pivots == dense.pivots
    assert bitspace.row_vectors() == dense.row_vectors()
    assert bits_to_vec(bitspace.reduce(v), 10) == dense.reduce(bits_to_vec(v, 10)).tolist()


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

    def add(space, r):
        space.add(vec_to_bits(r) if isinstance(space, Gf2RowSpace) else r)

    ncols = len(first[0])
    for space in engines:
        for r in first:
            add(space, r)
    spanning, multiples = _naive_grown(first, first, ncols)
    if export:
        for space in engines:
            space.rows()  # back-substitute before growing
    engines = [space.grown() for space in engines]
    yield [space.row_vectors() for space in engines], rref_mod_p(spanning, p)
    for space in engines:
        for r in extra:
            add(space, r)
        if export:
            space.rows()
    spanning, _ = _naive_grown(spanning + extra, multiples + extra, 2 * ncols)
    yield [space.grown().row_vectors() for space in engines], rref_mod_p(spanning, p)


@pytest.mark.parametrize("export", [False, True])
@pytest.mark.parametrize("ncols", [1, 4, 8, 12, 16, 256, 512])
def test_gf2_grown_matches_the_dense_engine_and_the_naive_span(ncols, export):
    """Row widths cross byte boundaries; the second growth reads only the rows added after the first."""
    rng = random.Random(ncols)
    count = min(ncols, 4)
    first = [rng.getrandbits(ncols) | 1 << rng.randrange(ncols) for _ in range(count)]
    first = [bits_to_vec(r, ncols) for r in first + [first[0] ^ first[-1]]]  # the last is dependent
    extra = [bits_to_vec(rng.getrandbits(2 * ncols) & rng.getrandbits(2 * ncols), 2 * ncols) for _ in range(3)]
    levels = _grow_twice([Gf2RowSpace(ncols), ModpRowSpace(ncols, 2)], first, extra, 2, export)
    for (gf2, dense), expected in levels:
        assert gf2 == dense == expected


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_modp_grown_matches_the_naive_span(data):
    p = data.draw(st.sampled_from([3, 5]))
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
    return {k: v.copy() if isinstance(v, (dict, list, np.ndarray)) else v for k, v in vars(space).items()}


def _same_state(a, b):
    return a.keys() == b.keys() and all(
        isinstance(a[k], np.ndarray) and a[k].dtype == b[k].dtype and np.array_equal(a[k], b[k])
        or not isinstance(a[k], np.ndarray) and a[k] == b[k]
        for k in a
    )


def _plain(row):
    return row if isinstance(row, int) else row.tolist()


def _answers(space, v):
    """Everything a read gives, in plain Python values; reduce and contains come before rows()."""
    return (
        space.rank, list(space.pivots), _plain(space.reduce(v)), space.contains(v),
        [_plain(r) for r in space.rows()], space.row_vectors(),
    )


def _chain(space):
    """The engine and every F_2 engine it was grown from, top first."""
    while space is not None:
        yield space
        space = getattr(space, "_below", None)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reads_never_change_an_engine(data):
    """Reads keep an engine's span and answers; an F_2 read may only store left copies.

    Every attribute is compared exactly, except the F_2 ``_rows``: its old
    entries must stay, and each new one must be the left copy it stands for,
    the row of the engine below at the same pivot, shifted by that engine's
    width when the pivot is in the upper half.
    """
    p = data.draw(st.sampled_from([2, 3, 5]))
    ncols = data.draw(st.integers(1, 6))
    levels = data.draw(st.integers(1, 2))
    first = data.draw(_row_lists(p, ncols, 5))
    v = data.draw(st.lists(st.integers(0, p - 1), min_size=ncols << levels, max_size=ncols << levels))
    space = row_space(ncols, p)
    encode = vec_to_bits if p == 2 else np.array
    for r in first:
        space.add(encode(r))
    for _ in range(levels):
        space = space.grown()
        for r in data.draw(_row_lists(p, space.ncols, 3)):
            space.add(encode(r))
    before = [_state(s) for s in _chain(space)]
    # The second round of reads runs after the first has built every left copy.
    assert _answers(space, encode(v)) == _answers(space, encode(v))
    after = [_state(s) for s in _chain(space)]
    for engine, old, new in zip(_chain(space), before, after):
        if p == 2:
            old_rows, new_rows = old.pop("_rows"), new.pop("_rows")
            assert all(new_rows[b] == r for b, r in old_rows.items())
            below = engine._below
            for b in new_rows.keys() - old_rows.keys():
                n = below.ncols
                assert new_rows[b] == (below._rows[b - n] << n if b >= n else below._rows[b])
        assert _same_state(new, old)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.none(), st.integers(min_value=0)), max_size=30))
def test_gf2_mask_holds_exactly_the_pivots(steps):
    """None grows the engines; an integer is added as a row, cut to the current width.

    The mask is compared with the pivots of the dense engine fed the same steps.
    """
    space, dense = Gf2RowSpace(2), ModpRowSpace(2, 2)
    for step in steps:
        if step is None:
            if space.ncols < 1 << 8:
                space, dense = space.grown(), dense.grown()
        else:
            row = step % (1 << space.ncols)
            space.add(row)
            dense.add(bits_to_vec(row, dense.ncols))
        assert space._mask == linalg.index_mask(np.array(dense.pivots, dtype=np.int64))
        assert space.rank == dense.rank


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gf2_left_copies_built_on_first_use_match_the_eager_engine(data):
    """Chains of 1-4 growths with adds and reads interleaved, against the eager dense engine.

    Reads between the adds build some left copies before more rows go in, so
    ``add`` meets both built and unbuilt copies.
    """
    ncols = data.draw(st.integers(1, 4))
    space, dense = Gf2RowSpace(ncols), ModpRowSpace(ncols, 2)

    def agree():
        width = space.ncols
        assert space.rank == dense.rank
        assert space.pivots == dense.pivots
        assert space.row_vectors() == dense.row_vectors()
        for v in data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=3)):
            assert bits_to_vec(space.reduce(v), width) == dense.reduce(bits_to_vec(v, width)).tolist()

    for level in range(data.draw(st.integers(1, 4)) + 1):
        if level:
            space, dense = space.grown(), dense.grown()
        steps = st.lists(st.one_of(st.none(), st.integers(0, (1 << space.ncols) - 1)), max_size=6)
        for step in data.draw(steps):
            if step is None:
                agree()
            else:
                assert space.add(step) == dense.add(bits_to_vec(step, space.ncols))
        agree()


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
    """The Hilbert table reads only ranks, so most left copies of the top degree are never built."""
    ideal = combined_ideal(run_construction(2, 16, 100))
    quotient_dimensions(ideal)
    top = ideal.component_basis(16)
    assert len(top._rows) < top.rank


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
    "HilbertTable.dimension": ("degree", HilbertTable(2, 3, (2, 3, 5)).dimension, 1, 3, 2),
    "HilbertTable.ideal_rank": ("degree", HilbertTable(2, 3, (2, 3, 5)).ideal_rank, 1, 3, 2),
    "factor_to_valuation": ("target valuation", lambda v: factor_to_valuation(_X + _X * _X, v), 1, 7, 3),
    "run_construction": ("max_elements", lambda v: manifest(run_construction(2, 4, v)), 0, None, 2),
    "enumerate_aplus": ("index", lambda v: enumerate_aplus(2, v, 4), 1, None, 3),
    "projective_class_reps": ("degree", lambda v: list(projective_class_reps(2, v, 3)), 1, 3, 1),
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
