"""The tracked mutants: each is one exact text edit of one file in ``src/adjointalg``.

Every entry names the tests that must kill it, as pytest node IDs from the
repository root.  A mutant is killed when each named test fails or errors,
or its file fails to collect.  ``run.py`` applies the edits one at a time
to a temporary copy of the tree; ``tests/test_mutants.py`` checks, in the
package tests, that each ``old`` text still occurs exactly once in its file
and that each named test still exists, so the table cannot rot unseen.
"""

from __future__ import annotations

from collections import namedtuple

Mutant = namedtuple("Mutant", "name file old new killers what")

_GROWN = "tests/test_linalg.py::test_gf2_grown_matches_the_dense_engine_and_the_naive_span"

MUTANTS = (
    Mutant(
        "M1", "linalg.py",
        "            space.add(row << 1)\n", "",
        (f"{_GROWN}[12-False]",),
        "Gf2RowSpace.grown adds no y right multiple of a new row",
    ),
    Mutant(
        "M2", "linalg.py",
        "return [self.reduce(self._row(b) ^ 1 << b) | 1 << b for b in self.pivots]",
        "return [self.reduce(self._row(b) ^ 1 << b) for b in self.pivots]",
        ("tests/test_linalg.py::test_gf2_reduced_rows_have_single_pivot_per_column[1]",),
        "Gf2RowSpace.rows() drops each row's pivot bit",
    ),
    Mutant(
        "M3", "linalg.py",
        "coef[lo:min(lo + step, r)] = _submul(slab, at_new[lo:lo + step], added, p)",
        "coef[lo:min(lo + step, r)] = slab",
        ("tests/test_linalg.py::test_modp_reduced_rows_have_single_pivot_per_column[3]",),
        "ModpRowSpace.add skips the back-substitution of the old rows",
    ),
    Mutant(
        "M4", "linalg.py",
        "            for bit in (0, 1):\n", "            for bit in (0,):\n",
        (f"{_GROWN}[12-False]",),
        "ModpRowSpace.grown adds no N y",
    ),
    Mutant(
        "SHIFT", "linalg.py",
        "row = self._below._row(b - n) << n\n", "row = self._below._row(b - n) << n - 1\n",
        (f"{_GROWN}[1-False]", "tests/test_graded.py::test_gf2_engine_agrees_with_dense_engine_on_ideal_rows[gens0]"),
        "Gf2RowSpace._row shifts the upper left copy by n - 1; tests/test_linalg.py then fails"
        " to collect, since its _SHIFTED_COPY asserts the old text",
    ),
    Mutant(
        "HALF", "linalg.py",
        "high ^= built.get(b - n) or below._row(b - n)", "low ^= built.get(b - n) or below._row(b - n)",
        (f"{_GROWN}[1-False]",),
        "the walk XORs an inherited upper row into the low half",
    ),
    Mutant(
        "HALF2", "linalg.py",
        "low ^= built.get(b) or below._row(b)", "high ^= built.get(b) or below._row(b)",
        (f"{_GROWN}[1-False]",),
        "the walk XORs an inherited lower row into the high half",
    ),
    Mutant(
        "FLAGS", "linalg.py",
        "space._flags = self._flags + self._flags", "space._flags = self._flags + bytearray(n)",
        (f"{_GROWN}[12-False]",),
        "Gf2RowSpace.grown flags only the lower copy's pivots",
    ),
    Mutant(
        "A1", "linalg.py",
        "cut = (flags.rfind(1, n, b) + 1 or n) - n", "cut = (flags.rfind(1, 0, b) + 1 or n) - n",
        ("tests/test_linalg.py::test_gf2_reduce_sets_aside_upper_bits_below_the_lowest_upper_pivot",),
        "the high half's search for the next pivot starts at 0, not n",
    ),
    Mutant(
        "A3", "linalg.py",
        "cut = flags.rfind(1, 0, b) + 1\n", "cut = flags.rfind(1, 0, b)\n",
        (f"{_GROWN}[12-False]",),
        "the low half's step over bits that are no pivot cuts one bit low",
    ),
    Mutant(
        "KEPT", "linalg.py",
        "            elif kept is None:\n                return high, low, b\n", "",
        ("tests/test_linalg.py::test_rank_and_membership[2]",),
        "the walk has no kept-is-None return, so _insert sets every row aside",
    ),
    Mutant(
        "NOFLAG", "linalg.py",
        "        self._flags[b] = 1\n", "",
        ("tests/test_linalg.py::test_rank_and_membership[2]",),
        "Gf2RowSpace._insert flags no pivot",
    ),
    Mutant(
        "ROW", "linalg.py",
        "        row = as_integer(row, \"row\", 0)\n", "",
        ("tests/test_linalg.py::test_a_row_wider_than_the_engine_is_refused[2]",),
        "Gf2RowSpace.add takes a single row without reading it as an integer of at least 0",
    ),
    Mutant(
        "CAP", "graded.py",
        "        return len(self.dims)\n", "        return len(self.dims) - 1\n",
        (
            "tests/test_graded.py::test_hilbert_table_accessors_and_csv",
            "tests/test_graded.py::test_hilbert_table_is_plain_data",
        ),
        "HilbertTable.cap reads one degree fewer than its dims hold",
    ),
    Mutant(
        "PROCESSED", "construction.py",
        "        return len(self.traces)\n", "        return len(self.i_generators)\n",
        (
            "tests/test_construction.py::test_run_at_minimum_cap",
            "tests/test_construction.py::test_run_honors_element_budget",
        ),
        "ConstructionState.processed counts I-generators, not factored elements",
    ),
)
