"""Incremental row-echelon engines over F_p.

Two implementations share one interface, and both key each basis row by
its pivot, the highest nonzero coordinate.  :class:`Gf2RowSpace` packs
each row into a single Python integer, coordinate i living at bit i, so
row reduction is bignum XOR (the kernel for the large degree components
over F_2); it keeps a forward echelon basis and one flag per coordinate,
1 at a pivot, reduces a vector from its top bit down, looking each top
bit up in the flags, and exports each row reduced below its pivot.
:class:`ModpRowSpace` always holds its span in reduced row-echelon form,
stored compactly as the pivot columns, the free columns and the
rank x free block of coefficients.  Reducing a batch of rows
against it is one matrix product on the free block; a batch is inserted in
blocks of rows, each reduced that way, eliminated by :func:`echelon` (the
one Gauss-Jordan routine, which :mod:`adjointalg.finite` shares), and
merged by back-substituting the old rows against its new pivots with one
more product.  Coefficients are stored as float32 and products run as
float64 BLAS calls, split along the inner dimension so that every partial
sum stays an exact integer below 2^53; both are exact for p up to 2^24.
Only ``add`` and ``grown()`` change an engine's span.  Reads (``reduce``,
``contains``, ``pivots``, ``rows`` and ``row_vectors``) never change its span
or any answer; an F_2 read may store a whole row it built, equal to the row
it stands for.  ``add`` and ``reduce`` refuse a row wider than the engine
with a ValueError before they change anything, and the F_2 engine reads
each row with :func:`as_integer` first, so a numpy integer converts and a
negative row or a bool is refused by name.

``encode(indices, coeffs)`` builds a row in an engine's format, which ``add``
and ``reduce`` take, from nonzero residues at distinct coordinates, and
``decode(row)`` gives its nonzero coordinates (an ascending array) and their
coefficients (a list).  ``grown()`` is each engine's only step up one degree.
Coordinate j stands for the word of index j (first letter highest bit), and
the result spans x V + y V + N x + N y in 2 * ncols coordinates, N being the
rows added since this engine was grown (all rows of a fresh engine).  The
left multiples are two copies of the basis, the second shifted by ncols:
their pivots are disjoint, so they need no elimination.  The F_2 engine
copies nothing: it keeps the engine it grew from and splits each vector it
reduces at that engine's width, so a left copy is the row below XORed into
one half, with no shift; a whole copy is built only when the engine above
or ``rows`` asks for it, so the top degree of a Hilbert table, which reads
only ranks, builds none.  Rows the engine below gains later do not reach
it: its pivot flags are fixed when it is grown, and no stored row ever
changes.  A right factor
sends index j to 2j (x) or 2j + 1 (y); :class:`ModpRowSpace` adds the right
multiples in the sparse form of ``add``, whose ``columns`` and ``leads`` go
together.  Rows stay in insertion order, and a row only ever changes by
multiples of rows with lower pivots, so the rows after the left multiples
still span the space modulo them.  Before it allocates, ``grown()`` refuses
a degree whose estimated bytes, the engine's rows and buffers and the
arrays of one entry per coordinate, pass the engine's ceiling with a
:class:`ResourceLimitError`.  The package reads every integer argument,
its range and every coefficient of a term dict with :func:`as_integer`, and
its moduli with :func:`check_modulus`, which holds its one primality test,
:func:`is_prime`; :func:`ceil_log` is its one rule for the least power of p
at or above a bound.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

#: Ceiling on the bytes of the arrays built for one odd-p degree component.
#: For rank r and f free columns below, the doubled block (2r x 2f float32) is
#: 4x the block below.  The right multiples of the new rows go in blocks of
#: about _PART_BYTES of float64 residual, and each block's merge builds the
#: next coefficient block beside the one it replaces, so the peak is near two
#: doubled blocks.  Arrays of one entry per coordinate come on top, even at
#: rank 0: the int64 pivot and free-column indices, the int64 ``where`` map of
#: the sparse ``add``, and a dense int64 row from ``encode`` with its float64
#: copies in ``add``, which peak at _MODP_COORD_BYTES per coordinate of the
#: degree being built.
MAX_BLOCK_BYTES = 1 << 27
_MODP_COORD_BYTES = 64

#: Ceiling on the bytes a grown F_2 engine may hold.  Its rows are bignums.
#: The r rows of the engine it grows from, which it keeps and which serve as
#: the x copies, take ncols / 8 bytes each, their y copies 2 * ncols / 8, and
#: the k rows new since the last growth 3 * ncols / 8 more each, for their
#: right multiples N x and N y: two rows of up to 2 * ncols bits, stored as
#: their halves when independent (0.88 of the term at degree 19).  A whole y
#: copy is built only for the engine above or ``rows()``, yet they are all
#: counted, since ``rows()`` builds them all.  On top come _GF2_COORD_BYTES
#: per coordinate of the degree being built: the pivot flags and the bool
#: array of :func:`index_mask`, one byte per coordinate each.
#: ``hilbert --p 2 --cap 19`` peaks at about 260 MB, and degree 20 is refused.
MAX_GF2_BLOCK_BYTES = 1 << 31
_GF2_COORD_BYTES = 2


#: The 13 primes up to 41: as Miller-Rabin bases they decide primality
#: exactly for every n below psi_13 (Sorenson and Webster, 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def is_prime(n):
    """Exact primality of an integer below psi_13 = 3317044064679887385961981.

    Trial division by the primes up to 41 decides every n <= 41, then a
    strong probable-prime test to each of them as base decides the rest.
    """
    if n >= _PSI_13:
        raise ValueError(f"primality is decided only below {_PSI_13}, got {n}")
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def as_integer(value, name, least=None, most=None):
    """value as a Python int (a numpy integer converts) in least..most; most is given only with least.

    A bool, a non-integer, a value below least and one outside least..most
    are each refused by name, with one message each.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if most is not None and not least <= value <= most:
        raise ValueError(f"{name} must lie in {least}..{most}, got {value}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def ceil_log(p, m):
    """The least t >= 0 with p^t >= m, so that p^t is the least power of p at or above m."""
    t, q = 0, 1
    while q < m:
        t, q = t + 1, q * p
    return t


def check_modulus(p, limit=None):
    """p (:func:`as_integer`) if it is prime, and in 2..limit when a limit, a power of two, is given.

    The range comes first, so a p past the limit is refused before the primality test.
    """
    p = as_integer(p, "p")
    if limit is not None and not 2 <= p <= limit:
        raise ValueError(
            f"modulus {p} is outside 2..{limit} (2^{limit.bit_length() - 1}),"
            " the range where products of residues stay exact"
        )
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return p


class ResourceLimitError(ValueError):
    """A computation would allocate more memory than the module's ceiling allows."""


def _check_block(ncols, block, coord_bytes, limit):
    """Refuse to grow an engine of ncols = 2^(n - 1) coordinates to degree n past the limit.

    The estimate is the block plus coord_bytes for each of the 2 * ncols
    coordinates of degree n.
    """
    need = block + coord_bytes * 2 * ncols
    if need > limit:
        raise ResourceLimitError(
            f"degree {ncols.bit_length()} component needs {need} bytes for its doubled"
            f" block and coordinate arrays, over the limit of {limit} bytes"
        )


def _check_width(width, ncols):
    """Refuse a row of the given width, its bit length over F_2 and its entries otherwise, past ncols."""
    if width > ncols:
        raise ValueError(f"row of width {width} does not fit the engine's {ncols} columns")


def index_mask(indices):
    """The F_2 row with bits at the given indices, as one integer."""
    if not len(indices):
        return 0
    bits = np.zeros(int(indices.max()) + 1, dtype=bool)
    bits[indices] = True
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def mask_indices(mask):
    """Inverse of :func:`index_mask`: the set bits of an integer, ascending, as an int64 array."""
    raw = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))


@functools.cache
def _spread_table():
    """Each half-word with bit i moved to bit 2i, as little-endian 32 bits; built on first use."""
    byte = np.array([sum((b >> i & 1) << 2 * i for i in range(8)) for b in range(256)], dtype="<u4")
    return (byte[:, None] << 16 | byte).ravel()


class Gf2RowSpace:
    """Row space over F_2 with integers as rows (bit i = coordinate i).

    ``_flags`` is the engine's one record of its pivots: one byte per
    coordinate, 1 at a pivot and 0 elsewhere.  A grown engine keeps the
    engine below as ``_below``, of width n, and splits each vector it
    reduces into a high half (coordinates n and up, shifted down by n) and a
    low half, ``_low`` being the mask of the low half (n is 0 for a fresh
    engine).  A row added here is stored in ``_halves`` as its two halves,
    keyed by its pivot in the order the rows were found.  Any other pivot b
    was inherited at :meth:`grown`: it is the row of the engine below at
    b - n or b, XORed into the half b lies in.  :meth:`_row` builds a whole
    row only when the engine above or :meth:`rows` asks for one, and keeps it
    in ``_rows``.
    """

    p = 2

    def __init__(self, ncols):
        self.ncols = as_integer(ncols, "ncols", 1)
        self._flags = bytearray(self.ncols)
        self._halves = {}
        self._rows = {}
        self._low = 0
        self.rank = 0
        self._below = None

    @property
    def pivots(self):
        return np.flatnonzero(np.frombuffer(self._flags, dtype=np.uint8)).tolist()

    def _row(self, b):
        """The whole row at pivot b, built on first use and kept."""
        row = self._rows.get(b)
        if row is None:
            n = self._low.bit_length()
            if b in self._halves:
                high, low = self._halves[b]
                row = high << n | low
            elif b >= n:
                row = self._below._row(b - n) << n
            else:
                row = self._below._row(b)
            self._rows[b] = row
        return row

    def _walk(self, high, low, top, kept=None):
        """Clear pivots off the top of the vector with the given halves, top first.

        Without ``kept``, returns the halves and the top coordinate of what
        is left once that coordinate is no pivot.  With ``kept``, the halves
        set aside so far, a top coordinate that is no pivot sets aside the
        bits of its half down to the next pivot, and the walk goes on.  Once
        both halves are 0 it returns the kept halves (0 without) and -1.
        Each top coordinate must lie below ``top``, which then falls to it:
        an XOR clears the pivot at the top and changes only lower bits, so a
        row whose top bit is not its pivot fails here.
        """
        flags, halves, below, n = self._flags, self._halves, self._below, self._low.bit_length()
        built = below._rows if below else None
        kept_high, kept_low = kept or (0, 0)
        while high or low:
            b = high.bit_length() - 1 + n if high else low.bit_length() - 1
            if b >= top:
                raise AssertionError(f"the row at pivot {top} left bit {b} set")
            if flags[b]:
                row = halves.get(b)
                if row:
                    high ^= row[0]
                    low ^= row[1]
                elif b >= n:
                    high ^= built.get(b - n) or below._row(b - n)
                else:
                    low ^= built.get(b) or below._row(b)
            elif kept is None:
                return high, low, b
            elif b >= n:
                # One past the next pivot of the high half, or its start n if it has none.
                cut = (flags.rfind(1, n, b) + 1 or n) - n
                aside = high >> cut << cut
                kept_high ^= aside
                high ^= aside
            else:
                cut = flags.rfind(1, 0, b) + 1
                aside = low >> cut << cut
                kept_low ^= aside
                low ^= aside
            top = b
        return kept_high, kept_low, -1

    def add(self, row):
        """Insert one row, or each row of a list; returns True if the span grew."""
        if isinstance(row, list):
            row = [as_integer(r, "row", 0) for r in row]
            _check_width(max((r.bit_length() for r in row), default=0), self.ncols)
            return any([self._insert(r) for r in row])
        row = as_integer(row, "row", 0)
        _check_width(row.bit_length(), self.ncols)
        return self._insert(row)

    def _insert(self, row):
        """Reduce one row; if anything is left, store its halves at its pivot and return True."""
        high, low, b = self._walk(row >> self._low.bit_length(), row & self._low, row.bit_length())
        if b < 0:
            return False
        self._halves[b] = high, low
        self._flags[b] = 1
        self.rank += 1
        return True

    def encode(self, indices, coeffs):
        """The row with bits at the given coordinates: every nonzero residue mod 2 is 1."""
        return index_mask(indices)

    def decode(self, row):
        """The set coordinates of a row, ascending, and their coefficients (all 1)."""
        indices = mask_indices(row)
        return indices, [1] * indices.size

    def grown(self):
        """The engine one degree up, x V + y V + N x + N y (see the module docstring)."""
        n, width = self.ncols, (self.ncols + 7) // 8
        block = self.rank * 3 * n // 8 + len(self._halves) * 3 * width
        _check_block(n, block, _GF2_COORD_BYTES, MAX_GF2_BLOCK_BYTES)
        space = Gf2RowSpace(2 * n)
        space._below, space._low, space.rank = self, (1 << n) - 1, 2 * self.rank
        space._flags = self._flags + self._flags
        # Spread each new row's own half-words; a y multiple is the x one shifted by 1.
        table, m = _spread_table(), self._low.bit_length()
        for high, low in self._halves.values():
            r = high << m | low
            half = np.frombuffer(r.to_bytes((r.bit_length() + 15) // 16 * 2, "little"), dtype="<u2")
            row = int.from_bytes(table.take(half), "little")
            space.add(row)
            space.add(row << 1)
        return space

    def reduce(self, v):
        """The unique representative of v modulo the span with no pivot coordinate set."""
        v = as_integer(v, "row", 0)
        _check_width(v.bit_length(), self.ncols)
        n = self._low.bit_length()
        high, low, _ = self._walk(v >> n, v & self._low, v.bit_length(), (0, 0))
        return high << n | low

    def contains(self, v):
        return self.reduce(v) == 0

    def rows(self):
        """Fully reduced rows (as integers), ascending by pivot."""
        return [self.reduce(self._row(b) ^ 1 << b) | 1 << b for b in self.pivots]

    def row_vectors(self):
        """Fully reduced rows as 0/1 coefficient lists of length ncols."""
        return [[(r >> i) & 1 for i in range(self.ncols)] for r in self.rows()]


#: Float64 holds every integer below 2^53 exactly.
_EXACT = 1 << 53

#: The largest modulus the kernel handles: residues are stored as float32,
#: which holds every integer up to 2^24 exactly.
MAX_MODULUS = 1 << 24

#: Temporary float64 and int64 arrays are cut into slices of rows of about
#: this many bytes, but of at least 32 rows.
_PART_BYTES = 1 << 20

#: Arrays up to this many entries are reduced mod p with one float remainder.
_SMALL = 512


def _part_rows(ncols):
    """Rows per slice of a temporary array with ncols columns."""
    return max(32, _PART_BYTES // (8 * ncols + 8))


def _mod(x, p):
    """x mod p in place, for a float array of integers of magnitude below 2^53; returns x.

    Float remainder costs about 24 ns per entry, int64 floor division about
    5 ns plus a few calls, so only small arrays take the float route.
    """
    if x.size <= _SMALL:
        return np.remainder(x, p, out=x)
    rows = x.reshape(1, -1) if x.ndim == 1 else x
    step = _part_rows(rows.shape[1])
    for top in range(0, rows.shape[0], step):
        part = rows[top:top + step]
        whole = part.astype(np.int64)
        whole -= whole // p * p
        part[...] = whole
    return x


def _submul(acc, a, b, p, a_cols=None, b_rows=None):
    """acc <- (acc - a[:, a_cols] @ b[b_rows]) mod p in place; None selects everything.

    acc is float64 with integer entries in [0, 2p); a and b hold residues in
    [0, p).  The product runs in float64 slices of at most _PART_BYTES, and
    acc is reduced mod p whenever the next slice could carry a sum past 2^53.
    """
    inner = a.shape[1] if a_cols is None else a_cols.size
    width = _part_rows(b.shape[1])
    term = p * (p - 1)
    step = min(width, (_EXACT - 2 * p) // term)
    bound = 2 * p
    for lo in range(0, inner, step):
        part = slice(lo, lo + step)
        # p - a is -a mod p, with entries in [1, p], so no term is negative.
        left = p - (a[:, part] if a_cols is None else a[:, a_cols[part]]).astype(np.float64)
        right = np.asarray(b[part] if b_rows is None else b[b_rows[part]], dtype=np.float64)
        if bound + left.shape[1] * term > _EXACT:
            _mod(acc, p)
            bound = p
        bound += left.shape[1] * term
        for top in range(0, acc.shape[0], width):
            acc[top:top + width] += left[top:top + width] @ right
    return _mod(acc, p)


def _residues(x, p):
    """x mod p as a new float array (float32 input stays float32), exact for integer input."""
    x = np.asarray(x)
    if x.dtype.kind != "f":
        x = x.astype(np.int64)
        return (x - x // p * p).astype(np.float64)
    return _mod(np.array(x, dtype=np.result_type(x.dtype, np.float32)), p)


def echelon(rows, p):
    """The leads, in the order found, and the reduced rows of a matrix of integers over F_p.

    A row's highest nonzero entry leads.  Gauss-Jordan steps on int64
    residues, whole rows in place: every entry stays below p^2 <= 2^48, so
    they are exact for p up to 2^24 at any width.  Row i of the result is 1
    at lead i and 0 at every other lead.
    """
    m = np.asarray(rows, dtype=np.int64) % p
    m = m[m.any(axis=1)]
    leads = []
    while len(leads) < len(m):
        r = len(leads)
        c = int(m[r].nonzero()[0][-1])
        row = m[r] * pow(int(m[r, c]), -1, p) % p
        m -= m[:, c, None] * row
        m %= p
        m[r] = row
        leads.append(c)
        m = m[m.any(axis=1)]
    return np.array(leads, dtype=np.int64), m


class ModpRowSpace:
    """Row space over F_p in reduced row-echelon form, pivots normalized to 1.

    Basis row i is 1 at ``_piv[i]``, ``_coef[i, c]`` at free column
    ``_free[c]`` and 0 elsewhere.  The coefficients are residues in [0, p)
    held as float32, and the rows are kept in the order they were found;
    ``pivots`` and ``rows`` sort them.
    """

    def __init__(self, ncols, p):
        self.ncols = ncols = as_integer(ncols, "ncols", 1)
        self.p = check_modulus(p, MAX_MODULUS)
        self._piv = np.empty(0, dtype=np.int64)
        self._free = np.arange(ncols, dtype=np.int64)
        self._coef = np.empty((0, ncols), dtype=np.float32)
        self._inherited = 0

    @property
    def rank(self):
        return self._piv.size

    @property
    def pivots(self):
        return np.sort(self._piv).tolist()

    def encode(self, indices, coeffs):
        """The row with coeffs at the given coordinates, as an int64 vector."""
        row = np.zeros(self.ncols, dtype=np.int64)
        row[indices] = list(coeffs)
        return row

    def decode(self, row):
        """The nonzero coordinates of a row, ascending, and their residues."""
        row = np.asarray(row) % self.p
        indices = np.flatnonzero(row)
        return indices, row[indices].tolist()

    def grown(self):
        """The engine one degree up, x V + y V + N x + N y (see the module docstring)."""
        n, k, piv, free, coef = self.ncols, self._inherited, self._piv, self._free, self._coef
        _check_block(n, 4 * coef.nbytes, _MODP_COORD_BYTES, MAX_BLOCK_BYTES)
        r, f = coef.shape
        space = ModpRowSpace(2 * n, self.p)
        space._piv = np.concatenate([piv, piv + n])
        space._free = np.concatenate([free, free + n])
        space._coef = np.zeros((2 * r, 2 * f), dtype=np.float32)
        space._coef[:r, :f] = space._coef[r:, f:] = coef
        space._inherited = 2 * r
        if r > k:
            for bit in (0, 1):
                space.add(coef[k:], 2 * free + bit, 2 * piv[k:] + bit)
        return space

    def _residual(self, rows, columns=None, leads=None):
        """Rows reduced against the basis, as their coefficients at the free columns."""
        p = self.p
        piv, free, coef = self._piv, self._free, self._coef
        if columns is None:
            return _submul(np.asarray(rows[:, free], dtype=np.float64), rows, coef, p, piv)
        # where[c] is j for the pivot of basis row j, and ~m for free column m.
        where = np.empty(self.ncols, dtype=np.int64)
        where[piv] = np.arange(piv.size)
        where[free] = ~np.arange(free.size)
        at = where[columns]
        on_piv = at >= 0
        out = np.zeros((rows.shape[0], free.size))
        out[:, ~at[~on_piv]] = rows[:, ~on_piv]
        lead_at = where[leads]
        hit = lead_at >= 0
        out[hit] += p - coef[lead_at[hit]]
        miss = np.flatnonzero(~hit)
        out[miss, ~lead_at[miss]] += 1
        return _submul(out, rows, coef, p, np.flatnonzero(on_piv), at[on_piv])

    def add(self, rows, columns=None, leads=None):
        """Insert one row or a 2-D batch; returns True if the span grew.

        By default each row has one entry per coordinate.  ``columns`` and
        ``leads`` go together: entry k of a row is then its coefficient at
        coordinate ``columns[k]``, row i has 1 more at coordinate ``leads[i]``,
        and every other coordinate is 0.  A batch goes in blocks of about
        ``_part_rows`` rows, each taken like a call of its own: reduced
        against the basis, eliminated, and merged by back-substituting the
        old rows against its new pivots.
        """
        p, rank = self.p, self.rank
        rows = np.asarray(rows)
        if rows.ndim == 1:
            rows = rows[None, :]
        if columns is None:
            _check_width(rows.shape[1], self.ncols)
        height = _part_rows(self._free.size)
        for top in range(0, rows.shape[0], height):
            block = _residues(rows[top:top + height], p)
            part = None if leads is None else leads[top:top + height]
            new, added = echelon(self._residual(block, columns, part), p)
            if not new.size:
                continue
            free, old = self._free, self._coef
            keep = np.ones(free.size, dtype=bool)
            keep[new] = False
            added = added[:, keep]
            r = self.rank
            coef = np.empty((r + new.size, free.size - new.size), dtype=np.float32)
            coef[r:] = added
            # Back-substitute the old rows against the new pivots, a slice at a time.
            at_new = old[:, new]
            step = _part_rows(free.size)
            for lo in range(0, r, step):
                slab = np.compress(keep, old[lo:lo + step], axis=1).astype(np.float64)
                coef[lo:min(lo + step, r)] = _submul(slab, at_new[lo:lo + step], added, p)
            self._piv = np.concatenate([self._piv, free[new]])
            self._free = free[keep]
            self._coef = coef
        return self.rank > rank

    def _dense(self, residual):
        out = np.zeros((residual.shape[0], self.ncols), dtype=np.int64)
        out[:, self._free] = residual
        return out

    def reduce(self, v):
        """The unique representative of v modulo the span that is 0 at every pivot."""
        return self.reduce_matrix(np.asarray(v)[None, :])[0]

    def contains(self, v):
        return not np.any(self.reduce(v))

    def reduce_matrix(self, m):
        """Reduce every row of a matrix against the span at once."""
        _check_width(np.shape(m)[-1], self.ncols)
        return self._dense(self._residual(_residues(m, self.p)))

    def rows(self):
        """Reduced rows as int64 numpy vectors, ascending by pivot."""
        order = np.argsort(self._piv)
        out = self._dense(self._coef[order])
        out[np.arange(order.size), self._piv[order]] = 1
        return list(out)

    def row_vectors(self):
        return [[int(c) for c in r] for r in self.rows()]


def row_space(ncols, p):
    """The echelon engine for F_p: the one place that picks an engine by p."""
    if p == 2:
        return Gf2RowSpace(ncols)
    return ModpRowSpace(ncols, p)
