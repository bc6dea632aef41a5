"""Truncated arithmetic in the free associative algebra F_p<x, y>.

Everything here works in the quotient of F_p<x, y> by the two-sided ideal
spanned by words longer than a fixed degree cap, so every element has
finitely many terms and all arithmetic is exact.  Words are plain strings
over the alphabet "xy".  Words of one degree are ordered by one place-value
vector, 2^(d - 1), ..., 2, 1 (x = 0, y = 1): :func:`_place_values`, and a
word's position in that order is its rank.

An element stores its terms per degree, in one or both of two views of the
same value.  Its slices map degree d to a dict from words of length d to
nonzero coefficients in [1, p).  Its ranks map d to a pair of arrays, the
ranks of those words and their coefficients, in no particular order.  The
constant is at degree 0, and no slice or rank pair is empty.  A product,
and so every power, and a row decoded by :mod:`adjointalg.graded` hold
only ranks; every other element holds only slices.  A missing view is
built from the other when first read and kept, and elements are
immutable, so the two always agree.  Products, their term bound and the
row engines read ranks; sums, the circle inverse, factorization, text,
``terms``, ``==`` and ``hash`` read slices; degrees, the constant term and
homogeneous parts read the view the element was made with.  There is one
product kernel per view: :func:`_mul_ranks` for ranks, :func:`_accumulate`
for word dicts (the circle inverse and factorization).  The ranks and
coefficients of one algebra share one dtype, :func:`_rank_dtype`: int64
while every rank (cap <= 63) and every coefficient product (p < 2^31)
fits, Python ints in object arrays otherwise.

On top of the ring operations the module provides the adjoint (circle)
operations

    r o s = r + s + r*s,

which turn the augmentation part A+ (elements with zero constant term)
into a group: truncation makes every such element nilpotent, so 1 + r is
invertible and r |-> 1 + r identifies (A+, o) with the group of units
with constant term 1.
"""

from __future__ import annotations

from itertools import accumulate
import math

import numpy as np

from . import linalg
from .linalg import as_integer, check_modulus

ALPHABET = "xy"
_LETTERS = frozenset(ALPHABET)

#: Valuation of the zero element; compares greater than every integer.
INFINITY = math.inf


class CapMismatchError(ValueError):
    """Raised when operands carry different primes or degree caps."""


class ConstantTermError(ValueError):
    """Raised when a circle operation is applied outside the augmentation part A+."""


def check_context(p, cap):
    """p and cap as Python ints (``linalg.check_modulus``, ``linalg.as_integer``); a cap below 1 is refused."""
    return check_modulus(p), as_integer(cap, "degree cap", 1)


#: Bytes per term of a term dict: tracemalloc read 89-95 on the torsion
#: generators at p = 2, 3 and 7 (a word key, a coefficient and a dict slot).
#: A product's rank arrays keep 16 bytes a term, but its words may still be built.
TERM_BYTES = 96


def _check_product_terms(a, windows, what):
    """Refuse products of a's words whose terms may pass the memory ceiling, before any is built.

    Every word of a product of the words up to the cap, and so of every
    power of the element and of its circle inverse, is a concatenation of
    its nonempty words.  With m_d of them of degree d, at most c(n) =
    sum_d m_d c(n - d), c(0) = 1, such words have degree n, and never more
    than the a^n words over the a letters they use.  ``windows`` holds one
    (lo, hi) range of degrees for each product to be formed.  If the sum of
    c(n) over one of them, at :data:`TERM_BYTES` a term, passes
    ``linalg.MAX_GF2_BLOCK_BYTES``, a
    :class:`~adjointalg.linalg.ResourceLimitError` names what was refused.
    Up to degree 23 even every word fits, so nothing is counted.  The sizes
    and letters come from the rank view, which an element made with slices
    builds from its words and keeps, so no word is built.
    """
    limit = linalg.MAX_GF2_BLOCK_BYTES
    top = max(hi for _, hi in windows)
    if (2 << top) * TERM_BYTES <= limit:
        return
    ranks = a._ranks
    sizes = {d: r.size for d, (r, _) in ranks.items()}
    # A word of degree d has a y unless its rank is 0, and an x unless it is 2^d - 1.
    words = [(d, r) for d, (r, _) in ranks.items() if d]
    letters = (
        any(bool((r != 0).any()) for _, r in words)
        + any(bool((r != (1 << d) - 1).any()) for d, r in words)
    )
    # every is letters^n clamped at the limit, and so is each count, so they stay small.
    counts, every = [1], 1
    for n in range(1, top + 1):
        every = min(every * letters, limit)
        counts.append(min(sum(m * counts[n - d] for d, m in sizes.items() if 0 < d <= n), every))
    for lo, hi in windows:
        for n, total in enumerate(accumulate(counts[lo:hi + 1]), lo):
            if total * TERM_BYTES > limit:
                raise linalg.ResourceLimitError(
                    f"{what} may hold {total} terms of degree {lo} to {n}, about"
                    f" {total * TERM_BYTES} bytes, over the limit of {limit} bytes"
                )


def _place_values(degree):
    """The word order: letter k of a degree-d word (x = 0, y = 1) counts 2^(d - 1 - k)."""
    if degree > 63:
        raise ValueError(f"words of degree {degree} have ranks beyond the int64 range")
    return 1 << np.arange(degree - 1, -1, -1, dtype=np.int64)


def words_of_degree(d):
    """The 2^d words of degree d in lexicographic order (x < y), as a list: ranks 0 to 2^d - 1."""
    d = as_integer(d, "degree", 0)
    return index_words(np.arange(1 << d), d)


def _rank_dtype(p, cap):
    """The dtype of an algebra's ranks and coefficients: int64 while they fit, object otherwise.

    A rank of degree at most 63 fits in int64, and so does a product of two
    coefficients below 2^31, and a sum of two residues.  Past either, object
    arrays hold Python ints, which never overflow.
    """
    return np.int64 if cap <= 63 and p < 2**31 else object


#: Letters to binary digits and back, for ranks held as Python ints.
_DIGITS = str.maketrans("xy", "01")
_LETTERS_OF_DIGITS = str.maketrans("01", "xy")


def word_indices(words, degree, dtype=np.int64):
    """Ranks of words of one degree, their positions in :func:`words_of_degree`.

    As int64, a rank is the word's 0/1 letters times :func:`_place_values`,
    as an einsum, which casts the letters a buffer at a time; past 63
    letters it is refused.  With ``dtype=object`` the ranks are Python ints
    read from the words as binary numbers, at any degree.
    """
    if dtype is object:
        return np.array([int(w.translate(_DIGITS), 2) if degree else 0 for w in words], dtype=object)
    if degree == 0:
        return np.zeros(len(words), dtype=np.int64)
    letters = np.frombuffer("".join(words).encode("ascii"), dtype=np.uint8) - ord("x")
    return np.einsum("wk,k->w", letters.reshape(-1, degree), _place_values(degree))


def index_words(indices, degree):
    """Inverse of :func:`word_indices`: the words of the given ranks, as a list of strings.

    An object array of Python ints is read at any degree; anything else as int64.
    """
    if degree == 0:
        return [""] * len(indices)
    if isinstance(indices, np.ndarray) and indices.dtype == object:
        return [format(r, f"0{degree}b").translate(_LETTERS_OF_DIGITS) for r in indices.tolist()]
    # Each AND is cast to bool as it is computed, so a letter takes one byte, not eight.
    ranks = np.asarray(indices, dtype=np.int64)[:, None]
    bits = np.empty((ranks.size, degree), dtype=bool)
    np.bitwise_and(ranks, _place_values(degree), out=bits, casting="unsafe")
    # ord("y") == ord("x") + 1, so a y bit adds one to the letter x.
    text = (bits.view(np.uint8) + ord("x")).tobytes().decode("ascii")
    return [text[k:k + degree] for k in range(0, len(text), degree)]


def _accumulate(acc, left, right, p):
    """Add every product of a term of word dict left and one of right into acc, unreduced.

    A left coefficient is reduced mod p as it is read, and skipped if zero.
    """
    right = right.items()
    for wa, ca in left.items():
        ca %= p
        if ca:
            for wb, cb in right:
                w = wa + wb
                acc[w] = acc.get(w, 0) + ca * cb


def _sum_ranks(ranks, coeffs, p):
    """Terms with equal ranks summed mod p, zeros dropped: one stable sort and one reduceat."""
    order = np.argsort(ranks, kind="stable")
    ranks, coeffs = ranks[order], coeffs[order]
    starts = np.flatnonzero(np.concatenate(([True], ranks[1:] != ranks[:-1])))
    coeffs = np.add.reduceat(coeffs, starts) % p
    keep = np.flatnonzero(coeffs)
    return ranks[starts[keep]], coeffs[keep]


def _mul_ranks(left, right, p, cap):
    """Multiply two rank views, discarding products beyond the cap.

    A word of rank ra and degree d followed by one of rank rb and degree e
    is the word of rank ra << e | rb, so the products of two rank pairs are
    an outer shift-or of their ranks and an outer product of their
    coefficients mod p.  Those words are distinct, each splitting one way
    into its first d letters and the rest, and p prime keeps every product
    nonzero: an output degree that one pair reaches is that pair's arrays,
    with nothing to cancel or sort.  Where several pairs reach it, each
    pair's products are summed into the degree's terms as they are made,
    so what is held at once is those terms and one pair's products, each
    at most the words of that degree, not every pair's products together.
    """
    reach = {}
    for d, a in left.items():
        for e, b in right.items():
            if d + e <= cap:
                reach.setdefault(d + e, []).append((a, e, b))
    out = {}
    for n, pairs in reach.items():
        ranks = None
        for (ra, ca), e, (rb, cb) in pairs:
            products = np.bitwise_or.outer(ra << e, rb).ravel()
            terms = np.multiply.outer(ca, cb).ravel()
            terms %= p
            if ranks is None:
                ranks, coeffs = products, terms
            else:
                ranks, coeffs = _sum_ranks(np.concatenate((ranks, products)), np.concatenate((coeffs, terms)), p)
        if ranks.size:
            out[n] = ranks, coeffs
    return out


def _holds_ranks(view):
    """True if a view's parts are (ranks, coefficients) pairs; the empty view counts as slices."""
    return type(next(iter(view.values()), None)) is tuple


class TruncatedPoly:
    """Immutable element of F_p<x, y> truncated at a fixed degree cap.

    Words longer than the cap are rejected at construction rather than
    silently dropped: truncation is supposed to happen inside arithmetic,
    and anything else reaching the constructor is a bug worth surfacing.
    Each coefficient is read with ``linalg.as_integer``, so a numpy integer
    is stored as a Python int, and a float or a bool is refused.
    Operations between elements with different p or cap raise
    :class:`CapMismatchError`.  Elements share slices and rank arrays, so
    none is ever changed.

    ``_born`` is the view the element was made with, its slices or its
    ranks (see the module docstring).  The other view's slot stays unset
    until first read, when :meth:`__getattr__` builds and keeps it; a read
    of a view the element holds is a plain slot read.
    """

    __slots__ = ("p", "cap", "_born", "_slices", "_ranks", "_hash")

    def __init__(self, p, cap, terms=()):
        p, cap = check_context(p, cap)
        slices = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for word, coeff in items:
            if not _LETTERS.issuperset(word):
                raise ValueError(f"bad word {word!r}: letters must come from {ALPHABET!r}")
            degree = len(word)
            if degree > cap:
                raise ValueError(f"word {word!r} has degree {degree}, beyond the cap {cap}")
            part = slices.setdefault(degree, {})
            c = (part.get(word, 0) + as_integer(coeff, "coefficient")) % p
            if c:
                part[word] = c
            else:
                part.pop(word, None)
        self.p = p
        self.cap = cap
        self._born = self._slices = {d: part for d, part in slices.items() if part}
        self._hash = None

    @classmethod
    def _from_view(cls, p, cap, view):
        """The element made with a canonical view, slices or ranks (no empty part), kept as is.

        Rank arrays have the algebra's :func:`_rank_dtype`.
        """
        self = object.__new__(cls)
        self.p = p
        self.cap = cap
        self._born = view
        if _holds_ranks(view):
            self._ranks = view
        else:
            self._slices = view
        self._hash = None
        return self

    def __getattr__(self, name):
        # Reached only for an unset slot: a missing view is built from the born one and kept.
        if name == "_slices":
            view = {d: dict(zip(index_words(r, d), c.tolist())) for d, (r, c) in self._born.items()}
        elif name == "_ranks":
            dtype = _rank_dtype(self.p, self.cap)
            view = {
                d: (word_indices(part, d, dtype), np.array(list(part.values()), dtype=dtype))
                for d, part in self._born.items()
            }
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        setattr(self, name, view)
        return view

    @property
    def terms(self):
        """The terms of every degree as one new dict (word -> coefficient)."""
        return {w: c for part in self._slices.values() for w, c in part.items()}

    @property
    def _terms(self):
        """``range`` of the term count, read from ``_born``, for ``perfbench/tracer.py``'s ``len()``."""
        born = self._born
        if _holds_ranks(born):
            return range(sum(r.size for r, _ in born.values()))
        return range(sum(map(len, born.values())))

    @property
    def is_zero(self):
        return not self._born

    @property
    def constant_term(self):
        part = self._born.get(0)
        if part is None:
            return 0
        return int(part[1][0]) if type(part) is tuple else part[""]

    @property
    def is_homogeneous(self):
        """True for 0 and for elements whose terms all share one degree."""
        return len(self._born) <= 1

    def max_degree(self):
        """Largest degree with a nonzero term, or None for the zero element."""
        return max(self._born, default=None)

    def _check_compatible(self, other):
        if self.p != other.p or self.cap != other.cap:
            raise CapMismatchError(
                f"mixed coefficient contexts: F_{self.p} cap {self.cap}"
                f" vs F_{other.p} cap {other.cap}"
            )

    def __add__(self, other):
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        self._check_compatible(other)
        p = self.p
        out = dict(self._slices)
        for d, part in other._slices.items():
            merged = dict(out.get(d, ()))
            for w, c in part.items():
                s = (merged.get(w, 0) + c) % p
                if s:
                    merged[w] = s
                else:
                    del merged[w]
            if merged:
                out[d] = merged
            else:
                del out[d]
        return TruncatedPoly._from_view(p, self.cap, out)

    def __neg__(self):
        p = self.p
        return TruncatedPoly._from_view(
            p, self.cap, {d: {w: p - c for w, c in part.items()} for d, part in self._slices.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        p = self.p
        if isinstance(other, int):
            k = as_integer(other, "scalar") % p
            return TruncatedPoly._from_view(p, self.cap, {
                d: {w: c * k % p for w, c in part.items()} for d, part in self._slices.items()
            } if k else {})
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        self._check_compatible(other)
        return TruncatedPoly._from_view(p, self.cap, _mul_ranks(self._ranks, other._ranks, p, self.cap))

    __rmul__ = __mul__

    def __pow__(self, k):
        # A numpy integer is read as a Python int, whose bits the loop walks.
        k = as_integer(k, "exponent", 0)
        if k == 0:
            return one(self.p, self.cap)
        if k > 1 and self._born:
            # The loop holds a^j for j = 2^i up to the top bit of k and for j = k mod 2^(i + 1)
            # at each set bit i, and a^j has degrees j * low to j * high.
            low, high, bits = min(self._born), max(self._born), range(k.bit_length())
            formed = {1 << i for i in bits} | {k & ((2 << i) - 1) for i in bits if k >> i & 1}
            windows = [(j * low, min(self.cap, j * high)) for j in sorted(formed)]
            _check_product_terms(self, windows, f"a power with exponent {k}")
        # Square only up to the top bit of k: one more square is never used.
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def __eq__(self, other):
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        return (
            self.p == other.p and self.cap == other.cap and self._slices == other._slices
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.p, self.cap, frozenset(self.terms.items())))
        return self._hash

    def __str__(self):
        from .text import format_poly

        return format_poly(self)

    def __repr__(self):
        return f"<TruncatedPoly p={self.p} cap={self.cap}: {self}>"


def zero(p, cap):
    return TruncatedPoly(p, cap)


def one(p, cap):
    return TruncatedPoly(p, cap, {"": 1})


def variable(name, p, cap):
    """The generator x or y as an element of the cap-truncated algebra."""
    if name not in _LETTERS:
        raise ValueError(f"unknown generator {name!r}; expected one of {ALPHABET!r}")
    return TruncatedPoly(p, cap, {name: 1})


def monomial(word, p, cap, coeff=1):
    return TruncatedPoly(p, cap, {word: coeff})


def valuation(a):
    """Least degree carrying a nonzero term; INFINITY for the zero element."""
    return min(a._born, default=INFINITY)


def homogeneous_part(a, d):
    """The degree-d slice of a (0 <= d <= cap), an element of the same algebra, in the view a was made with."""
    d = as_integer(d, "degree", 0, a.cap)
    part = a._born.get(d)
    return TruncatedPoly._from_view(a.p, a.cap, {} if part is None else {d: part})


def homogeneous_parts(a):
    """Nonzero homogeneous slices of a as (degree, part) pairs, ascending in degree.

    A homogeneous a is its own only slice; elements are immutable, so it is
    returned as it is.  The parts keep the view a was made with.
    """
    born = a._born
    if len(born) == 1:
        return [(next(iter(born)), a)]
    return [(d, TruncatedPoly._from_view(a.p, a.cap, {d: born[d]})) for d in sorted(born)]


def _require_augmentation(*elements):
    for r in elements:
        if r.constant_term:
            raise ConstantTermError(
                "circle operations are defined on elements with zero constant term"
            )


def circle_mul(r, s):
    """Adjoint product r o s = r + s + r*s on the augmentation part A+."""
    r._check_compatible(s)
    _require_augmentation(r, s)
    return r + s + r * s


def circle_inv(r):
    """Inverse s of r in (A+, o), solved one degree at a time from (1 + r)(1 + s) = 1.

    s_n = -r_n - sum_{1 <= k < n} r_k s_(n - k) for n = 1 .. cap, r_k and s_k
    being the degree-k slices.  Each product is homogeneous times
    homogeneous, so together they cost about one product r*s.  Their sum is
    one plain-int dict per degree, reduced mod p once, and the solved
    slices are the inverse.  The terms are bounded first, as for
    :meth:`TruncatedPoly.__pow__`.
    """
    _require_augmentation(r)
    p, cap = r.p, r.cap
    _check_product_terms(r, [(0, cap)], "the circle inverse")
    slices = r._slices
    solved = {}
    for n in range(1, cap + 1):
        acc = dict(slices.get(n, ()))
        for k, left in slices.items():
            right = solved.get(n - k)
            if right:
                _accumulate(acc, left, right, p)
        part = {w: -c % p for w, c in acc.items() if c % p}
        if part:
            solved[n] = part
    return TruncatedPoly._from_view(p, cap, solved)


def circle_pow(r, k):
    """k-th circle power of r, i.e. (1 + r)^k - 1; negative k uses the circle inverse.

    (1 + r)^k has constant term 1, so the power less 1 is its parts of
    positive degree, taken in the view the power was made with.
    """
    _require_augmentation(r)
    k = as_integer(k, "exponent")
    if k < 0:
        return circle_pow(circle_inv(r), -k)
    power = (one(r.p, r.cap) + r) ** k
    return TruncatedPoly._from_view(r.p, r.cap, {d: part for d, part in power._born.items() if d})
