"""Truncated arithmetic in the free associative algebra F_p<x, y>.

Everything here works in the quotient of F_p<x, y> by the two-sided ideal
spanned by words longer than a fixed degree cap, so every element has
finitely many terms and all arithmetic is exact.  Words are plain strings
over the alphabet "xy"; an element is stored as a mapping from words to
nonzero coefficients in [1, p).  Words of one degree are ordered by one
place-value vector, 2^(d - 1), ..., 2, 1 (x = 0, y = 1): :func:`_place_values`.

On top of the ring operations the module provides the adjoint (circle)
operations

    r o s = r + s + r*s,

which turn the augmentation part A+ (elements with zero constant term)
into a group: truncation makes every such element nilpotent, so 1 + r is
invertible and r |-> 1 + r identifies (A+, o) with the group of units
with constant term 1.
"""

from __future__ import annotations

import math
import operator
from collections import Counter

import numpy as np

from . import linalg

ALPHABET = "xy"
_LETTERS = frozenset(ALPHABET)

#: Valuation of the zero element; compares greater than every integer.
INFINITY = math.inf


class CapMismatchError(ValueError):
    """Raised when operands carry different primes or degree caps."""


class ConstantTermError(ValueError):
    """Raised when a circle operation is applied outside the augmentation part A+."""


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


def as_modulus(p):
    """p as a Python int, which the power and primality routines need: a numpy integer converts.

    Anything that is not an integer is refused with a ValueError.
    """
    try:
        return operator.index(p)
    except TypeError:
        raise ValueError(f"p must be an integer, got {p!r}") from None


def check_context(p, cap):
    """p as a Python int (``as_modulus``); a p that is not prime or a cap below 1 is refused."""
    p = as_modulus(p)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if cap < 1:
        raise ValueError(f"degree cap must be at least 1, got {cap}")
    return p


#: Bytes per term of a term dict: tracemalloc read 89-95 on the torsion
#: generators at p = 2, 3 and 7 (a word key, a coefficient and a dict slot).
TERM_BYTES = 96


def _check_product_terms(terms, cap, what):
    """Refuse products of these words whose terms may pass the memory ceiling, before any is built.

    Every word of a product of terms' words up to the cap, and so of every
    power of the element and of its circle inverse, is a concatenation of
    its nonempty words.  With m_d of them of degree d, at most c(n) =
    sum_d m_d c(n - d), c(0) = 1, such words have degree n, and never more
    than the a^n words over the a letters they use.  If the sum of c(n) up
    to the cap, at :data:`TERM_BYTES` a term, passes
    ``linalg.MAX_GF2_BLOCK_BYTES``, a
    :class:`~adjointalg.linalg.ResourceLimitError` names what was refused.
    Up to cap 23 even every word fits, so nothing is counted.
    """
    limit = linalg.MAX_GF2_BLOCK_BYTES
    if (2 << cap) * TERM_BYTES <= limit:
        return
    sizes = Counter(map(len, terms))
    letters = sum(any(a in w for w in terms) for a in ALPHABET)
    # every is letters^n clamped at the limit, which no count kept reaches, so it stays small.
    counts, total, every = [1], 1, 1
    for n in range(1, cap + 1):
        every = min(every * letters, limit)
        counts.append(min(sum(m * counts[n - d] for d, m in sizes.items() if 0 < d <= n), every))
        total += counts[n]
        if total * TERM_BYTES > limit:
            raise linalg.ResourceLimitError(
                f"{what} may hold {total} terms up to degree {n}, about"
                f" {total * TERM_BYTES} bytes, over the limit of {limit} bytes"
            )


def _place_values(degree):
    """The word order: letter k of a degree-d word (x = 0, y = 1) counts 2^(d - 1 - k)."""
    if degree > 63:
        raise ValueError(f"words of degree {degree} have ranks beyond the int64 range")
    return 1 << np.arange(degree - 1, -1, -1, dtype=np.int64)


def words_of_degree(d):
    """The 2^d words of degree d in lexicographic order (x < y), as a list: ranks 0 to 2^d - 1."""
    return index_words(np.arange(1 << d), d)


def word_indices(words, degree):
    """Ranks of words of one degree, their positions in :func:`words_of_degree`, as int64.

    A rank is the word's 0/1 letters times :func:`_place_values`, as an einsum,
    which casts the letters a buffer at a time; past 63 letters it is refused.
    """
    if degree == 0:
        return np.zeros(len(words), dtype=np.int64)
    letters = np.frombuffer("".join(words).encode("ascii"), dtype=np.uint8) - ord("x")
    return np.einsum("wk,k->w", letters.reshape(-1, degree), _place_values(degree))


def index_words(indices, degree):
    """Inverse of :func:`word_indices`: the words of the given ranks, as a list of strings."""
    if degree == 0:
        return [""] * len(indices)
    # Each AND is cast to bool as it is computed, so a letter takes one byte, not eight.
    ranks = np.asarray(indices, dtype=np.int64)[:, None]
    bits = np.empty((ranks.size, degree), dtype=bool)
    np.bitwise_and(ranks, _place_values(degree), out=bits, casting="unsafe")
    # ord("y") == ord("x") + 1, so a y bit adds one to the letter x.
    text = (bits.view(np.uint8) + ord("x")).tobytes().decode("ascii")
    return [text[k:k + degree] for k in range(0, len(text), degree)]


def _mul_terms(at, bt, p, cap):
    """Multiply two term dicts, discarding products beyond the cap.

    p prime keeps every product ca * cb of nonzero residues nonzero mod p,
    so wherever the words wa + wb are known to be distinct the result is
    one dict comprehension with nothing to cancel.  That holds whenever the
    right operand is homogeneous, of degree d, whatever the left one: each
    product word splits one way, into its last d letters and the rest.
    """
    if not at or not bt:
        return {}
    # A fixed word on the left makes the products distinct too.  The
    # comprehensions read names the general loop does not use: a name read
    # inside a comprehension becomes a cell variable, slower in that loop.
    if len(at) == 1:
        ((word, coeff),) = at.items()
        top = cap - len(word)
        return {word + w: coeff * c % p for w, c in bt.items() if len(w) <= top}
    by_degree = {}
    for w, c in bt.items():
        by_degree.setdefault(len(w), []).append((w, c))
    if len(by_degree) == 1:
        ((db, right),) = by_degree.items()
        top = cap - db
        return {wa + wb: ca * cb % p for wa, ca in at.items() if len(wa) <= top for wb, cb in right}
    out = {}
    for wa, ca in at.items():
        room = cap - len(wa)
        for db, terms in by_degree.items():
            if db > room:
                continue
            for wb, cb in terms:
                w = wa + wb
                out[w] = out.get(w, 0) + ca * cb
    return {w: c % p for w, c in out.items() if c % p}


class TruncatedPoly:
    """Immutable element of F_p<x, y> truncated at a fixed degree cap.

    Words longer than the cap are rejected at construction rather than
    silently dropped: truncation is supposed to happen inside arithmetic,
    and anything else reaching the constructor is a bug worth surfacing.
    Operations between elements with different p or cap raise
    :class:`CapMismatchError`.
    """

    __slots__ = ("p", "cap", "_terms", "_hash")

    def __init__(self, p, cap, terms=()):
        p = check_context(p, cap)
        clean = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for word, coeff in items:
            if not _LETTERS.issuperset(word):
                raise ValueError(f"bad word {word!r}: letters must come from {ALPHABET!r}")
            if len(word) > cap:
                raise ValueError(f"word {word!r} has degree {len(word)}, beyond the cap {cap}")
            c = (clean.get(word, 0) + coeff) % p
            if c:
                clean[word] = c
            else:
                clean.pop(word, None)
        self.p = p
        self.cap = cap
        self._terms = clean
        self._hash = None

    @classmethod
    def _raw(cls, p, cap, terms):
        """Fast constructor for term dicts that are already normalized."""
        self = object.__new__(cls)
        self.p = p
        self.cap = cap
        self._terms = terms
        self._hash = None
        return self

    @property
    def terms(self):
        """Read-only view of the term dict (word -> coefficient)."""
        return dict(self._terms)

    @property
    def is_zero(self):
        return not self._terms

    @property
    def constant_term(self):
        return self._terms.get("", 0)

    @property
    def is_homogeneous(self):
        """True for 0 and for elements whose terms all share one degree."""
        return len(set(map(len, self._terms))) <= 1

    def max_degree(self):
        """Largest degree with a nonzero term, or None for the zero element."""
        if not self._terms:
            return None
        return max(map(len, self._terms))

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
        out = dict(self._terms)
        for w, c in other._terms.items():
            s = (out.get(w, 0) + c) % self.p
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return TruncatedPoly._raw(self.p, self.cap, out)

    def __neg__(self):
        return TruncatedPoly._raw(
            self.p, self.cap, {w: self.p - c for w, c in self._terms.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.p
            if c == 0:
                return TruncatedPoly._raw(self.p, self.cap, {})
            return TruncatedPoly._raw(
                self.p, self.cap, {w: (a * c) % self.p for w, a in self._terms.items()}
            )
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        self._check_compatible(other)
        return TruncatedPoly._raw(
            self.p, self.cap, _mul_terms(self._terms, other._terms, self.p, self.cap)
        )

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {k}")
        if k == 0:
            return one(self.p, self.cap)
        if k > 1:
            # A product of k terms has degree at most k times the largest.
            top = min(self.cap, k * (self.max_degree() or 0))
            _check_product_terms(self._terms, top, f"a power with exponent {k}")
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
            self.p == other.p and self.cap == other.cap and self._terms == other._terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.p, self.cap, frozenset(self._terms.items())))
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
    if not a._terms:
        return INFINITY
    return min(map(len, a._terms))


def homogeneous_part(a, d):
    """The degree-d slice of a, as an element of the same algebra."""
    return TruncatedPoly._raw(
        a.p, a.cap, {w: c for w, c in a._terms.items() if len(w) == d}
    )


def homogeneous_parts(a):
    """Nonzero homogeneous slices of a as (degree, part) pairs, ascending in degree.

    A homogeneous a is its own only slice; elements are immutable, so it is
    returned as it is.
    """
    degrees = set(map(len, a._terms))
    if len(degrees) == 1:
        return [(degrees.pop(), a)]
    buckets = {}
    for w, c in a._terms.items():
        buckets.setdefault(len(w), {})[w] = c
    return [
        (d, TruncatedPoly._raw(a.p, a.cap, terms))
        for d, terms in sorted(buckets.items())
    ]


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
    one plain-int dict per degree, reduced mod p once.  The terms are
    bounded first, as for :meth:`TruncatedPoly.__pow__`.
    """
    _require_augmentation(r)
    p, cap = r.p, r.cap
    _check_product_terms(r._terms, cap, "the circle inverse")
    slices = {}
    for w, c in r._terms.items():
        slices.setdefault(len(w), []).append((w, c))
    inverse, solved = {}, {}
    for n in range(1, cap + 1):
        acc = dict(slices.get(n, ()))
        for k, left in slices.items():
            right = solved.get(n - k)
            if right:
                for wa, ca in left:
                    for wb, cb in right:
                        w = wa + wb
                        acc[w] = acc.get(w, 0) + ca * cb
        part = [(w, -c % p) for w, c in acc.items() if c % p]
        if part:
            solved[n] = part
            inverse.update(part)
    return TruncatedPoly._raw(p, cap, inverse)


def circle_pow(r, k):
    """k-th circle power of r, i.e. (1 + r)^k - 1; negative k uses the circle inverse."""
    _require_augmentation(r)
    if k < 0:
        return circle_pow(circle_inv(r), -k)
    return (one(r.p, r.cap) + r) ** k - one(r.p, r.cap)
