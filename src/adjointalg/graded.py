"""Degreewise linear algebra for homogeneous two-sided ideals of the truncated algebra.

A graded ideal is specified by finitely many homogeneous generators, and
its degree-n component is spanned by u * g * w over all generators g and
all word pairs (u, w) with deg u + deg g + deg w = n.  Coordinates at
degree n are indexed by the 2^n words via
:func:`adjointalg.freealg.word_indices` (first letter highest bit), and
each component is a row engine, grown on first use and listed by degree.

For every p a component is grown from the one below.  Let
L_n = x I_{n-1} + y I_{n-1} and let N_n be the rows that entered I_n beyond
L_n, so I_n = L_n + span(N_n).  As I_{n-1} x lies in I_n, L_n x lies in
x I_n + y I_n, so I_{n+1} = x I_n + y I_n + N_n x + N_n y + span(generators
of degree n + 1): only new rows need right multiples, as in degree-by-degree
noncommutative Groebner bases, where only new leading words make new
overlaps (Mora, 1986; La Scala and Levandovskyy, JSC 2009).  The engines'
``grown()`` builds the first four terms.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .freealg import TruncatedPoly, _rank_dtype, check_context, homogeneous_parts
from .linalg import as_integer, row_space
from .text import format_poly, parse_poly

log = logging.getLogger(__name__)

_NO_TERMS = (np.empty(0, dtype=np.int64), ())


def encode_part(part, degree, space):
    """The row of a homogeneous slice of the given degree, in the engine's format.

    It reads the slice's ranks, which are the engine's coordinates.  Past
    cap 63 they are Python ints, but an engine's degree is far below 63, so
    they fit in the engine's int64 indices.
    """
    ranks, coeffs = part._ranks.get(degree, _NO_TERMS)
    return space.encode(ranks.astype(np.int64, copy=False), coeffs)


def decode_vector(row, degree, space, cap):
    """Inverse of :func:`encode_part`: the polynomial of a row of the engine, holding only ranks."""
    indices, coeffs = space.decode(row)
    dtype = _rank_dtype(space.p, cap)
    part = indices.astype(dtype, copy=False), np.array(coeffs, dtype=dtype)
    return TruncatedPoly._from_view(space.p, cap, {degree: part} if len(indices) else {})


class GradedIdeal:
    """Two-sided ideal generated by homogeneous elements, with cached degree bases."""

    def __init__(self, p, cap, generators):
        p, cap = check_context(p, cap)
        self.p = p
        self.cap = cap
        gens = []
        for g in generators:
            if g.p != p or g.cap != cap:
                raise ValueError(
                    f"generator context F_{g.p} cap {g.cap} does not match"
                    f" the ideal context F_{p} cap {cap}"
                )
            if g.is_zero:
                raise ValueError("ideal generators must be nonzero")
            if not g.is_homogeneous:
                raise ValueError(f"ideal generators must be homogeneous, got {g}")
            gens.append((g.max_degree(), g))
        self.generators = tuple(gens)
        self._spaces = []

    def _space(self, n):
        """The row engine of degree n, grown on first use from the degree below."""
        spaces = self._spaces
        while len(spaces) <= n:
            m = len(spaces)
            space = spaces[-1].grown() if spaces else row_space(1, self.p)
            gens = [encode_part(g, m, space) for d, g in self.generators if d == m]
            if gens:
                space.add(gens)
            log.debug("degree %d component: rank %d of %d", m, space.rank, 1 << m)
            spaces.append(space)
        return spaces[n]

    def component_basis(self, n):
        """The row engine of the degree-n component (1 <= n <= cap).

        Its ``rank``, ``rows()`` and ``row_vectors()`` give the basis; turn a
        row back into a polynomial with :func:`decode_vector`.  The engine is
        the ideal's own cache: callers must not add rows to it.
        """
        return self._space(as_integer(n, "degree", 1, self.cap))


@dataclass(frozen=True)
class HilbertTable:
    """Dimensions of the quotient algebra, one per degree from 1 to cap, the length of dims."""

    p: int
    dims: tuple

    @property
    def cap(self):
        return len(self.dims)

    def dimension(self, n):
        return self.dims[as_integer(n, "degree", 1, self.cap) - 1]

    def ideal_rank(self, n):
        n = as_integer(n, "degree", 1, self.cap)
        return (1 << n) - self.dims[n - 1]

    def to_csv(self):
        lines = ["n,dim,ideal_rank"]
        lines += [f"{n},{self.dimension(n)},{self.ideal_rank(n)}" for n in range(1, self.cap + 1)]
        return "\n".join(lines) + "\n"

    def to_json_dict(self):
        return {
            "p": self.p,
            "cap": self.cap,
            "rows": [
                {"n": n, "dim": self.dimension(n), "ideal_rank": self.ideal_rank(n)}
                for n in range(1, self.cap + 1)
            ],
        }


def quotient_dimensions(ideal):
    """Hilbert table of the quotient by the ideal: dim at degree n is 2^n - rank."""
    dims = []
    for n in range(1, ideal.cap + 1):
        dims.append((1 << n) - ideal.component_basis(n).rank)
    return HilbertTable(ideal.p, tuple(dims))


def normal_form(a, ideal):
    """Canonical representative of a modulo the ideal (constant term untouched).

    The reduced parts are distinct degrees of one rank view, so no word is built.
    """
    if a.p != ideal.p or a.cap != ideal.cap:
        raise ValueError("element and ideal live in different algebras")
    ranks = {}
    for d, part in homogeneous_parts(a):
        if d:
            space = ideal._space(d)
            part = decode_vector(space.reduce(encode_part(part, d, space)), d, space, a.cap)
        ranks.update(part._ranks)
    return TruncatedPoly._from_view(a.p, a.cap, ranks)


def nilpotency_bound(a, ideal):
    """Smallest k <= cap + 1 with a^k in the ideal, or None: only an a with a constant term has none."""
    power = a
    for k in range(1, a.cap + 2):
        if normal_form(power, ideal).is_zero:
            return k
        power = power * a
    return None


def generators_to_json(ideal):
    """Ideal generators as a JSON-ready list of [degree, polynomial-text] pairs."""
    return [[d, format_poly(g)] for d, g in ideal.generators]


def ideal_from_json(p, cap, data):
    """The ideal of a JSON list of [degree, polynomial-text] pairs; other shapes raise ValueError.

    A homogeneous polynomial of a degree other than the stated one is refused too.
    """
    if not isinstance(data, list):
        raise ValueError("an ideal must be a JSON list of [degree, polynomial] pairs")
    gens = []
    for n, pair in enumerate(data):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValueError(f"ideal generator {n} must be a [degree, polynomial] pair")
        degree, text = pair
        if type(degree) is not int or not isinstance(text, str):
            raise ValueError(f"ideal generator {n} needs an integer degree and a polynomial string")
        g = parse_poly(text, p, cap)
        if g.is_homogeneous and g.max_degree() not in (None, degree):
            raise ValueError(
                f"ideal generator {n} has degree {g.max_degree()}, not the stated {degree}"
            )
        gens.append(g)
    return GradedIdeal(p, cap, gens)
