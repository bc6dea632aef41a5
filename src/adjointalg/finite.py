"""Finite-dimensional nilpotent algebras over F_p and their adjoint groups.

An algebra is given by structure constants: table[i, j, t] is the
coefficient of basis element t in the product e_i * e_j.  Construction
validates associativity on all basis triples, a block of basis elements e_i
at a time: with L_j = table[j], so that e_j v = v L_j for a row vector v,
the left matrix of each e_i e_j must be L_j L_i.  It computes the
chain of power ideals R = R^1 >= R^2 >= ... down to zero, failing loudly
if the chain stalls before vanishing.  Because R is nilpotent, the circle
operation u o v = u + v + uv makes the whole underlying set a finite
p-group of order p^dim (the adjoint group), and the congruence subgroups
G_n = (R^{n+1}, o) filter it.  The diagnostics here measure that
filtration: exponents of the quotients against the linear bound p(n+1),
subgroup indices against powers of the exponent, and the cyclic width
(the least m with G a product of m cyclic subgroups).

Every adjoint product here (the associativity check, scalar products,
circle powers and inverses, the power chain and the group table) goes
through one kernel, ``_left``: the matrices of v -> a v for a batch of
rows a, reduced mod p before a right factor meets them.  Each sum then
stays below dim * p^2, which is exact in int64 for every p up to 2^24.
The associativity check holds about ``_BLOCK_ENTRIES`` entries (at least
dim^3) at a time, but reads dim^4 products in all, so it is refused past
``linalg.MAX_BLOCK_BYTES`` of them (dim > 64).  One chain, computed once per
algebra (``quotient_exponents``), gives the exponents of all the quotients,
and every reader takes them from there.

Every echelon here (the power chain, the commutator ideal, the membership
tests of the exponent chain and the quotient algebra) is a :class:`Span`,
built from ``linalg.echelon``, whose int64 entries stay below p^2.  Its
reductions are exact for the same reason as ``_left``: dim <= 64 and
p <= 2^24, so each sum of products stays below dim * p^2 < 2^63.

In characteristic p, (1 + r)^(p^t) = 1 + r^(p^t) for every r in every
algebra, since 1 commutes with r; so every element's order divides the least
power of p at or above the nilpotency class.  One routine,
``_circle_pow_rows``, takes every circle power, with k modulo that bound.

A commutative algebra (table[i, j] == table[j, i]) has an abelian adjoint
group, since u o v - v o u = uv - vu.  Commutativity only makes the
Frobenius map F: r -> r^p F_p-linear, so a basis stands for every element,
and G^p = 1 + F(R).  Its cyclic width is then d(G) = log_p [G : G^p] =
dim - rank F (at least 1), by the Burnside basis theorem and because in an
abelian group a product of cyclic subgroups is the subgroup they generate;
and the exponent of G/G_n is the least p^t with F^t(R) in R^(n+1).
Neither needs the elements, so neither guard below applies to it.

Any other algebra goes the element-level way.  Its exponent chain takes
p-th circle powers of all p^dim elements, guarded by ``MAX_POPULATION``.
Its width takes two steps on the group table, which is guarded by
``MAX_GROUP_ORDER``.  Both read one array of element rows (``_population``),
built once per algebra in ``elements()`` order from one place-value vector.
The width's two steps are:

- a lower bound L from ranks alone, the larger of two.  Let K be the ideal
  generated by the commutators ab - ba.  R/K is commutative, and R -> R/K
  maps G onto the adjoint group of R/K, whose width (the rank above) is at
  most that of G.  And so is that of each G/G_n, of order p^(dim - rank
  R^(n+1)) and, by the identity above, of exponent at most p^t, the least
  power of p at or above n + 1: it needs log_p |G/G_n| / t cyclic factors.
  On a commutative algebra K = 0, and L is the width;
- a witness: if one of a fixed number of seeded draws of L maximal cyclic
  subgroups has all of G as its product, the width is L.  When none does,
  the width is refused with a ValueError that brackets it: at least L, and
  at most the least m up to the limit at which a draw covers G, if any.

A product set S times a cyclic subgroup C is taken through the cosets of C
(C holds every inverse, so S C is the union of the left cosets g C that
meet S), by one gather.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
import random

import numpy as np

from . import linalg

#: Hard ceiling on group orders for the group table, and so for a noncommutative width.
MAX_GROUP_ORDER = 4096

#: Ceiling on the elements that the population exponent chain holds at once.
MAX_POPULATION = 16384

#: The width witness draws at most this many products of cyclic subgroups,
#: from a ``random.Random`` with this seed, so that its answer is deterministic.
_WITNESS_DRAWS = 2000
_WITNESS_SEED = 2018

#: Batched products go in blocks of rows whose temporaries hold about this
#: many int64 entries (128 KiB), or eight times as many bools.
_BLOCK_ENTRIES = 1 << 14


class NotNilpotentError(ValueError):
    """The power chain of the algebra stalls before reaching zero."""


def _integer_array(values, what):
    """values as int64; a nonempty array that numpy reads as bools or as no int64 integers is refused."""
    array = np.asarray(values)
    if array.size and (array.dtype.kind == "b" or not np.can_cast(array.dtype, np.int64)):
        raise ValueError(f"{what} must be integers, read as {array.dtype}")
    return array.astype(np.int64, copy=False)


class FiniteNilAlgebra:
    """Nilpotent associative algebra over F_p with an explicit basis."""

    def __init__(self, p, labels, table):
        p = linalg.check_modulus(p, linalg.MAX_MODULUS)
        labels = tuple(labels)
        k = len(labels)
        table = _integer_array(table, "structure constants") % p
        if table.shape != (k, k, k):
            raise ValueError(
                f"structure constants must have shape ({k}, {k}, {k}), got {table.shape}"
            )
        self.p = p
        self.dim = k
        self.labels = labels
        self.table = table
        self._check_associative()
        self._chain = self._power_chain()

    def _check_associative(self):
        if 8 * self.dim**4 > linalg.MAX_BLOCK_BYTES:
            raise linalg.ResourceLimitError(
                f"associativity check of a {self.dim}-dimensional algebra reads {8 * self.dim**4}"
                f" bytes of products, over the limit of {linalg.MAX_BLOCK_BYTES} bytes"
            )
        # (e_i e_j) e_k = e_i (e_j e_k) for all j, k: the left matrix of e_i e_j is L_j L_i.
        # Several i go in one step, each taking two dim^3 arrays of products.
        k, table = self.dim, self.table
        step = max(1, _BLOCK_ENTRIES // max(k, 1) ** 3)
        for top in range(0, k, step):
            block = table[top:top + step]
            left = _left(self, block.reshape(-1, k)).reshape(len(block), k, k, k)
            bad = np.argwhere(left != table @ block[:, None] % self.p)
            if len(bad):
                i, j, m, _ = bad[0]
                raise ValueError(
                    f"structure constants are not associative:"
                    f" (e{top + i} e{j}) e{m} != e{top + i} (e{j} e{m})"
                )

    def _power_chain(self):
        """Echelon bases of R^1 >= R^2 >= ..., ending with the first zero power."""
        identity = np.eye(self.dim, dtype=np.int64)
        identity.flags.writeable = False
        chain = [Span(self.p, tuple(range(self.dim)), identity)]
        while chain[-1].rank > 0:
            # R^(k+1) is spanned by the products of R^k's basis with every basis element.
            nxt = _echelon(_left(self, chain[-1].basis).reshape(-1, self.dim), self.p)
            if nxt.rank >= chain[-1].rank:
                raise NotNilpotentError(
                    f"power chain stalls at rank {nxt.rank}; the algebra is not nilpotent"
                )
            chain.append(nxt)
        return chain

    @property
    def nilpotency_class(self):
        """The least N with R^N = 0."""
        return len(self._chain)

    def power_space(self, n):
        """The :class:`Span` of R^n (n >= 1); the zero space once n reaches the class."""
        n = linalg.as_integer(n, "power index", 1)
        return self._chain[min(n, self.nilpotency_class) - 1]

    @cached_property
    def _pth_powers(self):
        """Row i is e_i^p, the p-th circle power of e_i (module docstring).

        It is zero, with nothing multiplied, once p reaches the class.
        """
        return _circle_pow_rows(self, np.eye(self.dim, dtype=np.int64), self.p)

    @cached_property
    def frobenius(self):
        """The matrix of r -> r^p, row i being e_i^p, when the algebra is commutative; else None."""
        if not np.array_equal(self.table, self.table.transpose(1, 0, 2)):
            return None
        return self._pth_powers

    @cached_property
    def quotient_exponents(self):
        """Exponents of the quotients by G_1, ..., G_N (N the class; the last is exp(G)).

        On a commutative algebra, the exponent of G/G_n is the least p^t with
        F^t(R) in R^(n+1), F the Frobenius map: one chain of powers of one
        matrix.  Otherwise one chain of p-th circle powers of all elements,
        guarded by ``MAX_POPULATION``.
        """
        frobenius = self.frobenius
        if frobenius is None:
            return _population_exponents(self)
        basis = np.eye(self.dim, dtype=np.int64)
        return _exponent_chain(self, basis, lambda rows: rows @ frobenius % self.p)

    def _row(self, u):
        return _integer_array(u, "element coordinates").reshape(1, self.dim) % self.p

    def multiply(self, u, v):
        return tuple((self._row(v) @ _left(self, self._row(u))[0] % self.p)[0].tolist())

    def circle(self, u, v):
        return tuple(_circle_rows(self, self._row(u), self._row(v))[0].tolist())

    def circle_inv(self, u):
        """Circle inverse: the power -1 (see circle_pow)."""
        return self.circle_pow(u, -1)

    def circle_pow(self, u, k):
        """The k-th circle power of u, for any integer k (see ``_circle_pow_rows``)."""
        k = linalg.as_integer(k, "exponent")
        return tuple(_circle_pow_rows(self, self._row(u), k)[0].tolist())

    def zero(self):
        return (0,) * self.dim

    def elements(self):
        """All p^dim elements as coefficient tuples, in mixed-radix order."""
        return product(range(self.p), repeat=self.dim)

    @cached_property
    def _place_values(self):
        """p^(dim - 1), ..., p, 1: row @ these is the row's index in ``elements()``.

        Guarded by ``MAX_POPULATION``, which also keeps each p^k in int64.
        """
        size = self.p**self.dim
        if size > MAX_POPULATION:
            raise linalg.ResourceLimitError(f"population size {size} exceeds {MAX_POPULATION}")
        return self.p ** np.arange(self.dim - 1, -1, -1, dtype=np.int64)

    @cached_property
    def _population(self):
        """Row i is the i-th element of ``elements()``, read-only (``_place_values`` guards it)."""
        place_values = self._place_values
        population = np.arange(self.p**self.dim, dtype=np.int64)[:, None] // place_values % self.p
        population.flags.writeable = False
        return population

    def to_json_dict(self):
        return {
            "p": self.p,
            "dim": self.dim,
            "labels": list(self.labels),
            "mul": self.table.tolist(),
        }

    def __repr__(self):
        return (
            f"<FiniteNilAlgebra p={self.p} dim={self.dim}"
            f" class={self.nilpotency_class}>"
        )


def algebra_from_json(data):
    """The algebra of a JSON object with fields p, labels and mul; other fields are ignored.

    A document of another shape is a ValueError naming the field; the table is
    converted by numpy, which must read it as int64 (a float, string, bool or
    an int past int64 is refused).  numpy reads a true among integers as 1,
    so the entries are then searched for a JSON boolean, and only then does
    :class:`FiniteNilAlgebra` check the table's shape.
    """
    if not isinstance(data, dict):
        raise ValueError("an algebra must be a JSON object with fields p, labels and mul")
    if type(data.get("p")) is not int:
        raise ValueError("algebra field 'p' must be an integer")
    for key in ("labels", "mul"):
        if not isinstance(data.get(key), list):
            raise ValueError(f"algebra field {key!r} must be a list")
    if not data["mul"] and not data["labels"]:
        # The zero-dimensional algebra, whose empty table numpy reads as float64.
        return FiniteNilAlgebra(data["p"], (), np.zeros((0, 0, 0), dtype=np.int64))
    try:
        table = np.asarray(data["mul"])
    except ValueError as exc:
        raise ValueError(f"algebra field 'mul' must be a table of integers: {exc}") from None
    if table.dtype.kind != "i":
        raise ValueError(f"algebra field 'mul' must be a table of integers, read as {table.dtype}")
    entries = data["mul"]
    for _ in range(table.ndim - 1):
        entries = [e for row in entries for e in row]
    if bool in map(type, entries):
        raise ValueError("algebra field 'mul' must be a table of integers, holds a JSON boolean")
    return FiniteNilAlgebra(data["p"], data["labels"], table)


def truncated_polynomial_algebra(p, n):
    """The algebra x*F_p[x] / (x^n): basis x, x^2, ..., x^(n-1)."""
    k = linalg.as_integer(n, "modulus exponent", 1) - 1
    table = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            if i + j + 1 < k:
                table[i, j, i + j + 1] = 1
    labels = ["x" if t == 0 else f"x^{t + 1}" for t in range(k)]
    return FiniteNilAlgebra(p, labels, table)


def strictly_upper_triangular_algebra(p, size):
    """Strictly upper-triangular size x size matrices over F_p."""
    size = linalg.as_integer(size, "matrix size", 2)
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    index = {pair: t for t, pair in enumerate(pairs)}
    k = len(pairs)
    table = np.zeros((k, k, k), dtype=np.int64)
    for (a, b), s in index.items():
        for (c, d), t in index.items():
            if b == c:
                table[s, t, index[(a, d)]] = 1
    labels = [f"e{i + 1}{j + 1}" for i, j in pairs]
    return FiniteNilAlgebra(p, labels, table)


def direct_sum(a, b):
    """Direct sum of two algebras over the same prime; cross products vanish."""
    if a.p != b.p:
        raise ValueError(f"cannot sum algebras over F_{a.p} and F_{b.p}")
    k1, k2 = a.dim, b.dim
    table = np.zeros((k1 + k2, k1 + k2, k1 + k2), dtype=np.int64)
    table[:k1, :k1, :k1] = a.table
    table[k1:, k1:, k1:] = b.table
    labels = list(a.labels) + list(b.labels)
    if len(set(labels)) < len(labels):
        labels = [f"{l}_1" for l in a.labels] + [f"{l}_2" for l in b.labels]
    return FiniteNilAlgebra(a.p, labels, table)


@dataclass(frozen=True)
class AdjointGroup:
    """The set of algebra elements under u o v = u + v + uv."""

    algebra: FiniteNilAlgebra

    @property
    def order(self):
        return self.algebra.p**self.algebra.dim

    def exponent(self):
        """The largest element order: the exponent of the quotient by the trivial G_n."""
        return self.algebra.quotient_exponents[-1]

    def multiplication_index_table(self):
        """T[i, j] = index of element_i o element_j; guarded to small groups."""
        n = self.order
        if n > MAX_GROUP_ORDER:
            raise linalg.ResourceLimitError(f"group order {n} exceeds the limit {MAX_GROUP_ORDER}")
        alg = self.algebra
        mat, weights = alg._population, alg._place_values
        out = np.empty((n, n), dtype=np.int64)
        # Each row of a block takes n * dim entries of products.
        step = max(1, _BLOCK_ENTRIES // (n * max(alg.dim, 1)))
        for top in range(0, n, step):
            a = mat[top:top + step]
            out[top:top + step] = (a[:, None, :] + mat + mat @ _left(alg, a)) % alg.p @ weights
        return out


@dataclass(frozen=True, eq=False)
class Span:
    """A subspace of F_p^dim in reduced row-echelon form, exact in int64 (module docstring).

    ``basis`` is read-only, and its row i is 1 at ``pivots[i]``, its highest
    nonzero coordinate, and 0 at every other pivot; the pivots ascend.
    ``_echelon`` builds a span from any rows.
    """

    p: int
    pivots: tuple
    basis: np.ndarray

    @property
    def rank(self):
        return len(self.pivots)

    def rows(self):
        """The basis rows as int64 vectors, ascending by pivot."""
        return list(self.basis)

    def reduce_matrix(self, m):
        """The rows of m (residues mod p), each reduced to its representative 0 at every pivot."""
        return (m - m[:, self.pivots] @ self.basis) % self.p

    def reduce(self, v):
        """The representative of one row v of residues (see ``reduce_matrix``)."""
        return self.reduce_matrix(np.asarray(v, dtype=np.int64)[None, :])[0]


def _echelon(rows, p):
    """The span over F_p of the rows of an int64 matrix: ``linalg.echelon``'s rows by lead."""
    leads, m = linalg.echelon(rows, p)
    order = np.argsort(leads)
    basis = m[order]
    basis.flags.writeable = False
    return Span(p, tuple(leads[order].tolist()), basis)


def _left(algebra, a):
    """For each row a_i of a, the matrix of v -> a_i v, reduced mod p.

    The reduction comes before any right factor, so every sum of products
    stays below dim * p^2: exact in int64 for p up to 2^24.
    """
    k = algebra.dim
    return (a @ algebra.table.reshape(k, k * k) % algebra.p).reshape(len(a), k, k)


def _circle_rows(algebra, a, b):
    """Row-wise a_i o b_i = a_i + b_i + a_i b_i.

    Rows go in blocks, since the left matrices of a block take dim times
    the memory of its rows.
    """
    out = np.empty_like(a)
    step = max(1, _BLOCK_ENTRIES // max(algebra.dim, 1) ** 2)
    for top in range(0, len(a), step):
        x, y = a[top:top + step], b[top:top + step]
        out[top:top + step] = (x + y + (y[:, None, :] @ _left(algebra, x))[:, 0]) % algebra.p
    return out


def _circle_pow_rows(algebra, a, k):
    """Row-wise k-th circle powers, for any integer k, by square-and-multiply.

    Every element's order divides q, the least power of p at or above the
    nilpotency class (module docstring), so k is taken mod q: a negative k
    needs no inverse, and k = p gives zero once p reaches the class.  The
    bits of k are read from the top, so nothing is squared past it.
    """
    k %= algebra.p ** linalg.ceil_log(algebra.p, algebra.nilpotency_class)
    if not k:
        return np.zeros_like(a)
    acc = a
    for bit in bin(k)[3:]:
        acc = _circle_rows(algebra, acc, acc)
        if bit == "1":
            acc = _circle_rows(algebra, acc, a)
    return acc


def _exponent_chain(algebra, rows, pth_power):
    """Exponents of G/G_1, ..., G/G_N from rows spanning or listing every element.

    ``pth_power`` maps rows to the rows of their p-th circle powers.  The
    exponent of G/G_n divides that of G/G_(n+1), so it advances only while
    some row is not in R^(n+1).
    """
    exponent = 1
    exponents = []
    for n in range(1, algebra.nilpotency_class + 1):
        sub = algebra.power_space(n + 1)
        while np.any(sub.reduce_matrix(rows)):
            rows = pth_power(rows)
            exponent *= algebra.p
            if exponent > algebra.p**algebra.dim:
                raise AssertionError("quotient exponent exceeded the group order")
        exponents.append(exponent)
    return tuple(exponents)


def _population_exponents(algebra):
    """The quotient exponents from p-th circle powers of all p^dim elements, for any algebra."""
    return _exponent_chain(
        algebra, algebra._population, lambda rows: _circle_pow_rows(algebra, rows, algebra.p)
    )


def quotient_exponent(algebra, n):
    """Exponent of the quotient of the adjoint group by G_n, the subgroup on R^(n+1)."""
    n = linalg.as_integer(n, "congruence index", 1)
    return algebra.quotient_exponents[min(n, algebra.nilpotency_class) - 1]


def exp_bound_check(algebra):
    """Exponent of every congruence quotient against the linear bound p(n+1).

    A violation would falsify the construction this bound certifies, so it
    is flagged CRITICAL rather than tolerated.
    """
    rows = []
    sharpest = Fraction(0)
    for n, e in enumerate(algebra.quotient_exponents[:-1], 1):
        bound = algebra.p * (n + 1)
        sharpest = max(sharpest, Fraction(e, bound))
        rows.append(
            {
                "n": n,
                "quotient_dim": algebra.dim - algebra.power_space(n + 1).rank,
                "exponent": e,
                "bound": bound,
                "ok": e <= bound,
            }
        )
    ok = all(r["ok"] for r in rows)
    report = {
        "p": algebra.p,
        "dim": algebra.dim,
        "nilpotency_class": algebra.nilpotency_class,
        "rows": rows,
        "ok": ok,
        "sharpest_ratio": f"{sharpest.numerator}/{sharpest.denominator}",
    }
    if not ok:
        report["severity"] = "CRITICAL"
    return report


def index_exponent_check(algebra, width):
    """Subgroup indices [G : G_n] = p^dim(R/R^(n+1)) against exponent^width.

    For a group of cyclic width m, the index of any subgroup H is at most
    exp(G/H)^m; with the linear exponent bound this caps every congruence
    index by (p(n+1))^width.
    """
    width = linalg.as_integer(width, "width", 1)
    rows = []
    for n, e in enumerate(algebra.quotient_exponents[:-1], 1):
        index = algebra.p ** (algebra.dim - algebra.power_space(n + 1).rank)
        rows.append(
            {
                "n": n,
                "index": index,
                "exponent": e,
                "index_le_exp_pow_width": index <= e**width,
                "index_le_linear_bound_pow_width": index <= (algebra.p * (n + 1)) ** width,
            }
        )
    return {
        "width": width,
        "rows": rows,
        "ok": all(r["index_le_exp_pow_width"] for r in rows),
        "aggregate_ok": all(r["index_le_linear_bound_pow_width"] for r in rows),
    }


def cyclic_width(group, limit=8):
    """Least m with the whole group a product C_1 C_2 ... C_m of cyclic subgroups; None past limit.

    The trivial group has width 1.  A noncommutative algebra's group table
    comes first, guarded to orders up to ``MAX_GROUP_ORDER``.  Then the
    width is at least L (``_width_bound``), which is the width itself on a
    commutative algebra, with no group table.  Any other width is L when a
    drawn product of L maximal cyclic subgroups covers the group
    (``_witness``).  When none does, it is a ValueError naming the order,
    L and the least m up to the limit at which a draw covers the group, or
    saying that none does.  With ut(p, n) the strictly upper-triangular
    n x n matrices over F_p and poly(p, n) the algebra x F_p[x] / (x^n),
    ut(3, 3) + poly(3, 3) (order 243) has width 5 and ut(3, 3) + ut(3, 3)
    (order 729) width 6, and ut(2, 5) (order 1024) and ut(3, 4) (order 729)
    have width 5, where the exponent alone gave L = 4 and 3.
    poly(3, 5) + ut(3, 3) (order 2187) is refused with the bracket [5, 6].
    """
    limit = linalg.as_integer(limit, "limit", 1)
    algebra = group.algebra
    table = None if algebra.frobenius is not None else group.multiplication_index_table()
    bound = _width_bound(algebra)
    if bound > limit:
        return None
    if table is None or _witness(table, algebra.p, bound):
        return bound
    cover = next((m for m in range(bound + 1, limit + 1) if _witness(table, algebra.p, m)), None)
    found = f"one of {cover} does" if cover else f"nor does one of up to {limit}"
    raise ValueError(
        f"cyclic width of a group of order {group.order} is in [{bound}, {cover or '?'}]:"
        f" no witness draw of {bound} cyclic subgroups covers it, {found}"
    )


def _width_bound(algebra):
    """L, a lower bound on the cyclic width, from ranks alone (module docstring).

    K, the ideal generated by the commutators e_i e_j - e_j e_i, is closed
    under products with the basis on both sides until its rank stops
    growing.  R/K is commutative, and F(R/K) is spanned by the images of the
    e_i^p, so the width of its group is dim R minus the rank of K + span{e_i^p}.
    Each rung n of the power chain gives ceil(log_p |G/G_n| / t) more.
    """
    k, p, table = algebra.dim, algebra.p, algebra.table
    basis = np.empty((0, k), dtype=np.int64)
    rows = table - table.transpose(1, 0, 2)
    # Zero rows, as on every commutative algebra, are skipped before the echelon work.
    while rows.any():
        grown = _echelon(np.concatenate([basis, rows.reshape(-1, k)]), p).basis
        if len(grown) == len(basis):
            break
        basis = grown
        # _left(basis)[i] has the rows b_i e_j, and (basis @ table)[j] the rows e_j b_i.
        rows = np.concatenate([_left(algebra, basis), basis @ table % p], axis=None)
    bound = max(1, k - _echelon(np.concatenate([basis, algebra._pth_powers]), p).rank)
    for n in range(1, algebra.nilpotency_class):
        t = linalg.ceil_log(p, n + 1)
        bound = max(bound, -(-(k - algebra.power_space(n + 1).rank) // t))
    return bound


def _witness(table, p, width):
    """Whether one of ``_WITNESS_DRAWS`` seeded draws of width maximal cyclic subgroups covers G.

    <g> is a maximal cyclic subgroup exactly when g is not a p-th power (the
    proper subgroups of a cyclic p-group lie in that of its p-th powers).
    Every cyclic subgroup lies in a maximal one, so drawing only those loses
    no product that covers G.
    """
    powers = _powers(table)
    pth = set(powers[:, p - 1].tolist())
    # Each maximal subgroup once, in the order of its first generator.
    maximal = [frozenset(row) for g, row in enumerate(powers.tolist()) if g not in pth]
    maximal = list(dict.fromkeys(maximal))
    gathers = {}
    rng = random.Random(_WITNESS_SEED)
    start = np.arange(len(table)) == 0
    for _ in range(_WITNESS_DRAWS):
        covered = start
        for _ in range(width):
            i = rng.randrange(len(maximal))
            if i not in gathers:
                gathers[i] = _coset_gather(table, maximal[i])
            cosets, ids = gathers[i]
            covered = covered[cosets].any(axis=1)[ids]
        if covered.all():
            return True
    return False


def _powers(table):
    """Row g lists g, g^2, ..., g^e = 1 (e = exp(G)) in the group with this index table."""
    g = np.arange(len(table))
    powers = [g]
    while powers[-1].any():
        powers.append(table[powers[-1], g])
    return np.array(powers).T


def _coset_gather(table, members):
    """The left cosets g C of the subgroup C with these members, as (cosets, ids).

    Row c of cosets lists the coset numbered c, and ids[g] numbers that of g.
    C holds every inverse, so for a set S, S C is the union of the cosets
    that meet S: ``S[cosets].any(axis=1)[ids]``.  The cosets go
    in the order of their least elements: g is one exactly when g is the
    least element of g C.
    """
    n = len(table)
    rows = table[:, list(members)]
    least = rows.min(axis=1)
    firsts = np.flatnonzero(least == np.arange(n))
    number = np.empty(n, dtype=np.int64)
    number[firsts] = np.arange(len(firsts))
    return rows[firsts], number[least]


def quotient_algebra(algebra, n):
    """The quotient R / R^(n+1) (n >= 0), on the basis vectors away from the pivot coordinates."""
    sub = algebra.power_space(linalg.as_integer(n, "congruence index", 0) + 1)
    pivots = set(sub.pivots)
    keep = [i for i in range(algebra.dim) if i not in pivots]
    k = len(keep)
    products = algebra.table[np.ix_(keep, keep)].reshape(k * k, algebra.dim)
    table = sub.reduce_matrix(products)[:, keep].reshape(k, k, k)
    labels = [algebra.labels[i] for i in keep]
    return FiniteNilAlgebra(algebra.p, labels, table)
