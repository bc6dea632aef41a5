"""Finite-dimensional nilpotent algebras over F_p and their adjoint groups.

An algebra is given by structure constants: table[i, j, t] is the
coefficient of basis element t in the product e_i * e_j.  Construction
validates associativity on all basis triples, one basis element e_i at a
time: with L_j = table[j], so that e_j v = v L_j for a row vector v, the
left matrix of each e_i e_j must be L_j L_i.  It computes the
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
The associativity check holds dim^3 entries at a time, but reads dim^4
products in all, so it is refused past ``linalg.MAX_BLOCK_BYTES`` of them
(dim > 64).  One chain, computed once per algebra (``quotient_exponents``),
gives the exponents of all the quotients, and every reader takes them from
there.

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
Its width is searched over product sets, on the group table guarded by
``MAX_GROUP_ORDER``: the search multiplies product sets S by a cyclic
subgroup C through its cosets (C holds every inverse, so S C is the union
of the left cosets g C that meet S), and one gather covers a whole block
of sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
import operator

import numpy as np

from . import linalg
from .linalg import ModpRowSpace
from .freealg import is_prime

#: Hard ceiling on group orders for the group table, and so for the width search.
MAX_GROUP_ORDER = 4096

#: Ceiling on the elements that the population exponent chain holds at once.
MAX_POPULATION = 16384

#: Batched products go in blocks of rows whose temporaries hold about this
#: many int64 entries (128 KiB), or eight times as many bools.
_BLOCK_ENTRIES = 1 << 14


class NotNilpotentError(ValueError):
    """The power chain of the algebra stalls before reaching zero."""


class FiniteNilAlgebra:
    """Nilpotent associative algebra over F_p with an explicit basis."""

    def __init__(self, p, labels, table):
        # A numpy integer p becomes a Python int, which the power and
        # primality routines need.
        try:
            p = operator.index(p)
        except TypeError:
            raise ValueError(f"p must be an integer, got {p!r}") from None
        if not 2 <= p <= linalg.MAX_MODULUS:
            raise ValueError(
                f"modulus {p} is outside 2..{linalg.MAX_MODULUS} (2^24), the range where"
                " the product kernel stays exact"
            )
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        labels = tuple(labels)
        k = len(labels)
        table = np.asarray(table, dtype=np.int64) % p
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
        for i in range(self.dim):
            bad = np.argwhere(_left(self, self.table[i]) != self.table @ self.table[i] % self.p)
            if len(bad):
                j, k, _ = bad[0]
                raise ValueError(
                    f"structure constants are not associative:"
                    f" (e{i} e{j}) e{k} != e{i} (e{j} e{k})"
                )

    def _power_chain(self):
        """Echelon bases of R^1 >= R^2 >= ..., ending with the first zero power."""
        full = ModpRowSpace(self.dim, self.p)
        full.add(np.eye(self.dim, dtype=np.int64))
        chain = [full]
        while chain[-1].rank > 0:
            # R^(k+1) is spanned by the products of R^k's basis with every basis element.
            rows = np.array(chain[-1].rows())
            nxt = ModpRowSpace(self.dim, self.p)
            nxt.add(_left(self, rows).reshape(-1, self.dim))
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
        """Echelonized basis of R^n (n >= 1); the zero space once n reaches the class."""
        if n < 1:
            raise ValueError(f"power index must be at least 1, got {n}")
        return self._chain[min(n, self.nilpotency_class) - 1]

    @cached_property
    def frobenius(self):
        """The matrix of r -> r^p, row i being e_i^p, when the algebra is commutative; else None.

        Row i is the p-th circle power of e_i, which is e_i^p (module
        docstring); it is zero, with nothing multiplied, once p reaches the class.
        """
        if not np.array_equal(self.table, self.table.transpose(1, 0, 2)):
            return None
        return _circle_pow_rows(self, np.eye(self.dim, dtype=np.int64), self.p)

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
        return np.asarray(u, dtype=np.int64).reshape(1, self.dim) % self.p

    def multiply(self, u, v):
        return tuple((self._row(v) @ _left(self, self._row(u))[0] % self.p)[0].tolist())

    def circle(self, u, v):
        return tuple(_circle_rows(self, self._row(u), self._row(v))[0].tolist())

    def circle_inv(self, u):
        """Circle inverse: the power -1 (see circle_pow)."""
        return self.circle_pow(u, -1)

    def circle_pow(self, u, k):
        """The k-th circle power of u, for any integer k (see ``_circle_pow_rows``)."""
        return tuple(_circle_pow_rows(self, self._row(u), k)[0].tolist())

    def zero(self):
        return (0,) * self.dim

    def elements(self):
        """All p^dim elements as coefficient tuples, in mixed-radix order."""
        return product(range(self.p), repeat=self.dim)

    def element_index(self, v):
        """The position of v in ``elements()``: v must have dim entries in 0..p - 1."""
        v = tuple(map(operator.index, v))
        if len(v) != self.dim or not all(0 <= c < self.p for c in v):
            raise ValueError(f"element {v} is not {self.dim} entries in 0..{self.p - 1}")
        i = 0
        for c in v:
            i = i * self.p + c
        return i

    def element_at(self, index):
        """The element at position ``index`` of ``elements()``, which must be in 0..p^dim - 1."""
        # Python ints: p^dim passes int64 long before the dimension ceiling.
        index, size = operator.index(index), self.p**self.dim
        if not 0 <= index < size:
            raise ValueError(f"element index {index} is outside 0..{size - 1}")
        digits = []
        for _ in range(self.dim):
            index, c = divmod(index, self.p)
            digits.append(c)
        return tuple(reversed(digits))

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
    if n < 1:
        raise ValueError(f"modulus exponent must be at least 1, got {n}")
    k = n - 1
    table = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            if i + j + 1 < k:
                table[i, j, i + j + 1] = 1
    labels = ["x" if t == 0 else f"x^{t + 1}" for t in range(k)]
    return FiniteNilAlgebra(p, labels, table)


def strictly_upper_triangular_algebra(p, size):
    """Strictly upper-triangular size x size matrices over F_p."""
    if size < 2:
        raise ValueError(f"matrix size must be at least 2, got {size}")
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
        mat = np.array(list(alg.elements()), dtype=np.int64)
        weights = alg.p ** np.arange(alg.dim - 1, -1, -1, dtype=np.int64)
        out = np.empty((n, n), dtype=np.int64)
        # Each row of a block takes n * dim entries of products.
        step = max(1, _BLOCK_ENTRIES // (n * max(alg.dim, 1)))
        for top in range(0, n, step):
            a = mat[top:top + step]
            out[top:top + step] = (a[:, None, :] + mat + mat @ _left(alg, a)) % alg.p @ weights
        return out


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
    q = 1
    while q < algebra.nilpotency_class:
        q *= algebra.p
    k %= q
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
    size = algebra.p**algebra.dim
    if size > MAX_POPULATION:
        raise linalg.ResourceLimitError(f"population size {size} exceeds {MAX_POPULATION}")
    population = np.array(list(algebra.elements()), dtype=np.int64)
    return _exponent_chain(
        algebra, population, lambda rows: _circle_pow_rows(algebra, rows, algebra.p)
    )


def quotient_exponent(algebra, n):
    """Exponent of the quotient of the adjoint group by G_n, the subgroup on R^(n+1)."""
    if n < 1:
        raise ValueError(f"congruence index must be at least 1, got {n}")
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
    rows = []
    for r in exp_bound_check(algebra)["rows"]:
        index = algebra.p ** r["quotient_dim"]
        rows.append(
            {
                "n": r["n"],
                "index": index,
                "exponent": r["exponent"],
                "index_le_exp_pow_width": index <= r["exponent"] ** width,
                "index_le_linear_bound_pow_width": index <= r["bound"] ** width,
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

    The trivial group has width 1.  On a commutative algebra the width is
    dim - rank F, at least 1, with no group table (module docstring).  Other
    groups are searched (``_search_width``) on their table, which is guarded
    to orders up to ``MAX_GROUP_ORDER``.
    """
    if limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    algebra = group.algebra
    if algebra.frobenius is None:
        return _search_width(group, limit)
    image = ModpRowSpace(algebra.dim, algebra.p)
    image.add(algebra.frobenius)
    width = max(1, algebra.dim - image.rank)
    return width if width <= limit else None


def _search_width(group, limit):
    """The cyclic width of any group, by search; None past the limit.

    Breadth-first over product sets from {identity}, each set seen once, so
    the first level reaching the group is minimal.  Its group table is
    guarded to orders up to MAX_GROUP_ORDER, and the search is refused once
    the seen sets hold more than ``linalg.MAX_BLOCK_BYTES``.
    """
    n = group.order
    table = group.multiplication_index_table()
    g = np.arange(n)
    powers = [g]
    while powers[-1].any():
        powers.append(table[powers[-1], g])
    subgroups = []
    for members in {frozenset(column) for column in np.array(powers).T.tolist()}:
        # The cosets g C, each named by its least element, which lies in it.
        rows = table[:, list(members)]
        least, ids = np.unique(rows.min(axis=1), return_inverse=True)
        subgroups.append((rows[least], ids))

    frontier = (g == 0)[None, :]
    seen = {frontier[0].tobytes()}
    step = max(1, 8 * _BLOCK_ENTRIES // n)
    for level in range(1, limit + 1):
        fresh = []
        for cosets, ids in subgroups:
            for top in range(0, len(frontier), step):
                products = frontier[top:top + step][:, cosets].any(axis=2)[:, ids]
                if products.all(axis=1).any():
                    return level
                data = products.tobytes()
                # First-seen order, so the frontier (and a refusal) does not follow hashing.
                chunks = dict.fromkeys(data[i:i + n] for i in range(0, len(data), n))
                keys = [key for key in chunks if key not in seen]
                seen.update(keys)
                fresh += keys
                if len(seen) * n > linalg.MAX_BLOCK_BYTES:
                    raise linalg.ResourceLimitError(
                        f"cyclic width search of a group of order {n} holds {len(seen) * n}"
                        f" bytes of product sets, over the limit of {linalg.MAX_BLOCK_BYTES} bytes"
                    )
        if not fresh:
            return None
        frontier = np.frombuffer(b"".join(fresh), dtype=bool).reshape(-1, n)
    return None


def quotient_algebra(algebra, n):
    """The quotient R / R^(n+1), on the basis vectors away from the pivot coordinates."""
    sub = algebra.power_space(n + 1)
    pivots = set(sub.pivots)
    keep = [i for i in range(algebra.dim) if i not in pivots]
    k = len(keep)
    products = algebra.table[np.ix_(keep, keep)].reshape(k * k, algebra.dim)
    table = sub.reduce_matrix(products)[:, keep].reshape(k, k, k)
    labels = [algebra.labels[i] for i in keep]
    return FiniteNilAlgebra(algebra.p, labels, table)
