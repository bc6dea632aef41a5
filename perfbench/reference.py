"""Reference computations the benchmark checks job outputs against.

Nothing here calls into adjointalg: term dicts are multiplied with a plain
double loop, ranks come from a plain-Python elimination, and adjoint
products use pure-Python structure-constant loops.  Keeping the oracles
independent of the library means a bug (or a deliberate corruption) in the
code under test shows up as a failed job instead of agreeing with itself.
"""

from __future__ import annotations

from itertools import groupby, product


def naive_mul(a, b, p, cap):
    """Product of two term dicts over F_p, dropping words longer than cap."""
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) <= cap:
                w = wa + wb
                out[w] = (out.get(w, 0) + ca * cb) % p
    return {w: c for w, c in out.items() if c}


def naive_add(a, b, p):
    out = dict(a)
    for w, c in b.items():
        s = (out.get(w, 0) + c) % p
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


def expand_one_plus(factors, p, cap):
    """Product of (1 + h) over the term dicts h, in order."""
    acc = {"": 1}
    for h in factors:
        acc = naive_mul(acc, naive_add(h, {"": 1}, p), p, cap)
    return acc


def poly_text(terms):
    """Text for a term dict in the library's input grammar ('2x^2y + yx')."""
    if not terms:
        return "0"
    parts = []
    for word in sorted(terms, key=lambda w: (len(w), w)):
        coeff = terms[word]
        letters = "".join(
            ch if n == 1 else f"{ch}^{n}"
            for ch, n in ((ch, len(list(g))) for ch, g in groupby(word))
        )
        head = "" if coeff == 1 and word else str(coeff)
        parts.append(head + letters)
    return " + ".join(parts)


def component_vectors(gen_dicts, p, n):
    """Coefficient vectors of every u*g*w of degree n, built from strings alone.

    Coordinates follow the library's word order: x is bit 0, y is bit 1,
    and the first letter is the most significant bit.
    """
    vectors = []
    for g in gen_dicts:
        d = len(next(iter(g)))
        for i in range(n - d + 1):
            j = n - d - i
            for u in product("xy", repeat=i):
                for w in product("xy", repeat=j):
                    vec = [0] * (1 << n)
                    for word, c in g.items():
                        full = "".join(u) + word + "".join(w)
                        vec[int(full.replace("x", "0").replace("y", "1"), 2)] = c % p
                    vectors.append(vec)
    return vectors


def rank_mod_p(vectors, p, ncols):
    """Rank over F_p by plain Gaussian elimination on Python lists."""
    pivots = {}
    for vec in vectors:
        row = [c % p for c in vec]
        for col in sorted(pivots):
            c = row[col]
            if c:
                prow = pivots[col]
                row = [(a - c * b) % p for a, b in zip(row, prow)]
        lead = next((i for i, c in enumerate(row) if c), None)
        if lead is None:
            continue
        inv = pow(row[lead], -1, p)
        pivots[lead] = [(c * inv) % p for c in row]
        if len(pivots) == ncols:
            break
    return len(pivots)


def brute_circle(rows, p, u, v):
    """u + v + u*v from nested-list structure constants rows[i][j][t]."""
    k = len(u)
    prod = [0] * k
    for i in range(k):
        ci = u[i]
        if not ci:
            continue
        row = rows[i]
        for j in range(k):
            cj = v[j]
            if not cj:
                continue
            ct = row[j]
            for t in range(k):
                prod[t] = (prod[t] + ci * cj * ct[t]) % p
    return tuple((a + b + c) % p for a, b, c in zip(u, v, prod))


def brute_circle_pow(rows, p, u, k):
    """k-th adjoint power of u by square-and-multiply on brute_circle."""
    acc = (0,) * len(u)
    base = tuple(u)
    while k:
        if k & 1:
            acc = brute_circle(rows, p, acc, base)
        base = brute_circle(rows, p, base, base)
        k >>= 1
    return acc


def mat_inverse_mod_p(m, p):
    """Inverse of a square matrix over F_p (lists of ints), or None if singular."""
    n = len(m)
    aug = [[c % p for c in row] + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [(c * inv) % p for c in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(a - f * b) % p for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]
