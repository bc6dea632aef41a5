"""Reference routines that check the library from the outside.

Everything here is written from scratch on plain term dicts, lists and
tuples: products of term dicts are a full double loop, spans are closed by
exhaustive enumeration or echelonized by textbook Gauss-Jordan
elimination, component spanning sets are built from word
strings, structure-constant products are pure-Python triple loops, and
cyclic width multiplies frozensets of group elements pair by pair.
The module imports only the standard library, never the package it
checks, so an agreement between the two is evidence from an independent
route; a test parses the imports below to keep it that way.  Callers wrap
the returned term dicts themselves.  The acceptance checks in
:mod:`adjointalg.selftest` and the test suite both use these routines.
"""

from itertools import accumulate, product, repeat


def naive_mul(a, b, p, cap):
    """Term-dict product via the full double loop, no degree bucketing."""
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            if len(wa) + len(wb) <= cap:
                w = wa + wb
                out[w] = (out.get(w, 0) + ca * cb) % p
    return {w: c for w, c in out.items() if c}


def naive_add(a, b, p):
    """Term-dict sum, dropping the words whose coefficients cancel."""
    out = dict(a)
    for w, c in b.items():
        s = (out.get(w, 0) + c) % p
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


def expand_one_plus(factors, p, cap):
    """Product of (1 + h) over term dicts h, via the naive multiplier."""
    acc = {"": 1}
    for h in factors:
        acc = naive_mul(acc, naive_add(h, {"": 1}, p), p, cap)
    return acc


def span_closure(vectors, p, limit=300000):
    """Every F_p-linear combination of the vectors, as a set of tuples."""
    n = len(vectors[0]) if vectors else 0
    found = {tuple([0] * n)}
    for v in vectors:
        if len(found) * p > limit:
            raise ValueError("span closure too large for the exhaustive oracle")
        found = {
            tuple((a + c * b) % p for a, b in zip(s, v))
            for s in found
            for c in range(p)
        }
    return found


def rref_mod_p(vectors, p):
    """Reduced row-echelon basis of the span of the vectors over F_p, by Gauss-Jordan.

    A row's pivot is its highest nonzero coordinate; each row is 1 at its
    pivot and every other row is 0 there.  Rows come back as lists of ints,
    ascending by pivot.
    """
    basis = {}
    for v in vectors:
        row = [c % p for c in v]
        for pivot, other in basis.items():
            c = row[pivot]
            if c:
                row = [(a - c * b) % p for a, b in zip(row, other)]
        support = [i for i, c in enumerate(row) if c]
        if not support:
            continue
        lead = support[-1]
        inv = pow(row[lead], -1, p)
        row = [(c * inv) % p for c in row]
        for pivot, other in basis.items():
            c = other[lead]
            if c:
                basis[pivot] = [(a - c * b) % p for a, b in zip(other, row)]
        basis[lead] = row
    return [basis[pivot] for pivot in sorted(basis)]


def component_span_vectors(gen_dicts, p, n):
    """Spanning vectors of the degree-n component of an ideal, built from strings."""
    vectors = []
    for g in gen_dicts:
        d = len(next(iter(g)))
        if d > n:
            continue
        for i in range(n - d + 1):
            j = n - d - i
            for u in product("xy", repeat=i):
                for w in product("xy", repeat=j):
                    vec = [0] * (2**n)
                    for word, c in g.items():
                        full = "".join(u) + word + "".join(w)
                        bits = "".join("0" if ch == "x" else "1" for ch in full)
                        vec[int(bits, 2)] = c % p
                    vectors.append(vec)
    return vectors


def monomial_hilbert(words, cap):
    """Quotient dimensions at degrees 1..cap by the ideal the given words generate, for any p.

    A word lies in the monomial ideal exactly when some generator word is a
    factor of it, so the dimension at degree n counts the words of length n
    that avoid every generator word.  They are counted by a dynamic program
    over the Aho-Corasick automaton of the generator words: a state is the
    longest suffix read so far that begins a generator word, and a state is
    dead when one of its suffixes is a whole generator word.
    """
    goto, dead = [{}], [False]
    for word in words:
        state = 0
        for letter in word:
            if letter not in goto[state]:
                goto[state][letter] = len(goto)
                goto.append({})
                dead.append(False)
            state = goto[state][letter]
        dead[state] = True
    # Breadth-first, so a state's suffix link (a shorter state) is complete before it.
    link, moves, queue = [0] * len(goto), [None] * len(goto), [0]
    for state in queue:
        moves[state] = {}
        for letter in "xy":
            fallback = moves[link[state]][letter] if state else 0
            child = goto[state].get(letter)
            if child is None:
                moves[state][letter] = fallback
            else:
                moves[state][letter], link[child] = child, fallback
                dead[child] = dead[child] or dead[fallback]
                queue.append(child)
    counts, dims = ({} if dead[0] else {0: 1}), []
    for _ in range(cap):
        step = {}
        for state, count in counts.items():
            for target in moves[state].values():
                if not dead[target]:
                    step[target] = step.get(target, 0) + count
        counts = step
        dims.append(sum(counts.values()))
    return tuple(dims)


def brute_circle(rows, p, u, v):
    """u + v + u*v from nested-list structure constants, pure Python."""
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


def brute_cyclic_width(table, limit):
    """Least m with the group a product of m cyclic subgroups; None past the limit.

    table[i][j] indexes the product of elements i and j.  A cyclic subgroup
    is the first n powers of a generator; product sets are frozensets of
    all pairwise products, searched breadth-first.
    """
    n = len(table)
    cyclic = {frozenset(accumulate(repeat(g, n), lambda x, _: table[x][g])) for g in range(n)}
    frontier = seen = cyclic
    for level in range(1, limit + 1):
        if frozenset(range(n)) in frontier:
            return level
        frontier = {frozenset(table[a][b] for a in s for b in c) for s in frontier for c in cyclic} - seen
        seen = seen | frontier
    return None


def seeded_terms(rng, p, max_degree, max_terms=6):
    """Term dict of a random augmentation element drawn from a seeded RNG.

    A word whose coefficients sum to zero mod p stays in the dict with
    coefficient 0; wrapping the dict in a polynomial drops it.
    """
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        d = rng.randint(1, max_degree)
        word = "".join(rng.choice("xy") for _ in range(d))
        terms[word] = (terms.get(word, 0) + rng.randrange(1, p)) % p
    return terms
