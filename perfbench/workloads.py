"""The four benchmark workloads: seeded inputs, the job each input drives, and its oracle.

A job is one complete user request (certify a presentation, factor an
element, tabulate a quotient, diagnose a finite group).  Inputs are
JSON-ready dicts made from the seed alone, so the same seed always yields
byte-identical inputs.  Job ``i`` takes its shape from a fixed cycle
(``SHAPES[i % len(SHAPES)]``) and its content from its own seeded stream,
which keeps the mix of job sizes the same from seed to seed while no two
jobs share an input.  Every job's output goes through an oracle built from
``reference`` before it counts as correct.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

import adjointalg as aa

import reference as ref


def job_rng(workload, seed, index):
    """The seeded stream for one job; string seeds hash the same in every process."""
    return random.Random(f"{workload}:{seed}:{index}")


def random_word(rng, degree):
    return "".join(rng.choice("xy") for _ in range(degree))


class Workload:
    """One benchmark workload; subclasses fill in the class attributes and three methods."""

    name = ""
    why = ""
    SHAPES = ()
    CAP = None
    #: Shape and cap of the warm-up job run during set-up.
    WARM_SHAPE = None
    WARM_CAP = None
    #: Wall seconds one cycle of SHAPES takes on the reference host, oracles
    #: included; a run of ``--seconds`` measures round(seconds / CYCLE_S) cycles.
    CYCLE_S = None
    #: Jobs a traced run repeats untraced and traced; fixed so that counts repeat exactly.
    TRACE_JOBS = 0

    def make_input(self, rng, shape, cap):
        raise NotImplementedError

    def run_job(self, inp):
        raise NotImplementedError

    def check(self, inp, out):
        """None when the output is right, otherwise a one-line reason."""
        raise NotImplementedError

    def input_at(self, seed, index):
        shape = self.SHAPES[index % len(self.SHAPES)]
        return self.make_input(job_rng(self.name, seed, index), shape, self.CAP)

    def warm_up(self, seed):
        """Run one small job, so imports and first-call costs fall in set-up."""
        shape = self.WARM_SHAPE or self.SHAPES[0]
        self.run_job(self.make_input(job_rng(self.name, seed, "warm"), shape, self.WARM_CAP))


# ---------------------------------------------------------------------------


class ConstructGf2(Workload):
    name = "construct-gf2"
    why = (
        "paper pipeline at p=2 cap 17: builds the graded/Gf2RowSpace bignum components,"
        " then queries them; a seeded extra generator keeps every job's ideal distinct"
    )
    SHAPES = (9, 10, 11, 12)
    CAP = 17
    WARM_CAP = 14
    CYCLE_S = 20.0
    TRACE_JOBS = 2
    MAX_ELEMENTS = 100
    #: Quotient dimensions of the plain construction (I + J) at cap 17.
    FROZEN_DIMS = (
        2, 4, 8, 16, 32, 64, 128, 253, 503, 1000,
        1988, 3952, 7856, 15616, 31040, 61690, 122609,
    )

    def make_input(self, rng, degree, cap):
        nterms = rng.randint(2, 5)
        words = set()
        while len(words) < nterms:
            words.add(random_word(rng, degree))
        return {
            "cap": cap,
            "extra_degree": degree,
            "extra": ref.poly_text({w: 1 for w in words}),
            "denominator": rng.randint(50, 200),
            "sandwiches": [rng.getrandbits(48) for _ in range(48)],
        }

    def run_job(self, inp):
        p, cap = 2, inp["cap"]
        state = aa.run_construction(p, cap, self.MAX_ELEMENTS)
        extra = aa.parse_poly(inp["extra"], p, cap)
        gens = [g for _, g in state.i_generators + state.j_generators] + [extra]
        ideal = aa.GradedIdeal(p, cap, gens)
        table = aa.quotient_dimensions(ideal)
        counts = aa.census_from_state(state).count_dict()
        degree = extra.max_degree()
        counts[degree] = counts.get(degree, 0) + 1
        census = aa.GeneratorCensus(counts)
        holds, _ = aa.gs_recursion_check(table, census)
        tau = aa.witness_search(census, inp["denominator"])
        cert = aa.torsion_certificate(state, ideal)
        residues = []
        for k, bits in enumerate(inp["sandwiches"]):
            g = gens[k % len(gens)]
            room = cap - g.max_degree()
            left = bits % (room + 1)
            bits //= room + 1
            u = "".join("xy"[(bits >> s) & 1] for s in range(left))
            w = "".join("xy"[(bits >> (20 + s)) & 1] for s in range(room - left))
            q = aa.monomial(u, p, cap) * g * aa.monomial(w, p, cap)
            residues.append(aa.normal_form(q, ideal))
        return {
            "dims": table.dims,
            "census": counts,
            "recursion_holds": holds,
            "witness": tau,
            "certificate_ok": cert["ok"],
            "residues": residues,
        }

    def check(self, inp, out):
        dims = out["dims"]
        if len(dims) != self.CAP:
            return f"{len(dims)} dimensions for cap {self.CAP}"
        for n, (d, frozen) in enumerate(zip(dims, self.FROZEN_DIMS), start=1):
            if d > frozen:
                return f"dim {d} at degree {n} exceeds the plain construction's {frozen}"
            if n < inp["extra_degree"] and d != frozen:
                return f"dim {d} at degree {n} differs below the extra generator"
        if not out["recursion_holds"]:
            return "dimension recursion fails"
        if not out["certificate_ok"]:
            return "torsion certificate not ok"
        if any(not r.is_zero for r in out["residues"]):
            return "a generator sandwich has a nonzero normal form"
        tau = out["witness"]
        if tau is not None:
            value = 1 - 2 * tau + sum(r * tau**n for n, r in out["census"].items())
            if not (isinstance(tau, Fraction) and value < 0):
                return f"witness {tau} does not make f negative"
        return None


class FactorStream(Workload):
    name = "factor-stream"
    why = (
        "seeded augmentation elements over p in {2,3}, cap 13, 2-6 terms of degree 2-5:"
        " factor, serialize, circle-invert; loads freealg, text and factorization, no linalg"
    )
    SHAPES = tuple((p, nterms) for nterms in (2, 3, 4, 5, 6) for p in (2, 3))
    CAP = 13
    WARM_CAP = 8
    CYCLE_S = 0.063
    TRACE_JOBS = 500
    MIN_DEGREE = 2
    MAX_DEGREE = 5

    def make_input(self, rng, shape, cap):
        p, nterms = shape
        terms = {}
        while len(terms) < nterms:
            degree = rng.randint(self.MIN_DEGREE, self.MAX_DEGREE)
            # A second quadratic word makes the job up to ten times slower than the
            # rest, and the rare ones then decide the tail percentile of a run.
            if degree == self.MIN_DEGREE and any(len(w) == degree for w in terms):
                continue
            terms[random_word(rng, degree)] = rng.randrange(1, p)
        return {"p": p, "cap": cap, "a": ref.poly_text(terms), "terms": sorted(terms.items())}

    def run_job(self, inp):
        p, cap = inp["p"], inp["cap"]
        a = aa.parse_poly(inp["a"], p, cap)
        trace = aa.factor_to_valuation(a, cap + 1)
        record = aa.trace_to_json(trace)
        inverse = aa.circle_inv(a)
        return {
            "a": a,
            "factors": trace.factors,
            "record": record,
            "inverse": inverse,
            "back": aa.circle_inv(inverse),
        }

    def check(self, inp, out):
        p, cap = inp["p"], inp["cap"]
        terms = dict(inp["terms"])
        if out["a"].terms != terms:
            return "parsed element differs from the generated terms"
        factors = [h.terms for h in out["factors"]]
        if any(len({len(w) for w in h}) != 1 for h in factors):
            return "a factor is zero or not homogeneous"
        if ref.expand_one_plus(factors, p, cap) != ref.naive_add({"": 1}, terms, p):
            return "factors do not multiply back to 1 + a"
        record = out["record"]
        if record["residual"] != "0" or record["valuation"] != "infinity":
            return "serialized trace reports a nonzero residual"
        if len(record["factors"]) != len(factors):
            return "serialized trace lost factors"
        inv = out["inverse"].terms
        if ref.naive_add(ref.naive_add(terms, inv, p), ref.naive_mul(terms, inv, p, cap), p):
            return "a o a^-1 is not zero"
        if out["back"].terms != terms:
            return "double circle inverse does not return a"
        return None


class HilbertModp(Workload):
    name = "hilbert-modp"
    why = (
        "seeded two-generator ideals of degrees 2-3 over p in {3,5}, cap 10: the graded"
        " layer on the dense numpy ModpRowSpace engine, which dominates the time"
    )
    SHAPES = ((3, (2, 2)), (5, (2, 3)), (3, (3, 3)), (5, (2, 2)), (3, (2, 3)), (5, (3, 3)))
    CAP = 10
    WARM_CAP = 6
    CYCLE_S = 11.0
    TRACE_JOBS = 6
    #: The oracle re-derives ranks by plain elimination up to this degree.
    ORACLE_DEGREE = 7

    def make_input(self, rng, shape, cap):
        # Each shape has one fixed pair of dense generators.  A job applies a seeded
        # graded automorphism x -> ax + by, y -> cx + dy and then an invertible change
        # of generators.  Its ideal is new, but its Hilbert series, and with it the
        # cost of the job, is the template's.
        p, degrees = shape
        template = random.Random(f"{self.name}:template:{p}:{degrees}")
        forms = [dense_form(template, p, d) for d in degrees]
        while True:
            (a, b), (c, d) = [[rng.randrange(p) for _ in range(2)] for _ in range(2)]
            images = {"x": {"x": a, "y": b}, "y": {"x": c, "y": d}}
            low, high = (substitute(f, images, p) for f in forms)
            # Sparser images reduce faster; keep the template's density as well.
            if (a * d - b * c) % p and len(low) >= len(forms[0]) and len(high) >= len(forms[1]):
                break
        if degrees[0] == degrees[1]:
            shift = {"": rng.randrange(p)}
        else:
            shift = {"x": rng.randrange(p), "y": rng.randrange(p)}
        high = ref.naive_add(scaled(high, rng.randrange(1, p), p), ref.naive_mul(shift, low, p, cap), p)
        gens = [sorted(scaled(low, rng.randrange(1, p), p).items()), sorted(high.items())]
        return {"p": p, "cap": cap, "gens": [ref.poly_text(dict(g)) for g in gens], "terms": gens}

    def run_job(self, inp):
        p, cap = inp["p"], inp["cap"]
        gens = [aa.parse_poly(text, p, cap) for text in inp["gens"]]
        return aa.quotient_dimensions(aa.GradedIdeal(p, cap, gens)).dims

    def check(self, inp, out):
        p, cap = inp["p"], inp["cap"]
        if len(out) != cap:
            return f"{len(out)} dimensions for cap {cap}"
        gen_dicts = [dict(g) for g in inp["terms"]]
        for n in range(1, min(self.ORACLE_DEGREE, cap) + 1):
            live = [g for g in gen_dicts if len(next(iter(g))) <= n]
            rank = ref.rank_mod_p(ref.component_vectors(live, p, n), p, 1 << n)
            if (1 << n) - rank != out[n - 1]:
                return f"dim {out[n - 1]} at degree {n}, plain elimination gives {(1 << n) - rank}"
        return None


def dense_form(rng, p, degree):
    """A homogeneous term dict with seeded coefficients on every word, at least two nonzero."""
    terms = {}
    while len(terms) < 2:
        terms = {}
        for i in range(1 << degree):
            c = rng.randrange(p)
            if c:
                terms["".join("xy"[(i >> s) & 1] for s in range(degree - 1, -1, -1))] = c
    return terms


def scaled(terms, c, p):
    return {w: (v * c) % p for w, v in terms.items()}


def substitute(terms, images, p):
    """Apply the algebra map sending each letter to a linear form (term dicts over F_p)."""
    out = {}
    for word, c in terms.items():
        image = {"": c}
        for letter in word:
            image = ref.naive_mul(image, images[letter], p, len(word))
        out = ref.naive_add(out, image, p)
    return out


def _poly(p, n):
    return aa.truncated_polynomial_algebra(p, n)


def _ut(p, size):
    return aa.strictly_upper_triangular_algebra(p, size)


class FiniteGroups(Workload):
    name = "finite-groups"
    why = (
        "seeded bases of poly, ut and direct_sum algebras with group order <= 512:"
        " exponent bounds, index bounds and cyclic width; the only workload that runs finite"
    )
    #: (family, constructor arguments); every entry has cyclic width at most 4.
    SHAPES = (
        ("poly", 2, 9), ("ut", 2, 4), ("poly", 3, 6), ("sum", ("poly", 2, 3), ("poly", 2, 5)),
        ("poly", 7, 4), ("ut", 3, 3), ("sum", ("poly", 3, 3), ("poly", 3, 4)), ("poly", 2, 8),
        ("sum", ("ut", 2, 3), ("poly", 2, 4)), ("poly", 5, 4), ("sum", ("poly", 2, 4), ("poly", 2, 4)),
        ("poly", 3, 5), ("sum", ("ut", 3, 3), ("poly", 3, 2)), ("ut", 2, 3),
        ("sum", ("poly", 5, 2), ("poly", 5, 3)), ("poly", 7, 3), ("sum", ("poly", 2, 2), ("poly", 2, 6)),
    )
    WARM_SHAPE = ("ut", 2, 3)
    CYCLE_S = 3.1
    TRACE_JOBS = 17
    SPOT_CHECKS = 64

    @classmethod
    def build(cls, spec):
        family, *args = spec
        if family == "poly":
            return _poly(*args)
        if family == "ut":
            return _ut(*args)
        return aa.direct_sum(cls.build(args[0]), cls.build(args[1]))

    def make_input(self, rng, spec, cap):
        base = self.build(spec)
        p, k = base.p, base.dim
        while True:
            m = [[rng.randrange(p) for _ in range(k)] for _ in range(k)]
            inv = ref.mat_inverse_mod_p(m, p)
            if inv is not None:
                break
        # Structure constants in the basis f_i = sum_a m[i][a] e_a.
        table = np.einsum("ia,jb,abc,ct->ijt", np.array(m), np.array(m), base.table, np.array(inv)) % p
        return {
            "family": repr(spec),
            "p": p,
            "labels": [f"f{i + 1}" for i in range(k)],
            "mul": table.tolist(),
            "spot_seed": rng.getrandbits(32),
        }

    def run_job(self, inp):
        alg = aa.algebra_from_json(inp)
        report = aa.exp_bound_check(alg)
        group = aa.AdjointGroup(alg)
        width = aa.cyclic_width(group)
        index = aa.index_exponent_check(alg, width) if width else None
        return {"algebra": alg, "group": group, "exp": report, "width": width, "index": index}

    def check(self, inp, out):
        p, rows = inp["p"], inp["mul"]
        k = len(rows)
        order = p**k
        if not out["exp"]["ok"]:
            return "exponent exceeds the linear bound"
        width = out["width"]
        if width is None or out["index"] is None or not out["index"]["ok"]:
            return f"cyclic width {width} with failing index bounds"
        exponent = out["exp"]["rows"][-1]["exponent"]
        if exponent**width < order:
            return f"width {width} below log(order {order}) / log(exponent {exponent})"

        def element(i):
            return tuple((i // p ** (k - 1 - t)) % p for t in range(k))

        def index_of(v):
            i = 0
            for c in v:
                i = i * p + c
            return i

        rng = random.Random(inp["spot_seed"])
        table = out["group"].multiplication_index_table()
        for _ in range(self.SPOT_CHECKS):
            i, j = rng.randrange(order), rng.randrange(order)
            if int(table[i, j]) != index_of(ref.brute_circle(rows, p, element(i), element(j))):
                return f"multiplication table entry ({i}, {j}) disagrees with the brute product"
        for _ in range(8):
            if any(ref.brute_circle_pow(rows, p, element(rng.randrange(order)), exponent)):
                return f"an element survives the exponent {exponent}"
        return None


WORKLOADS = {w.name: w for w in (ConstructGf2(), FactorStream(), HilbertModp(), FiniteGroups())}
