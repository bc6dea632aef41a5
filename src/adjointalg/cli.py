"""Command-line front end.

One executable, `adjointalg`, with a subcommand per capability.  Outputs
are deterministic: the same invocation always writes byte-identical
payloads to stdout (or --out), with timing on stderr only.  Exit codes:
0 on success, 1 when a checked property fails to hold, 2 on usage errors,
3 when an internal invariant check fails (a bug, reported as one
``internal error:`` line on stderr).  Only ``hilbert`` writes CSV; ``--format
csv`` on any other subcommand is refused before its work starts.  A
construction whose torsion generators would pass the memory ceiling
(``linalg.MAX_GF2_BLOCK_BYTES``) exits 2 before it builds them, a ``gs-check``
whose f(tau) would pass the evaluation ceiling (``series.MAX_EVAL_BITS``)
before it is evaluated, and so does an ``--out`` file that cannot be written.
A ``width`` that no witness draw closes at its lower bound also exits 2, with
the bracket it does know on stderr and nothing on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .construction import (
    census_from_state,
    combined_ideal,
    manifest,
    run_construction,
    torsion_certificate,
)
from .factorization import factor_to_valuation, trace_to_json
from .finite import (
    AdjointGroup,
    algebra_from_json,
    cyclic_width,
    exp_bound_check,
    strictly_upper_triangular_algebra,
    truncated_polynomial_algebra,
)
from .graded import ideal_from_json, quotient_dimensions
from .selftest import DEFAULT_SEED, run_checks
from .series import census_from_json, gs_report, tail_bound_census
from .text import parse_poly


def _cmd_factor(args):
    a = parse_poly(args.a, args.p, args.cap)
    m = args.m if args.m is not None else args.cap + 1
    trace = factor_to_valuation(a, m)
    payload = trace_to_json(trace)
    text = "\n".join(
        [
            f"a: {payload['a']}",
            f"factors ({len(payload['factors'])}): " + "; ".join(payload["factors"]),
            f"residual: {payload['residual']}",
            f"residual valuation: {payload['valuation']}",
            f"correction rounds: {payload['steps']}",
        ]
    )
    return payload, None, text, 0


def _cmd_construct(args):
    state = run_construction(args.p, args.cap, args.max_elements)
    payload = manifest(state)
    payload["tool"] = {"name": "adjointalg", "version": __version__}
    text = "\n".join(
        [
            f"p={state.p} cap={state.cap} processed {state.processed} elements",
            f"I generators: {len(state.i_generators)}"
            f" at degrees {sorted(d for d, _ in state.i_generators)}",
            f"J generators: {len(state.j_generators)}",
            f"cap too small for relations: {state.cap_too_small}",
        ]
    )
    return payload, None, text, 0


def _cmd_hilbert(args):
    if args.ideal_file:
        with open(args.ideal_file) as fh:
            ideal = ideal_from_json(args.p, args.cap, json.load(fh))
    else:
        state = run_construction(args.p, args.cap, args.max_elements)
        ideal = combined_ideal(state)
    table = quotient_dimensions(ideal)
    payload = table.to_json_dict()
    text = "\n".join(
        f"degree {n}: dim {table.dimension(n)} (ideal rank {table.ideal_rank(n)})"
        for n in range(1, table.cap + 1)
    )
    return payload, table.to_csv(), text, 0


def _cmd_gs_check(args):
    if args.census_file:
        with open(args.census_file) as fh:
            census = census_from_json(json.load(fh))
    else:
        census = tail_bound_census()
    try:
        tau = Fraction(args.tau)
    except ZeroDivisionError:
        raise ValueError(f"--tau {args.tau} has a zero denominator") from None
    except ValueError as exc:  # not a number, or more digits than the interpreter converts
        raise ValueError(f"--tau: {exc}") from None
    payload = gs_report(census, tau)
    text = "\n".join(
        [
            f"tau: {payload['tau']}",
            f"f(tau): {payload['f_value_exact']} ~ {payload['f_value_decimal']:.8f}",
            f"negative: {str(payload['negative']).lower()}",
        ]
    )
    return payload, None, text, 0 if payload["negative"] else 1


def _cmd_torsion(args):
    state = run_construction(args.p, args.cap, args.max_elements)
    payload = torsion_certificate(state)
    lines = [
        f"torsion bound: {payload['torsion_bound']} (p^{payload['alpha']})",
    ]
    lines += [
        f"degree {e['degree']}: {e['element']} has order {e['order']}"
        for e in payload["classes"]
    ]
    lines.append(f"all orders divide the bound: {str(payload['ok']).lower()}")
    return payload, None, "\n".join(lines), 0 if payload["ok"] else 1


def _algebra_from_args(args):
    if args.algebra_file:
        with open(args.algebra_file) as fh:
            return algebra_from_json(json.load(fh))
    if args.family == "poly":
        return truncated_polynomial_algebra(args.p, args.n)
    return strictly_upper_triangular_algebra(args.p, args.n)


def _cmd_exponent(args):
    alg = _algebra_from_args(args)
    payload = exp_bound_check(alg)
    lines = [
        f"n={r['n']}: exponent {r['exponent']} vs bound {r['bound']}"
        f" ({'ok' if r['ok'] else 'VIOLATION'})"
        for r in payload["rows"]
    ]
    lines.append(f"sharpest ratio: {payload['sharpest_ratio']}")
    return payload, None, "\n".join(lines), 0 if payload["ok"] else 1


def _cmd_width(args):
    alg = _algebra_from_args(args)
    group = AdjointGroup(alg)
    width = cyclic_width(group, limit=args.limit)
    payload = {
        "order": group.order,
        "limit": args.limit,
        "width": width if width is not None else "EXCEEDS_LIMIT",
    }
    text = f"order: {group.order}\nwidth: {payload['width']}"
    return payload, None, text, 0 if width is not None else 1


def _cmd_selftest(args):
    results = run_checks(names=args.only or None, seed=args.seed)
    payload = [
        {
            "name": r.name,
            "ok": r.ok,
            "passed": r.passed,
            "seconds": round(r.seconds, 3),
            "budget": r.budget,
            "detail": r.detail,
        }
        for r in results
    ]
    text = "\n".join(r.line() for r in results)
    return payload, None, text, 0 if all(r.passed for r in results) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="adjointalg",
        description="Truncated free-algebra arithmetic and adjoint-group diagnostics.",
    )
    parser.add_argument("--version", action="version", version=f"adjointalg {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("json", "csv", "text"), default="json", help="output format"
    )
    common.add_argument("--out", metavar="FILE", help="write the payload to FILE instead of stdout")
    field = argparse.ArgumentParser(add_help=False, parents=[common])
    field.add_argument("--p", type=int, default=2, help="field characteristic (prime, default 2)")
    truncated = argparse.ArgumentParser(add_help=False, parents=[field])
    truncated.add_argument("--cap", type=int, default=16, help="degree cap (default 16)")

    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("factor", parents=[truncated], help="factor 1 + a into homogeneous factors")
    sp.add_argument("--a", required=True, help="polynomial text, e.g. 'x + y'")
    sp.add_argument("--m", type=int, help="target residual valuation (default cap + 1)")
    sp.set_defaults(handler=_cmd_factor)

    sp = sub.add_parser("construct", parents=[truncated], help="run the generator construction")
    sp.add_argument("--max-elements", type=int, default=10, help="enumerated elements to process")
    sp.set_defaults(handler=_cmd_construct)

    sp = sub.add_parser("hilbert", parents=[truncated], help="quotient dimensions degree by degree")
    sp.add_argument("--ideal-file", help="JSON list of [degree, polynomial-text] generators")
    sp.add_argument("--max-elements", type=int, default=10, help="construction size when no file given")
    sp.set_defaults(handler=_cmd_hilbert)

    sp = sub.add_parser("gs-check", parents=[common], help="exact series evaluation at tau")
    sp.add_argument("--tau", default="3/4", help="rational evaluation point in (0,1), e.g. 3/4")
    sp.add_argument(
        "--census-file", help="JSON census to evaluate instead of the built-in tail census"
    )
    sp.set_defaults(handler=_cmd_gs_check)

    sp = sub.add_parser("torsion", parents=[truncated], help="orders of homogeneous classes mod I + J")
    sp.add_argument("--max-elements", type=int, default=0, help="enumerated elements to process")
    sp.set_defaults(handler=_cmd_torsion)

    for name, help_text in (
        ("exponent", "congruence-quotient exponents against the linear bound"),
        ("width", "least number of cyclic subgroups covering the adjoint group"),
    ):
        sp = sub.add_parser(name, parents=[field], help=help_text)
        sp.add_argument(
            "--family",
            choices=("poly", "ut"),
            default="poly",
            help="poly: x*F_p[x]/(x^n); ut: strictly upper-triangular n x n",
        )
        sp.add_argument("--n", type=int, default=4, help="family size parameter")
        sp.add_argument("--algebra-file", help="JSON structure constants instead of a family")
        if name == "width":
            sp.add_argument("--limit", type=int, default=8, help="largest product length to try")
            sp.set_defaults(handler=_cmd_width)
        else:
            sp.set_defaults(handler=_cmd_exponent)

    sp = sub.add_parser("selftest", parents=[common], help="run the acceptance checks")
    sp.add_argument("--only", action="append", help="run only the named check (repeatable)")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for randomized checks")
    sp.set_defaults(handler=_cmd_selftest)

    return parser


def _render(args, payload, csv_text, text):
    if args.format == "json":
        return json.dumps(payload, indent=2) + "\n"
    if args.format == "csv":
        return csv_text
    return text + "\n"


def main(argv=None):
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        if args.format == "csv" and args.command != "hilbert":
            raise ValueError(f"csv output is not available for '{args.command}'")
        payload, csv_text, text, code = args.handler(args)
        rendered = _render(args, payload, csv_text, text)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(rendered)
            print(f"wrote {args.out}", file=sys.stderr)
        else:
            sys.stdout.write(rendered)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    print(f"done in {time.perf_counter() - start:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
