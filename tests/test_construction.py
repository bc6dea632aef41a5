"""Generator construction: enumeration order, torsion powers, runs, and certificates."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adjointalg import (
    GradedIdeal,
    ResourceLimitError,
    build_j_generators,
    census_from_state,
    combined_ideal,
    compare_with_tail_bound,
    enumerate_aplus,
    format_poly,
    manifest,
    normal_form,
    projective_class_count,
    projective_class_reps,
    quotient_dimensions,
    run_construction,
    torsion_certificate,
    torsion_exponent,
)
from adjointalg import construction, freealg
from adjointalg.construction import MIN_RELATION_DEGREE, element_stream


def texts(polys):
    return [format_poly(q) for q in polys]


def test_torsion_exponent():
    assert {p: torsion_exponent(p) for p in (2, 3, 5, 7, 11, 13)} == {
        2: 3,
        3: 2,
        5: 2,
        7: 1,
        11: 1,
        13: 1,
    }


@pytest.mark.parametrize(
    "call,message",
    [
        ("torsion_exponent(1)", "p must be prime, got 1"),
        ("torsion_exponent(0)", "p must be prime, got 0"),
        ("build_j_generators(1, 8)", "p must be prime, got 1"),
        ("build_j_generators(4, 8)", "p must be prime, got 4"),
        ("build_j_generators(2, 0)", "degree cap must be at least 1, got 0"),
        ("projective_class_count(4, 1)", "p must be prime, got 4"),
    ],
)
def test_torsion_generators_refuse_a_bad_modulus(call, message):
    """In a child process with a timeout, so a call that never returns fails the test."""
    src = str(Path(construction.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    script = f"from adjointalg import build_j_generators, projective_class_count, torsion_exponent\n{call}"
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 1
    assert run.stderr.splitlines()[-1] == f"ValueError: {message}"


def test_projective_class_counts():
    assert projective_class_count(2, 1) == 3
    assert projective_class_count(2, 2) == 15
    assert projective_class_count(3, 1) == 4
    assert projective_class_count(3, 2) == 40
    assert projective_class_count(5, 1) == 6


def test_projective_reps_for_lines_over_f3():
    reps = list(projective_class_reps(3, 1, 4))
    assert texts(reps) == ["x", "y", "x + y", "x + 2y"]


@pytest.mark.parametrize("p,d", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
def test_projective_reps_hit_every_class_once(p, d):
    reps = list(projective_class_reps(p, d, d))
    assert len(reps) == projective_class_count(p, d)
    seen = set()
    for h in reps:
        line = frozenset(
            tuple(sorted((h * c).terms.items())) for c in range(1, p)
        )
        assert line not in seen
        seen.add(line)
    # together the lines exhaust the nonzero elements of the component
    assert len(seen) * (p - 1) == p ** (1 << d) - 1


def test_projective_reps_respect_cap():
    with pytest.raises(ValueError):
        next(projective_class_reps(2, 5, 4))


def test_enumeration_prefix_f2():
    first = [enumerate_aplus(2, i, 4) for i in range(1, 13)]
    assert texts(first) == [
        "x",
        "y",
        "x + y",
        "x^2",
        "xy",
        "yx",
        "y^2",
        "x + x^2",
        "x + xy",
        "x + yx",
        "x + y^2",
        "y + x^2",
    ]


def test_enumeration_prefix_f3():
    stream = element_stream(3, 3)
    first = [next(stream) for _ in range(8)]
    assert texts(first) == ["x", "2x", "y", "2y", "x + y", "x + 2y", "2x + y", "2x + 2y"]


def test_enumeration_has_no_repeats_or_zeros():
    stream = element_stream(2, 4)
    seen = set()
    for _ in range(200):
        f = next(stream)
        assert not f.is_zero
        assert f not in seen
        seen.add(f)


def test_enumerate_aplus_bounds():
    assert format_poly(enumerate_aplus(2, 3, 4)) == "x + y"
    with pytest.raises(ValueError, match="^index must be at least 1, got 0$"):
        enumerate_aplus(2, 0, 4)
    with pytest.raises(ValueError, match="exhausted"):
        enumerate_aplus(2, 4, 1)  # only x, y, x + y exist at cap 1


def test_torsion_power_generators():
    gens = build_j_generators(2, 16)
    assert [d for d, _ in gens] == [8] * 3 + [16] * 15
    assert texts(g for _, g in gens[:2]) == ["x^8", "y^8"]
    assert len(gens[2][1].terms) == 256  # (x + y)^8 expands to all 256 words
    assert [d for d, _ in build_j_generators(3, 9)] == [9, 9, 9, 9]
    assert build_j_generators(2, 7) == []  # 8th powers do not fit below degree 8


def test_run_with_small_cap_reports_torsion_only():
    state = run_construction(2, 12, 50)
    assert state.cap_too_small
    assert state.processed == 0
    assert state.i_generators == ()
    assert state.traces == ()
    assert [d for d, _ in state.j_generators] == [8, 8, 8]


def test_run_at_minimum_cap():
    state = run_construction(2, 14, 50)
    assert not state.cap_too_small
    assert state.processed == 8  # seven homogeneous elements, then x + x^2
    assert [(d, format_poly(g)) for d, g in state.i_generators] == [(14, "x^14")]
    assert state.traces[-1].target == enumerate_aplus(2, 8, 14)


def test_run_honors_element_budget():
    state = run_construction(2, 14, 3)
    assert state.processed == 3
    assert state.i_generators == ()
    with pytest.raises(ValueError):
        run_construction(2, 14, -1)


@pytest.mark.parametrize("max_elements", [2.5, None, "3", True])
def test_a_max_elements_that_is_not_an_integer_is_refused(max_elements):
    """2.5 used to process 3 elements and write 2.5 to the manifest; None raised a TypeError; True processed 1."""
    match = rf"^max_elements must be an integer, got {re.escape(repr(max_elements))}$"
    with pytest.raises(ValueError, match=match):
        run_construction(2, 16, max_elements)


def test_numpy_integer_arguments_give_the_python_int_manifest():
    state = run_construction(np.int64(2), np.int64(14), np.int64(8))
    assert json.dumps(manifest(state)) == json.dumps(manifest(run_construction(2, 14, 8)))


def test_frozen_reference_run():
    state = run_construction(2, 16, 50)
    assert state.processed == 9
    assert [(d, format_poly(g)) for d, g in state.i_generators] == [
        (14, "x^14"),
        (15, "x^15"),
        (16, "x^15y"),
    ]
    degrees = [d for d, _ in state.i_generators]
    assert len(set(degrees)) == len(degrees)
    assert all(d >= MIN_RELATION_DEGREE for d in degrees)
    assert census_from_state(state).count_dict() == {8: 3, 14: 1, 15: 1, 16: 16}


def test_construction_ideal_dimensions_through_degree_15():
    """Quotient dims of the plain cap-15 construction: the benchmark's frozen cap-17 table, cut at 15."""
    dims = quotient_dimensions(combined_ideal(run_construction(2, 15, 100))).dims
    assert dims == (2, 4, 8, 16, 32, 64, 128, 253, 503, 1000, 1988, 3952, 7856, 15616, 31040)


def test_construction_ideal_dimensions_over_f3_through_degree_14():
    """An odd-p table: the 9th powers of the degree-1 classes enter at degree 9."""
    dims = quotient_dimensions(combined_ideal(run_construction(3, 14, 100))).dims
    assert dims == (2, 4, 8, 16, 32, 64, 128, 256, 508, 1012, 2016, 4016, 8000, 15936)


def test_torsion_generators_past_the_ceiling_are_refused_before_any_is_built(monkeypatch):
    def broken(p, d, cap):
        raise AssertionError("a torsion generator was built")

    monkeypatch.setattr(construction, "projective_class_reps", broken)
    for p, cap in [(2, 24), (5, 25), (7, 21), (2, 100000)]:
        with pytest.raises(ResourceLimitError, match="torsion generators"):
            build_j_generators(p, cap)
    # The largest runs that answer within the ceiling get past the estimate.
    monkeypatch.setattr(construction, "projective_class_reps", lambda p, d, cap: iter(()))
    assert build_j_generators(3, 18) == build_j_generators(7, 14) == build_j_generators(2, 23) == []


def test_runs_are_deterministic():
    a = run_construction(2, 15, 50)
    b = run_construction(2, 15, 50)
    assert a == b
    assert json.dumps(manifest(a)) == json.dumps(manifest(b))


def test_torsion_certificate_orders():
    state = run_construction(2, 8, 10)
    cert = torsion_certificate(state)
    assert cert["torsion_bound"] == 8
    assert [e["order"] for e in cert["classes"]] == [8, 8, 8]
    assert cert["ok"]
    assert [e["element"] for e in cert["classes"]] == ["x", "y", "x + y"]


@pytest.mark.parametrize("p,cap,classes", [(2, 16, 18), (3, 14, 4)])
def test_torsion_certificate_orders_equal_the_circle_power_route(monkeypatch, p, cap, classes):
    """The certificate's power chain gives the orders that expanding (1 + h)^(p^t) - 1 gives."""
    state = run_construction(p, cap, 100)
    ideal = combined_ideal(state)
    expected = []
    for d in range(1, cap // p**state.alpha + 1):
        for h in projective_class_reps(p, d, cap):
            orders = [p**t for t in range(state.alpha + 1)
                      if normal_form(freealg.circle_pow(h, p**t), ideal).is_zero]
            expected.append(orders[0] if orders else None)
    assert len(expected) == classes

    def refuse(*args):
        raise AssertionError("the certificate expanded a circle power")

    monkeypatch.setattr(freealg, "circle_pow", refuse)
    monkeypatch.setattr(construction, "circle_pow", refuse, raising=False)
    cert = torsion_certificate(state, ideal)
    assert [e["order"] for e in cert["classes"]] == expected
    assert cert["ok"]


def test_torsion_certificate_rejects_foreign_ideal():
    state = run_construction(2, 8, 10)
    with pytest.raises(ValueError, match="context"):
        torsion_certificate(state, GradedIdeal(2, 9, []))


def test_combined_ideal_contains_both_families():
    state = run_construction(2, 14, 50)
    ideal = combined_ideal(state)
    gens = {format_poly(g) for _, g in ideal.generators}
    assert "x^14" in gens
    assert "x^8" in gens and "y^8" in gens


def test_tail_bound_comparison_shape():
    report = compare_with_tail_bound(run_construction(2, 16, 50))
    assert report["i"]["ok"] is True
    assert report["i"]["degrees"] == [14, 15, 16]
    by_d = {row["d"]: row for row in report["j"]}
    assert by_d[1]["count"] == 3 and by_d[1]["modeled_count"] == 2
    assert by_d[1]["within_model"] is False
    assert by_d[2]["count"] == 15 and by_d[2]["within_model"] is False
    assert "note" in report and "tail_census" in report


def test_manifest_shape():
    state = run_construction(2, 14, 50)
    m = manifest(state)
    assert m["p"] == 2 and m["cap"] == 14 and m["processed"] == 8
    assert m["I"] == [{"degree": 14, "poly": "x^14"}]
    assert len(m["J"]) == 3 and m["J"][0] == {"degree": 8, "poly": "x^8"}
    assert len(m["traces"]) == 8
    assert m["census"]["counts"] == {"8": 3, "14": 1}
    json.dumps(m)  # everything is JSON-serializable
