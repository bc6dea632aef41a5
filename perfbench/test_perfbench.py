"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench`` from the repository root."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import adjointalg as aa  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
CHEAP = ("factor-stream", "hilbert-modp", "finite-groups")


def inputs_json(name, seed, count):
    w = workloads.WORKLOADS[name]
    return json.dumps([w.input_at(seed, i) for i in range(count)], sort_keys=True)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_gives_byte_identical_inputs(name):
    script = (
        f"import sys; sys.path[:0] = [{str(HERE)!r}, {str(run.SRC)!r}];"
        f" import test_perfbench as t; print(t.inputs_json({name!r}, 7, 12))"
    )
    fresh = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert fresh.stdout.strip() == inputs_json(name, 7, 12)
    assert inputs_json(name, 7, 12) != inputs_json(name, 8, 12)


def bindings():
    """Every (holder, attribute) -> object binding of a traced entry point."""
    out = {}
    for _, module, path in tracing.SPANS:
        owner, attr = tracing._resolve(module, path)
        original = getattr(owner, attr)
        holders = [owner] if isinstance(owner, type) else [
            m for n, m in sys.modules.items() if n == "adjointalg" or n.startswith("adjointalg.")
        ]
        for holder in holders:
            for key, value in vars(holder).items():
                if value is original:
                    out[(holder, key)] = value
    return out


def test_wrappers_restore_the_original_functions():
    before = bindings()
    assert len(before) > len(tracing.SPANS)  # re-exports and aliases are bound too
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(h, k) is not v for (h, k), v in before.items())
        w = workloads.WORKLOADS["hilbert-modp"]
        inp = w.make_input(workloads.job_rng(w.name, 1, 0), w.SHAPES[0], w.WARM_CAP)
        record = run.run_one(w, inp, tracer, job=0)
        assert record.error is None
    finally:
        tracer.uninstall()
    assert all(getattr(h, k) is v for (h, k), v in before.items())

    metrics = tracing.layer_metrics(tracer, 0.0)
    assert [m for m, _, _ in tracing.LAYER_METRICS] == list(metrics)
    assert metrics["graded.component.calls"]["value"] == w.WARM_CAP
    assert metrics["graded.rows_generated"]["value"] == metrics["linalg.add.calls"]["value"] > 0
    assert 0 < metrics["graded.component.self_s"]["value"] < record.seconds
    assert metrics["text.parse.calls"]["value"] == 2


def corrupt(name, out):
    if name == "factor-stream":
        out["factors"] = out["factors"][:-1]
    elif name == "hilbert-modp":
        out = out[:-4] + (out[-4] + 1,) + out[-3:]
    elif name == "finite-groups":
        out["width"] = 1
    else:
        out["residues"][0] = aa.monomial("xy", 2, 17)
    return out


@pytest.mark.parametrize("name", [*CHEAP, pytest.param("construct-gf2", marks=pytest.mark.slow)])
def test_corrupted_result_fails_the_job(name, monkeypatch):
    w = workloads.WORKLOADS[name]
    honest = w.run_job
    inp = w.input_at(3, 0)
    assert run.run_one(w, inp).error is None
    monkeypatch.setattr(w, "run_job", lambda inp: corrupt(name, honest(inp)))
    assert run.run_one(w, inp).error is not None


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, note = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and note.startswith("p90.0 of 100")
    value, note = run.tail([3.0, 1.0, 2.0])
    assert value == 3.0 and note.startswith("max of 3")


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "factor-stream", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_corrupted_result_raises_failed_share_in_the_report(monkeypatch, capsys):
    w = workloads.WORKLOADS["factor-stream"]
    honest = w.run_job
    monkeypatch.setattr(w, "run_job", lambda inp: corrupt(w.name, honest(inp)))
    summary = run.run_workload(w.name, 3, 0, 0)
    assert summary["failed"] > 0 and not summary["correct"]
    assert "failed_share 1.0000" in capsys.readouterr().out
