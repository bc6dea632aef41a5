"""Acceptance gate: every registered check runs, passes, and stays inside its budget.

Each criterion prints exactly one PASS/FAIL line to the terminal, with its
measured time and budget, regardless of pytest's capture settings.
"""

import re

import pytest

from adjointalg import run_construction, selftest, truncated_polynomial_algebra, variable
from adjointalg.cli import main
from adjointalg.selftest import CHECKS, DEFAULT_SEED, run_checks

CHECK_NAMES = [name for name, _, _ in CHECKS]


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_acceptance(name, capsys):
    (result,) = run_checks(names=[name], seed=DEFAULT_SEED)
    with capsys.disabled():
        print(result.line(), flush=True)
    assert result.ok, f"{name} failed: {result.detail}"
    assert result.passed, (
        f"{name} exceeded its time budget:"
        f" {result.seconds:.2f}s vs {result.budget}s"
    )


def test_every_registered_check_has_a_unique_name():
    assert len(set(CHECK_NAMES)) == len(CHECK_NAMES) == 8


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: truncated_polynomial_algebra(2, 0), "modulus exponent must be at least 1, got 0"),
        (lambda: variable("z", 2, 3), "unknown generator 'z'; expected one of 'xy'"),
        (lambda: run_checks(names=["nope"]), "unknown check names: ['nope']"),
    ],
)
def test_a_bad_argument_is_refused_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_a_check_that_raises_is_a_failed_result(monkeypatch):
    def crash(seed):
        raise RuntimeError(f"crashed at seed {seed}")

    name, _, budget = CHECKS[0]
    monkeypatch.setattr(selftest, "CHECKS", [(name, crash, budget)])
    (result,) = run_checks(names=[name], seed=3)
    assert not result.ok
    assert result.detail == "raised RuntimeError: crashed at seed 3"


def test_a_check_that_breaks_an_invariant_exits_3(monkeypatch, capsys):
    """An AssertionError leaves run_checks, so selftest reports an internal error, not a failed check."""

    def broken(seed):
        raise AssertionError("the row at pivot 3 left bit 3 set")

    monkeypatch.setattr(selftest, "CHECKS", [(name, broken, budget) for name, _, budget in CHECKS])
    assert main(["selftest", "--format", "text"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: the row at pivot 3 left bit 3 set\n"


def test_the_construction_check_reports_the_torsion_relations_it_found(monkeypatch):
    """At cap 8 only the three relations of degree 8 exist: the check fails and its detail says so."""
    monkeypatch.setattr(selftest, "run_construction", lambda p, cap, max_elements: run_construction(p, 8, max_elements))
    ok, detail = selftest.check_construction_pipeline()
    assert not ok and "; J 3@8;" in detail
