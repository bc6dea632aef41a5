"""Command-line interface: payloads, formats, exit codes, and determinism."""

import json
import sys
import time
from fractions import Fraction

import pytest

from adjointalg import (
    cli,
    construction,
    direct_sum,
    finite,
    linalg,
    strictly_upper_triangular_algebra,
    truncated_polynomial_algebra,
)
from adjointalg.cli import main


def run_cli(capsys, *argv, seconds=None):
    """Run the CLI in-process; given ``seconds``, it must also answer within that many."""
    start = time.perf_counter()
    code = main(list(argv))
    assert seconds is None or time.perf_counter() - start < seconds
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gs_check_default_is_negative(capsys):
    code, out, err = run_cli(capsys, "gs-check")
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"] == "3/4"
    assert payload["f_value_exact"] == "-26005549747/402988728320"
    assert payload["negative"] is True
    assert "done in" in err


def test_gs_check_output_is_byte_identical_across_runs(capsys):
    _, first, _ = run_cli(capsys, "gs-check", "--tau", "3/4")
    _, second, _ = run_cli(capsys, "gs-check", "--tau", "3/4")
    assert first == second


def test_gs_check_nonnegative_point_exits_one(capsys):
    code, out, _ = run_cli(capsys, "gs-check", "--tau", "1/2")
    assert code == 1
    assert json.loads(out)["negative"] is False


def test_gs_check_invalid_tau_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "gs-check", "--tau", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_gs_check_tau_with_zero_denominator_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "gs-check", "--tau", "1/0", seconds=20)
    assert (code, out) == (2, "")
    assert err == "error: --tau 1/0 has a zero denominator\n"


def test_gs_check_tau_past_the_digit_limit_names_the_option(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run_cli(capsys, "gs-check", "--tau", "0." + "0" * 5000 + "1")
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (2, "")
    assert err.startswith("error: --tau: Exceeds the limit (4300 digits)")


def test_gs_check_refuses_a_value_past_the_largest_float(capsys, tmp_path):
    """f(3/4) of 10^400 words at degree 2 is about 5.6e399, which float() cannot hold."""
    path = tmp_path / "census.json"
    path.write_text('{"counts": {"2": 1' + "0" * 400 + "}}")
    code, out, err = run_cli(capsys, "gs-check", "--census-file", str(path), seconds=20)
    assert (code, out) == (2, "")
    assert err == (
        "error: census degree 2 at tau 3/4: |f(tau)| is past the largest float, so no decimal prints\n"
    )


def test_gs_check_census_file(capsys, tmp_path):
    path = tmp_path / "census.json"
    path.write_text(json.dumps({"counts": {"2": 1}}))
    code, out, _ = run_cli(capsys, "gs-check", "--census-file", str(path), "--tau", "1/2")
    # f(1/2) = 1 - 1 + 1/4 > 0
    assert code == 1
    assert json.loads(out)["f_value_exact"] == "1/4"


def test_factor_exact_json(capsys):
    code, out, _ = run_cli(capsys, "factor", "--a", "x + x^2", "--cap", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["a"] == "x + x^2"
    assert payload["factors"][:3] == ["x", "x^2", "x^3"]
    assert payload["valuation"] == "infinity"
    assert payload["residual"] == "0"


def test_factor_over_a_prime_past_the_trial_division_range(capsys):
    """p = 2^61 - 1 is decided by the Miller-Rabin test, not by 2^30 trial divisions."""
    code, out, _ = run_cli(
        capsys, "factor", "--p", str(2**61 - 1), "--a", "x + y", "--cap", "4", seconds=20
    )
    assert code == 0
    assert json.loads(out)["factors"] == ["x + y"]


def test_factor_partial_precision(capsys):
    code, out, _ = run_cli(capsys, "factor", "--a", "x + x^2", "--cap", "6", "--m", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["factors"] == ["x", "x^2", "x^3"]
    assert payload["residual"] == "x^4 + x^5 + x^6"
    assert payload["valuation"] == 4
    assert payload["steps"] == 1


def test_factor_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "factor", "--a", "x + x^2", "--cap", "6", "--m", "4", "--format", "text"
    )
    assert code == 0
    assert "residual valuation: 4" in out
    assert "correction rounds: 1" in out


def run_gs_check_at_digit_limit(capsys, tmp_path, census, digits):
    """gs-check on a census file while the interpreter prints at most ``digits`` digits."""
    path = tmp_path / "census.json"
    path.write_text(json.dumps(census))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        return run_cli(capsys, "gs-check", "--census-file", str(path), seconds=5)
    finally:
        sys.set_int_max_str_digits(limit)


def refuse_evaluation(*args):
    """Stands in for ``Fraction.__pow__``: every term of f(tau) past 1 - 2 tau is a power of tau."""
    raise AssertionError("f(tau) was evaluated")


@pytest.mark.parametrize(
    "census, term",
    [
        ({"counts": {"20000": 1}}, "census degree 20000"),
        ({"counts": {"30000000": 1}}, "census degree 30000000"),
        ({"counts": {"30000000": 1, "29999999": 5}}, "census degree 30000000"),
        ({"counts": {"30000000": 2, "7": 1}}, "census degree 30000000"),
        (
            {"tails": [{"kind": "one_per_degree", "start": 30000000}]},
            "one_per_degree tail field 'start' 30000000",
        ),
        ({"counts": {"30000000": 2, "29999999": 1}}, "census degree 30000000"),
        (
            {"tails": [{"kind": "geometric", "growth": 2, "step": 30000000}]},
            "geometric tail field 'step' 30000000",
        ),
        (
            {
                "tails": [
                    {"kind": "geometric", "growth": 2, "step": 30000000},
                    {"kind": "geometric", "growth": 3, "step": 30000000},
                ]
            },
            "geometric tail field 'step' 30000000",
        ),
    ],
)
def test_gs_check_refuses_a_value_past_the_digit_limit_before_evaluating_it(
    capsys, tmp_path, monkeypatch, census, term
):
    """A term of degree 30 000 000 holds 90 million bits at tau 3/4: refused unevaluated.

    A count at degree 20 000 holds 60 001 bits, under ``series.MAX_EVAL_BITS``:
    its f(3/4), with a denominator of 12 042 digits, is evaluated and then
    refused at the digit limit of 4300.
    """
    if term == "census degree 20000":
        message = (
            "f(tau) holds an integer of more than 4300 digits,"
            " past the interpreter's limit on printing one"
        )
    else:
        monkeypatch.setattr(Fraction, "__pow__", refuse_evaluation)
        message = "f(tau) would hold more than 262144 bits, past the evaluation ceiling"
    code, out, err = run_gs_check_at_digit_limit(capsys, tmp_path, census, 4300)
    assert (code, out) == (2, "")
    assert err == f"error: {term} at tau 3/4: {message}\n"


def test_gs_check_refuses_a_deep_census_without_a_digit_limit(capsys, tmp_path, monkeypatch):
    """With no digit limit (0, as on Python 3.10.0-3.10.6) the ceiling still refuses it unevaluated."""
    monkeypatch.setattr(Fraction, "__pow__", refuse_evaluation)
    code, out, err = run_gs_check_at_digit_limit(capsys, tmp_path, {"counts": {"30000000": 1}}, 0)
    assert (code, out) == (2, "")
    assert err == (
        "error: census degree 30000000 at tau 3/4: f(tau) would hold more than 262144 bits,"
        " past the evaluation ceiling\n"
    )


def test_factor_bad_polynomial_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "factor", "--a", "x +", "--cap", "6")
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(capsys, "factor", "--a", "x^9", "--cap", "6")
    assert code == 2
    for text in ("x^" + "9" * 5000, "9" * 5000 + "x"):
        code, out, err = run_cli(capsys, "factor", "--a", text, "--cap", "6")
        assert (code, out) == (2, "")
        assert err.startswith("error: number of 5000 digits is too long to read (at position ")
        assert "set_int_max_str_digits" not in err
    # A superscript digit is not a decimal digit, so it neither starts nor extends a number.
    for text, message in [
        ("x^\u00b2", "expected an exponent after '^'"),
        ("x^2\u00b2", "expected '+' or '-'"),
        ("\u00b2x", "expected a term"),
    ]:
        code, _, err = run_cli(capsys, "factor", "--a", text, "--cap", "6")
        assert code == 2
        assert err.startswith(f"error: {message}")


def test_hilbert_csv_for_free_algebra(capsys, tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text("[]")
    code, out, _ = run_cli(
        capsys, "hilbert", "--cap", "4", "--format", "csv", "--ideal-file", str(path)
    )
    assert code == 0
    assert out == "n,dim,ideal_rank\n1,2,0\n2,4,0\n3,8,0\n4,16,0\n"


def test_hilbert_with_ideal_file(capsys, tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps([[2, "xy + yx"]]))
    code, out, _ = run_cli(
        capsys, "hilbert", "--cap", "3", "--format", "csv", "--ideal-file", str(path)
    )
    assert code == 0
    assert out == "n,dim,ideal_rank\n1,2,0\n2,3,1\n3,4,4\n"


def test_hilbert_refuses_a_modulus_beyond_the_exact_kernel(capsys, tmp_path):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps([[2, "xy"]]))
    code, out, err = run_cli(
        capsys, "hilbert", "--p", "4294967311", "--cap", "3", "--ideal-file", str(path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: modulus 4294967311 is outside 2..16777216")


def test_hilbert_over_the_memory_ceiling_is_a_usage_error(capsys, tmp_path, monkeypatch):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps([[2, "xy + 2yx"]]))
    monkeypatch.setattr(linalg, "MAX_BLOCK_BYTES", 0)
    code, out, err = run_cli(
        capsys, "hilbert", "--p", "3", "--cap", "4", "--ideal-file", str(path)
    )
    assert code == 2
    assert out == ""
    # Rank 0 below, so only the 64 bytes of each of the 2 coordinates of degree 1.
    assert err.startswith("error: degree 1 component needs 128 bytes for its doubled block")


def test_torsion_generators_over_the_memory_ceiling_are_a_usage_error(capsys, monkeypatch):
    def broken(p, d, cap):
        raise AssertionError("a torsion generator was built")

    # Degree 24 holds the 8th powers of the 255 classes of degree 3: up to 2^24 terms each.
    monkeypatch.setattr(construction, "projective_class_reps", broken)
    code, out, err = run_cli(capsys, "hilbert", "--p", "2", "--cap", "24", "--max-elements", "0")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith("error: the torsion generators up to degree 24 may hold 4279173888 terms")


def test_an_out_file_that_cannot_be_written_is_a_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "dir" / "f"
    code, out, err = run_cli(capsys, "factor", "--a", "x", "--cap", "3", "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: '{target}'\n"
    assert not (tmp_path / "missing").exists()


def test_hilbert_from_construction(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "--cap", "4")
    assert code == 0
    payload = json.loads(out)
    assert [row["dim"] for row in payload["rows"]] == [2, 4, 8, 16]


def test_hilbert_missing_file_is_usage_error(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "hilbert", "--ideal-file", str(tmp_path / "nope.json")
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv,document,message",
    [
        pytest.param(
            ["hilbert", "--p", "3", "--cap", "4", "--ideal-file"],
            [[2, 5]],
            "ideal generator 0 needs an integer degree and a polynomial string",
            id="ideal-text-not-a-string",
        ),
        pytest.param(
            ["hilbert", "--p", "3", "--cap", "4", "--ideal-file"],
            [[7, "xy"]],
            "ideal generator 0 has degree 2, not the stated 7",
            id="ideal-degree-mismatch",
        ),
        pytest.param(
            ["gs-check", "--census-file"],
            {"tails": [{"kind": "one_per_degree", "start": 1}]},
            "relation counts start at degree 2, got OnePerDegreeTail(start=1) at degree 1",
            id="census-tail-at-degree-1",
        ),
        pytest.param(
            ["exponent", "--algebra-file"],
            {"p": 2, "labels": ["a", "b"], "mul": [[[0, True], [0, 0]], [[0, 0], [0, 0]]]},
            "algebra field 'mul' must be a table of integers, holds a JSON boolean",
            id="algebra-mul-bool-among-ints",
        ),
        pytest.param(
            ["gs-check", "--census-file"],
            {"tails": [{"kind": "geometric"}]},
            "geometric tail field 'growth' must be an integer",
            id="census-tail-without-growth",
        ),
        pytest.param(
            ["gs-check", "--census-file"],
            [1, 2],
            "a census must be a JSON object with fields counts and tails",
            id="census-not-an-object",
        ),
        pytest.param(
            ["gs-check", "--census-file"],
            {"counts": {"8": 3, "08": 15}},
            "census field 'counts' must map integer degrees to integers, got key '08'",
            id="census-degree-spelled-twice",
        ),
        pytest.param(
            ["gs-check", "--census-file"],
            {"tails": [{"kind": "geometric", "growth": -100, "step": 1}]},
            "geometric tail field 'growth' must be an integer >= 1, got -100",
            id="census-negative-growth",
        ),
        pytest.param(
            ["gs-check", "--census-file"],
            {"tails": [{"kind": "geometric", "growth": 2, "step": 0}]},
            "geometric tail field 'step' must be an integer >= 1, got 0",
            id="census-zero-step",
        ),
        pytest.param(
            ["exponent", "--algebra-file"],
            {"p": 2**61 - 1, "labels": ["a"], "mul": [[[0]]]},
            f"modulus {2**61 - 1} is outside 2..16777216 (2^24)",
            id="algebra-p-past-2-24",
        ),
        pytest.param(
            ["exponent", "--algebra-file"],
            {"p": 2, "labels": ["a", "b"], "mul": [[[0, 1.5], [0, 0]], [[0, 0], [0, 0]]]},
            "algebra field 'mul' must be a table of integers, read as float64",
            id="algebra-mul-fractional",
        ),
        pytest.param(
            ["width", "--algebra-file"],
            {"p": 2, "labels": ["a"]},
            "algebra field 'mul' must be a list",
            id="algebra-without-mul",
        ),
        pytest.param(
            ["width", "--algebra-file"],
            {"p": "2", "labels": ["a"], "mul": [[[0]]]},
            "algebra field 'p' must be an integer",
            id="algebra-p-a-string",
        ),
        pytest.param(
            ["width", "--algebra-file"],
            {"p": 2, "labels": ["a"], "mul": [[[None]]]},
            "algebra field 'mul' must be a table of integers",
            id="algebra-mul-holds-null",
        ),
        pytest.param(
            ["exponent", "--algebra-file"],
            [1, 2],
            "an algebra must be a JSON object with fields p, labels and mul",
            id="algebra-not-an-object",
        ),
        pytest.param(
            ["hilbert", "--p", "4", "--cap", "5", "--ideal-file"],
            [],
            "p must be prime, got 4",
            id="ideal-over-a-composite-modulus",
        ),
    ],
)
def test_malformed_input_file_is_a_usage_error(capsys, tmp_path, argv, document, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, *argv, str(path), seconds=20)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["hilbert", "--p", "1", "--cap", "5"], "p must be prime, got 1"),
        (["construct", "--p", "0", "--cap", "5"], "p must be prime, got 0"),
        (["hilbert", "--p", "4", "--cap", "5"], "p must be prime, got 4"),
        (["hilbert", "--p", "9", "--cap", "4", "--format", "csv"], "p must be prime, got 9"),
        (["torsion", "--p", "-3", "--cap", "5"], "p must be prime, got -3"),
        (["factor", "--p", "4", "--a", "x^99", "--cap", "5"], "p must be prime, got 4"),
        (["hilbert", "--cap", "0"], "degree cap must be at least 1, got 0"),
        (["construct", "--cap", "-2"], "degree cap must be at least 1, got -2"),
    ],
    ids=["p-1", "p-0", "p-4", "p-9-csv", "p-negative", "factor-p-4", "cap-0", "cap-negative"],
)
def test_a_bad_modulus_or_cap_is_refused_before_any_work(capsys, monkeypatch, argv, message):
    def broken(p):
        raise AssertionError("the construction ran")

    # The refusal comes before any construction work.
    monkeypatch.setattr(construction, "torsion_exponent", broken)
    code, out, err = run_cli(capsys, *argv, seconds=20)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_construct_manifest(capsys):
    code, out, _ = run_cli(capsys, "construct", "--cap", "14", "--max-elements", "50")
    assert code == 0
    payload = json.loads(out)
    assert payload["tool"] == {"name": "adjointalg", "version": "0.1.0"}
    assert payload["I"] == [{"degree": 14, "poly": "x^14"}]
    assert payload["processed"] == 8


def test_torsion_certificate(capsys):
    code, out, _ = run_cli(capsys, "torsion", "--cap", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert [e["order"] for e in payload["classes"]] == [8, 8, 8]


def test_exponent_families(capsys):
    code, out, _ = run_cli(capsys, "exponent", "--family", "poly", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert [r["exponent"] for r in payload["rows"]] == [2, 4, 4]
    code, out, _ = run_cli(capsys, "exponent", "--family", "ut", "--n", "3")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_an_exponent_past_the_linear_bound_is_critical_and_exits_1(capsys, monkeypatch):
    """A quotient exponent past p(n + 1) would falsify the bound: CRITICAL in the report, exit 1."""
    monkeypatch.setattr(finite.FiniteNilAlgebra, "quotient_exponents", property(lambda self: [2, 8, 4, 4]))
    report = finite.exp_bound_check(truncated_polynomial_algebra(2, 4))
    assert [r["ok"] for r in report["rows"]] == [True, False, True]
    assert (report["ok"], report["severity"], report["sharpest_ratio"]) == (False, "CRITICAL", "4/3")
    code, out, _ = run_cli(capsys, "exponent", "--family", "poly", "--n", "4", "--format", "text")
    assert code == 1
    assert "n=2: exponent 8 vs bound 6 (VIOLATION)" in out.splitlines()


def test_width_text_output(capsys):
    code, out, _ = run_cli(
        capsys, "width", "--family", "poly", "--n", "3", "--format", "text"
    )
    assert code == 0
    assert out == "order: 4\nwidth: 1\n"


def test_commutative_groups_past_the_table_ceiling_are_answered(capsys):
    # Order 8192: the width is a rank of the Frobenius map, with no group table.
    code, out, _ = run_cli(capsys, "width", "--family", "poly", "--p", "2", "--n", "14")
    assert code == 0
    assert json.loads(out) == {"order": 8192, "limit": 8, "width": 7}
    # Order 32768, past the population ceiling: powers of one matrix.
    code, out, _ = run_cli(capsys, "exponent", "--family", "poly", "--p", "2", "--n", "16")
    assert code == 0
    payload = json.loads(out)
    assert [r["exponent"] for r in payload["rows"]] == [2, 4, 4] + [8] * 4 + [16] * 8
    assert payload["ok"] is True


def test_nonabelian_group_past_the_table_ceiling_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "width", "--family", "ut", "--p", "2", "--n", "6", seconds=20)
    assert code == 2
    assert out == ""
    assert err.startswith("error: group order 32768 exceeds the limit 4096")


def test_width_past_the_associativity_ceiling_is_a_usage_error(capsys):
    # dim 199: the check would read 8 * 199^4 bytes of products, about 12.5 GB.
    code, out, err = run_cli(capsys, "width", "--family", "poly", "--n", "200")
    assert code == 2
    assert out == ""
    assert err.startswith("error: associativity check of a 199-dimensional algebra")
    assert "Traceback" not in err


def test_width_from_algebra_file_with_tight_limit(capsys, tmp_path):
    klein = direct_sum(
        truncated_polynomial_algebra(2, 2), truncated_polynomial_algebra(2, 2)
    )
    path = tmp_path / "klein.json"
    path.write_text(json.dumps(klein.to_json_dict()))
    code, out, _ = run_cli(capsys, "width", "--algebra-file", str(path), "--limit", "1")
    assert code == 1
    assert json.loads(out)["width"] == "EXCEEDS_LIMIT"
    code, out, _ = run_cli(capsys, "width", "--algebra-file", str(path))
    assert code == 0
    assert json.loads(out)["width"] == 2


def test_the_zero_dimensional_algebra_file_answers_as_its_family(capsys, tmp_path):
    # poly(2, 1) has no basis: its file holds "mul": [], which numpy reads as float64.
    path = tmp_path / "dim0.json"
    path.write_text(json.dumps(truncated_polynomial_algebra(2, 1).to_json_dict()))
    code, out, _ = run_cli(capsys, "width", "--algebra-file", str(path), "--format", "text")
    assert code == 0
    assert out == "order: 1\nwidth: 1\n"
    code, out, _ = run_cli(capsys, "exponent", "--algebra-file", str(path))
    assert code == 0
    assert out == run_cli(capsys, "exponent", "--family", "poly", "--n", "1")[1]


def test_width_the_witness_misses_is_a_usage_error_with_its_bracket(capsys, tmp_path):
    # Order 2187: the bound is 5, and a witness draw covers the group at 6 but not at 5.
    alg = direct_sum(truncated_polynomial_algebra(3, 5), strictly_upper_triangular_algebra(3, 3))
    path = tmp_path / "poly5-ut3.json"
    path.write_text(json.dumps(alg.to_json_dict()))
    code, out, err = run_cli(capsys, "width", "--algebra-file", str(path), seconds=20)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cyclic width of a group of order 2187 is in [5, 6]: ")


def test_selftest_single_check(capsys):
    code, out, _ = run_cli(
        capsys, "selftest", "--only", "series-evaluation-exact", "--format", "text"
    )
    assert code == 0
    assert out.startswith("PASS series-evaluation-exact")


def test_out_file_matches_stdout(capsys, tmp_path):
    _, stdout_payload, _ = run_cli(capsys, "gs-check")
    target = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "gs-check", "--out", str(target))
    assert code == 0
    assert out == ""
    assert f"wrote {target}" in err
    assert target.read_text() == stdout_payload


def test_csv_unavailable_for_gs_check(capsys):
    code, _, err = run_cli(capsys, "gs-check", "--format", "csv")
    assert code == 2
    assert "csv output is not available" in err


@pytest.mark.parametrize(
    "argv,handler",
    [
        (["construct", "--cap", "17", "--max-elements", "100"], "_cmd_construct"),
        (["width", "--family", "poly", "--n", "10"], "_cmd_width"),
        (["selftest"], "_cmd_selftest"),
    ],
)
def test_csv_outside_hilbert_is_refused_before_the_handler_runs(capsys, monkeypatch, argv, handler):
    def broken(args):
        raise AssertionError("the handler ran")

    monkeypatch.setattr(cli, handler, broken)
    code, out, err = run_cli(capsys, *argv, "--format", "csv", seconds=20)
    assert (code, out) == (2, "")
    assert err == f"error: csv output is not available for '{argv[0]}'\n"


def test_internal_invariant_failure_exits_three_with_one_line(capsys, monkeypatch):
    def broken(args):
        raise AssertionError("correction round failed to raise the residual valuation")

    monkeypatch.setattr(cli, "_cmd_factor", broken)
    code, out, err = run_cli(capsys, "factor", "--a", "x")
    assert code == 3
    assert out == ""
    assert err == "internal error: correction round failed to raise the residual valuation\n"


def test_unknown_flag_raises_system_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["factor", "--nope"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "argv", [["width", "--cap", "5"], ["factor", "--a", "x", "--seed", "1"]]
)
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "adjointalg 0.1.0" in capsys.readouterr().out
