import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nilspace import (
    PrimeField,
    RATIONALS,
    Partition,
    counterexample_f2,
    serialize,
    shift_matrix,
    verify_all_nilpotent,
    verify_constant_rank,
    witness_conjecture,
    witness_rank_full,
    witness_rank_one,
)
from nilspace.cli import main

F5 = PrimeField(5)


# ---------------------------------------------------------------------------
# wire-format round trips

def test_field_round_trip():
    assert serialize.field_from_obj(serialize.field_to_obj(F5)) == F5
    assert serialize.field_from_obj("rational") == RATIONALS
    with pytest.raises(ValueError):
        serialize.field_from_obj({"galois": 4})


def test_matrix_round_trip():
    m = shift_matrix(3, F5)
    again = serialize.matrix_from_obj(serialize.matrix_to_obj(m))
    assert again == m
    q = serialize.matrix_from_obj(
        {"field": "rational", "rows": [[1, "1/2"], ["-2/4", 0]]}
    )
    assert q[0, 1] == q[1, 0] * -1


def test_partition_round_trip():
    p = Partition.of([3, 1])
    assert serialize.partition_from_obj(serialize.partition_to_obj(p)) == p
    with pytest.raises(ValueError):
        serialize.partition_from_obj({"n": 3, "parts": [3, 1]})


def test_space_round_trip_preserves_verification():
    space = witness_rank_full(4, F5)
    doc = serialize.space_to_obj(space)
    again = serialize.space_from_obj(doc)
    assert again == space
    assert verify_all_nilpotent(again).status == "PROVED"
    assert verify_constant_rank(again, 3).status == "PROVED"


def test_outcome_serialization_shapes():
    out = verify_all_nilpotent(counterexample_f2())
    obj = serialize.outcome_to_obj(out)
    assert obj["status"] == "PROVED"
    refuted = verify_constant_rank(
        witness_rank_one(3, F5), 2
    )
    obj = serialize.outcome_to_obj(refuted)
    assert obj["status"] == "REFUTED"
    assert obj["witness"]["coefficients"] == [0]


# ---------------------------------------------------------------------------
# CLI end-to-end

def test_cli_witness_verify_round_trip(tmp_path, capsys):
    out_file = tmp_path / "w.json"
    code = main([
        "witness", "--type", "rank-full", "--n", "4", "--field", "5",
        "--output", str(out_file),
    ])
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["dimension"] == 3
    # the witness file is directly consumable by verify
    code = main([
        "verify", "--field", "5", "--input", str(out_file),
        "--nilpotent", "--rank", "3",
    ])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["nilpotent"]["status"] == "PROVED"
    assert report["constant_rank"]["status"] == "PROVED"
    assert report["constant_rank"]["checks_performed"] == 125


def test_cli_verify_refuted_exit_code(tmp_path, capsys):
    space = {
        "field": {"prime": 5},
        "n": 2,
        "base": [[1, 0], [0, 1]],
        "directions": [[[0, 1], [0, 0]]],
    }
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(space))
    assert main(["verify", "--input", str(f), "--nilpotent"]) == 1


@pytest.mark.parametrize("argv, message", [
    (["--nilpotent", "--samples", "-1"], "must be >= 0"),
    (["--nilpotent", "--method", "random", "--samples", "0"], "sample_count >= 1"),
    (["--directions", "--method", "random", "--samples", "0"], "sample_count >= 1"),
], ids=["negative samples", "random without samples", "random directions without samples"])
def test_cli_verify_rejects_sample_counts_it_cannot_use(argv, message, tmp_path, capsys):
    f = tmp_path / "w.json"
    f.write_text(json.dumps(serialize.space_to_obj(witness_rank_full(4, F5))))
    assert main(["verify", "--input", str(f), *argv]) == 2
    assert message in capsys.readouterr().err
    # --samples 0 keeps its meaning for --method auto: no sampling fallback
    assert main(["verify", "--input", str(f), "--nilpotent", "--samples", "0"]) == 0
    assert main(["verify", "--input", str(f), "--nilpotent", "--samples", "0",
                 "--budget", "10"]) == 3


def test_cli_verify_without_samples_names_why_it_would_sample(tmp_path, capsys):
    # over Q the rank lower bound is sampled at any budget, so the refusal
    # names that, not a budget; over F_7 the grid is what exceeds the budget
    q = tmp_path / "q.json"
    q.write_text(json.dumps(serialize.space_to_obj(witness_conjecture(4, 2, RATIONALS))))
    assert main(["verify", "--input", str(q), "--rank", "2", "--samples", "0"]) == 3
    err = capsys.readouterr().err
    assert "rank lower bound" in err and "budget" not in err
    f7 = tmp_path / "w.json"
    f7.write_text(json.dumps(serialize.space_to_obj(witness_rank_full(5, PrimeField(7)))))
    assert main(["verify", "--input", str(f7), "--nilpotent", "--budget", "10",
                 "--samples", "0"]) == 3
    err = capsys.readouterr().err
    assert "46656 points" in err and "budget 10" in err and "sampled instead" not in err
    # a refused check leaves the decided ones on stdout, still with exit 3
    assert main(["verify", "--input", str(q), "--nilpotent", "--rank", "2",
                 "--samples", "0"]) == 3
    captured = capsys.readouterr()
    assert list(json.loads(captured.out)) == ["nilpotent"]
    assert json.loads(captured.out)["nilpotent"]["status"] == "PROVED"
    assert captured.err.startswith("error: constant_rank: rank lower bound")
    # every requested check runs, and each refusal is named
    assert main(["verify", "--input", str(f7), "--nilpotent", "--rank", "4", "--trace", "4",
                 "--budget", "1000", "--samples", "0"]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {}
    assert [line.split(":")[1].strip() for line in captured.err.splitlines()] == [
        "nilpotent", "constant_rank", "trace_conditions"
    ]


@pytest.mark.parametrize("method", ["grid", "exhaustive", "random"])
def test_cli_verify_rejects_a_method_no_requested_check_reads(method, tmp_path, capsys):
    # --rank, --trace and --corner choose their own points, so a --method
    # beside them alone would be silently dropped
    f = tmp_path / "w.json"
    f.write_text(json.dumps(serialize.space_to_obj(witness_rank_full(4, PrimeField(7)))))
    sampled = 3 if method == "random" else 0
    for checks in (["--rank", "3"], ["--trace", "3"], ["--corner"],
                   ["--rank", "3", "--trace", "3", "--corner"]):
        assert main(["verify", "--input", str(f), *checks, "--method", method]) == 2
        assert f"--method {method} applies only to" in capsys.readouterr().err
        assert main(["verify", "--input", str(f), *checks]) == 0
        for reader in ("--nilpotent", "--directions"):
            argv = ["verify", "--input", str(f), *checks, reader, "--method", method]
            assert main(argv) == sampled


@pytest.mark.parametrize("n", [3.9, 3.0, "3", True])
def test_cli_verify_rejects_an_n_that_is_not_a_json_integer(n, tmp_path, capsys):
    doc = serialize.space_to_obj(witness_rank_full(3, F5))
    f = tmp_path / "w.json"
    f.write_text(json.dumps(dict(doc, n=n)))
    assert main(["verify", "--input", str(f), "--nilpotent"]) == 2
    assert "n must be a JSON integer" in capsys.readouterr().err
    f.write_text(json.dumps(doc))
    assert main(["verify", "--input", str(f), "--nilpotent"]) == 0


@pytest.mark.parametrize("prime", [7.9, 5.0, "5", True])
def test_cli_verify_rejects_a_prime_that_is_not_a_json_integer(prime, tmp_path, capsys):
    # int() would read 7.9 as F_7 and "5" or 5.0 as F_5
    doc = serialize.space_to_obj(witness_rank_full(3, F5))
    f = tmp_path / "w.json"
    f.write_text(json.dumps(dict(doc, field={"prime": prime})))
    assert main(["verify", "--input", str(f), "--nilpotent"]) == 2
    assert "prime must be a JSON integer" in capsys.readouterr().err


@pytest.mark.parametrize("field, code", [({"prime": 5}, 0), ("rational", 3)], ids=["F5", "Q"])
def test_cli_verify_rejects_a_boolean_entry(field, code, tmp_path, capsys):
    # read as 1, true made a rank-one square-zero space that verified (over
    # Q its rank lower bound is only sampled, exit 3)
    f = tmp_path / "w.json"
    argv = ["verify", "--input", str(f), "--nilpotent", "--rank", "1"]
    doc = {"field": field, "n": 2, "base": [[0, 1], [0, 0]], "directions": []}
    f.write_text(json.dumps(doc))
    assert main(argv) == code
    doc["base"][0][1] = True
    f.write_text(json.dumps(doc))
    assert main(argv) == 2
    assert "cannot interpret True" in capsys.readouterr().err


def test_cli_verify_trace_and_corner(tmp_path, capsys):
    space = serialize.space_to_obj(witness_rank_full(4, PrimeField(7)))
    f = tmp_path / "w.json"
    f.write_text(json.dumps(space))
    code = main(["verify", "--input", str(f), "--corner", "--trace", "3"])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["corner_entries"]["status"] == "PROVED"
    assert report["trace_conditions"]["status"] == "PROVED"


def test_cli_verify_requires_a_check(tmp_path):
    f = tmp_path / "w.json"
    f.write_text(json.dumps(serialize.space_to_obj(witness_rank_full(3, F5))))
    assert main(["verify", "--input", str(f)]) == 2


def test_cli_bounds_json_and_warning(capsys):
    code = main(["bounds", "--n", "4", "--r", "2", "--k", "3"])
    captured = capsys.readouterr()
    assert code == 0
    bounds = {b["name"]: b for b in json.loads(captured.out)}
    assert bounds["rank_bounded"]["value"] == 5
    assert bounds["mms"]["value"] == 5
    assert bounds["conjecture"]["value"] == 3
    # hypothesis warning lands on stderr, payload unchanged
    code = main(["bounds", "--n", "4", "--r", "3", "--field", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert "rank_full" in captured.err


def test_cli_search_counterexample_field(capsys):
    code = main(["search", "--n", "2", "--r", "1", "--field", "2"])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["max_dim_found"] == 1
    assert report["status"] == "EXHAUSTIVE"
    assert "rank-1" in captured.err  # hypothesis-violation warning


@pytest.mark.parametrize("argv, warned", [
    (["--type", "conjecture", "--n", "3", "--r", "2", "--field", "2"], "rank-(n-1)"),
    (["--type", "rank-full", "--n", "3", "--field", "2"], "rank-(n-1)"),
    (["--type", "conjecture", "--n", "3", "--r", "1", "--field", "2"], "rank-1"),
    (["--type", "rank-one", "--n", "3", "--field", "2"], "rank-1"),
    (["--type", "conjecture", "--n", "4", "--r", "2", "--field", "2"], None),
    (["--type", "counterexample-f2"], None),
])
def test_cli_witness_warns_below_the_border_hypotheses_whatever_its_type(argv, warned, capsys):
    # at the border ranks a conjecture witness is the rank-full or rank-one
    # one, so it warns on the same field as they do
    assert main(["witness", *argv]) == 0
    err = capsys.readouterr().err
    if warned:
        assert warned in err and "assumes" in err
    else:
        assert err == ""


def test_cli_search_budget_exhaustion_exit_code(capsys):
    code = main([
        "search", "--n", "3", "--r", "2", "--field", "5", "--budget", "30",
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out)["status"] == "LOWER_BOUND_ONLY"
    # near MAX_PRIME the budget, not p, bounds the search: it used to raise
    # MemoryError, which exits 1 like "refuted"
    code = main([
        "search", "--n", "3", "--r", "2", "--field", str(2**61 - 1), "--budget", "10",
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out)["evaluations"] == 10


def test_cli_conjecture_exit_codes(capsys):
    assert main(["conjecture", "--n", "3", "--r", "2", "--field", "5"]) == 0
    capsys.readouterr()
    assert main(["conjecture", "--n", "2", "--r", "1", "--field", "2"]) == 1
    capsys.readouterr()
    code = main([
        "conjecture", "--n", "4", "--r", "2", "--field", "5", "--budget", "20000",
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert json.loads(captured.out)["status"] == "UNRESOLVED"


def test_cli_normalize(tmp_path, capsys):
    doc = {"field": {"prime": 5}, "rows": [[1, 0, 0], [1, 0, 0], [1, 0, 0]]}
    f = tmp_path / "m.json"
    f.write_text(json.dumps(doc))
    code = main(["normalize", "--input", str(f), "--row", "2"])
    captured = capsys.readouterr()
    assert code == 0
    out = json.loads(captured.out)
    assert out["shift_polynomial"]["coefficients"] == [4, 0]
    assert [row[0] for row in out["result"]["rows"]] == [0, 0, 1]
    # violated precondition is a usage error
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"field": {"prime": 5}, "rows": [[0, 1], [0, 1]]}))
    assert main(["normalize", "--input", str(bad), "--row", "1"]) == 2


def test_cli_usage_errors(tmp_path):
    assert main(["verify"]) == 2  # missing --input
    assert main(["bounds", "--n", "4", "--field", "6"]) == 2  # composite modulus
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["verify", "--input", str(broken), "--nilpotent"]) == 2
    missing = tmp_path / "missing.json"
    assert main(["verify", "--input", str(missing), "--nilpotent"]) == 2


def test_cli_search_options_it_decides_itself_are_gone(capsys):
    # the search always trace-prunes, each row on its own field-size bound,
    # and runs a fixed number of greedy restarts
    assert main(["search", "--n", "3", "--r", "2", "--field", "5", "--pruning", "trace"]) == 2
    assert main(["conjecture", "--n", "3", "--r", "2", "--field", "5", "--pruning", "none"]) == 2
    assert main([
        "search", "--n", "3", "--r", "2", "--field", "5", "--mode", "greedy", "--restarts", "3",
    ]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code = main([
            "search", "--n", "3", "--r", "1", "--field", "5", "--seed", "7",
            "--output", str(target),
        ])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.json", tmp_path / "d.json"
    for target in (c, d):
        main(["bounds", "--n", "6", "--r", "2", "--output", str(target)])
    assert c.read_bytes() == d.read_bytes()


def test_cli_text_and_csv_formats(capsys):
    assert main(["bounds", "--n", "4", "--r", "2", "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "gerstenhaber" in text and "{" not in text.splitlines()[0][:1]
    assert main(["bounds", "--n", "4", "--r", "2", "--format", "csv"]) == 0
    csv_out = capsys.readouterr().out
    assert csv_out.splitlines()[0].startswith("hypothesis,")


def test_cli_emitted_witness_reloads_identically(tmp_path, capsys):
    out_file = tmp_path / "ce.json"
    code = main([
        "witness", "--type", "counterexample-f2", "--output", str(out_file),
    ])
    assert code == 0
    doc = json.loads(out_file.read_text())
    space = serialize.space_from_obj(doc["space"])
    assert space == counterexample_f2()
    assert verify_all_nilpotent(space).status == "PROVED"


_NUMPY_FREE_SCRIPT = """
import contextlib, io, sys
import nilspace
from nilspace.cli import main

for argv in (
    ["search", "--n", "3", "--r", "2", "--field", "5"],
    ["conjecture", "--n", "4", "--r", "2", "--field", "5", "--budget", "1000"],
    ["witness", "--type", "rank-full", "--n", "4", "--field", "5"],
    ["bounds", "--n", "4", "--r", "2"],
):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    assert "numpy" not in sys.modules, argv
outcome = nilspace.verify_all_nilpotent(nilspace.witness_rank_full(5, nilspace.PrimeField(7)))
assert "numpy" in sys.modules
print(outcome.status, outcome.method, outcome.checks_performed)
"""


def test_small_cli_runs_never_import_numpy_and_a_batched_scan_does():
    # pure scans never load numpy; the 6**6-point grid of rank-full(5, F_7)
    # runs batched, so it imports numpy and still proves nilpotency
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-c", _NUMPY_FREE_SCRIPT], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["PROVED", "grid", "46656"]


# ---------------------------------------------------------------------------
# golden outputs: a refactor must keep stdout bytes and exit codes identical.
# A change that alters them on purpose regenerates the files with
# ``python tests/test_cli.py`` (``src`` on the path) and says so.

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = {
    # name: (argv, exit code); {rank_full} and {conjecture_q} are witness files
    "search_n3_r2_f5": (["search", "--n", "3", "--r", "2", "--field", "5"], 0),
    "search_n3_r2_f3": (["search", "--n", "3", "--r", "2", "--field", "3"], 0),
    # p < n + 1: the rank-one value n - 2, decided with the trace rows m <= 1
    "search_n4_r1_f3": (["search", "--n", "4", "--r", "1", "--field", "3"], 0),
    "search_n3_r2_f5_greedy_seed7": (
        ["search", "--n", "3", "--r", "2", "--field", "5", "--mode", "greedy",
         "--seed", "7"], 3),
    "conjecture_n4_r2_f5_b20000_seed1": (
        ["conjecture", "--n", "4", "--r", "2", "--field", "5", "--budget", "20000",
         "--seed", "1"], 3),
    "verify_rank_full_n5_f7": (
        ["verify", "--input", "{rank_full}", "--nilpotent", "--rank", "4",
         "--directions", "--trace", "4"], 0),
    "verify_conjecture_n4_r2_q": (
        ["verify", "--input", "{conjecture_q}", "--nilpotent", "--rank", "2",
         "--seed", "3"], 3),
    # rank 1: a 2-minor is nonzero on the grid; rank 3: a sampled member
    # has rank 2 < 3
    "verify_conjecture_n4_q_rank1": (
        ["verify", "--input", "{conjecture_q}", "--rank", "1"], 1),
    "verify_conjecture_n4_q_rank3_seed3": (
        ["verify", "--input", "{conjecture_q}", "--rank", "3", "--seed", "3"], 1),
    # over budget: every check falls back to sampling; at 50000 the grid
    # still proves the rank upper bound while the lower bound is sampled
    "verify_rank_full_n5_f7_budget1000_seed2": (
        ["verify", "--input", "{rank_full}", "--nilpotent", "--rank", "4",
         "--trace", "4", "--budget", "1000", "--samples", "40", "--seed", "2"], 3),
    "verify_rank_full_n5_f7_budget50000_seed2": (
        ["verify", "--input", "{rank_full}", "--nilpotent", "--rank", "4",
         "--budget", "50000", "--samples", "40", "--seed", "2"], 3),
}


def _golden_witnesses(workdir: Path) -> dict:
    """Write the witness files the verify cases read; their paths by key."""
    witnesses = {
        "rank_full": ["--type", "rank-full", "--n", "5", "--field", "7"],
        "conjecture_q": ["--type", "conjecture", "--n", "4", "--r", "2",
                         "--field", "rational"],
    }
    paths = {}
    for key, args in witnesses.items():
        paths[key] = str(workdir / f"{key}.json")
        main(["witness", *args, "--output", paths[key]])
    return paths


def _golden_run(name, paths: dict):
    """(exit code, stdout) of one golden case."""
    argv, _ = GOLDEN_CASES[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([arg.format(**paths) for arg in argv])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def golden_witnesses(tmp_path_factory):
    return _golden_witnesses(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_cli_output_matches_golden(name, golden_witnesses):
    code, out = _golden_run(name, golden_witnesses)
    assert code == GOLDEN_CASES[name][1]
    assert out == (GOLDEN / f"{name}.stdout").read_text()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        witness_paths = _golden_witnesses(Path(tmp))
        for case in sorted(GOLDEN_CASES):
            code, out = _golden_run(case, witness_paths)
            (GOLDEN / f"{case}.stdout").write_text(out)
            print(case, "exit", code, file=sys.stderr)
