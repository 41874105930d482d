"""tools/bench_record.py's file assembly on canned `bench/run.py` output; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

ENV = {"seed": 1, "nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "git_commit": "abc123"}


def _run(workload, trace, metrics):
    argv = ["python3", "bench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "25", "--trace", str(trace)]
    result = {"correct": True, "attempted": 12, "failed": 0, "metrics": metrics}
    stdout = (f"# env {json.dumps(ENV)}\n# {workload}: 11 records\n"
              f"record_cal.p50     4.1 cal\n{json.dumps(result)}\n")
    return argv, 0, stdout


def test_assemble_files_each_run_by_workload_and_trace():
    e2e = {"record_cal.p50": {"value": 4.1, "unit": "cal"},
           "peak_rss_mb": {"value": 51.6, "unit": "MB"}}
    layers = {"recordio.read_s": {"value": 0.11, "unit": "s"}}
    runs = [_run("multisine_protocol", 0, e2e), _run("cli_files", 0, e2e),
            _run("cli_files", 1, layers)]

    record = bench_record.assemble(7, True, runs)

    assert record["pr"] == 7 and record["dirty"] is True
    assert record["commit"] == "abc123" and record["env"] == ENV
    assert set(record["end_to_end"]) == {"multisine_protocol", "cli_files"}
    assert record["end_to_end"]["cli_files"] == {
        "argv": runs[1][0], "exit": 0, "correct": True, "attempted": 12, "failed": 0,
        "metrics": e2e}
    assert record["per_layer"] == {"cli_files": {
        "argv": runs[2][0], "exit": 0, "correct": True, "attempted": 12, "failed": 0,
        "metrics": layers}}
    json.dumps(record)  # the file is plain JSON


def test_assemble_refuses_a_run_without_its_result_line():
    argv, _, stdout = _run("noise_broadband", 0, {})
    printed = "".join(stdout.splitlines(keepends=True)[:-1])  # run.py stopped before its result
    with pytest.raises(ValueError, match="without its env and result lines"):
        bench_record.assemble(7, False, [(argv, 3, printed)])


def _side(workload, seed, p50, records):
    """(argv, exit code, stdout, result file) of one untraced run with the given p50."""
    argv, code, stdout = _run(workload, 0, {"record_cal.p50": {"value": p50, "unit": "cal"}})
    argv[argv.index("--seed") + 1] = str(seed)
    return argv, code, stdout, {"record_s": records, "calibration_s": 0.04 * len(records)}


def test_assemble_pairs_keeps_every_run_and_counts_the_pairs_the_change_reads_lower():
    w = "noise_broadband"
    pairs = [(w, 1, "parent", {"parent": _side(w, 1, 4.4, [0.02, 0.03, 0.05]),
                               "change": _side(w, 1, 4.2, [0.02, 0.04])}),
             (w, 2, "change", {"change": _side(w, 2, 4.6, [0.01]),
                               "parent": _side(w, 2, 4.5, [0.03])})]

    section = bench_record.assemble_pairs("def456", pairs)

    assert section["parent_commit"] == "def456"
    first, second = section["runs"][w]
    assert (first["seed"], first["first"], second["seed"], second["first"]) == (
        1, "parent", 2, "change")
    assert first["parent"]["argv"] == pairs[0][3]["parent"][0]
    assert first["parent"]["commit"] == ENV["git_commit"]
    assert first["change"]["metrics"]["record_cal.p50"]["value"] == 4.2
    assert first["parent"]["record_s.p50"] == 0.03 and first["change"]["record_s.p50"] == 0.03
    assert first["parent"]["calibration_loop_s"] == pytest.approx(0.04)
    assert second["change"]["record_s.p50"] == 0.01
    assert section["summary"] == {w: {"record_cal.p50": {
        "parent_median": pytest.approx(4.45), "change_median": pytest.approx(4.4),
        "parent_q1": pytest.approx(4.425), "parent_q3": pytest.approx(4.475),
        "change_lower": 1, "pairs": 2, "unit": "cal"}}}
    json.dumps(section)  # the file is plain JSON


@pytest.mark.parametrize("parent, quartiles", [
    ([4.4], (None, None)),  # none below two pairs
    ([5.0, 1.0, 4.0, 2.0], (1.75, 4.25)),  # numpy's percentile at 25 and 75
], ids=["one_pair", "four_pairs"])
def test_assemble_pairs_gives_the_parents_inclusive_quartiles(parent, quartiles):
    w = "cli_files"
    pairs = [(w, seed, "parent", {"parent": _side(w, seed, value, [0.02]),
                                  "change": _side(w, seed, value - 0.5, [0.02])})
             for seed, value in enumerate(parent, start=1)]

    summary = bench_record.assemble_pairs("def456", pairs)["summary"][w]["record_cal.p50"]

    assert (summary["parent_q1"], summary["parent_q3"]) == pytest.approx(quartiles)
    assert summary["change_lower"] == summary["pairs"] == len(parent)
    json.dumps(summary)  # None is written as null
