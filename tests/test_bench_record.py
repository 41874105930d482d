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
