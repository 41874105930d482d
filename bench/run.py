"""Benchmark of the fracimp identification chain.

Run from the repository root:

    python3 bench/run.py --workload multisine_protocol --seed 1 --seconds 25 --trace 0

Each workload runs in its own fresh process (worker.py) with BLAS and OpenMP
held to one thread.  --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer metrics from spans recorded around every call into a layer.  The
last line of standard output is one JSON object; the exit code is non-zero
when a correctness check fails or the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = BENCH / "out"
WORKLOADS = ("multisine_protocol", "noise_broadband", "cli_files")

# set-up time and the import breakdown are medians over this many fresh
# processes, because one cold import swings by about 20 %
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 5
# setup_s is given at the host speed where the worker's calibration loop takes
# this long: 5.0-5.5 ms on a 2-core Intel Xeon VM in its faster speed state
CAL_REFERENCE_S = 0.005
DEADLINE_S = 170.0
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_TARGET = {"cli_files": "fracimp.cli"}  # the others import the package only


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    return env


def run_child(argv: list[str], deadline: float, capture_stderr: bool = False):
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{argv[1:4]} did not finish before the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:4]} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stderr if capture_stderr else proc.stdout


def run_worker(args, deadline: float, setup_only: bool) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--spawned-at", repr(time.monotonic())]
    return json.loads(run_child(argv, deadline).strip().splitlines()[-1])


def parse_importtime(text: str) -> list[tuple]:
    """`python -X importtime` output as a forest of (name, cumulative_s, children)."""
    pending: list[tuple] = []  # (depth, node); the output lists children first
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        try:
            cumulative_us = int(fields[1])
        except ValueError:
            continue  # the header line
        raw = fields[2]
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.insert(0, pending.pop()[1])
        pending.append((depth, (raw.strip(), cumulative_us / 1e6, children)))
    return [node for _, node in pending]


def package_import_s(forest: list[tuple], package: str) -> float:
    """Cumulative import time of the outermost modules of `package`."""
    total = 0.0
    stack = list(forest)
    while stack:
        name, cumulative, children = stack.pop()
        if name == package or name.startswith(package + "."):
            total += cumulative
        else:
            stack.extend(children)
    return total


def import_breakdown(workload: str, deadline: float) -> dict:
    target = IMPORT_TARGET.get(workload, "fracimp")
    samples = {"import.total_s": [], "import.scipy_s": [], "import.jsonschema_s": []}
    for _ in range(IMPORT_SAMPLES):
        forest = parse_importtime(run_child(
            [sys.executable, "-X", "importtime", "-c", f"import {target}"],
            deadline, capture_stderr=True))
        samples["import.total_s"].append(package_import_s(forest, "fracimp"))
        samples["import.scipy_s"].append(package_import_s(forest, "scipy"))
        samples["import.jsonschema_s"].append(package_import_s(forest, "jsonschema"))
    return {name: statistics.median(values) for name, values in samples.items()}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# units of the printed metrics that BENCHMARK.json does not bound
UNITS = {
    "setup_wall_s": "s", "record_cal.p90": "cal", "record_s.p50": "s", "record_s.p90": "s",
    "records_per_s": "1/s", "z_err.p50": "ratio", "circuit_err.p50": "ratio",
    "fail_ratio": "ratio",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fracimp" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({ROOT / 'src' / 'fracimp'})",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [run_worker(args, deadline, setup_only=True) for _ in range(SETUP_SAMPLES - 1)]
        result = run_worker(args, deadline, setup_only=False)
        setups.append({k: result[k] for k in ("setup_s", "setup_cal_s")})
        imports = import_breakdown(args.workload, deadline) if args.trace else {}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    record_s = result["record_s"]
    attempted, failed = result["attempted"], result["failed"]
    # each set-up time is scaled by the calibration loop timed right after it,
    # which takes out the host's speed as record_cal does (README.md, "Metrics")
    summary = {
        "setup_s": CAL_REFERENCE_S * statistics.median(
            s["setup_s"] / s["setup_cal_s"] for s in setups),
        "setup_wall_s": statistics.median(s["setup_s"] for s in setups),
    }
    if record_s:
        summary.update({
            "record_cal.p50": statistics.median(result["record_cal"]),
            "record_cal.p75": percentile(result["record_cal"], 75),
            "record_cal.p90": percentile(result["record_cal"], 90),
            "record_s.p50": statistics.median(record_s),
            "record_s.p90": percentile(record_s, 90),
            "records_per_s": len(record_s) / (result["loop_s"] - result["calibration_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "z_err.p50": statistics.median(result["z_err"]),
        })
    if result["circuit_err"]:
        summary["circuit_err.p50"] = statistics.median(result["circuit_err"])
    summary["fail_ratio"] = failed / attempted

    # BENCHMARK.json bounds the end-to-end metrics that hold steady between
    # runs on a shared host; the rest of the summary is printed, and the error
    # medians and failures are gated (README.md, "Metrics")
    if args.trace:
        layers = {**result.get("layers", {}), **imports,
                  "estimator.z_err.p50": summary.get("z_err.p50", 0.0),
                  "ecmfit.circuit_err.p50": summary.get("circuit_err.p50", 0.0)}
        listed = spec["per_layer"]
    else:
        layers = summary
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
               for m in listed if m["name"] in layers}
    units = {**UNITS, **{m["name"]: m["unit"] for m in spec["end_to_end"]}}

    mode = "traced" if args.trace else "untraced"
    print(f"# env {json.dumps(result['env'])}")
    print(f"# {args.workload} ({mode}): {len(record_s)} records in {result['loop_s']:.2f} s, "
          f"set-up samples {[round(s['setup_s'], 4) for s in setups]} s")
    for check in result["checks"]:
        print(f"# check {check['name']}: {'ok' if check['ok'] else 'FAILED'} ({check['detail']})")
    for failure in result["failures"]:
        print(f"# failure: {failure}")
    if args.trace:  # end-to-end figures come from untraced runs only
        for name, m in metrics.items():
            print(f"{name:<28} {m['value']:.6g} {m['unit']}")
    else:
        for name, value in summary.items():
            print(f"{name:<18} {value:.6g} {units[name]}")

    payload = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    record = {**payload, "workload": args.workload, "trace": args.trace,
              "summary": summary, "setup_samples": setups, **result}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(payload))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
