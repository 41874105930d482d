"""Steadiness check: run the benchmark on fresh seeds and report each metric's spread.

Run from the repository root:

    python3 bench/steady.py --runs 10 --sets 2 --out bench/steadiness.json

Each set runs every workload `--runs` times, each run on its own seed, with
the command and run length from BENCHMARK.json; runs of the workloads are
interleaved so a slow spell of the host touches all of them alike.  For
each end-to-end metric it reports the median, the quartiles
(statistics.quantiles(values, n=4)), the spread (q3 - q1) / median against
the metric's bound, and, from the second set on, how far the median moved
against the first set in the metric's "worse" direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    argv[0] = sys.executable if argv[0] in ("python", "python3") else argv[0]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarize(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sets = []
    seed = args.first_seed
    for set_no in range(args.sets):
        values = {w: {m: [] for m in metrics} for w in workloads}
        walls = []
        for _ in range(args.runs):
            for w in workloads:
                result = run_once(spec, w, seed)
                seed += 1
                walls.append(result["wall_s"])
                for m in metrics:
                    values[w][m].append(result["metrics"][m]["value"])
                print(f"set {set_no} {w} seed {seed - 1}: "
                      + ", ".join(f"{m}={values[w][m][-1]:.4g}" for m in metrics),
                      file=sys.stderr, flush=True)
        sets.append({
            "max_run_wall_s": max(walls),
            "workloads": {w: {m: summarize(values[w][m], metrics[m]["bound"]) for m in metrics}
                          for w in workloads},
        })

    ok = True
    for set_no, data in enumerate(sets):
        for w, per_metric in data["workloads"].items():
            for m, s in per_metric.items():
                line = (f"set {set_no} {w:<20} {m:<14} median {s['median']:.5g} "
                        f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} spread {s['spread']:.3f} "
                        f"(bound {s['bound']})")
                if s["spread"] > s["bound"]:
                    ok = False
                    line += " SPREAD OVER BOUND"
                if set_no > 0:
                    first = sets[0]["workloads"][w][m]["median"]
                    sign = 1.0 if metrics[m]["better"] == "lower" else -1.0
                    worse = sign * (s["median"] - first) / first
                    s["worse_than_set0"] = worse
                    line += f" worse-than-set-0 {worse:+.3f}"
                    if worse > s["bound"]:
                        ok = False
                        line += " MOVED OVER BOUND"
                print(line)
    if args.out:
        args.out.write_text(json.dumps({
            "run_seconds": spec["run_seconds"], "runs_per_set": args.runs,
            "first_seed": args.first_seed, "sets": sets}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
