"""Run the benchmark once per workload and write BENCH_<pr>.json at the repository root.

    python3 tools/bench_record.py --pr N

For each workload in BENCHMARK.json this runs the unmodified benchmark command,
`python3 bench/run.py --workload <w> --seed 1 --seconds 25 --trace 0`, then one
`--trace 1` run of cli_files for the per-layer metrics.  BENCH_<pr>.json holds the
commit the tree is on and whether the tree differs from it, the environment that
run.py prints on its `# env` line, and each run's exit code, record counts and
metrics with their units, read from run.py's last line.  The host's speed swings,
so compare two files by the bounds in BENCHMARK.json, not digit by digit.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
SECONDS = 25
TRACED = "cli_files"  # the per-layer metrics come from one traced run of it


def assemble(pr: int, dirty: bool, runs: list[tuple[list[str], int, str]]) -> dict:
    """BENCH_<pr>.json's content from (argv, exit code, stdout) of each run.py run."""
    sections = {"end_to_end": {}, "per_layer": {}}
    for argv, code, stdout in runs:
        lines = stdout.strip().splitlines()
        env_lines = [line for line in lines if line.startswith("# env ")]
        if not env_lines or not lines[-1].startswith("{"):
            raise ValueError(f"{argv} exited {code} without its env and result lines")
        env = json.loads(env_lines[0][len("# env "):])  # the same in every run
        workload = argv[argv.index("--workload") + 1]
        traced = argv[argv.index("--trace") + 1] == "1"
        sections["per_layer" if traced else "end_to_end"][workload] = {
            "argv": argv, "exit": code, **json.loads(lines[-1])}
    return {"pr": pr, "commit": env["git_commit"], "dirty": dirty, "env": env, **sections}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--pr", type=int, required=True)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plan = [(w["name"], 0) for w in spec["workloads"]] + [(TRACED, 1)]
    runs = []
    for workload, trace in plan:
        argv = [*spec["command"], "--workload", workload, "--seed", str(SEED),
                "--seconds", str(SECONDS), "--trace", str(trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        runs.append((argv, proc.returncode, proc.stdout))
    status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                            cwd=ROOT, capture_output=True, text=True, check=True).stdout
    record = assemble(args.pr, bool(status.strip()), runs)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0 if all(code == 0 for _, code, _ in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
