"""Run the benchmark once per workload and write BENCH_<pr>.json at the repository root.

    python3 tools/bench_record.py --pr N [--pairs K]

For each workload in BENCHMARK.json this runs the unmodified benchmark command,
`python3 bench/run.py --workload <w> --seed 1 --seconds 25 --trace 0`, then one
`--trace 1` run of cli_files for the per-layer metrics.  BENCH_<pr>.json holds the
commit the tree is on and whether the tree differs from it, the environment that
run.py prints on its `# env` line, and each run's exit code, record counts and
metrics with their units, read from run.py's last line.  The host's speed swings,
so compare two files by the bounds in BENCHMARK.json, not digit by digit.

With --pairs K the untraced runs are K pairs per workload, seeds 1..K, of the
parent tree against this one, each pair's first side alternating.  The parent is
HEAD when the tracked files differ from it and HEAD~1 otherwise; it is cloned
into a temporary directory, which is removed afterwards.  The file's "pairs"
section holds every run of both sides, with the commit its tree is on, and the
median record time and mean calibration loop (`calibration_s` over the record
count) from that tree's bench/out result file; and per workload and end-to-end
metric both medians, the parent's quartiles and the number of pairs in which this
tree read lower, so a claimed gain's pair count and its median gap against the
parent's quartile distance read off the file.  This tree's seed-1 runs are the
end_to_end section.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
SECONDS = 25
TRACED = "cli_files"  # the per-layer metrics come from one traced run of it
SIDES = ("parent", "change")


def _result(argv: list[str], code: int, stdout: str) -> tuple[dict, dict]:
    """(env, run entry) of one run.py run, from its `# env` line and its last line."""
    lines = stdout.strip().splitlines()
    env_lines = [line for line in lines if line.startswith("# env ")]
    if not env_lines or not lines[-1].startswith("{"):
        raise ValueError(f"{argv} exited {code} without its env and result lines")
    return json.loads(env_lines[0][len("# env "):]), {"argv": argv, "exit": code,
                                                       **json.loads(lines[-1])}


def assemble(pr: int, dirty: bool, runs: list[tuple[list[str], int, str]]) -> dict:
    """BENCH_<pr>.json's content from (argv, exit code, stdout) of each run.py run."""
    sections = {"end_to_end": {}, "per_layer": {}}
    for argv, code, stdout in runs:
        env, entry = _result(argv, code, stdout)  # the env is the same in every run
        workload = argv[argv.index("--workload") + 1]
        traced = argv[argv.index("--trace") + 1] == "1"
        sections["per_layer" if traced else "end_to_end"][workload] = entry
    return {"pr": pr, "commit": env["git_commit"], "dirty": dirty, "env": env, **sections}


def assemble_pairs(parent: str, pairs: list[tuple[str, int, str, dict]]) -> dict:
    """The "pairs" section from (workload, seed, first side, {side: (argv, exit code,
    stdout, result file)}) of each pair; the result file is run.py's JSON record."""
    runs: dict[str, list] = {}
    for workload, seed, first, sides in pairs:
        entry = {"seed": seed, "first": first}
        for side in SIDES:
            argv, code, stdout, detail = sides[side]
            env, run = _result(argv, code, stdout)  # a run without its result line has no file
            record_s = detail["record_s"]
            entry[side] = {**run, "commit": env["git_commit"],
                           "record_s.p50": statistics.median(record_s),
                           "calibration_loop_s": detail["calibration_s"] / len(record_s)}
        runs.setdefault(workload, []).append(entry)
    summary = {}
    for workload, entries in runs.items():
        values = {side: [e[side]["metrics"] for e in entries] for side in SIDES}
        names = set.intersection(*(set(m) for side in SIDES for m in values[side]))
        summary[workload] = {name: {
            **{f"{side}_median": statistics.median(m[name]["value"] for m in values[side])
               for side in SIDES},
            **_parent_quartiles([m[name]["value"] for m in values["parent"]]),
            "change_lower": sum(c[name]["value"] < p[name]["value"]
                                for p, c in zip(values["parent"], values["change"])),
            "pairs": len(entries),
            "unit": values["change"][0][name]["unit"],
        } for name in sorted(names)}
    return {"parent_commit": parent, "runs": runs, "summary": summary}


def _parent_quartiles(values: list[float]) -> dict:
    """The parent side's first and third quartiles, inclusive as numpy's percentile
    takes them; None below two pairs."""
    if len(values) < 2:
        return {"parent_q1": None, "parent_q3": None}
    q1, _, q3 = statistics.quantiles(values, method="inclusive")
    return {"parent_q1": q1, "parent_q3": q3}


def _bench(tree: Path, command: list[str], workload: str, seed: int, trace: int):
    """(argv, exit code, stdout, result file or None) of one run.py run in `tree`."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    sys.stderr.write(proc.stderr)
    result = tree / "bench" / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    detail = json.loads(result.read_text()) if result.is_file() else None
    return argv, proc.returncode, proc.stdout, detail


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=0, help="alternating parent/change pairs")
    args = ap.parse_args(argv)
    if args.pairs < 0:
        ap.error("--pairs must be >= 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command, workloads = spec["command"], [w["name"] for w in spec["workloads"]]
    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    runs, pairs = [], []
    if args.pairs:
        parent = _git("rev-parse", "HEAD" if dirty else "HEAD~1")
        scratch = Path(tempfile.mkdtemp(prefix="bench-parent-"))
        try:
            # a clone, not a worktree: it leaves nothing in this repository's .git,
            # and bench/worker.py reads the commit from a .git directory
            _git("clone", "--quiet", "--no-checkout", str(ROOT), str(scratch / "tree"))
            _git("checkout", "--quiet", "--detach", parent, cwd=scratch / "tree")
            trees = {"parent": scratch / "tree", "change": ROOT}
            for workload in workloads:
                for seed in range(1, args.pairs + 1):
                    order = SIDES if seed % 2 else SIDES[::-1]
                    sides = {side: _bench(trees[side], command, workload, seed, 0)
                             for side in order}
                    pairs.append((workload, seed, order[0], sides))
                    if seed == SEED:
                        runs.append(sides["change"][:3])
        finally:
            shutil.rmtree(scratch)
    else:
        runs = [_bench(ROOT, command, workload, SEED, 0)[:3] for workload in workloads]
    runs.append(_bench(ROOT, command, TRACED, SEED, 1)[:3])
    record = assemble(args.pr, dirty, runs)
    if pairs:
        record["pairs"] = assemble_pairs(parent, pairs)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    every = runs + [side[:3] for *_, sides in pairs for side in sides.values()]
    return 0 if all(code == 0 for _, code, _ in every) else 1


if __name__ == "__main__":
    sys.exit(main())
