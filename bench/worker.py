"""One benchmark workload, run in a fresh process by run.py.

The worker imports the program, builds its fixed inputs and reports the
set-up time together with the calibration loop's time right after it.  Unless --setup-only is given it then runs one warm-up record,
runs records back to back for --seconds (a closed loop with one client),
runs the correctness gate and prints one JSON line with the raw per-record
figures.  With --trace 1 every call into a layer is recorded as a span.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

T_START = time.monotonic()

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

# the paper's protocol record: 200 s period at 200 Hz, 5 periods
PARAMS = dict(r_s=0.551, r_ct=0.119, c_dl=1.464, sigma_w=0.0346, ocv=3.6)
PERIOD_S, FS, PERIODS, RMS, SNR = 200.0, 200.0, 5, 0.5, 50.0
F_MIN, F_MAX, PPD = 0.005, 10.0, 12
NOISE_WINDOW = (1, 2000)
ITERATIONS, N_R = 10, 1

# acceptance limits the gate applies: criterion 1 (noiseless recovery),
# criterion 2 (multisine median band-max error) and criterion 3 (noise
# excitation: 4.5 % anywhere in the window, 0.45 % over the top decade)
EXACT_TOL = 1e-6
Z_LIMIT = {"multisine_protocol": 0.005, "noise_broadband": 0.045, "cli_files": 0.005}
TOP_DECADE_LIMIT = 0.0045
CROSS_CHECK_RTOL = 1e-12

# public function -> span recorded around each call to it; the noise
# excitation is the synthesis step of its workload
FUNCTION_SPANS = {
    "design_odd_quasilog": "excitation.design",
    "synthesize_multisine": "excitation.synthesize",
    "generate_periodic_noise": "excitation.synthesize",
    "scale_to_rms": "excitation.scale",
    "simulate_response": "simulate.response",
    "add_noise": "simulate.noise",
    "per_period_spectra": "spectra.per_period",
    "nonparametric_impedance": "spectra.nonparametric",
    "wtls_estimate": "estimator.wtls",
    "parametric_impedance": "estimator.parametric",
    "fit_randles": "ecmfit.fit",
    "write_record": "recordio.write",
    "read_record": "recordio.read",
}
CLI_COMMANDS = ("simulate", "estimate", "eis", "compare", "fit")
CAL_LOOP, CAL_SAMPLES = 20_000, 1 << 16  # one calibration: about 8 ms on a 2 GHz core
SETUP_CALS = 5  # calibrations after set-up; their median scales the set-up time


class HostClock:
    """Times the steps of records, and a calibration loop after each step.

    The loop is fixed work of the kinds the chain does: Python float
    arithmetic (CSV parsing and formatting), element-wise passes (synthesis,
    scaling), an FFT (simulation, spectra), Gaussian draws (noise) and small
    SVDs (estimator).  It slows down with the host as a step does, so a
    step's time over the median of the four loop times nearest it (two
    before, two after) takes out the host's speed.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.data = rng.standard_normal(CAL_SAMPLES)
        self.matrix = rng.standard_normal((400, 8))
        self.walls: list[float] = []
        self.cals = [self.calibrate()]  # cals[j] ran just before step j

    def calibrate(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for i in range(CAL_LOOP):
            acc += i * 0.5
        np.sin(self.data).sum()
        np.sin(self.data[::-1]).sum()
        np.fft.rfft(self.data)
        np.random.default_rng(1).normal(0.0, 1.0, CAL_SAMPLES // 2)
        for _ in range(5):
            np.linalg.svd(self.matrix, full_matrices=False)
        return time.perf_counter() - start

    def time(self, step):
        """Run `step`; return its value and its index for `seconds` and `units`."""
        start = time.perf_counter()
        value = step()
        self.walls.append(time.perf_counter() - start)
        self.cals.append(self.calibrate())
        return value, len(self.walls) - 1

    def seconds(self, steps: list[int]) -> float:
        return sum(self.walls[j] for j in steps)

    def units(self, steps: list[int]) -> float:
        return sum(self.walls[j] / float(np.median(self.cals[max(j - 1, 0):j + 3]))
                   for j in steps)


def setup_calibration() -> float:
    """Median time of SETUP_CALS calibration loops run right after set-up."""
    clock = HostClock()
    return float(np.median([clock.calibrate() for _ in range(SETUP_CALS)]))


def child_seeds(seed_sequence: np.random.SeedSequence) -> list[int]:
    """Three independent seeds: excitation, current noise, voltage noise."""
    return [int(c.generate_state(1, np.uint64)[0]) for c in seed_sequence.spawn(3)]


@dataclass
class Outcome:
    """What one record produced, in the form the checks need."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    freq_hz: np.ndarray  # estimation bins
    z_est: np.ndarray  # estimated impedance at freq_hz
    fit: dict | None  # r_s, r_ct, c_dl, sigma_w; None where the workload does not fit
    fit_converged: bool
    fit_iterations: int
    wtls_iterations: int


class InProcess:
    """The identification chain called in-process, one protocol record per call."""

    def __init__(self, workload: str, tracer: Tracer | None):
        import fracimp

        self.fi = fracimp
        self.noise_excited = workload == "noise_broadband"
        self.truth = fracimp.RandlesParams(**PARAMS)
        for name, span in FUNCTION_SPANS.items():
            fn = getattr(fracimp, name)
            setattr(self, name, tracer.wrap(span, fn) if tracer else fn)

    def record(self, seeds: list[int], snr: float | None = SNR) -> Outcome:
        fi = self.fi
        if self.noise_excited:
            current = self.generate_periodic_noise(PERIOD_S, FS, PERIODS, seed=seeds[0])
            cfg = fi.EstimationConfig(bin_window=NOISE_WINDOW, n_r=N_R, iterations=ITERATIONS)
        else:
            spec = self.design_odd_quasilog(PERIOD_S, F_MIN, F_MAX, PPD, seed=seeds[0])
            current = self.synthesize_multisine(spec, FS, PERIODS)
            cfg = fi.EstimationConfig(bin_mask=spec.harmonics, n_r=N_R, iterations=ITERATIONS)
        current = self.scale_to_rms(current, RMS)
        voltage = self.simulate_response(self.truth, current)
        if snr is not None:
            current = self.add_noise(current, fi.NoiseSpec(snr=snr, seed=seeds[1]))
            voltage = self.add_noise(voltage, fi.NoiseSpec(snr=snr, seed=seeds[2]))
        spectra = self.per_period_spectra(current, voltage)
        result = self.wtls_estimate(spectra, cfg)
        curve = self.parametric_impedance(result, 2.0 * np.pi * spectra.freq_hz[result.bins])
        outcome = Outcome(result.rational.a, result.rational.b, result.transient,
                          curve.freq_hz, curve.z_ohm, None, False, 0, result.iterations_run)
        # fit_randles rejects a few SNR-50 broadband estimates as not
        # Randles-consistent (README.md, "Known defect"), so the circuit fit
        # runs on the multisine workloads only
        if not self.noise_excited:
            fit = self.fit_randles(result.rational)
            p = fit.params
            outcome.fit = dict(r_s=p.r_s, r_ct=p.r_ct, c_dl=p.c_dl, sigma_w=p.sigma_w)
            outcome.fit_converged, outcome.fit_iterations = fit.converged, fit.iterations
        return outcome

    def steps(self, seeds: list[int]) -> list:
        return [functools.partial(self.record, seeds)]

    @staticmethod
    def outcome(result: Outcome) -> Outcome:
        return result

    def gate(self, seeds: list[int]) -> list:
        """Criterion 1: a noiseless record recovers the true coefficients."""
        truth = self.fi.randles_to_rational(self.truth)
        exact = self.record(seeds, snr=None)
        worst = max(np.max(np.abs(exact.a - truth.a) / np.abs(truth.a)),
                    np.max(np.abs(exact.b - truth.b) / np.abs(truth.b)))
        transient = np.max(np.abs(exact.c)) / np.linalg.norm(truth.b)
        return [("noiseless_recovery", bool(worst < EXACT_TOL and transient < EXACT_TOL),
                 f"coefficient error {worst:.2e}, transient {transient:.2e} "
                 f"(limit {EXACT_TOL:g})")]


class CliFiles:
    """The README walkthrough, each command called through fracimp.cli.main."""

    def __init__(self, tracer: Tracer | None, workdir: Path):
        import fracimp
        import fracimp.cli as cli

        self.fi = fracimp
        self.truth = fracimp.RandlesParams(**PARAMS)
        self.dir = workdir
        self.run_dir = workdir / "run"
        if tracer:
            # the names fracimp.cli imported at load time are rebound to
            # traced wrappers, so the commands' calls into each layer show
            for name, span in FUNCTION_SPANS.items():
                if hasattr(cli, name):
                    setattr(cli, name, tracer.wrap(span, getattr(cli, name)))
            self.commands = {c: tracer.wrap(f"cli.{c}", cli.main) for c in CLI_COMMANDS}
        else:
            self.commands = {c: cli.main for c in CLI_COMMANDS}
        configs = {
            "sim.json": {
                "excitation": {"type": "multisine", "f_min_hz": F_MIN, "f_max_hz": F_MAX,
                               "points_per_decade": PPD},
                "period_s": PERIOD_S, "sample_rate_hz": FS, "periods": PERIODS, "rms_a": RMS,
                "randles": {"r_s_ohm": PARAMS["r_s"], "r_ct_ohm": PARAMS["r_ct"],
                            "c_dl_f": PARAMS["c_dl"],
                            "sigma_w_ohm_per_sqrt_s": PARAMS["sigma_w"],
                            "ocv_v": PARAMS["ocv"]},
                "snr": SNR, "seed": 0,
            },
            "est.json": {"multisine_path": str(self.run_dir / "multisine.json"),
                         "iterations": ITERATIONS, "n_r": N_R},
            "eis.json": {"multisine_path": str(self.run_dir / "multisine.json")},
        }
        for name, payload in configs.items():
            (workdir / name).write_text(json.dumps(payload))

    def steps(self, seeds: list[int]) -> list:
        """The five commands of one record, as separately timed steps."""
        d, run = self.dir, str(self.run_dir)
        argvs = {
            "simulate": ["simulate", "--config", str(d / "sim.json"), "--out", run,
                         "--seed", str(seeds[0]), "--quiet"],
            "estimate": ["estimate", "--record", f"{run}/record.csv",
                         "--config", str(d / "est.json"), "--out", run, "--quiet"],
            "eis": ["eis", "--record", f"{run}/record.csv", "--config", str(d / "eis.json"),
                    "--out", run, "--quiet"],
            "compare": ["compare", "--nonpar", f"{run}/eis.csv", "--par", f"{run}/bode.csv",
                        "--out", run, "--quiet"],
            "fit": ["fit", "--estimate", f"{run}/estimate.json", "--out", run, "--quiet"],
        }
        return [functools.partial(self.command, c, argv) for c, argv in argvs.items()]

    def command(self, name: str, argv: list[str]) -> None:
        code = self.commands[name](argv)
        if code != 0:
            raise RuntimeError(f"fracimp {name} exited with code {code}")

    def outcome(self, _=None) -> Outcome:
        """The last record's outputs, read back from its files."""
        est = json.loads((self.run_dir / "estimate.json").read_text())
        fit = json.loads((self.run_dir / "fit.json").read_text())
        spec = json.loads((self.run_dir / "multisine.json").read_text())
        freq = np.asarray(spec["harmonics"], dtype=float) / spec["period_s"]
        rational = self.fi.HalfOrderRational(a=est["a"], b=est["b"])
        p = fit["params"]
        return Outcome(rational.a, rational.b, np.asarray(est["c"]), freq,
                       self.fi.eval_rational(rational, 2.0 * np.pi * freq),
                       dict(r_s=p["r_s_ohm"], r_ct=p["r_ct_ohm"], c_dl=p["c_dl_f"],
                            sigma_w=p["sigma_w_ohm_per_sqrt_s"]),
                       bool(fit["converged"]), int(fit["iterations"]), int(est["iterations_run"]))

    def gate(self, seeds: list[int]) -> list:
        """The last record's estimate.json and fit.json against the library on its CSV."""
        fi = self.fi
        current, voltage, _ = fi.read_record(self.run_dir / "record.csv")
        spec = fi.MultisineSpec.from_dict(
            json.loads((self.run_dir / "multisine.json").read_text()))
        cfg = fi.EstimationConfig(bin_mask=spec.harmonics, n_r=N_R, iterations=ITERATIONS)
        result = fi.wtls_estimate(fi.per_period_spectra(current, voltage), cfg)
        p = fi.fit_randles(result.rational).params
        got = self.outcome()
        pairs = [(got.a, result.rational.a), (got.b, result.rational.b), (got.c, result.transient),
                 (np.array(list(got.fit.values())), np.array([p.r_s, p.r_ct, p.c_dl, p.sigma_w]))]
        worst = max(float(np.max(np.abs(x - y) / np.abs(y))) for x, y in pairs)
        return [("cli_cross_check", worst <= CROSS_CHECK_RTOL,
                 f"estimate.json/fit.json vs library on the CSV read back: worst relative "
                 f"difference {worst:.2e} (limit {CROSS_CHECK_RTOL:g})")]


def figures_of(o: Outcome, truth) -> dict:
    """A record's checked figures; raises on a non-finite or unnormalized result."""
    from fracimp import randles_impedance

    values = np.concatenate([o.a, o.b, o.c, np.abs(o.z_est), list((o.fit or {}).values())])
    if not np.all(np.isfinite(values)):
        raise FloatingPointError("non-finite estimate or circuit value")
    if o.a[0] != 1.0:
        raise ValueError(f"a_1 = {o.a[0]!r}, expected 1")
    z_true = randles_impedance(truth, 2.0 * np.pi * o.freq_hz)
    rel = np.abs(o.z_est - z_true) / np.abs(z_true)
    top = o.freq_hz >= NOISE_WINDOW[1] / PERIOD_S / 10  # criterion 3's top decade
    figures = {
        "z_err": float(np.max(rel)),
        "z_err_top_decade": float(np.max(rel[top])),
        "rows": o.freq_hz.size,
        "wtls_iterations": o.wtls_iterations,
    }
    if o.fit is not None:
        figures["circuit_err"] = max(abs(o.fit[k] / getattr(truth, k) - 1.0)
                                     for k in ("r_s", "r_ct", "c_dl", "sigma_w"))
        figures["fit_iterations"] = o.fit_iterations
        figures["fit_converged"] = o.fit_converged
    return figures


def column(records: list[dict], key: str) -> list:
    return [r[key] for r in records if key in r]


def environment(seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD's commit, read from the checkout's .git; "unknown" outside a git checkout."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head  # detached HEAD
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"  # where refs live after a clone or `git gc`
    if packed.is_file():
        for line in packed.read_text().splitlines():
            fields = line.split()
            if len(fields) == 2 and fields[1] == ref:
                return fields[0]
    return "unknown"


def layer_figures(tracer: Tracer, record_ids: list[int], records: list[dict],
                  record_s: list[float], csv_mb: float) -> dict:
    """Per-layer medians over records from the spans, plus the layers' counts."""
    own = tracer.per_record(record_ids)
    figures = {}
    for span in sorted(set(FUNCTION_SPANS.values())):
        figures[f"{span}_s"] = float(np.median(own.get(span, [0.0])))
    totals = tracer.per_record(record_ids, inclusive=True)
    cli_self = np.zeros(len(record_ids))
    for c in CLI_COMMANDS:
        figures[f"cli.{c}_s"] = float(np.median(totals.get(f"cli.{c}", [0.0])))
        cli_self += np.asarray(own.get(f"cli.{c}", [0.0] * len(record_ids)))
    figures["cli.self_s"] = float(np.median(cli_self))
    figures["estimator.iterations"] = float(np.median(column(records, "wtls_iterations")))
    figures["estimator.rows"] = float(np.median(column(records, "rows")))
    fits = column(records, "fit_iterations")
    figures["ecmfit.iterations"] = float(np.median(fits)) if fits else 0.0
    figures["ecmfit.converged_ratio"] = (float(np.mean(column(records, "fit_converged")))
                                         if fits else 0.0)
    figures["recordio.csv_mb"] = csv_mb
    timed = set(record_ids)
    spans_per_record = sum(r in timed for r in tracer.records) / len(record_ids)
    figures["trace.record_s.p50"] = float(np.median(record_s))
    figures["trace.overhead_s"] = tracer.span_cost_s() * spans_per_record
    return figures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True,
                    choices=("multisine_protocol", "noise_broadband", "cli_files"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, default=T_START,
                    help="time.monotonic() in the parent just before this process started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "cli_files":
            workload = CliFiles(tracer, workdir)
        else:
            workload = InProcess(args.workload, tracer)
        setup = {"setup_s": time.monotonic() - args.spawned_at,
                 "setup_cal_s": setup_calibration()}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        return run(args, workload, tracer, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workload, tracer: Tracer | None, setup: dict) -> int:
    root_seq = np.random.SeedSequence(args.seed)
    warm_seq, gate_seq, loop_seq = root_seq.spawn(3)
    record_steps, records, record_ids, failures = [], [], [], []
    try:  # warm-up: lazy set-up and caches, untimed
        for step in workload.steps(child_seeds(warm_seq)):
            step()
    except Exception as exc:  # counted like any record's failure
        failures.append(f"warm-up record: {type(exc).__name__}: {exc}")
    attempted = 0  # timed records; the warm-up record is added in the result
    clock = HostClock()
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < args.seconds:
        seeds = child_seeds(loop_seq.spawn(1)[0])
        attempted += 1
        if tracer:
            tracer.record_id = attempted
        steps = []
        try:
            for step in workload.steps(seeds):
                produced, index = clock.time(step)
                steps.append(index)
            figures = figures_of(workload.outcome(produced), workload.truth)
        except Exception as exc:  # any failure of a record is counted, not fatal
            failures.append(f"record {attempted}: {type(exc).__name__}: {exc}")
            continue
        record_steps.append(steps)
        records.append(figures)
        record_ids.append(attempted)
    loop_s = time.perf_counter() - loop_start
    record_s = [clock.seconds(steps) for steps in record_steps]
    record_cal = [clock.units(steps) for steps in record_steps]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        tracer.record_id = -2
    checks = []
    if records:
        try:
            checks += workload.gate(child_seeds(gate_seq))
        except Exception as exc:  # a gate that cannot run has failed
            checks.append(("gate", False, f"{type(exc).__name__}: {exc}"))
        limit = Z_LIMIT[args.workload]
        med = float(np.median(column(records, "z_err")))
        checks.append(("z_err_median", med <= limit,
                       f"median band-max error {med:.3%} (limit {limit:.2%})"))
        if args.workload == "noise_broadband":
            top = float(np.median(column(records, "z_err_top_decade")))
            checks.append(("top_decade_error", top <= TOP_DECADE_LIMIT,
                           f"median top-decade error {top:.3%} (limit {TOP_DECADE_LIMIT:.2%})"))
    else:
        checks.append(("records", False, "no record completed"))
    failures += [f"gate {name}: {detail}" for name, ok, detail in checks if not ok]

    result = {
        "env": environment(args.seed),
        **setup,
        "attempted": 1 + attempted,  # records: the warm-up and the timed ones
        "failed": len(failures),  # failed records and failed checks
        "failures": failures,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "record_s": record_s,
        "record_cal": record_cal,
        "loop_s": loop_s,
        "calibration_s": sum(clock.cals[1:]),  # the calibrations inside the loop
        "peak_rss_mb": peak_rss_mb,
        "z_err": column(records, "z_err"),
        "circuit_err": column(records, "circuit_err"),
    }
    if tracer and records:
        csv = workload.run_dir / "record.csv" if isinstance(workload, CliFiles) else None
        csv_mb = csv.stat().st_size / 1e6 if csv else 0.0
        result["layers"] = layer_figures(tracer, record_ids, records, record_s, csv_mb)
        tracer.dump(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
