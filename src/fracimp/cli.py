"""Command-line front end: design, simulate, estimate, eis, fit, compare.

Every JSON input (config, multisine spec, estimate) is read by `schema.load`
and checked against its schema below (non-finite numbers rejected, unknown
config keys rejected, errors naming the file and the key path); commands write
CSV files (`recordio.write_csv`) and JSON files (`schema.dump`) into --out.
Exit codes: 0 success, 1 usage or schema error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .ecmfit import fit_randles
from .errors import NumericsError, SchemaError
from .estimator import EstimationConfig, parametric_impedance, relative_error_curve, wtls_estimate
from .excitation import MultisineSpec, design_odd_quasilog, generate_periodic_noise, \
    scale_to_rms, synthesize_multisine
from .model import HalfOrderRational, ImpedanceCurve, RandlesParams, resonance_frequency
from .recordio import read_csv, read_record, write_csv, write_record
from .schema import POSITIVE_NUMBER, dump, load
from .simulate import NoiseSpec, add_noise, simulate_response
from .spectra import nonparametric_impedance, per_period_spectra

_BODE_GRID_POINTS = 200

_SEED = {"type": "integer", "minimum": 0}
_NUMBERS = {"type": "array", "items": {"type": "number"}}

DESIGN_SCHEMA = {
    "type": "object",
    "properties": {
        "period_s": POSITIVE_NUMBER,
        "f_min_hz": POSITIVE_NUMBER,
        "f_max_hz": POSITIVE_NUMBER,
        "points_per_decade": {"type": "integer", "minimum": 1},
        "seed": _SEED,
        "rms_a": POSITIVE_NUMBER,
        "sample_rate_hz": POSITIVE_NUMBER,
        "periods": {"type": "integer", "minimum": 1},
    },
    "required": ["period_s", "f_min_hz", "f_max_hz", "points_per_decade"],
    "dependentRequired": {"sample_rate_hz": ["periods"], "periods": ["sample_rate_hz"],
                          "rms_a": ["sample_rate_hz", "periods"]},
    "additionalProperties": False,
}

RANDLES_SCHEMA = {
    "type": "object",
    "properties": {
        "r_s_ohm": POSITIVE_NUMBER,
        "r_ct_ohm": POSITIVE_NUMBER,
        "c_dl_f": POSITIVE_NUMBER,
        "sigma_w_ohm_per_sqrt_s": POSITIVE_NUMBER,
        "ocv_v": {"type": "number"},
    },
    "required": ["r_s_ohm", "r_ct_ohm", "c_dl_f", "sigma_w_ohm_per_sqrt_s"],
    "additionalProperties": False,
}

SIMULATE_SCHEMA = {
    "type": "object",
    "properties": {
        "excitation": {
            "type": "object",
            "properties": {
                "type": {"enum": ["multisine", "noise"]},
                "multisine_path": {"type": "string"},
                "f_min_hz": POSITIVE_NUMBER,
                "f_max_hz": POSITIVE_NUMBER,
                "points_per_decade": {"type": "integer", "minimum": 1},
            },
            "required": ["type"],
            "additionalProperties": False,
        },
        "period_s": POSITIVE_NUMBER,
        "sample_rate_hz": POSITIVE_NUMBER,
        "periods": {"type": "integer", "minimum": 1},
        "rms_a": POSITIVE_NUMBER,
        "randles": RANDLES_SCHEMA,
        "snr": POSITIVE_NUMBER,
        "seed": _SEED,
    },
    "required": ["excitation", "period_s", "sample_rate_hz", "periods", "rms_a", "randles"],
    "additionalProperties": False,
}

ESTIMATE_SCHEMA = {
    "type": "object",
    "properties": {
        "n_a": {"type": "integer", "minimum": 1},
        "n_b": {"type": "integer", "minimum": 0},
        "n_r": {"type": "integer", "minimum": 0},
        "iterations": {"type": "integer", "minimum": 0},
        "k_min": {"type": "integer", "minimum": 1},
        "k_max": {"type": "integer", "minimum": 1},
        "excited_bins": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "multisine_path": {"type": "string"},
    },
    "dependentRequired": {"k_min": ["k_max"], "k_max": ["k_min"]},
    "additionalProperties": False,
}

EIS_SCHEMA = {
    "type": "object",
    "properties": {
        "multisine_path": {"type": "string"},
        "detection_factor": POSITIVE_NUMBER,
    },
    "additionalProperties": False,
}

# files one command writes and another reads: extra keys such as schema_version pass
MULTISINE_SCHEMA = {
    "type": "object",
    "properties": {
        "period_s": {"type": "number"},
        "harmonics": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "amplitudes": _NUMBERS,
        "phases": _NUMBERS,
    },
    "required": ["period_s", "harmonics", "amplitudes", "phases"],
}

RATIONAL_SCHEMA = {
    "type": "object",
    "properties": {"a": _NUMBERS, "b": _NUMBERS},
    "required": ["a", "b"],
}


def _load_config(path: str | None, schema: dict) -> dict:
    return {} if path is None else load(path, schema, "config")


def _load_multisine(path: str) -> MultisineSpec:
    try:
        return MultisineSpec.from_dict(load(path, MULTISINE_SCHEMA, "multisine spec"))
    except ValueError as exc:
        raise SchemaError(f"invalid multisine spec {path}: {exc}") from exc


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def cmd_design(args) -> int:
    cfg = _load_config(args.config, DESIGN_SCHEMA)
    seed = args.seed if args.seed is not None else cfg.get("seed")
    spec = design_odd_quasilog(
        period_s=cfg["period_s"],
        f_min_hz=cfg["f_min_hz"],
        f_max_hz=cfg["f_max_hz"],
        points_per_decade=cfg["points_per_decade"],
        seed=seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dump(out / "multisine.json", spec.to_dict())
    _say(args, f"designed {spec.harmonics.size} odd harmonics in "
               f"[{spec.freqs_hz[0]:.6g}, {spec.freqs_hz[-1]:.6g}] Hz -> "
               f"{out / 'multisine.json'}")

    if "sample_rate_hz" in cfg and "periods" in cfg:
        record = synthesize_multisine(spec, cfg["sample_rate_hz"], cfg["periods"])
        if "rms_a" in cfg:
            record = scale_to_rms(record, cfg["rms_a"])
        write_record(out / "current.csv", record)
        _say(args, f"synthesized {record.n_samples} samples -> {out / 'current.csv'}")
    return 0


def _child_seed(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1, np.uint64)[0])


def _build_excitation(cfg: dict, seed: int, config_path: str):
    exc = cfg["excitation"]
    if exc["type"] == "noise":
        record = generate_periodic_noise(
            cfg["period_s"], cfg["sample_rate_hz"], cfg["periods"], seed=seed,
        )
        return scale_to_rms(record, cfg["rms_a"]), None
    if "multisine_path" in exc:
        spec = _load_multisine(exc["multisine_path"])
        if not np.isclose(spec.period_s, cfg["period_s"], rtol=1e-12):
            raise SchemaError(f"multisine spec {exc['multisine_path']} period_s {spec.period_s} "
                              f"disagrees with config {config_path} period_s {cfg['period_s']}")
    else:
        for key in ("f_min_hz", "f_max_hz", "points_per_decade"):
            if key not in exc:
                raise SchemaError(
                    "multisine excitation needs either multisine_path or "
                    "f_min_hz/f_max_hz/points_per_decade"
                )
        spec = design_odd_quasilog(
            cfg["period_s"], exc["f_min_hz"], exc["f_max_hz"], exc["points_per_decade"],
            seed=seed,
        )
    record = synthesize_multisine(spec, cfg["sample_rate_hz"], cfg["periods"])
    return scale_to_rms(record, cfg["rms_a"]), spec


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config, SIMULATE_SCHEMA)
    seed = args.seed if args.seed is not None else cfg.get("seed")
    # independent child seeds for the excitation and the two noise channels
    children = np.random.SeedSequence(seed).spawn(3)
    current, spec = _build_excitation(cfg, _child_seed(children[0]), args.config)

    randles = RandlesParams.from_dict({"ocv_v": 3.6, **cfg["randles"]})
    voltage = simulate_response(randles, current)

    if "snr" in cfg:
        current = add_noise(current, NoiseSpec(snr=cfg["snr"], seed=_child_seed(children[1])))
        voltage = add_noise(voltage, NoiseSpec(snr=cfg["snr"], seed=_child_seed(children[2])))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if spec is not None:
        dump(out / "multisine.json", spec.to_dict())
    write_record(out / "record.csv", current, voltage, ocv_v=randles.ocv)
    _say(args, f"simulated {current.n_samples} samples -> {out / 'record.csv'}")
    return 0


def _estimation_config(cfg: dict) -> EstimationConfig:
    mask = None
    if "excited_bins" in cfg and "multisine_path" in cfg:
        raise SchemaError("give excited_bins or multisine_path, not both")
    if "excited_bins" in cfg:
        mask = np.asarray(cfg["excited_bins"], dtype=int)
    elif "multisine_path" in cfg:
        mask = _load_multisine(cfg["multisine_path"]).harmonics
    window = (cfg["k_min"], cfg["k_max"]) if "k_min" in cfg else None
    given = {key: cfg[key] for key in ("n_a", "n_b", "n_r", "iterations") if key in cfg}
    return EstimationConfig(bin_window=window, bin_mask=mask, **given)


def cmd_estimate(args) -> int:
    cfg = _load_config(args.config, ESTIMATE_SCHEMA)
    est_cfg = _estimation_config(cfg)
    current, voltage, _ = read_record(args.record)
    spectra = per_period_spectra(current, voltage)
    result = wtls_estimate(spectra, est_cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dump(out / "estimate.json", result.to_dict())

    f_sel = spectra.freq_hz[result.bins]
    grid = np.logspace(np.log10(f_sel[0]), np.log10(f_sel[-1]), _BODE_GRID_POINTS)
    freqs = np.unique(np.concatenate([grid, f_sel]))
    curve = parametric_impedance(result, 2.0 * np.pi * freqs)
    write_csv(out / "bode.csv", "freq_hz,mag_ohm,phase_deg",
              (curve.freq_hz, np.abs(curve.z_ohm), np.degrees(np.angle(curve.z_ohm))))
    write_csv(out / "nyquist.csv", "re_ohm,neg_im_ohm",
              (curve.z_ohm.real, -curve.z_ohm.imag))
    _say(args, f"estimated over {result.bins.size} bins "
               f"(weighted cost {result.weighted_cost:.6g}, "
               f"{result.iterations_run} weighted iterations) -> {out / 'estimate.json'}")
    return 0


def _detect_excited_bins(spectra, factor: float) -> np.ndarray:
    mag = np.abs(spectra.mean_current[1:])
    median = np.median(mag)
    bins = 1 + np.nonzero(mag > factor * median)[0]
    if bins.size == 0:
        raise SchemaError(
            f"no bin exceeds detection_factor {factor:g} x the median current magnitude; "
            "broadband excitation excites every bin: set detection_factor below 1 "
            "or give multisine_path")
    return bins


def cmd_eis(args) -> int:
    cfg = _load_config(args.config, EIS_SCHEMA)
    current, voltage, _ = read_record(args.record)
    spectra = per_period_spectra(current, voltage)
    if "multisine_path" in cfg:
        bins = _load_multisine(cfg["multisine_path"]).harmonics
    else:
        bins = _detect_excited_bins(spectra, cfg.get("detection_factor", 100.0))
    curve = nonparametric_impedance(spectra, bins)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "eis.csv", "freq_hz,re_ohm,im_ohm",
              (curve.freq_hz, curve.z_ohm.real, curve.z_ohm.imag))
    _say(args, f"nonparametric impedance at {curve.freq_hz.size} bins -> {out / 'eis.csv'}")
    return 0


def cmd_fit(args) -> int:
    payload = load(args.estimate, RATIONAL_SCHEMA, "estimate file")
    try:
        rational = HalfOrderRational(a=payload["a"], b=payload["b"])
    except ValueError as exc:
        raise SchemaError(f"invalid estimate file {args.estimate}: {exc}") from exc

    result = fit_randles(rational)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dump(out / "fit.json", result.to_dict())
    p = result.params
    if not args.quiet:
        print(f"{'parameter':<12}{'value':>14}")
        print(f"{'R_S [ohm]':<12}{p.r_s:>14.6g}")
        print(f"{'R_CT [ohm]':<12}{p.r_ct:>14.6g}")
        print(f"{'C_DL [F]':<12}{p.c_dl:>14.6g}")
        print(f"{'sigma [ohm/sqrt(s)]':<12}{p.sigma_w:>14.6g}")
        print(f"{'omega_res [rad/s]':<12}{resonance_frequency(p):>14.6g}")
        print(f"converged={result.converged} residual_norm={result.residual_norm:.3g}")
    return 0


def cmd_compare(args) -> int:
    nonpar = read_csv(args.nonpar, "freq_hz,re_ohm,im_ohm")
    par = read_csv(args.par, "freq_hz,mag_ohm,phase_deg")
    for path, table in ((args.nonpar, nonpar), (args.par, par)):
        if not len(table):
            raise SchemaError(f"{path}: no data rows")

    f_np = nonpar[:, 0]
    z_np = nonpar[:, 1] + 1j * nonpar[:, 2]
    f_par = par[:, 0]
    z_par = par[:, 1] * np.exp(1j * np.radians(par[:, 2]))

    idx_np, idx_par = [], []
    for i, f in enumerate(f_np):
        j = np.argmin(np.abs(f_par - f))
        if abs(f_par[j] - f) <= 1e-9 * max(f, 1.0):
            idx_np.append(i)
            idx_par.append(j)
    if not idx_np:
        raise SchemaError("nonparametric and parametric grids share no frequencies")

    ref = ImpedanceCurve(freq_hz=f_np[idx_np], z_ohm=z_np[idx_np])
    est = ImpedanceCurve(freq_hz=f_par[idx_par], z_ohm=z_par[idx_par])
    err = relative_error_curve(ref, est)
    keep = ~np.isnan(err)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "error.csv", "freq_hz,rel_error", (ref.freq_hz[keep], err[keep]))
    _say(args, f"compared {int(keep.sum())} shared frequencies -> {out / 'error.csv'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", help="output directory (default: .)")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=None, help="override the config RNG seed")

    parser = argparse.ArgumentParser(
        prog="fracimp",
        description="Fractional-order battery impedance identification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", parents=[seeded], help="design an odd quasi-log multisine")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("simulate", parents=[seeded],
                       help="simulate a battery voltage response record")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", parents=[common],
                       help="parametric impedance estimate from a record CSV")
    p.add_argument("--record", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("eis", parents=[common],
                       help="nonparametric impedance from a record CSV")
    p.add_argument("--record", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_eis)

    p = sub.add_parser("fit", parents=[common],
                       help="recover Randles circuit values from an estimate JSON")
    p.add_argument("--estimate", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("compare", parents=[common],
                       help="relative error between nonparametric and parametric curves")
    p.add_argument("--nonpar", required=True)
    p.add_argument("--par", required=True)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericsError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
