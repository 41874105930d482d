"""Command-line front end: design, simulate, estimate, eis, fit, compare.

`main` runs every command the same way: it loads the config (`{}` when there
is none), writes --seed (held to the config's seed rule) into its "seed",
calls the command and prints the progress text it returns unless --quiet.
A library warning prints as one `warning: <message>` line on stderr, --quiet or not.
A command makes --out only once its inputs are checked, and writes CSV files
(`recordio.write_csv`) and JSON files (`schema.dump`) there.
`estimate` and `eis` run one pipeline, `_estimate_on_record`: the config, the
record's spectra, then the command's estimator (`wtls_estimate` or
`nonparametric_impedance`) on that config, which selects the bins once.
`estimate` writes `bode.csv` at the frequencies it evaluated, those bins' among
them, and `compare` joins on equal frequencies; so it matches every `eis.csv` row.
Every JSON input (config, multisine spec, estimate) is read by `schema.load`
and checked against its schema, below or, for a multisine spec,
`excitation.MULTISINE_SCHEMA` (numbers outside the float range and unknown
config keys rejected, errors naming the file and the key path).
`schema.load` also reports, naming the file, the rules a schema cannot state:
strictly increasing harmonics, a_1 != 0 and whole periods (in the sidecar).
A multisine spec's period is checked against the config (`simulate`) or the
record (`estimate`, `eis`) that it excites.  `_input_error` turns a library
error into the exit-1 line (a design grid's MemoryError is `_design`'s own SchemaError):
a field in its table `_CONFIG_KEYS` is named by its config key ("rms_target
..." reads "invalid config <path>: rms_a ..."), the other errors of `design`
and `simulate` are the config's, and those of `fit` the estimate file's.
Exit codes: 0 success, 1 usage or schema error or an --out that cannot be made or
written, 2 numerical failure (a NumericsError or a numpy linear-algebra error).
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from .ecmfit import fit_randles
from .errors import NumericsError, SchemaError
from .estimator import ESTIMATE_MINIMUMS, EstimationConfig, nonparametric_impedance, \
    parametric_impedance, relative_error_curve, wtls_estimate
from .excitation import BAND, MULTISINE_SCHEMA, RECORD_GRID, MultisineSpec, \
    design_odd_quasilog, generate_periodic_noise, scale_to_rms, synthesize_multisine
from .model import RANDLES_KEYS, HalfOrderRational, ImpedanceCurve, RandlesParams, \
    resonance_frequency
from .recordio import read_csv, read_record, write_csv, write_record
from .schema import COUNT, NUMBERS, POSITIVE_NUMBER, check, dump, load
from .simulate import NoiseSpec, add_noise, simulate_response
from .spectra import per_period_spectra

_BODE_GRID_POINTS = 200
_EIS_HEADER = "freq_hz,re_ohm,im_ohm"
_BODE_HEADER = "freq_hz,mag_ohm,phase_deg"

_SEED = {"type": "integer", "minimum": 0}
# the record a design or simulate config synthesizes
_RECORD = {**RECORD_GRID, "rms_a": POSITIVE_NUMBER}

DESIGN_SCHEMA = {
    "type": "object",
    "properties": {**BAND, "seed": _SEED, **_RECORD},
    "required": ["period_s", *BAND],
    "dependentRequired": {"sample_rate_hz": ["periods"], "periods": ["sample_rate_hz"],
                          "rms_a": ["sample_rate_hz", "periods"]},
    "additionalProperties": False,
}

# the four circuit values are required and positive; the OCV is any number
*_CIRCUIT_KEYS, _OCV_KEY = RANDLES_KEYS.values()
RANDLES_SCHEMA = {
    "type": "object",
    "properties": {**dict.fromkeys(_CIRCUIT_KEYS, POSITIVE_NUMBER), _OCV_KEY: {"type": "number"}},
    "required": _CIRCUIT_KEYS,
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
                **BAND,
            },
            "required": ["type"],
            "additionalProperties": False,
        },
        **_RECORD,
        "randles": RANDLES_SCHEMA,
        "snr": POSITIVE_NUMBER,
        "seed": _SEED,
    },
    "required": ["excitation", *_RECORD, "randles"],
    "additionalProperties": False,
}

ESTIMATE_SCHEMA = {
    "type": "object",
    "properties": {
        **{key: {"type": "integer", "minimum": least} for key, least in ESTIMATE_MINIMUMS.items()},
        "k_min": COUNT,
        "k_max": COUNT,
        "excited_bins": {"type": "array", "items": COUNT},
        "multisine_path": {"type": "string"},
    },
    "dependentRequired": {"k_min": ["k_max"], "k_max": ["k_min"]},
    "additionalProperties": False,
}

# estimate.json, which fit reads: extra keys such as schema_version pass
RATIONAL_SCHEMA = {"type": "object", "properties": {"a": NUMBERS, "b": NUMBERS},
                   "required": ["a", "b"]}


def _load_multisine(path: str) -> MultisineSpec:
    return load(path, MULTISINE_SCHEMA, "multisine spec", MultisineSpec.from_dict)


def _out(args) -> Path:
    """The --out directory, made; call it once the command's inputs are checked."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _design(band: dict, period_s: float, seed, config_path, prefix: str = "") -> MultisineSpec:
    """The multisine of the band keys in `band`, which the config holds under `prefix`;
    a grid too large to allocate names the keys that size it."""
    try:
        return design_odd_quasilog(period_s, **{key: band[key] for key in BAND}, seed=seed)
    except MemoryError as exc:  # the frequency grid, not a record
        *keys, last = ["period_s", *(prefix + key for key in BAND)]
        raise SchemaError(f"invalid config {config_path}: {exc} (the design grid is sized by "
                          f"{', '.join(keys)} and {last})") from exc


def cmd_design(args, cfg: dict) -> str:
    spec = _design(cfg, cfg["period_s"], cfg.get("seed"), args.config)
    record = None
    if "periods" in cfg:  # sample_rate_hz comes with it
        record = synthesize_multisine(spec, cfg["sample_rate_hz"], cfg["periods"])
        record = scale_to_rms(record, cfg["rms_a"]) if "rms_a" in cfg else record
    out = _out(args)
    dump(out / "multisine.json", spec.to_dict())
    text = (f"designed {spec.harmonics.size} odd harmonics in "
            f"[{spec.freqs_hz[0]:.6g}, {spec.freqs_hz[-1]:.6g}] Hz -> {out / 'multisine.json'}")
    if record is None:
        return text
    write_record(out / "current.csv", record)
    return f"{text}\nsynthesized {record.n_samples} samples -> {out / 'current.csv'}"


def _child_seed(seq: np.random.SeedSequence) -> int:
    return int(seq.generate_state(1, np.uint64)[0])


def _check_spec_period(spec: MultisineSpec, spec_path: str, period_s: float, where: str):
    """SchemaError unless the spec's period is `where`'s `period_s`, to 1e-12 relative."""
    if not np.isclose(spec.period_s, period_s, rtol=1e-12, atol=0.0):
        raise SchemaError(f"multisine spec {spec_path} period_s {spec.period_s} "
                          f"disagrees with {where} period_s {period_s}")


def _build_excitation(cfg: dict, seed: int, config_path: str):
    exc = cfg["excitation"]
    noise = exc["type"] == "noise"
    # noise reads only its type; a multisine its spec file, or else its band
    unread = [key for key in exc
              if key != "type" and (noise or (key in BAND and "multisine_path" in exc))]
    if unread:
        reader = "noise excitation" if noise else "a multisine from multisine_path"
        raise ValueError(f"excitation.{unread[0]} is not read by {reader}")
    if noise:
        record = generate_periodic_noise(cfg["period_s"], cfg["sample_rate_hz"], cfg["periods"],
                                         seed=seed)
        return scale_to_rms(record, cfg["rms_a"]), None
    if "multisine_path" in exc:
        spec = _load_multisine(exc["multisine_path"])
        _check_spec_period(spec, exc["multisine_path"], cfg["period_s"], f"config {config_path}")
    elif BAND.keys() <= exc.keys():
        spec = _design(exc, cfg["period_s"], seed, config_path, "excitation.")
    else:
        raise ValueError(f"multisine excitation needs either multisine_path or {'/'.join(BAND)}")
    record = synthesize_multisine(spec, cfg["sample_rate_hz"], cfg["periods"])
    return scale_to_rms(record, cfg["rms_a"]), spec


def cmd_simulate(args, cfg: dict) -> str:
    # independent child seeds for the excitation and the two noise channels
    children = np.random.SeedSequence(cfg.get("seed")).spawn(3)
    current, spec = _build_excitation(cfg, _child_seed(children[0]), args.config)

    randles = RandlesParams.from_dict({"ocv_v": 3.6, **cfg["randles"]})
    voltage = simulate_response(randles, current)

    if "snr" in cfg:
        current = add_noise(current, NoiseSpec(snr=cfg["snr"], seed=_child_seed(children[1])))
        voltage = add_noise(voltage, NoiseSpec(snr=cfg["snr"], seed=_child_seed(children[2])))

    out = _out(args)
    if spec is not None:
        dump(out / "multisine.json", spec.to_dict())
    write_record(out / "record.csv", current, voltage, ocv_v=randles.ocv)
    return f"simulated {current.n_samples} samples -> {out / 'record.csv'}"


def _estimate_on_record(args, cfg: dict, estimator):
    """The spectra of --record and `estimator` of them under the estimate config `cfg`."""
    if "excited_bins" in cfg and "multisine_path" in cfg:
        raise SchemaError(f"invalid config {args.config}: give excited_bins or multisine_path, "
                          "not both")
    mask = cfg.get("excited_bins")  # EstimationConfig makes it an int array
    if "multisine_path" in cfg:
        spec = _load_multisine(cfg["multisine_path"])
        mask = spec.harmonics
    window = (cfg["k_min"], cfg["k_max"]) if "k_min" in cfg else None
    given = {key: cfg[key] for key in ESTIMATE_MINIMUMS if key in cfg}
    est_cfg = EstimationConfig(bin_window=window, bin_mask=mask, **given)
    current, voltage, _ = read_record(args.record)
    if "multisine_path" in cfg:
        _check_spec_period(spec, cfg["multisine_path"], current.period_s, f"record {args.record}")
    spectra = per_period_spectra(current, voltage)
    return spectra, estimator(spectra, est_cfg)


def cmd_estimate(args, cfg: dict) -> str:
    spectra, result = _estimate_on_record(args, cfg, wtls_estimate)

    out = _out(args)
    dump(out / "estimate.json", result.to_dict())

    f_sel = spectra.freq_hz[result.bins]
    grid = np.logspace(np.log10(f_sel[0]), np.log10(f_sel[-1]), _BODE_GRID_POINTS)
    freqs = np.unique(np.concatenate([grid, f_sel]))
    curve = parametric_impedance(result, 2.0 * np.pi * freqs)
    # freqs, not curve.freq_hz, whose omega / (2 pi) can miss k / period_s by an ulp
    write_csv(out / "bode.csv", _BODE_HEADER,
              (freqs, np.abs(curve.z_ohm), np.degrees(np.angle(curve.z_ohm))))
    write_csv(out / "nyquist.csv", "re_ohm,neg_im_ohm",
              (curve.z_ohm.real, -curve.z_ohm.imag))
    stop = {True: ", converged", False: ", not converged", None: ""}[result.converged]
    return (f"estimated over {result.bins.size} bins (weighted cost {result.weighted_cost:.6g}, "
            f"{result.iterations_run} weighted iterations{stop}) -> {out / 'estimate.json'}")


def cmd_eis(args, cfg: dict) -> str:
    _, curve = _estimate_on_record(args, cfg, nonparametric_impedance)

    out = _out(args)
    write_csv(out / "eis.csv", _EIS_HEADER, (curve.freq_hz, curve.z_ohm.real, curve.z_ohm.imag))
    return f"nonparametric impedance at {curve.freq_hz.size} bins -> {out / 'eis.csv'}"


def cmd_fit(args, cfg: dict) -> str:
    result = fit_randles(load(args.estimate, RATIONAL_SCHEMA, "estimate file",
                              lambda d: HalfOrderRational(a=d["a"], b=d["b"])))
    dump(_out(args) / "fit.json", result.to_dict())
    p = result.params
    rows = (("R_S [ohm]", p.r_s), ("R_CT [ohm]", p.r_ct), ("C_DL [F]", p.c_dl),
            ("sigma [ohm/sqrt(s)]", p.sigma_w), ("omega_res [rad/s]", resonance_frequency(p)))
    width = max(len(name) for name, _ in rows)
    return "\n".join([f"{'parameter':<{width}}{'value':>14}",
                      *(f"{name:<{width}}{value:>14.6g}" for name, value in rows),
                      f"converged={result.converged} residual_norm={result.residual_norm:.3g}"])


def cmd_compare(args, cfg: dict) -> str:
    nonpar = read_csv(args.nonpar, _EIS_HEADER)
    par = read_csv(args.par, _BODE_HEADER)
    for path, table in ((args.nonpar, nonpar), (args.par, par)):
        if not len(table):
            raise SchemaError(f"{path}: no data rows")

    f_np = nonpar[:, 0]
    z_np = nonpar[:, 1] + 1j * nonpar[:, 2]
    f_par = par[:, 0]
    z_par = par[:, 1] * np.exp(1j * np.radians(par[:, 2]))

    # each eis.csv row meets the first bode.csv row of the same frequency;
    # a row whose frequency bode.csv lacks is skipped
    values, first = np.unique(f_par, return_index=True)
    idx_np = np.flatnonzero(np.isin(f_np, values))
    if not idx_np.size:
        raise SchemaError("nonparametric and parametric grids share no frequencies")

    ref = ImpedanceCurve(freq_hz=f_np[idx_np], z_ohm=z_np[idx_np])
    est = ImpedanceCurve(freq_hz=ref.freq_hz,
                         z_ohm=z_par[first[np.searchsorted(values, ref.freq_hz)]])
    err = relative_error_curve(ref, est)
    keep = ~np.isnan(err)

    out = _out(args)
    write_csv(out / "error.csv", "freq_hz,rel_error", (ref.freq_hz[keep], err[keep]))
    return f"compared {int(keep.sum())} shared frequencies -> {out / 'error.csv'}"


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", help="output directory (default: .)")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")
    common.set_defaults(config=None, seed=None)
    # design and simulate draw random numbers; estimate and eis read a record
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--config", required=True)
    seeded.add_argument("--seed", type=int, default=None, help="override the config RNG seed")
    recorded = argparse.ArgumentParser(add_help=False, parents=[common])
    recorded.add_argument("--record", required=True)
    recorded.add_argument("--config", default=None)

    parser = argparse.ArgumentParser(
        prog="fracimp",
        description="Fractional-order battery impedance identification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", parents=[seeded], help="design an odd quasi-log multisine")
    p.set_defaults(func=cmd_design, schema=DESIGN_SCHEMA)

    p = sub.add_parser("simulate", parents=[seeded],
                       help="simulate a battery voltage response record")
    p.set_defaults(func=cmd_simulate, schema=SIMULATE_SCHEMA)

    p = sub.add_parser("estimate", parents=[recorded],
                       help="parametric impedance estimate from a record CSV")
    p.set_defaults(func=cmd_estimate, schema=ESTIMATE_SCHEMA)

    p = sub.add_parser("eis", parents=[recorded], help="nonparametric impedance from a record CSV")
    p.set_defaults(func=cmd_eis, schema=ESTIMATE_SCHEMA)

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


# library field -> the config key that spells it, per command; an estimate config
# with multisine_path takes bin_mask from the spec's harmonics
_BIN_KEYS = {"bin_mask": "excited_bins", "bin_window": "k_min and k_max"}
_CONFIG_KEYS = {
    "design": {"rms_target": "rms_a"},
    "simulate": {"rms_target": "rms_a", "ocv": "randles.ocv_v",
                 **{key: f"excitation.{key}" for key in BAND}},
    "estimate": _BIN_KEYS,
    "eis": _BIN_KEYS,
}


def _input_error(args, cfg: dict, exc: Exception) -> str:
    """The exit-1 message of `exc`, raised by `args.command` under the config `cfg`.
    A SchemaError names its file, an OSError its path; any other error of fit is the
    estimate file's, and one that starts with a field of `_CONFIG_KEYS` is the config's,
    under its key.  Every input of design and simulate is a config key or a spec file
    that its SchemaError names, so their other errors are reported as the config's."""
    message = str(exc)
    if isinstance(exc, SchemaError):
        return message
    if isinstance(exc, OSError):  # an --out that cannot be made or written
        return f"{exc.filename}: {exc.strerror}" if exc.filename else message
    if args.command == "fit":
        return f"invalid estimate file {args.estimate}: {message}"
    keys = _CONFIG_KEYS.get(args.command, {})
    if "multisine_path" in cfg:
        keys = {**keys, "bin_mask": "multisine_path harmonics"}
    field, _, rule = message.partition(" ")
    if field in keys:
        return f"invalid config {args.config}: {keys[field]} {rule}"
    if args.command not in ("design", "simulate"):
        return message
    if isinstance(exc, MemoryError):  # `_design` names the keys of a grid too large
        message += " (a record has sample_rate_hz * period_s * periods samples)"
    return f"invalid config {args.config}: {message}"


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    cfg = {}  # until the config is loaded
    try:
        with warnings.catch_warnings():
            # one write per warning, so each `warning:` line reaches stderr whole
            warnings.showwarning = lambda msg, *_: sys.stderr.write(f"warning: {msg}\n")
            cfg = {} if args.config is None else load(args.config, args.schema, "config")
            if args.seed is not None:
                cfg["seed"] = check(args.seed, _SEED, "invalid option", "--seed")
            text = args.func(args, cfg)
    except (NumericsError, np.linalg.LinAlgError) as exc:  # before its base, ValueError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (SchemaError, ValueError, MemoryError, OSError) as exc:
        print(f"error: {_input_error(args, cfg, exc)}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
