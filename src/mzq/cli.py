"""Command-line surface: simulate, synth, fit-spectrum, fit-rates, classify.

Each command takes a single JSON config plus an output directory. Configs
are validated strictly (unknown keys are errors) and use bench units:
GHz for frequencies, MHz for rates, ns for delays. Exit codes: 0 ok,
2 config or parse problem, 3 forward-model degeneracy, 4 fit failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .components import (
    DRIVE_PORTS,
    CircuitSpec,
    ConfigError,
    LineParams,
    QubitScatterer,
    _check_keys,
    _int,
    _is_number,
    _num,
    _obj,
    _str,
    make_interferometer,
    read_trace,
    sweep,
    synthesize,
    write_csv_columns,
    write_trace_csv,
    write_trace_json,
)
from .estimate import (
    FIT_OPTIONS,
    BadInitialization,
    IllPosed,
    NoConvergence,
    NoFeature,
    RATES_CSV_HEADER,
    REL_ERR_MAX_DEFAULT,
    RateDataset,
    classify_regime,
    excluded_rows,
    fit_gamma1,
    fit_gamma_phi_power,
    fit_ou,
    fit_spectrum,
    gamma1_curve,
    ou_curve,
    power_curve,
    read_rates_csv,
    write_fit_json,
    write_rates_csv,
)
from .leastsq import prediction_band
from .netcore import SingularSystem
from .physics import (
    DegenerateFlux,
    QuasiStaticLimit,
    TransmonParams,
)

GHZ = 2 * math.pi * 1e9
MHZ = 2 * math.pi * 1e6

def _construct(where: str, build, *args, **kwargs):
    """build(*args, **kwargs), with its ValueError re-raised as a ConfigError naming where."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _linspace(where: str, start: float, stop: float, points: int) -> np.ndarray:
    """np.linspace, with its refusal of a size re-raised as a ConfigError naming where.

    numpy refuses a size it cannot allocate with MemoryError or ValueError,
    and one from 2**63 to 2**64 with IndexError, before allocating anything.
    """
    try:
        return np.linspace(start, stop, points)
    except (MemoryError, ValueError, IndexError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _build_qubit(obj: dict | None, where: str) -> QubitScatterer | None:
    if obj is None:
        return None
    _check_keys(obj, where, {"omega01_ghz", "gamma1_mhz", "gamma_phi_mhz", "r0", "rabi_mhz"})
    return _construct(where, QubitScatterer,
                      omega01=_num(obj, "omega01_ghz", where, minimum=0, strict=True) * GHZ,
                      gamma1=_num(obj, "gamma1_mhz", where, minimum=0) * MHZ,
                      gamma_phi=_num(obj, "gamma_phi_mhz", where, minimum=0) * MHZ,
                      r0=_num(obj, "r0", where, minimum=0, strict=True),
                      rabi=_num(obj, "rabi_mhz", where, default=0.0, minimum=0) * MHZ)


def _build_circuit(obj: dict | None, where: str) -> CircuitSpec:
    if obj is None:
        obj = {}
    _check_keys(obj, where, {"splitter", "center_ghz", "qubit_arm", "qubit", "lines",
                             "cal_scale_re", "cal_scale_im", "cal_delay_ns"})
    kind = _str(obj, "splitter", where, default="ideal", choices={"ideal", "branchline"})
    center_hz = _num(obj, "center_ghz", where, default=5.746, minimum=0, strict=True) * 1e9
    arm = _str(obj, "qubit_arm", where, default="a", choices={"a", "b"})
    qubit = _build_qubit(_obj(obj, "qubit", where, default=None), f"{where}.qubit")
    spec = _construct(where, make_interferometer, center_hz=center_hz, qubit=qubit,
                      qubit_arm=arm, splitter_kind=kind)

    lines = _obj(obj, "lines", where, default=None)
    if lines is not None:
        lw = f"{where}.lines"
        _check_keys(lines, lw, {"delay_ns", "attenuation"})
        params = {}
        for key, unit in (("delay_ns", 1e-9), ("attenuation", 1.0)):
            if key not in lines:
                continue
            vals = lines[key]
            if not isinstance(vals, list) or len(vals) != 4 or not all(map(_is_number, vals)):
                raise ConfigError(f"{lw}.{key}: expected a list of 4 finite numbers")
            if any(v < 0 for v in vals):
                raise ConfigError(f"{lw}.{key}: entries must be >= 0")
            params[key] = tuple(float(v) * unit for v in vals)
        spec = replace(spec, lines=LineParams(
            phase_rate=params.get("delay_ns", spec.lines.phase_rate),
            attenuation=params.get("attenuation", spec.lines.attenuation),
        ))

    scale = complex(_num(obj, "cal_scale_re", where, default=1.0),
                    _num(obj, "cal_scale_im", where, default=0.0))
    delay = _num(obj, "cal_delay_ns", where, default=0.0) * 1e-9
    return _construct(where, replace, spec, cal_scale=scale, cal_delay=delay)


def _build_grid(obj: dict, where: str) -> np.ndarray:
    _check_keys(obj, where, {"start_ghz", "stop_ghz", "points"})
    start = _num(obj, "start_ghz", where, minimum=0, strict=True)
    stop = _num(obj, "stop_ghz", where, minimum=0, strict=True)
    points = _int(obj, "points", where, minimum=2)
    if stop <= start:
        raise ConfigError(f"{where}.stop_ghz: must exceed start_ghz")
    if not math.isfinite(stop * GHZ):  # then start, below stop, is finite in rad/s too
        raise ConfigError(f"{where}.stop_ghz: {stop:g} GHz overflows in rad/s")
    return _linspace(f"{where}.points", start * 1e9, stop * 1e9, points)


def _build_transmon(obj: dict, where: str) -> TransmonParams:
    _check_keys(obj, where, {"ej_max_ghz", "ec_mhz"})
    return _construct(where, TransmonParams,
                      ej_max=_num(obj, "ej_max_ghz", where, minimum=0, strict=True) * 1e9,
                      ec=_num(obj, "ec_mhz", where, minimum=0, strict=True) * 1e6)


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


# ---------------------------------------------------------------------------
# simulate / synth
# ---------------------------------------------------------------------------

_SIM_KEYS = {"circuit", "grid", "drive_port", "label", "flux_phi0", "basename"}


def _trace_common(config: dict, synth: bool):
    allowed = _SIM_KEYS | ({"noise_sigma", "seed"} if synth else set())
    _check_keys(config, "config", allowed)
    spec = _build_circuit(_obj(config, "circuit", "config"), "config.circuit")
    freqs = _build_grid(_obj(config, "grid", "config"), "config.grid")
    drive = _int(config, "drive_port", "config", default=2, choices=DRIVE_PORTS)
    label = _str(config, "label", "config", default="")
    basename = _str(config, "basename", "config", default="trace")
    flux = _num(config, "flux_phi0", "config", default=None)
    return spec, freqs, drive, label, basename, flux


def _write_trace(out_dir: Path, basename: str, trace, quiet: bool) -> None:
    csv_path = out_dir / f"{basename}.csv"
    json_path = out_dir / f"{basename}.json"
    write_trace_csv(csv_path, trace)
    write_trace_json(json_path, trace)
    _say(quiet, f"wrote {csv_path}")
    _say(quiet, f"wrote {json_path}")


def cmd_simulate(config: dict, out_dir: Path, quiet: bool) -> int:
    spec, freqs, drive, label, basename, flux = _trace_common(config, synth=False)
    trace = sweep(spec, freqs, drive_port=drive, label=label)
    trace.flux_phi0 = flux
    _write_trace(out_dir, basename, trace, quiet)
    return 0


def cmd_synth(config: dict, out_dir: Path, quiet: bool, seed: int | None = None) -> int:
    spec, freqs, drive, label, basename, flux = _trace_common(config, synth=True)
    noise = _num(config, "noise_sigma", "config", minimum=0)
    if seed is None:
        seed = _int(config, "seed", "config", default=0, minimum=0)
    elif seed < 0:
        raise ConfigError("--seed: must be >= 0")
    trace = synthesize(spec, freqs, drive_port=drive, noise_sigma=noise,
                       seed=seed, label=label)
    trace.flux_phi0 = flux
    _write_trace(out_dir, basename, trace, quiet)
    return 0


# ---------------------------------------------------------------------------
# fit-spectrum
# ---------------------------------------------------------------------------

_FIT_SPECTRUM_KEYS = {"input_csv", "input_json", "input_dir", "circuit", "init",
                      "options", "rates_csv"}
# the endings of the two files _fit_one_trace writes for each trace
_FIT_OUTPUTS = ("_fit.json", "_residuals.csv")


def _fit_options(config: dict) -> dict | None:
    obj = _obj(config, "options", "config", default=None)
    if obj is None:
        return None
    _check_keys(obj, "config.options", set(FIT_OPTIONS))
    opts = {}
    if "max_iter" in obj:
        opts["max_iter"] = _int(obj, "max_iter", "config.options", minimum=1)
    for key in ("ftol", "xtol"):
        if key in obj:
            opts[key] = _num(obj, key, "config.options", minimum=0, strict=True)
    return opts


def _write_residuals(path: Path, trace, model: dict[str, np.ndarray]) -> None:
    with open(path, "w") as fh:
        write_csv_columns(fh, ("freq_hz", "path", "data_re", "data_im", "model_re", "model_im"))
        for name, m in model.items():
            d = trace.values[name]
            write_csv_columns(fh, None, trace.freqs, name, d.real, d.imag, m.real, m.imag)


def _fit_one_trace(trace_path: Path, template: CircuitSpec,
                   init: QubitScatterer | None, options: dict | None,
                   out_dir: Path, quiet: bool):
    trace = read_trace(trace_path)
    result = fit_spectrum(trace, template, init=init, options=options)
    fit_path, resid_path = (out_dir / f"{trace_path.stem}{end}" for end in _FIT_OUTPUTS)
    write_fit_json(fit_path, result)
    _write_residuals(resid_path, trace, result.curves)
    _say(quiet, f"wrote {fit_path}")
    _say(quiet, f"wrote {resid_path}")
    flux = trace.flux_phi0 if trace.flux_phi0 is not None else math.nan
    return (result.params["omega01"], result.params["gamma1"],
            result.params["gamma_phi"], flux, result.rel_err["gamma_phi"])


def cmd_fit_spectrum(config: dict, out_dir: Path, quiet: bool) -> int:
    _check_keys(config, "config", _FIT_SPECTRUM_KEYS)
    inputs = [k for k in ("input_csv", "input_json", "input_dir") if k in config]
    if len(inputs) != 1:
        raise ConfigError("config: give exactly one of input_csv, input_json, input_dir")
    template = _build_circuit(_obj(config, "circuit", "config", default=None),
                              "config.circuit")
    init = _build_qubit(_obj(config, "init", "config", default=None), "config.init")
    options = _fit_options(config)

    if inputs[0] != "input_dir":
        path = Path(_str(config, inputs[0], "config"))
        _fit_one_trace(path, template, init, options, out_dir, quiet)
        return 0

    batch_dir = Path(_str(config, "input_dir", "config"))
    if not batch_dir.is_dir():
        raise ConfigError(f"config.input_dir: {batch_dir} is not a directory")
    rates_name = _str(config, "rates_csv", "config", default="rates.csv")
    if (Path(rates_name).name != rates_name or rates_name in ("", "..")
            or rates_name.endswith(_FIT_OUTPUTS)):
        raise ConfigError(f"config.rates_csv: {rates_name!r} must be a file name in --out "
                          f"that ends in neither of {_FIT_OUTPUTS}")
    taken = batch_dir / rates_name
    if taken.is_file():  # the listing skips it, so it may only be an earlier rate table
        with open(taken, errors="replace") as fh:
            if fh.readline().strip() != RATES_CSV_HEADER:
                raise ConfigError(f"config.rates_csv: {taken} is in input_dir, not a rate table")
    # a directory that also receives --out holds this command's own outputs
    files = sorted(p for p in batch_dir.iterdir()
                   if p.suffix in (".csv", ".json") and p.is_file() and p.name != rates_name
                   and not p.name.endswith(_FIT_OUTPUTS))
    # synth writes <stem>.csv and <stem>.json; only the JSON twin keeps
    # flux_phi0 and drive_port, so it is the one fitted
    json_stems = {p.stem for p in files if p.suffix == ".json"}
    files = [p for p in files if p.suffix == ".json" or p.stem not in json_stems]
    if not files:
        raise ConfigError(f"config.input_dir: no .csv or .json traces in {batch_dir}")

    rows, failures = [], []
    for path in files:
        try:
            rows.append(_fit_one_trace(path, template, init, options, out_dir, quiet))
        except Exception as exc:
            failures.append((path.name, f"{type(exc).__name__}: {exc}"))

    if rows:
        cols = [np.array([r[i] for r in rows]) for i in range(5)]
        rates_path = out_dir / rates_name
        write_rates_csv(rates_path, RateDataset(*cols))
        _say(quiet, f"wrote {rates_path}")
    for name, err in failures:
        print(f"fit failed for {name}: {err}", file=sys.stderr)
    return 4 if failures else 0


# ---------------------------------------------------------------------------
# fit-rates
# ---------------------------------------------------------------------------

_FIT_RATES_KEYS = {"rates_csv", "transmon", "rel_err_max", "band_points"}


def _write_csv(path: Path, quiet: bool, header, *columns) -> None:
    with open(path, "w") as fh:
        write_csv_columns(fh, header, *columns)
    _say(quiet, f"wrote {path}")


def cmd_fit_rates(config: dict, out_dir: Path, quiet: bool) -> int:
    _check_keys(config, "config", _FIT_RATES_KEYS)
    rates_path = Path(_str(config, "rates_csv", "config"))
    transmon = _build_transmon(_obj(config, "transmon", "config"), "config.transmon")
    rel_err_max = _num(config, "rel_err_max", "config", default=REL_ERR_MAX_DEFAULT, minimum=0,
                       strict=True)
    band_points = _int(config, "band_points", "config", default=200, minimum=2)

    rates = read_rates_csv(rates_path)
    if len(rates) < 8:
        raise IllPosed(f"rate table has {len(rates)} rows; need at least 8")
    ws = _linspace("config.band_points", rates.omega01.min(), rates.omega01.max(), band_points)

    # data points and the 33%-rule sidecar are written before any fit runs
    checks, slopes = excluded_rows(rates, transmon, rel_err_max)
    _write_csv(out_dir / "points_gamma1.csv", quiet, ("omega01_rad_s", "gamma1_rad_s"),
               rates.omega01, rates.gamma1)
    _write_csv(out_dir / "points_gamma_phi.csv", quiet,
               ("omega01_rad_s", "slope_rad_s_per_phi0", "gamma_phi_rad_s", "rel_err_gamma_phi"),
               rates.omega01, slopes, rates.gamma_phi, rates.rel_err_gamma_phi)

    reasons = [";".join(name for name, hit in checks.items() if hit[i]) for i in range(len(rates))]
    rows = [i for i, reason in enumerate(reasons) if reason]
    _write_csv(out_dir / "excluded_rows.csv", quiet,
               ("row", "omega01_rad_s", "gamma_phi_rad_s", "rel_err_gamma_phi", "reason"),
               rows, rates.omega01[rows], rates.gamma_phi[rows],
               rates.rel_err_gamma_phi[rows], [reasons[i] for i in rows])

    kept_slopes = np.delete(slopes, rows)
    if kept_slopes.size >= 2 and kept_slopes.max() > kept_slopes.min():
        xs = np.linspace(kept_slopes.min(), kept_slopes.max(), band_points)
    else:
        xs = None
    phi_cols = ("slope_rad_s_per_phi0", "gamma_phi_rad_s")
    reports = (  # name, fit, model curve, grid, curve file, its x and y columns
        ("gamma1", lambda: fit_gamma1(rates), gamma1_curve, ws,
         "curve_gamma1.csv", ("omega01_rad_s", "gamma1_rad_s")),
        ("gamma_phi_power", lambda: fit_gamma_phi_power(rates, transmon, rel_err_max),
         power_curve, xs, "curve_gamma_phi_power.csv", phi_cols),
        ("ou", lambda: fit_ou(rates, transmon, rel_err_max),
         ou_curve, xs, "curve_gamma_phi_ou.csv", phi_cols),
    )

    failures = []
    for name, fit, curve, grid, curve_name, cols in reports:
        try:
            result = fit()
        except Exception as exc:
            failures.append((name, f"{type(exc).__name__}: {exc}"))
            continue
        write_fit_json(out_dir / f"{name}_fit.json", result)
        _say(quiet, f"wrote {out_dir / f'{name}_fit.json'}")
        if grid is not None:
            pvec = np.array(list(result.params.values()))
            _write_csv(out_dir / curve_name, quiet, (*cols, "lo95_rad_s", "hi95_rad_s"), grid,
                       *prediction_band(curve, pvec, result.covariance, grid, result.dof))

    for name, err in failures:
        print(f"{name} fit failed: {err}", file=sys.stderr)
    return 4 if failures else 0


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def cmd_classify(config: dict, out_dir: Path, quiet: bool) -> int:
    _check_keys(config, "config", {"input_csv", "input_json"})
    inputs = [k for k in ("input_csv", "input_json") if k in config]
    if len(inputs) != 1:
        raise ConfigError("config: give exactly one of input_csv, input_json")
    path = Path(_str(config, inputs[0], "config"))
    trace = read_trace(path)
    label = classify_regime(trace)
    doc = {"label": label.value, "path": trace.cross_path()}
    out_path = out_dir / f"{path.stem}_label.json"
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _say(quiet, f"{label.value}")
    _say(quiet, f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "simulate": cmd_simulate,
    "synth": cmd_synth,
    "fit-spectrum": cmd_fit_spectrum,
    "fit-rates": cmd_fit_rates,
    "classify": cmd_classify,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzq",
        description="Interferometer-with-scatterer simulator and rate-fitting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        if name == "synth":
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            config = json.load(fh)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        extra = {"seed": args.seed} if args.command == "synth" else {}
        return _COMMANDS[args.command](config, out_dir, args.quiet, **extra)
    except SingularSystem as exc:
        print(f"error: forward model degenerate: {exc}", file=sys.stderr)
        return 3
    except (DegenerateFlux, QuasiStaticLimit) as exc:
        print(f"error: model degenerate: {exc}", file=sys.stderr)
        return 3
    except (NoConvergence, BadInitialization, NoFeature) as exc:
        print(f"error: fit failed: {exc}", file=sys.stderr)
        return 4
    except (OSError, ValueError) as exc:
        # covers config validation, JSON decoding, trace/rates parsing, IllPosed
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
