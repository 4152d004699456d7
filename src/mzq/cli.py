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
from scipy.special import stdtrit

from .components import (
    CircuitSpec,
    CROSS_PATHS,
    DegenerateScatterer,
    LineParams,
    QubitScatterer,
    make_interferometer,
    read_trace,
    sweep,
    synthesize,
    write_trace_csv,
    write_trace_json,
    _fmt,
)
from .estimate import (
    BadInitialization,
    FitResult,
    IllPosed,
    NoConvergence,
    NoFeature,
    RateDataset,
    calibration_curve,
    classify_regime,
    fit_gamma1,
    fit_gamma_phi_power,
    fit_ou,
    fit_spectrum,
    read_rates_csv,
    write_fit_json,
    write_rates_csv,
)
from .netcore import SingularSystem
from .physics import (
    BathModel,
    DegenerateFlux,
    QuasiStaticLimit,
    TransmonParams,
    flux_slope,
    gamma1_model,
    gamma_phi_rate,
)

GHZ = 2 * math.pi * 1e9
MHZ = 2 * math.pi * 1e6

_REQUIRED = object()


class ConfigError(ValueError):
    """Raised for structurally or semantically invalid run configs."""


def _check_keys(obj: dict, where: str, allowed: set[str]) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _obj(parent: dict, key: str, where: str, default=_REQUIRED) -> dict | None:
    if key not in parent:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return default
    val = parent[key]
    if val is not None and not isinstance(val, dict):
        raise ConfigError(f"{where}.{key}: expected an object")
    return val


def _num(parent: dict, key: str, where: str, default=_REQUIRED,
         minimum=None, strict=False) -> float:
    if key not in parent:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return default
    val = parent[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not math.isfinite(val):
        raise ConfigError(f"{where}.{key}: expected a finite number")
    val = float(val)
    if minimum is not None and (val < minimum or (strict and val == minimum)):
        op = ">" if strict else ">="
        raise ConfigError(f"{where}.{key}: must be {op} {minimum}")
    return val


def _int(parent: dict, key: str, where: str, default=_REQUIRED, minimum=None) -> int:
    if key not in parent:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return default
    val = parent[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"{where}.{key}: expected an integer")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{where}.{key}: must be >= {minimum}")
    return val


def _str(parent: dict, key: str, where: str, default=_REQUIRED, choices=None) -> str:
    if key not in parent:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return default
    val = parent[key]
    if not isinstance(val, str):
        raise ConfigError(f"{where}.{key}: expected a string")
    if choices is not None and val not in choices:
        raise ConfigError(f"{where}.{key}: expected one of {sorted(choices)}")
    return val


def _build_qubit(obj: dict | None, where: str) -> QubitScatterer | None:
    if obj is None:
        return None
    _check_keys(obj, where, {"omega01_ghz", "gamma1_mhz", "gamma_phi_mhz", "r0", "rabi_mhz"})
    return QubitScatterer(
        omega01=_num(obj, "omega01_ghz", where, minimum=0, strict=True) * GHZ,
        gamma1=_num(obj, "gamma1_mhz", where, minimum=0) * MHZ,
        gamma_phi=_num(obj, "gamma_phi_mhz", where, minimum=0) * MHZ,
        r0=_num(obj, "r0", where, minimum=0, strict=True),
        rabi=_num(obj, "rabi_mhz", where, default=0.0, minimum=0) * MHZ,
    )


def _build_circuit(obj: dict | None, where: str) -> CircuitSpec:
    if obj is None:
        obj = {}
    _check_keys(obj, where, {"splitter", "center_ghz", "qubit_arm", "qubit", "lines",
                             "cal_scale_re", "cal_scale_im", "cal_delay_ns"})
    kind = _str(obj, "splitter", where, default="ideal", choices={"ideal", "branchline"})
    center_hz = _num(obj, "center_ghz", where, default=5.746, minimum=0, strict=True) * 1e9
    arm = _str(obj, "qubit_arm", where, default="a", choices={"a", "b"})
    qubit = _build_qubit(_obj(obj, "qubit", where, default=None), f"{where}.qubit")
    spec = make_interferometer(center_hz=center_hz, qubit=qubit, qubit_arm=arm,
                               splitter_kind=kind)

    lines = _obj(obj, "lines", where, default=None)
    if lines is not None:
        lw = f"{where}.lines"
        _check_keys(lines, lw, {"delay_ns", "attenuation"})
        params = {}
        for key, unit in (("delay_ns", 1e-9), ("attenuation", 1.0)):
            if key not in lines:
                continue
            vals = lines[key]
            if (not isinstance(vals, list) or len(vals) != 4
                    or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in vals)):
                raise ConfigError(f"{lw}.{key}: expected a list of 4 numbers")
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
    if scale == 0:
        raise ConfigError(f"{where}: calibration scale must be nonzero")
    return replace(spec, cal_scale=scale, cal_delay=delay)


def _build_grid(obj: dict, where: str) -> np.ndarray:
    _check_keys(obj, where, {"start_ghz", "stop_ghz", "points"})
    start = _num(obj, "start_ghz", where, minimum=0, strict=True)
    stop = _num(obj, "stop_ghz", where, minimum=0, strict=True)
    points = _int(obj, "points", where, minimum=2)
    if stop <= start:
        raise ConfigError(f"{where}.stop_ghz: must exceed start_ghz")
    return np.linspace(start * 1e9, stop * 1e9, points)


def _build_transmon(obj: dict, where: str) -> TransmonParams:
    _check_keys(obj, where, {"ej_max_ghz", "ec_mhz"})
    return TransmonParams(
        ej_max=_num(obj, "ej_max_ghz", where, minimum=0, strict=True) * 1e9,
        ec=_num(obj, "ec_mhz", where, minimum=0, strict=True) * 1e6,
    )


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
    drive = _int(config, "drive_port", "config", default=2)
    if drive not in (2, 4):
        raise ConfigError("config.drive_port: must be 2 or 4")
    label = _str(config, "label", "config", default="")
    basename = _str(config, "basename", "config", default="trace")
    flux = config.get("flux_phi0")
    if flux is not None:
        flux = _num(config, "flux_phi0", "config")
    return spec, freqs, drive, label, basename, flux


def _write_trace(out_dir: Path, basename: str, trace, quiet: bool) -> None:
    csv_path = out_dir / f"{basename}.csv"
    json_path = out_dir / f"{basename}.json"
    write_trace_csv(csv_path, trace)
    write_trace_json(json_path, trace)
    _say(quiet, f"wrote {csv_path}")
    _say(quiet, f"wrote {json_path}")


def cmd_simulate(config: dict, out_dir: Path, seed: int | None, quiet: bool) -> int:
    spec, freqs, drive, label, basename, flux = _trace_common(config, synth=False)
    trace = sweep(spec, freqs, drive_port=drive, label=label)
    trace.flux_phi0 = flux
    _write_trace(out_dir, basename, trace, quiet)
    return 0


def cmd_synth(config: dict, out_dir: Path, seed: int | None, quiet: bool) -> int:
    spec, freqs, drive, label, basename, flux = _trace_common(config, synth=True)
    noise = _num(config, "noise_sigma", "config", minimum=0)
    if seed is None:
        seed = _int(config, "seed", "config", default=0)
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


def _fit_options(config: dict) -> dict | None:
    obj = _obj(config, "options", "config", default=None)
    if obj is None:
        return None
    _check_keys(obj, "config.options", {"max_iter", "ftol", "xtol"})
    opts = {}
    if "max_iter" in obj:
        opts["max_iter"] = _int(obj, "max_iter", "config.options", minimum=1)
    for key in ("ftol", "xtol"):
        if key in obj:
            opts[key] = _num(obj, key, "config.options", minimum=0, strict=True)
    return opts


def _model_cross(template: CircuitSpec, result: FitResult, rabi: float,
                 freqs: np.ndarray) -> dict[str, np.ndarray]:
    p = result.params
    qubit = QubitScatterer(omega01=p["omega01"], gamma1=p["gamma1"],
                           gamma_phi=p["gamma_phi"], r0=p["r0"], rabi=rabi)
    model = sweep(replace(template, qubit=qubit), freqs)
    cal = calibration_curve(p["scale_re"], p["scale_im"], p["phase_slope"],
                            freqs, float(np.mean(freqs)))
    return {path: model.values[path] * cal for path in CROSS_PATHS}


def _write_residuals(path: Path, trace, model: dict[str, np.ndarray]) -> None:
    lines = ["freq_hz,path,data_re,data_im,model_re,model_im"]
    for name in CROSS_PATHS:
        if name not in trace.values:
            continue
        for f, d, m in zip(trace.freqs, trace.values[name], model[name]):
            lines.append(",".join((_fmt(f), name, _fmt(d.real), _fmt(d.imag),
                                   _fmt(m.real), _fmt(m.imag))))
    path.write_text("\n".join(lines) + "\n")


def _fit_one_trace(trace_path: Path, template: CircuitSpec,
                   init: QubitScatterer | None, options: dict | None,
                   out_dir: Path, quiet: bool):
    trace = read_trace(trace_path)
    result = fit_spectrum(trace, template, init=init, options=options)
    stem = trace_path.stem
    fit_path = out_dir / f"{stem}_fit.json"
    write_fit_json(fit_path, result)
    rabi = init.rabi if init is not None else 0.0
    model = _model_cross(replace(template, qubit=None), result, rabi, trace.freqs)
    resid_path = out_dir / f"{stem}_residuals.csv"
    _write_residuals(resid_path, trace, model)
    _say(quiet, f"wrote {fit_path}")
    _say(quiet, f"wrote {resid_path}")
    flux = trace.flux_phi0 if trace.flux_phi0 is not None else math.nan
    row = (result.params["omega01"], result.params["gamma1"],
           result.params["gamma_phi"], flux, result.rel_err["gamma_phi"])
    return row


def cmd_fit_spectrum(config: dict, out_dir: Path, seed: int | None, quiet: bool) -> int:
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
    files = sorted(p for p in batch_dir.iterdir()
                   if p.suffix in (".csv", ".json") and p.is_file())
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
        rates_name = _str(config, "rates_csv", "config", default="rates.csv")
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


def _band(curve, pvec: np.ndarray, cov: np.ndarray, xs: np.ndarray, dof: int):
    """Model curve with a linearized 95% band from the parameter covariance."""
    y = curve(pvec, xs)
    k = cov.shape[0]
    grad = np.empty((xs.size, k))
    for i in range(k):
        h = 1e-6 * max(abs(pvec[i]), 1e-12)
        stepped = pvec.copy()
        stepped[i] += h
        grad[:, i] = (curve(stepped, xs) - y) / h
    var = np.einsum("ni,ij,nj->n", grad, cov[:k, :k], grad)
    half = stdtrit(max(dof, 1), 0.975) * np.sqrt(np.maximum(var, 0.0))
    return y, y - half, y + half


def _write_curve_csv(path: Path, header: str, xs, ys, lo, hi) -> None:
    lines = [header]
    for row in zip(xs, ys, lo, hi):
        lines.append(",".join(_fmt(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")


def cmd_fit_rates(config: dict, out_dir: Path, seed: int | None, quiet: bool) -> int:
    _check_keys(config, "config", _FIT_RATES_KEYS)
    rates_path = Path(_str(config, "rates_csv", "config"))
    transmon = _build_transmon(_obj(config, "transmon", "config"), "config.transmon")
    rel_err_max = _num(config, "rel_err_max", "config", default=0.33, minimum=0, strict=True)
    band_points = _int(config, "band_points", "config", default=200, minimum=2)

    rates = read_rates_csv(rates_path)
    if len(rates) < 8:
        raise IllPosed(f"rate table has {len(rates)} rows; need at least 8")

    # data points and the 33%-rule sidecar are written before any fit runs
    points_g1 = out_dir / "points_gamma1.csv"
    lines = ["omega01_rad_s,gamma1_rad_s"]
    for w, g in zip(rates.omega01, rates.gamma1):
        lines.append(f"{_fmt(w)},{_fmt(g)}")
    points_g1.write_text("\n".join(lines) + "\n")
    _say(quiet, f"wrote {points_g1}")

    slopes = np.abs(flux_slope(transmon, rates.flux))

    points_gp = out_dir / "points_gamma_phi.csv"
    lines = ["omega01_rad_s,slope_rad_s_per_phi0,gamma_phi_rad_s,rel_err_gamma_phi"]
    for i in range(len(rates)):
        lines.append(",".join(_fmt(v) for v in (
            rates.omega01[i], slopes[i], rates.gamma_phi[i], rates.rel_err_gamma_phi[i])))
    points_gp.write_text("\n".join(lines) + "\n")
    _say(quiet, f"wrote {points_gp}")

    sidecar = out_dir / "excluded_rows.csv"
    lines = ["row,omega01_rad_s,gamma_phi_rad_s,rel_err_gamma_phi,reason"]
    for i in range(len(rates)):
        reasons = []
        if rates.rel_err_gamma_phi[i] >= rel_err_max:
            reasons.append("rel_err_at_or_above_max")
        if not math.isfinite(rates.flux[i]):
            reasons.append("flux_unknown")
        elif not (slopes[i] > 0):
            reasons.append("zero_flux_sensitivity")
        if reasons:
            lines.append(",".join((str(i), _fmt(rates.omega01[i]),
                                   _fmt(rates.gamma_phi[i]),
                                   _fmt(rates.rel_err_gamma_phi[i]),
                                   ";".join(reasons))))
    sidecar.write_text("\n".join(lines) + "\n")
    _say(quiet, f"wrote {sidecar}")

    usable = (np.isfinite(rates.flux)
              & ~(rates.rel_err_gamma_phi >= rel_err_max)
              & (slopes > 0))
    kept_slopes = slopes[usable]

    failures: list[tuple[str, str]] = []

    def attempt(name: str, fn):
        try:
            return fn()
        except Exception as exc:
            failures.append((name, f"{type(exc).__name__}: {exc}"))
            return None

    g1 = attempt("gamma1", lambda: fit_gamma1(rates))
    if g1 is not None:
        write_fit_json(out_dir / "gamma1_fit.json", g1)
        _say(quiet, f"wrote {out_dir / 'gamma1_fit.json'}")
        ws = np.linspace(rates.omega01.min(), rates.omega01.max(), band_points)
        pvec = np.array(list(g1.params.values()))

        def curve_g1(p, x):
            return gamma1_model(BathModel(p[0], p[1], max(p[2], 1.0), abs(p[3])), x)

        y, lo, hi = _band(curve_g1, pvec, g1.covariance, ws, len(rates) - 4)
        _write_curve_csv(out_dir / "curve_gamma1.csv",
                         "omega01_rad_s,gamma1_rad_s,lo95_rad_s,hi95_rad_s",
                         ws, y, lo, hi)
        _say(quiet, f"wrote {out_dir / 'curve_gamma1.csv'}")

    power = attempt("gamma_phi_power", lambda: fit_gamma_phi_power(rates, transmon, rel_err_max))
    ou = attempt("ou", lambda: fit_ou(rates, transmon, rel_err_max))

    if kept_slopes.size >= 2 and kept_slopes.max() > kept_slopes.min():
        xs = np.linspace(kept_slopes.min(), kept_slopes.max(), band_points)
    else:
        xs = None

    if power is not None:
        write_fit_json(out_dir / "gamma_phi_power_fit.json", power)
        _say(quiet, f"wrote {out_dir / 'gamma_phi_power_fit.json'}")
        if xs is not None:
            pvec = np.array([power.params["amplitude"], power.params["eta"]])

            def curve_power(p, x):
                return abs(p[0]) * x ** p[1]

            dof = int(np.count_nonzero(usable & (rates.gamma_phi > 0))) - 2
            y, lo, hi = _band(curve_power, pvec, power.covariance, xs, dof)
            _write_curve_csv(out_dir / "curve_gamma_phi_power.csv",
                             "slope_rad_s_per_phi0,gamma_phi_rad_s,lo95_rad_s,hi95_rad_s",
                             xs, y, lo, hi)
            _say(quiet, f"wrote {out_dir / 'curve_gamma_phi_power.csv'}")

    if ou is not None:
        write_fit_json(out_dir / "ou_fit.json", ou)
        _say(quiet, f"wrote {out_dir / 'ou_fit.json'}")
        if xs is not None:
            pvec = np.array([ou.params["sigma"], ou.params["kappa"]])

            def curve_ou(p, x):
                return gamma_phi_rate(abs(p[0]) * x, abs(p[1]))

            y, lo, hi = _band(curve_ou, pvec, ou.covariance, xs,
                              int(np.count_nonzero(usable)) - 2)
            _write_curve_csv(out_dir / "curve_gamma_phi_ou.csv",
                             "slope_rad_s_per_phi0,gamma_phi_rad_s,lo95_rad_s,hi95_rad_s",
                             xs, y, lo, hi)
            _say(quiet, f"wrote {out_dir / 'curve_gamma_phi_ou.csv'}")

    for name, err in failures:
        print(f"{name} fit failed: {err}", file=sys.stderr)
    return 4 if failures else 0


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def cmd_classify(config: dict, out_dir: Path, seed: int | None, quiet: bool) -> int:
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
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed (synth only)")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ConfigError("config: top level must be a JSON object")
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config, out_dir, args.seed, args.quiet)
    except (DegenerateScatterer, SingularSystem) as exc:
        freq = getattr(exc, "frequency", None)
        detail = f" at frequency {freq:.6g} Hz" if freq is not None else ""
        print(f"error: forward model degenerate{detail}: {exc}", file=sys.stderr)
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
