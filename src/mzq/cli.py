"""Command-line surface: simulate, synth, fit-spectrum, fit-rates, classify.

Each command takes a single JSON config plus an output directory. Configs
are validated strictly (unknown keys are errors) and use bench units:
GHz for frequencies, MHz for rates, ns for delays. Exit codes: 0 ok,
2 config or parse problem or a stdout that cannot take the output,
3 forward-model degeneracy, 4 fit failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

# OpenBLAS starts its worker threads as numpy loads, and no mzq layer uses them
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from .components import (
    DRIVE_PORTS,
    CircuitSpec,
    ConfigError,
    LineParams,
    QubitScatterer,
    TraceParseError,
    _check_keys,
    _check_label,
    _int,
    _is_number,
    _num,
    _obj,
    _str,
    make_interferometer,
    parse_json,
    read_trace,
    read_utf8,
    sweep,
    synthesize,
    write_csv,
    write_json,
    write_trace_csv,
    write_trace_json,
)
from .estimate import (
    FIT_OPTIONS,
    BadInitialization,
    IllPosed,
    NoConvergence,
    NoFeature,
    REL_ERR_MAX_DEFAULT,
    RateDataset,
    classify_regime,
    excluded_rows,
    fit_gamma1,
    fit_gamma_phi_power,
    fit_ou,
    fit_spectrum,
    read_rates_csv,
    write_fit_json,
    write_rates_csv,
)
from .netcore import SingularSystem
from .physics import TransmonParams

GHZ = 2 * math.pi * 1e9
MHZ = 2 * math.pi * 1e6

def _construct(where: str, build, *args, **kwargs):
    """build(*args, **kwargs), with its refusal re-raised as a ConfigError naming where.

    A constructor refuses a value with ValueError. np.linspace refuses a size
    it cannot allocate with MemoryError or ValueError, and one from 2**63 to
    2**64 with IndexError, before allocating anything.
    """
    try:
        return build(*args, **kwargs)
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


def _build_circuit(obj: dict | None, where: str, with_qubit: bool = True) -> CircuitSpec:
    if obj is None:
        obj = {}
    _check_keys(obj, where, {"splitter", "center_ghz", "qubit_arm", "lines", "cal_scale_re",
                             "cal_scale_im", "cal_delay_ns"} | ({"qubit"} if with_qubit else set()))
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
    return _construct(f"{where}.points", np.linspace, start * 1e9, stop * 1e9, points)


def _build_transmon(obj: dict, where: str) -> TransmonParams:
    _check_keys(obj, where, {"ej_max_ghz", "ec_mhz"})
    return _construct(where, TransmonParams,
                      ej_max=_num(obj, "ej_max_ghz", where, minimum=0, strict=True) * 1e9,
                      ec=_num(obj, "ec_mhz", where, minimum=0, strict=True) * 1e6)


def _out_name(config: dict, key: str, default: str, out_dir: Path, suffix: str = "",
              endings: tuple[str, ...] = ()) -> str:
    """config[key] as the name of a file in out_dir: no directory part or NUL, not '' or '..'.

    With suffix, the longest ending the command appends, it must also pass
    _check_name.
    """
    name = _str(config, key, "config", default=default)
    if Path(name).name != name or name in ("", "..") or "\0" in name or name.endswith(endings):
        tail = f" that ends in neither of {endings}" if endings else ""
        raise ConfigError(f"config.{key}: {name!r} must be a file name in --out{tail}")
    _check_name(f"config.{key}", name, suffix, out_dir)
    return name


def _fs_encoded(where: str, name: str) -> bytes:
    """name in the file system encoding (an ASCII locale narrows it to ASCII), or refused."""
    try:
        return os.fsencode(name)
    except UnicodeEncodeError:
        raise ConfigError(f"{where}: {name!r} is not a file name in the file system "
                          f"encoding {sys.getfilesystemencoding()}") from None


def _check_name(where: str, name: str, suffix: str, out_dir: Path) -> None:
    """Refuse name + suffix, naming where, unless _fs_encoded takes it and it fits in
    out_dir's PC_NAME_MAX bytes."""
    size = len(_fs_encoded(where, name) + os.fsencode(suffix))
    limit = os.pathconf(out_dir, "PC_NAME_MAX")  # -1: no limit
    if 0 <= limit < size:
        raise ConfigError(f"{where}: {name + suffix!r} is {size} bytes, over the "
                          f"{limit}-byte file name limit of {out_dir}")


def _in_path(config: dict, key: str) -> Path:
    name = _str(config, key, "config")
    if "\0" in name:  # open would refuse it naming no key, after any work before it
        raise ConfigError(f"config.{key}: {name!r} must be a path without a NUL")
    _fs_encoded(f"config.{key}", name)  # else open fails naming no key, and is_dir is False
    return Path(name)


def _one_input(config: dict, keys: tuple[str, ...]) -> str:
    """The one key of keys that config gives."""
    given = [k for k in keys if k in config]
    if len(given) != 1:
        raise ConfigError(f"config: give exactly one of {', '.join(keys)}")
    return given[0]


def _in_two_processes(child_work, parent_work, killed: str):
    """child_work() in a forked child while the parent runs parent_work(): both values, in order.

    The child sends json.dumps of child_work()'s value, or str() of any
    exception it raises, through a pipe, and always ends with os._exit: it
    prints nothing, runs no atexit handler, flushes no inherited buffer and
    never returns into the caller. The parent reads the pipe to its end and
    reaps the child whatever parent_work does, so no process outlives the
    call, and a failure of parent_work is the one raised. The child's value
    comes back as parse_json reads it (a tuple as a list); its failure is
    raised as OSError with its message, and a child killed by a signal as
    OSError(f"{killed} by signal N"). Needs POSIX os.fork.
    """
    read_end, write_end = os.pipe()
    pipe = open(read_end, "rb")
    with open(write_end, "wb") as child_end:
        try:
            pid = os.fork()
        except BaseException:
            pipe.close()
            raise
        if pid == 0:
            code = 1
            try:
                try:
                    payload, code = json.dumps(child_work()), 0
                except BaseException as exc:
                    payload = str(exc)
                child_end.write(payload.encode(errors="backslashreplace"))
                child_end.flush()
            finally:
                os._exit(code)
    try:
        mine = parent_work()
    finally:
        with pipe:
            payload = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code < 0:
        raise OSError(f"{killed} by signal {-code}")
    if code:
        raise OSError(payload.decode())
    return parse_json(payload.decode()), mine


# ---------------------------------------------------------------------------
# simulate / synth
# ---------------------------------------------------------------------------

_SIM_KEYS = {"circuit", "grid", "drive_port", "label", "flux_phi0", "basename"}


def cmd_trace(config: dict, out_dir: Path, say, seed: int | None = None, *,
              synth: bool) -> int:
    """simulate, or synth with noise: write the circuit's trace as <basename>.csv and .json.

    A forked child writes the JSON from the parent's arrays while the parent
    writes the CSV; the two writers share no work. A CSV failure is the one
    raised; a JSON failure is raised as OSError with the child's message, and
    a child killed by a signal as OSError naming the file and the signal.
    """
    _check_keys(config, "config", _SIM_KEYS | ({"noise_sigma", "seed"} if synth else set()))
    spec = _build_circuit(_obj(config, "circuit", "config"), "config.circuit")
    freqs = _build_grid(_obj(config, "grid", "config"), "config.grid")
    drive = _int(config, "drive_port", "config", default=2, choices=DRIVE_PORTS)
    label = _construct("config.label", _check_label, _str(config, "label", "config", default=""))
    basename = _out_name(config, "basename", "trace", out_dir, ".json")
    flux = _num(config, "flux_phi0", "config", default=None)
    with np.errstate(all="ignore"):  # a sample that overflows is refused below
        if synth:
            noise = _num(config, "noise_sigma", "config", minimum=0)
            if seed is None:
                seed = _int(config, "seed", "config", default=0, minimum=0)
            elif seed < 0:
                raise ConfigError("--seed: must be >= 0")
            trace = synthesize(spec, freqs, drive_port=drive, noise_sigma=noise,
                               seed=seed, label=label)
        else:
            trace = sweep(spec, freqs, drive_port=drive, label=label)
    for p, v in trace.values.items():  # read_trace would refuse it, so neither file is written
        if not np.isfinite(v).all():
            raise ValueError(f"path {p!r} has a non-finite sample, so no file is written")
    trace.flux_phi0 = flux
    csv_path = out_dir / f"{basename}.csv"
    json_path = out_dir / f"{basename}.json"
    _in_two_processes(lambda: write_trace_json(json_path, trace),
                      lambda: write_trace_csv(csv_path, trace),
                      f"{json_path}: not written, its writer was killed")
    say(f"wrote {csv_path}")
    say(f"wrote {json_path}")
    return 0


# ---------------------------------------------------------------------------
# fit-spectrum
# ---------------------------------------------------------------------------

_FIT_SPECTRUM_KEYS = {"input_csv", "input_json", "input_dir", "circuit", "init",
                      "options", "rates_csv"}
# the endings of the two files _fit_one_trace writes for each trace
_FIT_OUTPUTS = ("_fit.json", "_residuals.csv")
_LONGEST_OUTPUT = max(_FIT_OUTPUTS, key=len)


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


def _fit_one_trace(trace_path: Path, template: CircuitSpec,
                   init: QubitScatterer | None, options: dict | None,
                   out_dir: Path, say):
    trace = read_trace(trace_path)
    result = fit_spectrum(trace, template, init=init, options=options)
    fit_path, resid_path = (out_dir / f"{trace_path.stem}{end}" for end in _FIT_OUTPUTS)
    write_fit_json(fit_path, result)
    write_csv(resid_path, ("freq_hz", "path", "data_re", "data_im", "model_re", "model_im"),
              *((trace.freqs, p, trace.values[p].real, trace.values[p].imag, m.real, m.imag)
                for p, m in result.curves.items()))
    say(f"wrote {fit_path}")
    say(f"wrote {resid_path}")
    flux = trace.flux_phi0 if trace.flux_phi0 is not None else math.nan
    return (result.params["omega01"], result.params["gamma1"],
            result.params["gamma_phi"], flux, result.rel_err["gamma_phi"])


def _fit_files(files: list[Path], say, *fit_args):
    """Fit files in order: their rate rows, and (name, "Cls: msg") for each that failed."""
    rows, failures = [], []
    for path in files:
        try:
            rows.append(_fit_one_trace(path, *fit_args, say))
        except Exception as exc:
            failures.append((path.name, f"{type(exc).__name__}: {exc}"))
    return rows, failures


def cmd_fit_spectrum(config: dict, out_dir: Path, say) -> int:
    """Fit one trace, or every trace of a directory plus their rate table.

    Directory mode fits in two processes: the parent fits the front half of
    the sorted list while a forked child fits the back half. Each writes its
    own traces' outputs; the child sends back its rate rows, failures and
    progress lines, which the parent reports after its own. So every output
    byte, line and exit code is that of one fit after another. A child that
    dies raises OSError (exit 2) before the rate table is written.
    """
    _check_keys(config, "config", _FIT_SPECTRUM_KEYS)
    source = _one_input(config, ("input_csv", "input_json", "input_dir"))
    # the fitted scatterer replaces the template's, so a qubit there is refused, not ignored
    template = _build_circuit(_obj(config, "circuit", "config", default=None),
                              "config.circuit", with_qubit=False)
    init = _build_qubit(_obj(config, "init", "config", default=None), "config.init")
    options = _fit_options(config)

    if source != "input_dir":
        if "rates_csv" in config:  # one trace gives no rate table to name
            raise ConfigError("config.rates_csv: only input_dir mode writes a rate table")
        path = _in_path(config, source)
        _check_name(f"config.{source}: {path.name}", path.stem, _LONGEST_OUTPUT, out_dir)
        _fit_one_trace(path, template, init, options, out_dir, say)
        return 0

    batch_dir = _in_path(config, "input_dir")
    if not batch_dir.is_dir():
        raise ConfigError(f"config.input_dir: {batch_dir} is not a directory")
    rates_name = _out_name(config, "rates_csv", "rates.csv", out_dir, endings=_FIT_OUTPUTS)
    taken = batch_dir / rates_name
    if taken.is_file():  # the listing skips it, so it may only be an earlier rate table
        try:
            read_rates_csv(taken)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config.rates_csv: {taken} is in input_dir, not a rate table "
                              f"({exc})") from None
    # a directory that also receives --out holds this command's own outputs;
    # a suffix counts in any case, as it does for read_trace's choice of parser
    files = sorted(p for p in batch_dir.iterdir()
                   if p.suffix.lower() in (".csv", ".json") and p.is_file()
                   and p.name != rates_name and not p.name.endswith(_FIT_OUTPUTS))
    # synth writes <stem>.csv and <stem>.json; only the JSON twin keeps
    # flux_phi0 and drive_port, so it is the one fitted
    json_stems = {p.stem for p in files if p.suffix.lower() == ".json"}
    files = [p for p in files if p.suffix.lower() == ".json" or p.stem not in json_stems]
    if not files:
        raise ConfigError(f"config.input_dir: no .csv or .json traces in {batch_dir}")
    # two inputs of one stem (T.json, T.JSON) would both write <stem>_fit.json
    by_stem = {}
    for p in files:
        if by_stem.setdefault(p.stem, p) is not p:
            raise ConfigError(f"config.input_dir: {by_stem[p.stem].name} and {p.name} share "
                              "a stem, so their fits would write the same files")
        _check_name(f"config.input_dir: {p.name}", p.stem, _LONGEST_OUTPUT, out_dir)

    fit_args = (template, init, options, out_dir)
    half = len(files) // 2

    def back_half():
        lines = []
        return (*_fit_files(files[half:], lines.append, *fit_args), lines)

    (back_rows, back_failures, lines), (rows, failures) = _in_two_processes(
        back_half, lambda: _fit_files(files[:half], say, *fit_args),
        f"config.input_dir: the fits from {files[half].name} on were not finished, "
        "their process was killed")
    for line in lines:
        say(line)
    rows += back_rows
    failures += back_failures

    if rows:
        rates_path = out_dir / rates_name
        write_rates_csv(rates_path, RateDataset(*np.array(rows, dtype=float).T))
        say(f"wrote {rates_path}")
    for name, err in failures:
        print(f"fit failed for {name}: {err}", file=sys.stderr)
    return 4 if failures else 0


# ---------------------------------------------------------------------------
# fit-rates
# ---------------------------------------------------------------------------

_FIT_RATES_KEYS = {"rates_csv", "transmon", "rel_err_max", "band_points"}


def _write_csv(path: Path, say, header, *blocks) -> None:
    write_csv(path, header, *blocks)
    say(f"wrote {path}")


def cmd_fit_rates(config: dict, out_dir: Path, say) -> int:
    _check_keys(config, "config", _FIT_RATES_KEYS)
    rates_path = _in_path(config, "rates_csv")
    transmon = _build_transmon(_obj(config, "transmon", "config"), "config.transmon")
    rel_err_max = _num(config, "rel_err_max", "config", default=REL_ERR_MAX_DEFAULT, minimum=0,
                       strict=True)
    band_points = _int(config, "band_points", "config", default=200, minimum=2)

    rates = read_rates_csv(rates_path)
    if len(rates) < 8:
        raise IllPosed(f"rate table has {len(rates)} rows; need at least 8")
    # a band size numpy cannot allocate is refused before anything is written
    _construct("config.band_points", np.linspace, rates.omega01.min(), rates.omega01.max(),
               band_points)

    # data points and the 33%-rule sidecar are written before any fit runs
    checks, slopes = excluded_rows(rates, transmon, rel_err_max)
    _write_csv(out_dir / "points_gamma1.csv", say, ("omega01_rad_s", "gamma1_rad_s"),
               (rates.omega01, rates.gamma1))
    _write_csv(out_dir / "points_gamma_phi.csv", say,
               ("omega01_rad_s", "slope_rad_s_per_phi0", "gamma_phi_rad_s", "rel_err_gamma_phi"),
               (rates.omega01, slopes, rates.gamma_phi, rates.rel_err_gamma_phi))

    reasons = [";".join(name for name, hit in checks.items() if hit[i]) for i in range(len(rates))]
    rows = [i for i, reason in enumerate(reasons) if reason]
    # one block per row: its index as a float, which %.17g spells as the integer, and its reason
    table = np.column_stack((np.arange(len(rates), dtype=float), rates.omega01, rates.gamma_phi,
                             rates.rel_err_gamma_phi))
    _write_csv(out_dir / "excluded_rows.csv", say,
               ("row", "omega01_rad_s", "gamma_phi_rad_s", "rel_err_gamma_phi", "reason"),
               *((*table[i:i + 1].T, reasons[i]) for i in rows))

    phi_cols = ("slope_rad_s_per_phi0", "gamma_phi_rad_s")
    reports = (  # name, fit, curve file, its x and y columns
        ("gamma1", lambda: fit_gamma1(rates), "curve_gamma1.csv",
         ("omega01_rad_s", "gamma1_rad_s")),
        ("gamma_phi_power", lambda: fit_gamma_phi_power(rates, transmon, rel_err_max),
         "curve_gamma_phi_power.csv", phi_cols),
        ("ou", lambda: fit_ou(rates, transmon, rel_err_max), "curve_gamma_phi_ou.csv",
         phi_cols),
    )

    failures = []
    for name, fit, curve_name, cols in reports:
        try:
            result = fit()
        except Exception as exc:
            failures.append((name, f"{type(exc).__name__}: {exc}"))
            continue
        write_fit_json(out_dir / f"{name}_fit.json", result)
        say(f"wrote {out_dir / f'{name}_fit.json'}")
        _write_csv(out_dir / curve_name, say, (*cols, "lo95_rad_s", "hi95_rad_s"),
                   result.band(band_points))

    for name, err in failures:
        print(f"{name} fit failed: {err}", file=sys.stderr)
    return 4 if failures else 0


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def cmd_classify(config: dict, out_dir: Path, say) -> int:
    _check_keys(config, "config", {"input_csv", "input_json"})
    source = _one_input(config, ("input_csv", "input_json"))
    path = _in_path(config, source)
    out_path = out_dir / f"{path.stem}_label.json"
    _check_name(f"config.{source}: {path.name}", out_path.name, "", out_dir)
    trace = read_trace(path)
    label = classify_regime(trace)
    doc = {"label": label.value, "path": trace.cross_path()}
    write_json(out_path, doc)
    say(label.value)
    say(f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "simulate": partial(cmd_trace, synth=False),
    "synth": partial(cmd_trace, synth=True),
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
    """Run one mzq command: with argv, return its exit code; with none, end the process.

    With argv None, as the console script and `python -m mzq.cli` run it,
    stdout and stderr are flushed once the command returns, its files closed
    and its forked children reaped, and os._exit ends the process: no atexit
    handler or interpreter teardown runs. A stdout that cannot take the
    output (a closed pipe, a full disk) is one error line and exit 2.
    """
    code = _run(argv)
    if argv is not None:
        return code
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    sys.stderr.flush()
    os._exit(code)


def _run(argv: list[str] | None) -> int:
    args = _parser().parse_args(argv)
    try:
        try:
            config = parse_json(read_utf8(args.config))
        except TraceParseError as exc:
            raise ConfigError(f"config: {exc}") from None
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        say = (lambda message: None) if args.quiet else print
        extra = {"seed": args.seed} if args.command == "synth" else {}
        return _COMMANDS[args.command](config, out_dir, say, **extra)
    except SingularSystem as exc:
        print(f"error: forward model degenerate: {exc}", file=sys.stderr)
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
