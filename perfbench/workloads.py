"""Seeded inputs, run plans and output checks of the benchmark's workloads.

Run as a script this is the benchmark's set-up step: in one fresh
interpreter it imports mzq from ``<root>/src``, writes one workload's inputs,
configs and generating truth under ``--dir`` and exits. The program under
test later sees only the files written here.

    python3 perfbench/workloads.py --workload flux_sweep --seed 1 --dir <dir>

Each workload's ``plan.json`` lists the ``mzq`` steps of one pass (the
subcommand, its config and its output directory) and the truth that the
checks compare the outputs against.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

WORKLOADS = ("flux_sweep", "dense_simulate", "rate_table")

GHZ = 2 * math.pi * 1e9
MHZ = 2 * math.pi * 1e6

TRANSMON = {"ej_max_ghz": 20.0, "ec_mhz": 592.4}
CIRCUIT = {"splitter": "branchline", "center_ghz": 5.746}
# Ohmic background plus a parasitic mode mid-band. gamma1 stays near
# 2pi*1 MHz at the top of the band, where gamma_phi is smallest.
BATH = {"alpha": 1.0e-4, "lorentz_center": 6.0 * GHZ, "lorentz_fwhm": 1.5 * GHZ,
        "lorentz_height": 2.0 * MHZ}

# flux_sweep: 16 traces of 601 points, +-30 MHz around f01, sigma 0.01.
SWEEP_TRACES = 16
SWEEP_POINTS = 601
SWEEP_HALF_SPAN_HZ = 30e6
SWEEP_FLUX = (0.03, 0.41)
SWEEP_NOISE = 0.01
# Nearly quasi-static flux noise: gamma_phi grows with the flux slope, so
# it stays resolvable next to gamma1 at every flux point of the sweep.
SWEEP_OU = {"sigma": 300e-6, "kappa": 0.1 * MHZ}
# The shared init centre lies above the sweet spot (9.13 GHz), outside every
# trace window, so each fit starts on its own feature (see fit_spectrum).
SWEEP_INIT = {"omega01_ghz": 10.0, "gamma1_mhz": 1.0, "gamma_phi_mhz": 0.4,
              "r0": 0.9, "rabi_mhz": 1.5}

# dense_simulate: one broadband trace of a driven scatterer.
DENSE_POINTS = 100_000
DENSE_GRID_GHZ = (4.0, 8.0)
DENSE_SAMPLES = 8

# rate_table: 96 rows; the flux range spans more than a decade of slope so
# the power-law fit is posed, and sigma puts v/kappa across 1 (0.15 to 3)
# so both OU parameters are identifiable.
RATE_ROWS = 96
RATE_FLUX = (0.03, 0.43)
RATE_OU = {"sigma": 200e-6, "kappa": 2.0 * MHZ}
RATE_NOISE = 0.1
RATE_REL_ERR = 0.1

# Output bounds: acceptance 7 for spectrum fits, acceptance 5 for OU fits.
OMEGA_TOL = 0.02
RATE_TOL = 0.33
SIGMA_TOL = 0.10
KAPPA_TOL = 0.20
DENSE_TOL = 1e-9

FIT_RATES_OUTPUTS = (
    "points_gamma1.csv", "points_gamma_phi.csv", "excluded_rows.csv",
    "gamma1_fit.json", "curve_gamma1.csv",
    "gamma_phi_power_fit.json", "curve_gamma_phi_power.csv",
    "ou_fit.json", "curve_gamma_phi_ou.csv",
)


def _stratified_flux(rng, count: int, lo: float, hi: float):
    """One uniform draw in each of count equal bins of [lo, hi]."""
    import numpy as np
    return lo + (np.arange(count) + rng.uniform(size=count)) * ((hi - lo) / count)


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n")


def _gen_flux_sweep(rng, root: Path) -> dict:
    import numpy as np
    from mzq.components import QubitScatterer, make_interferometer, synthesize, write_trace_json
    from mzq.physics import (BathModel, OUNoise, TransmonParams, domega01_dflux,
                             gamma1_model, gamma_phi_model, omega01)

    transmon = TransmonParams(TRANSMON["ej_max_ghz"] * 1e9, TRANSMON["ec_mhz"] * 1e6)
    bath = BathModel(**BATH)
    inputs = root / "inputs"
    inputs.mkdir()
    truth = {}
    # evenly spaced: the slope then spans a decade even without the end rows
    for i, flux in enumerate(np.linspace(*SWEEP_FLUX, SWEEP_TRACES)):
        flux = float(flux)
        w01 = omega01(transmon, flux)
        slope = abs(domega01_dflux(transmon, flux))
        qubit = QubitScatterer(
            omega01=w01, gamma1=float(gamma1_model(bath, w01)),
            gamma_phi=gamma_phi_model(OUNoise(slope=slope, **SWEEP_OU)),
            r0=SWEEP_INIT["r0"], rabi=SWEEP_INIT["rabi_mhz"] * MHZ)
        spec = make_interferometer(center_hz=CIRCUIT["center_ghz"] * 1e9, qubit=qubit,
                                   splitter_kind=CIRCUIT["splitter"])
        f01 = w01 / (2 * math.pi)
        grid = np.linspace(f01 - SWEEP_HALF_SPAN_HZ, f01 + SWEEP_HALF_SPAN_HZ, SWEEP_POINTS)
        trace = synthesize(spec, grid, noise_sigma=SWEEP_NOISE,
                           seed=int(rng.integers(2**31)), label=f"flux{i:02d}")
        trace.flux_phi0 = flux
        write_trace_json(inputs / f"trace_{i:02d}.json", trace)
        truth[f"trace_{i:02d}"] = {"flux_phi0": flux, "omega01": w01,
                                   "gamma1": qubit.gamma1, "gamma_phi": qubit.gamma_phi}

    _write_json(root / "fit_spectrum.json", {
        "input_dir": str(inputs), "circuit": CIRCUIT, "init": SWEEP_INIT})
    _write_json(root / "fit_rates.json", {
        "rates_csv": str(root / "pass" / "fit" / "rates.csv"), "transmon": TRANSMON})
    return {
        "steps": [
            {"command": "fit-spectrum", "config": "fit_spectrum.json", "out": "pass/fit"},
            {"command": "fit-rates", "config": "fit_rates.json", "out": "pass/rates"},
        ],
        "items": SWEEP_TRACES,
        "truth": {"traces": truth, **SWEEP_OU},
    }


def _dense_circuit(circuit: dict):
    from mzq.components import QubitScatterer, make_interferometer

    q = circuit["qubit"]
    return make_interferometer(
        center_hz=circuit["center_ghz"] * 1e9,
        qubit=QubitScatterer(omega01=q["omega01_ghz"] * GHZ, gamma1=q["gamma1_mhz"] * MHZ,
                             gamma_phi=q["gamma_phi_mhz"] * MHZ, r0=q["r0"],
                             rabi=q["rabi_mhz"] * MHZ),
        splitter_kind=circuit["splitter"])


def _gen_dense_simulate(rng, root: Path) -> dict:
    qubit = {
        "omega01_ghz": float(rng.uniform(5.0, 7.0)),
        "gamma1_mhz": float(rng.uniform(0.8, 1.5)),
        "gamma_phi_mhz": float(rng.uniform(0.2, 0.6)),
        "r0": 0.9,
        "rabi_mhz": 1.5,
    }
    circuit = {**CIRCUIT, "qubit": qubit}
    _dense_circuit(circuit)  # the model accepts the drawn scatterer
    grid = {"start_ghz": DENSE_GRID_GHZ[0], "stop_ghz": DENSE_GRID_GHZ[1],
            "points": DENSE_POINTS}
    _write_json(root / "simulate.json", {"circuit": circuit, "grid": grid,
                                         "label": "dense", "basename": "dense"})
    samples = sorted({0, DENSE_POINTS - 1,
                      *(int(k) for k in rng.integers(1, DENSE_POINTS - 1, DENSE_SAMPLES))})
    return {
        "steps": [{"command": "simulate", "config": "simulate.json", "out": "pass/sim"}],
        "items": 1,
        "truth": {"circuit": circuit, "grid": grid, "samples": samples},
    }


def _gen_rate_table(rng, root: Path) -> dict:
    import numpy as np
    from mzq.estimate import RateDataset, write_rates_csv
    from mzq.physics import (BathModel, OUNoise, TransmonParams, domega01_dflux,
                             gamma1_model, gamma_phi_model, omega01)

    transmon = TransmonParams(TRANSMON["ej_max_ghz"] * 1e9, TRANSMON["ec_mhz"] * 1e6)
    flux = _stratified_flux(rng, RATE_ROWS, *RATE_FLUX)
    w01 = np.array([omega01(transmon, float(p)) for p in flux])
    slopes = np.array([abs(domega01_dflux(transmon, float(p))) for p in flux])
    gamma1 = gamma1_model(BathModel(**BATH), w01) * (1 + RATE_NOISE * rng.standard_normal(RATE_ROWS))
    gamma_phi = np.array([gamma_phi_model(OUNoise(slope=s, **RATE_OU)) for s in slopes])
    gamma_phi = gamma_phi * (1 + RATE_NOISE * rng.standard_normal(RATE_ROWS))
    rates_path = root / "inputs" / "rates.csv"
    rates_path.parent.mkdir()
    write_rates_csv(rates_path, RateDataset(w01, gamma1, gamma_phi, flux,
                                            np.full(RATE_ROWS, RATE_REL_ERR)))
    _write_json(root / "fit_rates.json", {"rates_csv": str(rates_path), "transmon": TRANSMON})
    return {
        "steps": [{"command": "fit-rates", "config": "fit_rates.json", "out": "pass/rates"}],
        "items": RATE_ROWS,
        "truth": dict(RATE_OU),
    }


_GENERATORS = {"flux_sweep": _gen_flux_sweep, "dense_simulate": _gen_dense_simulate,
               "rate_table": _gen_rate_table}


def generate(workload: str, seed: int, root: Path) -> dict:
    """Write one workload's inputs and configs under root; return its plan."""
    import numpy as np
    root.mkdir(parents=True, exist_ok=False)
    plan = _GENERATORS[workload](np.random.default_rng(seed), root)
    plan.update(workload=workload, seed=seed)
    _write_json(root / "plan.json", plan)
    return plan


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the pass is right
# ---------------------------------------------------------------------------

def _rel_dev(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def _read_json(path: Path, problems: list[str]):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: unreadable ({exc})")
        return None


def _check_fit_rates(out: Path, truth: dict, problems: list[str], kappa: bool) -> None:
    missing = [name for name in FIT_RATES_OUTPUTS if not (out / name).is_file()]
    if missing:
        problems.append(f"fit-rates outputs missing: {missing}")
    ou = _read_json(out / "ou_fit.json", problems) if "ou_fit.json" not in missing else None
    if ou is None:
        return
    checks = [("sigma", SIGMA_TOL)] + ([("kappa", KAPPA_TOL)] if kappa else [])
    for name, tol in checks:
        try:
            dev = _rel_dev(float(ou["params"][name]), truth[name])
        except (KeyError, TypeError, ValueError):
            problems.append(f"ou_fit.json: no {name}")
            continue
        if not dev <= tol:
            problems.append(f"ou {name} off truth by {dev:.1%} (bound {tol:.0%})")


def check_flux_sweep(pass_dir: Path, plan: dict) -> list[str]:
    problems: list[str] = []
    traces = plan["truth"]["traces"]
    try:
        with open(pass_dir / "fit" / "rates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        problems.append(f"rates.csv unreadable ({exc})")
        rows = []
    if len(rows) != len(traces):
        problems.append(f"rates.csv has {len(rows)} rows, expected {len(traces)}")
    by_flux = {t["flux_phi0"]: name for name, t in traces.items()}
    seen = set()
    for k, row in enumerate(rows, start=2):
        try:
            flux = float(row["flux_phi0"])
            got = {key: float(row[f"{key}_rad_s"]) for key in ("omega01", "gamma1", "gamma_phi")}
        except (KeyError, TypeError, ValueError):
            problems.append(f"rates.csv line {k}: malformed row")
            continue
        name = by_flux.get(flux)
        if not math.isfinite(flux) or name is None or name in seen:
            problems.append(f"rates.csv line {k}: flux_phi0 {flux!r} matches no unfitted trace")
            continue
        seen.add(name)
        for key, tol in (("omega01", OMEGA_TOL), ("gamma1", RATE_TOL), ("gamma_phi", RATE_TOL)):
            dev = _rel_dev(got[key], traces[name][key])
            if not dev <= tol:
                problems.append(f"{name}: {key} off truth by {dev:.1%} (bound {tol:.0%})")
    _check_fit_rates(pass_dir / "rates", plan["truth"], problems, kappa=False)
    return problems


def check_dense_simulate(pass_dir: Path, plan: dict) -> list[str]:
    import numpy as np
    from mzq.components import sweep

    problems: list[str] = []
    truth = plan["truth"]
    n = truth["grid"]["points"]
    samples = truth["samples"]
    grid = np.linspace(truth["grid"]["start_ghz"] * 1e9, truth["grid"]["stop_ghz"] * 1e9, n)
    want = sweep(_dense_circuit(truth["circuit"]), grid[samples]).values

    # per source and path: row count and (frequency, value) at each sample
    got: dict[str, dict[str, tuple[int, dict]]] = {"csv": {}, "json": {}}
    picked = set(samples)
    try:
        with open(pass_dir / "sim" / "dense.csv", newline="") as fh:
            reader = csv.reader(fh)
            next(reader, None)
            for row in reader:
                count, values = got["csv"].get(row[3], (0, {}))
                if count in picked:
                    values[count] = (float(row[0]), complex(float(row[1]), float(row[2])))
                got["csv"][row[3]] = (count + 1, values)
    except (OSError, IndexError, ValueError) as exc:
        problems.append(f"dense.csv unreadable ({exc})")
    doc = _read_json(pass_dir / "sim" / "dense.json", problems)
    if doc is not None:
        try:
            freqs = doc["freq_hz"]
            for path, parts in doc["paths"].items():
                got["json"][path] = (len(parts["re"]), {
                    i: (freqs[i], complex(parts["re"][i], parts["im"][i]))
                    for i in samples if i < min(len(parts["re"]), len(parts["im"]), len(freqs))})
        except (KeyError, TypeError, AttributeError) as exc:
            problems.append(f"dense.json malformed ({exc!r})")

    for source, paths in got.items():
        for path, want_vals in want.items():
            count, values = paths.get(path, (0, {}))
            if count != n:
                problems.append(f"dense.{source} has {count} {path} points, expected {n}")
            for k, i in enumerate(samples):
                freq, value = values.get(i, (None, None))
                if freq is None or not abs(freq - grid[i]) <= 1e-3:
                    problems.append(f"dense.{source} {path}[{i}]: frequency {freq} off the grid")
                elif not abs(value - want_vals[k]) <= DENSE_TOL:
                    problems.append(f"dense.{source} {path}[{i}] = {value} differs from the "
                                    f"in-process sweep {want_vals[k]}")
    return problems


def check_rate_table(pass_dir: Path, plan: dict) -> list[str]:
    problems: list[str] = []
    _check_fit_rates(pass_dir / "rates", plan["truth"], problems, kappa=True)
    return problems


CHECKS = {"flux_sweep": check_flux_sweep, "dense_simulate": check_dense_simulate,
          "rate_table": check_rate_table}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed, args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
