"""A fuzz property of the command line (MacIver et al., JOSS 4, 1891 (2019)).

Each example runs one command in-process on inputs that are valid but for
one value, replaced by a huge integer, a nested list, a string, a relative
path that leaves its folder, a bool, NaN or an empty object. Whatever the
value, the command ends with exit 0, 2, 3 or 4 and at most one line on
stderr, and writes nothing outside --out.
"""
import contextlib
import csv
import io
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzq import cli
from mzq.components import QubitScatterer, make_interferometer, synthesize, write_trace_json
from mzq.estimate import RateDataset, write_rates_csv

GHZ = 2 * math.pi * 1e9
MHZ = 2 * math.pi * 1e6

MUTATIONS = [10**17, 2**64, 10**330, [[1, 2], [3]], "s", "../escaped", True, math.nan, {}]

QUBIT = {"omega01_ghz": 5.2, "gamma1_mhz": 1.0, "gamma_phi_mhz": 0.4, "r0": 0.9, "rabi_mhz": 1.5}
CIRCUIT = {"splitter": "ideal", "center_ghz": 5.746, "qubit_arm": "a", "qubit": QUBIT,
           "lines": {"delay_ns": [0.0, 0.0, 0.087, 0.087], "attenuation": [0.35, 0.35, 0, 0]},
           "cal_scale_re": 1.0, "cal_scale_im": 0.0, "cal_delay_ns": 0.0}
SIM = {"circuit": CIRCUIT, "grid": {"start_ghz": 5.17, "stop_ghz": 5.23, "points": 21},
       "drive_port": 2, "label": "x", "flux_phi0": 0.2, "basename": "t"}


def _trace_doc() -> dict:
    qubit = QubitScatterer(omega01=5.2 * GHZ, gamma1=1.0 * MHZ, gamma_phi=0.4 * MHZ, r0=0.9,
                           rabi=1.5 * MHZ)
    trace = synthesize(make_interferometer(qubit=qubit), np.linspace(5.17e9, 5.23e9, 41),
                       noise_sigma=0.002, seed=1, label="x")
    trace.flux_phi0 = 0.2
    with tempfile.TemporaryDirectory() as tmp:
        write_trace_json(Path(tmp) / "t.json", trace)
        return json.loads((Path(tmp) / "t.json").read_text())


def _trace_rows(doc: dict) -> list[list]:
    rows = [["freq_hz", "re", "im", "path", "label"]]
    for p, d in doc["paths"].items():
        rows += [[f, re, im, p, doc["label"]]
                 for f, re, im in zip(doc["freq_hz"], d["re"], d["im"])]
    return rows


def _rate_rows() -> list[list]:
    rng = np.random.default_rng(0)
    w = 2 * math.pi * np.linspace(4.5e9, 5.5e9, 10)
    rates = RateDataset(w, 1e6 * (1 + 0.05 * rng.standard_normal(10)),
                        4e5 * (1 + 0.05 * rng.standard_normal(10)), np.linspace(0.05, 0.4, 10),
                        np.full(10, 0.1))
    with tempfile.TemporaryDirectory() as tmp:
        write_rates_csv(Path(tmp) / "r.csv", rates)
        return list(csv.reader((Path(tmp) / "r.csv").read_text().splitlines()))


TRACE = _trace_doc()
FIT = {"circuit": {"qubit_arm": "a"}, "init": QUBIT,
       "options": {"max_iter": 100, "ftol": 1e-10, "xtol": 1e-10}}
# command, config, the input file it names and that file's JSON document or CSV rows
CASES = [
    ("simulate", SIM, None, None),
    ("synth", {**SIM, "noise_sigma": 0.01, "seed": 3}, None, None),
    ("classify", {"input_json": "t.json"}, "t.json", TRACE),
    ("classify", {"input_csv": "t.csv"}, "t.csv", _trace_rows(TRACE)),
    ("fit-spectrum", {"input_json": "t.json", **FIT}, "t.json", TRACE),
    ("fit-spectrum", {"input_csv": "t.csv", **FIT}, "t.csv", _trace_rows(TRACE)),
    ("fit-rates", {"rates_csv": "r.csv", "transmon": {"ej_max_ghz": 20.0, "ec_mhz": 592.4},
                   "rel_err_max": 0.33, "band_points": 20}, "r.csv", _rate_rows()),
]


def _locations(node, here=()):
    """Every place in a JSON document a value can be put, the root included."""
    yield here
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _locations(child, (*here, key))


def _replace(doc, where, value):
    if not where:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    return doc


def _at(doc, where):
    for key in where:
        doc = doc[key]
    return doc


def _files(folder: Path) -> dict[str, bytes]:
    return {str(p.relative_to(folder)): p.read_bytes() for p in folder.rglob("*") if p.is_file()}


def _run_in(folder: Path, command: str, config, name: str | None, data) -> tuple[int, str]:
    """Run command in folder, its working directory; return the exit code and stderr.

    Asserts that no file outside folder/out was written.
    """
    (folder / "config.json").write_text(json.dumps(config))
    if name is not None:
        (folder / name).parent.mkdir(exist_ok=True)
    if name is not None and name.endswith(".json"):
        (folder / name).write_text(json.dumps(data))
    elif name is not None:
        with open(folder / name, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(data)
    before = _files(folder)
    err, cwd = io.StringIO(), os.getcwd()
    os.chdir(folder)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([command, "--config", "config.json", "--out", "out"])
    finally:
        os.chdir(cwd)
    after = {k: v for k, v in _files(folder).items() if Path(k).parts[0] != "out"}
    assert after == before, f"wrote outside --out: {sorted(set(after) ^ set(before))}"
    return code, err.getvalue()


@pytest.mark.parametrize("command, config, name, data", CASES)
def test_unmutated_inputs_run_clean(command, config, name, data):
    with tempfile.TemporaryDirectory() as tmp:
        assert _run_in(Path(tmp), command, config, name, data) == (0, "")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_one_bad_value_never_ends_in_a_traceback(data):
    command, config, name, inputs = data.draw(st.sampled_from(CASES))
    value = data.draw(st.sampled_from(MUTATIONS))
    if name is None or data.draw(st.booleans()):
        config = _replace(config, data.draw(st.sampled_from(list(_locations(config)))), value)
    elif name.endswith(".json"):
        inputs = _replace(inputs, data.draw(st.sampled_from(list(_locations(inputs)))), value)
    else:  # a CSV field takes the value's JSON spelling
        cells = [(i, j) for i, row in enumerate(inputs) for j in range(len(row))]
        inputs = _replace(inputs, data.draw(st.sampled_from(cells)), json.dumps(value))
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _run_in(Path(tmp), command, config, name, inputs)
    assert code in (0, 2, 3, 4), err
    assert err.count("\n") <= 1 and (not err or err.endswith("\n")), err


# a batch fit is the one place fit-spectrum takes an output name, rates_csv
PATH_CASES = CASES + [("fit-spectrum", {"input_dir": "batch", "rates_csv": "rates.csv", **FIT},
                       "batch/t.json", TRACE)]


@pytest.mark.parametrize("command, config, name, data", PATH_CASES)
def test_a_path_at_any_config_string_stays_inside_out(command, config, name, data):
    # every string of the config, not a sample: a path there names an input
    # or is refused, and never puts an output outside --out
    strings = [where for where in _locations(config) if isinstance(_at(config, where), str)]
    assert strings
    for where in strings:
        for escape in ("../escaped", "{folder}/escaped"):
            with tempfile.TemporaryDirectory() as tmp:
                value = escape.format(folder=tmp)
                code, err = _run_in(Path(tmp), command, _replace(config, where, value), name,
                                    data)
            assert code in (0, 2, 3, 4), (where, value, err)
            assert err.count("\n") <= 1 and (not err or err.endswith("\n")), (where, value, err)
