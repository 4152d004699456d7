"""End-to-end command-line runs against temporary workspaces."""
import csv
import errno
import io
import json
import math
import os
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from oracles import richardson_jacobian
from scipy import stats

from mzq import cli, components, estimate, leastsq
from mzq.components import (
    QubitScatterer,
    make_interferometer,
    parse_json,
    read_trace,
    read_utf8,
    sweep,
    synthesize,
    write_trace_csv,
    write_trace_json,
)
from mzq.estimate import (RateDataset, calibration_curve, fit_gamma1, fit_gamma_phi_power,
                          fit_ou, ou_curve, ou_jacobian, read_rates_csv, write_rates_csv)
from mzq.leastsq import levenberg_marquardt, prediction_band
from mzq.physics import (
    BathModel,
    DegenerateFlux,
    OUNoise,
    TransmonParams,
    domega01_dflux,
    gamma1_model,
    gamma_phi_model,
    omega01 as transmon_omega01,
)

GHZ = 2 * math.pi * 1e9
MHZ = 2 * math.pi * 1e6

QUBIT_CFG = {"omega01_ghz": 5.2, "gamma1_mhz": 1.0, "gamma_phi_mhz": 0.4,
             "r0": 0.9, "rabi_mhz": 1.5}
GRID_CFG = {"start_ghz": 5.17, "stop_ghz": 5.23, "points": 201}


def _write(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


def _run(*argv):
    return cli.main(list(argv))


def _truth_qubit():
    return QubitScatterer(omega01=5.2 * GHZ, gamma1=1.0 * MHZ,
                          gamma_phi=0.4 * MHZ, r0=0.9, rabi=1.5 * MHZ)


# ---------------------------------------------------------------------------
# simulate / synth
# ---------------------------------------------------------------------------

def _run_in_an_ascii_locale(*argv):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "LC_ALL": "C",
           "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    return subprocess.run([sys.executable, "-c", "import sys; from mzq.cli import main; "
                           "sys.exit(main())", *argv, "--quiet"], capture_output=True, env=env)


def test_outputs_are_utf8_in_an_ascii_locale(tmp_path):
    cfg = _write(tmp_path / "sim.json", {"circuit": {"qubit": QUBIT_CFG}, "grid": GRID_CFG,
                                         "label": "\u00b5-scan"})
    out = tmp_path / "out"
    done = _run_in_an_ascii_locale("simulate", "--config", cfg, "--out", str(out))
    assert (done.returncode, done.stderr) == (0, b"")
    assert read_trace(out / "trace.csv").label == read_trace(out / "trace.json").label == (
        "\u00b5-scan")


@pytest.mark.parametrize("command, key", [("simulate", "basename"),
                                          ("fit-spectrum", "rates_csv")])
def test_a_file_name_an_ascii_locale_cannot_write_exits_2_naming_its_key(tmp_path, command,
                                                                         key):
    batch = tmp_path / "batch"
    batch.mkdir()
    write_trace_json(batch / "t.json", synthesize(make_interferometer(qubit=_truth_qubit()),
                                                  np.linspace(5.17e9, 5.23e9, 201)))
    doc = ({"circuit": {"qubit": QUBIT_CFG}, "grid": GRID_CFG, "basename": "\u00b5scan"}
           if command == "simulate" else
           {"input_dir": str(batch), "init": QUBIT_CFG, "rates_csv": "\u00b5rates.csv"})
    out = tmp_path / "out"
    done = _run_in_an_ascii_locale(command, "--config", _write(tmp_path / "cfg.json", doc),
                                   "--out", str(out))
    assert done.returncode == 2
    assert done.stderr.startswith(f"error: config.{key}: ".encode())
    assert b"file system encoding" in done.stderr
    assert not any(out.iterdir())


@pytest.mark.parametrize("command, key", [("simulate", "basename"),
                                          ("fit-spectrum", "rates_csv")])
def test_a_file_name_too_long_for_out_exits_2_naming_its_key(tmp_path, capsys, command, key):
    out = tmp_path / "out"
    out.mkdir()
    limit = os.pathconf(out, "PC_NAME_MAX")
    batch = tmp_path / "batch"
    batch.mkdir()
    write_trace_json(batch / "t.json", synthesize(make_interferometer(qubit=_truth_qubit()),
                                                  np.linspace(5.17e9, 5.23e9, 201)))
    # simulate's <basename>.csv fits the limit and its .json does not: 251 bytes at 255
    doc = ({"circuit": {"qubit": QUBIT_CFG}, "grid": GRID_CFG, "basename": "x" * (limit - 4)}
           if command == "simulate" else
           {"input_dir": str(batch), "init": QUBIT_CFG, "rates_csv": "x" * (limit + 1)})
    cfg = _write(tmp_path / "cfg.json", doc)
    assert _run(command, "--config", cfg, "--out", str(out), "--quiet") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config.{key}: ")
    assert err.endswith(f" is {limit + 1} bytes, over the {limit}-byte file name limit of {out}\n")
    assert not any(out.iterdir())


@pytest.mark.parametrize("command, key", [("fit-spectrum", "input_json"),
                                          ("fit-spectrum", "input_dir"),
                                          ("classify", "input_json")])
def test_an_output_name_an_input_stem_makes_too_long_exits_2_before_any_work(tmp_path, capsys,
                                                                             command, key):
    out = tmp_path / "out"
    out.mkdir()
    limit = os.pathconf(out, "PC_NAME_MAX")
    batch = tmp_path / "batch"
    batch.mkdir()
    # <stem>.json and <stem>_fit.json fit the limit; <stem>_residuals.csv and _label.json do not
    stem = "x" * (limit - 10)
    trace = synthesize(make_interferometer(qubit=_truth_qubit()), np.linspace(5.17e9, 5.23e9, 201))
    for name in ("t.json", f"{stem}.json"):
        write_trace_json(batch / name, trace)
    doc = {key: str(batch if key == "input_dir" else batch / f"{stem}.json")}
    if command == "fit-spectrum":
        doc["init"] = QUBIT_CFG
    cfg = _write(tmp_path / "cfg.json", doc)
    assert _run(command, "--config", cfg, "--out", str(out), "--quiet") == 2
    name = stem + ("_label.json" if command == "classify" else "_residuals.csv")
    assert capsys.readouterr().err == (
        f"error: config.{key}: {stem}.json: {name!r} is {len(name)} bytes, over the "
        f"{limit}-byte file name limit of {out}\n")
    assert not any(out.iterdir())


@pytest.mark.parametrize("sink", [
    "pipe", "closed-pipe",
    pytest.param("/dev/full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                                       reason="no /dev/full"))])
def test_a_process_ends_after_its_command_and_a_stdout_that_fails_exits_2(tmp_path, sink):
    cfg = _write(tmp_path / "sim.json", {"circuit": {"qubit": QUBIT_CFG}, "grid": GRID_CFG})
    out = tmp_path / "out"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    argv = [sys.executable, "-c", "import atexit, sys; atexit.register(print, 'atexit ran', "
            "file=sys.stderr); from mzq.cli import main; sys.exit(main())",
            "simulate", "--config", cfg, "--out", str(out)]
    if sink == "pipe":
        done = subprocess.run(argv, capture_output=True, env=env)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == f"wrote {out / 'trace.csv'}\nwrote {out / 'trace.json'}\n".encode()
    else:
        if sink == "closed-pipe":
            read_end, write_end = os.pipe()
            os.close(read_end)
        else:
            write_end = os.open(sink, os.O_WRONLY)
        try:
            done = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write_end)
        code = errno.EPIPE if sink == "closed-pipe" else errno.ENOSPC
        assert (done.returncode, done.stderr) == (
            2, f"error: [Errno {code}] {os.strerror(code)}\n".encode())
    assert sorted(p.name for p in out.iterdir()) == ["trace.csv", "trace.json"]


def test_synth_refuses_samples_no_reader_accepts(tmp_path, capsys):
    # noise of 1e308 overflows some samples to inf, which read_trace refuses
    cfg = _write(tmp_path / "synth.json", {"circuit": {}, "grid": {**GRID_CFG, "points": 50},
                                           "noise_sigma": 1e308})
    out = tmp_path / "out"
    assert _run("synth", "--config", cfg, "--out", str(out)) == 2
    assert capsys.readouterr() == (
        "", "error: path 's12' has a non-finite sample, so no file is written\n")
    assert not any(out.iterdir())


def test_simulate_writes_matching_csv_and_json(tmp_path):
    cfg = _write(tmp_path / "sim.json", {
        "circuit": {"qubit": QUBIT_CFG},
        "grid": GRID_CFG,
        "basename": "sim",
        "label": "run one",
    })
    out = tmp_path / "out"
    assert _run("simulate", "--config", cfg, "--out", str(out), "--quiet") == 0
    from_csv = read_trace(out / "sim.csv")
    from_json = read_trace(out / "sim.json")
    assert np.array_equal(from_csv.freqs, from_json.freqs)
    for path in from_csv.values:
        assert np.array_equal(from_csv.values[path], from_json.values[path])
    assert from_csv.label == "run one"

    expected = synthesize(make_interferometer(qubit=_truth_qubit()),
                          np.linspace(5.17e9, 5.23e9, 201), label="run one")
    assert np.array_equal(from_json.values["s12"], expected.values["s12"])


def test_synth_is_seed_deterministic(tmp_path):
    doc = {
        "circuit": {"qubit": QUBIT_CFG},
        "grid": GRID_CFG,
        "noise_sigma": 0.02,
        "seed": 7,
    }
    cfg = _write(tmp_path / "synth.json", doc)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert _run("synth", "--config", cfg, "--out", str(a), "--quiet") == 0
    assert _run("synth", "--config", cfg, "--out", str(b), "--quiet") == 0
    assert _run("synth", "--config", cfg, "--out", str(c), "--quiet",
                "--seed", "8") == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "trace.json").read_bytes() == (b / "trace.json").read_bytes()
    assert (a / "trace.csv").read_bytes() != (c / "trace.csv").read_bytes()
    assert read_trace(a / "trace.json").noise_sigma == 0.02


def test_seed_is_a_synth_only_option(tmp_path):
    cfg = _write(tmp_path / "sim.json", {"circuit": {"qubit": QUBIT_CFG}, "grid": GRID_CFG})
    with pytest.raises(SystemExit) as exc:
        _run("simulate", "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "3")
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_carriage_return_label_exits_2_before_writing(tmp_path, capsys):
    cfg = _write(tmp_path / "sim.json", {"circuit": {"qubit": QUBIT_CFG}, "grid": GRID_CFG,
                                         "label": "a\rb"})
    out = tmp_path / "out"
    assert _run("simulate", "--config", cfg, "--out", str(out)) == 2
    assert "carriage return" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


def test_a_label_utf8_cannot_encode_exits_2_before_writing(tmp_path, capsys):
    cfg = tmp_path / "sim.json"  # json.loads reads the escape as a lone surrogate
    cfg.write_text('{"circuit": {}, "grid": {"start_ghz": 5.17, "stop_ghz": 5.23, "points": 201},'
                   ' "label": "a\\ud800b"}\n')
    out = tmp_path / "out"
    assert _run("simulate", "--config", str(cfg), "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: config.label: label must encode as UTF-8\n"
    assert not any(out.iterdir())


def test_flux_tag_survives_the_json_side(tmp_path):
    cfg = _write(tmp_path / "sim.json", {
        "circuit": {"qubit": QUBIT_CFG},
        "grid": GRID_CFG,
        "flux_phi0": 0.21,
    })
    out = tmp_path / "out"
    assert _run("simulate", "--config", cfg, "--out", str(out), "--quiet") == 0
    assert read_trace(out / "trace.json").flux_phi0 == 0.21


# N spans two full write blocks and a partial one
FORK_GRID = {"start_ghz": 5.17, "stop_ghz": 5.23, "points": 2 * components.BLOCK_POINTS + 3}


def _fork_config(tmp_path, **extra):
    return _write(tmp_path / "cfg.json", {"circuit": {"qubit": QUBIT_CFG}, "grid": FORK_GRID,
                                          "label": "fork", "flux_phi0": 0.3, **extra})


@pytest.mark.parametrize("command", ["simulate", "synth"])
def test_trace_twins_are_the_bytes_of_direct_writes(tmp_path, command):
    extra = {"noise_sigma": 0.01, "seed": 5} if command == "synth" else {}
    out, ref = tmp_path / "out", tmp_path / "ref"
    assert _run(command, "--config", _fork_config(tmp_path, **extra), "--out", str(out),
                "--quiet") == 0
    freqs = np.linspace(5.17e9, 5.23e9, FORK_GRID["points"])
    spec = make_interferometer(qubit=_truth_qubit())
    trace = (synthesize(spec, freqs, noise_sigma=0.01, seed=5, label="fork")
             if command == "synth" else sweep(spec, freqs, label="fork"))
    trace.flux_phi0 = 0.3
    ref.mkdir()
    write_trace_csv(ref / "trace.csv", trace)
    write_trace_json(ref / "trace.json", trace)
    for name in ("trace.csv", "trace.json"):
        assert (out / name).read_bytes() == (ref / name).read_bytes()


def _is_a_directory(path) -> str:
    return str(IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path)))


def test_a_failed_json_write_exits_2_and_keeps_the_csv(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "trace.json").mkdir(parents=True)
    assert _run("simulate", "--config", _fork_config(tmp_path), "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {_is_a_directory(out / 'trace.json')}\n"
    assert captured.out == ""
    ref = tmp_path / "ref.csv"
    write_trace_csv(ref, read_trace(out / "trace.csv"))
    assert (out / "trace.csv").read_bytes() == ref.read_bytes()


def test_a_failed_csv_write_is_reported_and_leaves_no_child(tmp_path, capsys, monkeypatch):
    def refuse(path, trace):
        raise OSError(f"cannot write {path}")

    monkeypatch.setattr(cli, "write_trace_csv", refuse)
    out = tmp_path / "out"
    assert _run("simulate", "--config", _fork_config(tmp_path), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: cannot write {out / 'trace.csv'}\n"
    assert read_trace(out / "trace.json").label == "fork"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # both writers fail: the CSV's error is the one reported
    (out / "trace.json").unlink()
    (out / "trace.json").mkdir()
    assert _run("simulate", "--config", _fork_config(tmp_path), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"error: cannot write {out / 'trace.csv'}\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_killed_json_writer_exits_2_naming_its_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "write_trace_json",
                        lambda path, trace: os.kill(os.getpid(), signal.SIGKILL))
    out = tmp_path / "out"
    assert _run("synth", "--config", _fork_config(tmp_path, noise_sigma=0.0), "--out",
                str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'trace.json'}: not written")
    assert f"signal {int(signal.SIGKILL)}" in err
    assert (out / "trace.csv").is_file()


def test_a_failed_fork_exits_2_writing_nothing_and_closing_its_pipe(tmp_path, capsys,
                                                                     monkeypatch):
    def no_fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    pipes = []
    pipe = os.pipe
    monkeypatch.setattr(os, "pipe", lambda: pipes.append(pipe()) or pipes[-1])
    monkeypatch.setattr(os, "fork", no_fork)
    out = tmp_path / "out"
    assert _run("simulate", "--config", _fork_config(tmp_path), "--out", str(out)) == 2
    eagain = f"[Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}"
    assert capsys.readouterr().err == f"error: {eagain}\n"
    assert list(out.iterdir()) == []
    assert len(pipes) == 1
    for fd in pipes[0]:
        with pytest.raises(OSError) as closed:
            os.fstat(fd)
        assert closed.value.errno == errno.EBADF


# ---------------------------------------------------------------------------
# config and degeneracy failures
# ---------------------------------------------------------------------------

def test_config_problems_exit_2(tmp_path, capsys):
    out = str(tmp_path / "out")
    missing = str(tmp_path / "nope.json")
    assert _run("simulate", "--config", missing, "--out", out) == 2

    bad_key = _write(tmp_path / "bad1.json", {"grid": GRID_CFG, "circuit": {},
                                              "bogus": 1})
    assert _run("simulate", "--config", bad_key, "--out", out) == 2
    assert "bogus" in capsys.readouterr().err

    # json.loads keeps the last of a repeated key, which would run; a config
    # refuses the repeat at the top level and inside an object
    repeated = {
        "basename": '{"grid": {"start_ghz": 5.17, "stop_ghz": 5.23, "points": 201},\n'
                    ' "circuit": {}, "basename": "first", "basename": "second"}\n',
        "splitter": '{"grid": {"start_ghz": 5.17, "stop_ghz": 5.23, "points": 201},\n'
                    ' "circuit": {"splitter": "branchline", "splitter": "ideal"}}\n',
    }
    for key, text in repeated.items():
        cfg = tmp_path / f"repeated_{key}.json"
        cfg.write_text(text)
        assert _run("simulate", "--config", str(cfg), "--out", out) == 2, key
        assert capsys.readouterr().err == f"error: config: duplicate key '{key}'\n"

    not_object = tmp_path / "bad2.json"
    not_object.write_text("[1, 2, 3]\n")
    assert _run("simulate", "--config", str(not_object), "--out", out) == 2

    backwards = _write(tmp_path / "bad3.json", {
        "circuit": {}, "grid": {"start_ghz": 6.0, "stop_ghz": 5.0, "points": 10}})
    assert _run("simulate", "--config", backwards, "--out", out) == 2
    assert "stop_ghz" in capsys.readouterr().err

    sparse = _write(tmp_path / "bad4.json", {
        "circuit": {}, "grid": {"start_ghz": 5.0, "stop_ghz": 6.0, "points": 1}})
    assert _run("simulate", "--config", sparse, "--out", out) == 2

    # json.load reads NaN and Infinity; the message must name the config key,
    # as it must for a negative entry
    for key, bad in (("delay_ns", math.nan), ("attenuation", math.inf), ("delay_ns", -0.1)):
        lines = {key: [0.1, bad, 0.1, 0.1]}
        cfg = _write(tmp_path / f"bad_{key}.json", {"circuit": {"lines": lines},
                                                     "grid": GRID_CFG})
        assert _run("simulate", "--config", cfg, "--out", out) == 2
        assert f"config.circuit.lines.{key}" in capsys.readouterr().err

    # a value the model rejects, or one that overflows in rad/s, names where it sits
    def qubit(**changes):
        return {"circuit": {"qubit": {**QUBIT_CFG, **changes}}, "grid": GRID_CFG}

    synth = {"circuit": {}, "grid": GRID_CFG, "noise_sigma": 0.01}
    cases = [
        ("simulate", qubit(r0=1.5), [], "config.circuit.qubit: r0"),
        ("simulate", qubit(rabi_mhz=1.0, gamma1_mhz=0), [], "config.circuit.qubit: saturation"),
        ("simulate", qubit(omega01_ghz=1e300), [], "config.circuit.qubit: omega01"),
        ("fit-spectrum", {"input_csv": "a.csv",
                          "init": {**QUBIT_CFG, "gamma1_mhz": 0, "gamma_phi_mhz": 0}},
         [], "config.init: gamma1/2"),
        # one trace gives no rate table, so a rates_csv is refused before the trace is read
        ("fit-spectrum", {"input_csv": "a.csv", "rates_csv": "r.csv"}, [], "config.rates_csv"),
        ("fit-spectrum", {"input_json": "a.json", "rates_csv": "r.csv"}, [], "config.rates_csv"),
        # the fitted scatterer would replace a template qubit, so it is refused, not ignored
        ("fit-spectrum", {"input_csv": "a.csv", "circuit": {"qubit": QUBIT_CFG}}, [],
         "config.circuit: unknown keys ['qubit']\n"),
        ("fit-spectrum", {"input_dir": str(tmp_path), "circuit": {"qubit": QUBIT_CFG}}, [],
         "config.circuit: unknown keys ['qubit']\n"),
        ("fit-rates", {"rates_csv": "a.csv", "transmon": {**TRANSMON_CFG, "ej_max_ghz": 1.0}},
         [], "config.transmon: transmon regime"),
        ("synth", {**synth, "seed": -3}, [], "config.seed"),
        ("synth", synth, ["--seed", "-1"], "--seed"),
        ("simulate", {"circuit": {"splitter": "branchline", "center_ghz": 1e300},
                      "grid": GRID_CFG}, [], "config.circuit: branchline"),
        ("simulate", {"circuit": {}, "grid": {**GRID_CFG, "stop_ghz": 1e300}}, [],
         "config.grid.stop_ghz"),
        ("simulate", {"circuit": {"cal_scale_re": 0}, "grid": GRID_CFG}, [],
         "config.circuit: cal_scale"),
        # a label neither trace file can hold is refused where it is read, before the sweep
        ("simulate", {"circuit": {}, "grid": GRID_CFG, "label": "a\rb"}, [],
         "config.label: label must not contain a carriage return\n"),
        ("synth", {**synth, "label": "a\ud800b"}, [], "config.label: label must encode as UTF-8\n"),
    ]
    for k, (command, doc, extra, where) in enumerate(cases):
        cfg = _write(tmp_path / f"model_{k}.json", doc)
        assert _run(command, "--config", cfg, "--out", out, *extra) == 2, where
        assert capsys.readouterr().err.startswith(f"error: {where}")

    # an input path the file system encoding cannot spell is refused naming its key
    encoding = f"is not a file name in the file system encoding {sys.getfilesystemencoding()}\n"
    for command, doc, key in (
            ("fit-rates", {"rates_csv": "r\ud800.csv", "transmon": TRANSMON_CFG}, "rates_csv"),
            ("fit-spectrum", {"input_dir": "d\ud800", "init": QUBIT_CFG}, "input_dir")):
        cfg = _write(tmp_path / f"unencodable_{key}.json", doc)
        assert _run(command, "--config", cfg, "--out", out) == 2, key
        assert capsys.readouterr().err == f"error: config.{key}: {doc[key]!r} {encoding}"


def test_an_input_name_the_file_system_encoding_cannot_spell_exits_2(tmp_path, capfd):
    cfg = _write(tmp_path / "cfg.json", {"input_csv": "t\ud800.csv"})
    out = tmp_path / "out"
    assert _run("classify", "--config", cfg, "--out", str(out)) == 2
    err = capfd.readouterr().err  # as a process's stderr, it takes any str
    assert err.startswith("error: config.input_csv: ")
    assert err.endswith(" is not a file name in the file system encoding "
                        f"{sys.getfilesystemencoding()}\n")
    assert not any(out.iterdir())


def test_full_reflection_on_grid_exits_3(tmp_path, capsys):
    cfg = _write(tmp_path / "sim.json", {
        "circuit": {"qubit": {"omega01_ghz": 5.2, "gamma1_mhz": 1.0,
                              "gamma_phi_mhz": 0.4, "r0": 1.0}},
        "grid": {"start_ghz": 5.15, "stop_ghz": 5.25, "points": 3},
    })
    assert _run("simulate", "--config", cfg, "--out", str(tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: forward model degenerate: ")
    assert err.count("5.2e+09") == 1 and err.count(" Hz") == 1


def test_a_far_grid_simulates_to_the_off_resonance_limit(tmp_path):
    # the scaled detuning squared overflows there; r -> 0 is the right limit
    # and pytest turns any numpy warning into an error
    cfg = _write(tmp_path / "sim.json", {"circuit": {"qubit": QUBIT_CFG},
                                         "grid": {"start_ghz": 5.15, "stop_ghz": 1e200,
                                                  "points": 5}})
    out = tmp_path / "out"
    assert _run("simulate", "--config", cfg, "--out", str(out), "--quiet") == 0
    trace = read_trace(out / "trace.json")
    assert all(np.all(np.isfinite(v)) for v in trace.values.values())


def test_corrupt_trace_exits_2(tmp_path):
    broken = tmp_path / "broken.csv"
    broken.write_text("freq_hz,re,im,path,label\nnot,a,number,s12,\n")
    cfg = _write(tmp_path / "fit.json", {"input_csv": str(broken)})
    assert _run("classify", "--config", cfg, "--out", str(tmp_path / "out")) == 2
    fit_cfg = _write(tmp_path / "fit2.json", {"input_csv": str(broken),
                                              "init": QUBIT_CFG})
    assert _run("fit-spectrum", "--config", fit_cfg, "--out",
                str(tmp_path / "out")) == 2


def _bad_csv_sample(trace, tmp_path):
    path = tmp_path / "scan.csv"
    write_trace_csv(path, trace)
    lines = path.read_text().splitlines()
    row = lines[3].split(",")
    row[1] = "nan"
    lines[3] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    return path


def _oversized_csv_field(trace, tmp_path):
    path = tmp_path / "scan.csv"
    write_trace_csv(path, trace)
    lines = path.read_text().splitlines()
    lines[1] += "x" * 200_000  # past csv's default field size limit
    path.write_text("\n".join(lines) + "\n")
    return path


def _bad_sample_after_two_line_labels(trace, tmp_path):
    trace.label = "a\nb"  # quoted, so every record spans two physical lines
    path = tmp_path / "scan.csv"
    write_trace_csv(path, trace)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[3][1] = "x"  # the third record starts on physical line 6
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return path


def _byte_ff_on_line_2(trace, tmp_path):
    path = tmp_path / "scan.csv"
    write_trace_csv(path, trace)
    lines = path.read_bytes().split(b"\n")
    lines[1] = lines[1].replace(b",s12,", b",s12\xff,")
    path.write_bytes(b"\n".join(lines))
    return path


def _no_cross_path(trace, tmp_path):
    trace.values = {p: trace.values[p] for p in ("s32", "s14")}
    path = tmp_path / "scan.csv"
    write_trace_csv(path, trace)
    return path


def _nested_json(trace, tmp_path):
    path = tmp_path / "scan.json"
    path.write_text("[" * 2000 + "]" * 2000)
    return path


def _freq_hz_twice(trace, tmp_path):
    # the second freq_hz is the trace's own grid, which json.loads would keep and fit
    path = tmp_path / "scan.json"
    write_trace_json(path, trace)
    path.write_text('{"freq_hz": [5.2e9],\n' + path.read_text()[1:])
    return path


def _bad_json(**edits):
    def make(trace, tmp_path):
        path = tmp_path / "scan.json"
        write_trace_json(path, trace)
        doc = json.loads(path.read_text())
        for key, value in edits.items():
            if key in ("re", "im"):
                doc["paths"]["s12"][key][5] = value
            elif key == "freq_hz":
                doc[key][5] = value
            else:
                doc[key] = value
        path.write_text(json.dumps(doc))
        return path
    return make


@pytest.mark.parametrize("make_input, message", [
    (_bad_csv_sample, "line 4: non-finite"),
    (_oversized_csv_field, "line 2: field larger than field limit"),
    (_bad_sample_after_two_line_labels, "line 6: could not convert string to float"),
    (_bad_json(re=math.inf), "non-finite sample"),
    (_bad_json(drive_port="4"), "drive_port"),
    (_bad_json(drive_port=True), "drive_port"),
    (_bad_json(flux_phi0="0.2"), "flux_phi0"),
    (_bad_json(flux_phi0=math.nan), "flux_phi0"),
    # one re with 51 im used to broadcast into 51 samples sharing a real part
    (_bad_json(paths={"s12": {"re": [0.5], "im": [0.1] * 51}}),
     "path 's12': re, im and freq_hz differ in length"),
    # these used to be coerced: None and 5 into the labels "None" and "5",
    # true and "0.5" into noise levels, string numbers into samples, true among
    # numbers into a sample of 1
    (_bad_json(label=None), "trace.label: expected a string"),
    (_bad_json(label=5), "trace.label: expected a string"),
    (_bad_json(noise_sigma=True), "trace.noise_sigma: expected a finite number"),
    (_bad_json(noise_sigma="0.5"), "trace.noise_sigma: expected a finite number"),
    (_bad_json(freq_hz="5.2e9"), "freq_hz must be a list of numbers"),
    (_bad_json(re="0.5"), "path 's12': re must be a list of numbers"),
    (_bad_json(im="0.5"), "path 's12': im must be a list of numbers"),
    (_bad_json(im=None), "path 's12': im must be a list of numbers"),
    (_bad_json(re=True), "path 's12': re must be a list of numbers"),
    (_bad_json(freq_hz=True), "freq_hz must be a list of numbers"),
    # these used to raise AttributeError, a traceback and exit 1
    (_bad_json(paths=[]), "paths must be an object"),
    (_bad_json(paths=5), "paths must be an object"),
    (_bad_json(paths={"s12": [1, 2]}), "path 's12' must be an object"),
    # a 0xff byte used to name no line, and deep nesting ended in a RecursionError
    # traceback with exit 1
    (_byte_ff_on_line_2, "error: line 2: not UTF-8 text"),
    (_nested_json, "error: JSON nested too deeply"),
    (_no_cross_path, "error: trace has no cross path (s12 or s34)"),
    (_freq_hz_twice, "error: duplicate key 'freq_hz'"),
], ids=["csv-nan-sample", "csv-oversized-field", "csv-multiline-label", "json-inf-sample",
        "json-drive-port-string", "json-drive-port-bool", "json-flux-string", "json-flux-nan",
        "json-re-im-lengths", "json-label-null", "json-label-number", "json-noise-bool",
        "json-noise-string", "json-freq-string", "json-re-string", "json-im-string",
        "json-im-null", "json-re-bool", "json-freq-bool", "json-paths-list",
        "json-paths-number", "json-path-list", "csv-byte-ff", "json-nested",
        "csv-no-cross-path", "json-freq-twice"])
def test_bad_trace_input_exits_2(tmp_path, capsys, make_input, message):
    trace = synthesize(make_interferometer(qubit=_truth_qubit()),
                       np.linspace(5.17e9, 5.23e9, 51))
    trace.flux_phi0 = 0.2
    path = make_input(trace, tmp_path)
    key = "input_csv" if path.suffix == ".csv" else "input_json"
    cfg = _write(tmp_path / "fit.json", {key: str(path), "init": QUBIT_CFG})
    assert _run("fit-spectrum", "--config", cfg, "--out", str(tmp_path / "out")) == 2
    assert message in capsys.readouterr().err


def test_classify_refuses_a_deeply_nested_json_trace(tmp_path, capsys):
    path = _nested_json(None, tmp_path)
    cfg = _write(tmp_path / "cfg.json", {"input_json": str(path)})
    assert _run("classify", "--config", cfg, "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == "error: JSON nested too deeply\n"


@pytest.mark.parametrize("command", ["simulate", "synth", "fit-spectrum", "fit-rates",
                                     "classify"])
@pytest.mark.parametrize("text, message", [
    (b"[" * 100_000, "config: JSON nested too deeply"),
    (b'{"grid": "\xff"}', "config: line 1: not UTF-8 text"),
    (b'{"grid":\n  [1, }', "config: line 2: Expecting value"),
], ids=["nested", "byte-ff", "syntax-line-2"])
def test_an_unreadable_config_exits_2_naming_it(tmp_path, capsys, command, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    assert _run(command, "--config", str(cfg), "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


_HUGE = 10**330  # a JSON integer beyond float range: float() of it raises OverflowError


def _trace_config(command, **edits):
    def make(tmp_path):
        trace = synthesize(make_interferometer(qubit=_truth_qubit()),
                           np.linspace(5.17e9, 5.23e9, 51))
        doc = {"input_json": str(_bad_json(**edits)(trace, tmp_path))}
        return {**doc, "init": QUBIT_CFG} if command == "fit-spectrum" else doc
    return make


def _batch_config(tmp_path, **keys):
    batch = tmp_path / "batch"
    batch.mkdir()
    write_trace_json(batch / "t.json", synthesize(make_interferometer(qubit=_truth_qubit()),
                                                  np.linspace(5.17e9, 5.23e9, 201)))
    return {"input_dir": str(batch), "init": QUBIT_CFG, **keys}


# values a type check alone lets through: float() overflows on them, numpy refuses
# their size, a required object is null, or a file name holds a NUL
@pytest.mark.parametrize("command, make_config, key", [
    ("simulate", lambda tmp: {"circuit": {"cal_scale_re": _HUGE}, "grid": GRID_CFG},
     "config.circuit.cal_scale_re"),
    ("simulate", lambda tmp: {"circuit": {"lines": {"delay_ns": [_HUGE, 0, 0, 0]}},
                              "grid": GRID_CFG},
     "config.circuit.lines.delay_ns"),
    ("simulate", lambda tmp: {"circuit": {}, "grid": GRID_CFG, "flux_phi0": _HUGE},
     "config.flux_phi0"),
    ("synth", lambda tmp: {"circuit": {}, "grid": GRID_CFG, "noise_sigma": _HUGE},
     "config.noise_sigma"),
    ("classify", _trace_config("classify", flux_phi0=_HUGE), "trace.flux_phi0"),
    ("fit-spectrum", _trace_config("fit-spectrum", flux_phi0=_HUGE), "trace.flux_phi0"),
    ("classify", _trace_config("classify", noise_sigma=_HUGE), "trace.noise_sigma"),
    ("fit-spectrum", _trace_config("fit-spectrum", noise_sigma=_HUGE), "trace.noise_sigma"),
    # sizes numpy refuses without allocating: MemoryError, then "Maximum allowed size"
    ("simulate", lambda tmp: {"circuit": {}, "grid": {**GRID_CFG, "points": 10**17}},
     "config.grid.points"),
    ("simulate", lambda tmp: {"circuit": {}, "grid": {**GRID_CFG, "points": 10**30}},
     "config.grid.points"),
    ("fit-rates", lambda tmp: {"rates_csv": str(_rates_table(tmp)), "transmon": TRANSMON_CFG,
                               "band_points": 10**17}, "config.band_points"),
    ("fit-rates", lambda tmp: {"rates_csv": str(_rates_table(tmp)), "transmon": TRANSMON_CFG,
                               "band_points": 10**30}, "config.band_points"),
    # a required object given as null
    ("simulate", lambda tmp: {"circuit": {}, "grid": None}, "config.grid"),
    ("fit-rates", lambda tmp: {"rates_csv": "rates.csv", "transmon": None}, "config.transmon"),
    # finite in GHz, infinite in Hz: the energy object refuses it
    ("fit-rates", lambda tmp: {"rates_csv": str(_rates_table(tmp)),
                               "transmon": {**TRANSMON_CFG, "ej_max_ghz": 1e300}},
     "config.transmon"),
    # a trace name that would put the trace outside --out
    ("simulate", lambda tmp: {"circuit": {}, "grid": GRID_CFG, "basename": "../escaped"},
     "config.basename"),
    ("synth", lambda tmp: {"circuit": {}, "grid": GRID_CFG, "noise_sigma": 0.01,
                           "basename": str(tmp / "abs")}, "config.basename"),
    # a NUL, which the OS refuses naming no key, and only once the file is opened
    ("simulate", lambda tmp: {"circuit": {}, "grid": GRID_CFG, "basename": "a\0b"},
     "config.basename"),
    ("fit-spectrum", lambda tmp: _batch_config(tmp, rates_csv="r\0.csv"), "config.rates_csv"),
    ("fit-spectrum", lambda tmp: {"input_json": "t\0.json"}, "config.input_json"),
    ("classify", lambda tmp: {"input_csv": "t\0.csv"}, "config.input_csv"),
    ("fit-rates", lambda tmp: {"rates_csv": "r\0.csv", "transmon": TRANSMON_CFG},
     "config.rates_csv"),
], ids=["cal-scale-huge", "lines-delay-huge", "flux-huge", "noise-huge",
        "classify-trace-flux-huge", "fit-spectrum-trace-flux-huge",
        "classify-trace-noise-huge", "fit-spectrum-trace-noise-huge",
        "grid-points-1e17", "grid-points-1e30", "band-points-1e17", "band-points-1e30",
        "grid-null", "transmon-null", "transmon-huge", "basename-parent-dir",
        "basename-absolute", "basename-nul", "rates-csv-out-nul", "input-json-nul",
        "input-csv-nul", "rates-csv-in-nul"])
def test_value_out_of_range_exits_2_naming_its_key(tmp_path, capsys, command, make_config, key):
    cfg = _write(tmp_path / "cfg.json", make_config(tmp_path))
    out = tmp_path / "out"
    before = set(tmp_path.iterdir())
    assert _run(command, "--config", cfg, "--out", str(out), "--quiet") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{key}: " in err
    assert not any(out.iterdir())
    assert set(tmp_path.iterdir()) == before | {out}


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_labels_a_trace(tmp_path, capsys):
    qubit = QubitScatterer(omega01=2 * math.pi * 5.826e9, gamma1=1.0 * MHZ,
                           gamma_phi=0.4 * MHZ, r0=0.9)
    grid = np.linspace(5.776e9, 5.876e9, 1001)
    trace = synthesize(make_interferometer(qubit=qubit), grid,
                       noise_sigma=0.005, seed=2)
    trace_path = tmp_path / "scan.json"
    write_trace_json(trace_path, trace)
    cfg = _write(tmp_path / "cls.json", {"input_json": str(trace_path)})
    out = tmp_path / "out"
    assert _run("classify", "--config", cfg, "--out", str(out)) == 0
    assert "Dip" in capsys.readouterr().out
    doc = json.loads((out / "scan_label.json").read_text())
    assert doc == {"label": "Dip", "path": "s12"}


def test_featureless_classify_exits_4(tmp_path):
    grid = np.linspace(5.7e9, 5.8e9, 301)
    trace = synthesize(make_interferometer(), grid, noise_sigma=0.01, seed=1)
    trace_path = tmp_path / "flat.json"
    write_trace_json(trace_path, trace)
    cfg = _write(tmp_path / "cls.json", {"input_json": str(trace_path)})
    assert _run("classify", "--config", cfg, "--out", str(tmp_path / "out")) == 4


# ---------------------------------------------------------------------------
# fit-spectrum
# ---------------------------------------------------------------------------

def test_single_trace_fit_outputs(tmp_path):
    trace = synthesize(make_interferometer(qubit=_truth_qubit()),
                       np.linspace(5.17e9, 5.23e9, 201))
    trace_path = tmp_path / "scan.json"
    write_trace_json(trace_path, trace)
    cfg = _write(tmp_path / "fit.json", {
        "input_json": str(trace_path),
        "init": QUBIT_CFG,
    })
    out = tmp_path / "out"
    assert _run("fit-spectrum", "--config", cfg, "--out", str(out), "--quiet") == 0
    params = parse_json(read_utf8(out / "scan_fit.json"))["params"]
    assert params["omega01"] == pytest.approx(5.2 * GHZ, rel=1e-9)
    assert params["gamma1"] == pytest.approx(1.0 * MHZ, rel=1e-6)

    resid_lines = (out / "scan_residuals.csv").read_text().splitlines()
    assert resid_lines[0] == "freq_hz,path,data_re,data_im,model_re,model_im"
    assert len(resid_lines) == 1 + 2 * 201  # both cross paths
    row = resid_lines[1].split(",")
    assert row[1] == "s12"
    assert float(row[2]) == pytest.approx(float(row[4]), abs=1e-9)
    assert float(row[3]) == pytest.approx(float(row[5]), abs=1e-9)


def test_fitted_curves_come_from_the_fit_model(tmp_path, monkeypatch):
    trace = synthesize(make_interferometer(qubit=_truth_qubit()),
                       np.linspace(5.17e9, 5.23e9, 201), noise_sigma=0.01, seed=4)
    trace_path = tmp_path / "scan.json"
    write_trace_json(trace_path, trace)
    cfg = _write(tmp_path / "fit.json", {"input_json": str(trace_path), "init": QUBIT_CFG})
    calls = []
    for module in (components, estimate, cli):
        monkeypatch.setattr(module, "sweep", lambda *a, **k: calls.append(a) or sweep(*a, **k))
    out = tmp_path / "out"
    assert _run("fit-spectrum", "--config", cfg, "--out", str(out), "--quiet") == 0
    assert not calls

    doc = json.loads((out / "scan_fit.json").read_text())
    assert set(doc) == {"params", "ci95", "rel_err", "residual_rms", "iterations", "converged"}
    p = doc["params"]
    # oracle: a sweep of the fitted circuit, calibrated as fit_spectrum does
    fitted = make_interferometer(qubit=QubitScatterer(
        omega01=p["omega01"], gamma1=p["gamma1"], gamma_phi=p["gamma_phi"], r0=p["r0"],
        rabi=_truth_qubit().rabi))
    cal = calibration_curve(p["scale_re"], p["scale_im"], p["phase_slope"], trace.freqs,
                            float(np.mean(trace.freqs)))
    with open(out / "scan_residuals.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for path, want in sweep(fitted, trace.freqs).values.items():
        if path not in ("s12", "s34"):
            continue
        got = np.array([complex(float(r["model_re"]), float(r["model_im"]))
                        for r in rows if r["path"] == path])
        want = want * cal
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_batch_fit_collects_rates(tmp_path):
    batch = tmp_path / "batch"
    batch.mkdir()
    fluxes = [0.10, 0.14, 0.18]
    for i, flux in enumerate(fluxes):
        qubit = QubitScatterer(omega01=(5.19 + 0.01 * i) * GHZ, gamma1=1.0 * MHZ,
                               gamma_phi=0.4 * MHZ, r0=0.9, rabi=1.5 * MHZ)
        trace = synthesize(make_interferometer(qubit=qubit),
                           np.linspace(5.16e9, 5.24e9, 241),
                           noise_sigma=0.005, seed=i)
        trace.flux_phi0 = flux
        write_trace_json(batch / f"trace_{i:02d}.json", trace)

    cfg = _write(tmp_path / "fit.json", {
        "input_dir": str(batch),
        "init": QUBIT_CFG,
    })
    out = tmp_path / "out"
    assert _run("fit-spectrum", "--config", cfg, "--out", str(out), "--quiet") == 0
    rates = read_rates_csv(out / "rates.csv")
    assert len(rates) == 3
    assert np.array_equal(rates.flux, fluxes)
    for i in range(3):
        assert (out / f"trace_{i:02d}_fit.json").exists()
        assert (out / f"trace_{i:02d}_residuals.csv").exists()
        assert rates.omega01[i] == pytest.approx((5.19 + 0.01 * i) * GHZ, rel=1e-3)


def test_batch_partial_failure_exits_4(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    trace = synthesize(make_interferometer(qubit=_truth_qubit()),
                       np.linspace(5.17e9, 5.23e9, 201))
    write_trace_json(batch / "good.json", trace)
    (batch / "bad.json").write_text("{ not a trace\n")

    cfg = _write(tmp_path / "fit.json", {
        "input_dir": str(batch),
        "init": QUBIT_CFG,
    })
    out = tmp_path / "out"
    assert _run("fit-spectrum", "--config", cfg, "--out", str(out), "--quiet") == 4
    assert "fit failed for bad.json" in capsys.readouterr().err
    assert (out / "good_fit.json").exists()
    rates = read_rates_csv(out / "rates.csv")
    assert len(rates) == 1


def _batch_with_corrupt_ends(tmp_path, good):
    """good traces, alternately .json (flux-tagged) and .csv (untagged), between two corrupt ones."""
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "a_corrupt.json").write_text("{ not a trace\n")
    for i in range(good):
        qubit = QubitScatterer(omega01=(5.19 + 0.005 * i) * GHZ, gamma1=1.0 * MHZ,
                               gamma_phi=0.4 * MHZ, r0=0.9, rabi=1.5 * MHZ)
        trace = synthesize(make_interferometer(qubit=qubit), np.linspace(5.16e9, 5.24e9, 201),
                           noise_sigma=0.005, seed=i)
        trace.flux_phi0 = 0.1 + 0.02 * i
        (write_trace_csv if i % 2 else write_trace_json)(
            batch / f"t{i}{'.csv' if i % 2 else '.json'}", trace)
    (batch / "z_corrupt.csv").write_text("freq_hz,re,im,path,label\n5e9,1,0,s12\n")
    return batch


@pytest.mark.parametrize("good", [1, 2, 3, 5])
def test_a_batch_fit_gives_the_bytes_of_fitting_each_trace_alone(tmp_path, capsys, good):
    batch = _batch_with_corrupt_ends(tmp_path, good)
    out, ref = tmp_path / "out", tmp_path / "ref"
    want_out, want_err, rows = "", "", []
    for path in sorted(batch.iterdir()):
        key = "input_json" if path.suffix == ".json" else "input_csv"
        cfg = _write(tmp_path / "one.json", {key: str(path), "init": QUBIT_CFG})
        code = _run("fit-spectrum", "--config", cfg, "--out", str(out))
        captured = capsys.readouterr()
        want_out += captured.out
        if path.name.endswith("_corrupt" + path.suffix):
            assert code == 2
            want_err += captured.err.replace("error: ", f"fit failed for {path.name}: "
                                             "TraceParseError: ", 1)
            continue
        assert (code, captured.err) == (0, "")
        fit = parse_json(read_utf8(out / f"{path.stem}_fit.json"))
        flux = read_trace(path).flux_phi0
        rows.append((*(fit["params"][k] for k in ("omega01", "gamma1", "gamma_phi")),
                     math.nan if flux is None else flux, float(fit["rel_err"]["gamma_phi"])))
    write_rates_csv(out / "rates.csv", RateDataset(*map(np.array, zip(*rows))))
    out.rename(ref)

    cfg = _write(tmp_path / "batch.json", {"input_dir": str(batch), "init": QUBIT_CFG})
    assert _run("fit-spectrum", "--config", cfg, "--out", str(out)) == 4
    captured = capsys.readouterr()
    assert captured.out == want_out + f"wrote {out / 'rates.csv'}\n"
    assert captured.err == want_err
    assert want_err.count("\n") == 2
    assert ({p.name: p.read_bytes() for p in out.iterdir()}
            == {p.name: p.read_bytes() for p in ref.iterdir()})
    assert len(read_rates_csv(out / "rates.csv")) == good


def test_a_batch_fit_on_a_pipe_prints_each_line_once(tmp_path):
    batch = _batch_with_corrupt_ends(tmp_path, 3)
    cfg = _write(tmp_path / "batch.json", {"input_dir": str(batch), "init": QUBIT_CFG})
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", "import sys; from mzq.cli import main; "
                           "sys.exit(main())", "fit-spectrum", "--config", cfg, "--out",
                           str(out)], capture_output=True, text=True, env=env)
    assert done.returncode == 4
    assert done.stdout == "".join(f"wrote {out / f'{stem}{end}'}\n" for stem in ("t0", "t1", "t2")
                                  for end in ("_fit.json", "_residuals.csv")) + (
        f"wrote {out / 'rates.csv'}\n")
    assert [line.split(":")[0] for line in done.stderr.splitlines()] == [
        "fit failed for a_corrupt.json", "fit failed for z_corrupt.csv"]


def _give_up():
    raise BaseException("the back half gave up")


@pytest.mark.parametrize("die, message", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL),
     "config.input_dir: the fits from t1.json on were not finished, their process was killed "
     f"by signal {int(signal.SIGKILL)}"),
    (_give_up, "the back half gave up"),
], ids=["killed", "crashed"])
def test_a_batch_child_that_dies_exits_2_without_a_rate_table(tmp_path, capsys, monkeypatch,
                                                              die, message):
    batch = tmp_path / "batch"
    batch.mkdir()
    trace = synthesize(make_interferometer(qubit=_truth_qubit()),
                       np.linspace(5.17e9, 5.23e9, 201), noise_sigma=0.005)
    for name in ("t0.json", "t1.json", "t2.json"):  # the child fits t1 and t2
        write_trace_json(batch / name, trace)

    def read(path):
        if Path(path).name == "t2.json":
            die()
        return read_trace(path)

    monkeypatch.setattr(cli, "read_trace", read)
    cfg = _write(tmp_path / "fit.json", {"input_dir": str(batch), "init": QUBIT_CFG})
    out = tmp_path / "out"
    assert _run("fit-spectrum", "--config", cfg, "--out", str(out), "--quiet") == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in out.iterdir()) == [
        "t0_fit.json", "t0_residuals.csv", "t1_fit.json", "t1_residuals.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _FrontHalfStop(BaseException):
    pass


def test_a_batch_parent_that_fails_raises_after_reaping_its_child(tmp_path, monkeypatch):
    batch = tmp_path / "batch"
    batch.mkdir()
    trace = synthesize(make_interferometer(qubit=_truth_qubit()),
                       np.linspace(5.17e9, 5.23e9, 201), noise_sigma=0.005)
    for name in ("t0.json", "t1.json", "t2.json"):  # the parent fits t0, the child t1 and t2
        write_trace_json(batch / name, trace)

    def read(path):
        if Path(path).name == "t0.json":
            raise _FrontHalfStop("the front half gave up")
        return read_trace(path)

    monkeypatch.setattr(cli, "read_trace", read)
    cfg = _write(tmp_path / "fit.json", {"input_dir": str(batch), "init": QUBIT_CFG})
    out = tmp_path / "out"
    with pytest.raises(_FrontHalfStop, match="the front half gave up"):
        _run("fit-spectrum", "--config", cfg, "--out", str(out), "--quiet")
    assert sorted(p.name for p in out.iterdir()) == [
        "t1_fit.json", "t1_residuals.csv", "t2_fit.json", "t2_residuals.csv"]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_input_dir_lists_a_trace_suffix_in_any_case(tmp_path):
    # read_trace parses T.JSON as JSON, so the listing and the twin rule take it too
    batch = tmp_path / "batch"
    batch.mkdir()
    trace = synthesize(make_interferometer(qubit=_truth_qubit()),
                       np.linspace(5.17e9, 5.23e9, 201), noise_sigma=0.005)
    trace.flux_phi0 = 0.17
    write_trace_json(batch / "T.JSON", trace)
    write_trace_csv(batch / "T.CSV", trace)  # its twin, which is not fitted
    write_trace_csv(batch / "U.Csv", trace)
    cfg = _write(tmp_path / "fit.json", {"input_dir": str(batch), "init": QUBIT_CFG})
    out = tmp_path / "out"
    assert _run("fit-spectrum", "--config", cfg, "--out", str(out), "--quiet") == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "T_fit.json", "T_residuals.csv", "U_fit.json", "U_residuals.csv", "rates.csv"]
    flux = read_rates_csv(out / "rates.csv").flux
    assert flux[0] == 0.17 and math.isnan(flux[1])


@pytest.mark.parametrize("names", [("T.JSON", "T.json"), ("T.CSV", "T.csv")])
def test_a_batch_whose_inputs_share_a_stem_exits_2_naming_both(tmp_path, capsys, names):
    # each would write T_fit.json and T_residuals.csv, one from each process
    batch = tmp_path / "batch"
    batch.mkdir()
    for seed, name in enumerate(names):
        trace = synthesize(make_interferometer(qubit=_truth_qubit()),
                           np.linspace(5.17e9, 5.23e9, 201), noise_sigma=0.005, seed=seed)
        (write_trace_json if name.lower().endswith(".json") else write_trace_csv)(
            batch / name, trace)
    cfg = _write(tmp_path / "fit.json", {"input_dir": str(batch), "init": QUBIT_CFG})
    out = tmp_path / "out"
    assert _run("fit-spectrum", "--config", cfg, "--out", str(out), "--quiet") == 2
    assert capsys.readouterr().err == (
        f"error: config.input_dir: {names[0]} and {names[1]} share a stem, so their fits "
        "would write the same files\n")
    assert not any(out.iterdir())


def test_an_input_dir_without_traces_exits_2(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    (batch / "notes.txt").write_text("no trace here\n")
    (batch / "old_fit.json").write_text("{}\n")  # a fit output, which the listing skips
    cfg = _write(tmp_path / "fit.json", {"input_dir": str(batch), "init": QUBIT_CFG})
    out = tmp_path / "out"
    assert _run("fit-spectrum", "--config", cfg, "--out", str(out), "--quiet") == 2
    assert (capsys.readouterr().err
            == f"error: config.input_dir: no .csv or .json traces in {batch}\n")
    assert not any(out.iterdir())


def test_batch_fits_a_synth_twin_once_from_its_json(tmp_path):
    batch = tmp_path / "batch"
    cfg = _write(tmp_path / "synth.json", {
        "circuit": {"qubit": QUBIT_CFG},
        "grid": GRID_CFG,
        "noise_sigma": 0.005,
        "flux_phi0": 0.17,
    })
    assert _run("synth", "--config", cfg, "--out", str(batch), "--quiet") == 0
    assert sorted(p.name for p in batch.iterdir()) == ["trace.csv", "trace.json"]
    fit_cfg = _write(tmp_path / "fit.json", {"input_dir": str(batch), "init": QUBIT_CFG})
    out = tmp_path / "out"
    assert _run("fit-spectrum", "--config", fit_cfg, "--out", str(out), "--quiet") == 0
    rates = read_rates_csv(out / "rates.csv")
    assert len(rates) == 1
    assert rates.flux[0] == 0.17


def test_repeated_batch_fit_into_its_input_dir_skips_its_own_outputs(tmp_path):
    batch = tmp_path / "batch"
    cfg = _write(tmp_path / "synth.json", {
        "circuit": {"qubit": QUBIT_CFG},
        "grid": GRID_CFG,
        "noise_sigma": 0.005,
        "flux_phi0": 0.17,
    })
    assert _run("synth", "--config", cfg, "--out", str(batch), "--quiet") == 0
    fit_cfg = _write(tmp_path / "fit.json", {"input_dir": str(batch), "init": QUBIT_CFG,
                                             "rates_csv": "sweep_rates.csv"})
    assert _run("fit-spectrum", "--config", fit_cfg, "--out", str(batch), "--quiet") == 0
    first = (batch / "sweep_rates.csv").read_bytes()
    assert sorted(p.name for p in batch.iterdir()) == [
        "sweep_rates.csv", "trace.csv", "trace.json", "trace_fit.json", "trace_residuals.csv"]
    assert _run("fit-spectrum", "--config", fit_cfg, "--out", str(batch), "--quiet") == 0
    assert (batch / "sweep_rates.csv").read_bytes() == first


def test_rates_csv_cannot_hide_or_replace_an_input_trace(tmp_path, capsys):
    batch = tmp_path / "in"
    for name, flux in (("t1", 0.17), ("t2", 0.21)):
        cfg = _write(tmp_path / f"{name}.json", {"circuit": {"qubit": QUBIT_CFG},
                                                 "grid": GRID_CFG, "noise_sigma": 0.005,
                                                 "flux_phi0": flux, "basename": name})
        assert _run("synth", "--config", cfg, "--out", str(batch), "--quiet") == 0
    before = {p.name: p.read_bytes() for p in batch.iterdir()}
    cfg = _write(tmp_path / "fit.json", {"input_dir": str(batch), "init": QUBIT_CFG,
                                         "rates_csv": "t1.json"})
    assert _run("fit-spectrum", "--config", cfg, "--out", str(batch), "--quiet") == 2
    assert capsys.readouterr().err.startswith("error: config.rates_csv")
    assert {p.name: p.read_bytes() for p in batch.iterdir()} == before


def test_a_rates_csv_in_input_dir_must_read_as_a_rate_table(tmp_path, capsys):
    batch = tmp_path / "batch"
    cfg = _write(tmp_path / "synth.json", {"circuit": {"qubit": QUBIT_CFG}, "grid": GRID_CFG,
                                           "noise_sigma": 0.005})
    assert _run("synth", "--config", cfg, "--out", str(batch), "--quiet") == 0
    # the header alone used to pass, and the batch wrote its table over this file
    (batch / "rates.csv").write_text(estimate.RATES_CSV_HEADER + "\n1e10,1,x,0.1,0.1\n")
    before = {p.name: p.read_bytes() for p in batch.iterdir()}
    cfg = _write(tmp_path / "fit.json", {"input_dir": str(batch), "init": QUBIT_CFG})
    assert _run("fit-spectrum", "--config", cfg, "--out", str(batch), "--quiet") == 2
    assert capsys.readouterr().err == (
        f"error: config.rates_csv: {batch / 'rates.csv'} is in input_dir, not a rate table "
        "(line 2: non-numeric field)\n")
    assert {p.name: p.read_bytes() for p in batch.iterdir()} == before


def test_rates_csv_cannot_overwrite_a_fit_output_or_leave_out(tmp_path, capsys):
    batch = tmp_path / "batch"
    batch.mkdir()
    trace = synthesize(make_interferometer(qubit=_truth_qubit()),
                       np.linspace(5.17e9, 5.23e9, 201), noise_sigma=0.005)
    write_trace_json(batch / "a.json", trace)
    write_trace_json(batch / "b.json", trace)
    out = tmp_path / "out"
    cfg = _write(tmp_path / "fit.json", {"input_dir": str(batch), "init": QUBIT_CFG})
    assert _run("fit-spectrum", "--config", cfg, "--out", str(out), "--quiet") == 0
    fitted = (out / "a_fit.json").read_bytes()
    for name in ("a_fit.json", "b_residuals.csv", "../rates.csv", "sub/rates.csv", ".."):
        cfg = _write(tmp_path / "fit.json", {"input_dir": str(batch), "init": QUBIT_CFG,
                                             "rates_csv": name})
        assert _run("fit-spectrum", "--config", cfg, "--out", str(out), "--quiet") == 2, name
        assert capsys.readouterr().err.startswith("error: config.rates_csv")
    assert (out / "a_fit.json").read_bytes() == fitted
    assert not (tmp_path / "rates.csv").exists()


def test_fit_spectrum_needs_exactly_one_input(tmp_path):
    cfg = _write(tmp_path / "fit.json", {"input_csv": "a.csv", "input_json": "b.json"})
    assert _run("fit-spectrum", "--config", cfg, "--out", str(tmp_path / "out")) == 2


# ---------------------------------------------------------------------------
# fit-rates
# ---------------------------------------------------------------------------

TRANSMON_CFG = {"ej_max_ghz": 20.0, "ec_mhz": 592.4}


def _rates_table(tmp_path):
    transmon = TransmonParams(ej_max=20.0e9, ec=592.4e6)
    bath = BathModel(alpha=1.7e-4, lorentz_center=2 * math.pi * 8.3e9,
                     lorentz_fwhm=2 * math.pi * 1.5e9, lorentz_height=2 * math.pi * 2.0e6)
    rng = np.random.default_rng(3)
    flux = np.linspace(0.05, 0.45, 30)
    w01 = np.array([transmon_omega01(transmon, p) for p in flux])
    slopes = np.array([abs(domega01_dflux(transmon, p)) for p in flux])
    g1 = gamma1_model(bath, w01) * (1 + 0.05 * rng.standard_normal(30))
    gp = np.array([gamma_phi_model(OUNoise(79e-6, 0.0, s)) for s in slopes])
    gp = gp * (1 + 0.1 * rng.standard_normal(30))
    rel = np.full(30, 0.1)

    # two rows the pipeline must set aside: one too noisy, one untagged
    w01 = np.append(w01, [w01[-1] * 1.001, w01[-1] * 1.002])
    g1 = np.append(g1, [g1[-1], g1[-1]])
    gp = np.append(gp, [gp[-1], gp[-1]])
    flux = np.append(flux, [0.30, np.nan])
    rel = np.append(rel, [0.5, 0.1])

    path = tmp_path / "rates.csv"
    write_rates_csv(path, RateDataset(w01, g1, gp, flux, rel))
    return path


def test_fit_rates_pipeline(tmp_path):
    rates_path = _rates_table(tmp_path)
    cfg = _write(tmp_path / "rates_cfg.json", {
        "rates_csv": str(rates_path),
        "transmon": TRANSMON_CFG,
        "band_points": 50,
    })
    out = tmp_path / "out"
    assert _run("fit-rates", "--config", cfg, "--out", str(out), "--quiet") == 0

    for name in ("points_gamma1.csv", "points_gamma_phi.csv", "excluded_rows.csv",
                 "gamma1_fit.json", "curve_gamma1.csv",
                 "gamma_phi_power_fit.json", "curve_gamma_phi_power.csv",
                 "ou_fit.json", "curve_gamma_phi_ou.csv"):
        assert (out / name).exists(), name

    g1 = parse_json(read_utf8(out / "gamma1_fit.json"))["params"]
    assert abs(g1["alpha"] - 1.7e-4) / 1.7e-4 < 0.33

    ou = parse_json(read_utf8(out / "ou_fit.json"))["params"]
    assert abs(ou["sigma"] - 79e-6) / 79e-6 < 0.10
    assert "kappa_upper95" in ou

    power = parse_json(read_utf8(out / "gamma_phi_power_fit.json"))["params"]
    assert power["eta"] == pytest.approx(1.0, abs=0.2)

    excluded = (out / "excluded_rows.csv").read_text().splitlines()
    assert excluded[0] == "row,omega01_rad_s,gamma_phi_rad_s,rel_err_gamma_phi,reason"
    reasons = {ln.split(",")[0]: ln.split(",")[4] for ln in excluded[1:]}
    assert reasons == {"30": "rel_err_at_or_above_max", "31": "flux_unknown"}

    curve = (out / "curve_gamma_phi_ou.csv").read_text().splitlines()
    assert curve[0] == "slope_rad_s_per_phi0,gamma_phi_rad_s,lo95_rad_s,hi95_rad_s"
    assert len(curve) == 51
    mid = [float(v) for v in curve[25].split(",")]
    assert mid[2] <= mid[1] <= mid[3]


def test_degenerate_flux_rows_keep_their_exclusion_reasons(tmp_path):
    rates_path = _rates_table(tmp_path)
    rates = read_rates_csv(rates_path)
    # sweet spot, both half-integer points, and two in the band where f01 <= 0
    extra = np.array([0.0, 0.5, 1.5, 0.4995, -0.4995])
    rates = RateDataset(np.append(rates.omega01, rates.omega01[:5]),
                        np.append(rates.gamma1, rates.gamma1[:5]),
                        np.append(rates.gamma_phi, rates.gamma_phi[:5]),
                        np.append(rates.flux, extra),
                        np.append(rates.rel_err_gamma_phi, np.full(5, 0.1)))
    write_rates_csv(rates_path, rates)
    cfg = _write(tmp_path / "rates_cfg.json", {
        "rates_csv": str(rates_path), "transmon": TRANSMON_CFG, "band_points": 20})
    out = tmp_path / "out"
    assert _run("fit-rates", "--config", cfg, "--out", str(out), "--quiet") == 0

    # the pointwise reasons, with the scalar slope and its DegenerateFlux
    transmon = TransmonParams(ej_max=20.0e9, ec=592.4e6)
    lines = ["row,omega01_rad_s,gamma_phi_rad_s,rel_err_gamma_phi,reason"]
    for i in range(len(rates)):
        reasons = []
        if rates.rel_err_gamma_phi[i] >= 0.33:
            reasons.append("rel_err_at_or_above_max")
        if not math.isfinite(rates.flux[i]):
            reasons.append("flux_unknown")
        else:
            try:
                slope = abs(domega01_dflux(transmon, float(rates.flux[i])))
            except DegenerateFlux:
                slope = math.nan
            if not slope > 0:
                reasons.append("zero_flux_sensitivity")
        if not rates.rel_err_gamma_phi[i] > 0:
            reasons.append("rel_err_not_positive")
        if not rates.gamma_phi[i] > 0:
            reasons.append("gamma_phi_not_positive")
        if reasons:
            lines.append(",".join((str(i), *(format(float(x), ".17g") for x in (
                rates.omega01[i], rates.gamma_phi[i], rates.rel_err_gamma_phi[i])),
                ";".join(reasons))))
    assert (out / "excluded_rows.csv").read_text() == "\n".join(lines) + "\n"
    assert len(lines) == 1 + 2 + 5
    # each gamma_phi fit keeps only unlisted rows, so equal counts make a partition
    for fit in (fit_gamma_phi_power, fit_ou):
        assert len(lines) - 1 + fit(rates, transmon).dof + 2 == len(rates)


def test_excluded_rows_of_mixed_reasons_match_the_row_by_row_oracle(tmp_path):
    rates = read_rates_csv(_rates_table(tmp_path))
    cols = {name: getattr(rates, name).copy() for name in ("gamma_phi", "flux",
                                                           "rel_err_gamma_phi")}
    for i, marks in {2: {"rel_err_gamma_phi": 0.5, "gamma_phi": -1e5},
                     4: {"flux": math.nan, "rel_err_gamma_phi": math.nan},
                     7: {"flux": 0.0},
                     9: {"rel_err_gamma_phi": 0.5, "flux": math.nan, "gamma_phi": 0.0}}.items():
        for name, value in marks.items():
            cols[name][i] = value
    rates = replace(rates, **cols)
    write_rates_csv(tmp_path / "rates.csv", rates)
    cfg = _write(tmp_path / "rates_cfg.json", {
        "rates_csv": str(tmp_path / "rates.csv"), "transmon": TRANSMON_CFG, "band_points": 20})
    out = tmp_path / "out"
    assert _run("fit-rates", "--config", cfg, "--out", str(out), "--quiet") == 0

    want = {2: "rel_err_at_or_above_max;gamma_phi_not_positive",
            4: "flux_unknown;rel_err_not_positive",
            7: "zero_flux_sensitivity",
            9: "rel_err_at_or_above_max;flux_unknown;gamma_phi_not_positive",
            30: "rel_err_at_or_above_max", 31: "flux_unknown"}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("row", "omega01_rad_s", "gamma_phi_rad_s", "rel_err_gamma_phi", "reason"))
    for i, reason in want.items():
        writer.writerow([i, *(format(float(x), ".17g") for x in (
            rates.omega01[i], rates.gamma_phi[i], rates.rel_err_gamma_phi[i])), reason])
    assert (out / "excluded_rows.csv").read_text() == buf.getvalue()


def test_ou_band_takes_its_dof_from_the_rows_the_fit_keeps(tmp_path):
    rates_path = _rates_table(tmp_path)
    rates = read_rates_csv(rates_path)
    # a row with a negative gamma_phi, which both fits set aside, at a flux
    # slope beyond every kept row's
    rates = RateDataset(*(np.append(col, value) for col, value in (
        (rates.omega01, rates.omega01[3]), (rates.gamma1, rates.gamma1[3]),
        (rates.gamma_phi, -rates.gamma_phi[3]), (rates.flux, 0.47),
        (rates.rel_err_gamma_phi, 0.1))))
    write_rates_csv(rates_path, rates)
    cfg = _write(tmp_path / "rates_cfg.json", {
        "rates_csv": str(rates_path), "transmon": TRANSMON_CFG, "band_points": 20})
    out = tmp_path / "out"
    assert _run("fit-rates", "--config", cfg, "--out", str(out), "--quiet") == 0

    lines = (out / "curve_gamma_phi_ou.csv").read_text().splitlines()[1:]
    written = np.array([[float(v) for v in ln.split(",")] for ln in lines]).T
    ou = fit_ou(read_rates_csv(rates_path), TransmonParams(ej_max=20.0e9, ec=592.4e6))
    pvec = np.array([ou.params["sigma"], ou.params["kappa"]])
    kept = len(rates) - 3  # less the noisy row, the untagged row and the negative one
    points = (out / "points_gamma_phi.csv").read_text().splitlines()[1:]
    slopes = [float(ln.split(",")[1]) for ln in points[:kept]]
    band = prediction_band(ou_curve, ou_jacobian, np.array(slopes), pvec, ou.covariance,
                           kept - 2, 20)
    assert np.array_equal(written, np.array(band))
    assert np.array_equal(np.array(ou.band(20)), np.array(band))
    *_, hi_usable = prediction_band(ou_curve, ou_jacobian, np.array(slopes), pvec,
                                    ou.covariance, kept - 1, 20)
    y, hi = written[1], written[3]
    assert not np.allclose(hi_usable - y, hi - y, rtol=1e-4, atol=0)

    # each slope band spans the rows its fit keeps (the first 30), not the row set aside
    assert float(points[-1].split(",")[1]) > max(slopes)
    for name in ("curve_gamma_phi_ou.csv", "curve_gamma_phi_power.csv"):
        curve = (out / name).read_text().splitlines()[1:]
        ends = [float(curve[i].split(",")[0]) for i in (0, -1)]
        assert ends == [min(slopes), max(slopes)], name
    listed = {ln.split(",")[0]: ln.split(",")[4] for ln in
              (out / "excluded_rows.csv").read_text().splitlines()[1:]}
    assert listed == {"30": "rel_err_at_or_above_max", "31": "flux_unknown",
                      "32": "gamma_phi_not_positive"}
    power = fit_gamma_phi_power(rates, TransmonParams(ej_max=20.0e9, ec=592.4e6))
    assert len(listed) + power.dof + 2 == len(listed) + ou.dof + 2 == len(rates)


def test_rate_fits_carry_the_dof_of_their_bands(tmp_path):
    rates = read_rates_csv(_rates_table(tmp_path))
    # a row with gamma_phi = 0, which both gamma_phi fits set aside
    rates = RateDataset(*(np.append(col, value) for col, value in (
        (rates.omega01, rates.omega01[3]), (rates.gamma1, rates.gamma1[3]),
        (rates.gamma_phi, 0.0), (rates.flux, rates.flux[3]),
        (rates.rel_err_gamma_phi, 0.1))))
    transmon = TransmonParams(ej_max=20.0e9, ec=592.4e6)
    assert fit_gamma1(rates).dof == len(rates) - 4
    # less the noisy row, the untagged row and the zero row
    assert fit_gamma_phi_power(rates, transmon).dof == len(rates) - 3 - 2
    assert fit_ou(rates, transmon).dof == len(rates) - 3 - 2


@pytest.mark.parametrize("column,value,reason", [
    pytest.param("rel_err_gamma_phi", math.nan, "rel_err_not_positive", id="nan"),
    pytest.param("rel_err_gamma_phi", 0.0, "rel_err_not_positive", id="0.0"),
    pytest.param("rel_err_gamma_phi", -0.1, "rel_err_not_positive", id="-0.1"),
    pytest.param("gamma_phi", 0.0, "gamma_phi_not_positive", id="gamma_phi-0.0"),
    pytest.param("gamma_phi", -1.0e5, "gamma_phi_not_positive", id="gamma_phi--1e5")])
def test_a_row_without_a_usable_rel_err_is_set_aside_alone(tmp_path, column, value, reason):
    rates = read_rates_csv(_rates_table(tmp_path))
    marked = getattr(rates, column).copy()
    marked[5] = value
    tables = {"marked": replace(rates, **{column: marked}),
              "dropped": rates.subset(np.arange(len(rates)) != 5)}
    for name, table in tables.items():
        write_rates_csv(tmp_path / f"{name}.csv", table)
        cfg = _write(tmp_path / f"{name}_cfg.json", {
            "rates_csv": str(tmp_path / f"{name}.csv"), "transmon": TRANSMON_CFG,
            "band_points": 20})
        assert _run("fit-rates", "--config", cfg, "--out", str(tmp_path / name), "--quiet") == 0
    # the other rows keep their own weights: both gamma_phi fits are those without row 5
    for name in ("gamma_phi_power_fit.json", "ou_fit.json", "curve_gamma_phi_power.csv",
                 "curve_gamma_phi_ou.csv"):
        assert ((tmp_path / "marked" / name).read_bytes()
                == (tmp_path / "dropped" / name).read_bytes()), name
    reasons = [ln.split(",") for ln in
               (tmp_path / "marked" / "excluded_rows.csv").read_text().splitlines()[1:]]
    assert [(r[0], r[4]) for r in reasons][:1] == [("5", reason)]
    # each gamma_phi fit keeps exactly the rows the file does not list
    transmon = TransmonParams(ej_max=20.0e9, ec=592.4e6)
    for fit in (fit_gamma_phi_power, fit_ou):
        assert len(reasons) + fit(tables["marked"], transmon).dof + 2 == len(rates)


@pytest.mark.parametrize("column,value", [(1, "nan"), (1, "inf"), (2, "nan"), (2, "-inf")])
def test_non_finite_rate_exits_2(tmp_path, capsys, column, value):
    path = _rates_table(tmp_path)
    lines = path.read_text().splitlines()
    fields = lines[6].split(",")
    fields[column] = value
    lines[6] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    cfg = _write(tmp_path / "cfg.json", {"rates_csv": str(path),
                                         "transmon": TRANSMON_CFG})
    assert _run("fit-rates", "--config", cfg, "--out", str(tmp_path / "out")) == 2
    assert "line 7: gamma1 and gamma_phi must be finite" in capsys.readouterr().err


def test_a_rate_table_that_is_not_utf8_exits_2_naming_its_line(tmp_path, capsys):
    path = _rates_table(tmp_path)
    lines = path.read_bytes().split(b"\n")
    lines[2] += b"\xff"
    path.write_bytes(b"\n".join(lines))
    cfg = _write(tmp_path / "cfg.json", {"rates_csv": str(path), "transmon": TRANSMON_CFG})
    assert _run("fit-rates", "--config", cfg, "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == "error: line 3: not UTF-8 text\n"


def test_a_run_that_cannot_get_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    # a band_points that passes the one-array pre-check can still fail a later allocation
    def no_memory(*args):
        raise MemoryError("Unable to allocate 916. MiB for an array")

    monkeypatch.setattr(estimate, "prediction_band", no_memory)
    cfg = _write(tmp_path / "cfg.json", {"rates_csv": str(_rates_table(tmp_path)),
                                         "transmon": TRANSMON_CFG})
    assert _run("fit-rates", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet") == 2
    assert capsys.readouterr().err == "error: Unable to allocate 916. MiB for an array\n"


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_bad_omega01_exits_2_naming_its_line(tmp_path, capsys, value):
    path = _rates_table(tmp_path)
    lines = path.read_text().splitlines()
    lines[6] = ",".join([value] + lines[6].split(",")[1:])
    path.write_text("\n".join(lines) + "\n")
    cfg = _write(tmp_path / "cfg.json", {"rates_csv": str(path),
                                         "transmon": TRANSMON_CFG})
    assert _run("fit-rates", "--config", cfg, "--out", str(tmp_path / "out")) == 2
    assert "line 7: omega01 must be finite and > 0" in capsys.readouterr().err


def test_band_matches_a_pointwise_reference():
    pvec = np.array([200e-6, 2 * MHZ])
    cov = np.array([[1e-11, 2e-2], [2e-2, 4e10]])
    xs = np.linspace(1e9, 3e10, 40)
    grid, y, lo, hi = prediction_band(ou_curve, ou_jacobian, xs, pvec, cov, 30, xs.size)
    assert np.array_equal(grid, xs)
    quantile = stats.t.ppf(0.975, 30)
    for j, x in enumerate(xs):
        # the exact delta method: a gradient by Richardson-extrapolated central
        # differences, accurate to about 1e-11 here
        grad = richardson_jacobian(lambda p: ou_curve(p, x), pvec, 1e-4 * pvec)[0]
        half = quantile * math.sqrt(grad @ cov @ grad)
        assert y[j] == ou_curve(pvec, x)
        assert hi[j] - y[j] == pytest.approx(half, rel=1e-9)
        assert y[j] - lo[j] == pytest.approx(half, rel=1e-9)


def _quasi_static_table(path, seed):
    transmon = TransmonParams(ej_max=20.0e9, ec=592.4e6)
    rng = np.random.default_rng(seed)
    flux = np.sort(rng.uniform(0.03, 0.43, 40))
    w01 = np.array([transmon_omega01(transmon, p) for p in flux])
    slopes = np.array([abs(domega01_dflux(transmon, p)) for p in flux])
    gp = np.array([gamma_phi_model(OUNoise(80e-6, 0.0, s)) for s in slopes])
    gp = gp * (1 + 0.1 * rng.standard_normal(40))
    write_rates_csv(path, RateDataset(w01, 1e-4 * w01, gp, flux, np.full(40, 0.1)))
    return path


def _central_jacobian(fn, x, rel_step=1e-3):
    cols = []
    for i in range(x.size):
        step = np.zeros(x.size)
        step[i] = rel_step * abs(x[i])
        cols.append((fn(x + step) - fn(x - step)) / (2 * step[i]))
    return np.column_stack(cols)


@pytest.mark.parametrize("seed", [2, 6, 20])
def test_ou_band_is_the_delta_method_where_lm_ends_at_a_negative_kappa(tmp_path, monkeypatch,
                                                                     seed):
    # quasi-static noise (kappa = 0): on these seeds LM stops at a negative raw kappa
    raw = []

    def recording(fn, *args, **kwargs):
        raw.append((fn, levenberg_marquardt(fn, *args, **kwargs)))
        return raw[-1][1]

    monkeypatch.setattr(estimate, "levenberg_marquardt", recording)
    cfg = _write(tmp_path / "rates_cfg.json", {
        "rates_csv": str(_quasi_static_table(tmp_path / "rates.csv", seed)),
        "transmon": TRANSMON_CFG, "band_points": 40})
    out = tmp_path / "out"
    assert _run("fit-rates", "--config", cfg, "--out", str(out), "--quiet") == 0

    residual, res = next((fn, r) for fn, r in raw if r.x.size == 2)
    assert res.x[1] < 0
    # the delta method at the folded point, built without LM's Jacobian:
    # central differences with steps well inside |x|, so none crosses 0
    x = np.abs(res.x)
    jac = _central_jacobian(residual, x)
    dof = res.residual.size - 2
    cov = res.cost / dof * np.linalg.inv(jac.T @ jac)
    lines = (out / "curve_gamma_phi_ou.csv").read_text().splitlines()[1:]
    xs, y, lo, hi = np.array([[float(v) for v in ln.split(",")] for ln in lines]).T
    grad = _central_jacobian(lambda p: ou_curve(p, xs), x)
    half = stats.t.ppf(0.975, dof) * np.sqrt(np.einsum("ni,ij,nj->n", grad, cov, grad))
    assert np.array_equal(y, ou_curve(x, xs))
    assert np.all(np.abs((hi - y) / half - 1) < 0.01)
    assert np.all(np.abs((y - lo) / half - 1) < 0.01)

    # the reported covariance is that reference, cross term and its sign included
    ou = fit_ou(read_rates_csv(tmp_path / "rates.csv"), TransmonParams(ej_max=20.0e9, ec=592.4e6))
    scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
    assert np.all(np.abs(ou.covariance - cov) < 1e-3 * scale)
    assert np.sign(ou.covariance[0, 1]) == np.sign(cov[0, 1])


def test_no_fit_or_band_takes_finite_differences(tmp_path, monkeypatch):
    # every fit and band has a closed-form Jacobian; only a caller without
    # one reaches levenberg_marquardt's difference fallback
    def refuse(*args, **kwargs):
        raise AssertionError("finite-difference Jacobian")

    monkeypatch.setattr(leastsq, "_jacobian", refuse)
    transmon = TransmonParams(ej_max=20.0e9, ec=592.4e6)
    bath = BathModel(alpha=1e-4, lorentz_center=6.0 * GHZ, lorentz_fwhm=1.5 * GHZ,
                     lorentz_height=2.0 * MHZ)
    batch = tmp_path / "batch"
    batch.mkdir()
    for i, flux in enumerate(np.linspace(0.03, 0.41, 10)):
        w01 = transmon_omega01(transmon, flux)
        slope = abs(domega01_dflux(transmon, flux))
        qubit = QubitScatterer(omega01=w01, gamma1=gamma1_model(bath, w01),
                               gamma_phi=gamma_phi_model(OUNoise(300e-6, 0.1 * MHZ, slope)),
                               r0=0.9, rabi=1.5 * MHZ)
        f01 = w01 / (2 * math.pi)
        spec = make_interferometer(center_hz=5.746e9, qubit=qubit, splitter_kind="branchline")
        trace = synthesize(spec, np.linspace(f01 - 30e6, f01 + 30e6, 201), noise_sigma=0.01,
                           seed=i)
        trace.flux_phi0 = float(flux)
        write_trace_json(batch / f"trace_{i:02d}.json", trace)

    # the circuit and shared init of the flux_sweep benchmark, on 10 traces of 201 points
    fit_cfg = _write(tmp_path / "fit.json", {
        "input_dir": str(batch), "circuit": {"splitter": "branchline", "center_ghz": 5.746},
        "init": {**QUBIT_CFG, "omega01_ghz": 10.0}})
    assert _run("fit-spectrum", "--config", fit_cfg, "--out", str(tmp_path / "fit"),
                "--quiet") == 0
    rates_cfg = _write(tmp_path / "rates_cfg.json", {
        "rates_csv": str(tmp_path / "fit" / "rates.csv"), "transmon": TRANSMON_CFG,
        "band_points": 20})
    out = tmp_path / "rates"
    assert _run("fit-rates", "--config", rates_cfg, "--out", str(out), "--quiet") == 0
    for name in ("gamma1", "gamma_phi_power", "gamma_phi_ou"):
        assert len((out / f"curve_{name}.csv").read_text().splitlines()) == 21


def test_kept_rows_of_one_flux_slope_fail_both_gamma_phi_fits(tmp_path, capsys):
    n = 10
    w = 2 * math.pi * np.linspace(5.0e9, 5.5e9, n)
    flux = np.full(n, 0.2)
    rel = np.full(n, 0.1)
    flux[-1], rel[-1] = 0.3, 0.5  # another slope, but on a row set aside as too noisy
    path = tmp_path / "rates.csv"
    write_rates_csv(path, RateDataset(w, 1e-4 * w, np.linspace(1e6, 2e6, n), flux, rel))
    cfg = _write(tmp_path / "cfg.json", {"rates_csv": str(path), "transmon": TRANSMON_CFG})
    out = tmp_path / "out"
    assert _run("fit-rates", "--config", cfg, "--out", str(out), "--quiet") == 4
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == ["gamma_phi_power fit failed",
                                                    "ou fit failed"]
    assert sorted(p.name for p in out.iterdir()) == [
        "curve_gamma1.csv", "excluded_rows.csv", "gamma1_fit.json",
        "points_gamma1.csv", "points_gamma_phi.csv"]


def test_fit_rates_needs_eight_rows(tmp_path, capsys):
    w = 2 * math.pi * np.linspace(4e9, 9e9, 5)
    path = tmp_path / "rates.csv"
    write_rates_csv(path, RateDataset(w, 1e-4 * w, np.full(5, 1e5),
                                      np.full(5, 0.2), np.full(5, 0.1)))
    cfg = _write(tmp_path / "cfg.json", {"rates_csv": str(path),
                                         "transmon": TRANSMON_CFG})
    assert _run("fit-rates", "--config", cfg, "--out", str(tmp_path / "out")) == 2
    assert "at least 8" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# what each command prints
# ---------------------------------------------------------------------------

def _printing_case(command, tmp_path):
    """command's config, the label it prints, and the files it writes, in write order."""
    if command in ("simulate", "synth"):
        doc = {"circuit": {"qubit": QUBIT_CFG}, "grid": GRID_CFG, "basename": "scan"}
        if command == "synth":
            doc["noise_sigma"] = 0.01
        return doc, [], ["scan.csv", "scan.json"]
    if command == "fit-rates":
        return ({"rates_csv": str(_rates_table(tmp_path)), "transmon": TRANSMON_CFG,
                 "band_points": 50}, [],
                ["points_gamma1.csv", "points_gamma_phi.csv", "excluded_rows.csv",
                 "gamma1_fit.json", "curve_gamma1.csv", "gamma_phi_power_fit.json",
                 "curve_gamma_phi_power.csv", "ou_fit.json", "curve_gamma_phi_ou.csv"])
    trace_path = tmp_path / "scan.json"
    if command == "classify":
        qubit = QubitScatterer(omega01=2 * math.pi * 5.826e9, gamma1=1.0 * MHZ,
                               gamma_phi=0.4 * MHZ, r0=0.9)
        write_trace_json(trace_path, synthesize(make_interferometer(qubit=qubit),
                                                np.linspace(5.776e9, 5.876e9, 1001),
                                                noise_sigma=0.005, seed=2))
        return {"input_json": str(trace_path)}, ["Dip"], ["scan_label.json"]
    write_trace_json(trace_path, synthesize(make_interferometer(qubit=_truth_qubit()),
                                            np.linspace(5.17e9, 5.23e9, 201)))
    return ({"input_json": str(trace_path), "init": QUBIT_CFG}, [],
            ["scan_fit.json", "scan_residuals.csv"])


def test_no_fit_or_classify_loads_numpy_ma(tmp_path):
    # np.median and np.percentile would load numpy.ma, an import every fit
    # process would pay. pytest's own process may hold it, so the commands run
    # in a fresh one; fit-spectrum fits one trace, so no forked child hides a load
    runs = []
    for command in ("fit-rates", "fit-spectrum", "classify"):
        work = tmp_path / command
        work.mkdir()
        doc, _, _ = _printing_case(command, work)
        runs.append([command, "--config", _write(work / "cfg.json", doc),
                     "--out", str(work / "out"), "--quiet"])
    probe = ("import json, sys; from mzq.cli import main; "
             f"codes = [main(argv) for argv in {runs!r}]; "
             "print(json.dumps([codes, 'numpy.ma' in sys.modules]))")
    out = subprocess.run([sys.executable, "-c", probe], check=True, capture_output=True,
                         text=True, env={**os.environ,
                                         "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert json.loads(out.stdout) == [[0, 0, 0], False]


@pytest.mark.parametrize("command", ["simulate", "synth", "fit-spectrum", "fit-rates",
                                     "classify"])
def test_each_command_names_each_file_it_writes_unless_quiet(tmp_path, capsys, command):
    doc, label, files = _printing_case(command, tmp_path)
    cfg = _write(tmp_path / "cfg.json", doc)
    loud, quiet = tmp_path / "loud", tmp_path / "quiet"
    assert _run(command, "--config", cfg, "--out", str(loud)) == 0
    assert capsys.readouterr() == (
        "".join(f"{line}\n" for line in label + [f"wrote {loud / name}" for name in files]), "")
    assert _run(command, "--config", cfg, "--out", str(quiet), "--quiet") == 0
    assert capsys.readouterr() == ("", "")
    for out in (loud, quiet):
        assert sorted(p.name for p in out.iterdir()) == sorted(files)
