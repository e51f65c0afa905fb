import contextlib
import dataclasses
import errno
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phasekit
from phasekit import TimeSeries, cli, presets, scenario
from phasekit.cli import build_parser, main
from phasekit.presets import preset_entries, run_figure


def _write_config(tmp_path, body="system=boson\nN=2\nubar=0.05\nsteps=5\n"
                                 "tau_max=1.0\nchannels=avgC_CN,avgW\n",
                  out=None):
    out = tmp_path / "series.csv" if out is None else out
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(f"{body}out={out}\n", encoding="utf-8")
    return cfg, out


def _usage_error(capsys, command, extra):
    """``command`` followed by the options ``extra`` exits 1 with argparse's
    usage error naming ``extra``, and no stdout."""
    with pytest.raises(SystemExit) as exc:
        main([*command, *extra])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: phasekit ")
    assert f"error: unrecognized arguments: {' '.join(extra)}" in captured.err


def test_run_subcommand(tmp_path, capsys):
    cfg, out = _write_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    assert out.exists()
    assert "wrote" in capsys.readouterr().out
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert header == "tau,avgC_CN,avgW"


def test_run_overrides(tmp_path):
    # --integrator is the one override: the grid comes from the config alone
    body = "system=boson\nN=2\nubar=0.05\nsteps=9\ntau_max=2.0\nchannels=avgC_CN,avgW\n"
    texts = {}
    for name, extra, argv in (("flag", "", ["--integrator", "rk4"]),
                              ("config", "integrator=rk4\n", []),
                              ("eigen", "", [])):
        cfg, out = _write_config(tmp_path, body + extra, out=tmp_path / f"{name}.csv")
        assert main(["run", "--config", str(cfg), *argv]) == 0
        texts[name] = out.read_text(encoding="utf-8")
    rows = texts["flag"].strip().splitlines()
    assert len(rows) == 10  # header + 9 grid points
    assert rows[-1].split(",")[0] == "2"
    assert texts["flag"] == texts["config"] != texts["eigen"]


@pytest.mark.parametrize("option", [["--steps", "9"], ["--tau-max", "2"]],
                         ids=["steps", "tau-max"])
def test_run_grid_options_are_usage_errors(tmp_path, capsys, option):
    # the grid has one source, the config's tau_max and steps
    cfg, _ = _write_config(tmp_path)
    _usage_error(capsys, ["run", "--config", str(cfg)], option)
    assert sorted(p.name for p in tmp_path.iterdir()) == [cfg.name]


def test_run_missing_config_exits_one(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["config-not-utf8", "out-with-nul"])
def test_unusable_config_bytes_exit_one(tmp_path, capsys, case):
    if case == "config-not-utf8":
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"system=boson\nN=2\nubar=\xff\nchannels=avgW\n")
        message = "cannot read config"
    else:
        cfg, _ = _write_config(tmp_path, out=f"{tmp_path}/a\0b.csv")
        message = "embedded null byte"
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [cfg.name]


def test_run_invalid_config_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("system=boson\nN=0\nubar=1\nchannels=xi\n", encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_duplicate_channels_exits_one(tmp_path, capsys):
    cfg, out = _write_config(tmp_path, "system=boson\nN=2\nubar=0.05\n"
                                       "channels=avgW,avgW\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert "twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("body", [
    "system=fermion\nubar=1e308\nchannels=avgW\n",
    "system=boson\nN=2\nubar=1e308\nchannels=avgW\n",
    "system=boson\nN=10\nubar=1e308\nchannels=avgW\n",
    "system=boson\nN=2\nubar=1e306\nchannels=avgW\n",
    "system=boson\nN=2\nubar=0.05\ntau_max=1e300\nsteps=3\nchannels=avgW\n",
    "system=boson\nN=2\nubar=1e306\nintegrator=rk4\nchannels=avgW\n",
    "system=boson\nN=2\nubar=1e308\nintegrator=rk4\nchannels=avgW\n",
    "system=fermion\nubar=1e306\nintegrator=rk4\nchannels=avgW\n",
    "system=fermion\nubar=1e308\nintegrator=rk4\nchannels=avgW\n",
], ids=["fermion", "boson", "boson-infinite-h", "boson-1e306", "tau-max-1e300",
        "boson-1e306-rk4", "boson-1e308-rk4", "fermion-1e306-rk4", "fermion-1e308-rk4"])
def test_run_non_finite_states_exit_two(tmp_path, capsys, body):
    # E*tau overflows, H overflows, E*tau keeps no significant digit, or the
    # RK4 step exceeds its stability limit: each fails before the phases or
    # the RK4 polynomial are formed, with no numpy warning and no CSV
    cfg, out = _write_config(tmp_path, body)
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "numerical error" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("body", [
    "system=boson\nN=2\nubar=1\nsteps=10000000000000\n",
    "system=boson\nN=100000000\nubar=1\n",
    "system=boson\nN=10\nubar=1\nsteps=200000\n",
    "system=fermion\nubar=1\nsteps=700000\n",
], ids=["steps", "N", "boson-grid", "fermion-grid"])
def test_run_oversized_request_exits_one(tmp_path, capsys, body):
    cfg, out = _write_config(tmp_path, body + "channels=avgW\n")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("system, initial", [("boson\nN=2", "nan,0,0"),
                                             ("fermion", "nan,0,0"),
                                             ("boson\nN=2", "1e200,0,0"),
                                             ("fermion", "1.7e308+1.7e308j,0,0")],
                         ids=["boson-nan", "fermion-nan", "boson-overflow",
                              "fermion-abs-overflow"])
def test_run_unnormalized_initial_amplitudes_exit_one(tmp_path, capsys, system, initial):
    cfg, out = _write_config(tmp_path, f"system={system}\nubar=1\n"
                                       f"initial={initial}\nchannels=avgW\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert "not normalized" in capsys.readouterr().err
    assert not out.exists()


def test_run_non_finite_channel_exit_two(tmp_path, capsys, monkeypatch):
    # the last gate before the file: whatever produced a nan, no CSV is written
    def nan_series(cfg):
        tau = np.linspace(0.0, cfg.tau_max, cfg.steps)
        return TimeSeries(tau, {name: np.full(cfg.steps, np.nan) for name in cfg.channels})

    monkeypatch.setattr(scenario, "run_scenario", nan_series)
    cfg, out = _write_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 2
    assert "'avgC_CN' is nan at tau=0.0" in capsys.readouterr().err
    assert not out.exists()


def test_run_rk4_on_grid_finer_than_default_step(tmp_path):
    # linspace intervals differ in their last bits; the step must come from
    # the smallest one, not the first
    cfg, out = _write_config(tmp_path, "system=boson\nN=2\nubar=0.05\ntau_max=4\n"
                                       "steps=40001\nintegrator=rk4\nchannels=avgW\n")
    assert main(["run", "--config", str(cfg)]) == 0
    rows = out.read_text(encoding="utf-8").splitlines()
    assert len(rows) == 40002
    assert rows[-1].split(",")[0] == "4"


@pytest.mark.parametrize("case", ["run-out-is-directory", "run-out-under-file",
                                  "run-out-two-under-file", "figure-out-is-file",
                                  "figure-out-under-file"])
def test_unwritable_output_exits_one(tmp_path, capsys, case):
    taken = tmp_path / "taken"
    if case == "run-out-is-directory":
        taken.mkdir()
    else:
        taken.write_text("a file, not a directory\n", encoding="utf-8")
    if case.startswith("run"):
        out = {"run-out-is-directory": taken, "run-out-under-file": taken / "series.csv",
               "run-out-two-under-file": taken / "sub" / "series.csv"}[case]
        cfg, _ = _write_config(tmp_path, out=out)
        argv = ["run", "--config", str(cfg)]
    else:
        out = taken if case == "figure-out-is-file" else taken / "sub"
        argv = ["figure", "fig1", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("phasekit:") and f"cannot write {taken}" in err
    assert "Traceback" not in err
    if case != "run-out-is-directory":
        # the message names the file in the way, not mkdir's errno
        assert f"{taken} is not a directory" in err, err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("command", ["figure", "run"])
def test_empty_output_path_exits_one_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                        command):
    # Path("") is the working directory: an empty --out or out= is refused
    monkeypatch.chdir(tmp_path)
    if command == "figure":
        argv = ["figure", "fig1", "--out", ""]
    else:
        (tmp_path / "scenario.cfg").write_text(
            "system=boson\nN=2\nubar=0.05\nsteps=5\nchannels=avgW\nout=\n",
            encoding="utf-8")
        argv = ["run", "--config", "scenario.cfg"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("phasekit: config error:") and "empty, got ''" in err
    assert [p.name for p in tmp_path.iterdir()] == (
        [] if command == "figure" else ["scenario.cfg"])


@pytest.mark.parametrize("out", ["fresh/", "new/deep/", "taken/", "fresh/."])
def test_run_out_naming_a_directory_exits_one(tmp_path, capsys, monkeypatch, out):
    # Path drops a trailing '/' or '/.': "fresh/" would write a regular file
    # named fresh
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").mkdir()
    cfg, _ = _write_config(tmp_path, out=out)
    before = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
    assert main(["run", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("phasekit: config error: out must name a file, "
                                   "not a directory")
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == before
    assert before == ["scenario.cfg", "taken"]


def test_run_failed_replace_keeps_old_target(tmp_path, capsys, monkeypatch):
    cfg, out = _write_config(tmp_path)
    out.write_bytes(b"old bytes\n")

    def failing_replace(src, dst):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(scenario.os, "replace", failing_replace)
    assert main(["run", "--config", str(cfg)]) == 1
    assert f"cannot write {out}" in capsys.readouterr().err
    assert out.read_bytes() == b"old bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.cfg", "series.csv"]


def test_run_failed_write_leaves_no_new_directory(tmp_path, capsys, monkeypatch):
    out = tmp_path / "newdir" / "deep" / "series.csv"
    cfg, _ = _write_config(tmp_path, out=out)

    def failing_replace(src, dst):
        raise OSError(errno.ENAMETOOLONG, "File name too long")

    monkeypatch.setattr(scenario.os, "replace", failing_replace)
    assert main(["run", "--config", str(cfg)]) == 1
    assert f"cannot write {out}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.cfg"]


@pytest.mark.parametrize("failure, code", [("replace", 1), ("non-finite", 2)])
def test_failed_figure_leaves_no_file(tmp_path, capsys, monkeypatch, failure, code):
    # fig1 writes six files; the third fails, and the two before it go too,
    # then the directory the call made
    done = []
    real_replace, real_format = os.replace, scenario.format_csv

    def failing_replace(src, dst):
        if len(done) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        done.append(dst)
        real_replace(src, dst)

    def failing_format(series, channel_order, **kwargs):
        if len(done) == 2:
            raise phasekit.NumericalError("channel 'avgC_U' is nan at tau=0.0")
        done.append(channel_order)
        return real_format(series, channel_order, **kwargs)

    if failure == "replace":
        monkeypatch.setattr(scenario.os, "replace", failing_replace)
    else:
        monkeypatch.setattr(scenario, "format_csv", failing_format)
    out = tmp_path / "bundle"
    assert main(["figure", "fig1", "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("phasekit:") and "Traceback" not in err
    assert len(done) == 2
    assert list(tmp_path.iterdir()) == []


def test_failed_figure_rerun_keeps_earlier_files(tmp_path, capsys, monkeypatch):
    # a rerun into a full bundle whose third write fails removes nothing
    names = [f for e in preset_entries("fig1") for f in e.filenames]
    out = tmp_path / "bundle"
    out.mkdir()
    for name in names:
        (out / name).write_bytes(b"old " + name.encode() + b"\n")
    (out / "notes.txt").write_bytes(b"kept\n")
    fresh = {p.name: p.read_bytes() for p in run_figure("fig1", tmp_path / "fresh")}
    done = []
    real_replace = os.replace

    def failing_replace(src, dst):
        if len(done) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        done.append(Path(dst).name)
        real_replace(src, dst)

    monkeypatch.setattr(scenario.os, "replace", failing_replace)
    assert main(["figure", "fig1", "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    assert done == names[:2]
    got = {p.name: p.read_bytes() for p in out.iterdir()}
    assert got == {"notes.txt": b"kept\n",
                   **{n: fresh[n] for n in names[:2]},
                   **{n: b"old " + n.encode() + b"\n" for n in names[2:]}}


def test_non_finite_figure_rerun_keeps_every_old_file(tmp_path, capsys, monkeypatch):
    # every text is formatted before the first write, so a NaN in the last
    # entry's series leaves the whole old bundle as it was
    names = [f for e in preset_entries("fig1") for f in e.filenames]
    out = tmp_path / "bundle"
    out.mkdir()
    for name in names:
        (out / name).write_bytes(b"old " + name.encode() + b"\n")
    real_run = presets.run_scenario

    def poisoned(cfg):
        series = real_run(cfg)
        if cfg.N != 10:
            return series
        channels = dict(series.channels)
        channels["avgC_U"] = channels["avgC_U"].copy()
        channels["avgC_U"][7] = math.nan
        return TimeSeries(series.tau_grid, channels)

    monkeypatch.setattr(presets, "run_scenario", poisoned)
    assert main(["figure", "fig1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "channel 'avgC_U' is nan" in err and "Traceback" not in err
    assert names[-1] == "fig1_boson_N10_U0.05_avgC_U.csv"
    got = {p.name: p.read_bytes() for p in out.iterdir()}
    assert got == {n: b"old " + n.encode() + b"\n" for n in names}


def test_run_without_out_exits_one(tmp_path, capsys):
    cfg = tmp_path / "no_out.cfg"
    cfg.write_text("system=boson\nN=2\nubar=1\nchannels=xi\n", encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 1


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # --config is required
    assert exc.value.code == 1


def test_parser_is_built_once_and_keeps_no_arguments(tmp_path, capsys, monkeypatch):
    builds = []

    def counting_build():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build)
    cfg, out = _write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--integrator", "rk4"]) == 0
    rk4 = out.read_text(encoding="utf-8")
    # the override of the first call does not reach the second
    assert main(["run", "--config", str(cfg)]) == 0
    eigen = out.read_text(encoding="utf-8")
    assert len(eigen.splitlines()) == len(rk4.splitlines()) == 6
    assert eigen != rk4
    first = cli._parser.parse_args(["verify"])
    cli._parser.parse_args(["figure", "fig1", "--out", str(tmp_path)])
    assert vars(first) == {"command": "verify"}
    for argv in (["run"], ["bogus"], ["verify", "--n-max", "1"], []):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
    assert len(builds) == 1


def test_figure_subcommand(tmp_path, capsys):
    assert main(["figure", "fig9", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("wrote") == 4
    assert len(list(tmp_path.glob("fig9_*.csv"))) == 4


def test_figure_unknown_preset_exits_one(tmp_path, capsys):
    assert main(["figure", "fig0", "--out", str(tmp_path)]) == 1
    assert "unknown preset" in capsys.readouterr().err


def test_verify_reports_and_exits_two(capsys):
    # the battery includes the honestly-failing printed-squeezing check, so
    # the designed exit status for a full verify run is 2
    code = main(["verify"])
    out = capsys.readouterr().out
    assert code == 2
    assert "squeezing-closed-form" in out
    assert "PASS  boson-beta-unitarity" in out




def test_verify_bad_n_max_exits_one(capsys):
    # the battery always sweeps N = 1..12: every --n-max is a usage error
    for n_max in ("1", "3", "12", "100000000"):
        _usage_error(capsys, ["verify"], ["--n-max", n_max])


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_verify_non_finite_tol_exits_one(capsys, tol):
    # the operator-algebra checks always hold to 1e-12: every --tol is a usage error
    _usage_error(capsys, ["verify"], ["--tol", tol])


def test_public_names_resolve():
    assert len(set(phasekit.__all__)) == len(phasekit.__all__)
    for name in phasekit.__all__:
        assert hasattr(phasekit, name), name
    namespace: dict = {}
    exec("from phasekit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(phasekit.__all__)


def _child_env():
    # the child imports the same phasekit as this process
    src = str(Path(phasekit.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


def _run_module(cfg, timeout):
    return subprocess.run(
        [sys.executable, "-m", "phasekit", "run", "--config", str(cfg)],
        capture_output=True, text=True, timeout=timeout, env=_child_env(),
    )


def test_numpy_is_the_only_runtime_dependency():
    # a diff of sys.modules, not a full list: site hooks may import packages
    # of their own before the interpreter runs this code
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import phasekit, phasekit.cli\n"
            "tops = {name.split('.')[0] for name in set(sys.modules) - before}\n"
            "print(*sorted(tops - set(sys.stdlib_module_names)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) <= {"numpy", "phasekit"}


def test_module_invocation_subprocess(tmp_path):
    cfg, out = _write_config(tmp_path)
    proc = _run_module(cfg, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


@pytest.mark.parametrize("ubar, tau_max, code", [(5.0, "1e6", 2), (0.05, "1e6", 0),
                                                  (0.05, "1e306", 1)],
                         ids=["stiff-norm-drift", "weak-coupling",
                              "non-finite-substeps"])
def test_run_rk4_work_is_bounded_on_huge_intervals(tmp_path, ubar, tau_max, code):
    # three grid points tau_max/2 apart at dtau=1e-3: 5e8 RK4 substeps per
    # interval at 1e6, a count that overflows to inf at 1e306
    cfg, out = _write_config(tmp_path, f"system=boson\nN=10\nubar={ubar}\n"
                                       f"tau_max={tau_max}\nsteps=3\nintegrator=rk4\n"
                                       "channels=avgW\n")
    proc = _run_module(cfg, timeout=10)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 0:
        assert len(out.read_text(encoding="utf-8").splitlines()) == 4
    else:
        assert ("norm drifted" if code == 2 else "non-finite number of RK4 substeps"
                ) in proc.stderr
        assert not out.exists()


# ---------------------------------------------------------------------------
# property: every `run` ends in a valid CSV (exit 0) or a mapped error with
# no file (exit 1 or 2), never in a traceback

_ODD_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-300, 1e300, 1e306,
               1.7976931348623157e308)


def _mostly(good, odd):
    """``good`` nine draws in ten, else ``odd``: most requests stay runnable."""
    return st.sampled_from(range(10)).flatmap(lambda k: odd if k == 9 else good)


@st.composite
def _run_request(draw):
    """A config text and the argv that runs it, each field now and then odd:
    out of range, NaN, huge, missing, misspelt, or an odd ``out`` path."""
    system = draw(_mostly(st.sampled_from(("boson", "fermion")),
                          st.sampled_from(("Boson", ""))))
    boson = system == "boson"
    n = draw(_mostly(st.integers(1, 6) if boson else st.none(),
                     st.sampled_from((None, -1, 0, 2, 501, 10 ** 30))))
    lines = [f"system={system}"] + ([] if n is None else [f"N={n}"])
    lines.append(f"ubar={draw(_mostly(st.floats(-10.0, 10.0), st.sampled_from(_ODD_FLOATS)))!r}")
    tau_max = draw(_mostly(st.one_of(st.none(), st.floats(0.1, 50.0)),
                           st.sampled_from(_ODD_FLOATS)))
    if tau_max is not None:
        lines.append(f"tau_max={tau_max!r}")
    steps = draw(_mostly(st.integers(2, 30), st.sampled_from((-1, 0, 1, 10 ** 13))))
    lines.append(f"steps={steps}")
    pair = draw(_mostly(st.sampled_from((None,) if boson else (None, "l-up/r-up", "l-up/r-down")),
                        st.sampled_from(("l-up/r-up", "x"))))
    if pair is not None:
        lines.append(f"mode_pair={pair}")
    dim = (n + 1 if n is not None and 0 <= n <= 6 else 4) if boson else 3
    sizes = _mostly(st.just(dim), st.sampled_from((1, dim + 1)))
    parts = draw(sizes.flatmap(lambda k: st.lists(
        _mostly(st.floats(-1.0, 1.0), st.sampled_from(_ODD_FLOATS)),
        min_size=2 * k, max_size=2 * k)))
    amps = [complex(re, im) for re, im in zip(parts[:len(parts) // 2], parts[len(parts) // 2:])]
    with np.errstate(all="ignore"):
        norm = float(np.linalg.norm(amps))
    if draw(_mostly(st.just(True), st.just(False))) and math.isfinite(norm) and norm > 1e-3:
        amps = [a / norm for a in amps]
    initial = draw(_mostly(st.sampled_from(("right-well", "left-well", "amplitudes")),
                           st.just("middle")))
    if initial == "amplitudes":
        initial = ",".join(repr(a) for a in amps)
    lines.append(f"initial={initial}")
    lines.append("integrator=" + draw(_mostly(st.sampled_from(("eigen", "rk4")),
                                              st.just("euler"))))
    known = scenario.BOSON_CHANNELS if boson else scenario.FERMION_CHANNELS
    channels = draw(_mostly(st.lists(st.sampled_from(known), min_size=1, max_size=4,
                                     unique=True),
                            st.lists(st.sampled_from(known + ("xi", "xi_closed", "bogus")),
                                     max_size=4)))
    lines.append("channels=" + ",".join(channels))
    # no "/" in a drawn name, so a relative path stays in the working directory
    name = draw(st.text(st.characters(blacklist_characters="/", blacklist_categories=("Cs",)),
                        min_size=1, max_size=12))
    out = draw(_mostly(st.sampled_from(("{name}.csv", "new/{name}/x.csv")),
                       st.sampled_from(("taken", "taken/", "file/{name}", "{long}", "",
                                        ".", "a\0b.csv"))))
    lines.append("out=" + out.format(name=name, long="x" * 300))
    argv = ["run", "--config", "scenario.cfg"]
    if draw(st.sampled_from(range(10))) == 9:
        argv += ["--integrator", draw(st.sampled_from(("rk4", "eigen", "euler")))]
    return "\n".join(lines) + "\n", argv


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


def _assert_valid_csv(text, cfg):
    assert text.endswith("\n") and "\r" not in text
    lines = text.split("\n")[:-1]
    assert lines[0] == "tau," + ",".join(cfg.channels)
    table = []
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 1 + len(cfg.channels)
        values = [float(c) for c in cells]
        assert ["%.17g" % v for v in values] == cells
        table.append(values)
    table = np.array(table)
    assert np.isfinite(table).all()
    assert np.array_equal(table[:, 0], np.linspace(0.0, cfg.tau_max, cfg.steps))


@given(_run_request())
# linspace's last product overflows before it is replaced by tau_max
@example(("system=fermion\nubar=0.0\ntau_max=1.7976931348623157e+308\nsteps=4\n"
          "initial=right-well\nintegrator=eigen\nchannels=avgC_CN\nout=0.csv\n",
          ["run", "--config", "scenario.cfg"]))
@settings(max_examples=60, deadline=None)
def test_run_ends_in_valid_csv_or_mapped_error(request):
    text, argv = request
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "taken").mkdir()
        (root / "file").write_text("a file, not a directory\n", encoding="utf-8")
        (root / "scenario.cfg").write_text(text, encoding="utf-8")
        before = _tree(root)
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(root)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # usage errors
                    code = exc.code
            if code == 0:
                cfg = scenario.parse_config(text)
                if len(argv) > 3:  # --integrator
                    cfg = dataclasses.replace(cfg, integrator=argv[4])
                _assert_valid_csv(Path(cfg.out).read_text(encoding="utf-8"), cfg)
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code != 0:
            assert err.getvalue().startswith(("phasekit", "usage")), err.getvalue()
            assert _tree(root) == before


# ---------------------------------------------------------------------------
# property: `verify` takes no option: bare, it ends in its 20 check lines and
# the summary (exit 2, by the designed squeezing failure); with any --n-max or
# --tol it is a usage error with no output (exit 1)

_ODD_N_MAX = ("-3", "0", "1", "101", "100000000", "x", "", "2.5", "inf", "nan", "1e-300")
_ODD_TOL = ("-1", "-0.0", "0", "inf", "-inf", "nan", "1e-300", "1e400", "x", "")


@given(st.one_of(st.none(), st.integers(2, 12).map(str), st.sampled_from(_ODD_N_MAX)),
       st.one_of(st.none(), st.floats(1e-15, 1.0).map(repr), st.sampled_from(_ODD_TOL)))
@example(None, None)
@example("3", None)
@example(None, "1e300")
@example(None, "1e-12")
@example("12", "1e-12")
@example("x", "x")
@example("nan", "nan")
@settings(max_examples=40, deadline=None)
def test_verify_ends_in_its_report_or_a_mapped_error(n_max, tol):
    argv = ["verify"]
    if n_max is not None:
        argv += ["--n-max", n_max]
    if tol is not None:
        argv += ["--tol", tol]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # usage errors
            code = exc.code
    assert "Traceback" not in err.getvalue()
    if n_max is None and tol is None:
        lines = out.getvalue().splitlines()
        assert code == 2  # squeezing-closed-form fails by design
        assert len(lines) == 21
        assert all(line.startswith(("PASS  ", "FAIL  ")) for line in lines[:20])
        assert "FAIL  squeezing-closed-form" in out.getvalue()
        assert lines[20].split()[0].endswith("/20")
    else:
        assert code == 1
        assert out.getvalue() == ""
        assert err.getvalue().startswith("usage: phasekit "), err.getvalue()
        assert "error: unrecognized arguments: --" in err.getvalue()


# ---------------------------------------------------------------------------
# property: every `figure` ends in the preset's exact file set, each file
# byte-equal to a clean run (exit 0), or a mapped error (exit 1 or 2) that
# leaves no temporary or new file or directory, and every file that was there
# before with its old bytes or, for a preset file, its new ones

_ODD_PRESETS = ("fig0", "fig12", "FIG1", "fig1 ", "", "fig", "../fig1", "fig1\0")
_OUT_SHAPES = ("fresh", "nested", "populated", "file", "under-file")


def _clean_bundle(name):
    """{file name: bytes} of a run of preset ``name`` into a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp:
        run_figure(name, tmp)
        return {p.name: p.read_bytes() for p in Path(tmp).iterdir()}


def _figure_out(root, shape, stale_names):
    """The --out path of ``shape`` under root, with what it needs made."""
    (root / "unrelated.txt").write_bytes(b"not phasekit's\n")
    if shape == "nested":
        return root / "new" / "deep" / "bundle"
    out = root / "bundle"
    if shape in ("file", "under-file"):
        out.write_bytes(b"a file, not a directory\n")
        return out if shape == "file" else out / "sub"
    out.mkdir()
    if shape == "populated":
        (out / "notes.txt").write_bytes(b"kept\n")
        for name in stale_names:
            (out / name).write_bytes(b"stale " + name.encode() + b"\n")
    return out


@given(st.one_of(st.sampled_from(presets.PRESET_NAMES), st.sampled_from(_ODD_PRESETS)),
       st.sampled_from(_OUT_SHAPES),
       st.one_of(st.none(), st.integers(0, 8)))
@example("fig1", "populated", 2)
@example("fig10", "nested", 7)
@example("fig1", "nested", 0)
@example("fig5", "under-file", None)
@example("fig0", "populated", None)
@settings(max_examples=60, deadline=None)
def test_figure_ends_in_its_bundle_or_a_mapped_error(preset, shape, fail_at):
    valid = preset in presets.PRESET_NAMES
    clean = _clean_bundle(preset if valid else "fig1")
    replaced = []
    real_replace = os.replace

    def replace(src, dst):  # the fail_at-th rename (from 0) raises
        if len(replaced) == fail_at:
            raise OSError(errno.ENOSPC, "No space left on device")
        replaced.append(dst)
        real_replace(src, dst)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        out = _figure_out(root, shape, sorted(clean))
        before = _tree(root)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                mock.patch.object(scenario.os, "replace", replace):
            code = main(["figure", preset, "--out", str(out)])
        after = _tree(root)
    assert "Traceback" not in err.getvalue()
    assert not [key for key in after if ".phasekit-" in key]
    writable = valid and shape in ("fresh", "nested", "populated")
    fails = fail_at is not None and fail_at < len(clean)
    assert code == (0 if writable and not fails else 1), err.getvalue()
    rel = out.relative_to(root)
    if code == 0:
        expected = dict.fromkeys(str(part) for part in [rel, *rel.parents][:-1])
        expected.update(before)
        expected.update({f"{rel}/{name}": data for name, data in clean.items()})
        assert after == expected
        return
    assert err.getvalue().startswith("phasekit"), err.getvalue()
    # a failed call leaves no new file or directory
    assert after.keys() <= before.keys()
    for key, data in before.items():
        name = key[len(f"{rel}/"):] if key.startswith(f"{rel}/") else None
        if valid and name in clean:
            assert after[key] in (data, clean[name])
        else:
            assert after[key] == data
