import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phasekit
from phasekit.cli import main


def _write_config(tmp_path, body="system=boson\nN=2\nubar=0.05\nsteps=5\n"
                                 "tau_max=1.0\nchannels=avgC_CN,avgW\n",
                  out=None):
    out = tmp_path / "series.csv" if out is None else out
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(f"{body}out={out}\n", encoding="utf-8")
    return cfg, out


def test_run_subcommand(tmp_path, capsys):
    cfg, out = _write_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    assert out.exists()
    assert "wrote" in capsys.readouterr().out
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert header == "tau,avgC_CN,avgW"


def test_run_overrides(tmp_path):
    cfg, out = _write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--steps", "9",
                 "--tau-max", "2.0", "--integrator", "rk4"]) == 0
    rows = out.read_text(encoding="utf-8").strip().splitlines()
    assert len(rows) == 10  # header + 9 grid points
    assert rows[-1].split(",")[0] == "2"


def test_run_missing_config_exits_one(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err


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
], ids=["fermion", "boson"])
def test_run_non_finite_states_exit_two(tmp_path, capsys, body):
    # the propagated phases overflow to nan; no all-nan CSV may be written
    cfg, out = _write_config(tmp_path, body)
    with np.errstate(all="ignore"):
        assert main(["run", "--config", str(cfg)]) == 2
    assert "numerical error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("system, initial", [("boson\nN=2", "nan,0,0"),
                                             ("fermion", "nan,0,0"),
                                             ("boson\nN=2", "1e200,0,0")],
                         ids=["boson-nan", "fermion-nan", "boson-overflow"])
def test_run_unnormalized_initial_amplitudes_exit_one(tmp_path, capsys, system, initial):
    cfg, out = _write_config(tmp_path, f"system={system}\nubar=1\n"
                                       f"initial={initial}\nchannels=avgW\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert "not normalized" in capsys.readouterr().err
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
                                  "figure-out-is-file"])
def test_unwritable_output_exits_one(tmp_path, capsys, case):
    taken = tmp_path / "taken"
    if case == "run-out-is-directory":
        taken.mkdir()
        cfg, _ = _write_config(tmp_path, out=taken)
        argv = ["run", "--config", str(cfg)]
    elif case == "run-out-under-file":
        taken.write_text("a file, not a directory\n", encoding="utf-8")
        cfg, _ = _write_config(tmp_path, out=taken / "series.csv")
        argv = ["run", "--config", str(cfg)]
    else:
        taken.write_text("a file, not a directory\n", encoding="utf-8")
        argv = ["figure", "fig1", "--out", str(taken)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("phasekit:") and f"cannot write {taken}" in err
    assert "Traceback" not in err
    assert not list(tmp_path.rglob("*.csv"))


def test_run_without_out_exits_one(tmp_path, capsys):
    cfg = tmp_path / "no_out.cfg"
    cfg.write_text("system=boson\nN=2\nubar=1\nchannels=xi\n", encoding="utf-8")
    assert main(["run", "--config", str(cfg)]) == 1


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # --config is required
    assert exc.value.code == 1


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
    code = main(["verify", "--n-max", "3", "--tol", "1e-12"])
    out = capsys.readouterr().out
    assert code == 2
    assert "squeezing-closed-form" in out
    assert "PASS  boson-beta-unitarity" in out


def test_verify_bad_n_max_exits_one(capsys):
    assert main(["verify", "--n-max", "1"]) == 1


def _run_module(cfg, timeout):
    # the child imports the same phasekit as this process
    src = str(Path(phasekit.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "phasekit", "run", "--config", str(cfg)],
        capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
    )


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
