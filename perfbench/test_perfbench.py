"""Self-tests of the benchmark (not of phasekit).

    python3 -m pytest perfbench -q

They run real workload rounds, about half a minute in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

PROGRAM = wl.load_program()
COUNT_UNITS = ("count", "bytes", "ratio")


@pytest.fixture
def ctx(tmp_path):
    return wl.Context(PROGRAM, wl.load_reference(), tmp_path)


def traced(workload: str, ctx: wl.Context, seed: int = 1) -> dict:
    args = Namespace(workload=workload, seed=seed, seconds=0.0, trace=1)
    tally = bench.Tally()
    metrics, _ = bench.traced_run(wl.build(workload, ctx, seed), args, tally)
    assert not tally.failures
    return metrics


def computed(metrics: dict) -> dict:
    units = {name: unit for name, unit, *_ in tr.METRICS}
    return {k: v for k, v in metrics.items() if units.get(k) in COUNT_UNITS}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_computed_counts_repeat_between_traced_runs(workload, ctx, monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "SPANS", tmp_path / "spans")
    first = computed(traced(workload, ctx))
    second = computed(traced(workload, ctx))
    assert first == second
    expected = {
        "figures": {"presets.scenarios": 56, "scenario.write_csv.files": 56,
                    "scenario.format_csv.rows": 56 * 2001,
                    "presets.distinct_trajectories": 10, "evolve.rk4.calls": 0},
        "rk4": {"evolve.rk4.calls": 3, "evolve.rk4.substeps": 40000 + 40000 + 50000,
                "evolve.rk4.matvecs": 4 * 130000, "scenario.write_csv.files": 2},
        "verify": {"verify.checks": 20, "verify.checks_passed": 19,
                   "scenario.write_csv.files": 0},
    }[workload]
    assert {k: first[k] for k in expected} == expected


def test_tracing_leaves_no_wrapper_behind(ctx, monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "SPANS", tmp_path / "spans")
    traced("verify", ctx)
    for name, module in list(sys.modules.items()):
        if name == "phasekit" or name.startswith("phasekit."):
            for attr, value in vars(module).items():
                assert not hasattr(value, "__wrapped__"), f"{name}.{attr}"


def test_missing_layer_or_kernel_is_left_out(ctx, monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "SPANS", tmp_path / "spans")
    monkeypatch.setitem(sys.modules, "phasekit.fock", None)  # import fails
    monkeypatch.delattr(sys.modules["phasekit.evolve"], "active_kernel")
    metrics = traced("verify", ctx)
    assert not [k for k in metrics if k.startswith(("fock.", "kernels."))]
    assert metrics["verify.checks_passed"] == 19


def test_verify_check_accepts_exactly_19_pass_and_the_known_fail():
    names = [f"check-{i}" for i in range(19)]
    passing = [f"PASS  {n}: residual 0.000e+00 (tol 0)" for n in names]
    known = "FAIL  squeezing-closed-form: residual 1.2e+00 (tol 1e-09)"
    good = "\n".join(passing + [known, "19/20 checks passed, 1 failed"])
    assert wl.check_verify_output(2, good) is None
    assert wl.check_verify_output(0, good)
    assert wl.check_verify_output(2, "\n".join(passing + [passing[0]]))  # 20 PASS
    assert wl.check_verify_output(2, "\n".join(passing))  # no FAIL
    assert wl.check_verify_output(2, "\n".join(passing + [known, known]))
    other = "FAIL  jacobi-identity: residual 1e-3 (tol 1e-12)"
    assert wl.check_verify_output(2, "\n".join(passing + [other]))
    assert wl.check_verify_output(2, "\n".join(passing[:18] + [known, other]))
    assert wl.check_verify_output(2, "\n".join(passing[:18] + [passing[0], known]))


def test_seed_changes_inputs_not_validity(ctx):
    a, b = wl.build("figures", ctx, 1), wl.build("figures", ctx, 2)
    order_a = [op.preset for op in a.rounds(1)]
    order_b = [op.preset for op in b.rounds(1)]
    assert order_a != order_b and sorted(order_a) == sorted(order_b)
    assert order_a != [op.preset for op in a.rounds(2)]
    starts = [[op.psi0 for op in wl.build("rk4", ctx, seed).rounds(1)] for seed in (1, 2)]
    assert all(not np.allclose(x, y) for x, y in zip(*starts))
    for name in ("figures", "rk4"):
        for seed in (1, 2):
            for op in wl.build(name, ctx, seed).rounds(1):
                assert wl.run_op(op)[1] is None


def test_corrupt_reference_fails_ops_without_stopping(ctx):
    ref = json.loads(wl.REFERENCE.read_text())
    entry = ref["figures"]["files"]["fig9"]
    name = sorted(entry)[0]
    entry[name]["sha256"] = "0" * 64
    row, line = entry[name]["samples"][3]
    entry[name]["samples"][3] = [row, line.split(",")[0] + ",0.123"]
    ref["rk4"]["ops"]["fermion"]["hamiltonian"]["re"][0][0] += 1.0
    ref["rk4"]["ops"]["stiff"]["hamiltonian"] = "garbage"
    ctx.reference = ref
    for op in [wl.FigureOp(ctx, "fig9")] + wl.build("rk4", ctx, 1).rounds(1)[1:]:
        elapsed, failure = wl.run_op(op)
        assert elapsed is not None and failure
    ctx.reference = {}
    assert wl.run_op(wl.FigureOp(ctx, "fig11"))[1]
    assert wl.run_op(wl.VerifyOp(ctx))[1] is None  # verify needs no reference


def test_unreadable_reference_loads_as_empty(tmp_path):
    bad = tmp_path / "reference.json"
    bad.write_text("{not json")
    assert wl.load_reference(bad) == {}
    assert wl.load_reference(tmp_path / "missing.json") == {}


def test_tail_is_p90_with_at_least_ten_beyond():
    value, pct, n = bench.tail([float(i) for i in range(1, 101)])
    assert (value, pct, n) == (90.0, 90.0, 100)
    value, pct, n = bench.tail([float(i) for i in range(1, 401)])
    assert (value, pct, n) == (360.0, 90.0, 400)  # capped at p90
    value, pct, n = bench.tail([float(i) for i in range(1, 31)])
    assert (value, pct, n) == (20.0, pytest.approx(66.667, abs=1e-3), 30)


def test_benchmark_json_matches_the_code():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert layers == [m[:3] for m in tr.METRICS] + list(tr.RUNNER_METRICS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
