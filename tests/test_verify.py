import collections
import dataclasses
import inspect
import math
import re

import numpy as np
import pytest

from phasekit import ConfigError, scenario, verify
from phasekit.evolve import eigen_propagate
from phasekit.fock import MODE_NAMES, fock_state
from phasekit.hamiltonians import boson_dimer_hamiltonian, fermion_pair_hamiltonian
from phasekit.observe import expectation_series, pair_moments, xi_fermion_closed_form
from phasekit.operators import (
    boson_cn_phase,
    boson_number_diff,
    boson_unitary_phase,
    boson_vacuum_phase,
    well_number_diff,
)
from phasekit.scenario import ScenarioConfig, run_scenario
from phasekit.verify import boson_family, pair_family, run_verification


@pytest.fixture(scope="module")
def report():
    return run_verification()


def test_the_battery_takes_no_parameters(report):
    # one fixed battery: no caller sets its sweep or its tolerances
    assert not inspect.signature(run_verification).parameters
    assert [f.name for f in dataclasses.fields(report)] == ["results"]


def test_counterexample_is_pass_by_expectation(report):
    check = next(r for r in report.results if r.name == "double-sum-counterexample")
    assert check.passed
    assert check.residual >= 0.5


def test_squeezing_closed_form_check_fails_as_designed(report):
    # the printed squeezing form contradicts the trajectory second moment for
    # ubar != 0 (already at tau = 0); the check must report that honestly
    check = next(r for r in report.results if r.name == "squeezing-closed-form")
    assert not check.passed
    assert check.residual > 0.1


def test_squeezing_check_reads_the_emitted_channels(monkeypatch):
    runs = []

    def recording(cfg):
        runs.append((cfg, run_scenario(cfg)))
        return runs[-1][1]

    monkeypatch.setattr(verify, "run_scenario", recording)
    check = next(r for r in run_verification().results
                 if r.name == "squeezing-closed-form")
    assert [cfg for cfg, _ in runs] == [
        ScenarioConfig(system="fermion", ubar=ubar, channels=("xi_second_moment", "xi_closed"))
        for ubar in verify.UBAR_SET]
    assert check.residual == max(
        _maxabs(s.channels["xi_second_moment"] - s.channels["xi_closed"]) for _, s in runs)


def test_overall_report_shape(report):
    assert not report.ok  # exactly because of the squeezing check
    failed = [r for r in report.results if not r.passed]
    assert [r.name for r in failed] == ["squeezing-closed-form"]
    lines = report.lines()
    assert len(lines) == len(report.results) + 1
    assert lines[-1].endswith("1 failed")
    assert any(line.startswith("PASS  boson-beta-unitarity") for line in lines)


def test_printed_report_is_pinned(report):
    # order, names, tolerances, details and summary; every printed residual
    # (d.ddde±dd, and the .2e drifts) is masked
    masked = [re.sub(r"\d\.\d+e[+-]\d\d", "X", line) for line in report.lines()]
    assert masked == [
        "PASS  boson-phase-hermiticity: residual X (tol 1e-12) — "
        "N in 1..12, all cosine/sine flavors",
        "PASS  fermion-phase-hermiticity: residual X (tol 1e-12) — "
        "all 6 mode pairs, raw and completed",
        "PASS  boson-beta-unitarity: residual X (tol 1e-12) — "
        "beta and beta-dagger products, N in 1..12",
        "PASS  cn-corner-defect: residual X (tol 1e-15) — "
        "raw beta is a one-sided shift off the corner projectors",
        "PASS  number-phase-commutators: residual X (tol 1e-12) — "
        "[cos,W] and [sin,W] close onto the vacuum terms",
        "PASS  jacobi-identity: residual X (tol 1e-12) — "
        "cyclic double commutators, boson sweep + 3 fermion pairs",
        "PASS  fermion-anticommutators: residual X (tol 0) — "
        "all 4x4 mode pairs, exact integer arithmetic",
        "PASS  betaf-isometry: residual X (tol 1e-12) — "
        "singular values on the half-filled subspace",
        "PASS  double-sum-counterexample: residual X (tol 0.5) — "
        "expected large: equal-count rest coupling is not a matching",
        "PASS  hamiltonian-mirror-symmetry: residual X (tol 0) — "
        "left/right well exchange leaves the matrix invariant",
        "PASS  fermion-interaction-placement: residual X (tol 0) — "
        "the interaction sits on the single-occupancy diagonal only",
        "PASS  interaction-free-spectra: residual X (tol 1e-12) — "
        "both systems reduce to the same tunneling triplet",
        "PASS  eigen-conservation: residual X (tol 1e-10) — "
        "norm drift X (tol 1e-12), energy drift X",
        "PASS  fermion-closed-form: residual X (tol 1e-09) — "
        "two-frequency solution vs eigenpropagation, all ubar",
        "PASS  boson-closed-form: residual X (tol 1e-09) — "
        "middle amplitude everywhere; edges checked at ubar=0",
        "PASS  phase-average-linearity: residual X (tol 1e-12) — "
        "completed average = raw average + vacuum average",
        "PASS  two-boson-free-laws: residual X (tol 1e-09) — "
        "closed trig laws for the interaction-free pair",
        "PASS  odd-even-cosine-law: residual X (tol 1e-09) — "
        "odd-N averages vanish; even-N floor X",
        "FAIL  squeezing-closed-form: residual X (tol 1e-09) — "
        "printed form vs trajectory second moment; disagrees for ubar != 0 "
        "(its beat term is inconsistent with the tau=0 value 2)",
        "PASS  config-round-trip: residual X (tol 0) — "
        "serialize(parse(serialize(cfg))) is a fixed point",
        "19/20 checks passed, 1 failed",
    ]


def test_a_run_builds_each_family_and_trajectory_once(monkeypatch):
    calls = collections.defaultdict(list)
    for name in ("boson_cn_phase", "boson_vacuum_phase", "boson_unitary_phase",
                 "boson_number_diff", "fermion_unitary_phase", "eigen_propagate"):
        def counting(*args, _real=getattr(verify, name), _name=name, **kwargs):
            calls[_name].append((args, kwargs))
            return _real(*args, **kwargs)

        monkeypatch.setattr(verify, name, counting)
    # the squeezing check propagates through the scenario engine
    monkeypatch.setattr(scenario, "eigen_propagate", verify.eigen_propagate)
    run_verification()
    # one family per boson N (50 unitary, 26 CN and 23 vacuum builds when each
    # check built its own), and W only where the commutators are checked
    for name, sizes in (("boson_cn_phase", 12), ("boson_vacuum_phase", 12),
                        ("boson_unitary_phase", 12), ("boson_number_diff", 10)):
        built = sorted(args[0] for args, _ in calls[name])
        assert built == list(range(1, sizes + 1)), name
    # one per mode pair (12 before)
    pairs = [args for args, _ in calls["fermion_unitary_phase"]]
    assert len(pairs) == len(set(pairs)) == 6
    # five propagations are read by two checks each
    propagations = {tuple(np.asarray(getattr(a, "entries", getattr(a, "amplitudes", a))).tobytes()
                          for a in args)
                    for args, _ in calls["eigen_propagate"]}
    assert len(calls["eigen_propagate"]) == len(propagations) == 21


def _maxabs(arr):
    return float(np.max(np.abs(arr)))


def test_shared_builds_give_the_standalone_residuals():
    got = {check.name: check.residual for check in run_verification().results}
    sizes = range(1, verify.BOSON_N_MAX + 1)
    small = range(1, verify.COMMUTATOR_N_MAX + 1)
    pairs = [(m, mp) for i, m in enumerate(MODE_NAMES) for mp in MODE_NAMES[i + 1:]]
    tau = np.linspace(0.0, 40.0, 401)
    free_tau = np.linspace(0.0, 2.0 * math.pi, 2001)
    both_right = np.array([0.0, 0.0, 1.0], dtype=complex)

    def boson_run(n, ubar, grid=tau):
        h = boson_dimer_hamiltonian(n, ubar)
        return h, eigen_propagate(h, fock_state(n, "right-well"), grid)

    def pair_run(ubar, init, grid=tau):
        h = fermion_pair_hamiltonian(ubar)
        return h, eigen_propagate(h, init, grid)

    def w(n):
        return boson_number_diff(n)

    runs = [boson_run(n, ubar) for n in (2, 5, 10) for ubar in (0.05, 5.0)]
    runs += [pair_run(ubar, both_right) for ubar in (0.05, 5.0)]
    inits = (both_right, np.array([0.5, 0.5j, math.sqrt(0.5)], dtype=complex))

    # the four laws below are checks only, so they are restated here from the
    # public builders, in the check's own arithmetic
    cos_cn, sin_cn = boson_cn_phase(3)
    cos0, sin0 = boson_vacuum_phase(3)
    cos_u, sin_u, _ = boson_unitary_phase(3)
    _, traj = boson_run(3, 5.0)
    linearity = max(
        _maxabs(expectation_series(cos_u, traj) - expectation_series(cos_cn, traj)
                - expectation_series(cos0, traj)),
        _maxabs(expectation_series(sin_u, traj) - expectation_series(sin_cn, traj)
                - expectation_series(sin0, traj)))

    cos_cn, sin_cn = boson_cn_phase(2)
    cos_u, sin_u, _ = boson_unitary_phase(2)
    _, free = boson_run(2, 0.0, free_tau)
    free_laws = max(
        _maxabs(expectation_series(cos_cn, free)),
        _maxabs(expectation_series(sin_cn, free) - np.sin(2.0 * free_tau) / math.sqrt(2.0)),
        _maxabs(expectation_series(cos_u, free) - (np.cos(4.0 * free_tau) - 1.0) / 8.0),
        _maxabs(expectation_series(sin_u, free) - expectation_series(sin_cn, free)))

    odd_even = max(
        _maxabs(expectation_series(boson_unitary_phase(n)[0],
                                   boson_run(n, 0.0, free_tau)[1]))
        for n in (3, 5))

    squeezing_tau = np.linspace(0.0, 40.0, 2001)
    second_w = pair_moments(well_number_diff())[1]
    squeezing = max(
        _maxabs(expectation_series(second_w, pair_run(ubar, both_right, squeezing_tau)[1]) / 2.0
                - xi_fermion_closed_form(ubar, squeezing_tau))
        for ubar in verify.UBAR_SET)

    want = {
        "boson-phase-hermiticity": max(verify.boson_hermiticity_residual(boson_family(n))
                                       for n in sizes),
        "fermion-phase-hermiticity": max(verify.fermion_hermiticity_residual(pair_family(*p))
                                         for p in pairs),
        "boson-beta-unitarity": max(verify.boson_unitarity_residual(boson_family(n))
                                    for n in sizes),
        "cn-corner-defect": max(verify.corner_defect_residual(boson_family(n)) for n in sizes),
        "number-phase-commutators": max(
            verify.number_phase_commutator_residual(boson_family(n), w(n)) for n in small),
        "jacobi-identity": max([verify.boson_jacobi_residual(boson_family(n), w(n)) for n in small]
                               + [verify.fermion_jacobi_residual(pair_family(*p))
                                  for p in verify.SECTION_PAIRS]),
        "fermion-anticommutators": verify.anticommutator_residual(),
        "betaf-isometry": max(verify.betaf_isometry_residual(pair_family(*p))
                              for p in verify.ISOMETRY_PAIRS),
        "double-sum-counterexample": verify.double_sum_residual(),
        "eigen-conservation": max(max(verify.conservation_residual(*run)) for run in runs),
        "fermion-closed-form": max(verify.fermion_closed_form_residual(
                                       ubar, init, pair_run(ubar, init)[1])
                                   for ubar in verify.UBAR_SET for init in inits),
        "boson-closed-form": max(verify.boson_closed_form_residual(ubar, boson_run(2, ubar)[1])
                                 for ubar in verify.UBAR_SET),
        "phase-average-linearity": linearity,
        "two-boson-free-laws": free_laws,
        "odd-even-cosine-law": odd_even,
        "squeezing-closed-form": squeezing,
    }
    assert {name: got[name] for name in want} == want


@pytest.mark.parametrize("build", [
    lambda: ScenarioConfig(system="boson", N=2.5, ubar=0.0, channels=("avgW",)),
    lambda: ScenarioConfig(system="boson", N="2", ubar=0.0, channels=("avgW",)),
    lambda: ScenarioConfig(system="boson", N=2, ubar=0.0, steps=10.5, channels=("avgW",)),
], ids=["N-float", "N-str", "steps-float"])
def test_non_integer_sizes_are_config_errors_before_any_work(build):
    with pytest.raises(ConfigError):
        build()
