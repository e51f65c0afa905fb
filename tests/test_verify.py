import collections
import math

import numpy as np
import pytest

from phasekit import ConfigError, verify
from phasekit.fock import MODE_NAMES, boson_basis, fock_state
from phasekit.hamiltonians import (
    FERMION_VARIANTS,
    boson_dimer_hamiltonian,
    fermion_pair_hamiltonian,
)
from phasekit.verify import run_verification


@pytest.fixture(scope="module")
def report():
    return run_verification(n_max=6, tol=1e-12)


def test_precondition():
    with pytest.raises(ConfigError):
        run_verification(n_max=1)
    with pytest.raises(ConfigError):
        run_verification(tol=0.0)


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


def test_overall_report_shape(report):
    assert not report.ok  # exactly because of the squeezing check
    failed = [r for r in report.results if not r.passed]
    assert [r.name for r in failed] == ["squeezing-closed-form"]
    lines = report.lines()
    assert len(lines) == len(report.results) + 1
    assert lines[-1].endswith("1 failed")
    assert any(line.startswith("PASS  boson-beta-unitarity") for line in lines)


def test_a_run_builds_each_family_and_trajectory_once(monkeypatch):
    calls = collections.defaultdict(list)
    for name in ("boson_cn_phase", "boson_vacuum_phase", "boson_unitary_phase",
                 "boson_number_diff", "fermion_unitary_phase", "eigen_propagate"):
        def counting(*args, _real=getattr(verify, name), _name=name, **kwargs):
            calls[_name].append((args, kwargs))
            return _real(*args, **kwargs)

        monkeypatch.setattr(verify, name, counting)
    run_verification(n_max=12)
    # one family per boson N (50 unitary, 26 CN and 23 vacuum builds when each
    # check built its own), and W only where the commutators are checked
    for name, sizes in (("boson_cn_phase", 12), ("boson_vacuum_phase", 12),
                        ("boson_unitary_phase", 12), ("boson_number_diff", 10)):
        built = sorted(args[0].total_particles for args, _ in calls[name])
        assert built == list(range(1, sizes + 1)), name
    # one per mode pair plus the double-sum counterexample (12 before)
    pairs = [(args[1:], kwargs.get("pairing", "matched"))
             for args, kwargs in calls["fermion_unitary_phase"]]
    assert len(pairs) == len(set(pairs)) == 7
    # 28 before: five propagations are read by two checks each
    propagations = {tuple(np.asarray(getattr(a, "entries", getattr(a, "amplitudes", a))).tobytes()
                          for a in args)
                    for args, _ in calls["eigen_propagate"]}
    assert len(calls["eigen_propagate"]) == len(propagations) == 23


@pytest.mark.parametrize("n_max", [3, 6, 12])
def test_shared_builds_give_the_standalone_residuals(n_max):
    got = {check.name: check.residual for check in run_verification(n_max=n_max).results}
    sizes = range(1, n_max + 1)
    small = range(1, min(n_max, verify.COMMUTATOR_N_MAX) + 1)
    pairs = [(m, mp) for i, m in enumerate(MODE_NAMES) for mp in MODE_NAMES[i + 1:]]
    tau = np.linspace(0.0, 40.0, 401)
    both_right = np.array([0.0, 0.0, 1.0], dtype=complex)
    cases = []
    for n in (2, 5, 10):
        basis = boson_basis(n)
        cases += [(boson_dimer_hamiltonian(basis, ubar), fock_state(basis, "right-well"))
                  for ubar in (0.05, 5.0)]
    cases += [(fermion_pair_hamiltonian(ubar, variant), both_right)
              for variant in FERMION_VARIANTS for ubar in (0.05, 5.0)]
    inits = (both_right, np.array([0.5, 0.5j, math.sqrt(0.5)], dtype=complex))
    want = {
        "boson-phase-hermiticity": max(verify.boson_hermiticity_residual(n) for n in sizes),
        "fermion-phase-hermiticity": max(verify.fermion_hermiticity_residual(m, mp)
                                         for m, mp in pairs),
        "boson-beta-unitarity": max(verify.boson_unitarity_residual(n) for n in sizes),
        "cn-corner-defect": max(verify.corner_defect_residual(n) for n in sizes),
        "number-phase-commutators": max(verify.number_phase_commutator_residual(n)
                                        for n in small),
        "jacobi-identity": max([verify.boson_jacobi_residual(n) for n in small]
                               + [verify.fermion_jacobi_residual(m, mp)
                                  for m, mp in verify.SECTION_PAIRS]),
        "fermion-anticommutators": verify.anticommutator_residual(),
        "betaf-isometry": max(verify.betaf_isometry_residual(m, mp)
                              for m, mp in verify.ISOMETRY_PAIRS),
        "double-sum-counterexample": verify.double_sum_residual(),
        "eigen-conservation": max(max(verify.conservation_residual(h, psi0, tau))
                                  for h, psi0 in cases),
        "fermion-closed-form": max(verify.fermion_closed_form_residual(ubar, init, tau)
                                   for ubar in verify.UBAR_SET for init in inits),
        "boson-closed-form": max(verify.boson_closed_form_residual(ubar, tau)
                                 for ubar in verify.UBAR_SET),
    }
    assert {name: got[name] for name in want} == want
