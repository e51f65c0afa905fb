"""Propagator and closed-form tests.

The eigendecomposition propagator is the dynamics oracle; RK4 must approach
it as the step shrinks, and the printed two-frequency forms must match it
exactly where their derivation is valid (everywhere for the fermion pair,
middle amplitude only for the interacting boson pair).
"""

import math

import numpy as np
import pytest

from phasekit import (
    ConfigError,
    NumericalError,
    StateVector,
    StepSizeError,
    Trajectory,
    boson_basis,
    boson_dimer_hamiltonian,
    boson_pair_closed_form,
    eigen_propagate,
    fermion_pair_closed_form,
    fermion_pair_hamiltonian,
    rk4_propagate,
)
from phasekit.verify import (
    boson_closed_form_residual,
    conservation_residual,
    fermion_closed_form_residual,
)

RIGHT_WELL_3 = np.array([0.0, 0.0, 1.0], dtype=complex)


def _right_well(n):
    psi0 = np.zeros(n + 1, dtype=complex)
    psi0[0] = 1.0
    return psi0


def test_trajectory_validation():
    tau = np.array([0.0, 1.0])
    good = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    Trajectory(tau, good)
    with pytest.raises(ConfigError):
        Trajectory(np.array([0.5, 1.0]), good)
    with pytest.raises(ConfigError):
        Trajectory(np.array([0.0, 0.0]), good)
    with pytest.raises(NumericalError):
        Trajectory(tau, 0.9 * good)


def _expm_series(m, squarings=10, orders=24):
    # scaling and squaring keeps the Taylor series in its convergent regime
    small = m / (2 ** squarings)
    u = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for order in range(1, orders):
        term = term @ small / order
        u = u + term
    for _ in range(squarings):
        u = u @ u
    return u


def test_eigen_propagation_against_direct_expm():
    basis = boson_basis(4)
    h = boson_dimer_hamiltonian(basis, 5.0)
    tau = np.linspace(0.0, 3.0, 7)
    traj = eigen_propagate(h, _right_well(4), tau)
    # independent oracle: series matrix exponential, no eigh involved
    arr = h.entries
    for k, t in enumerate(tau):
        expected = _expm_series(-1j * t * arr) @ _right_well(4)
        assert np.max(np.abs(traj.states[k] - expected)) < 1e-10


def test_eigen_norm_and_energy_conservation():
    h = fermion_pair_hamiltonian(5.0, "single-occupancy")
    tau = np.linspace(0.0, 40.0, 801)
    norm_drift, energy_drift = conservation_residual(h, RIGHT_WELL_3, tau)
    assert norm_drift <= 1e-12
    assert energy_drift <= 1e-10


def test_rk4_matches_eigen_at_weak_coupling():
    basis = boson_basis(5)
    h = boson_dimer_hamiltonian(basis, 0.05)
    tau = np.linspace(0.0, 10.0, 101)
    exact = eigen_propagate(h, _right_well(5), tau)
    approx = rk4_propagate(h, _right_well(5), tau, dtau=1e-3)
    assert np.max(np.abs(exact.states - approx.states)) < 1e-9


def test_rk4_error_scales_as_fourth_order():
    h = boson_dimer_hamiltonian(boson_basis(3), 1.0)
    tau = np.linspace(0.0, 2.0, 3)
    exact = eigen_propagate(h, _right_well(3), tau)

    def err(dtau):
        out = rk4_propagate(h, _right_well(3), tau, dtau=dtau,
                            norm_drift_tol=None)
        return np.max(np.abs(out.states - exact.states))

    e_coarse, e_fine = err(0.02), err(0.01)
    ratio = e_coarse / e_fine
    assert 12.0 < ratio < 20.0  # h^4 convergence gives ~16


def test_rk4_rejects_bad_steps():
    h = boson_dimer_hamiltonian(boson_basis(2), 0.0)
    tau = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ConfigError):
        rk4_propagate(h, _right_well(2), tau, dtau=0.0)
    with pytest.raises(ConfigError):
        rk4_propagate(h, _right_well(2), tau, dtau=0.5)  # exceeds spacing


def test_rk4_norm_guard_trips_on_stiff_problem():
    # N=10 at strong coupling has spectral radius ~225; dtau=1e-3 is far from
    # the accuracy regime and the drift guard must catch it
    basis = boson_basis(10)
    h = boson_dimer_hamiltonian(basis, 5.0)
    tau = np.linspace(0.0, 40.0, 2001)
    with pytest.raises(StepSizeError):
        rk4_propagate(h, _right_well(10), tau, dtau=1e-3)


def test_rk4_stiff_problem_converges_at_fine_step():
    # same stiff problem, 100x smaller step: accuracy follows the h^4 law
    basis = boson_basis(10)
    h = boson_dimer_hamiltonian(basis, 5.0)
    tau = np.linspace(0.0, 1.0, 11)
    exact = eigen_propagate(h, _right_well(10), tau)
    approx = rk4_propagate(h, _right_well(10), tau, dtau=1e-5)
    assert np.max(np.abs(exact.states - approx.states)) < 1e-8


def test_fermion_closed_form_all_couplings():
    tau = np.linspace(0.0, 40.0, 401)
    inits = (RIGHT_WELL_3,
             np.array([0.5, 0.5j, math.sqrt(0.5)], dtype=complex))
    for ubar in (0.0, 0.05, 5.0):
        for init in inits:
            assert fermion_closed_form_residual(ubar, init, tau) < 1e-12


def test_fermion_closed_form_right_well_structure():
    # both-in-right-well start: the singly-occupied amplitude oscillates with
    # symmetric +-1/(sqrt2 Omega) weights on the two frequencies
    ubar = 5.0
    quarter = ubar / 4.0
    omega = math.sqrt(4.0 + quarter * quarter)
    tau = np.linspace(0.0, 5.0, 41)
    closed = fermion_pair_closed_form(ubar, tau, RIGHT_WELL_3)
    a = 1.0 / (math.sqrt(2.0) * omega)
    c1_expected = a * (np.exp(-1j * (quarter - omega) * tau)
                       - np.exp(-1j * (quarter + omega) * tau))
    assert np.max(np.abs(closed[:, 0] - c1_expected)) < 1e-14


def test_boson_closed_form_validity_reporting():
    tau = np.linspace(0.0, 10.0, 101)
    free = boson_pair_closed_form(0.0, tau, (1.0, 0.0, 0.0))
    assert free.exact_components == ("c0", "c1", "c2")
    guarded = boson_pair_closed_form(5.0, tau, (1.0, 0.0, 0.0))
    assert guarded.exact_components == ("c1",)
    none_valid = boson_pair_closed_form(5.0, tau, (0.0, 1.0, 0.0))
    assert none_valid.exact_components == ()
    assert "c1" in none_valid.note


def test_boson_closed_form_against_eigen():
    # right-well start (1, 0, 0): the middle amplitude at every ubar, the
    # edges at ubar=0
    tau = np.linspace(0.0, 40.0, 401)
    for ubar in (0.0, 0.05, 5.0):
        assert boson_closed_form_residual(ubar, tau) < 1e-12


def test_boson_closed_form_edges_break_at_strong_coupling():
    # the printed edge integrals drop the interaction diagonal; at ubar=5 the
    # discrepancy is order one, which is why only c1 is reported exact
    tau = np.linspace(0.0, 40.0, 401)
    basis = boson_basis(2)
    h = boson_dimer_hamiltonian(basis, 5.0)
    init = np.array([1.0, 0.0, 0.0], dtype=complex)
    traj = eigen_propagate(h, init, tau)
    closed = boson_pair_closed_form(5.0, tau, init)
    gap = np.max(np.abs(traj.states[:, 0] - closed.c0))
    assert gap > 0.1


def test_closed_forms_reject_bad_inits():
    with pytest.raises(ConfigError):
        fermion_pair_closed_form(1.0, [0.0, 1.0], (1.0, 1.0, 0.0))
    with pytest.raises(ConfigError):
        boson_pair_closed_form(1.0, [0.0, 1.0], (1.0, 0.0))


def test_nan_amplitudes_are_not_normalized():
    # abs(nan - 1) > tol is False, so each norm gate is written to fail on nan
    nan_start = (math.nan, 0.0, 0.0)
    with pytest.raises(ConfigError):
        StateVector(boson_basis(2), nan_start)
    with pytest.raises(ConfigError):
        fermion_pair_closed_form(1.0, [0.0, 1.0], nan_start)
    with pytest.raises(ConfigError):
        boson_pair_closed_form(1.0, [0.0, 1.0], nan_start)
    h = fermion_pair_hamiltonian(1.0, "single-occupancy")
    with pytest.raises(ConfigError):
        eigen_propagate(h, nan_start, [0.0, 1.0])


def test_propagators_reject_dimension_mismatch():
    h = boson_dimer_hamiltonian(boson_basis(2), 0.0)
    with pytest.raises(ConfigError):
        eigen_propagate(h, np.array([1.0, 0.0]), [0.0, 1.0])
