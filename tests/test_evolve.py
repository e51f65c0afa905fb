"""Propagator and closed-form tests.

The eigendecomposition propagator is the dynamics oracle; RK4 must approach
it as the step shrinks, and the printed two-frequency forms must match it
exactly where their derivation is valid (everywhere for the fermion pair,
middle amplitude only for the interacting boson pair).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    norm_drift, energy_drift = conservation_residual(h, eigen_propagate(h, RIGHT_WELL_3, tau))
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
        out = rk4_propagate(h, _right_well(3), tau, dtau=dtau)
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


def _trajectory_of(h, psi0, tau):
    """Trajectory(tau, states) with psi0 in every row the grid has."""
    rows = np.shape(tau)[0] if np.ndim(tau) else 1
    return Trajectory(tau, np.tile(psi0, (rows, 1)))


@pytest.mark.parametrize("propagate", [eigen_propagate, rk4_propagate, _trajectory_of],
                         ids=["eigen", "rk4", "trajectory"])
@pytest.mark.parametrize("tau, message", [
    ([], "non-empty 1-D"),
    ([[0.0, 1.0]], "non-empty 1-D"),
    ([0.0, 1.0, 0.5], "strictly increasing"),
    ([0.0, 1.0, 1.0], "strictly increasing"),
    ([0.5, 1.0], "start at 0"),
    ([0.0, math.nan], "finite"),
    ([0.0, math.inf], "finite"),
], ids=["empty", "2-D", "decreasing", "repeated", "late-start", "nan", "inf"])
def test_degenerate_tau_grid_is_rejected_before_propagation(propagate, tau, message,
                                                            monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("propagation ran on a rejected grid")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr("phasekit.evolve._rk4_steps", refuse)
    h = boson_dimer_hamiltonian(boson_basis(2), 0.05)
    with pytest.raises(ConfigError, match=message):
        propagate(h, _right_well(2), tau)


@pytest.mark.parametrize("propagate", [eigen_propagate, rk4_propagate, _trajectory_of],
                         ids=["eigen", "rk4", "trajectory"])
@pytest.mark.parametrize("tau", [[0, 1j], [0, "a"], np.array([0, 1 + 1j]), [0.0, None]],
                         ids=["complex-list", "string", "complex-array", "object"])
def test_tau_grid_of_the_wrong_type_is_a_config_error(propagate, tau, monkeypatch):
    # a complex grid is not cast to its real part, and no raw TypeError or
    # ValueError escapes from the float conversion
    def refuse(*args, **kwargs):
        raise AssertionError("propagation ran on a rejected grid")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr("phasekit.evolve._rk4_steps", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="tau grid must hold real numbers"):
            propagate(np.eye(3), [1, 0, 0], tau)


def test_ragged_tau_grid_is_a_config_error():
    with pytest.raises(ConfigError, match="tau grid is not an array of numbers"):
        eigen_propagate(np.eye(3), [1, 0, 0], [[0.0, 1.0], [2.0]])


_GRID_EDITS = ("none", "empty", "2-D", "repeat", "late-start", "nan", "inf", "-inf")


@st.composite
def _tau_grids(draw):
    """Increasing grids from 0, about half of them edited to break one rule."""
    steps = draw(st.lists(st.floats(0.0, 10.0, exclude_min=True), max_size=5))
    tau = np.cumsum([0.0] + steps)  # a tiny step after a large one repeats a point
    edit = draw(st.sampled_from(("none",) * len(_GRID_EDITS) + _GRID_EDITS))
    at = draw(st.integers(0, len(tau) - 1))
    if edit == "empty":
        return np.array([])
    if edit == "2-D":
        return tau[None, :]
    if edit == "repeat":
        return np.insert(tau, at, tau[at])
    if edit == "late-start":
        return tau + draw(st.sampled_from([-1.0, 1e-300, 0.5]))
    if edit != "none":
        tau[at] = float(edit)
    return tau


@given(_tau_grids())
@settings(max_examples=150, deadline=None)
def test_trajectory_and_propagator_accept_the_same_grids(tau):
    h = boson_dimer_hamiltonian(boson_basis(2), 0.05)
    outcomes = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (_trajectory_of, eigen_propagate):
            try:
                build(h, _right_well(2), tau)
                outcomes.append("accepted")
            except ConfigError:
                outcomes.append("rejected")
    assert outcomes[0] == outcomes[1], (tau, outcomes)


def test_rk4_overflowing_power_fails_the_drift_gate():
    # 1e303 substeps in one interval: R^n_sub overflows to inf without a
    # numpy warning, and the drift gate reports it
    h = fermion_pair_hamiltonian(0.0)
    with pytest.raises(StepSizeError, match="norm drifted"):
        rk4_propagate(h, RIGHT_WELL_3, [0.0, 1e300], dtau=1e-3)


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
        h = fermion_pair_hamiltonian(ubar, "single-occupancy")
        for init in inits:
            traj = eigen_propagate(h, init, tau)
            assert fermion_closed_form_residual(ubar, init, traj) < 1e-12


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
        h = boson_dimer_hamiltonian(boson_basis(2), ubar)
        traj = eigen_propagate(h, _right_well(2), tau)
        assert boson_closed_form_residual(ubar, traj) < 1e-12


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


@pytest.mark.parametrize("gate", [
    lambda start: StateVector(boson_basis(2), start),
    lambda start: eigen_propagate(boson_dimer_hamiltonian(boson_basis(2), 1.0),
                                  start, [0.0, 1.0]),
    lambda start: rk4_propagate(boson_dimer_hamiltonian(boson_basis(2), 1.0),
                                start, [0.0, 1.0]),
    lambda start: fermion_pair_closed_form(1.0, [0.0, 1.0], start),
    lambda start: boson_pair_closed_form(1.0, [0.0, 1.0], start),
], ids=["state-vector", "eigen", "rk4", "fermion-closed-form", "boson-closed-form"])
def test_overflowing_amplitudes_fail_without_warning(gate):
    # the squares of a 1e200 amplitude overflow; each gate must raise its
    # own error, not a numpy RuntimeWarning first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConfigError, match="not normalized"):
            gate((1e200, 0.0, 0.0))


def test_trajectory_overflowing_state_fails_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError, match="drift by inf"):
            Trajectory(np.array([0.0, 1.0]), np.array([[1.0, 0.0], [1e200, 0.0]]))


@pytest.mark.parametrize("h, tau_max, match", [
    (np.diag([math.nan, 0.0]), 1.0, "finite matrix"),
    (np.diag([math.inf, 0.0]), 1.0, "finite matrix"),
    (np.diag([1e306, 0.0]), 1.0, "no significant digit"),
    (np.diag([1.0, -1.0]), 2e15, "no significant digit"),
], ids=["nan-h", "inf-h", "huge-energy", "huge-tau"])
def test_eigen_propagate_rejects_unrepresentable_phases(h, tau_max, match):
    with pytest.raises(NumericalError, match=match):
        eigen_propagate(h, [1.0, 0.0], [0.0, tau_max])


def test_eigen_propagate_phase_bound_is_inclusive():
    traj = eigen_propagate(np.diag([1.0, -1.0]), [1.0, 0.0], [0.0, 1e15])
    assert np.all(np.isfinite(traj.states))


def test_propagators_reject_dimension_mismatch():
    h = boson_dimer_hamiltonian(boson_basis(2), 0.0)
    with pytest.raises(ConfigError):
        eigen_propagate(h, np.array([1.0, 0.0]), [0.0, 1.0])
    for not_square in (np.ones((2, 3)), np.ones(2)):
        for propagate in (eigen_propagate, rk4_propagate):
            with pytest.raises(ConfigError, match="not square"):
                propagate(not_square, np.array([1.0, 0.0]), [0.0, 1.0])
