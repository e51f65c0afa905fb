import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekit import (
    ConfigError,
    NumericalError,
    TimeSeries,
    boson_basis,
    boson_cn_phase,
    boson_dimer_hamiltonian,
    boson_number_diff,
    boson_unitary_phase,
    eigen_propagate,
    embedded_fermion_states,
    expectation,
    expectation_series,
    fermion_pair_hamiltonian,
    fluctuation,
    trapping_points,
    xi_boson,
    xi_fermion,
    xi_fermion_closed_form,
)

RIGHT_WELL_3 = np.array([0.0, 0.0, 1.0], dtype=complex)


def _boson_traj(n, ubar, tau_max=2.0 * math.pi, steps=2001):
    basis = boson_basis(n)
    h = boson_dimer_hamiltonian(basis, ubar)
    psi0 = np.zeros(n + 1, dtype=complex)
    psi0[0] = 1.0
    tau = np.linspace(0.0, tau_max, steps)
    return basis, tau, eigen_propagate(h, psi0, tau)


def test_expectation_against_manual_quadratic_form():
    basis = boson_basis(2)
    w = boson_number_diff(basis)
    state = np.array([0.6, 0.0, 0.8j], dtype=complex)
    manual = float((state.conj() @ w.entries @ state).real)
    assert expectation(w, state) == pytest.approx(manual, abs=1e-15)


amplitude_lists = st.lists(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    min_size=3, max_size=3,
).filter(lambda xs: sum(abs(x) ** 2 for x in xs) > 1e-6)


@given(amplitude_lists)
@settings(max_examples=60, deadline=None)
def test_fluctuation_is_nonnegative_and_bounded(amps):
    state = np.asarray(amps, dtype=complex)
    state = state / np.linalg.norm(state)
    w = boson_number_diff(boson_basis(2))
    df = fluctuation(w, state)
    assert df >= 0.0
    # |W| <= 2 on three particles-in-two-wells... N=2: eigenvalues -2,0,2
    assert df <= 2.0 + 1e-12


def test_fluctuation_of_eigenstate_is_zero():
    w = boson_number_diff(boson_basis(2))
    state = np.array([1.0, 0.0, 0.0], dtype=complex)
    assert fluctuation(w, state) == pytest.approx(0.0, abs=1e-12)
    # completed cosine picks up the corner coupling: fluctuation sqrt(1/2)
    cos_u = boson_unitary_phase(boson_basis(2))[0]
    assert fluctuation(cos_u, state) == pytest.approx(math.sqrt(0.5), abs=1e-12)
    # the raw cosine misses it: fluctuation 1/2
    cos_cn, _ = boson_cn_phase(boson_basis(2))
    assert fluctuation(cos_cn, state) == pytest.approx(0.5, abs=1e-12)


def test_expectation_series_matches_pointwise_expectation():
    basis, tau, traj = _boson_traj(3, 0.5, tau_max=1.0, steps=11)
    cos_u = boson_unitary_phase(basis)[0]
    series = expectation_series(cos_u, traj)
    for k in (0, 5, 10):
        assert series[k] == pytest.approx(expectation(cos_u, traj.states[k]), abs=1e-14)


def test_nonhermitian_sandwich_raises():
    shift = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    state = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)
    with pytest.raises(NumericalError):
        expectation(shift, state)


def test_time_series_length_validation():
    with pytest.raises(ConfigError):
        TimeSeries(np.array([0.0, 1.0]), {"x": np.array([1.0])})


def test_embedding_of_pair_states():
    states = embedded_fermion_states(RIGHT_WELL_3[None, :])
    assert states.shape == (1, 16)
    assert states[0, 12] == 1.0
    sym = embedded_fermion_states(np.array([[1.0, 0.0, 0.0]], dtype=complex))
    assert sym[0, 9] == pytest.approx(1.0 / math.sqrt(2.0))
    assert sym[0, 6] == pytest.approx(1.0 / math.sqrt(2.0))
    # full-space states pass through untouched
    full = np.zeros((2, 16), dtype=complex)
    full[:, 3] = 1.0
    assert np.array_equal(embedded_fermion_states(full), full)
    with pytest.raises(ConfigError):
        embedded_fermion_states(np.zeros((1, 5), dtype=complex))


def test_xi_boson_free_pair_values():
    basis, tau, traj = _boson_traj(2, 0.0)
    xi = xi_boson(traj, basis)
    # <W> = -2 cos 2tau and <W^2> = 4 cos^2(2tau) + 2 sin^2(2tau) for this
    # start, so xi = sin^2(2tau) * ... reduces to 1 at tau = pi/4
    quarter_idx = np.argmin(np.abs(tau - math.pi / 4.0))
    assert xi[quarter_idx] == pytest.approx(1.0, abs=1e-6)
    assert xi[0] == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(xi - np.sin(2.0 * tau) ** 2)) < 1e-9


def test_xi_fermion_forms_at_start():
    h = fermion_pair_hamiltonian(5.0, "single-occupancy")
    tau = np.linspace(0.0, 1.0, 5)
    traj = eigen_propagate(h, RIGHT_WELL_3, tau)
    variance_form, second_moment_form = xi_fermion(traj)
    assert variance_form[0] == pytest.approx(0.0, abs=1e-12)
    assert second_moment_form[0] == pytest.approx(2.0, abs=1e-12)


def test_xi_fermion_free_law():
    # at ubar=0 the printed closed form and the second moment agree:
    # both equal 2 - sin^2(2 tau) for the both-right start
    h = fermion_pair_hamiltonian(0.0, "single-occupancy")
    tau = np.linspace(0.0, 10.0, 401)
    traj = eigen_propagate(h, RIGHT_WELL_3, tau)
    _, second_moment = xi_fermion(traj)
    law = 2.0 - np.sin(2.0 * tau) ** 2
    assert np.max(np.abs(second_moment - law)) < 1e-12
    closed = xi_fermion_closed_form(0.0, tau)
    assert np.max(np.abs(closed - law)) < 1e-12


def test_xi_fermion_closed_form_departs_from_trajectory_when_interacting():
    # the printed form's beat term contradicts the tau=0 second moment as soon
    # as ubar != 0; the gap is an order-one dataset fact, not a solver issue
    ubar = 5.0
    h = fermion_pair_hamiltonian(ubar, "single-occupancy")
    tau = np.linspace(0.0, 40.0, 2001)
    traj = eigen_propagate(h, RIGHT_WELL_3, tau)
    _, second_moment = xi_fermion(traj)
    closed = xi_fermion_closed_form(ubar, tau)
    assert closed[0] != pytest.approx(2.0, abs=1e-3)
    assert np.max(np.abs(second_moment - closed)) > 1.0
    # and it exits the [0, 2] band the trajectory forms respect
    assert closed.min() < -0.5
    assert second_moment.min() >= -1e-12
    assert second_moment.max() <= 2.0 + 1e-12


def test_trapping_points_merges_intervals():
    tau = np.linspace(0.0, 10.0, 101)
    avg_w = np.cos(tau)  # zeros near pi/2 + k pi
    intervals = trapping_points(tau, avg_w, eps=0.05)
    assert len(intervals) == 3
    for lo, hi in intervals:
        assert lo <= hi
    centers = [0.5 * (lo + hi) for lo, hi in intervals]
    for k, center in enumerate(centers):
        assert center == pytest.approx(math.pi / 2.0 + k * math.pi, abs=0.1)
    with pytest.raises(ConfigError):
        trapping_points(tau, avg_w, eps=0.0)
