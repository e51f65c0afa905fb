import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekit import (
    ConfigError,
    NumericalError,
    ScenarioConfig,
    TimeSeries,
    boson_cn_phase,
    boson_dimer_hamiltonian,
    boson_number_diff,
    boson_unitary_phase,
    eigen_propagate,
    embedded_fermion_states,
    expectation_series,
    fermion_cn_phase,
    fermion_unitary_phase,
    run_scenario,
    well_number_diff,
    xi_fermion_closed_form,
)
from phasekit.observe import pair_moments

RIGHT_WELL_3 = np.array([0.0, 0.0, 1.0], dtype=complex)


def _boson_traj(n, ubar, tau_max=2.0 * math.pi, steps=2001):
    h = boson_dimer_hamiltonian(n, ubar)
    psi0 = np.zeros(n + 1, dtype=complex)
    psi0[0] = 1.0
    tau = np.linspace(0.0, tau_max, steps)
    return tau, eigen_propagate(h, psi0, tau)


def test_expectation_against_manual_quadratic_form():
    w = boson_number_diff(2)
    state = np.array([0.6, 0.0, 0.8j], dtype=complex)
    manual = float((state.conj() @ w @ state).real)
    assert expectation_series(w, state)[0] == pytest.approx(manual, abs=1e-15)


amplitude_lists = st.lists(
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    min_size=3, max_size=3,
).filter(lambda xs: sum(abs(x) ** 2 for x in xs) > 1e-6)


@given(amplitude_lists)
@settings(max_examples=60, deadline=None)
def test_fluctuation_is_nonnegative_and_bounded(amps):
    state = np.asarray(amps, dtype=complex)
    state = state / np.linalg.norm(state)
    series = run_scenario(ScenarioConfig(system="boson", N=2, ubar=0.5, tau_max=1.0, steps=5,
                                         initial=tuple(state), channels=("fluctW",)))
    df = series.channels["fluctW"]
    assert df.min() >= 0.0
    # N=2: W has eigenvalues -2, 0, 2
    assert df.max() <= 2.0 + 1e-12


def test_fluctuation_of_eigenstate_is_zero():
    # the right-well start is the W eigenstate |n_left=0>
    series = run_scenario(ScenarioConfig(system="boson", N=2, ubar=0.0, tau_max=1.0, steps=2,
                                         channels=("fluctW", "fluctC")))
    assert series.channels["fluctW"][0] == pytest.approx(0.0, abs=1e-12)
    # completed cosine picks up the corner coupling: fluctuation sqrt(1/2)
    assert series.channels["fluctC"][0] == pytest.approx(math.sqrt(0.5), abs=1e-12)
    # the raw cosine misses it: fluctuation 1/2 (no channel carries it)
    state = np.array([1.0, 0.0, 0.0], dtype=complex)
    cos_cn = boson_cn_phase(2)[0]
    mean, second = (expectation_series(op, state)[0] for op in (cos_cn, cos_cn @ cos_cn))
    assert math.sqrt(second - mean * mean) == pytest.approx(0.5, abs=1e-12)


def test_expectation_series_matches_pointwise_expectation():
    tau, traj = _boson_traj(3, 0.5, tau_max=1.0, steps=11)
    cos_u = boson_unitary_phase(3)[0]
    series = expectation_series(cos_u, traj)
    for k in (0, 5, 10):
        psi = traj.states[k]
        manual = (psi.conj() @ cos_u @ psi).real
        assert series[k] == pytest.approx(manual, abs=1e-14)


def _quadratic_form_by_einsum(op, states):
    """The three-operand form _real_expectation replaced: the oracle."""
    return np.einsum("ti,ij,tj->t", states.conj(), op, states).real


def _random_states(rng, count, dim):
    states = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    return states / np.linalg.norm(states, axis=1)[:, None]


def _pair_operators():
    return [pair_moments(op) for op in (*fermion_cn_phase("l_up", "r_down"),
                                        *fermion_unitary_phase("l_up", "r_up")[:2],
                                        well_number_diff())]


@pytest.mark.parametrize("dim", [1, 3, 11, 16])
def test_quadratic_forms_match_three_operand_einsum(dim):
    rng = np.random.default_rng(dim)
    states = _random_states(rng, 257, dim)
    for _ in range(4):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        op = (a + a.conj().T) / 2
        for form in (op, op @ op):
            assert np.max(np.abs(expectation_series(form, states)
                                 - _quadratic_form_by_einsum(form, states))) <= 1e-13


def test_pair_moment_quadratic_forms_match_three_operand_einsum():
    states = _random_states(np.random.default_rng(3), 257, 3)
    for forms in _pair_operators():
        for form in forms:
            assert np.max(np.abs(expectation_series(form, states)
                                 - _quadratic_form_by_einsum(form, states))) <= 1e-13


def test_nonhermitian_sandwich_raises():
    shift = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    state = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)
    with pytest.raises(NumericalError):
        expectation_series(shift, state)


@pytest.mark.parametrize("call, match", [
    (lambda: expectation_series(np.full((3, 3), np.nan), np.eye(3)), "non-finite"),
    (lambda: expectation_series(np.diag([np.inf, 0.0, 0.0]), np.eye(3)), "non-finite"),
    (lambda: expectation_series(np.triu(np.ones((3, 3))), np.eye(3)), "not hermitian"),
    (lambda: pair_moments(np.full((16, 16), np.nan)), "non-finite"),
    (lambda: pair_moments(np.diag([np.inf] + [0.0] * 15)), "non-finite"),
    (lambda: pair_moments(np.triu(np.ones((16, 16)))), "not hermitian"),
    (lambda: expectation_series(np.eye(3), np.ones((2, 3)) * 1e200), "not finite"),
    (lambda: expectation_series(2.0 * np.eye(3), np.ones((2, 3)) * 1e308), "not finite"),
], ids=["expectation-nan-operator", "expectation-inf-operator",
        "expectation-nonhermitian-operator", "moments-nan-operator",
        "moments-inf-operator", "moments-nonhermitian-operator",
        "expectation-overflows", "expectation-matmul-overflows"])
def test_observables_refuse_what_they_cannot_evaluate(call, match):
    # the operator passes the propagators' hermiticity gate before any
    # product, and a value that overflows is refused, not returned as inf
    with pytest.raises(NumericalError, match=match):
        call()


def test_mismatched_state_dimension_raises_config_error():
    w = boson_number_diff(2)
    for state in (np.array([1.0, 0.0], dtype=complex), np.eye(4, dtype=complex)):
        with pytest.raises(ConfigError, match="does not match"):
            expectation_series(w, state)


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
    # only pair states embed: a full-space width is refused like any other
    for width in (5, 16):
        with pytest.raises(ConfigError, match="expected 3-dimensional pair states"):
            embedded_fermion_states(np.zeros((1, width), dtype=complex))


def _pair_channels(ubar, tau_max, steps):
    """The three squeezing channels of the both-right pair start."""
    cfg = ScenarioConfig(system="fermion", ubar=ubar, tau_max=tau_max, steps=steps,
                         channels=("xi_variance", "xi_second_moment", "xi_closed"))
    return run_scenario(cfg).channels


def test_xi_channel_of_the_free_pair():
    tau = np.linspace(0.0, 2.0 * math.pi, 2001)
    xi = run_scenario(ScenarioConfig(system="boson", N=2, ubar=0.0, tau_max=2.0 * math.pi,
                                     steps=2001, channels=("xi",))).channels["xi"]
    # <W> = -2 cos 2tau and <W^2> = 4 cos^2(2tau) + 2 sin^2(2tau) for this
    # start, so xi = sin^2(2tau) * ... reduces to 1 at tau = pi/4
    quarter_idx = np.argmin(np.abs(tau - math.pi / 4.0))
    assert xi[quarter_idx] == pytest.approx(1.0, abs=1e-6)
    assert xi[0] == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(xi - np.sin(2.0 * tau) ** 2)) < 1e-9


def test_xi_fermion_forms_at_start():
    channels = _pair_channels(5.0, 1.0, 5)
    assert channels["xi_variance"][0] == pytest.approx(0.0, abs=1e-12)
    assert channels["xi_second_moment"][0] == pytest.approx(2.0, abs=1e-12)


def test_xi_fermion_free_law():
    # at ubar=0 the printed closed form and the second moment agree:
    # both equal 2 - sin^2(2 tau) for the both-right start
    tau = np.linspace(0.0, 10.0, 401)
    second_moment = _pair_channels(0.0, 10.0, 401)["xi_second_moment"]
    law = 2.0 - np.sin(2.0 * tau) ** 2
    assert np.max(np.abs(second_moment - law)) < 1e-12
    closed = xi_fermion_closed_form(0.0, tau)
    assert np.max(np.abs(closed - law)) < 1e-12


def test_xi_fermion_closed_form_departs_from_trajectory_when_interacting():
    # the printed form's beat term contradicts the tau=0 second moment as soon
    # as ubar != 0; the gap is an order-one dataset fact, not a solver issue
    channels = _pair_channels(5.0, 40.0, 2001)
    second_moment, closed = channels["xi_second_moment"], channels["xi_closed"]
    assert closed[0] != pytest.approx(2.0, abs=1e-3)
    assert np.max(np.abs(second_moment - closed)) > 1.0
    # and it exits the [0, 2] band the trajectory forms respect
    assert closed.min() < -0.5
    assert second_moment.min() >= -1e-12
    assert second_moment.max() <= 2.0 + 1e-12
