"""Propagator and closed-form tests.

The eigendecomposition propagator is the dynamics oracle; RK4 must approach
it as the step shrinks, and the printed two-frequency forms must match it
exactly where their derivation is valid (everywhere for the fermion pair,
middle amplitude only for the interacting boson pair), as must the
interaction-free boson amplitudes at every N.
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
    ScenarioConfig,
    StepSizeError,
    Trajectory,
    boson_cn_phase,
    boson_dimer_hamiltonian,
    boson_free_amplitudes,
    boson_number_diff,
    boson_pair_closed_form,
    boson_unitary_phase,
    eigen_propagate,
    expectation_series,
    fermion_pair_closed_form,
    fermion_pair_hamiltonian,
    rk4_propagate,
    xi_fermion_closed_form,
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
    h = boson_dimer_hamiltonian(4, 5.0)
    tau = np.linspace(0.0, 3.0, 7)
    traj = eigen_propagate(h, _right_well(4), tau)
    # independent oracle: series matrix exponential, no eigh involved
    arr = h.entries
    for k, t in enumerate(tau):
        expected = _expm_series(-1j * t * arr) @ _right_well(4)
        assert np.max(np.abs(traj.states[k] - expected)) < 1e-10


def test_eigen_norm_and_energy_conservation():
    h = fermion_pair_hamiltonian(5.0)
    tau = np.linspace(0.0, 40.0, 801)
    norm_drift, energy_drift = conservation_residual(h, eigen_propagate(h, RIGHT_WELL_3, tau))
    assert norm_drift <= 1e-12
    assert energy_drift <= 1e-10


def test_rk4_matches_eigen_at_weak_coupling():
    h = boson_dimer_hamiltonian(5, 0.05)
    tau = np.linspace(0.0, 10.0, 101)
    exact = eigen_propagate(h, _right_well(5), tau)
    approx = rk4_propagate(h, _right_well(5), tau, dtau=1e-3)
    assert np.max(np.abs(exact.states - approx.states)) < 1e-9


def test_rk4_error_scales_as_fourth_order():
    h = boson_dimer_hamiltonian(3, 1.0)
    tau = np.linspace(0.0, 2.0, 3)
    exact = eigen_propagate(h, _right_well(3), tau)

    def err(dtau):
        out = rk4_propagate(h, _right_well(3), tau, dtau=dtau)
        return np.max(np.abs(out.states - exact.states))

    e_coarse, e_fine = err(0.02), err(0.01)
    ratio = e_coarse / e_fine
    assert 12.0 < ratio < 20.0  # h^4 convergence gives ~16


def test_rk4_rejects_bad_steps():
    h = boson_dimer_hamiltonian(2, 0.0)
    tau = np.linspace(0.0, 1.0, 11)
    with pytest.raises(ConfigError):
        rk4_propagate(h, _right_well(2), tau, dtau=0.0)
    with pytest.raises(ConfigError):
        rk4_propagate(h, _right_well(2), tau, dtau=0.5)  # exceeds spacing


@pytest.mark.parametrize("dtau", ["x", None, 1e-3 + 0j, np.array([1e-3, 1e-3]), True],
                         ids=["str", "none", "complex", "array", "bool"])
def test_rk4_refuses_a_dtau_that_is_not_a_real_number(dtau):
    # True once ran as dtau = 1.0; the others raised numpy's or Python's own errors
    h = boson_dimer_hamiltonian(2, 0.0)
    with pytest.raises(ConfigError, match="dtau must be a real number"):
        rk4_propagate(h, _right_well(2), np.linspace(0.0, 1.0, 11), dtau=dtau)


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
    h = boson_dimer_hamiltonian(2, 0.05)
    with pytest.raises(ConfigError, match=message):
        propagate(h, _right_well(2), tau)


WRONG_TYPE_TAUS = {"complex-list": [0, 1j], "string": [0, "a"],
                   "complex-array": np.array([0, 1 + 1j]), "object": [0.0, None]}


@pytest.mark.parametrize("propagate", [eigen_propagate, rk4_propagate, _trajectory_of],
                         ids=["eigen", "rk4", "trajectory"])
@pytest.mark.parametrize("tau", WRONG_TYPE_TAUS.values(), ids=WRONG_TYPE_TAUS.keys())
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
    h = boson_dimer_hamiltonian(2, 0.05)
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
    h = boson_dimer_hamiltonian(10, 5.0)
    tau = np.linspace(0.0, 40.0, 2001)
    with pytest.raises(StepSizeError):
        rk4_propagate(h, _right_well(10), tau, dtau=1e-3)


def test_rk4_stiff_problem_converges_at_fine_step():
    # same stiff problem, 100x smaller step: accuracy follows the h^4 law
    h = boson_dimer_hamiltonian(10, 5.0)
    tau = np.linspace(0.0, 1.0, 11)
    exact = eigen_propagate(h, _right_well(10), tau)
    approx = rk4_propagate(h, _right_well(10), tau, dtau=1e-5)
    assert np.max(np.abs(exact.states - approx.states)) < 1e-8


def test_fermion_closed_form_all_couplings():
    tau = np.linspace(0.0, 40.0, 401)
    inits = (RIGHT_WELL_3,
             np.array([0.5, 0.5j, math.sqrt(0.5)], dtype=complex))
    for ubar in (0.0, 0.05, 5.0):
        h = fermion_pair_hamiltonian(ubar)
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


def test_boson_closed_form_refuses_the_start_it_cannot_guarantee():
    # c1(0) != 0 at ubar != 0 is the one case where the printed c1 is not exact
    tau = np.linspace(0.0, 10.0, 101)
    with pytest.raises(ConfigError, match="c1 is exact only"):
        boson_pair_closed_form(5.0, tau, (0.0, 1.0, 0.0))
    h = boson_dimer_hamiltonian(2, 0.0)
    start = np.array([0.6, 0.8j, 0.0])
    c1 = boson_pair_closed_form(0.0, tau, start)
    assert c1.shape == tau.shape
    assert np.max(np.abs(eigen_propagate(h, start, tau).states[:, 1] - c1)) < 1e-12
    for ubar, start in ((5.0, (1.0, 0.0, 0.0)), (-5.0, (0.0, 0.0, 1.0))):
        h = boson_dimer_hamiltonian(2, ubar)
        c1 = boson_pair_closed_form(ubar, tau, start)
        assert np.max(np.abs(eigen_propagate(h, start, tau).states[:, 1] - c1)) < 1e-12


def test_boson_closed_form_against_eigen():
    # right-well start (1, 0, 0): the middle amplitude at every ubar, the
    # edges at ubar=0
    tau = np.linspace(0.0, 40.0, 401)
    for ubar in (0.0, 0.05, 5.0):
        h = boson_dimer_hamiltonian(2, ubar)
        traj = eigen_propagate(h, _right_well(2), tau)
        assert boson_closed_form_residual(ubar, traj) < 1e-12


@pytest.mark.parametrize("ubar", [1e9, 4e9, -3e9, 1e12, -1e12])
def test_closed_forms_keep_both_roots_at_huge_coupling(ubar):
    # ubar/4 - Omega once cancelled to 0 here, giving NaN and a numpy warning
    tau = np.linspace(0.0, 1.0, 11)
    h = fermion_pair_hamiltonian(ubar)
    pair = eigen_propagate(h, RIGHT_WELL_3, tau)
    assert fermion_closed_form_residual(ubar, RIGHT_WELL_3, pair) < 1e-12
    h = boson_dimer_hamiltonian(2, ubar)
    boson = eigen_propagate(h, _right_well(2), tau)
    assert boson_closed_form_residual(ubar, boson) < 1e-12


def test_closed_forms_refuse_unrepresentable_phases():
    # as eigen_propagate: max|w|*max|tau| past 1e15 leaves no digit of the phase
    with pytest.raises(NumericalError, match="exceeds"):
        fermion_pair_closed_form(1e300, [0.0, 1.0])
    with pytest.raises(NumericalError, match="exceeds"):
        boson_pair_closed_form(-1e16, [0.0, 1.0])
    with pytest.raises(NumericalError, match="exceeds"):
        xi_fermion_closed_form(5.0, [0.0, 1e15])
    assert np.isfinite(xi_fermion_closed_form(1e300, 0.0)).all()


# ---------------------------------------------------------------------------
# the interaction-free oracle


def test_free_amplitudes_match_eigen_at_every_n():
    tau = np.linspace(0.0, 40.0, 401)
    for n in [*range(1, 41), 100]:
        free = boson_free_amplitudes(n, tau)
        assert free.shape == (tau.size, n + 1)
        traj = eigen_propagate(boson_dimer_hamiltonian(n, 0.0), _right_well(n), tau)
        assert np.max(np.abs(traj.states - free)) < 1e-12, n
        assert np.max(np.abs(np.linalg.norm(free, axis=1) - 1.0)) < 1e-12, n
        w = expectation_series(boson_number_diff(n), free)
        assert np.max(np.abs(w + n * np.cos(2.0 * tau))) < 1e-13 * n, n  # W is O(N)


def test_free_amplitudes_match_rk4_at_the_default_step():
    tau = np.linspace(0.0, 40.0, 2001)
    traj = rk4_propagate(boson_dimer_hamiltonian(10, 0.0), _right_well(10), tau)
    assert np.max(np.abs(traj.states - boson_free_amplitudes(10, tau))) < 1e-8


def test_free_amplitudes_give_the_odd_even_and_gap_laws():
    # <C_CN> vanishes, so <C_U> - <C_CN> = Re((-i)^N) (sin 2tau / 2)^N: zero at
    # odd N and at most 2^-N at even N
    tau = np.linspace(0.0, 2.0 * math.pi, 401)
    for n in range(1, 41):
        free = boson_free_amplitudes(n, tau)
        cos_u = expectation_series(boson_unitary_phase(n)[0], free)
        cos_cn = expectation_series(boson_cn_phase(n)[0], free)
        law = ((-1j) ** n).real * (np.sin(2.0 * tau) / 2.0) ** n
        assert np.max(np.abs(cos_u - cos_cn - law)) < 1e-13, n
        assert np.max(np.abs(cos_cn)) < 1e-13, n
        if n % 2:
            assert np.max(np.abs(cos_u)) < 1e-13, n
        else:
            assert np.max(np.abs(cos_u)) == pytest.approx(2.0 ** -n, rel=1e-6)


@pytest.mark.parametrize("n", [1100, 2100, 5000])
def test_free_amplitudes_at_huge_n_are_unit_rows_or_config_errors(n):
    # float(comb(1100, 550)) overflows; sqrt(C(N, l)) stays finite to N ~ 2050
    tau = np.linspace(0.0, 2.0, 21)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            free = boson_free_amplitudes(n, tau)
        except ConfigError:
            assert n > 2000
            return
    assert np.isfinite(free).all()
    assert np.max(np.abs(np.linalg.norm(free, axis=1) - 1.0)) < 1e-12


def test_closed_forms_reject_bad_inits():
    with pytest.raises(ConfigError):
        fermion_pair_closed_form(1.0, [0.0, 1.0], (1.0, 1.0, 0.0))
    with pytest.raises(ConfigError):
        boson_pair_closed_form(1.0, [0.0, 1.0], (1.0, 0.0))


# every entry point that takes amplitudes, each through the one unit-norm gate
NORM_GATES = {
    "eigen": lambda start: eigen_propagate(boson_dimer_hamiltonian(2, 1.0),
                                           start, [0.0, 1.0]),
    "rk4": lambda start: rk4_propagate(boson_dimer_hamiltonian(2, 1.0),
                                       start, [0.0, 1.0]),
    "fermion-closed-form": lambda start: fermion_pair_closed_form(1.0, [0.0, 1.0], start),
    "boson-closed-form": lambda start: boson_pair_closed_form(1.0, [0.0, 1.0], start),
    "scenario-config": lambda start: ScenarioConfig(system="fermion", ubar=1.0,
                                                    channels=("avgW",), initial=start),
}

# every closed form, called with (ubar, tau); the oracle has no ubar
CLOSED_FORMS = {
    "fermion-closed-form": fermion_pair_closed_form,
    "boson-closed-form": boson_pair_closed_form,
    "xi-closed-form": xi_fermion_closed_form,
    "free-amplitudes": lambda ubar, tau: boson_free_amplitudes(2, tau),
}


def test_nan_amplitudes_are_not_normalized():
    # abs(nan - 1) > tol is False, so the norm gate is written to fail on nan
    for gate in NORM_GATES.values():
        with pytest.raises(ConfigError, match="initial amplitudes not normalized"):
            gate((math.nan, 0.0, 0.0))


@pytest.mark.parametrize("gate", NORM_GATES.values(), ids=NORM_GATES.keys())
def test_overflowing_amplitudes_fail_without_warning(gate):
    # the squares of a 1e200 amplitude overflow; the gate must raise its
    # own error, not a numpy RuntimeWarning first
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConfigError, match="initial amplitudes not normalized"):
            gate((1e200, 0.0, 0.0))


@pytest.mark.parametrize("start", [["a", "b", "c"], [1, [0], 0]], ids=["strings", "ragged"])
@pytest.mark.parametrize("gate", ["eigen", "rk4", "fermion-closed-form", "boson-closed-form"])
def test_unconvertible_starts_are_config_errors(gate, start):
    # numpy refuses both conversions with a bare ValueError
    with pytest.raises(ConfigError, match="initial amplitudes are not an array of numbers"):
        NORM_GATES[gate](start)


@pytest.mark.parametrize("ubar, tau", [
    *((1.0, tau) for tau in WRONG_TYPE_TAUS.values()),
    (1.0, [0.0, [1.0]]), (1.0, [0.0, math.nan]), (1.0, [0.0, math.inf]),
    (math.nan, [0.0, 1.0]), (math.inf, [0.0, 1.0]), (-math.inf, [0.0, 1.0]),
    # what a Hamiltonian builder refuses: True would compute as ubar=1
    ("5", [0.0, 1.0]), (None, [0.0, 1.0]), (True, [0.0, 1.0]), (1 + 0j, [0.0, 1.0]),
], ids=[*WRONG_TYPE_TAUS, "ragged-tau", "nan-tau", "inf-tau", "nan-ubar", "inf-ubar",
        "-inf-ubar", "str-ubar", "none-ubar", "bool-ubar", "complex-ubar"])
@pytest.mark.parametrize("form", CLOSED_FORMS.values(), ids=CLOSED_FORMS.keys())
def test_closed_forms_take_only_what_a_propagator_takes(form, ubar, tau):
    # a raw ValueError or TypeError, a NaN result or a numpy warning before
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bad_ubar = not (isinstance(ubar, float) and math.isfinite(ubar))
        if form is CLOSED_FORMS["free-amplitudes"] and bad_ubar:  # it takes no ubar
            assert np.isfinite(form(ubar, tau)).all()
            return
        with pytest.raises(ConfigError):
            form(ubar, tau)


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
    h = boson_dimer_hamiltonian(2, 0.0)
    # the whole shape is compared: a scalar has none and a nested list is 2-D
    for start in (np.array([1.0, 0.0]), 1.0, [[1.0, 0.0, 0.0]]):
        for propagate in (eigen_propagate, rk4_propagate):
            with pytest.raises(ConfigError, match="state dimension"):
                propagate(h, start, [0.0, 1.0])
    for not_square in (np.ones((2, 3)), np.ones(2)):
        for propagate in (eigen_propagate, rk4_propagate):
            with pytest.raises(ConfigError, match="not square"):
                propagate(not_square, np.array([1.0, 0.0]), [0.0, 1.0])
