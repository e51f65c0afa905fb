"""The RK4 stepping function against a classical step loop.

``evolve.active_kernel()`` applies each grid interval as a power of RK4's
stability polynomial and fills runs of equal intervals by doubling row
blocks. ``_classical_rk4`` below is the textbook four-stage loop, one
substep at a time; the two are the same integrator, so they must agree to
roundoff. ``_per_point_rk4`` is the kernel's earlier form, which looked the
power up per grid point by (n_sub, s) and stepped with one matvec per point.
Where no two consecutive intervals are equal the kernel makes the same
products and must agree with it bit for bit; on a linspace grid the doubling
reorders the products and the two agree to roundoff.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekit import (
    StepSizeError,
    boson_dimer_hamiltonian,
    fermion_pair_hamiltonian,
    rk4_propagate,
)
from phasekit.evolve import active_kernel


def _classical_rk4(h, psi0, tau, dtau):
    out = [psi0]
    psi = psi0
    for span in np.diff(tau):
        n_sub = max(1, int(span / dtau + 0.5))
        step = span / n_sub
        for _ in range(n_sub):
            k1 = -1j * (h @ psi)
            k2 = -1j * (h @ (psi + 0.5 * step * k1))
            k3 = -1j * (h @ (psi + 0.5 * step * k2))
            k4 = -1j * (h @ (psi + step * k3))
            psi = psi + step / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(psi)
    return np.array(out)


def _per_point_rk4(h, psi0, tau_grid, dtau):
    dim = h.shape[0]
    eye = np.eye(dim, dtype=complex)
    out = np.empty((tau_grid.shape[0], dim), dtype=complex)
    out[0] = psi0
    powers = {}
    for g in range(1, tau_grid.shape[0]):
        span = float(tau_grid[g] - tau_grid[g - 1])
        n_sub = max(1, int(span / dtau + 0.5))
        step = span / n_sub
        power = powers.get((n_sub, step))
        if power is None:
            z = -1j * step * h
            r = eye + z @ (eye + z @ (eye / 2.0 + z @ (eye / 6.0 + z / 24.0)))
            power = powers[(n_sub, step)] = np.linalg.matrix_power(r, n_sub)
        out[g] = power @ out[g - 1]
    return out


def _small_problem():
    h = boson_dimer_hamiltonian(3, 0.05)
    psi0 = np.zeros(4, dtype=complex)
    psi0[0] = 1.0
    tau = np.linspace(0.0, 2.0, 21)
    return h, psi0, tau


def test_numpy_kernel_shape_and_start():
    h, psi0, tau = _small_problem()
    out = active_kernel()(h, psi0, tau, 1e-2)
    assert out.shape == (21, 4)
    assert np.array_equal(out[0], psi0)


def test_numpy_kernel_conserves_norm_at_small_steps():
    h, psi0, tau = _small_problem()
    out = active_kernel()(h, psi0, tau, 1e-3)
    norms = np.linalg.norm(out, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_substep_count_rounds_to_grid():
    # interval 0.1 with dtau 0.03 should subdivide into 3 substeps, not 4:
    # the kernel scales the step to land exactly on each grid point
    h, psi0, _ = _small_problem()
    tau = np.array([0.0, 0.1])
    coarse = active_kernel()(h, psi0, tau, 0.03)
    explicit = active_kernel()(h, psi0, np.linspace(0.0, 0.1, 4), 0.1 / 3.0)
    assert np.allclose(coarse[-1], explicit[-1], atol=1e-15)


@pytest.mark.parametrize("h, tau, dtau", [
    (boson_dimer_hamiltonian(3, 0.05),
     np.linspace(0.0, 2.0, 21), 1e-2),
    (fermion_pair_hamiltonian(5.0), np.linspace(0.0, 2.0, 21), 1e-3),
    (boson_dimer_hamiltonian(10, 5.0),
     np.linspace(0.0, 0.5, 51), 1e-4),
    # substep counts 3, 3, 5 and 1; the first two share a count, not a step
    (boson_dimer_hamiltonian(3, 0.05),
     np.array([0.0, 0.1, 0.19, 0.34, 0.37]), 0.03),
], ids=["boson-N3", "fermion-ubar5", "boson-N10-stiff", "non-uniform-grid"])
def test_rk4_propagate_matches_classical_step_loop(h, tau, dtau):
    rng = np.random.default_rng(9)
    dim = h.shape[0]
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi0 /= np.linalg.norm(psi0)
    states = rk4_propagate(h, psi0, tau, dtau=dtau).states
    assert np.max(np.abs(states - _classical_rk4(h, psi0, tau, dtau))) <= 1e-11


@pytest.mark.parametrize("tau", [np.linspace(0.0, 1.0, 11), np.array([0.0, 0.149])],
                         ids=["substep-dtau", "substep-1.49-dtau"])
def test_rk4_rejects_substeps_beyond_stability_limit(tau):
    # row sums of this H are all 1, so the limit is a substep of 2*sqrt(2);
    # an interval under 1.5 dtau is one substep longer than dtau
    limit = 2.0 * math.sqrt(2.0)
    step = float(np.max(np.diff(tau)))
    h = np.array([[0.0, 1.0], [1.0, 0.0]]) * (limit / step)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    rk4_propagate(h * (1.0 - 1e-12), psi0, tau, dtau=0.1)
    with pytest.raises(StepSizeError, match="stability limit"):
        rk4_propagate(h * (1.0 + 1e-12), psi0, tau, dtau=0.1)


def _random_start(dim, seed=14):
    rng = np.random.default_rng(seed)
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi0 / np.linalg.norm(psi0)


def _random_irregular_grid(points):
    rng = np.random.default_rng(26)
    return np.concatenate(([0.0], np.cumsum(rng.uniform(0.01, 0.03, points - 1))))


@pytest.mark.parametrize("h, tau, dtau", [
    (fermion_pair_hamiltonian(5.0),
     np.array([0.0, 0.1, 0.19, 0.34, 0.37, 0.47, 0.56, 1.0]), 0.03),
    (fermion_pair_hamiltonian(0.05), np.array([0.0]), 1e-3),
    (boson_dimer_hamiltonian(10, 0.05),
     _random_irregular_grid(2001), 1e-3),
], ids=["irregular-grid", "one-point", "irregular-2001"])
def test_kernel_equals_per_point_loop_bit_for_bit(h, tau, dtau):
    # every run of equal intervals has length one: one product per interval
    spans = np.diff(tau)
    assert (spans[1:] != spans[:-1]).all()
    psi0 = _random_start(h.shape[0])
    assert np.array_equal(active_kernel()(h, psi0, tau, dtau),
                          _per_point_rk4(h, psi0, tau, dtau))


@pytest.mark.parametrize("h, tau, dtau", [
    (boson_dimer_hamiltonian(10, 0.05),
     np.linspace(0.0, 40.0, 2001), 1e-3),
    (boson_dimer_hamiltonian(10, 5.0),
     np.linspace(0.0, 5.0, 2001), 1e-4),
    # 1e19 substeps per interval: the count must not pass through int64
    (boson_dimer_hamiltonian(3, 0.05),
     np.array([0.0, 10.0, 20.0]), 1e-18),
    # the rk4 workload's fermion run: dimension 3, the smallest the CLI steps
    (fermion_pair_hamiltonian(5.0), np.linspace(0.0, 40.0, 2001), 1e-3),
    (np.array([[0.7]]), np.linspace(0.0, 1.0, 6), 1e-2),
], ids=["boson-N10-default-grid", "boson-N10-stiff", "1e19-substeps",
        "fermion-ubar5-default-grid", "one-by-one"])
def test_kernel_matches_per_point_loop_on_linspace_grids(h, tau, dtau):
    psi0 = _random_start(h.shape[0])
    deviation = np.max(np.abs(active_kernel()(h, psi0, tau, dtau)
                              - _per_point_rk4(h, psi0, tau, dtau)))
    assert deviation <= 1e-12


@st.composite
def _run_grids(draw):
    """Grids from 0 made of runs of equal intervals and single irregular
    ones, in multiples of 2^-10 so the runs stay exactly equal under
    np.diff; some are replaced by the linspace grid of the same size."""
    spans = []
    for length, units in draw(st.lists(st.tuples(st.integers(1, 40), st.integers(1, 300)),
                                       min_size=1, max_size=6)):
        spans += [units / 1024.0] * length
        spans += [u / 1024.0 for u in draw(st.lists(st.integers(1, 300), max_size=3))]
    tau = np.cumsum([0.0] + spans)
    if draw(st.booleans()):
        tau = np.linspace(0.0, tau[-1], tau.shape[0])
    return tau


@given(tau=_run_grids(), ubar=st.floats(-5.0, 5.0), dtau=st.sampled_from([0.01, 0.05]))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_classical_loop_on_runs_of_equal_intervals(tau, ubar, dtau):
    h = fermion_pair_hamiltonian(ubar)
    psi0 = _random_start(3)
    deviation = np.max(np.abs(active_kernel()(h, psi0, tau, dtau)
                              - _classical_rk4(h, psi0, tau, dtau)))
    assert deviation <= 1e-11


def test_linspace_grid_builds_one_power(monkeypatch):
    calls = []
    matrix_power = np.linalg.matrix_power

    def counted(*args):
        calls.append(args[1])
        return matrix_power(*args)

    monkeypatch.setattr(np.linalg, "matrix_power", counted)
    h, psi0, _ = _small_problem()
    active_kernel()(h, psi0, np.linspace(0.0, 40.0, 2001), 1e-3)
    assert calls == [20]


def test_grid_ending_at_the_largest_double_raises_no_warning():
    # recomputing linspace(0, max, 4) overflows in its last product, which
    # linspace then replaces by the end point
    with np.errstate(over="ignore"):
        tau = np.linspace(0.0, np.finfo(float).max, 4)
    psi0 = np.array([1.0, 0.0], dtype=complex)
    states = rk4_propagate(np.zeros((2, 2)), psi0, tau, dtau=float(tau[1])).states
    assert np.array_equal(states, np.tile(psi0, (4, 1)))
