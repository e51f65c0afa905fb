"""Time propagation and the two-frequency closed-form solutions.

Ground truth for all dynamics is the eigendecomposition propagator; the
fixed-step RK4 integrator is an independent cross-check (it shares no code
path with the eigensolver: no eigh, no expm). The closed forms are kept as
printed-style two-frequency expressions so they can serve as analytic oracles
where they are exact; `boson_pair_closed_form` reports exactly which of its
components carry that guarantee for the given inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, NumericalError, StepSizeError
from .fock import StateVector
from .operators import OperatorMatrix, _as_array

DEFAULT_DTAU = 1e-3
RK4_NORM_DRIFT_TOL = 1e-6


@dataclass(frozen=True)
class Trajectory:
    """States on a strictly increasing tau grid starting at 0."""

    tau_grid: np.ndarray
    states: np.ndarray  # shape (len(tau_grid), dim)
    norm_tol: float = 1e-10

    def __post_init__(self) -> None:
        tau = np.asarray(self.tau_grid, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        if tau.ndim != 1 or states.ndim != 2 or states.shape[0] != tau.shape[0]:
            raise ConfigError("trajectory arrays have inconsistent shapes")
        if tau[0] != 0.0:
            raise ConfigError(f"tau grid must start at 0, got {tau[0]!r}")
        if np.any(np.diff(tau) <= 0):
            raise ConfigError("tau grid must be strictly increasing")
        norms = np.linalg.norm(states, axis=1)
        drift = float(np.max(np.abs(norms - 1.0)))
        if not drift <= self.norm_tol:  # NaN drift fails too
            raise NumericalError(
                f"trajectory state norms drift by {drift:.3e} (tol {self.norm_tol:g})"
            )
        tau = tau.copy()
        states = states.copy()
        tau.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "tau_grid", tau)
        object.__setattr__(self, "states", states)


def _prepare(h: Union[OperatorMatrix, np.ndarray],
             psi0: Union[StateVector, Sequence[complex]],
             tau_grid: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    arr = _as_array(h)
    dev = float(np.max(np.abs(arr - arr.conj().T)))
    if dev > 1e-12:
        raise NumericalError(f"propagation needs a hermitian matrix; deviation {dev:.3e}")
    amps = psi0.amplitudes if isinstance(psi0, StateVector) else np.asarray(psi0, dtype=complex)
    if amps.shape != (arr.shape[0],):
        raise ConfigError(
            f"state dimension {amps.shape} does not match operator dimension {arr.shape[0]}"
        )
    norm = float(np.linalg.norm(amps))
    if not abs(norm - 1.0) <= 1e-9:  # NaN fails too
        raise ConfigError(f"initial state not normalized: |psi| = {norm!r}")
    tau = np.asarray(tau_grid, dtype=float)
    return arr, amps.astype(complex), tau


def eigen_propagate(h: Union[OperatorMatrix, np.ndarray],
                    psi0: Union[StateVector, Sequence[complex]],
                    tau_grid: Sequence[float]) -> Trajectory:
    """Exact propagation psi(tau) = sum_k e^{-i E_k tau} <k|psi0> |k>."""
    arr, amps, tau = _prepare(h, psi0, tau_grid)
    try:
        energies, vectors = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    weights = vectors.conj().T @ amps
    phases = np.exp(-1j * np.outer(tau, energies))
    states = (phases * weights[None, :]) @ vectors.T
    norms = np.linalg.norm(states, axis=1)
    drift = float(np.max(np.abs(norms - 1.0)))
    if not drift <= 1e-12:  # NaN drift fails too
        raise NumericalError(f"eigen propagation lost norm by {drift:.3e}")
    return Trajectory(tau, states, norm_tol=1e-12)


def _rk4_steps(h: np.ndarray, psi0: np.ndarray, tau_grid: np.ndarray,
               dtau: float) -> np.ndarray:
    """Integrate i dpsi/dtau = H psi over tau_grid, dense output per point.

    Each grid interval is cut into round(span/dtau) equal substeps so the grid
    points are hit exactly. H does not depend on tau, so one classical RK4
    substep of length s is exactly psi <- R(-i s H) psi, with R(z) = 1 + z +
    z^2/2 + z^3/6 + z^4/24 the method's stability polynomial. R^n_sub is built
    by repeated squaring once per distinct (n_sub, s) and applied with one
    matvec per grid point. No renormalization: norm drift stays visible as a
    diagnostic for the caller.
    """
    dim = h.shape[0]
    eye = np.eye(dim, dtype=complex)
    out = np.empty((tau_grid.shape[0], dim), dtype=complex)
    out[0] = psi0
    powers: dict[tuple[int, float], np.ndarray] = {}
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


def active_kernel():
    """The RK4 stepping callable (``perfbench/tracer.py`` times RK4 through
    this name)."""
    return _rk4_steps


def rk4_propagate(h: Union[OperatorMatrix, np.ndarray],
                  psi0: Union[StateVector, Sequence[complex]],
                  tau_grid: Sequence[float],
                  dtau: float = DEFAULT_DTAU,
                  norm_drift_tol: Optional[float] = RK4_NORM_DRIFT_TOL) -> Trajectory:
    """Classical fixed-step RK4 for i dpsi/dtau = H psi, no renormalization.

    Norm drift beyond ``norm_drift_tol`` over the run raises StepSizeError
    (pass None to disable the guard for diagnostics; the drift stays visible
    in the returned states either way).
    """
    arr, amps, tau = _prepare(h, psi0, tau_grid)
    if not dtau > 0:
        raise ConfigError(f"dtau must be positive, got {dtau}")
    spacing = float(np.min(np.diff(tau))) if len(tau) > 1 else math.inf
    if dtau > spacing * (1 + 1e-12):
        raise ConfigError(
            f"dtau {dtau:g} exceeds the smallest grid spacing {spacing:g}"
        )
    widest = float(np.max(np.diff(tau))) if len(tau) > 1 else 0.0
    if not math.isfinite(widest / dtau):
        raise ConfigError(
            f"grid interval {widest:g} needs a non-finite number of RK4 "
            f"substeps at dtau {dtau:g}"
        )
    states = active_kernel()(arr, amps, tau, float(dtau))
    norms = np.linalg.norm(states, axis=1)
    drift = float(np.max(np.abs(norms - 1.0)))
    # NaN drift fails too
    if norm_drift_tol is not None and not drift <= norm_drift_tol:
        raise StepSizeError(
            f"norm drifted by {drift:.3e} over the run (tol {norm_drift_tol:g}); "
            f"reduce dtau below {dtau:g}"
        )
    tol = math.inf if norm_drift_tol is None else max(norm_drift_tol, 1e-10)
    return Trajectory(tau, states, norm_tol=tol)


# ---------------------------------------------------------------------------
# closed forms


def _two_frequency(ubar_half: float, tau: np.ndarray,
                   init: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared closed-form engine for the two-site pair problem.

    ``ubar_half`` is the half-splitting on the middle amplitude (ubar/2 boson,
    ubar/4 fermion). Returns (middle, edge_a, edge_b) where "middle" is the
    singly-occupied amplitude and the edges follow the printed integral form.
    init = (middle(0), edge_a(0), edge_b(0)).
    """
    omega = math.sqrt(4.0 + ubar_half * ubar_half)
    w_minus = ubar_half - omega  # strictly negative, no zero division
    w_plus = ubar_half + omega
    c1_0, ca_0, cb_0 = init
    a = ((omega - ubar_half) * c1_0 + math.sqrt(2.0) * (ca_0 + cb_0)) / (2.0 * omega)
    b = ((omega + ubar_half) * c1_0 - math.sqrt(2.0) * (ca_0 + cb_0)) / (2.0 * omega)
    e_minus = np.exp(-1j * w_minus * tau)
    e_plus = np.exp(-1j * w_plus * tau)
    middle = a * e_minus + b * e_plus
    integral = (a * (e_minus - 1.0) / (-1j * w_minus)
                + b * (e_plus - 1.0) / (-1j * w_plus))
    edge = 1j * math.sqrt(2.0) * integral
    return middle, ca_0 + edge, cb_0 + edge


def _check_init(init: Sequence[complex]) -> np.ndarray:
    arr = np.asarray(init, dtype=complex)
    if arr.shape != (3,):
        raise ConfigError(f"closed forms take 3 initial amplitudes, got {arr.shape}")
    norm = float(np.linalg.norm(arr))
    if not abs(norm - 1.0) <= 1e-9:  # NaN fails too
        raise ConfigError(f"initial amplitudes not normalized: |c| = {norm!r}")
    return arr


@dataclass(frozen=True)
class BosonPairClosedForm:
    """N=2 boson amplitudes (c0, c1, c2) plus the validity report."""

    c0: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    exact_components: tuple[str, ...]
    note: str


def boson_pair_closed_form(ubar: float, tau: Union[float, Sequence[float]],
                           init: Sequence[complex] = (1.0, 0.0, 0.0)) -> BosonPairClosedForm:
    """Printed-style N=2 boson solution; init = (c0, c1, c2) at tau=0.

    The c1 component reproduces the true dynamics whenever c1(0) = 0 (the
    right-well and left-well starts both qualify) and always at ubar = 0; the
    c0/c2 components drop the diagonal interaction and are exact only at
    ubar = 0. ``exact_components`` lists which of the three carry the
    eigen-propagation guarantee for these inputs.
    """
    arr = _check_init(init)
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    # dynamical ordering: middle amplitude is c1, edges are (c2, c0)
    c1, c2, c0 = _two_frequency(0.5 * ubar, tau_arr, (arr[1], arr[2], arr[0]))
    if ubar == 0.0:
        exact = ("c0", "c1", "c2")
        note = "interaction-free: all components follow the true dynamics"
    elif abs(arr[1]) == 0.0:
        exact = ("c1",)
        note = ("c1 follows the true dynamics (middle amplitude starts empty); "
                "c0/c2 ignore the interaction diagonal and hold only at ubar=0")
    else:
        exact = ()
        note = ("no component is guaranteed: c1's printed coefficients assume "
                "the interaction-free edge equations when c1(0) != 0")
    return BosonPairClosedForm(c0=c0, c1=c1, c2=c2,
                               exact_components=exact, note=note)


def fermion_pair_closed_form(ubar: float, tau: Union[float, Sequence[float]],
                             init: Sequence[complex] = (0.0, 0.0, 1.0)) -> np.ndarray:
    """Closed-form pair amplitudes (c1, c2, c3); init given at tau=0.

    Exact for the single-occupancy Hamiltonian at every ubar and any initial
    amplitudes; returns an array of shape (len(tau), 3).
    """
    arr = _check_init(init)
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    c1, c2, c3 = _two_frequency(0.25 * ubar, tau_arr, arr)
    return np.stack([c1, c2, c3], axis=1)
