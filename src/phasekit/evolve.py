"""Time propagation and the two-frequency closed-form solutions.

Ground truth for all dynamics is the eigendecomposition propagator; the
fixed-step RK4 integrator is an independent cross-check (it shares no code
path with the eigensolver: no eigh, no expm). The closed forms are kept as
printed-style two-frequency expressions so they can serve as analytic oracles
where they are exact; `boson_free_amplitudes` is the interaction-free boson
solution at every N.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError, NumericalError, StepSizeError
from .fock import _check_unit_norm, boson_basis
from .hamiltonians import _check_ubar
from .operators import _as_array, _hermitian

DEFAULT_DTAU = 1e-3
RK4_NORM_DRIFT_TOL = 1e-6
# at |E*tau| = 1e15 a double resolves the phase E*tau only to 0.125 rad
PHASE_SCALE_LIMIT = 1e15
# |R(ix)| <= 1 for real |x| <= 2*sqrt(2): RK4's stability interval on the
# imaginary axis, where the eigenvalues of -i*s*H lie
RK4_STABILITY_LIMIT = 2.0 * math.sqrt(2.0)


def _real_array(values: Sequence[float], what: str) -> np.ndarray:
    """``values`` as a float array; ConfigError unless they are real numbers
    (bool, integer or float dtype): a complex value would lose its imaginary
    part, and strings or a ragged nesting are no numbers."""
    try:
        raw = np.asarray(values)
    except ValueError as exc:  # a ragged nesting
        raise ConfigError(f"{what} is not an array of numbers: {exc}") from exc
    if raw.dtype.kind not in "biuf":
        raise ConfigError(f"{what} must hold real numbers, got dtype {raw.dtype}")
    return raw.astype(float, copy=False)


def _check_tau_grid(tau_grid: Sequence[float]) -> np.ndarray:
    """The grid as a float array; ConfigError unless it holds real numbers
    and is non-empty, 1-D, finite, starts at 0 and is strictly increasing."""
    tau = _real_array(tau_grid, "tau grid")
    if tau.ndim != 1 or tau.size == 0:
        raise ConfigError(f"tau grid must be a non-empty 1-D sequence, got shape {tau.shape}")
    if not np.isfinite(tau).all():  # before a NaN or inf difference
        raise ConfigError("tau grid must be finite")
    if tau[0] != 0.0:
        raise ConfigError(f"tau grid must start at 0, got {float(tau[0])!r}")
    if not (np.diff(tau) > 0).all():
        raise ConfigError("tau grid must be strictly increasing")
    return tau


def _as_start(psi0: Sequence[complex], dim: int) -> np.ndarray:
    """The start as a complex vector of length ``dim`` and unit norm, for the
    propagators and the closed forms alike; ConfigError otherwise, also for
    what numpy cannot convert (strings, a ragged nesting), which it rejects
    with a bare ValueError or TypeError."""
    try:
        amps = np.asarray(psi0, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"initial amplitudes are not an array of numbers: {exc}") from exc
    if amps.shape != (dim,):
        raise ConfigError(f"state dimension {amps.shape} does not match operator dimension {dim}")
    _check_unit_norm(amps)
    return amps


@dataclass(frozen=True)
class Trajectory:
    """States on a strictly increasing tau grid starting at 0, each of norm 1
    within ``norm_tol``; ``norm_drift`` is the largest distance from 1."""

    tau_grid: np.ndarray
    states: np.ndarray  # shape (len(tau_grid), dim)
    norm_tol: float = 1e-10
    norm_drift: float = field(init=False)

    def __post_init__(self) -> None:
        tau = _check_tau_grid(self.tau_grid)
        states = np.asarray(self.states, dtype=complex)
        if states.ndim != 2 or states.shape[0] != tau.shape[0]:
            raise ConfigError("trajectory arrays have inconsistent shapes")
        # a non-finite state gives an inf or NaN norm, which fails below
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.linalg.norm(states, axis=1)
        drift = float(np.max(np.abs(norms - 1.0)))
        if not drift <= self.norm_tol:  # NaN drift fails too
            raise NumericalError(
                f"trajectory state norms drift by {drift:.3e} (tol {self.norm_tol:g})"
            )
        object.__setattr__(self, "norm_drift", drift)
        tau = tau.copy()
        states = states.copy()
        tau.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "tau_grid", tau)
        object.__setattr__(self, "states", states)


def _prepare(h: np.ndarray,
             psi0: Sequence[complex],
             tau_grid: Sequence[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # every matrix passes the hermiticity gate, a builder's again at O(d^2);
    # the caller's array is neither copied nor made read-only
    arr = _hermitian(_as_array(h))
    amps = _as_start(psi0, arr.shape[0])
    # the Trajectory checks the grid again, but only after the propagation ran
    return arr, amps, _check_tau_grid(tau_grid)


def eigen_propagate(h: np.ndarray,
                    psi0: Sequence[complex],
                    tau_grid: Sequence[float]) -> Trajectory:
    """Exact propagation psi(tau) = sum_k e^{-i E_k tau} <k|psi0> |k>."""
    arr, amps, tau = _prepare(h, psi0, tau_grid)
    try:
        energies, vectors = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    scale = float(np.max(np.abs(energies))) * float(np.max(np.abs(tau), initial=0.0))
    if not scale <= PHASE_SCALE_LIMIT:  # NaN fails too
        raise NumericalError(
            f"max|E|*max|tau| = {scale:.3e} exceeds {PHASE_SCALE_LIMIT:g}: the "
            f"phases E*tau would have no significant digit left")
    weights = vectors.conj().T @ amps
    phases = np.exp(-1j * np.outer(tau, energies))
    states = (phases * weights[None, :]) @ vectors.T
    return Trajectory(tau, states, norm_tol=1e-12)


def _grid_spans(tau: np.ndarray) -> np.ndarray:
    """The interval lengths of a checked grid. A grid that is exactly
    ``np.linspace(0, tau[-1], n)`` gets n-1 intervals of tau[-1]/(n-1), the
    spacing linspace used: its np.diff differs from that by ulps, which would
    split one step length into several (13 on a 2001-point grid). Any other
    grid gets np.diff."""
    n = tau.shape[0]
    if n > 1:
        # linspace's last product can overflow near the largest double
        with np.errstate(over="ignore"):
            uniform = np.array_equal(tau, np.linspace(0.0, tau[-1], n))
        if uniform:
            return np.full(n - 1, tau[-1] / (n - 1))
    return np.diff(tau)


def _rk4_steps(h: np.ndarray, psi0: np.ndarray, tau_grid: np.ndarray,
               dtau: float) -> np.ndarray:
    """Integrate i dpsi/dtau = H psi over tau_grid, dense output per point.

    Each grid interval (``_grid_spans``) is cut into round(span/dtau) equal
    substeps so the grid points are hit exactly. H does not depend on tau,
    so one classical RK4 substep of length s is exactly psi <- R(-i s H) psi,
    with R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 the method's stability
    polynomial, and an interval is P = R^n_sub, built by repeated squaring
    once per distinct interval length. The substep count stays a Python int,
    so an interval of more than 2^63 substeps still costs only log2(n_sub)
    squarings. No renormalization: norm drift stays visible as a diagnostic
    for the caller.

    The grid is walked in runs of equal intervals. In a run of L intervals
    from row g, rows g..g+k-1 times (P^k)^T fill rows g+k..g+2k-1 for k = 1,
    2, 4, ..., the last block cut short, with P squared between blocks: a
    run costs ceil(log2(L+1)) row-block products, so a linspace grid of 2001
    points takes one matrix power, 11 products and 10 squarings where a
    matvec per point took 2000. The first block is one row, so it is the
    matvec ``np.dot(P, psi)``: where no two consecutive intervals are equal
    the states are bit for bit those of a matvec per point, and longer runs
    agree with them to roundoff.
    """
    dim = h.shape[0]
    eye = np.eye(dim, dtype=complex)
    half, sixth = eye / 2.0, eye / 6.0
    powers: dict[float, np.ndarray] = {}
    out = np.empty((tau_grid.shape[0], dim), dtype=complex)
    out[0] = psi0
    g = 0
    for span, run in itertools.groupby(_grid_spans(tau_grid).tolist()):
        length = len(list(run))
        power = powers.get(span)
        if power is None:
            n_sub = max(1, int(span / dtau + 0.5))
            step = span / n_sub
            z = -1j * step * h
            r = eye + z @ (eye + z @ (half + z @ (sixth + z / 24.0)))
            power = powers[span] = np.linalg.matrix_power(r, n_sub)
        np.dot(power, out[g], out=out[g + 1])
        block, k = power, 2
        while k <= length:
            block = block @ block
            m = min(k, length + 1 - k)
            np.matmul(out[g:g + m], block.T, out=out[g + k:g + k + m])
            k *= 2
        g += length
    return out


def active_kernel():
    """The RK4 stepping callable (``perfbench/tracer.py`` times RK4 through
    this name)."""
    return _rk4_steps


def rk4_propagate(h: np.ndarray,
                  psi0: Sequence[complex],
                  tau_grid: Sequence[float],
                  dtau: float = DEFAULT_DTAU) -> Trajectory:
    """Classical fixed-step RK4 for i dpsi/dtau = H psi, no renormalization.

    A substep whose product with the max absolute row sum of H exceeds
    2*sqrt(2) raises StepSizeError before any state is built. Norm drift
    beyond RK4_NORM_DRIFT_TOL over the run raises StepSizeError; the drift
    of an accepted run is the returned Trajectory's ``norm_drift``.
    """
    if isinstance(dtau, bool) or not isinstance(dtau, numbers.Real):
        raise ConfigError(f"dtau must be a real number, got {dtau!r}")
    arr, amps, tau = _prepare(h, psi0, tau_grid)
    if not dtau > 0:
        raise ConfigError(f"dtau must be positive, got {dtau}")
    spans = _grid_spans(tau)
    spacing = float(np.min(spans, initial=math.inf))
    if dtau > spacing * (1 + 1e-12):
        raise ConfigError(
            f"dtau {dtau:g} exceeds the smallest grid spacing {spacing:g}"
        )
    widest = float(np.max(spans, initial=0.0))
    if not math.isfinite(widest / dtau):
        raise ConfigError(
            f"grid interval {widest:g} needs a non-finite number of RK4 "
            f"substeps at dtau {dtau:g}"
        )
    # the kernel's longest substep (up to 1.5*dtau) times the max absolute
    # row sum of H, which bounds rho(H) without an eigensolver
    step = float(np.max(spans / np.maximum(1.0, np.floor(spans / dtau + 0.5)),
                        initial=0.0))
    with np.errstate(over="ignore"):  # an overflowing row sum is inf and fails below
        row_sum = float(np.max(np.sum(np.abs(arr), axis=1)))
    if not row_sum * step <= RK4_STABILITY_LIMIT:
        raise StepSizeError(
            f"RK4 substep {step:g} times the row-sum norm {row_sum:.3e} of H exceeds "
            f"the stability limit 2*sqrt(2); reduce dtau below "
            f"{RK4_STABILITY_LIMIT / row_sum:.3e}"
        )
    # an interval of ~1e300 substeps can overflow R^n_sub; the non-finite
    # states then fail the Trajectory's drift gate
    with np.errstate(over="ignore", invalid="ignore"):
        states = active_kernel()(arr, amps, tau, float(dtau))
    try:
        return Trajectory(tau, states, norm_tol=RK4_NORM_DRIFT_TOL)
    except NumericalError as exc:
        raise StepSizeError(f"norm drifted over the run: {exc}; "
                            f"reduce dtau below {dtau:g}") from exc


# ---------------------------------------------------------------------------
# closed forms


def _closed_form_tau(tau: Union[float, Sequence[float]]) -> np.ndarray:
    """``tau`` as a finite 1-D float array (a number gives one point)."""
    arr = np.atleast_1d(_real_array(tau, "tau"))
    if arr.ndim != 1 or not np.isfinite(arr).all():
        raise ConfigError(f"tau must be a finite number or 1-D sequence, got shape {arr.shape}")
    return arr


def _two_frequency_roots(shift: float, tau: np.ndarray) -> tuple[float, float, float]:
    """(Omega, w-, w+) = (sqrt(4 + shift^2), shift -+ Omega) for the splitting
    ``shift`` on the middle amplitude (ubar/2 boson, ubar/4 fermion) of a
    checked ubar. As w- w+ = -4, the root of larger magnitude is formed
    directly and the other as -4 over it: shift - Omega cancels to nothing
    once |shift| passes ~1e8."""
    omega = math.hypot(2.0, shift)
    big = shift + math.copysign(omega, shift)
    scale = abs(big) * float(np.max(np.abs(tau), initial=0.0))
    if scale > PHASE_SCALE_LIMIT:  # as in eigen_propagate
        raise NumericalError(f"max|w|*max|tau| = {scale:.3e} exceeds {PHASE_SCALE_LIMIT:g}")
    w_minus, w_plus = sorted((big, -4.0 / big))
    return omega, w_minus, w_plus


def _two_frequency(shift: float, tau: np.ndarray,
                   init: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared closed-form engine for the two-site pair problem.

    Returns (middle, edge_a, edge_b) where "middle" is the singly-occupied
    amplitude and the edges follow the printed integral form.
    init = (middle(0), edge_a(0), edge_b(0)).
    """
    omega, w_minus, w_plus = _two_frequency_roots(shift, tau)
    c1_0, ca_0, cb_0 = init
    a = (-w_minus * c1_0 + math.sqrt(2.0) * (ca_0 + cb_0)) / (2.0 * omega)
    b = (w_plus * c1_0 - math.sqrt(2.0) * (ca_0 + cb_0)) / (2.0 * omega)
    e_minus = np.exp(-1j * w_minus * tau)
    e_plus = np.exp(-1j * w_plus * tau)
    middle = a * e_minus + b * e_plus
    integral = (a * (e_minus - 1.0) / (-1j * w_minus)
                + b * (e_plus - 1.0) / (-1j * w_plus))
    edge = 1j * math.sqrt(2.0) * integral
    return middle, ca_0 + edge, cb_0 + edge


def boson_free_amplitudes(n: int, tau: Union[float, Sequence[float]]) -> np.ndarray:
    """Interaction-free boson amplitudes from the right-well start, shape
    (len(tau), N+1). At ubar=0 the dimer Hamiltonian is -2 J_x, so
    c_l(tau) = sqrt(C(N, l)) (i sin tau)^l (cos tau)^(N-l). ConfigError past
    N of about 2050, where sqrt(C(N, N/2)) leaves the double range."""
    n = boson_basis(n)
    tau = _closed_form_tau(tau)
    l = np.arange(n + 1)
    with np.errstate(over="ignore"):
        root_binom = np.cumprod(np.sqrt(np.concatenate(([1.0], (n - l[:-1]) / l[1:]))))
    if not np.isfinite(root_binom).all():
        raise ConfigError(f"sqrt(C({n}, l)) exceeds the double range")
    sin, cos = np.sin(tau)[:, None], np.cos(tau)[:, None]
    return root_binom * np.array([1, 1j, -1, -1j])[l % 4] * sin ** l * cos ** (n - l)


def boson_pair_closed_form(ubar: float, tau: Union[float, Sequence[float]],
                           init: Sequence[complex] = (1.0, 0.0, 0.0)) -> np.ndarray:
    """Printed-style N=2 boson middle amplitude c1, shape (len(tau),); init =
    (c0, c1, c2) at tau=0. Exact at ubar = 0 or when c1(0) = 0 (the right-
    and left-well starts); elsewhere it assumes the interaction-free edge
    equations and raises ConfigError."""
    _check_ubar(ubar)
    arr = _as_start(init, 3)
    if ubar != 0.0 and arr[1] != 0.0:
        raise ConfigError(f"c1 is exact only at ubar=0 or c1(0)=0, got ubar={ubar!r}")
    # dynamical ordering: middle amplitude is c1, edges are (c2, c0)
    return _two_frequency(0.5 * ubar, _closed_form_tau(tau), (arr[1], arr[2], arr[0]))[0]


def fermion_pair_closed_form(ubar: float, tau: Union[float, Sequence[float]],
                             init: Sequence[complex] = (0.0, 0.0, 1.0)) -> np.ndarray:
    """Closed-form pair amplitudes (c1, c2, c3); init given at tau=0.

    Exact for the pair Hamiltonian at every ubar and any initial amplitudes;
    returns an array of shape (len(tau), 3).
    """
    _check_ubar(ubar)
    arr = _as_start(init, 3)
    c1, c2, c3 = _two_frequency(0.25 * ubar, _closed_form_tau(tau), arr)
    return np.stack([c1, c2, c3], axis=1)
