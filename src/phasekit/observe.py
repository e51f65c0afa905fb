"""Expectation series, fermion pair moments, and the printed squeezing form.

All quantities are evaluated from trajectory states, and each operator first
passes the gate that propagation applies (``operators._hermitian``): a
non-finite or non-hermitian one is a NumericalError. Fermion-pair
trajectories live in the three-state dynamical basis. A 16-dim Fock operator A
is evaluated on them through its projections E^dag A E and E^dag A^2 E
(``pair_moments``), with E the embedding isometry; the second moment needs its
own projection because A maps pair states outside the dynamical sector.
``embedded_fermion_states`` gives the full-space vectors for checking this.
Fluctuations and the emitted squeezing forms are derived from these moments
in one place, the channel table of ``scenario``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import ConfigError, NumericalError
from .evolve import Trajectory, _closed_form_tau, _real_array, _two_frequency_roots
from .hamiltonians import _check_ubar, fermion_pair_embedding
from .operators import _as_array, _hermitian


@dataclass(frozen=True)
class TimeSeries:
    """A tau grid plus named real observable channels of equal length."""

    tau_grid: np.ndarray
    channels: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        tau = _real_array(self.tau_grid, "tau grid")
        if tau.ndim != 1:
            raise ConfigError(f"tau grid must be 1-D, got shape {tau.shape}")
        chans: dict[str, np.ndarray] = {}
        for name, values in self.channels.items():
            arr = _real_array(values, f"channel {name!r}")
            if arr.shape != tau.shape:
                raise ConfigError(
                    f"channel {name!r} length {arr.shape} does not match grid {tau.shape}"
                )
            arr = arr.copy()
            arr.setflags(write=False)
            chans[name] = arr
        tau = tau.copy()
        tau.setflags(write=False)
        object.__setattr__(self, "tau_grid", tau)
        object.__setattr__(self, "channels", chans)


def _states_matrix(states: Union[Trajectory, np.ndarray]) -> np.ndarray:
    """The states as rows of a complex matrix (one state is one row);
    ConfigError for what numpy cannot convert, that is not 1-D or 2-D, or
    that has a non-finite amplitude. A Trajectory's states are finite already."""
    if isinstance(states, Trajectory):
        return states.states
    try:
        arr = np.asarray(states, dtype=complex)
    except (TypeError, ValueError) as exc:  # a string or a ragged nesting
        raise ConfigError(f"states are not an array of numbers: {exc}") from None
    if arr.ndim not in (1, 2):
        raise ConfigError(f"states must be one state or a 2-D stack, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ConfigError("states have non-finite amplitudes")
    return arr[None, :] if arr.ndim == 1 else arr


def expectation_series(op: np.ndarray,
                       states: Union[Trajectory, np.ndarray]) -> np.ndarray:
    """Re <psi|op|psi> per state (a 1-D state gives one value). ``op`` passes
    the propagators' hermiticity gate first, so a non-finite or non-hermitian
    operator is a NumericalError, and so is a value that overflows."""
    arr = _hermitian(_as_array(op))
    matrix = _states_matrix(states)
    if matrix.shape[1] != arr.shape[0]:
        raise ConfigError(
            f"state dimension {matrix.shape[1]} does not match operator "
            f"dimension {arr.shape[0]}")
    # one matmul, then a row-wise dot; a three-operand einsum would run
    # numpy's unoptimised nditer loop
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        values = np.einsum("tj,tj->t", matrix.conj() @ arr, matrix).real
    if not np.isfinite(values).all():
        raise NumericalError("expectation is not finite: the states or the operator overflow")
    return values


# ---------------------------------------------------------------------------
# fermion embedding


def embedded_fermion_states(states: Union[Trajectory, np.ndarray]) -> np.ndarray:
    """Map three-amplitude pair states into the 16-dim Fock space (isometric)."""
    arr = _states_matrix(states)
    if arr.shape[1] != 3:
        raise ConfigError(f"expected 3-dimensional pair states, got {arr.shape[1]}")
    return arr @ fermion_pair_embedding().T


def pair_moments(op: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(E^dag A E, E^dag A^2 E) for a 16-dim operator A, E the pair embedding.

    <E psi|A|E psi> = psi^dag (E^dag A E) psi, and likewise for A^2, so both
    moments are exact on the three pair amplitudes. (E^dag A E)^2 is not the
    second moment: A leaves the dynamical sector.
    """
    arr = _hermitian(_as_array(op))
    if arr.shape != (16, 16):
        raise ConfigError(f"expected a 16x16 Fock operator, got {arr.shape}")
    e = fermion_pair_embedding()
    return e.conj().T @ arr @ e, e.conj().T @ (arr @ arr) @ e


# ---------------------------------------------------------------------------
# the printed squeezing closed form


def xi_fermion_closed_form(ubar: float, tau: Union[float, Sequence[float]]) -> np.ndarray:
    """Literal evaluation of the pair's printed squeezing closed form.

    Matches the trajectory-derived second-moment form only at ubar = 0; for
    ubar != 0 the beat term makes it disagree with both emitted forms (and it
    can leave [0, 2]). It is provided verbatim so that the disagreement is a
    measurable dataset fact.

    With Omega = sqrt(4 + (ubar/4)^2) and w-+ = Omega -+ ubar/4, for the
    both-right start the second moment is <W^2>/2 = 2 - 4 sin^2(Omega tau) /
    Omega^2 and, exactly,

        printed       = <W^2>/2 - B-^2 / (2 Omega^2),
        (delta W)^2/2 = <W^2>/2 - B+^2 / (2 Omega^2),

    with B-+ = w- cos(w+ tau) -+ w+ cos(w- tau). B- vanishes only at
    ubar = 0. Flipping the sign of the beat's second term would turn the
    printed expression into the variance form, which suggests a sign misprint
    in an expression meant as (delta W)^2 / N; PAPER.md holds only the
    abstract and cannot settle whether the sign was misprinted in the paper
    or in its transcription, so the expression is kept as printed.
    """
    _check_ubar(ubar)
    tau_arr = _closed_form_tau(tau)
    omega, w_minus, om_plus = _two_frequency_roots(ubar / 4.0, tau_arr)
    om_minus = -w_minus
    beat = om_minus * np.cos(om_plus * tau_arr) - om_plus * np.cos(om_minus * tau_arr)
    return 2.0 * (1.0 - 2.0 * (np.sin(omega * tau_arr) / omega) ** 2
                  - (beat / (2.0 * omega)) ** 2)
