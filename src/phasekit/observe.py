"""Expectation and fluctuation series and squeezing parameters.

All quantities are evaluated from trajectory states. Fermion-pair
trajectories live in the three-state dynamical basis. A 16-dim Fock operator A
is evaluated on them through its projections E^dag A E and E^dag A^2 E
(``pair_moments``), with E the embedding isometry; the second moment needs its
own projection because A maps pair states outside the dynamical sector.
``embedded_fermion_states`` gives the full-space vectors for checking this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import ConfigError, NumericalError
from .evolve import Trajectory
from .fock import BosonDimerBasis, fermion_sector
from .hamiltonians import fermion_pair_embedding
from .operators import OperatorMatrix, _as_array, boson_number_diff, well_number_diff

IMAG_DISCARD_TOL = 1e-12
IMAG_ERROR_TOL = 1e-10
RADICAND_ERROR_TOL = -1e-10


@dataclass(frozen=True)
class TimeSeries:
    """A tau grid plus named real observable channels of equal length."""

    tau_grid: np.ndarray
    channels: Mapping[str, np.ndarray]

    def __post_init__(self) -> None:
        tau = np.asarray(self.tau_grid, dtype=float)
        chans: dict[str, np.ndarray] = {}
        for name, values in self.channels.items():
            arr = np.asarray(values, dtype=float)
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
    arr = states.states if isinstance(states, Trajectory) else np.asarray(states, dtype=complex)
    if arr.ndim == 1:
        arr = arr[None, :]
    return arr


def _real_expectation(op: np.ndarray, states: np.ndarray, what: str) -> np.ndarray:
    if states.shape[1] != op.shape[0]:
        raise ConfigError(
            f"state dimension {states.shape[1]} does not match operator "
            f"dimension {op.shape[0]}")
    # one matmul, then a row-wise dot; a three-operand einsum would run
    # numpy's unoptimised nditer loop
    values = np.einsum("tj,tj->t", states.conj() @ op, states)
    worst = float(np.max(np.abs(values.imag))) if values.size else 0.0
    if worst > IMAG_ERROR_TOL:
        raise NumericalError(
            f"{what} has imaginary residue {worst:.3e}; operator is not hermitian enough"
        )
    return values.real


def expectation_series(op: Union[OperatorMatrix, np.ndarray],
                       states: Union[Trajectory, np.ndarray]) -> np.ndarray:
    """<psi|op|psi> per state (a 1-D state gives one value) for a hermitian
    operator; the imaginary residue is checked against 1e-10 and discarded."""
    return _real_expectation(_as_array(op), _states_matrix(states), "expectation")


def _spread(mean: np.ndarray, second: np.ndarray) -> np.ndarray:
    """sqrt(second - mean^2) from the two moments of one observable."""
    radicand = second - mean * mean
    worst = float(np.min(radicand)) if radicand.size else 0.0
    if worst < RADICAND_ERROR_TOL:
        raise NumericalError(
            f"fluctuation radicand {worst:.3e} below tolerance; inconsistent moments"
        )
    return np.sqrt(np.clip(radicand, 0.0, None))


def fluctuation_series(op: Union[OperatorMatrix, np.ndarray],
                       states: Union[Trajectory, np.ndarray],
                       second_op: Union[OperatorMatrix, np.ndarray, None] = None,
                       ) -> np.ndarray:
    """sqrt(<op^2> - <op>^2) per state; ``second_op`` stands in for op @ op
    where that product is not the second moment (see ``pair_moments``)."""
    arr = _as_array(op)
    matrix = _states_matrix(states)
    mean = _real_expectation(arr, matrix, "expectation")
    second = _real_expectation(arr @ arr if second_op is None else _as_array(second_op),
                               matrix, "second moment")
    return _spread(mean, second)


# ---------------------------------------------------------------------------
# fermion embedding


def embedded_fermion_states(states: Union[Trajectory, np.ndarray]) -> np.ndarray:
    """Map three-amplitude pair states into the 16-dim Fock space (isometric);
    16-dim inputs pass through unchanged."""
    arr = _states_matrix(states)
    if arr.shape[1] == 16:
        return arr
    if arr.shape[1] != 3:
        raise ConfigError(f"expected 3- or 16-dimensional states, got {arr.shape[1]}")
    return arr @ fermion_pair_embedding().T


def pair_moments(op: Union[OperatorMatrix, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(E^dag A E, E^dag A^2 E) for a 16-dim operator A, E the pair embedding.

    <E psi|A|E psi> = psi^dag (E^dag A E) psi, and likewise for A^2, so both
    moments are exact on the three pair amplitudes. (E^dag A E)^2 is not the
    second moment: A leaves the dynamical sector.
    """
    arr = _as_array(op)
    if arr.shape != (16, 16):
        raise ConfigError(f"expected a 16x16 Fock operator, got {arr.shape}")
    e = fermion_pair_embedding()
    return e.conj().T @ arr @ e, e.conj().T @ (arr @ arr) @ e


# ---------------------------------------------------------------------------
# squeezing / entanglement parameters


def xi_boson(trajectory: Union[Trajectory, np.ndarray],
             basis: BosonDimerBasis) -> np.ndarray:
    """Variance form (delta W)^2 / N along a boson trajectory."""
    dw = fluctuation_series(boson_number_diff(basis), trajectory)
    return _xi_boson_form(dw, basis.total_particles)


def _xi_boson_form(dw: np.ndarray, n: int) -> np.ndarray:
    return dw * dw / float(n)


def xi_fermion(trajectory: Union[Trajectory, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Both squeezing forms for the fermion pair, W = well-level imbalance.

    Returns (variance_form, second_moment_form) = ((delta W)^2 / N, <W^2>/N)
    with N = 2. The two differ already at tau=0 (0 versus 2) for the
    both-in-one-well start; both are emitted so the discrepancy is visible in
    datasets rather than hidden by a choice.
    """
    states = _states_matrix(trajectory)
    if states.shape[1] != 3:
        raise ConfigError(f"expected 3-amplitude pair states, got {states.shape[1]}")
    w, w2 = pair_moments(well_number_diff(fermion_sector()))
    return _xi_fermion_forms(_real_expectation(w, states, "expectation"),
                             _real_expectation(w2, states, "second moment"))


def _xi_fermion_forms(mean: np.ndarray,
                      second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return (second - mean * mean) / 2.0, second / 2.0


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
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    omega = math.sqrt(4.0 + (ubar / 4.0) ** 2)
    om_minus = omega - ubar / 4.0
    om_plus = omega + ubar / 4.0
    beat = om_minus * np.cos(om_plus * tau_arr) - om_plus * np.cos(om_minus * tau_arr)
    values = 2.0 * (1.0 - (2.0 / omega ** 2) * np.sin(omega * tau_arr) ** 2
                    - beat ** 2 / (4.0 * omega ** 2))
    return values
