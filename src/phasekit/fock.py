"""Finite-dimensional Hilbert spaces for the two-site problem.

Two spaces are supported:

* a bosonic dimer at fixed total particle number N, indexed by the left-well
  occupation ``l`` so that basis state ``l`` is ``|n_left=l, n_right=N-l>``;
* the four-mode fermionic Fock space of a two-well, two-spin system, enumerated
  as occupation bitmasks over the canonical mode order
  ``(l_up, l_down, r_up, r_down)`` = bits 0..3.

A bitmask's canonical state is the ordered product of creation operators
applied to the vacuum in mode order; this convention fixes every fermionic
sign in :mod:`phasekit.operators`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError

MODE_NAMES = ("l_up", "l_down", "r_up", "r_down")
N_MODES = 4
FULL_DIM = 16
AMPLITUDE_NORM_TOL = 1e-9

# spin of each mode in units of 1/2: +1 for up, -1 for down
_MODE_TWICE_SZ = (1, -1, 1, -1)
# well of each mode: 0 = left, 1 = right
_MODE_WELL = (0, 0, 1, 1)

_MODE_ALIASES = {
    "l_up": 0, "l-up": 0, "lu": 0, "l↑": 0,
    "l_down": 1, "l-down": 1, "ld": 1, "l↓": 1,
    "r_up": 2, "r-up": 2, "ru": 2, "r↑": 2,
    "r_down": 3, "r-down": 3, "rd": 3, "r↓": 3,
}


def mode_index(mode: Union[int, str]) -> int:
    """Resolve a mode given as an index 0..3 or a name like ``"l_up"``."""
    if isinstance(mode, (int, np.integer)):
        if not 0 <= int(mode) < N_MODES:
            raise ConfigError(f"mode index out of range: {mode}")
        return int(mode)
    key = str(mode).strip().lower()
    if key in _MODE_ALIASES:
        return _MODE_ALIASES[key]
    raise ConfigError(f"unknown mode name: {mode!r}")


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class BosonDimerBasis:
    """Fixed-N two-mode Fock basis, index l <-> |n_left=l, n_right=N-l>."""

    total_particles: int

    def __post_init__(self) -> None:
        if self.total_particles < 1:
            raise ConfigError(
                "degenerate basis: need at least one particle for "
                "phase-difference dynamics"
            )

    @property
    def dimension(self) -> int:
        return self.total_particles + 1


def boson_basis(total_particles: int) -> BosonDimerBasis:
    """Basis of dimension N+1; rejects N=0 (no relative phase to speak of)."""
    return BosonDimerBasis(int(total_particles))


def particle_count(mask: int) -> int:
    return int(mask).bit_count()


@dataclass(frozen=True)
class FermionSector:
    """Ordered list of occupation bitmasks.

    ``states[i]`` is the bitmask of index i, ascending in mask value, so the
    enumeration is deterministic. Operators are built on the full
    16-dimensional space.
    """

    states: tuple[int, ...]
    mode_order: tuple[str, ...] = field(default=MODE_NAMES)

    @property
    def dimension(self) -> int:
        return len(self.states)


def fermion_sector() -> FermionSector:
    """The four-mode fermionic Fock space, all 16 masks."""
    return FermionSector(states=tuple(range(FULL_DIM)))


def amplitude_norm(amplitudes: Sequence[complex]) -> float:
    """Euclidean norm of complex amplitudes: inf for an overflowing sum of
    squares and nan for a nan amplitude, with no numpy warning."""
    amps = np.asarray(amplitudes, dtype=complex).ravel()
    return math.hypot(*amps.real.tolist(), *amps.imag.tolist())


def _check_unit_norm(amplitudes: Sequence[complex]) -> None:
    """ConfigError unless the amplitudes have norm 1 within AMPLITUDE_NORM_TOL."""
    norm = amplitude_norm(amplitudes)
    if not abs(norm - 1.0) <= AMPLITUDE_NORM_TOL:  # NaN fails too
        raise ConfigError(f"initial amplitudes not normalized: |c| = {norm!r}")


@dataclass(frozen=True)
class StateVector:
    """Unit-norm complex amplitude vector over a basis.

    Norm must be 1 within 1e-12 at construction; use :meth:`normalized` to
    rescale arbitrary amplitudes first.
    """

    basis: object
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1:
            raise ConfigError(f"amplitudes must be a 1-D sequence, got shape {amps.shape}")
        dim = getattr(self.basis, "dimension", len(amps))
        if len(amps) != dim:
            raise ConfigError(
                f"amplitude count {len(amps)} does not match basis dimension {dim}"
            )
        norm = amplitude_norm(amps)
        norm_sq = norm * norm  # inf, not OverflowError as norm ** 2 would be
        if not abs(norm_sq - 1.0) <= 1e-12:  # NaN fails too
            raise ConfigError(
                f"state not normalized: sum of squared amplitudes is {norm_sq!r}"
            )
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @classmethod
    def normalized(cls, basis: object, amplitudes: Sequence[complex]) -> "StateVector":
        amps = np.asarray(amplitudes, dtype=complex)
        norm = amplitude_norm(amps)
        if not 0.0 < norm < math.inf:  # NaN fails too
            raise ConfigError(f"cannot normalize amplitudes of norm {norm!r}")
        return cls(basis, amps / norm)

    @property
    def dimension(self) -> int:
        return len(self.amplitudes)


def fock_state(space: BosonDimerBasis, label: Union[int, str, tuple]) -> StateVector:
    """Unit vector on the boson basis state identified by ``label``:
    ``"right-well"`` (n_left = 0), ``"left-well"`` (n_left = N), an integer
    n_left, or an ``(n_left, n_right)`` pair."""
    if not isinstance(space, BosonDimerBasis):
        raise ConfigError(f"unsupported space type: {type(space).__name__}")
    n = space.total_particles
    if isinstance(label, str):
        key = label.strip().lower()
        if key == "right-well":
            idx = 0
        elif key == "left-well":
            idx = n
        else:
            raise ConfigError(f"unknown boson state label: {label!r}")
    elif isinstance(label, tuple):
        nl, nr = label
        if nl + nr != n or not 0 <= nl <= n:
            raise ConfigError(f"occupation pair {label} not in this basis")
        idx = int(nl)
    else:
        idx = int(label)
        if not 0 <= idx <= n:
            raise ConfigError(f"occupation {label} not in this basis")
    amps = np.zeros(space.dimension, dtype=complex)
    amps[idx] = 1.0
    return StateVector(space, amps)
