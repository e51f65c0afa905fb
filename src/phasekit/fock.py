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
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigError

MODE_NAMES = ("l_up", "l_down", "r_up", "r_down")
N_MODES = 4
FULL_DIM = 16

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

    def occupations(self, l: int) -> tuple[int, int]:
        """(n_left, n_right) of basis index l."""
        if not 0 <= l <= self.total_particles:
            raise ConfigError(f"basis index out of range: {l}")
        return l, self.total_particles - l

    @property
    def labels(self) -> tuple[str, ...]:
        n = self.total_particles
        return tuple(f"{l},{n - l}" for l in range(n + 1))


def boson_basis(total_particles: int) -> BosonDimerBasis:
    """Basis of dimension N+1; rejects N=0 (no relative phase to speak of)."""
    return BosonDimerBasis(int(total_particles))


def occupied(mask: int, mode: int) -> bool:
    return bool((mask >> mode) & 1)


def particle_count(mask: int) -> int:
    return int(mask).bit_count()


def twice_sz(mask: int) -> int:
    """2*Sz of a bitmask (integer, so half-integer spins stay exact)."""
    return sum(s for m, s in enumerate(_MODE_TWICE_SZ) if (mask >> m) & 1)


_ARROW_ASCII = str.maketrans({"↑": "u", "↓": "d"})


def _well_part(mask: int, well: int) -> str:
    up = occupied(mask, 0 if well == 0 else 2)
    down = occupied(mask, 1 if well == 0 else 3)
    return {(False, False): "0", (True, False): "u",
            (False, True): "d", (True, True): "ud"}[(up, down)]


def mask_label(mask: int) -> str:
    """ASCII well-occupation label, e.g. mask 12 -> ``"0,ud"``."""
    return f"{_well_part(mask, 0)},{_well_part(mask, 1)}"


def parse_mask_label(label: str) -> int:
    """Inverse of :func:`mask_label`; accepts unicode arrows as aliases."""
    text = label.strip().translate(_ARROW_ASCII).lower()
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"malformed fermion state label: {label!r}")
    mask = 0
    for well, part in enumerate(parts):
        if part not in ("0", "u", "d", "ud", "du"):
            raise ConfigError(f"malformed fermion state label: {label!r}")
        if "u" in part:
            mask |= 1 << (0 if well == 0 else 2)
        if "d" in part:
            mask |= 1 << (1 if well == 0 else 3)
    return mask


@dataclass(frozen=True)
class FermionSector:
    """Ordered list of occupation bitmasks, optionally filtered.

    ``states[i]`` is the bitmask of sector index i; enumeration is ascending
    in mask value, so it is deterministic. Operators are always built on the
    full 16-dimensional space and projected onto sectors afterwards.
    """

    states: tuple[int, ...]
    particle_filter: Optional[int] = None
    twice_sz_filter: Optional[int] = None
    mode_order: tuple[str, ...] = field(default=MODE_NAMES)

    @property
    def dimension(self) -> int:
        return len(self.states)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(mask_label(m) for m in self.states)

    def index_of(self, mask: int) -> int:
        try:
            return self.states.index(mask)
        except ValueError:
            raise ConfigError(
                f"state {mask_label(mask)!r} is not in this sector"
            ) from None

    def projector(self) -> np.ndarray:
        """16x16 orthogonal projector onto the sector."""
        p = np.zeros((FULL_DIM, FULL_DIM))
        for m in self.states:
            p[m, m] = 1.0
        p.setflags(write=False)
        return p


def fermion_sector(particle_count_filter: Optional[int] = None,
                   sz: Optional[float] = None) -> FermionSector:
    """Enumerate the four-mode fermionic Fock space.

    Filters apply conjunctively: ``particle_count_filter`` keeps masks with
    that many fermions, ``sz`` (in physical units, so 0, +-1/2, +-1) keeps
    masks with that spin projection. Inconsistent filters raise, e.g.
    (particle_count=1, sz=1) names an empty sector.
    """
    tsz: Optional[int] = None
    if sz is not None:
        doubled = 2 * float(sz)
        if abs(doubled - round(doubled)) > 1e-9:
            raise ConfigError(f"sz must be a half-integer, got {sz}")
        tsz = int(round(doubled))
    if particle_count_filter is not None and not 0 <= particle_count_filter <= 4:
        raise ConfigError(
            f"particle count must be 0..4, got {particle_count_filter}"
        )
    masks = []
    for m in range(FULL_DIM):
        if particle_count_filter is not None and particle_count(m) != particle_count_filter:
            continue
        if tsz is not None and twice_sz(m) != tsz:
            continue
        masks.append(m)
    if not masks:
        raise ConfigError(
            f"empty sector: no states with particle_count={particle_count_filter}, sz={sz}"
        )
    return FermionSector(states=tuple(masks),
                         particle_filter=particle_count_filter,
                         twice_sz_filter=tsz)


def amplitude_norm(amplitudes: Sequence[complex]) -> float:
    """Euclidean norm of complex amplitudes: inf for an overflowing sum of
    squares and nan for a nan amplitude, with no numpy warning."""
    amps = np.asarray(amplitudes, dtype=complex).ravel()
    return math.hypot(*amps.real.tolist(), *amps.imag.tolist())


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


def fock_state(space: Union[BosonDimerBasis, FermionSector],
               label: Union[int, str, tuple]) -> StateVector:
    """Unit vector on the single basis state identified by ``label``.

    Boson labels: ``"right-well"`` (n_left = 0), ``"left-well"`` (n_left = N),
    an integer n_left, or an ``(n_left, n_right)`` pair.
    Fermion labels: well-occupation strings like ``"0,ud"`` (unicode arrows
    accepted), or a raw bitmask integer.
    """
    if isinstance(space, BosonDimerBasis):
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

    if isinstance(space, FermionSector):
        mask = label if isinstance(label, (int, np.integer)) else parse_mask_label(str(label))
        idx = space.index_of(int(mask))
        amps = np.zeros(space.dimension, dtype=complex)
        amps[idx] = 1.0
        return StateVector(space, amps)

    raise ConfigError(f"unsupported space type: {type(space).__name__}")
