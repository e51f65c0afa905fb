"""Finite-dimensional Hilbert spaces for the two-site problem.

* The bosonic dimer at fixed total particle number N is N itself, which every
  boson builder passes through the ``boson_basis`` gate; basis state ``l`` =
  0..N is ``|n_left=l, n_right=N-l>``.
* The four-mode fermionic Fock space of a two-well, two-spin system is one
  fixed space, so it is constants, not an object: its ``FULL_DIM`` = 16
  states are the occupation bitmasks 0..15 over the canonical mode order
  ``MODE_NAMES`` = ``(l_up, l_down, r_up, r_down)`` = bits 0..3, and the
  fermion builders of :mod:`phasekit.operators` take modes only.

A bitmask's canonical state is the ordered product of creation operators
applied to the vacuum in mode order; this convention fixes every fermionic
sign in :mod:`phasekit.operators`.

A state is a plain complex amplitude array; ``_check_unit_norm`` is the one
gate every amplitude vector passes (norm within 1e-9 of 1).
"""

from __future__ import annotations

import math
import numbers
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


def mode_index(mode: Union[int, str]) -> int:
    """Resolve a mode given as an index 0..3 or its name in ``MODE_NAMES``."""
    if isinstance(mode, (int, np.integer)):
        if not 0 <= int(mode) < N_MODES:
            raise ConfigError(f"mode index out of range: {mode}")
        return int(mode)
    if isinstance(mode, str) and mode in MODE_NAMES:
        return MODE_NAMES.index(mode)
    raise ConfigError(f"unknown mode {mode!r}: expected an index 0..3 or one of {MODE_NAMES}")


def boson_basis(n: int) -> int:
    """The particle number N of the fixed-N dimer, as ``int``: the one gate
    every boson builder passes N through. ConfigError unless N is an integer
    (not a bool) with N >= 1, since N=0 has no relative phase to speak of."""
    # a bool is an Integral, and int() would floor 2.7 and parse "3"
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ConfigError(f"particle number must be an integer, got {n!r}")
    if n < 1:
        raise ConfigError(
            "degenerate basis: need at least one particle for "
            "phase-difference dynamics"
        )
    return int(n)  # a numpy integer too


def particle_count(mask: int) -> int:
    return int(mask).bit_count()


def _check_unit_norm(amplitudes: Sequence[complex]) -> None:
    """ConfigError unless the amplitudes have norm 1 within AMPLITUDE_NORM_TOL.

    The norm is taken with math.hypot: inf for an overflowing sum of squares
    and nan for a nan amplitude, with no numpy warning.
    """
    amps = np.asarray(amplitudes, dtype=complex).ravel()
    norm = math.hypot(*amps.real.tolist(), *amps.imag.tolist())
    if not abs(norm - 1.0) <= AMPLITUDE_NORM_TOL:  # NaN fails too
        raise ConfigError(f"initial amplitudes not normalized: |c| = {norm!r}")


def fock_state(n: int, label: str) -> np.ndarray:
    """Read-only unit amplitude vector of a named boson start at N=n, as
    configs name it: ``"right-well"`` is basis index 0 (n_left = 0) and
    ``"left-well"`` is index N (n_left = N)."""
    n = boson_basis(n)
    if not isinstance(label, str) or label not in ("right-well", "left-well"):
        raise ConfigError(
            f"unknown boson state label {label!r}: expected 'right-well' or 'left-well'")
    amps = np.zeros(n + 1, dtype=complex)
    amps[0 if label == "right-well" else n] = 1.0
    amps.setflags(write=False)
    return amps
