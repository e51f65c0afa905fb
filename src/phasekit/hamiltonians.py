"""Two-site Hamiltonians in reduced units (energies in hbar*J, time tau = J*t).

The boson dimer Hamiltonian of N bosons is the real symmetric tridiagonal
matrix over the fixed-N basis: hopping -sqrt((l+1)(N-l)) between neighbouring
occupations and interaction diagonal (ubar/2)(l^2 + (N-l)^2 - N).

The fermion pair Hamiltonian acts on the three dynamically coupled states of
two opposite-spin fermions: (sym, |ud,0>, |0,ud>) where
sym = (|u,d> + |d,u>)/sqrt(2). It couples sym to each doubly-occupied state
by -sqrt(2), and its interaction diag(ubar/2, 0, 0) sits on the
one-fermion-per-well amplitude.

Each builder returns a read-only complex matrix, and both Hamiltonians pass
the hermiticity gate of :mod:`phasekit.operators` when built.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConfigError
from .fock import boson_basis
from .operators import _hermitian, _read_only

# Fock-space bitmasks of the dynamical basis (mode order l_up,l_down,r_up,r_down):
# sym spreads over |u,d> = mask 9 and |d,u> = mask 6 with + signs.
_MASK_UP_DOWN = 9
_MASK_DOWN_UP = 6
_MASK_BOTH_LEFT = 3
_MASK_BOTH_RIGHT = 12


def _is_finite(value: numbers.Real) -> bool:
    """math.isfinite, and False for an int beyond the range of a double."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _check_ubar(ubar: float) -> None:
    """ConfigError unless ``ubar`` is a finite real number, as a scenario
    config requires: a bool, a string, None or a complex is refused."""
    if isinstance(ubar, bool) or not isinstance(ubar, numbers.Real):
        raise ConfigError(f"ubar must be a real number, got {ubar!r}")
    if not _is_finite(ubar):
        raise ConfigError(f"ubar must be finite, got {ubar!r}")


def boson_dimer_hamiltonian(n: int, ubar: float) -> np.ndarray:
    n = boson_basis(n)
    _check_ubar(ubar)
    ubar = float(ubar)  # a numpy float32 would round each diagonal entry in float32
    dim = n + 1
    h = np.zeros((dim, dim), dtype=complex)
    for l in range(dim):
        h[l, l] = 0.5 * ubar * (l * l + (n - l) * (n - l) - n)
        if l + 1 < dim:
            k = -math.sqrt((l + 1) * (n - l))
            h[l, l + 1] = k
            h[l + 1, l] = k
    return _read_only(_hermitian(h))


def fermion_pair_hamiltonian(ubar: float) -> np.ndarray:
    _check_ubar(ubar)
    h = np.zeros((3, 3), dtype=complex)
    s2 = math.sqrt(2.0)
    h[0, 1] = h[1, 0] = -s2
    h[0, 2] = h[2, 0] = -s2
    h[0, 0] = 0.5 * ubar
    return _read_only(_hermitian(h))


def fermion_pair_embedding() -> np.ndarray:
    """16x3 isometry taking (sym, |ud,0>, |0,ud>) amplitudes into Fock space.

    Observables (and especially their squares) mix states outside the
    three-state dynamical basis, so a Fock operator A acts on pair amplitudes
    through E^dag A E and E^dag A^2 E (``observe.pair_moments``), never
    through (E^dag A E)^2.
    """
    e = np.zeros((16, 3), dtype=complex)
    inv_s2 = 1.0 / math.sqrt(2.0)
    e[_MASK_UP_DOWN, 0] = inv_s2
    e[_MASK_DOWN_UP, 0] = inv_s2
    e[_MASK_BOTH_LEFT, 1] = 1.0
    e[_MASK_BOTH_RIGHT, 2] = 1.0
    return _read_only(e)
