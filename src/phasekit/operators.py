"""Phase-difference, number-difference, and ladder operators.

An operator is its matrix: every builder returns a read-only square complex
``np.ndarray``. Each hermitian one (every cosine and sine, the number
operators, and the Hamiltonians of :mod:`phasekit.hamiltonians`) has passed
one gate, ``_hermitian``: finite entries and max|A - A^dag| within
HERMITICITY_TOL, else NumericalError. Propagation and the observables
(``expectation_series``, ``pair_moments``) apply the same gate to every
matrix they are given, and the diagnostics (``commutator``,
``anticommutator``, ``unitarity_deficiency``) refuse non-finite operands
with the gate's NumericalError.

Boson operators live on the fixed-N dimer basis (dimension N+1), and each
boson builder takes N, checked by ``fock.boson_basis``. The shift
operator that underlies the non-unitary cosine/sine pair moves one particle
from the left well to the right well with unit coefficient, so its matrix is
exactly the sub-shift with ones; the vacuum coupling adds the corner term that
links |N,0> with |0,N> and restores unitarity.

Fermion operators are built as dense 16x16 matrices on the full four-mode
Fock space from bitmask ladder matrices (sign = parity of occupied lower
modes), so composite signs are automatic. That space is fixed (the
``FULL_DIM`` masks of :mod:`phasekit.fock`), so each fermion builder takes
only its modes: a mode, a mode pair, or nothing for ``well_number_diff``.
The vacuum coupling for a mode pair matches each one-occupied configuration
with its partner: identical rest occupations when the pair's spins agree,
well-mirrored rest occupations (the two rest modes swap) when they differ.
That matching is what makes the combined operator an isometry on the
half-filled subspace.

Sign convention: every matched entry of the vacuum coupling is +1, not the
Jordan-Wigner sign string that the shift's entry carries for the modes
between m and mp (order l_up, l_down, r_up, r_down). Both choices give the
isometry; the abstract cannot settle which the paper means. Only the unitary
cosine/sine read the coupling, so the CN pair, the number difference and
the squeezing forms do not depend on it. For l-up/r-up, with l_down between
the pair, it shows: the U channels of a left-well run are neither equal to
nor the negation of the right-well run's (the nearer law misses by 6.2e-3
to 1.0 at ubar 0.05 and 5), while CN, W and xi obey exact mirror laws, so
all files of fig7 and fig8 depend on it. For l-up/r-down every channel obeys
a mirror law.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .errors import ConfigError, NumericalError
from .fock import (
    FULL_DIM,
    N_MODES,
    _MODE_TWICE_SZ,
    _MODE_WELL,
    boson_basis,
    mode_index,
    particle_count,
)

HERMITICITY_TOL = 1e-12


def _hermiticity_deviation(arr: np.ndarray) -> float:
    """max|A - A^dag| (0 if empty): the gate's measure, and verify's."""
    return float(np.abs(arr - arr.conj().T).max(initial=0.0))


def _finite(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself; NumericalError unless every entry is finite, checked
    before any product or difference can warn on an inf."""
    if not np.isfinite(arr).all():
        raise NumericalError("operator is not a finite matrix: it has non-finite entries")
    return arr


def _hermitian(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself once it passes the one hermiticity gate: NumericalError
    unless every entry is finite and max|A - A^dag| <= HERMITICITY_TOL. Each
    hermitian builder gates its own result, propagation and observables every matrix."""
    dev = _hermiticity_deviation(_finite(arr))
    if not dev <= HERMITICITY_TOL:  # NaN fails too
        raise NumericalError(f"operator is not hermitian: it deviates by {dev:.3e}")
    return arr


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself, made read-only: the form every builder returns."""
    arr.setflags(write=False)
    return arr


def _as_array(op: np.ndarray) -> np.ndarray:
    """``op`` as a square complex matrix, not copied when it is one already;
    ConfigError for an operand numpy cannot convert or that is not square."""
    try:
        arr = np.asarray(op, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"operand is not a numeric matrix: {exc}") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ConfigError(f"operand is not square: shape {arr.shape}")
    return arr


def _operands(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both operands as finite square complex matrices of one shape
    (``_as_array``, ``_finite``)."""
    x, y = _as_array(a), _as_array(b)
    if x.shape != y.shape:
        raise ConfigError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return _finite(x), _finite(y)


def _cos_sin(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian and anti-hermitian halves of a shift X: cos + i sin = X.

    cos = (X + X^dag)/2 and sin = (X - X^dag)/2i, for bosons and fermions,
    raw (X the one-sided shift) and unitary (X closed by the vacuum term).
    """
    # X^dag is taken twice, not held across both builds: one N x N array
    # fewer at the peak of a large family's build
    return (_read_only(_hermitian(0.5 * (x + x.conj().T))),
            _read_only(_hermitian(-0.5j * (x - x.conj().T))))


# ---------------------------------------------------------------------------
# boson operators


def _boson_shift(n: int) -> np.ndarray:
    """Matrix moving one particle left -> right: e_l -> e_{l-1}, unit entries."""
    return np.eye(n + 1, k=1, dtype=complex)


def _boson_corner(n: int) -> np.ndarray:
    """|N,0><0,N|: index N is all-left, index 0 is all-right."""
    k = np.zeros((n + 1, n + 1), dtype=complex)
    k[n, 0] = 1.0
    return k


def boson_cn_phase(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Non-unitary cosine/sine pair built from the left->right shift."""
    return _cos_sin(_boson_shift(boson_basis(n)))


def boson_vacuum_phase(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Corner cosine/sine linking the two all-in-one-well states."""
    return _cos_sin(_boson_corner(boson_basis(n)))


def boson_unitary_phase(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unitary cosine/sine and the combined operator beta = cos + i sin.

    beta is the cyclic shift of the fixed-N ladder (the left->right shift plus
    the corner term), hence exactly unitary.
    """
    n = boson_basis(n)
    beta = _boson_shift(n) + _boson_corner(n)
    return (*_cos_sin(beta), _read_only(beta))


def boson_number_diff(n: int) -> np.ndarray:
    """Population imbalance n_left - n_right = diag(2l - N)."""
    n = boson_basis(n)
    diag = np.array([2 * l - n for l in range(n + 1)], dtype=float)
    return _read_only(_hermitian(np.diag(diag).astype(complex)))


# ---------------------------------------------------------------------------
# fermion operators


def fermion_ladder(mode: Union[int, str]) -> np.ndarray:
    """Annihilation matrix of one mode with the canonical-ordering sign.

    Entry convention: acting on a mask with the mode occupied clears the bit
    and multiplies by (-1)^(number of occupied modes preceding it).
    """
    m = mode_index(mode)
    a = np.zeros((FULL_DIM, FULL_DIM), dtype=complex)
    below = (1 << m) - 1
    for s in range(FULL_DIM):
        if (s >> m) & 1:
            sign = -1.0 if particle_count(s & below) % 2 else 1.0
            a[s ^ (1 << m), s] = sign
    return _read_only(a)


def fermion_number_op(mode: Union[int, str]) -> np.ndarray:
    m = mode_index(mode)
    diag = np.array([(s >> m) & 1 for s in range(FULL_DIM)], dtype=float)
    return _read_only(_hermitian(np.diag(diag).astype(complex)))


def _fermion_pair_shift(m: int, mp: int) -> np.ndarray:
    """(N_m+1)^(-1/2) a_m a_mp^dag (N_mp+1)^(-1/2): moves one fermion m -> mp.

    Both scale factors act on a mode that is empty where the product is
    nonzero, so each is exactly 1 and the result is a_m a_mp^dag (entries
    exactly 0 or +-1).
    """
    return fermion_ladder(m) @ fermion_ladder(mp).conj().T


def _check_pair(m: Union[int, str], mp: Union[int, str]) -> tuple[int, int]:
    i, j = mode_index(m), mode_index(mp)
    if i == j:
        raise ConfigError("mode pair must name two distinct modes")
    return i, j


def fermion_cn_phase(m: Union[int, str],
                     mp: Union[int, str]) -> tuple[np.ndarray, np.ndarray]:
    """Non-unitary cosine/sine for a mode pair (no vacuum coupling)."""
    return _cos_sin(_fermion_pair_shift(*_check_pair(m, mp)))


def _rest_modes(m: int, mp: int) -> tuple[int, int]:
    return tuple(k for k in range(N_MODES) if k not in (m, mp))  # type: ignore[return-value]


def fermion_vacuum_coupling(m: Union[int, str], mp: Union[int, str]) -> np.ndarray:
    """Raw vacuum-coupling matrix V = sum of |m occupied><mp occupied| terms.

    Each configuration with only m occupied couples to the single partner
    with only mp occupied whose rest is identical (same-spin pair) or
    well-mirrored (different-spin pair). This is a perfect matching, so
    cos/sin built from it complete the shift into an isometry on the
    half-filled subspace.
    """
    i, j = _check_pair(m, mp)
    r0, r1 = _rest_modes(i, j)
    same_spin = _MODE_TWICE_SZ[i] == _MODE_TWICE_SZ[j]
    v = np.zeros((FULL_DIM, FULL_DIM), dtype=complex)
    for (a0, a1) in [(a, b) for a in (0, 1) for b in (0, 1)]:
        s10 = (a0 << r0) | (a1 << r1) | (1 << i)
        b0, b1 = (a0, a1) if same_spin else (a1, a0)
        s01 = (b0 << r0) | (b1 << r1) | (1 << j)
        v[s10, s01] = 1.0
    return _read_only(v)


def fermion_unitary_phase(m: Union[int, str],
                          mp: Union[int, str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unitary-completed cosine/sine and betaF = cos + i sin for a mode pair."""
    i, j = _check_pair(m, mp)
    beta = _fermion_pair_shift(i, j) + fermion_vacuum_coupling(i, j)
    return (*_cos_sin(beta), _read_only(beta))


def fermion_number_diff(m: Union[int, str], mp: Union[int, str]) -> np.ndarray:
    """Per-pair imbalance N_m - N_mp (diagonal)."""
    i, j = _check_pair(m, mp)
    return _read_only(_hermitian(fermion_number_op(i) - fermion_number_op(j)))


def well_number_diff() -> np.ndarray:
    """Well-level imbalance (N_l_up + N_l_down) - (N_r_up + N_r_down)."""
    diag = np.zeros(FULL_DIM)
    for s in range(FULL_DIM):
        for mode in range(N_MODES):
            if (s >> mode) & 1:
                diag[s] += 1.0 if _MODE_WELL[mode] == 0 else -1.0
    return _read_only(_hermitian(np.diag(diag).astype(complex)))


def half_filled_masks(m: Union[int, str], mp: Union[int, str]) -> tuple[int, ...]:
    """Masks where exactly one of the two pair modes is occupied."""
    i, j = _check_pair(m, mp)
    return tuple(s for s in range(FULL_DIM)
                 if ((s >> i) & 1) + ((s >> j) & 1) == 1)


def half_filled_projector(m: Union[int, str], mp: Union[int, str]) -> np.ndarray:
    p = np.zeros((FULL_DIM, FULL_DIM), dtype=complex)
    for s in half_filled_masks(m, mp):
        p[s, s] = 1.0
    return _read_only(p)


# ---------------------------------------------------------------------------
# diagnostics


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x, y = _operands(a, b)
    return x @ y - y @ x


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    x, y = _operands(a, b)
    return x @ y + y @ x


def unitarity_deficiency(op: np.ndarray,
                         subspace: Optional[np.ndarray] = None) -> tuple[float, float]:
    """Max-abs-entry residuals (‖P(AA†-I)P‖, ‖P(A†A-I)P‖), P = projector.

    Without a subspace, P is the identity; with one, P must match A's shape
    (ConfigError). Max-abs-entry norm keeps the numbers bit-reproducible at
    these dimensions.
    """
    if subspace is None:
        a, p = _finite(_as_array(op)), None
    else:
        a, p = _operands(op, subspace)
    eye = np.eye(a.shape[0], dtype=complex)
    left = a @ a.conj().T - eye
    right = a.conj().T @ a - eye
    if p is not None:
        left = p @ left @ p
        right = p @ right @ p
    return float(np.abs(left).max()), float(np.abs(right).max())
