"""Phase-difference, number-difference, and ladder operators.

Boson operators live on the fixed-N dimer basis (dimension N+1). The shift
operator that underlies the non-unitary cosine/sine pair moves one particle
from the left well to the right well with unit coefficient, so its matrix is
exactly the sub-shift with ones; the vacuum coupling adds the corner term that
links |N,0> with |0,N> and restores unitarity.

Fermion operators are built as dense 16x16 matrices on the full four-mode
Fock space from bitmask ladder matrices (sign = parity of occupied lower
modes), so composite signs are automatic.
The vacuum coupling for a mode pair matches each one-occupied configuration
with its partner: identical rest occupations when the pair's spins agree,
well-mirrored rest occupations (the two rest modes swap) when they differ.
That matching is what makes the combined operator an isometry on the
half-filled subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, NumericalError
from .fock import (
    FULL_DIM,
    N_MODES,
    BosonDimerBasis,
    FermionSector,
    _MODE_TWICE_SZ,
    _MODE_WELL,
    mode_index,
    particle_count,
)

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex square matrix with a label and a hermiticity flag."""

    entries: np.ndarray
    label: str = ""
    hermitian: bool = False

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=complex, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ConfigError(f"operator {self.label!r} is not square: {arr.shape}")
        if self.hermitian:  # the one hermiticity check, which propagation also uses
            if not np.isfinite(arr).all():  # before inf - inf can warn
                raise NumericalError(
                    f"operator {self.label!r} is not a finite matrix: it has non-finite entries"
                )
            dev = float(np.abs(arr - arr.conj().T).max())
            if not dev <= HERMITICITY_TOL:  # NaN fails too
                raise NumericalError(
                    f"operator {self.label!r} is not hermitian: it deviates by {dev:.3e}"
                )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)


def _as_array(op: Union[OperatorMatrix, np.ndarray]) -> np.ndarray:
    return op.entries if isinstance(op, OperatorMatrix) else np.asarray(op, dtype=complex)


def _cos_sin(x: np.ndarray, kind: str,
             where: str) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Hermitian and anti-hermitian halves of a shift X: cos + i sin = X.

    cos = (X + X^dag)/2 and sin = (X - X^dag)/2i, for bosons and fermions,
    raw (X the one-sided shift) and unitary (X closed by the vacuum term).
    """
    # X^dag is taken twice, not held across both builds: one N x N array
    # fewer at the peak of a large family's build
    return (OperatorMatrix(0.5 * (x + x.conj().T), label=f"cos_{kind}[{where}]", hermitian=True),
            OperatorMatrix(-0.5j * (x - x.conj().T), label=f"sin_{kind}[{where}]", hermitian=True))


# ---------------------------------------------------------------------------
# boson operators


def _boson_shift(basis: BosonDimerBasis) -> np.ndarray:
    """Matrix moving one particle left -> right: e_l -> e_{l-1}, unit entries."""
    return np.eye(basis.dimension, k=1, dtype=complex)


def _boson_corner(basis: BosonDimerBasis) -> np.ndarray:
    """|N,0><0,N|: index N is all-left, index 0 is all-right."""
    dim = basis.dimension
    k = np.zeros((dim, dim), dtype=complex)
    k[dim - 1, 0] = 1.0
    return k


def boson_cn_phase(basis: BosonDimerBasis) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Non-unitary cosine/sine pair built from the left->right shift."""
    return _cos_sin(_boson_shift(basis), "cn", f"N={basis.total_particles}")


def boson_vacuum_phase(basis: BosonDimerBasis) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Corner cosine/sine linking the two all-in-one-well states."""
    return _cos_sin(_boson_corner(basis), "vac", f"N={basis.total_particles}")


def boson_unitary_phase(basis: BosonDimerBasis) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """Unitary cosine/sine and the combined operator beta = cos + i sin.

    beta is the cyclic shift of the fixed-N ladder (the left->right shift plus
    the corner term), hence exactly unitary.
    """
    n = basis.total_particles
    beta = _boson_shift(basis) + _boson_corner(basis)
    return (*_cos_sin(beta, "u", f"N={n}"),
            OperatorMatrix(beta, label=f"beta[N={n}]", hermitian=False))


def boson_number_diff(basis: BosonDimerBasis) -> OperatorMatrix:
    """Population imbalance n_left - n_right = diag(2l - N)."""
    n = basis.total_particles
    diag = np.array([2 * l - n for l in range(basis.dimension)], dtype=float)
    return OperatorMatrix(np.diag(diag).astype(complex),
                          label=f"number_diff[N={n}]", hermitian=True)


# ---------------------------------------------------------------------------
# fermion operators


def _require_full_space(space: FermionSector) -> None:
    if space.dimension != FULL_DIM:
        raise ConfigError(
            "fermion operators are built on the full 16-dimensional space"
        )


def fermion_ladder(space: FermionSector, mode: Union[int, str]) -> OperatorMatrix:
    """Annihilation matrix of one mode with the canonical-ordering sign.

    Entry convention: acting on a mask with the mode occupied clears the bit
    and multiplies by (-1)^(number of occupied modes preceding it).
    """
    _require_full_space(space)
    m = mode_index(mode)
    a = np.zeros((FULL_DIM, FULL_DIM), dtype=complex)
    below = (1 << m) - 1
    for s in range(FULL_DIM):
        if (s >> m) & 1:
            sign = -1.0 if particle_count(s & below) % 2 else 1.0
            a[s ^ (1 << m), s] = sign
    return OperatorMatrix(a, label=f"annihilate[{space.mode_order[m]}]")


def fermion_number_op(space: FermionSector, mode: Union[int, str]) -> OperatorMatrix:
    _require_full_space(space)
    m = mode_index(mode)
    diag = np.array([(s >> m) & 1 for s in range(FULL_DIM)], dtype=float)
    return OperatorMatrix(np.diag(diag).astype(complex),
                          label=f"number[{space.mode_order[m]}]", hermitian=True)


def _fermion_pair_shift(space: FermionSector, m: int, mp: int) -> np.ndarray:
    """(N_m+1)^(-1/2) a_m a_mp^dag (N_mp+1)^(-1/2): moves one fermion m -> mp.

    Both scale factors act on a mode that is empty where the product is
    nonzero, so each is exactly 1 and the result is a_m a_mp^dag (entries
    exactly 0 or +-1).
    """
    a_m = fermion_ladder(space, m).entries
    a_mp = fermion_ladder(space, mp).entries
    return a_m @ a_mp.conj().T


def _check_pair(m: Union[int, str], mp: Union[int, str]) -> tuple[int, int]:
    i, j = mode_index(m), mode_index(mp)
    if i == j:
        raise ConfigError("mode pair must name two distinct modes")
    return i, j


def fermion_cn_phase(space: FermionSector, m: Union[int, str],
                     mp: Union[int, str]) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Non-unitary cosine/sine for a mode pair (no vacuum coupling)."""
    i, j = _check_pair(m, mp)
    u = _fermion_pair_shift(space, i, j)
    return _cos_sin(u, "cn", f"{space.mode_order[i]},{space.mode_order[j]}")


def _rest_modes(m: int, mp: int) -> tuple[int, int]:
    return tuple(k for k in range(N_MODES) if k not in (m, mp))  # type: ignore[return-value]


def fermion_vacuum_coupling(space: FermionSector, m: Union[int, str],
                            mp: Union[int, str]) -> np.ndarray:
    """Raw vacuum-coupling matrix V = sum of |m occupied><mp occupied| terms.

    Each configuration with only m occupied couples to the single partner
    with only mp occupied whose rest is identical (same-spin pair) or
    well-mirrored (different-spin pair). This is a perfect matching, so
    cos/sin built from it complete the shift into an isometry on the
    half-filled subspace.
    """
    i, j = _check_pair(m, mp)
    _require_full_space(space)
    r0, r1 = _rest_modes(i, j)
    same_spin = _MODE_TWICE_SZ[i] == _MODE_TWICE_SZ[j]
    v = np.zeros((FULL_DIM, FULL_DIM), dtype=complex)
    for (a0, a1) in [(a, b) for a in (0, 1) for b in (0, 1)]:
        s10 = (a0 << r0) | (a1 << r1) | (1 << i)
        b0, b1 = (a0, a1) if same_spin else (a1, a0)
        s01 = (b0 << r0) | (b1 << r1) | (1 << j)
        v[s10, s01] = 1.0
    return v


def fermion_unitary_phase(space: FermionSector, m: Union[int, str],
                          mp: Union[int, str]) -> tuple[OperatorMatrix, OperatorMatrix, OperatorMatrix]:
    """Unitary-completed cosine/sine and betaF = cos + i sin for a mode pair."""
    i, j = _check_pair(m, mp)
    beta = _fermion_pair_shift(space, i, j) + fermion_vacuum_coupling(space, i, j)
    names = f"{space.mode_order[i]},{space.mode_order[j]}"
    return (*_cos_sin(beta, "u", names),
            OperatorMatrix(beta, label=f"betaF[{names}]", hermitian=False))


def fermion_number_diff(space: FermionSector, m: Union[int, str],
                        mp: Union[int, str]) -> OperatorMatrix:
    """Per-pair imbalance N_m - N_mp (diagonal)."""
    i, j = _check_pair(m, mp)
    n_m = fermion_number_op(space, i).entries
    n_mp = fermion_number_op(space, j).entries
    names = f"{space.mode_order[i]},{space.mode_order[j]}"
    return OperatorMatrix(n_m - n_mp, label=f"number_diff[{names}]", hermitian=True)


def well_number_diff(space: FermionSector) -> OperatorMatrix:
    """Well-level imbalance (N_l_up + N_l_down) - (N_r_up + N_r_down)."""
    _require_full_space(space)
    diag = np.zeros(FULL_DIM)
    for s in range(FULL_DIM):
        for mode in range(N_MODES):
            if (s >> mode) & 1:
                diag[s] += 1.0 if _MODE_WELL[mode] == 0 else -1.0
    return OperatorMatrix(np.diag(diag).astype(complex),
                          label="well_number_diff", hermitian=True)


def half_filled_masks(m: Union[int, str], mp: Union[int, str]) -> tuple[int, ...]:
    """Masks where exactly one of the two pair modes is occupied."""
    i, j = _check_pair(m, mp)
    return tuple(s for s in range(FULL_DIM)
                 if ((s >> i) & 1) + ((s >> j) & 1) == 1)


def half_filled_projector(space: FermionSector, m: Union[int, str],
                          mp: Union[int, str]) -> np.ndarray:
    _require_full_space(space)
    p = np.zeros((FULL_DIM, FULL_DIM), dtype=complex)
    for s in half_filled_masks(m, mp):
        p[s, s] = 1.0
    return p


# ---------------------------------------------------------------------------
# diagnostics


def commutator(a: Union[OperatorMatrix, np.ndarray],
               b: Union[OperatorMatrix, np.ndarray]) -> np.ndarray:
    x, y = _as_array(a), _as_array(b)
    if x.shape != y.shape:
        raise ConfigError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return x @ y - y @ x


def anticommutator(a: Union[OperatorMatrix, np.ndarray],
                   b: Union[OperatorMatrix, np.ndarray]) -> np.ndarray:
    x, y = _as_array(a), _as_array(b)
    if x.shape != y.shape:
        raise ConfigError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return x @ y + y @ x


def unitarity_deficiency(op: Union[OperatorMatrix, np.ndarray],
                         subspace: Optional[np.ndarray] = None) -> tuple[float, float]:
    """Max-abs-entry residuals (‖P(AA†-I)P‖, ‖P(A†A-I)P‖), P = projector.

    Without a subspace, P is the identity. Max-abs-entry norm keeps the
    numbers bit-reproducible at these dimensions.
    """
    a = _as_array(op)
    eye = np.eye(a.shape[0], dtype=complex)
    left = a @ a.conj().T - eye
    right = a.conj().T @ a - eye
    if subspace is not None:
        p = _as_array(subspace)
        left = p @ left @ p
        right = p @ right @ p
    return float(np.max(np.abs(left))), float(np.max(np.abs(right)))
