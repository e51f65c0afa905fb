"""Operator construction checked against independent oracles.

The boson shift is rebuilt from truncated two-mode ladder operators on the
product space, the fermion ladders from an explicit Jordan-Wigner kron chain;
both must agree entrywise with the bitmask/index constructions the package
actually uses.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekit import (
    ConfigError,
    NumericalError,
    boson_cn_phase,
    boson_number_diff,
    boson_unitary_phase,
    boson_dimer_hamiltonian,
    boson_vacuum_phase,
    eigen_propagate,
    fermion_cn_phase,
    fermion_ladder,
    fermion_number_diff,
    fermion_number_op,
    fermion_pair_embedding,
    fermion_pair_hamiltonian,
    fermion_unitary_phase,
    fermion_vacuum_coupling,
    half_filled_projector,
    rk4_propagate,
    unitarity_deficiency,
    well_number_diff,
)
from phasekit.fock import FULL_DIM, MODE_NAMES, particle_count
from phasekit.operators import _fermion_pair_shift
from phasekit.verify import (
    anticommutator_residual,
    betaf_isometry_residual,
    boson_family,
    boson_unitarity_residual,
    corner_defect_residual,
    double_sum_residual,
    fermion_hermiticity_residual,
    fermion_jacobi_residual,
    number_phase_commutator_residual,
    pair_family,
)


# ---------------------------------------------------------------------------
# independent oracles


def _single_mode_ladder(dim):
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def _fixed_n_isometry(n):
    # columns = |l>_L |n-l>_R inside the (n+1)^2 product space
    dim = n + 1
    q = np.zeros((dim * dim, dim), dtype=complex)
    for left in range(dim):
        q[left * dim + (n - left), left] = 1.0
    return q


def _oracle_boson_shift(n):
    """(N_L+1)^{-1/2} a_L a_R^dag (N_R+1)^{-1/2} restricted to fixed N."""
    dim = n + 1
    a = _single_mode_ladder(dim)
    eye = np.eye(dim)
    a_l = np.kron(a, eye)
    a_r = np.kron(eye, a)
    d = np.diag(1.0 / np.sqrt(np.arange(dim) + 1.0))
    d_l = np.kron(d, eye)
    d_r = np.kron(eye, d)
    x = d_l @ a_l @ a_r.conj().T @ d_r
    q = _fixed_n_isometry(n)
    return q.conj().T @ x @ q


def _oracle_jw_ladder(mode):
    """Jordan-Wigner chain; highest mode index is the leftmost kron factor."""
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])  # |1> -> |0>
    phase = np.diag([1.0, -1.0])
    eye = np.eye(2)
    out = np.array([[1.0]])
    for k in range(3, -1, -1):
        if k > mode:
            factor = eye
        elif k == mode:
            factor = lower
        else:
            factor = phase
        out = np.kron(out, factor)
    return out.astype(complex)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_boson_shift_matches_two_mode_oracle(n):
    cos, sin = boson_cn_phase(n)
    shift = cos + 1j * sin  # cos + i sin reassembles the shift
    assert np.max(np.abs(shift - _oracle_boson_shift(n))) < 1e-14


def test_boson_shift_entries_are_exact_ones():
    cos, sin = boson_cn_phase(6)
    shift = cos + 1j * sin
    expected = np.zeros((7, 7), dtype=complex)
    for left in range(1, 7):
        expected[left - 1, left] = 1.0
    assert np.array_equal(shift, expected)


@pytest.mark.parametrize("mode", range(4))
def test_fermion_ladder_matches_jw_oracle(mode):
    a = fermion_ladder(mode)
    assert np.array_equal(a, _oracle_jw_ladder(mode))


def test_fermion_number_operator_is_diagonal_occupancy():
    for mode in range(4):
        n_op = fermion_number_op(mode)
        expected = np.diag([(s >> mode) & 1 for s in range(FULL_DIM)]).astype(complex)
        assert np.array_equal(n_op, expected)


# ---------------------------------------------------------------------------
# boson algebra


@given(st.integers(min_value=1, max_value=12))
@settings(max_examples=12, deadline=None)
def test_completed_boson_operator_is_unitary(n):
    assert boson_unitarity_residual(boson_family(n)) <= 1e-12


@given(st.integers(min_value=1, max_value=12))
@settings(max_examples=12, deadline=None)
def test_raw_boson_operator_corner_defect_is_exact(n):
    assert corner_defect_residual(boson_family(n)) <= 1e-15


def test_raw_boson_operator_full_space_residual_is_one():
    cos, sin = boson_cn_phase(4)
    shift = cos + 1j * sin
    left, right = unitarity_deficiency(shift)
    assert left == pytest.approx(1.0)
    assert right == pytest.approx(1.0)


def test_completed_beta_is_the_cyclic_shift():
    n = 5
    cos_u, sin_u, beta = boson_unitary_phase(n)
    expected = np.zeros((n + 1, n + 1), dtype=complex)
    for left in range(1, n + 1):
        expected[left - 1, left] = 1.0
    expected[n, 0] = 1.0  # corner completion wraps the ladder around
    assert np.array_equal(beta, expected)


def test_single_particle_special_case():
    cos0, sin0 = boson_vacuum_phase(1)
    assert sin0[1, 0] == -0.5j
    assert sin0[0, 1] == 0.5j
    cos_u, sin_u, beta = boson_unitary_phase(1)
    assert np.array_equal(sin_u, np.zeros((2, 2)))
    assert np.array_equal(beta, cos_u)
    assert np.array_equal(cos_u @ cos_u, np.eye(2))


@given(st.integers(min_value=1, max_value=10))
@settings(max_examples=10, deadline=None)
def test_number_phase_commutator_identities(n):
    w = boson_number_diff(n)
    assert number_phase_commutator_residual(boson_family(n), w) <= 1e-12


def test_number_diff_diagonal():
    w = boson_number_diff(3)
    assert np.array_equal(np.diag(w).real, np.array([-3.0, -1.0, 1.0, 3.0]))


# ---------------------------------------------------------------------------
# fermion algebra


def test_anticommutators_exact():
    assert anticommutator_residual() == 0.0


def test_pair_shift_signs():
    # same-spin pair (l_up, r_up): the shift inherits Jordan-Wigner signs
    cos, sin = fermion_cn_phase("l_up", "r_up")
    shift = cos + 1j * sin
    # |ud,0> (mask 3) -> +|d,u> (mask 6)
    assert shift[6, 3] == 1.0
    # |u,d> (mask 9) -> -|0,ud> (mask 12)
    assert shift[12, 9] == -1.0


def test_pair_shift_entries_are_integers():
    # every (N+1)^{-1/2} factor evaluates to exactly 1 on surviving entries
    for m, mp in (("l_up", "r_up"), ("l_up", "r_down"), ("l_down", "r_down")):
        cos, sin = fermion_cn_phase(m, mp)
        shift = cos + 1j * sin
        assert np.all(np.isin(shift.real, (-1.0, 0.0, 1.0)))
        assert np.array_equal(shift.imag, np.zeros_like(shift.imag))


def test_matched_coupling_cross_spin_sector_example():
    # on the two-particle, net-spin-zero masks {3, 6, 9, 12} the completed
    # cosine couples only the two doubly-occupied wells, with weight 1/2
    cos_u = fermion_unitary_phase("l_up", "r_down")[0]
    sector = (3, 6, 9, 12)
    for i in sector:
        for j in sector:
            expected = 0.5 if {i, j} == {3, 12} else 0.0
            assert cos_u[i, j] == expected, (i, j)


def test_same_spin_coupling_keeps_rest_configuration():
    v = fermion_vacuum_coupling("l_up", "r_up")
    # rest modes are l_down (bit 1) and r_down (bit 3); the 4 rest configs
    # couple one-to-one with the rest bits untouched
    assert np.count_nonzero(v) == 4
    rest_bits = 0b1010
    for row, col in np.argwhere(v == 1.0):
        assert int(row) & rest_bits == int(col) & rest_bits
    # explicit: |u,0> with empty rest couples to |0,u>
    assert v[1, 4] == 1.0
    # rest l_down occupied: |ud,0> couples to |d,u>
    assert v[3, 6] == 1.0


# the fermionic l <-> r mirror M: M a_k† M† = a_mirror(k)† and M|vac> = |vac>
_MIRROR_MODE = (2, 3, 0, 1)  # l_up <-> r_up, l_down <-> r_down
_PAIRS = {"l-up/r-up": (0, 2), "l-up/r-down": (0, 3)}


def _mirror(a):
    """M a M†. Column s of M is the product of the mirrored creation
    operators on the vacuum, in mode order, so it carries their reordering
    sign."""
    create = [fermion_ladder(k).conj().T for k in range(4)]
    m = np.zeros((FULL_DIM, FULL_DIM), dtype=complex)
    for s in range(FULL_DIM):
        m[0, s] = 1.0
        for k in reversed(range(4)):  # the highest mode acts on the vacuum first
            if (s >> k) & 1:
                m[:, s] = create[_MIRROR_MODE[k]] @ m[:, s]
    assert all(np.array_equal(m @ create[k] @ m.conj().T, create[_MIRROR_MODE[k]])
               for k in range(4))
    return m @ a @ m.conj().T


def _signed_coupling(i, j):
    """V' = V with each entry times (-1)^(occupied modes strictly between the
    pair, on the column state): the shift's sign string."""
    between = sum(1 << k for k in range(min(i, j) + 1, max(i, j)))
    signs = [(-1.0) ** particle_count(s & between) for s in range(FULL_DIM)]
    return fermion_vacuum_coupling(i, j) * np.array(signs)


@pytest.mark.parametrize("pair", list(_PAIRS))
def test_mirror_maps_the_pair_shift_to_the_mirrored_pair(pair):
    i, j = _PAIRS[pair]
    assert np.array_equal(_mirror(_fermion_pair_shift(i, j)),
                          _fermion_pair_shift(_MIRROR_MODE[i], _MIRROR_MODE[j]))


def test_vacuum_coupling_mirror_covariance_depends_on_the_pair():
    # ROADMAP item 11: covariant for l-up/r-down; for l-up/r-up, with l_down
    # between the pair, wrong in sign at two entries
    for pair, broken in (("l-up/r-down", []), ("l-up/r-up", [[6, 3], [12, 9]])):
        i, j = _PAIRS[pair]
        miss = (_mirror(fermion_vacuum_coupling(i, j))
                - fermion_vacuum_coupling(_MIRROR_MODE[i], _MIRROR_MODE[j]))
        assert np.argwhere(miss).tolist() == broken, pair
        assert np.max(np.abs(miss)) == (2.0 if broken else 0.0)


def test_signed_coupling_is_mirror_covariant_for_l_up_r_up():
    # the alternative convention V' (not the package's): covariant, and
    # shift + V' stays an isometry on the half-filled subspace
    i, j = _PAIRS["l-up/r-up"]
    assert np.array_equal(_mirror(_signed_coupling(i, j)),
                          _signed_coupling(_MIRROR_MODE[i], _MIRROR_MODE[j]))
    beta = _fermion_pair_shift(i, j) + _signed_coupling(i, j)
    assert unitarity_deficiency(beta, half_filled_projector(i, j)) == (0.0, 0.0)


def test_double_sum_variant_breaks_isometry():
    assert double_sum_residual() >= 0.5


@pytest.mark.parametrize("pair", [("l_up", "r_up"), ("l_up", "r_down")])
def test_completed_fermion_operator_is_half_filled_isometry(pair):
    assert betaf_isometry_residual(pair_family(*pair)) <= 1e-12


@pytest.mark.parametrize("pair", [("l_up", "r_up"), ("l_up", "r_down"),
                                  ("l_down", "r_down")])
def test_fermion_jacobi_identity(pair):
    assert fermion_jacobi_residual(pair_family(*pair)) <= 1e-12


def test_well_number_diff_counts_both_spins():
    w = well_number_diff()
    assert w[0, 0] == 0.0
    assert w[3, 3] == 2.0    # both particles in the left well
    assert w[12, 12] == -2.0
    assert w[9, 9] == 0.0


def test_pair_requires_distinct_modes():
    with pytest.raises(ConfigError):
        fermion_cn_phase("l_up", "l_up")


def test_propagation_gate_refuses_a_bad_matrix_and_leaves_it_alone():
    # the one hermiticity gate, reached through both propagators on a
    # caller's writable array: a NaN deviation must not pass, and inf - inf
    # must not warn first
    for bad, match in ((np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), "not hermitian"),
                       (np.diag([np.nan, 0.0]).astype(complex), "non-finite"),
                       (np.diag([np.inf, 0.0]).astype(complex), "non-finite")):
        before = bad.copy()
        for propagate in (eigen_propagate, rk4_propagate):
            with pytest.raises(NumericalError, match=match):
                propagate(bad, [1.0, 0.0], [0.0, 1.0])
            assert bad.flags.writeable
            assert np.array_equal(bad, before, equal_nan=True)


# every public builder of a matrix, by name
_BUILT_MATRICES = {
    "boson-cn-phase": lambda: boson_cn_phase(3),
    "boson-vacuum-phase": lambda: boson_vacuum_phase(3),
    "boson-unitary-phase": lambda: boson_unitary_phase(3),
    "fermion-cn-phase": lambda: fermion_cn_phase("l_up", "r_down"),
    "fermion-unitary-phase": lambda: fermion_unitary_phase("l_up", "r_up"),
    "boson-dimer-hamiltonian": lambda: (boson_dimer_hamiltonian(3, 5.0),),
    "fermion-pair-hamiltonian": lambda: (fermion_pair_hamiltonian(5.0),),
    "fermion-ladder": lambda: (fermion_ladder("r_up"),),
    "boson-number-diff": lambda: (boson_number_diff(3),),
    "fermion-number-op": lambda: (fermion_number_op("l_down"),),
    "fermion-number-diff": lambda: (fermion_number_diff("l_up", "r_up"),),
    "well-number-diff": lambda: (well_number_diff(),),
    "fermion-vacuum-coupling": lambda: (fermion_vacuum_coupling("l_up", "r_up"),),
    "half-filled-projector": lambda: (half_filled_projector("l_up", "r_up"),),
    "fermion-pair-embedding": lambda: (fermion_pair_embedding(),),
}


@pytest.mark.parametrize("build", _BUILT_MATRICES.values(), ids=_BUILT_MATRICES.keys())
def test_every_builder_returns_a_read_only_complex_matrix(build):
    for matrix in build():
        assert type(matrix) is np.ndarray
        assert matrix.dtype == complex
        # the embedding is the one 16x3 isometry; every operator is square
        if build is not _BUILT_MATRICES["fermion-pair-embedding"]:
            assert matrix.ndim == 2 and matrix.shape[0] == matrix.shape[1]
        with pytest.raises(ValueError, match="read-only"):
            matrix[0, 0] = 1.0


def test_hermiticity_all_pairs():
    for i, m in enumerate(MODE_NAMES):
        for mp in MODE_NAMES[i + 1:]:
            assert fermion_hermiticity_residual(pair_family(m, mp)) <= 1e-12
