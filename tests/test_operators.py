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
    boson_basis,
    boson_cn_phase,
    boson_number_diff,
    boson_unitary_phase,
    boson_vacuum_phase,
    fermion_cn_phase,
    fermion_ladder,
    fermion_number_op,
    fermion_sector,
    fermion_unitary_phase,
    fermion_vacuum_coupling,
    unitarity_deficiency,
    well_number_diff,
)
from phasekit.fock import FULL_DIM, MODE_NAMES
from phasekit.operators import OperatorMatrix
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
    cos, sin = boson_cn_phase(boson_basis(n))
    shift = cos.entries + 1j * sin.entries  # cos + i sin reassembles the shift
    assert np.max(np.abs(shift - _oracle_boson_shift(n))) < 1e-14


def test_boson_shift_entries_are_exact_ones():
    cos, sin = boson_cn_phase(boson_basis(6))
    shift = cos.entries + 1j * sin.entries
    expected = np.zeros((7, 7), dtype=complex)
    for left in range(1, 7):
        expected[left - 1, left] = 1.0
    assert np.array_equal(shift, expected)


@pytest.mark.parametrize("mode", range(4))
def test_fermion_ladder_matches_jw_oracle(mode):
    a = fermion_ladder(fermion_sector(), mode).entries
    assert np.array_equal(a, _oracle_jw_ladder(mode))


def test_fermion_number_operator_is_diagonal_occupancy():
    space = fermion_sector()
    for mode in range(4):
        n_op = fermion_number_op(space, mode).entries
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
    cos, sin = boson_cn_phase(boson_basis(4))
    shift = cos.entries + 1j * sin.entries
    left, right = unitarity_deficiency(shift)
    assert left == pytest.approx(1.0)
    assert right == pytest.approx(1.0)


def test_completed_beta_is_the_cyclic_shift():
    n = 5
    cos_u, sin_u, beta = boson_unitary_phase(boson_basis(n))
    expected = np.zeros((n + 1, n + 1), dtype=complex)
    for left in range(1, n + 1):
        expected[left - 1, left] = 1.0
    expected[n, 0] = 1.0  # corner completion wraps the ladder around
    assert np.array_equal(beta.entries, expected)


def test_single_particle_special_case():
    basis = boson_basis(1)
    cos0, sin0 = boson_vacuum_phase(basis)
    assert sin0.entries[1, 0] == -0.5j
    assert sin0.entries[0, 1] == 0.5j
    cos_u, sin_u, beta = boson_unitary_phase(basis)
    assert np.array_equal(sin_u.entries, np.zeros((2, 2)))
    assert np.array_equal(beta.entries, cos_u.entries)
    assert np.array_equal(cos_u.entries @ cos_u.entries, np.eye(2))


@given(st.integers(min_value=1, max_value=10))
@settings(max_examples=10, deadline=None)
def test_number_phase_commutator_identities(n):
    w = boson_number_diff(boson_basis(n))
    assert number_phase_commutator_residual(boson_family(n), w) <= 1e-12


def test_number_diff_diagonal():
    w = boson_number_diff(boson_basis(3)).entries
    assert np.array_equal(np.diag(w).real, np.array([-3.0, -1.0, 1.0, 3.0]))


# ---------------------------------------------------------------------------
# fermion algebra


def test_anticommutators_exact():
    assert anticommutator_residual() == 0.0


def test_pair_shift_signs():
    # same-spin pair (l_up, r_up): the shift inherits Jordan-Wigner signs
    space = fermion_sector()
    cos, sin = fermion_cn_phase(space, "l_up", "r_up")
    shift = cos.entries + 1j * sin.entries
    # |ud,0> (mask 3) -> +|d,u> (mask 6)
    assert shift[6, 3] == 1.0
    # |u,d> (mask 9) -> -|0,ud> (mask 12)
    assert shift[12, 9] == -1.0


def test_pair_shift_entries_are_integers():
    # every (N+1)^{-1/2} factor evaluates to exactly 1 on surviving entries
    space = fermion_sector()
    for m, mp in (("l_up", "r_up"), ("l_up", "r_down"), ("l_down", "r_down")):
        cos, sin = fermion_cn_phase(space, m, mp)
        shift = cos.entries + 1j * sin.entries
        assert np.all(np.isin(shift.real, (-1.0, 0.0, 1.0)))
        assert np.array_equal(shift.imag, np.zeros_like(shift.imag))


def test_matched_coupling_cross_spin_sector_example():
    # on the two-particle, net-spin-zero masks {3, 6, 9, 12} the completed
    # cosine couples only the two doubly-occupied wells, with weight 1/2
    space = fermion_sector()
    cos_u = fermion_unitary_phase(space, "l_up", "r_down")[0].entries
    sector = (3, 6, 9, 12)
    for i in sector:
        for j in sector:
            expected = 0.5 if {i, j} == {3, 12} else 0.0
            assert cos_u[i, j] == expected, (i, j)


def test_same_spin_coupling_keeps_rest_configuration():
    space = fermion_sector()
    v = fermion_vacuum_coupling(space, "l_up", "r_up")
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
    w = well_number_diff(fermion_sector()).entries
    assert w[0, 0] == 0.0
    assert w[3, 3] == 2.0    # both particles in the left well
    assert w[12, 12] == -2.0
    assert w[9, 9] == 0.0


def test_pair_requires_distinct_modes():
    space = fermion_sector()
    with pytest.raises(ConfigError):
        fermion_cn_phase(space, "l_up", "l_up")


def test_operator_matrix_validates_hermiticity_flag():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(Exception):
        OperatorMatrix(bad, label="bad", hermitian=True)
    # a nan deviation must not pass, and inf - inf must not warn first
    for value in (np.nan, np.inf):
        with pytest.raises(NumericalError, match="non-finite"):
            OperatorMatrix(np.diag([value, 0.0]), label="bad", hermitian=True)


def test_hermiticity_all_pairs():
    for i, m in enumerate(MODE_NAMES):
        for mp in MODE_NAMES[i + 1:]:
            assert fermion_hermiticity_residual(pair_family(m, mp)) <= 1e-12
