import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekit import (
    ConfigError,
    boson_dimer_hamiltonian,
    fermion_pair_embedding,
    fermion_pair_hamiltonian,
)


def _oracle_boson_hamiltonian(n, ubar):
    """Two-mode construction restricted to the fixed-N subspace."""
    dim = n + 1
    a = np.diag(np.sqrt(np.arange(1.0, dim)), k=1)
    eye = np.eye(dim)
    a_l, a_r = np.kron(a, eye), np.kron(eye, a)
    n_l = a_l.conj().T @ a_l
    n_r = a_r.conj().T @ a_r
    h = -(a_l.conj().T @ a_r + a_r.conj().T @ a_l) \
        + 0.5 * ubar * (n_l @ (n_l - np.eye(dim * dim))
                        + n_r @ (n_r - np.eye(dim * dim)))
    q = np.zeros((dim * dim, dim), dtype=complex)
    for left in range(dim):
        q[left * dim + (n - left), left] = 1.0
    return q.conj().T @ h @ q


@given(st.integers(min_value=1, max_value=9),
       st.sampled_from([0.0, 0.05, 0.5, 5.0]))
@settings(max_examples=20, deadline=None)
def test_boson_hamiltonian_matches_two_mode_oracle(n, ubar):
    h = boson_dimer_hamiltonian(n, ubar)
    assert np.max(np.abs(h - _oracle_boson_hamiltonian(n, ubar))) < 1e-12


def test_boson_hamiltonian_entries():
    h = boson_dimer_hamiltonian(2, 5.0)
    expected = np.array([[5.0, -math.sqrt(2.0), 0.0],
                         [-math.sqrt(2.0), 0.0, -math.sqrt(2.0)],
                         [0.0, -math.sqrt(2.0), 5.0]], dtype=complex)
    assert np.allclose(h, expected, atol=1e-15)


def test_boson_hamiltonian_mirror_symmetry():
    for n in (1, 3, 6):
        h = boson_dimer_hamiltonian(n, 0.7)
        assert np.array_equal(h, h[::-1, ::-1])


@pytest.mark.parametrize("ubar", [np.float32(0.1), np.float16(0.3)], ids=["float32", "float16"])
def test_boson_hamiltonian_takes_ubar_at_its_float_value(ubar):
    # 0.5 * ubar * (l^2 + (N-l)^2 - N) rounded in float32 for a float32 ubar
    got = boson_dimer_hamiltonian(3, ubar)
    assert got.tobytes() == boson_dimer_hamiltonian(3, float(ubar)).tobytes()


def test_fermion_hamiltonian_entries():
    root2 = math.sqrt(2.0)
    expected = np.array([[2.5, -root2, -root2],
                         [-root2, 0.0, 0.0],
                         [-root2, 0.0, 0.0]], dtype=complex)
    assert np.array_equal(fermion_pair_hamiltonian(5.0), expected)


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_fermion_hamiltonian_interaction_placement(ubar):
    # the interaction sits on the single-occupancy amplitude only, exactly
    placed = fermion_pair_hamiltonian(ubar) - fermion_pair_hamiltonian(0.0)
    assert np.array_equal(placed, np.diag([ubar / 2.0, 0.0, 0.0]))


@pytest.mark.parametrize("ubar", [math.nan, math.inf, -math.inf])
def test_fermion_hamiltonian_refuses_a_non_finite_interaction(ubar):
    with pytest.raises(ConfigError):
        fermion_pair_hamiltonian(ubar)


def test_fermion_sym_sector_eigenvalues():
    # the antisymmetric double-occupancy combination decouples at eigenvalue 0;
    # the rest is a 2x2 block with eigenvalues ubar/4 +- sqrt(4 + (ubar/4)^2)
    ubar = 5.0
    h = fermion_pair_hamiltonian(ubar)
    vals = np.sort(np.linalg.eigvalsh(h))
    quarter = ubar / 4.0
    omega = math.sqrt(4.0 + quarter * quarter)
    expected = np.sort([0.0, quarter - omega, quarter + omega])
    assert np.max(np.abs(vals - expected)) < 1e-12


def test_embedding_is_isometric_and_places_amplitudes():
    q = fermion_pair_embedding()
    assert q.shape == (16, 3)
    assert np.allclose(q.conj().T @ q, np.eye(3), atol=1e-15)
    # symmetric single-occupancy column spreads over masks 9 and 6
    sym = q[:, 0]
    assert sym[9] == pytest.approx(1.0 / math.sqrt(2.0))
    assert sym[6] == pytest.approx(1.0 / math.sqrt(2.0))
    assert q[3, 1] == 1.0   # both-left
    assert q[12, 2] == 1.0  # both-right


@pytest.mark.parametrize("build", [
    lambda ubar: boson_dimer_hamiltonian(2, ubar),
    fermion_pair_hamiltonian,
], ids=["boson", "fermion"])
@pytest.mark.parametrize("ubar", ["5", None, 1 + 0j, True, 10**400, math.nan],
                         ids=["str", "None", "complex", "bool", "huge-int", "nan"])
def test_hamiltonians_refuse_what_a_config_refuses(build, ubar):
    with pytest.raises(ConfigError, match="ubar must be"):
        build(ubar)
