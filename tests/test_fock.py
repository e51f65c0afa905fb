import math
import warnings

import numpy as np
import pytest

from phasekit import ConfigError, StateVector, boson_basis, fermion_sector, fock_state
from phasekit.fock import FULL_DIM, MODE_NAMES, mode_index, particle_count


def test_boson_basis_indexing():
    basis = boson_basis(3)
    assert basis.dimension == 4
    # index is the left-well occupation
    assert fock_state(basis, (0, 3)).amplitudes[0] == 1.0
    assert fock_state(basis, (3, 0)).amplitudes[3] == 1.0


def test_boson_basis_rejects_degenerate_sizes():
    with pytest.raises(ConfigError):
        boson_basis(0)
    with pytest.raises(ConfigError):
        boson_basis(-2)


def test_mode_index_accepts_aliases():
    assert mode_index("l_up") == 0
    assert mode_index("l-up") == 0
    assert mode_index("r_down") == 3
    assert mode_index(2) == 2
    with pytest.raises(ConfigError):
        mode_index("sideways")
    with pytest.raises(ConfigError):
        mode_index(4)


def test_mask_bookkeeping():
    # mask 9 = l_up + r_down: one particle in each well
    assert particle_count(9) == 2
    assert particle_count(0) == 0
    assert particle_count(15) == 4


def test_full_sector_is_all_sixteen_masks():
    space = fermion_sector()
    assert space.states == tuple(range(FULL_DIM))
    assert space.dimension == FULL_DIM
    assert space.mode_order == MODE_NAMES


def test_state_vector_norm_gate():
    StateVector(None, np.array([1.0, 0.0]))
    with pytest.raises(ConfigError):
        StateVector(None, np.array([1.0, 0.5]))
    sv = StateVector.normalized(None, np.array([1.0, 1.0]))
    assert abs(np.linalg.norm(sv.amplitudes) - 1.0) < 1e-15


def test_normalized_scales_without_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for tiny_or_huge in (1e200, 1e-200):
            sv = StateVector.normalized(None, [tiny_or_huge, 0.0, 0.0])
            assert sv.amplitudes.tolist() == [1.0, 0.0, 0.0]
        for bad in ([0.0, 0.0], [math.inf, 0.0], [math.nan, 1.0]):
            with pytest.raises(ConfigError, match="cannot normalize"):
                StateVector.normalized(None, bad)


def test_fock_state_boson_wells():
    basis = boson_basis(4)
    right = fock_state(basis, "right-well")
    assert right.amplitudes[0] == 1.0
    left = fock_state(basis, "left-well")
    assert left.amplitudes[4] == 1.0
    pair = fock_state(basis, (1, 3))
    assert pair.amplitudes[1] == 1.0
    with pytest.raises(ConfigError):
        fock_state(fermion_sector(), 12)  # fermion states are pair amplitudes


@pytest.mark.parametrize("amps", [1.0, [[1.0, 0.0, 0.0]]], ids=["scalar", "nested"])
def test_state_vector_rejects_amplitudes_that_are_not_one_dimensional(amps):
    # checked before any length is taken: a scalar has none, and a nested
    # list would report the length of its outer list
    with pytest.raises(ConfigError, match=r"1-D sequence, got shape \("):
        StateVector(boson_basis(2), amps)
