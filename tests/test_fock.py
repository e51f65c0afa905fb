import numpy as np
import pytest

from phasekit import ConfigError, boson_basis, fock_state
from phasekit.fock import MODE_NAMES, mode_index, particle_count


def test_boson_basis_indexing():
    basis = boson_basis(3)
    assert basis.dimension == 4
    # index is the left-well occupation: the right well is n_left = 0
    assert fock_state(basis, "right-well").tolist() == [1, 0, 0, 0]
    assert fock_state(basis, "left-well").tolist() == [0, 0, 0, 1]
    assert boson_basis(np.int64(3)) == basis


def test_boson_basis_rejects_degenerate_sizes():
    with pytest.raises(ConfigError):
        boson_basis(0)
    with pytest.raises(ConfigError):
        boson_basis(-2)


@pytest.mark.parametrize("n", [2.7, 3.0, "3", True], ids=["float", "integral-float", "str", "bool"])
def test_boson_basis_rejects_a_particle_number_that_is_not_an_integer(n):
    # int() would floor 2.7 to 2 and read "3" as 3; a bool is an int
    with pytest.raises(ConfigError, match="particle number must be an integer"):
        boson_basis(n)


def test_mode_index_accepts_index_or_name():
    for index, name in enumerate(MODE_NAMES):
        assert mode_index(name) == index
        assert mode_index(index) == index
        assert mode_index(np.int64(index)) == index
    for other in ("sideways", "l-up", "lu", "L_UP", " l_up", 4, -1, 1.0, None):
        with pytest.raises(ConfigError):
            mode_index(other)


def test_mask_bookkeeping():
    # mask 9 = l_up + r_down: one particle in each well
    assert particle_count(9) == 2
    assert particle_count(0) == 0
    assert particle_count(15) == 4


def test_fock_state_boson_wells():
    basis = boson_basis(4)
    right = fock_state(basis, "right-well")
    assert right.dtype == complex
    assert right[0] == 1.0
    assert not right.flags.writeable
    assert fock_state(basis, "left-well")[4] == 1.0
    # only the two labels a config takes; 1.5 once read as index 1
    for label in (1.5, 1, (1, 3), (1, 2, 3), "Right-Well", ["right-well"]):
        with pytest.raises(ConfigError, match="unknown boson state label"):
            fock_state(basis, label)
    # fermion states are pair amplitudes, and a bare particle number is no basis
    with pytest.raises(ConfigError, match="unsupported space type: int"):
        fock_state(4, "right-well")
