from types import SimpleNamespace

import numpy as np
import pytest

from phasekit import (
    ConfigError,
    boson_basis,
    boson_cn_phase,
    boson_dimer_hamiltonian,
    boson_free_amplitudes,
    boson_number_diff,
    boson_unitary_phase,
    boson_vacuum_phase,
    fock_state,
)
from phasekit.fock import MODE_NAMES, mode_index, particle_count


def test_boson_basis_indexing():
    # the gate returns N as a plain int, a numpy integer too
    assert boson_basis(3) == 3
    assert type(boson_basis(np.int64(3))) is int
    # index is the left-well occupation: the right well is n_left = 0
    assert fock_state(3, "right-well").tolist() == [1, 0, 0, 0]
    assert fock_state(3, "left-well").tolist() == [0, 0, 0, 1]


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
    right = fock_state(4, "right-well")
    assert right.dtype == complex
    assert right[0] == 1.0
    assert not right.flags.writeable
    assert fock_state(4, "left-well")[4] == 1.0
    # only the two labels a config takes; 1.5 once read as index 1
    for label in (1.5, 1, (1, 3), (1, 2, 3), "Right-Well", ["right-well"]):
        with pytest.raises(ConfigError, match="unknown boson state label"):
            fock_state(4, label)
    # the particle number passes the boson_basis gate
    for n in (2.5, "4"):
        with pytest.raises(ConfigError, match="particle number must be an integer"):
            fock_state(n, "right-well")


_BOSON_BUILDERS = {
    "cn_phase": boson_cn_phase,
    "vacuum_phase": boson_vacuum_phase,
    "unitary_phase": boson_unitary_phase,
    "number_diff": boson_number_diff,
    "dimer_hamiltonian": lambda n: boson_dimer_hamiltonian(n, 0.5),
    "free_amplitudes": lambda n: boson_free_amplitudes(n, [0.0, 0.3]),
    "fock_state": lambda n: fock_state(n, "left-well"),
}


def _matrices(built):
    parts = built if isinstance(built, tuple) else (built,)
    return [getattr(part, "entries", part) for part in parts]


@pytest.mark.parametrize("build", list(_BOSON_BUILDERS.values()), ids=list(_BOSON_BUILDERS))
def test_every_boson_builder_takes_n_through_the_gate(build):
    # only an integer N >= 1 passes, not a basis-like object
    for n in (0, -2, 2.7, 3.0, "3", True, None, SimpleNamespace(dimension=1)):
        with pytest.raises(ConfigError):
            build(n)
    want, got = _matrices(build(3)), _matrices(build(np.int64(3)))
    assert len(want) == len(got)
    assert all(w.shape[-1] == 4 and np.array_equal(w, g) for w, g in zip(want, got))
