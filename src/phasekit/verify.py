"""Self-check battery: operator algebra, dynamics, and dataset plumbing.

Each named check measures a residual against its contract tolerance. The
operator and dynamics laws that tests also assert are public per-case
residual functions (``corner_defect_residual(n)``, ...); their check is the
worst residual over its case list, and the tests call them on their own cases.

Called on its own, a per-case function builds the operators and trajectory
of its one case. ``run_verification`` instead builds each of them once per
run and feeds every check that reads it:

* one boson sweep over N: each N's family (CN, vacuum and unitary
  cosine/sine, beta, and W where the commutators are checked) serves the
  five boson operator checks and is dropped before the next N, so one large
  family is alive at a time;
* one family per fermion mode pair, for hermiticity, Jacobi and isometry;
* one trajectory per (Hamiltonian, start, grid): a propagation that two
  checks read is held only until the second takes it.

Nothing is kept between runs.

The ``tol`` argument feeds the operator-algebra checks (hermiticity,
unitarity, commutators, isometry); checks tied to analytic laws or solver
guarantees carry their own fixed tolerances, and a few are exact (tol 0).

Two checks deserve a note:

* ``double-sum-counterexample`` passes when its residual is LARGE (>= 0.5):
  it demonstrates that coupling all equal-count rest configurations, instead
  of matching them one-to-one, breaks the half-filled isometry.
* ``squeezing-closed-form`` fails for ubar != 0: the printed closed form's
  beat term disagrees with the trajectory-derived second moment (already
  visible at tau=0, where the trajectory value is exactly 2). The check is
  kept honest rather than loosened; see the README.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .evolve import (
    Trajectory,
    boson_pair_closed_form,
    eigen_propagate,
    fermion_pair_closed_form,
)
from .fock import FULL_DIM, MODE_NAMES, boson_basis, fermion_sector, fock_state
from .hamiltonians import (
    FERMION_VARIANTS,
    boson_dimer_hamiltonian,
    fermion_pair_hamiltonian,
)
from .observe import expectation_series, xi_fermion, xi_fermion_closed_form
from .operators import (
    OperatorMatrix,
    anticommutator,
    boson_cn_phase,
    boson_number_diff,
    boson_unitary_phase,
    boson_vacuum_phase,
    commutator,
    fermion_cn_phase,
    fermion_ladder,
    fermion_number_diff,
    fermion_unitary_phase,
    half_filled_masks,
    half_filled_projector,
    unitarity_deficiency,
)
from .scenario import ScenarioConfig, parse_config, serialize_config

SECTION_PAIRS = (("l_up", "r_up"), ("l_up", "r_down"), ("l_down", "r_down"))
ISOMETRY_PAIRS = (("l_up", "r_up"), ("l_up", "r_down"))
UBAR_SET = (0.0, 0.05, 5.0)

LAW_TOL = 1e-9
ENERGY_TOL = 1e-10
NORM_TOL = 1e-12
CORNER_TOL = 1e-15
# The boson sweeps grow steeply with n_max: on 2 cores with one BLAS thread
# n_max = 100 takes ~0.2 s and 400 ~20 s. The CLI default, 12, is the largest
# any test or the benchmark uses.
N_MAX_LIMIT = 100
# the commutator and Jacobi checks sweep N = 1..min(n_max, 10)
COMMUTATOR_N_MAX = 10


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tol: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"{status}  {self.name}: residual {self.residual:.3e} (tol {self.tol:g})"
        if self.detail:
            text += f" — {self.detail}"
        return text


@dataclass(frozen=True)
class VerificationReport:
    n_max: int
    tol: float
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        out = [r.line() for r in self.results]
        failed = sum(not r.passed for r in self.results)
        out.append(
            f"{len(self.results) - failed}/{len(self.results)} checks passed"
            + (f", {failed} failed" if failed else "")
        )
        return out


def _maxabs(arr: np.ndarray) -> float:
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def _herm_residual(op) -> float:
    a = op.entries
    return _maxabs(a - a.conj().T)


# ---------------------------------------------------------------------------
# operator algebra: one residual per case, one check per case list. A run
# builds each family once and computes every residual of its cases from it;
# a public per-case function builds the family of its own case.


class _BosonFamily(NamedTuple):
    """The raw (CN), vacuum and unitary cosine/sine and beta at N=n."""

    n: int
    cos_cn: OperatorMatrix
    sin_cn: OperatorMatrix
    cos0: OperatorMatrix
    sin0: OperatorMatrix
    cos_u: OperatorMatrix
    sin_u: OperatorMatrix
    beta: OperatorMatrix


def _boson_family(n: int) -> _BosonFamily:
    basis = boson_basis(n)
    return _BosonFamily(n, *boson_cn_phase(basis), *boson_vacuum_phase(basis),
                        *boson_unitary_phase(basis))


class _PairFamily(NamedTuple):
    """The raw and completed cosine/sine and betaF of the mode pair (m, mp)."""

    m: str
    mp: str
    cos_cn: OperatorMatrix
    sin_cn: OperatorMatrix
    cos_u: OperatorMatrix
    sin_u: OperatorMatrix
    beta: OperatorMatrix


def _pair_family(m: str, mp: str) -> _PairFamily:
    space = fermion_sector()
    return _PairFamily(m, mp, *fermion_cn_phase(space, m, mp),
                       *fermion_unitary_phase(space, m, mp))


def _boson_hermiticity(f: _BosonFamily) -> float:
    return max(_herm_residual(op)
               for op in (f.cos_cn, f.sin_cn, f.cos0, f.sin0, f.cos_u, f.sin_u))


def boson_hermiticity_residual(n: int) -> float:
    """Largest |A - A^dag| over every boson cosine/sine flavor at N=n."""
    return _boson_hermiticity(_boson_family(n))


def _fermion_hermiticity(f: _PairFamily) -> float:
    return max(_herm_residual(op) for op in (f.cos_cn, f.sin_cn, f.cos_u, f.sin_u))


def fermion_hermiticity_residual(m: str, mp: str) -> float:
    """Largest |A - A^dag| over the raw and completed cosine/sine of a pair."""
    return _fermion_hermiticity(_pair_family(m, mp))


def _boson_unitarity(f: _BosonFamily) -> float:
    return max(unitarity_deficiency(f.beta))


def boson_unitarity_residual(n: int) -> float:
    """Largest entry of beta beta^dag - I and beta^dag beta - I at N=n."""
    return _boson_unitarity(_boson_family(n))


def _corner_defect(f: _BosonFamily) -> float:
    beta_cn = f.cos_cn.entries + 1j * f.sin_cn.entries
    index = np.arange(f.n + 1)  # index N is all-left, 0 is all-right
    return max(_maxabs(beta_cn @ beta_cn.conj().T - np.diag(index < f.n)),
               _maxabs(beta_cn.conj().T @ beta_cn - np.diag(index > 0)))


def corner_defect_residual(n: int) -> float:
    """Raw beta beta^dag against I minus the all-left projector, and
    beta^dag beta against I minus the all-right projector, at N=n."""
    return _corner_defect(_boson_family(n))


def _number_phase_commutators(f: _BosonFamily, w: OperatorMatrix) -> float:
    r1 = commutator(f.cos_u, w) - 2j * (f.sin_u.entries - (f.n + 1) * f.sin0.entries)
    r2 = commutator(f.sin_u, w) + 2j * (f.cos_u.entries - (f.n + 1) * f.cos0.entries)
    return max(_maxabs(r1), _maxabs(r2))


def number_phase_commutator_residual(n: int) -> float:
    """[cos_U, W] = 2i(sin_U - (N+1) sin0) and [sin_U, W] = -2i(cos_U - (N+1) cos0)."""
    return _number_phase_commutators(_boson_family(n), boson_number_diff(boson_basis(n)))


def _jacobi_residual(a, b, c) -> float:
    return _maxabs(commutator(commutator(a, b), c)
                   + commutator(commutator(b, c), a)
                   + commutator(commutator(c, a), b))


def _boson_jacobi(f: _BosonFamily, w: OperatorMatrix) -> float:
    return _jacobi_residual(f.cos_u, f.sin_u, w)


def boson_jacobi_residual(n: int) -> float:
    """Cyclic double commutators of (cos_U, sin_U, W) at N=n."""
    return _boson_jacobi(_boson_family(n), boson_number_diff(boson_basis(n)))


def _fermion_jacobi(f: _PairFamily) -> float:
    w = fermion_number_diff(fermion_sector(), f.m, f.mp)
    return _jacobi_residual(f.cos_u, f.sin_u, w)


def fermion_jacobi_residual(m: str, mp: str) -> float:
    """Cyclic double commutators of (cos_U, sin_U, N_m - N_mp) for a pair."""
    return _fermion_jacobi(_pair_family(m, mp))


def anticommutator_residual() -> float:
    """{a_i, a_j} = 0 and {a_i, a_j^dag} = delta_ij over all 4x4 mode pairs."""
    space = fermion_sector()
    ladders = [fermion_ladder(space, m).entries for m in range(4)]
    eye = np.eye(FULL_DIM, dtype=complex)
    worst = 0.0
    for i in range(4):
        for j in range(4):
            target = eye if i == j else 0.0
            worst = max(worst, _maxabs(anticommutator(ladders[i], ladders[j])),
                        _maxabs(anticommutator(ladders[i], ladders[j].conj().T) - target))
    return worst


def _betaf_isometry(f: _PairFamily) -> float:
    columns = list(half_filled_masks(f.m, f.mp))
    sing = np.linalg.svd(f.beta.entries[:, columns], compute_uv=False)
    return _maxabs(sing - 1.0)


def betaf_isometry_residual(m: str, mp: str) -> float:
    """Largest |singular value - 1| of betaF on the half-filled subspace."""
    return _betaf_isometry(_pair_family(m, mp))


def double_sum_residual() -> float:
    """Half-filled unitarity deficiency of the unmatched double-sum betaF."""
    space = fermion_sector()
    beta = fermion_unitary_phase(space, "l_up", "r_up", pairing="double-sum")[2]
    p = half_filled_projector(space, "l_up", "r_up")
    return max(unitarity_deficiency(beta, subspace=p))


def _boson_sweep(n_max: int, shared: _Shared) -> dict[str, list[float]]:
    """Per-N residuals of the five boson operator checks, N = 1..n_max, in
    order. Each N's family is built once, or taken from ``shared`` where a
    dynamics check built it, and dropped before the next N is built, so one
    large family is alive at a time."""
    cases: dict[str, list[float]] = {
        "hermiticity": [], "unitarity": [], "corner": [], "commutators": [], "jacobi": []}
    for n in range(1, n_max + 1):
        family = shared.take_family(n)
        cases["hermiticity"].append(_boson_hermiticity(family))
        cases["unitarity"].append(_boson_unitarity(family))
        cases["corner"].append(_corner_defect(family))
        if n <= COMMUTATOR_N_MAX:
            w = boson_number_diff(boson_basis(n))
            cases["commutators"].append(_number_phase_commutators(family, w))
            cases["jacobi"].append(_boson_jacobi(family, w))
        del family  # before the next N's family is built
    return cases


def _pair_sweep() -> dict[str, list[float]]:
    """Per-pair residuals of the three fermion operator checks, from one
    family per mode pair: hermiticity over all 6 pairs, the Jacobi identity
    over SECTION_PAIRS and the isometry over ISOMETRY_PAIRS, in that order."""
    cases: dict[str, list[float]] = {"hermiticity": [], "jacobi": [], "isometry": []}
    for i, m in enumerate(MODE_NAMES):
        for mp in MODE_NAMES[i + 1:]:
            family = _pair_family(m, mp)
            cases["hermiticity"].append(_fermion_hermiticity(family))
            if (m, mp) in SECTION_PAIRS:
                cases["jacobi"].append(_fermion_jacobi(family))
            if (m, mp) in ISOMETRY_PAIRS:
                cases["isometry"].append(_betaf_isometry(family))
    return cases


def _worst_check(name: str, residuals: list[float], tol: float, detail: str) -> CheckResult:
    """The check of a case list: it passes when its worst residual is within tol."""
    worst = max(residuals)
    return CheckResult(name, worst <= tol, worst, tol, detail)


def _check_anticommutators() -> CheckResult:
    worst = anticommutator_residual()
    return CheckResult("fermion-anticommutators", worst == 0.0, worst, 0.0,
                       "all 4x4 mode pairs, exact integer arithmetic")


def _check_double_sum_counterexample() -> CheckResult:
    residual = double_sum_residual()
    # pass-by-expectation: the unmatched sum MUST break the isometry
    return CheckResult("double-sum-counterexample", residual >= 0.5, residual, 0.5,
                       "expected large: equal-count rest coupling is not a matching")


# ---------------------------------------------------------------------------
# Hamiltonians


def _check_mirror_symmetry(n_max: int) -> CheckResult:
    worst = 0.0
    for n in range(1, n_max + 1):
        for ubar in UBAR_SET:
            h = boson_dimer_hamiltonian(boson_basis(n), ubar).entries
            worst = max(worst, _maxabs(h - h[::-1, ::-1]))
    return CheckResult("hamiltonian-mirror-symmetry", worst == 0.0, worst, 0.0,
                       "left/right well exchange leaves the matrix invariant")


def _check_variant_difference() -> CheckResult:
    worst = 0.0
    for ubar in UBAR_SET:
        single = fermion_pair_hamiltonian(ubar, "single-occupancy").entries
        uniform = fermion_pair_hamiltonian(ubar, "uniform-shift").entries
        target = np.diag([0.0, ubar / 2.0, ubar / 2.0]).astype(complex)
        worst = max(worst, _maxabs(uniform - single - target))
    return CheckResult("fermion-variant-difference", worst == 0.0, worst, 0.0,
                       "variants differ by the doubly-occupied diagonal only")


def _check_interaction_free_spectra(tol: float) -> CheckResult:
    target = np.array([-2.0, 0.0, 2.0])
    worst = 0.0
    h = boson_dimer_hamiltonian(boson_basis(2), 0.0).entries
    worst = max(worst, _maxabs(np.linalg.eigvalsh(h) - target))
    for variant in FERMION_VARIANTS:
        h = fermion_pair_hamiltonian(0.0, variant).entries
        worst = max(worst, _maxabs(np.linalg.eigvalsh(h) - target))
    return CheckResult("interaction-free-spectra", worst <= tol, worst, tol,
                       "both systems reduce to the same tunneling triplet")


# ---------------------------------------------------------------------------
# dynamics

# (tau_max, steps) of the grids the dynamics checks propagate on
_GRID = (40.0, 401)
_FREE_GRID = (2.0 * math.pi, 2001)  # two periods of the interaction-free pair
_SQUEEZING_GRID = (40.0, 2001)
_BOTH_RIGHT = (0.0, 0.0, 1.0)  # pair amplitudes with both fermions in the right well


def _grid(tau_max: float, steps: int) -> np.ndarray:
    return np.linspace(0.0, tau_max, steps)


def _boson_right_well(n: int, ubar: float,
                      tau: np.ndarray) -> tuple[OperatorMatrix, Trajectory]:
    basis = boson_basis(n)
    h = boson_dimer_hamiltonian(basis, ubar)
    return h, eigen_propagate(h, fock_state(basis, "right-well"), tau)


def _pair(ubar: float, variant: str, init,
          tau: np.ndarray) -> tuple[OperatorMatrix, Trajectory]:
    h = fermion_pair_hamiltonian(ubar, variant)
    return h, eigen_propagate(h, init, tau)


class _Shared:
    """What one verify run builds once and hands to every check that reads it.

    A propagation that a later check reads again is asked for with
    ``keep=True``; the table holds it, keyed by (system, size or variant,
    ubar, start, grid), until that check takes it. Every other trajectory is
    dropped by the check that read it. Boson families that the dynamics
    checks ask for are held until the boson sweep takes them. A run makes one
    and drops it on return, so nothing is kept between runs.
    """

    def __init__(self) -> None:
        self._trajectories: dict[tuple, tuple[OperatorMatrix, Trajectory]] = {}
        self._families: dict[int, _BosonFamily] = {}

    def family(self, n: int) -> _BosonFamily:
        if n not in self._families:
            self._families[n] = _boson_family(n)
        return self._families[n]

    def take_family(self, n: int) -> _BosonFamily:
        """The family at N=n, which the run no longer holds."""
        return self._families.pop(n) if n in self._families else _boson_family(n)

    def _trajectory(self, key: tuple, keep: bool, propagate) -> tuple[OperatorMatrix, Trajectory]:
        if key in self._trajectories:  # its second and last reader
            return self._trajectories.pop(key)
        found = propagate()
        if keep:
            self._trajectories[key] = found
        return found

    def boson(self, n: int, ubar: float, grid: tuple[float, int] = _GRID,
              keep: bool = False) -> tuple[OperatorMatrix, Trajectory]:
        """H and the exact trajectory of the N=n dimer from the right well."""
        return self._trajectory(("boson", n, ubar, grid), keep,
                                lambda: _boson_right_well(n, ubar, _grid(*grid)))

    def pair(self, ubar: float, variant: str = "single-occupancy",
             init: tuple[complex, ...] = _BOTH_RIGHT, grid: tuple[float, int] = _GRID,
             keep: bool = False) -> tuple[OperatorMatrix, Trajectory]:
        """H and the exact trajectory of the fermion pair from ``init``."""
        return self._trajectory(
            ("pair", variant, ubar, init, grid), keep,
            lambda: _pair(ubar, variant, np.array(init, dtype=complex), _grid(*grid)))


def _conservation(h: OperatorMatrix, traj: Trajectory) -> tuple[float, float]:
    energy = expectation_series(h, traj)
    return traj.norm_drift, _maxabs(energy - energy[0])


def conservation_residual(h, psi0, tau) -> tuple[float, float]:
    """(norm drift, energy drift) of the exact propagation of psi0 under h."""
    return _conservation(h, eigen_propagate(h, psi0, tau))


def _fermion_closed_form(ubar: float, init, traj: Trajectory) -> float:
    return _maxabs(traj.states - fermion_pair_closed_form(ubar, traj.tau_grid, init))


def fermion_closed_form_residual(ubar: float, init, tau) -> float:
    """Two-frequency pair solution against eigenpropagation, all amplitudes."""
    return _fermion_closed_form(ubar, init, _pair(ubar, "single-occupancy", init, tau)[1])


def _boson_closed_form(ubar: float, traj: Trajectory) -> float:
    closed = boson_pair_closed_form(ubar, traj.tau_grid)  # its default is this start
    assert "c1" in closed.exact_components
    worst = _maxabs(traj.states[:, 1] - closed.c1)
    if ubar == 0.0:
        worst = max(worst, _maxabs(traj.states[:, 0] - closed.c0),
                    _maxabs(traj.states[:, 2] - closed.c2))
    return worst


def boson_closed_form_residual(ubar: float, tau) -> float:
    """N=2 right-well closed form against eigenpropagation: the middle
    amplitude at every ubar, the edges at ubar=0 (where they are exact)."""
    return _boson_closed_form(ubar, _boson_right_well(2, ubar, tau)[1])


def _check_conservation(shared: _Shared) -> CheckResult:
    # the closed-form checks read N=2 and the single-occupancy pair again
    drifts = [_conservation(*shared.boson(n, ubar, keep=n == 2))
              for n in (2, 5, 10) for ubar in (0.05, 5.0)]
    drifts += [_conservation(*shared.pair(ubar, variant, keep=variant == "single-occupancy"))
               for variant in FERMION_VARIANTS for ubar in (0.05, 5.0)]
    worst_norm, worst_energy = map(max, zip(*drifts))
    passed = worst_norm <= NORM_TOL and worst_energy <= ENERGY_TOL
    return CheckResult("eigen-conservation", passed,
                       max(worst_norm, worst_energy), ENERGY_TOL,
                       f"norm drift {worst_norm:.2e} (tol {NORM_TOL:g}), "
                       f"energy drift {worst_energy:.2e}")


def _check_fermion_closed_form(shared: _Shared) -> CheckResult:
    inits = (_BOTH_RIGHT, (0.5, 0.5j, math.sqrt(0.5)))
    worst = max(_fermion_closed_form(ubar, init, shared.pair(ubar, init=init)[1])
                for ubar in UBAR_SET for init in inits)
    return CheckResult("fermion-closed-form", worst <= LAW_TOL, worst, LAW_TOL,
                       "two-frequency solution vs eigenpropagation, all ubar")


def _check_boson_closed_form(shared: _Shared) -> CheckResult:
    worst = max(_boson_closed_form(ubar, shared.boson(2, ubar)[1]) for ubar in UBAR_SET)
    return CheckResult("boson-closed-form", worst <= LAW_TOL, worst, LAW_TOL,
                       "middle amplitude everywhere; edges checked at ubar=0")


def _check_phase_linearity(shared: _Shared, tol: float) -> CheckResult:
    _, traj = shared.boson(3, 5.0)
    f = shared.family(3)
    worst = max(
        _maxabs(expectation_series(f.cos_u, traj)
                - expectation_series(f.cos_cn, traj) - expectation_series(f.cos0, traj)),
        _maxabs(expectation_series(f.sin_u, traj)
                - expectation_series(f.sin_cn, traj) - expectation_series(f.sin0, traj)),
    )
    return CheckResult("phase-average-linearity", worst <= tol, worst, tol,
                       "completed average = raw average + vacuum average")


def _check_interaction_free_laws(shared: _Shared) -> CheckResult:
    _, traj = shared.boson(2, 0.0, _FREE_GRID, keep=True)  # the odd-even law reads it too
    tau = traj.tau_grid
    f = shared.family(2)
    worst = max(
        _maxabs(expectation_series(f.cos_cn, traj)),
        _maxabs(expectation_series(f.sin_cn, traj) - np.sin(2.0 * tau) / math.sqrt(2.0)),
        _maxabs(expectation_series(f.cos_u, traj) - (np.cos(4.0 * tau) - 1.0) / 8.0),
    )
    sine_gap = _maxabs(expectation_series(f.sin_u, traj) - expectation_series(f.sin_cn, traj))
    passed = worst <= LAW_TOL and sine_gap <= 1e-12
    return CheckResult("two-boson-free-laws", passed, max(worst, sine_gap), LAW_TOL,
                       "closed trig laws for the interaction-free pair")


def _check_odd_even_law(shared: _Shared) -> CheckResult:
    def cosine_average(n: int) -> float:
        _, traj = shared.boson(n, 0.0, _FREE_GRID)
        return _maxabs(expectation_series(shared.family(n).cos_u, traj))

    # even N first: the N=2 trajectory held for this check goes before N=5 propagates
    min_even = min(cosine_average(n) for n in (2, 4))
    worst_odd = max(cosine_average(n) for n in (3, 5))
    passed = worst_odd <= LAW_TOL and min_even >= 1e-3
    return CheckResult("odd-even-cosine-law", passed, worst_odd, LAW_TOL,
                       f"odd-N averages vanish; even-N floor {min_even:.3e}")


def _check_squeezing_closed_form(shared: _Shared) -> CheckResult:
    worst = 0.0
    for ubar in UBAR_SET:
        _, traj = shared.pair(ubar, grid=_SQUEEZING_GRID)
        _, second_moment = xi_fermion(traj)
        closed = xi_fermion_closed_form(ubar, traj.tau_grid)
        worst = max(worst, _maxabs(second_moment - closed))
    return CheckResult(
        "squeezing-closed-form", worst <= LAW_TOL, worst, LAW_TOL,
        "printed form vs trajectory second moment; disagrees for ubar != 0 "
        "(its beat term is inconsistent with the tau=0 value 2)")


def _check_config_round_trip() -> CheckResult:
    samples = (
        ScenarioConfig(system="boson", N=5, ubar=0.05,
                       channels=("avgC_CN", "avgC_U"), out="a.csv"),
        ScenarioConfig(system="fermion", ubar=5.0, mode_pair="l-up/r-up",
                       integrator="rk4", channels=("fluctS",),
                       initial=(0.5, 0.5j, math.sqrt(0.5))),
    )
    worst = 0.0
    for cfg in samples:
        text = serialize_config(cfg)
        again = serialize_config(parse_config(text))
        if again != text or parse_config(text) != cfg:
            worst = 1.0
    return CheckResult("config-round-trip", worst == 0.0, worst, 0.0,
                       "serialize(parse(serialize(cfg))) is a fixed point")


def run_verification(n_max: int = 12, tol: float = 1e-12) -> VerificationReport:
    if not 2 <= n_max <= N_MAX_LIMIT:
        raise ConfigError(f"n_max must be in 2..{N_MAX_LIMIT}, got {n_max}")
    if not 0 < tol < math.inf:  # NaN fails too
        raise ConfigError(f"tol must be positive and finite, got {tol!r}")
    shared = _Shared()
    # the dynamics checks run first, so that the boson sweep can take the
    # families they built; their trajectories are all gone by then
    dynamics = (
        _check_conservation(shared),
        _check_fermion_closed_form(shared),
        _check_boson_closed_form(shared),
        _check_phase_linearity(shared, tol),
        _check_interaction_free_laws(shared),
        _check_odd_even_law(shared),
        _check_squeezing_closed_form(shared),
    )
    boson = _boson_sweep(n_max, shared)
    pairs = _pair_sweep()
    results = (
        _worst_check("boson-phase-hermiticity", boson["hermiticity"], tol,
                     f"N in 1..{n_max}, all cosine/sine flavors"),
        _worst_check("fermion-phase-hermiticity", pairs["hermiticity"], tol,
                     "all 6 mode pairs, raw and completed"),
        _worst_check("boson-beta-unitarity", boson["unitarity"], tol,
                     f"beta and beta-dagger products, N in 1..{n_max}"),
        _worst_check("cn-corner-defect", boson["corner"], CORNER_TOL,
                     "raw beta is a one-sided shift off the corner projectors"),
        _worst_check("number-phase-commutators", boson["commutators"], tol,
                     "[cos,W] and [sin,W] close onto the vacuum terms"),
        _worst_check("jacobi-identity", boson["jacobi"] + pairs["jacobi"], tol,
                     "cyclic double commutators, boson sweep + 3 fermion pairs"),
        _check_anticommutators(),
        _worst_check("betaf-isometry", pairs["isometry"], tol,
                     "singular values on the half-filled subspace"),
        _check_double_sum_counterexample(),
        _check_mirror_symmetry(n_max),
        _check_variant_difference(),
        _check_interaction_free_spectra(tol),
        *dynamics,
        _check_config_round_trip(),
    )
    return VerificationReport(n_max=n_max, tol=tol, results=results)
