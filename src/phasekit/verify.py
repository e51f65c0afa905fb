"""Self-check battery: operator algebra, dynamics, and dataset plumbing.

Each named check measures a residual against its contract tolerance. Each
operator or dynamics law that tests also assert is one public function over a
built family or trajectory, such as ``corner_defect_residual(boson_family(n))``
or ``conservation_residual(h, eigen_propagate(h, psi0, tau))``; the law's
check is its worst residual over the check's cases.

``run_verification`` builds each family and trajectory once per run, in the
one check that reads it. What two checks read is built first as a local,
passed to both and deleted after the second: the boson families at N = 2..5
(which the boson sweep takes after the dynamics checks), the N=2 boson and
single-occupancy pair trajectories at each ubar of ``UBAR_SET``, and the
interaction-free N=2 trajectory. The boson sweep holds one N's family at a
time; one family per fermion mode pair serves hermiticity, Jacobi and
isometry. Nothing is kept between runs.

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
import numbers
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
# operator algebra: each law is one residual over a built family


class BosonFamily(NamedTuple):
    """The raw (CN), vacuum and unitary cosine/sine and beta at N=n."""

    n: int
    cos_cn: OperatorMatrix
    sin_cn: OperatorMatrix
    cos0: OperatorMatrix
    sin0: OperatorMatrix
    cos_u: OperatorMatrix
    sin_u: OperatorMatrix
    beta: OperatorMatrix


def boson_family(n: int) -> BosonFamily:
    """Every boson phase operator at N=n, for the boson operator laws."""
    basis = boson_basis(n)
    return BosonFamily(n, *boson_cn_phase(basis), *boson_vacuum_phase(basis),
                       *boson_unitary_phase(basis))


class PairFamily(NamedTuple):
    """The raw and completed cosine/sine and betaF of the mode pair (m, mp)."""

    m: str
    mp: str
    cos_cn: OperatorMatrix
    sin_cn: OperatorMatrix
    cos_u: OperatorMatrix
    sin_u: OperatorMatrix
    beta: OperatorMatrix


def pair_family(m: str, mp: str) -> PairFamily:
    """Every fermion phase operator of a mode pair, for the fermion operator laws."""
    space = fermion_sector()
    return PairFamily(m, mp, *fermion_cn_phase(space, m, mp),
                      *fermion_unitary_phase(space, m, mp))


def boson_hermiticity_residual(f: BosonFamily) -> float:
    """Largest |A - A^dag| over every boson cosine/sine flavor of a family."""
    return max(_herm_residual(op)
               for op in (f.cos_cn, f.sin_cn, f.cos0, f.sin0, f.cos_u, f.sin_u))


def fermion_hermiticity_residual(f: PairFamily) -> float:
    """Largest |A - A^dag| over the raw and completed cosine/sine of a pair."""
    return max(_herm_residual(op) for op in (f.cos_cn, f.sin_cn, f.cos_u, f.sin_u))


def boson_unitarity_residual(f: BosonFamily) -> float:
    """Largest entry of beta beta^dag - I and beta^dag beta - I."""
    return max(unitarity_deficiency(f.beta))


def corner_defect_residual(f: BosonFamily) -> float:
    """Raw beta beta^dag against I minus the all-left projector, and
    beta^dag beta against I minus the all-right projector."""
    beta_cn = f.cos_cn.entries + 1j * f.sin_cn.entries
    index = np.arange(f.n + 1)  # index N is all-left, 0 is all-right
    return max(_maxabs(beta_cn @ beta_cn.conj().T - np.diag(index < f.n)),
               _maxabs(beta_cn.conj().T @ beta_cn - np.diag(index > 0)))


def number_phase_commutator_residual(f: BosonFamily, w: OperatorMatrix) -> float:
    """[cos_U, W] = 2i(sin_U - (N+1) sin0) and [sin_U, W] = -2i(cos_U - (N+1) cos0),
    with W the family's ``boson_number_diff``."""
    r1 = commutator(f.cos_u, w) - 2j * (f.sin_u.entries - (f.n + 1) * f.sin0.entries)
    r2 = commutator(f.sin_u, w) + 2j * (f.cos_u.entries - (f.n + 1) * f.cos0.entries)
    return max(_maxabs(r1), _maxabs(r2))


def _jacobi_residual(a, b, c) -> float:
    return _maxabs(commutator(commutator(a, b), c)
                   + commutator(commutator(b, c), a)
                   + commutator(commutator(c, a), b))


def boson_jacobi_residual(f: BosonFamily, w: OperatorMatrix) -> float:
    """Cyclic double commutators of (cos_U, sin_U, W), W the family's
    ``boson_number_diff``."""
    return _jacobi_residual(f.cos_u, f.sin_u, w)


def fermion_jacobi_residual(f: PairFamily) -> float:
    """Cyclic double commutators of (cos_U, sin_U, N_m - N_mp) for a pair."""
    w = fermion_number_diff(fermion_sector(), f.m, f.mp)
    return _jacobi_residual(f.cos_u, f.sin_u, w)


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


def betaf_isometry_residual(f: PairFamily) -> float:
    """Largest |singular value - 1| of betaF on the half-filled subspace."""
    columns = list(half_filled_masks(f.m, f.mp))
    sing = np.linalg.svd(f.beta.entries[:, columns], compute_uv=False)
    return _maxabs(sing - 1.0)


def _double_sum_beta(space) -> np.ndarray:
    """betaF of (l_up, r_up) completed by the unmatched double sum: every
    configuration with only l_up occupied couples to every one with only r_up
    occupied whose rest holds the same particle count, not to its one partner."""
    i, j = MODE_NAMES.index("l_up"), MODE_NAMES.index("r_up")
    r0, r1 = (k for k in range(len(MODE_NAMES)) if k not in (i, j))
    # the raw shift a_i a_j^dag, zero wherever the coupling is set
    beta = fermion_ladder(space, i).entries @ fermion_ladder(space, j).entries.conj().T
    rest_configs = [(a, b) for a in (0, 1) for b in (0, 1)]
    for a0, a1 in rest_configs:
        for b0, b1 in rest_configs:
            if a0 + a1 == b0 + b1:
                beta[(a0 << r0) | (a1 << r1) | (1 << i), (b0 << r0) | (b1 << r1) | (1 << j)] = 1.0
    return beta


def double_sum_residual() -> float:
    """Half-filled unitarity deficiency of the unmatched double-sum betaF."""
    space = fermion_sector()
    p = half_filled_projector(space, "l_up", "r_up")
    return max(unitarity_deficiency(_double_sum_beta(space), subspace=p))


def _boson_sweep(n_max: int, families: dict[int, BosonFamily]) -> dict[str, list[float]]:
    """Per-N residuals of the five boson operator checks, N = 1..n_max, in
    order. Each N's family is popped from ``families`` or built, and dropped
    before the next N's, so one large family is alive at a time."""
    cases: dict[str, list[float]] = {
        "hermiticity": [], "unitarity": [], "corner": [], "commutators": [], "jacobi": []}
    for n in range(1, n_max + 1):
        family = families.pop(n) if n in families else boson_family(n)
        cases["hermiticity"].append(boson_hermiticity_residual(family))
        cases["unitarity"].append(boson_unitarity_residual(family))
        cases["corner"].append(corner_defect_residual(family))
        if n <= COMMUTATOR_N_MAX:
            w = boson_number_diff(boson_basis(n))
            cases["commutators"].append(number_phase_commutator_residual(family, w))
            cases["jacobi"].append(boson_jacobi_residual(family, w))
        del family  # before the next N's family is built
    return cases


def _pair_sweep() -> dict[str, list[float]]:
    """Per-pair residuals of the three fermion operator checks, from one
    family per mode pair: hermiticity over all 6 pairs, the Jacobi identity
    over SECTION_PAIRS and the isometry over ISOMETRY_PAIRS, in that order."""
    cases: dict[str, list[float]] = {"hermiticity": [], "jacobi": [], "isometry": []}
    for i, m in enumerate(MODE_NAMES):
        for mp in MODE_NAMES[i + 1:]:
            family = pair_family(m, mp)
            cases["hermiticity"].append(fermion_hermiticity_residual(family))
            if (m, mp) in SECTION_PAIRS:
                cases["jacobi"].append(fermion_jacobi_residual(family))
            if (m, mp) in ISOMETRY_PAIRS:
                cases["isometry"].append(betaf_isometry_residual(family))
    return cases


def _worst_check(name: str, residuals: list[float], tol: float, detail: str) -> CheckResult:
    """The check of a case list: it passes when its worst residual is within tol."""
    worst = max(residuals)
    return CheckResult(name, worst <= tol, worst, tol, detail)


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

_TAU_MAX = 40.0  # the horizon of every dynamics check but the free-pair laws
_BOTH_RIGHT = (0.0, 0.0, 1.0)  # pair amplitudes with both fermions in the right well
_MIXED = (0.5, 0.5j, math.sqrt(0.5))


def _boson_right_well(n: int, ubar: float,
                      tau: np.ndarray) -> tuple[OperatorMatrix, Trajectory]:
    """H and the exact trajectory of the N=n dimer from the right well."""
    basis = boson_basis(n)
    h = boson_dimer_hamiltonian(basis, ubar)
    return h, eigen_propagate(h, fock_state(basis, "right-well"), tau)


def _pair(ubar: float, init: tuple[complex, ...], tau: np.ndarray,
          variant: str = "single-occupancy") -> tuple[OperatorMatrix, Trajectory]:
    """H and the exact trajectory of the fermion pair from ``init``."""
    h = fermion_pair_hamiltonian(ubar, variant)
    return h, eigen_propagate(h, np.array(init, dtype=complex), tau)


def conservation_residual(h: OperatorMatrix, traj: Trajectory) -> tuple[float, float]:
    """(norm drift, energy drift) of a trajectory under h."""
    energy = expectation_series(h, traj)
    return traj.norm_drift, _maxabs(energy - energy[0])


def fermion_closed_form_residual(ubar: float, init, traj: Trajectory) -> float:
    """Two-frequency pair solution against a single-occupancy trajectory from
    ``init``, all amplitudes."""
    return _maxabs(traj.states - fermion_pair_closed_form(ubar, traj.tau_grid, init))


def boson_closed_form_residual(ubar: float, traj: Trajectory) -> float:
    """N=2 closed form against a right-well trajectory: the middle amplitude
    at every ubar, the edges at ubar=0 (where they are exact)."""
    closed = boson_pair_closed_form(ubar, traj.tau_grid)  # its default is this start
    assert "c1" in closed.exact_components
    worst = _maxabs(traj.states[:, 1] - closed.c1)
    if ubar == 0.0:
        worst = max(worst, _maxabs(traj.states[:, 0] - closed.c0),
                    _maxabs(traj.states[:, 2] - closed.c2))
    return worst


_Runs = dict[float, tuple[OperatorMatrix, Trajectory]]  # (H, trajectory) by ubar


def _check_conservation(bosons: _Runs, pairs: _Runs, tau: np.ndarray) -> CheckResult:
    drifts = [conservation_residual(*bosons[ubar]) for ubar in (0.05, 5.0)]
    drifts += [conservation_residual(*_boson_right_well(n, ubar, tau))
               for n in (5, 10) for ubar in (0.05, 5.0)]
    drifts += [conservation_residual(*pairs[ubar]) if variant == "single-occupancy"
               else conservation_residual(*_pair(ubar, _BOTH_RIGHT, tau, variant))
               for variant in FERMION_VARIANTS for ubar in (0.05, 5.0)]
    worst_norm, worst_energy = map(max, zip(*drifts))
    passed = worst_norm <= NORM_TOL and worst_energy <= ENERGY_TOL
    return CheckResult("eigen-conservation", passed,
                       max(worst_norm, worst_energy), ENERGY_TOL,
                       f"norm drift {worst_norm:.2e} (tol {NORM_TOL:g}), "
                       f"energy drift {worst_energy:.2e}")


def _check_fermion_closed_form(pairs: _Runs, tau: np.ndarray) -> CheckResult:
    worst = max(max(fermion_closed_form_residual(ubar, _BOTH_RIGHT, pairs[ubar][1]),
                    fermion_closed_form_residual(ubar, _MIXED, _pair(ubar, _MIXED, tau)[1]))
                for ubar in UBAR_SET)
    return CheckResult("fermion-closed-form", worst <= LAW_TOL, worst, LAW_TOL,
                       "two-frequency solution vs eigenpropagation, all ubar")


def _check_boson_closed_form(bosons: _Runs) -> CheckResult:
    worst = max(boson_closed_form_residual(ubar, traj) for ubar, (_, traj) in bosons.items())
    return CheckResult("boson-closed-form", worst <= LAW_TOL, worst, LAW_TOL,
                       "middle amplitude everywhere; edges checked at ubar=0")


def _check_phase_linearity(f: BosonFamily, tau: np.ndarray, tol: float) -> CheckResult:
    _, traj = _boson_right_well(f.n, 5.0, tau)
    worst = max(
        _maxabs(expectation_series(f.cos_u, traj)
                - expectation_series(f.cos_cn, traj) - expectation_series(f.cos0, traj)),
        _maxabs(expectation_series(f.sin_u, traj)
                - expectation_series(f.sin_cn, traj) - expectation_series(f.sin0, traj)),
    )
    return CheckResult("phase-average-linearity", worst <= tol, worst, tol,
                       "completed average = raw average + vacuum average")


def _check_interaction_free_laws(f: BosonFamily, free: Trajectory) -> CheckResult:
    tau = free.tau_grid
    worst = max(
        _maxabs(expectation_series(f.cos_cn, free)),
        _maxabs(expectation_series(f.sin_cn, free) - np.sin(2.0 * tau) / math.sqrt(2.0)),
        _maxabs(expectation_series(f.cos_u, free) - (np.cos(4.0 * tau) - 1.0) / 8.0),
    )
    sine_gap = _maxabs(expectation_series(f.sin_u, free) - expectation_series(f.sin_cn, free))
    passed = worst <= LAW_TOL and sine_gap <= 1e-12
    return CheckResult("two-boson-free-laws", passed, max(worst, sine_gap), LAW_TOL,
                       "closed trig laws for the interaction-free pair")


def _check_odd_even_law(families: dict[int, BosonFamily], free: Trajectory) -> CheckResult:
    """``free`` is the interaction-free N=2 trajectory; N = 3..5 run on its grid."""
    def cosine_average(n: int) -> float:
        traj = free if n == 2 else _boson_right_well(n, 0.0, free.tau_grid)[1]
        return _maxabs(expectation_series(families[n].cos_u, traj))

    min_even = min(cosine_average(n) for n in (2, 4))
    worst_odd = max(cosine_average(n) for n in (3, 5))
    passed = worst_odd <= LAW_TOL and min_even >= 1e-3
    return CheckResult("odd-even-cosine-law", passed, worst_odd, LAW_TOL,
                       f"odd-N averages vanish; even-N floor {min_even:.3e}")


def _check_squeezing_closed_form() -> CheckResult:
    tau = np.linspace(0.0, _TAU_MAX, 2001)
    worst = 0.0
    for ubar in UBAR_SET:
        _, traj = _pair(ubar, _BOTH_RIGHT, tau)
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


def _dynamics_checks(families: dict[int, BosonFamily], tol: float) -> tuple[CheckResult, ...]:
    """The seven dynamics checks, in order. What two of them read is built
    here, passed to both and deleted after the second."""
    tau = np.linspace(0.0, _TAU_MAX, 401)
    boson_runs = {ubar: _boson_right_well(2, ubar, tau) for ubar in UBAR_SET}
    pair_runs = {ubar: _pair(ubar, _BOTH_RIGHT, tau) for ubar in UBAR_SET}
    checks = (_check_conservation(boson_runs, pair_runs, tau),
              _check_fermion_closed_form(pair_runs, tau),
              _check_boson_closed_form(boson_runs))
    del boson_runs, pair_runs
    # two periods of the interaction-free pair
    _, free = _boson_right_well(2, 0.0, np.linspace(0.0, 2.0 * math.pi, 2001))
    checks += (_check_phase_linearity(families[3], tau, tol),
               _check_interaction_free_laws(families[2], free),
               _check_odd_even_law(families, free))
    del free
    return checks + (_check_squeezing_closed_form(),)


def run_verification(n_max: int = 12, tol: float = 1e-12) -> VerificationReport:
    if not (isinstance(n_max, numbers.Integral) and 2 <= n_max <= N_MAX_LIMIT):
        raise ConfigError(f"n_max must be an integer in 2..{N_MAX_LIMIT}, got {n_max!r}")
    if not (isinstance(tol, numbers.Real) and 0 < tol < math.inf):  # NaN fails too
        raise ConfigError(f"tol must be positive and finite, got {tol!r}")
    # the boson sweep takes the families that the dynamics checks read
    families = {n: boson_family(n) for n in (2, 3, 4, 5)}
    dynamics = _dynamics_checks(families, tol)
    boson = _boson_sweep(n_max, families)
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
        _worst_check("fermion-anticommutators", [anticommutator_residual()], 0.0,
                     "all 4x4 mode pairs, exact integer arithmetic"),
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
