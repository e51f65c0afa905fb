"""Self-check battery: operator algebra, dynamics, and dataset plumbing.

Each named check measures a residual against its contract tolerance. The
operator and dynamics laws that tests also assert are public per-case
residual functions (``corner_defect_residual(n)``, ...); their check is the
worst residual over its case list, and the tests call them on their own cases.
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

import numpy as np

from .errors import ConfigError
from .evolve import (
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
UBAR_SET = (0.0, 0.05, 5.0)

LAW_TOL = 1e-9
ENERGY_TOL = 1e-10
NORM_TOL = 1e-12
CORNER_TOL = 1e-15


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
# operator algebra: one residual per case, one check per case list


def boson_hermiticity_residual(n: int) -> float:
    """Largest |A - A^dag| over every boson cosine/sine flavor at N=n."""
    basis = boson_basis(n)
    ops = (*boson_cn_phase(basis), *boson_vacuum_phase(basis),
           *boson_unitary_phase(basis)[:2])
    return max(_herm_residual(op) for op in ops)


def fermion_hermiticity_residual(m: str, mp: str) -> float:
    """Largest |A - A^dag| over the raw and completed cosine/sine of a pair."""
    space = fermion_sector()
    ops = (*fermion_cn_phase(space, m, mp),
           *fermion_unitary_phase(space, m, mp)[:2])
    return max(_herm_residual(op) for op in ops)


def boson_unitarity_residual(n: int) -> float:
    """Largest entry of beta beta^dag - I and beta^dag beta - I at N=n."""
    return max(unitarity_deficiency(boson_unitary_phase(boson_basis(n))[2]))


def corner_defect_residual(n: int) -> float:
    """Raw beta beta^dag against I minus the all-left projector, and
    beta^dag beta against I minus the all-right projector, at N=n."""
    basis = boson_basis(n)
    cos, sin = boson_cn_phase(basis)
    beta_cn = cos.entries + 1j * sin.entries
    index = np.arange(basis.dimension)  # index N is all-left, 0 is all-right
    return max(_maxabs(beta_cn @ beta_cn.conj().T - np.diag(index < n)),
               _maxabs(beta_cn.conj().T @ beta_cn - np.diag(index > 0)))


def number_phase_commutator_residual(n: int) -> float:
    """[cos_U, W] = 2i(sin_U - (N+1) sin0) and [sin_U, W] = -2i(cos_U - (N+1) cos0)."""
    basis = boson_basis(n)
    cos0, sin0 = boson_vacuum_phase(basis)
    cos_u, sin_u, _ = boson_unitary_phase(basis)
    w = boson_number_diff(basis)
    r1 = commutator(cos_u, w) - 2j * (sin_u.entries - (n + 1) * sin0.entries)
    r2 = commutator(sin_u, w) + 2j * (cos_u.entries - (n + 1) * cos0.entries)
    return max(_maxabs(r1), _maxabs(r2))


def _jacobi_residual(a, b, c) -> float:
    return _maxabs(commutator(commutator(a, b), c)
                   + commutator(commutator(b, c), a)
                   + commutator(commutator(c, a), b))


def boson_jacobi_residual(n: int) -> float:
    """Cyclic double commutators of (cos_U, sin_U, W) at N=n."""
    basis = boson_basis(n)
    cos_u, sin_u, _ = boson_unitary_phase(basis)
    return _jacobi_residual(cos_u, sin_u, boson_number_diff(basis))


def fermion_jacobi_residual(m: str, mp: str) -> float:
    """Cyclic double commutators of (cos_U, sin_U, N_m - N_mp) for a pair."""
    space = fermion_sector()
    cos_u, sin_u, _ = fermion_unitary_phase(space, m, mp)
    return _jacobi_residual(cos_u, sin_u, fermion_number_diff(space, m, mp))


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


def betaf_isometry_residual(m: str, mp: str) -> float:
    """Largest |singular value - 1| of betaF on the half-filled subspace."""
    beta = fermion_unitary_phase(fermion_sector(), m, mp)[2].entries
    sing = np.linalg.svd(beta[:, list(half_filled_masks(m, mp))], compute_uv=False)
    return _maxabs(sing - 1.0)


def double_sum_residual() -> float:
    """Half-filled unitarity deficiency of the unmatched double-sum betaF."""
    space = fermion_sector()
    beta = fermion_unitary_phase(space, "l_up", "r_up", pairing="double-sum")[2]
    p = half_filled_projector(space, "l_up", "r_up")
    return max(unitarity_deficiency(beta, subspace=p))


def _check_boson_hermiticity(n_max: int, tol: float) -> CheckResult:
    worst = max(boson_hermiticity_residual(n) for n in range(1, n_max + 1))
    return CheckResult("boson-phase-hermiticity", worst <= tol, worst, tol,
                       f"N in 1..{n_max}, all cosine/sine flavors")


def _check_fermion_hermiticity(tol: float) -> CheckResult:
    worst = max(fermion_hermiticity_residual(m, mp)
                for i, m in enumerate(MODE_NAMES) for mp in MODE_NAMES[i + 1:])
    return CheckResult("fermion-phase-hermiticity", worst <= tol, worst, tol,
                       "all 6 mode pairs, raw and completed")


def _check_boson_unitarity(n_max: int, tol: float) -> CheckResult:
    worst = max(boson_unitarity_residual(n) for n in range(1, n_max + 1))
    return CheckResult("boson-beta-unitarity", worst <= tol, worst, tol,
                       f"beta and beta-dagger products, N in 1..{n_max}")


def _check_corner_defect(n_max: int) -> CheckResult:
    worst = max(corner_defect_residual(n) for n in range(1, n_max + 1))
    return CheckResult("cn-corner-defect", worst <= CORNER_TOL, worst, CORNER_TOL,
                       "raw beta is a one-sided shift off the corner projectors")


def _check_number_phase_commutators(n_max: int, tol: float) -> CheckResult:
    worst = max(number_phase_commutator_residual(n) for n in range(1, n_max + 1))
    return CheckResult("number-phase-commutators", worst <= tol, worst, tol,
                       "[cos,W] and [sin,W] close onto the vacuum terms")


def _check_jacobi(n_max: int, tol: float) -> CheckResult:
    worst = max(*(boson_jacobi_residual(n) for n in range(1, n_max + 1)),
                *(fermion_jacobi_residual(m, mp) for m, mp in SECTION_PAIRS))
    return CheckResult("jacobi-identity", worst <= tol, worst, tol,
                       "cyclic double commutators, boson sweep + 3 fermion pairs")


def _check_anticommutators() -> CheckResult:
    worst = anticommutator_residual()
    return CheckResult("fermion-anticommutators", worst == 0.0, worst, 0.0,
                       "all 4x4 mode pairs, exact integer arithmetic")


def _check_betaf_isometry(tol: float) -> CheckResult:
    worst = max(betaf_isometry_residual(m, mp)
                for m, mp in (("l_up", "r_up"), ("l_up", "r_down")))
    return CheckResult("betaf-isometry", worst <= tol, worst, tol,
                       "singular values on the half-filled subspace")


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


def _grid(tau_max: float = 40.0, steps: int = 401) -> np.ndarray:
    return np.linspace(0.0, tau_max, steps)


def _boson_right_well_traj(n: int, ubar: float, tau: np.ndarray):
    basis = boson_basis(n)
    h = boson_dimer_hamiltonian(basis, ubar)
    return basis, eigen_propagate(h, fock_state(basis, "right-well"), tau)


def conservation_residual(h, psi0, tau) -> tuple[float, float]:
    """(norm drift, energy drift) of the exact propagation of psi0 under h."""
    traj = eigen_propagate(h, psi0, tau)
    norms = np.linalg.norm(traj.states, axis=1)
    energy = expectation_series(h, traj)
    return _maxabs(norms - 1.0), _maxabs(energy - energy[0])


def fermion_closed_form_residual(ubar: float, init, tau) -> float:
    """Two-frequency pair solution against eigenpropagation, all amplitudes."""
    h = fermion_pair_hamiltonian(ubar, "single-occupancy")
    traj = eigen_propagate(h, init, tau)
    return _maxabs(traj.states - fermion_pair_closed_form(ubar, tau, init))


def boson_closed_form_residual(ubar: float, tau) -> float:
    """N=2 right-well closed form against eigenpropagation: the middle
    amplitude at every ubar, the edges at ubar=0 (where they are exact)."""
    _, traj = _boson_right_well_traj(2, ubar, tau)
    closed = boson_pair_closed_form(ubar, tau)  # its default is this start
    assert "c1" in closed.exact_components
    worst = _maxabs(traj.states[:, 1] - closed.c1)
    if ubar == 0.0:
        worst = max(worst, _maxabs(traj.states[:, 0] - closed.c0),
                    _maxabs(traj.states[:, 2] - closed.c2))
    return worst


def _check_conservation() -> CheckResult:
    tau = _grid()
    cases = []
    for n in (2, 5, 10):
        for ubar in (0.05, 5.0):
            basis = boson_basis(n)
            cases.append((boson_dimer_hamiltonian(basis, ubar),
                          fock_state(basis, "right-well")))
    for variant in FERMION_VARIANTS:
        for ubar in (0.05, 5.0):
            h = fermion_pair_hamiltonian(ubar, variant)
            cases.append((h, np.array([0.0, 0.0, 1.0], dtype=complex)))
    drifts = [conservation_residual(h, psi0, tau) for h, psi0 in cases]
    worst_norm, worst_energy = map(max, zip(*drifts))
    passed = worst_norm <= NORM_TOL and worst_energy <= ENERGY_TOL
    return CheckResult("eigen-conservation", passed,
                       max(worst_norm, worst_energy), ENERGY_TOL,
                       f"norm drift {worst_norm:.2e} (tol {NORM_TOL:g}), "
                       f"energy drift {worst_energy:.2e}")


def _check_fermion_closed_form() -> CheckResult:
    tau = _grid()
    inits = (np.array([0.0, 0.0, 1.0], dtype=complex),
             np.array([0.5, 0.5j, math.sqrt(0.5)], dtype=complex))
    worst = max(fermion_closed_form_residual(ubar, init, tau)
                for ubar in UBAR_SET for init in inits)
    return CheckResult("fermion-closed-form", worst <= LAW_TOL, worst, LAW_TOL,
                       "two-frequency solution vs eigenpropagation, all ubar")


def _check_boson_closed_form() -> CheckResult:
    tau = _grid()
    worst = max(boson_closed_form_residual(ubar, tau) for ubar in UBAR_SET)
    return CheckResult("boson-closed-form", worst <= LAW_TOL, worst, LAW_TOL,
                       "middle amplitude everywhere; edges checked at ubar=0")


def _check_phase_linearity(tol: float) -> CheckResult:
    basis, traj = _boson_right_well_traj(3, 5.0, _grid())
    cos_cn, sin_cn = boson_cn_phase(basis)
    cos0, sin0 = boson_vacuum_phase(basis)
    cos_u, sin_u, _ = boson_unitary_phase(basis)
    worst = max(
        _maxabs(expectation_series(cos_u, traj)
                - expectation_series(cos_cn, traj) - expectation_series(cos0, traj)),
        _maxabs(expectation_series(sin_u, traj)
                - expectation_series(sin_cn, traj) - expectation_series(sin0, traj)),
    )
    return CheckResult("phase-average-linearity", worst <= tol, worst, tol,
                       "completed average = raw average + vacuum average")


def _check_interaction_free_laws() -> CheckResult:
    tau = np.linspace(0.0, 2.0 * math.pi, 2001)
    basis, traj = _boson_right_well_traj(2, 0.0, tau)
    cos_cn, sin_cn = boson_cn_phase(basis)
    cos_u, sin_u, _ = boson_unitary_phase(basis)
    worst = max(
        _maxabs(expectation_series(cos_cn, traj)),
        _maxabs(expectation_series(sin_cn, traj) - np.sin(2.0 * tau) / math.sqrt(2.0)),
        _maxabs(expectation_series(cos_u, traj) - (np.cos(4.0 * tau) - 1.0) / 8.0),
    )
    sine_gap = _maxabs(expectation_series(sin_u, traj) - expectation_series(sin_cn, traj))
    passed = worst <= LAW_TOL and sine_gap <= 1e-12
    return CheckResult("two-boson-free-laws", passed, max(worst, sine_gap), LAW_TOL,
                       "closed trig laws for the interaction-free pair")


def _check_odd_even_law() -> CheckResult:
    tau = np.linspace(0.0, 2.0 * math.pi, 2001)
    worst_odd = 0.0
    min_even = math.inf
    for n in (3, 5):
        basis, traj = _boson_right_well_traj(n, 0.0, tau)
        cos_u = boson_unitary_phase(basis)[0]
        worst_odd = max(worst_odd, _maxabs(expectation_series(cos_u, traj)))
    for n in (2, 4):
        basis, traj = _boson_right_well_traj(n, 0.0, tau)
        cos_u = boson_unitary_phase(basis)[0]
        min_even = min(min_even, _maxabs(expectation_series(cos_u, traj)))
    passed = worst_odd <= LAW_TOL and min_even >= 1e-3
    return CheckResult("odd-even-cosine-law", passed, worst_odd, LAW_TOL,
                       f"odd-N averages vanish; even-N floor {min_even:.3e}")


def _check_squeezing_closed_form() -> CheckResult:
    tau = _grid(steps=2001)
    worst = 0.0
    for ubar in UBAR_SET:
        h = fermion_pair_hamiltonian(ubar, "single-occupancy")
        traj = eigen_propagate(h, np.array([0.0, 0.0, 1.0], dtype=complex), tau)
        _, second_moment = xi_fermion(traj)
        closed = xi_fermion_closed_form(ubar, tau)
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
    if n_max < 2:
        raise ConfigError(f"n_max must be at least 2, got {n_max}")
    if not (tol > 0):
        raise ConfigError(f"tol must be positive, got {tol!r}")
    results = (
        _check_boson_hermiticity(n_max, tol),
        _check_fermion_hermiticity(tol),
        _check_boson_unitarity(n_max, tol),
        _check_corner_defect(n_max),
        _check_number_phase_commutators(min(n_max, 10), tol),
        _check_jacobi(min(n_max, 10), tol),
        _check_anticommutators(),
        _check_betaf_isometry(tol),
        _check_double_sum_counterexample(),
        _check_mirror_symmetry(n_max),
        _check_variant_difference(),
        _check_interaction_free_spectra(tol),
        _check_conservation(),
        _check_fermion_closed_form(),
        _check_boson_closed_form(),
        _check_phase_linearity(tol),
        _check_interaction_free_laws(),
        _check_odd_even_law(),
        _check_squeezing_closed_form(),
        _check_config_round_trip(),
    )
    return VerificationReport(n_max=n_max, tol=tol, results=results)
