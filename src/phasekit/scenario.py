"""Scenario configs, channel evaluation, and CSV emission.

Config format: flat UTF-8 ``key=value`` lines, ``#`` comments, no nesting.
Parsing then re-serializing is a fixed point (canonical key order and value
formatting), which the test suite pins.

CSV format: header ``tau,<channel names>``, one row per grid point, '.'
decimal, ',' separator, LF line endings, no quoting, 17 significant digits —
enough to round-trip doubles, so reruns are byte-identical on one platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigError
from .evolve import DEFAULT_DTAU, Trajectory, eigen_propagate, rk4_propagate
from .fock import boson_basis, fermion_sector
from .hamiltonians import (
    DEFAULT_FERMION_VARIANT,
    FERMION_VARIANTS,
    boson_dimer_hamiltonian,
    fermion_pair_hamiltonian,
)
from .observe import (
    TimeSeries,
    expectation_series,
    fluctuation_series,
    pair_moments,
    xi_boson,
    xi_fermion,
    xi_fermion_closed_form,
)
from .operators import (
    boson_cn_phase,
    boson_number_diff,
    boson_unitary_phase,
    fermion_cn_phase,
    fermion_unitary_phase,
    well_number_diff,
)

SYSTEMS = ("boson", "fermion")
INTEGRATORS = ("eigen", "rk4")
MODE_PAIRS = {
    "l-up/r-down": ("l_up", "r_down"),
    "l-up/r-up": ("l_up", "r_up"),
}
DEFAULT_MODE_PAIR = "l-up/r-down"

# channel -> (kind, operator). "mean" and "fluct" channels serve both systems
# and name an observable of _observables; a "boson" or "fermion" channel is a
# squeezing form of that system only, computed by operator(cfg, traj).
_CHANNELS = {
    "avgC_CN": ("mean", "C_CN"),
    "avgS_CN": ("mean", "S_CN"),
    "avgC_U": ("mean", "C_U"),
    "avgS_U": ("mean", "S_U"),
    "fluctC": ("fluct", "C_U"),
    "fluctS": ("fluct", "S_U"),
    "avgW": ("mean", "W"),
    "fluctW": ("fluct", "W"),
    "xi": ("boson", lambda cfg, traj: xi_boson(traj, boson_basis(cfg.N))),
    "xi_variance": ("fermion", lambda cfg, traj: xi_fermion(traj)[0]),
    "xi_second_moment": ("fermion", lambda cfg, traj: xi_fermion(traj)[1]),
    "xi_closed": ("fermion",
                  lambda cfg, traj: xi_fermion_closed_form(cfg.ubar, traj.tau_grid)),
}
BOSON_CHANNELS = tuple(n for n, (kind, _) in _CHANNELS.items() if kind != "fermion")
FERMION_CHANNELS = tuple(n for n, (kind, _) in _CHANNELS.items() if kind != "boson")

_CONFIG_KEYS = ("system", "N", "ubar", "variant", "mode_pair", "tau_max",
                "steps", "initial", "integrator", "channels", "out")

AMPLITUDE_NORM_TOL = 1e-9


@dataclass(frozen=True)
class ScenarioConfig:
    """One propagation scenario: system, interaction, grid, channels, output."""

    system: str
    ubar: float
    N: Optional[int] = None
    variant: Optional[str] = None
    mode_pair: Optional[str] = None
    tau_max: float = 40.0
    steps: int = 2001
    initial: Union[str, tuple[complex, ...]] = "right-well"
    integrator: str = "eigen"
    channels: tuple[str, ...] = ()
    out: Optional[str] = None

    def __post_init__(self) -> None:
        if self.system not in SYSTEMS:
            raise ConfigError(f"system must be one of {SYSTEMS}, got {self.system!r}")
        if self.integrator not in INTEGRATORS:
            raise ConfigError(
                f"integrator must be one of {INTEGRATORS}, got {self.integrator!r}"
            )
        if not (math.isfinite(self.ubar)):
            raise ConfigError(f"ubar must be finite, got {self.ubar!r}")
        if not (math.isfinite(self.tau_max) and self.tau_max > 0):
            raise ConfigError(f"tau_max must be positive, got {self.tau_max!r}")
        if self.steps < 2:
            raise ConfigError(f"steps must be at least 2, got {self.steps}")

        if self.system == "boson":
            if self.N is None:
                raise ConfigError("boson scenarios need N")
            if self.N < 1:
                raise ConfigError(f"N must be at least 1, got {self.N}")
            if self.variant is not None:
                raise ConfigError("variant applies to fermion scenarios only")
            if self.mode_pair is not None:
                raise ConfigError("mode_pair applies to fermion scenarios only")
        else:
            if self.N is not None:
                raise ConfigError("N applies to boson scenarios only")
            if self.variant is None:
                object.__setattr__(self, "variant", DEFAULT_FERMION_VARIANT)
            if self.variant not in FERMION_VARIANTS:
                raise ConfigError(
                    f"unknown variant {self.variant!r}; expected one of {FERMION_VARIANTS}"
                )
            if self.mode_pair is None:
                object.__setattr__(self, "mode_pair", DEFAULT_MODE_PAIR)
            if self.mode_pair not in MODE_PAIRS:
                raise ConfigError(
                    f"unknown mode_pair {self.mode_pair!r}; expected one of "
                    f"{tuple(MODE_PAIRS)}"
                )

        known = BOSON_CHANNELS if self.system == "boson" else FERMION_CHANNELS
        chans = tuple(self.channels)
        if not chans:
            raise ConfigError("channels must name at least one observable")
        for name in chans:
            if name not in known:
                raise ConfigError(
                    f"unknown channel {name!r} for {self.system}; known: {known}"
                )
        if len(set(chans)) != len(chans):
            raise ConfigError(f"channels name an observable twice: {chans}")
        object.__setattr__(self, "channels", chans)

        if isinstance(self.initial, str):
            if self.initial not in ("right-well", "left-well"):
                raise ConfigError(
                    f"initial must be right-well, left-well, or amplitudes; "
                    f"got {self.initial!r}"
                )
        else:
            amps = tuple(complex(a) for a in self.initial)
            dim = (self.N + 1) if self.system == "boson" else 3
            if len(amps) != dim:
                raise ConfigError(
                    f"initial amplitude list must have length {dim}, got {len(amps)}"
                )
            norm = math.hypot(*(abs(a) for a in amps))  # inf, not OverflowError
            if not abs(norm - 1.0) <= AMPLITUDE_NORM_TOL:  # NaN fails too
                raise ConfigError(
                    f"initial amplitudes not normalized: |c| = {norm!r}"
                )
            object.__setattr__(self, "initial", amps)

    @property
    def dimension(self) -> int:
        return (self.N + 1) if self.system == "boson" else 3


# ---------------------------------------------------------------------------
# config text format


def _format_complex(z: complex) -> str:
    if z.imag == 0.0:
        return repr(z.real)
    if z.real == 0.0:
        return f"{z.imag!r}j"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}j"


def parse_config(text: str) -> ScenarioConfig:
    pairs: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        pairs[key] = value

    def _get(key: str) -> Optional[str]:
        return pairs.get(key)

    for required in ("system", "ubar", "channels"):
        if required not in pairs:
            raise ConfigError(f"missing required key {required!r}")

    kwargs: dict = {"system": pairs["system"]}
    try:
        kwargs["ubar"] = float(pairs["ubar"])
        if _get("N") is not None:
            kwargs["N"] = int(pairs["N"])
        if _get("tau_max") is not None:
            kwargs["tau_max"] = float(pairs["tau_max"])
        if _get("steps") is not None:
            kwargs["steps"] = int(pairs["steps"])
    except ValueError as exc:
        raise ConfigError(f"malformed numeric value: {exc}") from exc
    for key in ("variant", "mode_pair", "integrator", "out"):
        if _get(key) is not None:
            kwargs[key] = pairs[key]
    if _get("initial") is not None:
        value = pairs["initial"]
        if value in ("right-well", "left-well"):
            kwargs["initial"] = value
        else:
            try:
                kwargs["initial"] = tuple(complex(part.strip())
                                          for part in value.split(","))
            except ValueError as exc:
                raise ConfigError(f"malformed initial amplitudes: {exc}") from exc
    kwargs["channels"] = tuple(part.strip() for part in pairs["channels"].split(",")
                               if part.strip())
    return ScenarioConfig(**kwargs)


def serialize_config(cfg: ScenarioConfig) -> str:
    lines = [f"system={cfg.system}"]
    if cfg.N is not None:
        lines.append(f"N={cfg.N}")
    lines.append(f"ubar={float(cfg.ubar)!r}")
    if cfg.variant is not None:
        lines.append(f"variant={cfg.variant}")
    if cfg.mode_pair is not None:
        lines.append(f"mode_pair={cfg.mode_pair}")
    lines.append(f"tau_max={float(cfg.tau_max)!r}")
    lines.append(f"steps={cfg.steps}")
    if isinstance(cfg.initial, str):
        lines.append(f"initial={cfg.initial}")
    else:
        lines.append("initial=" + ",".join(_format_complex(a) for a in cfg.initial))
    lines.append(f"integrator={cfg.integrator}")
    lines.append("channels=" + ",".join(cfg.channels))
    if cfg.out is not None:
        lines.append(f"out={cfg.out}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# running


def initial_amplitudes(cfg: ScenarioConfig) -> np.ndarray:
    dim = cfg.dimension
    if isinstance(cfg.initial, str):
        amps = np.zeros(dim, dtype=complex)
        if cfg.system == "boson":
            # basis index = left-well occupation, so all-in-right-well is index 0
            amps[0 if cfg.initial == "right-well" else dim - 1] = 1.0
        else:
            # dynamical basis (sym, both-left, both-right)
            amps[2 if cfg.initial == "right-well" else 1] = 1.0
        return amps
    amps = np.asarray(cfg.initial, dtype=complex)
    return amps / np.linalg.norm(amps)  # config gate is 1e-9; make it exact


def propagate_scenario(cfg: ScenarioConfig) -> Trajectory:
    tau_grid = np.linspace(0.0, cfg.tau_max, cfg.steps)
    if cfg.system == "boson":
        h = boson_dimer_hamiltonian(boson_basis(cfg.N), cfg.ubar)
    else:
        h = fermion_pair_hamiltonian(cfg.ubar, cfg.variant)
    psi0 = initial_amplitudes(cfg)
    if cfg.integrator == "eigen":
        return eigen_propagate(h, psi0, tau_grid)
    spacing = float(np.min(np.diff(tau_grid)))
    dtau = min(DEFAULT_DTAU, spacing)
    return rk4_propagate(h, psi0, tau_grid, dtau=dtau)


def _observables(cfg: ScenarioConfig) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each observable as (operator, second-moment operator) on cfg's
    dynamical basis."""
    if cfg.system == "boson":
        basis = boson_basis(cfg.N)
        cos_cn, sin_cn = boson_cn_phase(basis)
        cos_u, sin_u, _ = boson_unitary_phase(basis)
        ops = (cos_cn, sin_cn, cos_u, sin_u, boson_number_diff(basis))
        moments = [(op.entries, op.entries @ op.entries) for op in ops]
    else:
        space = fermion_sector()
        m, mp = MODE_PAIRS[cfg.mode_pair]
        cos_cn, sin_cn = fermion_cn_phase(space, m, mp)
        cos_u, sin_u, _ = fermion_unitary_phase(space, m, mp)
        ops = (cos_cn, sin_cn, cos_u, sin_u, well_number_diff(space))
        moments = [pair_moments(op) for op in ops]
    return dict(zip(("C_CN", "S_CN", "C_U", "S_U", "W"), moments))


def run_scenario(cfg: ScenarioConfig) -> TimeSeries:
    traj = propagate_scenario(cfg)
    observables = _observables(cfg)
    values: dict[str, np.ndarray] = {}
    for name in cfg.channels:
        kind, operator = _CHANNELS[name]
        if kind == "mean":
            values[name] = expectation_series(observables[operator][0], traj)
        elif kind == "fluct":
            op, second = observables[operator]
            values[name] = fluctuation_series(op, traj, second)
        else:
            values[name] = operator(cfg, traj)
    return TimeSeries(traj.tau_grid, values)


# ---------------------------------------------------------------------------
# CSV


def format_csv(series: TimeSeries, channel_order: Sequence[str]) -> str:
    names = list(channel_order)
    for name in names:
        if name not in series.channels:
            raise ConfigError(f"series has no channel {name!r}")
    lines = ["tau," + ",".join(names)]
    # Python floats format faster than numpy scalars, to the same text; a row
    # at a time, so no list of the whole table's floats is held
    table = np.column_stack([series.tau_grid] + [series.channels[n] for n in names])
    for row in table:
        lines.append(",".join(f"{v:.17g}" for v in row.tolist()))
    return "\n".join(lines) + "\n"


def write_csv(series: TimeSeries, channel_order: Sequence[str],
              path: Union[str, Path]) -> Path:
    target = Path(path)
    text = format_csv(series, channel_order)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {target}: {exc.strerror or exc}") from exc
    return target


def run(cfg: ScenarioConfig) -> Path:
    """Execute one scenario and write its CSV to cfg.out."""
    if cfg.out is None:
        raise ConfigError("config must set out=<path> for run")
    series = run_scenario(cfg)
    return write_csv(series, cfg.channels, cfg.out)


def apply_overrides(cfg: ScenarioConfig, tau_max: Optional[float] = None,
                    steps: Optional[int] = None,
                    integrator: Optional[str] = None) -> ScenarioConfig:
    changes: dict = {}
    if tau_max is not None:
        changes["tau_max"] = tau_max
    if steps is not None:
        changes["steps"] = steps
    if integrator is not None:
        changes["integrator"] = integrator
    return replace(cfg, **changes) if changes else cfg
