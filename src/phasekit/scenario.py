"""Scenario configs, channel evaluation, and CSV emission.

Config format: flat UTF-8 ``key=value`` lines, ``#`` comments, no nesting.
Parsing then re-serializing is a fixed point (canonical key order and value
formatting), which the test suite pins.

CSV format: header ``tau,<channel names>``, one row per grid point, '.'
decimal, ',' separator, LF line endings, no quoting, 17 significant digits —
enough to round-trip doubles, so reruns are byte-identical on one platform.
This module alone knows that format. Rows are formatted 256 at a time from a
template of their tau cells. The files of one ``figure`` command share one
template table, so each tau grid is formatted once per command and channel
count, and nothing is kept between commands. A non-finite value fails before
any text is built, and each file is written to a temporary name beside it and
then renamed over the target, so a failed write leaves no partial file.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, NumericalError
from .evolve import DEFAULT_DTAU, Trajectory, eigen_propagate, rk4_propagate
from .fock import _check_unit_norm, boson_basis, fermion_sector
from .hamiltonians import (
    DEFAULT_FERMION_VARIANT,
    FERMION_VARIANTS,
    boson_dimer_hamiltonian,
    fermion_pair_hamiltonian,
)
from .observe import (
    TimeSeries,
    _spread,
    _xi_boson_form,
    _xi_fermion_forms,
    expectation_series,
    pair_moments,
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

# observable -> (operator family, its position in the family)
_OBSERVABLES = {
    "C_CN": ("CN", 0),
    "S_CN": ("CN", 1),
    "C_U": ("U", 0),
    "S_U": ("U", 1),
    "W": ("W", 0),
}
# channel -> (kind, operator). "mean" and "fluct" channels serve both systems
# and name an observable of _OBSERVABLES; a "boson" or "fermion" channel is a
# squeezing form of that system only, computed by operator(moment table).
# xi, xi_variance and xi_second_moment are the forms of xi_boson and
# xi_fermion, taken from the run's moments of W.
_CHANNELS = {
    "avgC_CN": ("mean", "C_CN"),
    "avgS_CN": ("mean", "S_CN"),
    "avgC_U": ("mean", "C_U"),
    "avgS_U": ("mean", "S_U"),
    "fluctC": ("fluct", "C_U"),
    "fluctS": ("fluct", "S_U"),
    "avgW": ("mean", "W"),
    "fluctW": ("fluct", "W"),
    "xi": ("boson", lambda table: _xi_boson_form(table.spread("W"), table.cfg.N)),
    "xi_variance": ("fermion", lambda table: _xi_fermion_forms(*table.moments("W"))[0]),
    "xi_second_moment": ("fermion",
                         lambda table: _xi_fermion_forms(*table.moments("W"))[1]),
    "xi_closed": ("fermion", lambda table: xi_fermion_closed_form(
        table.cfg.ubar, table.traj.tau_grid)),
}
BOSON_CHANNELS = tuple(n for n, (kind, _) in _CHANNELS.items() if kind != "fermion")
FERMION_CHANNELS = tuple(n for n, (kind, _) in _CHANNELS.items() if kind != "boson")

_CONFIG_KEYS = ("system", "N", "ubar", "variant", "mode_pair", "tau_max",
                "steps", "initial", "integrator", "channels", "out")

# Work limits, checked before any array is built. Presets, tests and the
# benchmark use N <= 10 and at most 40 001 x 3 grid amplitudes. Operators are
# dense (N+1)^2. On 2 cores with one BLAS thread, a boson run with every
# channel at the grid limit takes about 6 s and 0.6 GB, most of it CSV text.
MAX_N = 500
MAX_GRID_AMPLITUDES = 2_000_000


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
        if not isinstance(self.steps, numbers.Integral):
            raise ConfigError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 2:
            raise ConfigError(f"steps must be at least 2, got {self.steps}")

        if self.system == "boson":
            if self.N is None:
                raise ConfigError("boson scenarios need N")
            if not isinstance(self.N, numbers.Integral):
                raise ConfigError(f"N must be an integer, got {self.N!r}")
            if not 1 <= self.N <= MAX_N:
                raise ConfigError(f"N must be in 1..{MAX_N}, got {self.N}")
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
        if self.steps * self.dimension > MAX_GRID_AMPLITUDES:
            raise ConfigError(
                f"steps x dimension = {self.steps} x {self.dimension} exceeds "
                f"{MAX_GRID_AMPLITUDES} grid amplitudes"
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
            if len(amps) != self.dimension:
                raise ConfigError(f"initial amplitude list must have length "
                                  f"{self.dimension}, got {len(amps)}")
            _check_unit_norm(amps)
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

    for required in ("system", "ubar", "channels"):
        if required not in pairs:
            raise ConfigError(f"missing required key {required!r}")

    kwargs: dict = {"system": pairs["system"]}
    try:
        kwargs["ubar"] = float(pairs["ubar"])
        if "N" in pairs:
            kwargs["N"] = int(pairs["N"])
        if "tau_max" in pairs:
            kwargs["tau_max"] = float(pairs["tau_max"])
        if "steps" in pairs:
            kwargs["steps"] = int(pairs["steps"])
    except ValueError as exc:
        raise ConfigError(f"malformed numeric value: {exc}") from exc
    for key in ("variant", "mode_pair", "integrator", "out"):
        if key in pairs:
            kwargs[key] = pairs[key]
    if "initial" in pairs:
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
    # only linspace's last product can overflow, and tau_max replaces it
    with np.errstate(over="ignore"):
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


def _family_operators(cfg: ScenarioConfig,
                      family: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each observable of ``family`` as (operator, second-moment operator) on
    cfg's dynamical basis."""
    if cfg.system == "boson":
        basis = boson_basis(cfg.N)
        if family == "W":
            ops = (boson_number_diff(basis),)
        else:
            ops = (boson_cn_phase if family == "CN" else boson_unitary_phase)(basis)[:2]
        return [(op.entries, op.entries @ op.entries) for op in ops]
    space = fermion_sector()
    if family == "W":
        ops = (well_number_diff(space),)
    else:
        build = fermion_cn_phase if family == "CN" else fermion_unitary_phase
        ops = build(space, *MODE_PAIRS[cfg.mode_pair])[:2]
    return [pair_moments(op) for op in ops]


class _MomentTable:
    """One run's observable moments: an operator family is built when a
    channel first needs it, and each moment is evaluated at most once."""

    def __init__(self, cfg: ScenarioConfig, traj: Trajectory) -> None:
        self.cfg = cfg
        self.traj = traj
        self._families: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
        self._moments: dict[tuple[str, int], np.ndarray] = {}

    def moment(self, name: str, order: int) -> np.ndarray:
        """<A> (order 1) or <A^2> (order 2) per state for observable ``name``."""
        key = (name, order)
        if key not in self._moments:
            family, index = _OBSERVABLES[name]
            if family not in self._families:
                self._families[family] = _family_operators(self.cfg, family)
            operator = self._families[family][index][order - 1]
            self._moments[key] = expectation_series(operator, self.traj)
        return self._moments[key]

    def moments(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        return self.moment(name, 1), self.moment(name, 2)

    def spread(self, name: str) -> np.ndarray:
        """The fluctuation of ``name``, as ``fluctuation_series`` computes it."""
        return _spread(*self.moments(name))


def run_scenario(cfg: ScenarioConfig) -> TimeSeries:
    traj = propagate_scenario(cfg)
    table = _MomentTable(cfg, traj)
    values: dict[str, np.ndarray] = {}
    for name in cfg.channels:
        kind, operator = _CHANNELS[name]
        if kind == "mean":
            values[name] = table.moment(operator, 1)
        elif kind == "fluct":
            values[name] = table.spread(operator)
        else:
            values[name] = operator(table)
    return TimeSeries(traj.tau_grid, values)


# ---------------------------------------------------------------------------
# CSV


_CSV_BLOCK_ROWS = 256
# one command's row templates: (tau grid bytes, channel count) -> the
# template of each 256-row block
_Templates = dict[tuple[bytes, int], list[str]]


def _tau_cells(tau: np.ndarray) -> list[str]:
    return ["%.17g" % t for t in tau.tolist()]


def _block_templates(cells: list[str], width: int) -> list[str]:
    # a block's tau cells, each followed by one ",%.17g" per channel
    row = ",%.17g" * width
    return ["\n".join(t + row for t in cells[start:start + _CSV_BLOCK_ROWS])
            for start in range(0, len(cells), _CSV_BLOCK_ROWS)]


def format_csv(series: TimeSeries, channel_order: Sequence[str], *,
               _templates: Optional[_Templates] = None) -> str:
    """CSV text of ``series``; NumericalError if any emitted value is not finite."""
    names = list(channel_order)
    for name in names:
        if name not in series.channels:
            raise ConfigError(f"series has no channel {name!r}")
    tau = series.tau_grid
    for name, column in [("tau", tau)] + [(n, series.channels[n]) for n in names]:
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            raise NumericalError(f"channel {name!r} is {float(column[bad[0]])!r} "
                                 f"at tau={float(tau[bad[0]])!r}")
    table = np.empty((len(tau), len(names)))
    for j, name in enumerate(names):
        table[:, j] = series.channels[name]
    # the files of one figure command share a table; any other call has its own
    templates = {} if _templates is None else _templates
    key = (tau.tobytes(), len(names))
    if key not in templates:
        templates[key] = _block_templates(_tau_cells(tau), len(names))
    lines = ["tau," + ",".join(names)]
    # one % per block of rows; "%.17g" on a Python float is the same text as
    # f"{v:.17g}". Blocks bound the list of Python floats held at once.
    for start, template in zip(range(0, len(tau), _CSV_BLOCK_ROWS), templates[key]):
        lines.append(template % tuple(table[start:start + _CSV_BLOCK_ROWS].ravel().tolist()))
    return "\n".join(lines) + "\n"


def write_csv(series: TimeSeries, channel_order: Sequence[str],
              path: Union[str, Path], *,
              _templates: Optional[_Templates] = None) -> Path:
    """Write the CSV of ``series`` to ``path`` atomically and return ``path``.

    The text goes to a temporary file beside the target, which then replaces
    it, so an interrupted or failed write leaves any old target whole.
    """
    target = Path(path)
    text = format_csv(series, channel_order, _templates=_templates)
    # a fixed-length name, so it fits wherever the target's name fits
    temp = target.parent / f".phasekit-{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(temp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(temp, target)
    except (OSError, ValueError) as exc:  # ValueError: a path the OS cannot take (NUL)
        with contextlib.suppress(OSError, ValueError):
            temp.unlink()
        raise ConfigError(
            f"cannot write {target}: {getattr(exc, 'strerror', None) or exc}") from exc
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
