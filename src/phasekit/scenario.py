"""Scenario configs, channel evaluation, and CSV emission.

Config format: flat UTF-8 ``key=value`` lines, ``#`` comments, no nesting.
One table, ``_CONFIG_TEXT``, gives each ``ScenarioConfig`` field, in the
canonical key order, its text parser and formatter; ``parse_config`` and
``serialize_config`` both read it. A value its parser refuses is a
ConfigError naming the key, and parsing then re-serializing is a fixed
point, which the test suite pins.

CSV format: header ``tau,<channel names>``, one row per grid point, '.'
decimal, ',' separator, LF line endings, no quoting, 17 significant digits —
enough to round-trip doubles, so reruns are byte-identical on one platform.
This module alone knows that format. Each cell is the text ``"%.17g"``
gives, built in numpy from the 17 exact integer digits of an error-free
float product, 8192 cells at a time, with no Python object per value; a cell
outside fixed notation is formatted by ``"%.17g"`` itself. The files of one
``figure`` command are formatted together, so each distinct column, its tau
grid included, is laid out once. A non-finite value, or a header that would
not parse back (no channel, a repeated name, a channel named tau, a name
holding ',' or a line break), in any of them fails before any text is built,
and each file is written to a temporary name beside it and then renamed over
the target, so a failed write leaves no partial file.
"""

from __future__ import annotations

import contextlib
import numbers
import os
import threading
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, NumericalError
from .evolve import DEFAULT_DTAU, Trajectory, eigen_propagate, rk4_propagate
from .fock import _check_unit_norm, fock_state
from .hamiltonians import (_check_ubar, _is_finite, boson_dimer_hamiltonian,
                           fermion_pair_hamiltonian)
from .observe import TimeSeries, expectation_series, pair_moments, xi_fermion_closed_form
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
# squeezing form of that system only, computed by operator(moment table). This
# table is the one place a fluctuation or a squeezing form is computed: xi is
# (delta W)^2 / N; the pair's xi_variance and xi_second_moment are
# (delta W)^2 / N and <W^2> / N with N = 2, which differ already at tau = 0
# (0 versus 2) for the both-in-one-well start, so both are emitted.
_CHANNELS = {
    "avgC_CN": ("mean", "C_CN"),
    "avgS_CN": ("mean", "S_CN"),
    "avgC_U": ("mean", "C_U"),
    "avgS_U": ("mean", "S_U"),
    "fluctC": ("fluct", "C_U"),
    "fluctS": ("fluct", "S_U"),
    "avgW": ("mean", "W"),
    "fluctW": ("fluct", "W"),
    "xi": ("boson", lambda table: (dw := table.spread("W")) * dw / float(table.cfg.N)),
    "xi_variance": ("fermion", lambda table: table.variance("W") / 2.0),
    "xi_second_moment": ("fermion", lambda table: table.moment("W", 2) / 2.0),
    "xi_closed": ("fermion", lambda table: xi_fermion_closed_form(
        table.cfg.ubar, table.traj.tau_grid)),
}
BOSON_CHANNELS = tuple(n for n, (kind, _) in _CHANNELS.items() if kind != "fermion")
FERMION_CHANNELS = tuple(n for n, (kind, _) in _CHANNELS.items() if kind != "boson")

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
    mode_pair: Optional[str] = None
    tau_max: float = 40.0
    steps: int = 2001
    initial: Union[str, tuple[complex, ...]] = "right-well"
    integrator: str = "eigen"
    channels: tuple[str, ...] = ()
    out: Optional[str] = None

    def __post_init__(self) -> None:
        # types first: math.isfinite raises TypeError on a string, a bool is
        # an Integral that serializes as "True", which parse_config rejects,
        # a list is no dict key, and out=5 would parse back as "5"
        _check_ubar(self.ubar)
        for name, kind, what in (("tau_max", numbers.Real, "a real number"),
                                 ("N", (numbers.Integral, type(None)), "an integer"),
                                 ("steps", numbers.Integral, "an integer"),
                                 ("mode_pair", (str, type(None)), "a string"),
                                 ("out", (str, type(None)), "a string")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(f"{name} must be {what}, got {value!r}")
        # a numpy integer would wrap in steps x dimension below
        for name in ("N", "steps"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, int(getattr(self, name)))
        if self.system not in SYSTEMS:
            raise ConfigError(f"system must be one of {SYSTEMS}, got {self.system!r}")
        if self.integrator not in INTEGRATORS:
            raise ConfigError(
                f"integrator must be one of {INTEGRATORS}, got {self.integrator!r}"
            )
        if not (_is_finite(self.tau_max) and self.tau_max > 0):
            raise ConfigError(f"tau_max must be positive and finite, got {self.tau_max!r}")
        # a numpy float32 would make linspace build a float32 grid
        object.__setattr__(self, "tau_max", float(self.tau_max))
        if self.steps < 2:
            raise ConfigError(f"steps must be at least 2, got {self.steps}")
        # parse_config cuts a value at '#' or a line break and strips it, and
        # Path("") is the working directory
        if self.out == "":
            raise ConfigError("out must not be empty, got ''")
        if self.out is not None and ("#" in self.out or self.out != self.out.strip()
                                     or len(self.out.splitlines()) > 1):
            raise ConfigError(f"out must hold no '#' or line break and no leading or "
                              f"trailing whitespace, got {self.out!r}")
        # Path drops a trailing '/' or '/.', so the CSV would land on the
        # directory's name; a last part '..' names a directory too
        if self.out is not None and self.out.rsplit("/", 1)[-1] in ("", ".", ".."):
            raise ConfigError(f"out must name a file, not a directory, got {self.out!r}")

        if self.system == "boson":
            if self.N is None:
                raise ConfigError("boson scenarios need N")
            if not 1 <= self.N <= MAX_N:
                raise ConfigError(f"N must be in 1..{MAX_N}, got {self.N}")
            if self.mode_pair is not None:
                raise ConfigError("mode_pair applies to fermion scenarios only")
        else:
            if self.N is not None:
                raise ConfigError("N applies to boson scenarios only")
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
        # a string would read as one-letter names
        if isinstance(self.channels, str) or not isinstance(self.channels, Iterable):
            raise ConfigError(f"channels must be a sequence of channel names, "
                              f"got {self.channels!r}")
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
            try:
                amps = tuple(complex(a) for a in self.initial)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"initial must be right-well, left-well, or "
                                  f"amplitudes; got {self.initial!r}") from exc
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


def _parse_initial(text: str) -> Union[str, tuple[complex, ...]]:
    if text in ("right-well", "left-well"):
        return text
    return tuple(complex(part.strip()) for part in text.split(","))


def _format_initial(initial: Union[str, tuple[complex, ...]]) -> str:
    return initial if isinstance(initial, str) else ",".join(map(_format_complex, initial))


def _format_real(value: float) -> str:
    return repr(float(value))


# config key -> (text parser, text formatter), in the order serialize_config
# writes them; a parser raises ValueError on malformed text
_CONFIG_TEXT = {
    "system": (str, str),
    "N": (int, str),
    "ubar": (float, _format_real),
    "mode_pair": (str, str),
    "tau_max": (float, _format_real),
    "steps": (int, str),
    "initial": (_parse_initial, _format_initial),
    "integrator": (str, str),
    "channels": (lambda text: tuple(p.strip() for p in text.split(",") if p.strip()),
                 ",".join),
    "out": (str, str),
}


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
        if key not in _CONFIG_TEXT:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        pairs[key] = value

    for required in ("system", "ubar", "channels"):
        if required not in pairs:
            raise ConfigError(f"missing required key {required!r}")

    kwargs = {}
    for key, value in pairs.items():
        try:
            kwargs[key] = _CONFIG_TEXT[key][0](value)
        except ValueError as exc:
            raise ConfigError(f"malformed {key} value: {exc}") from exc
    return ScenarioConfig(**kwargs)


def serialize_config(cfg: ScenarioConfig) -> str:
    return "".join(f"{key}={format_value(value)}\n"
                   for key, (_, format_value) in _CONFIG_TEXT.items()
                   if (value := getattr(cfg, key)) is not None)


# ---------------------------------------------------------------------------
# running


def initial_amplitudes(cfg: ScenarioConfig) -> np.ndarray:
    if isinstance(cfg.initial, str):
        if cfg.system == "boson":
            return fock_state(cfg.N, cfg.initial)
        # dynamical basis (sym, both-left, both-right)
        amps = np.zeros(3, dtype=complex)
        amps[2 if cfg.initial == "right-well" else 1] = 1.0
        return amps
    amps = np.asarray(cfg.initial, dtype=complex)
    return amps / np.linalg.norm(amps)  # config gate is 1e-9; make it exact


def propagate_scenario(cfg: ScenarioConfig) -> Trajectory:
    # only linspace's last product can overflow, and tau_max replaces it
    with np.errstate(over="ignore"):
        tau_grid = np.linspace(0.0, cfg.tau_max, cfg.steps)
    if cfg.system == "boson":
        h = boson_dimer_hamiltonian(cfg.N, cfg.ubar)
    else:
        h = fermion_pair_hamiltonian(cfg.ubar)
    psi0 = initial_amplitudes(cfg)
    if cfg.integrator == "eigen":
        return eigen_propagate(h, psi0, tau_grid)
    # the spacing linspace used, which the RK4 kernel takes for every interval
    spacing = cfg.tau_max / (cfg.steps - 1)
    return rk4_propagate(h, psi0, tau_grid, dtau=min(DEFAULT_DTAU, spacing))


def _family_operators(cfg: ScenarioConfig,
                      family: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each observable of ``family`` as (operator, second-moment operator) on
    cfg's dynamical basis."""
    if cfg.system == "boson":
        if family == "W":
            ops = (boson_number_diff(cfg.N),)
        else:
            ops = (boson_cn_phase if family == "CN" else boson_unitary_phase)(cfg.N)[:2]
        return [(op, op @ op) for op in ops]
    if family == "W":
        ops = (well_number_diff(),)
    else:
        build = fermion_cn_phase if family == "CN" else fermion_unitary_phase
        ops = build(*MODE_PAIRS[cfg.mode_pair])[:2]
    return [pair_moments(op) for op in ops]


RADICAND_ERROR_TOL = -1e-10


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

    def variance(self, name: str) -> np.ndarray:
        """<A^2> - <A>^2 per state for observable ``name``."""
        mean = self.moment(name, 1)
        return self.moment(name, 2) - mean * mean

    def spread(self, name: str) -> np.ndarray:
        """sqrt(<A^2> - <A>^2) per state for observable ``name``; a variance
        below RADICAND_ERROR_TOL means inconsistent moments, and smaller
        negative rounding is clipped to 0."""
        radicand = self.variance(name)
        worst = float(np.min(radicand)) if radicand.size else 0.0
        if worst < RADICAND_ERROR_TOL:
            raise NumericalError(
                f"fluctuation radicand {worst:.3e} below tolerance; inconsistent moments"
            )
        return np.sqrt(np.clip(radicand, 0.0, None))


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


# The exact text kernel. A double |v| with X = floor(log10|v|) has the 17
# significant digits D = |v| * 10**k, k = 16 - X, rounded half to even.
# 10**k is exact for k <= 20, and Dekker's error-free product (Numer. Math.
# 18:224, 1971) gives |v| * 10**k = p + e exactly from float64 operations.
# Where D has 17 digits, p >= 10**16 > 2**53 is an even integer, so D = p +
# rint(e). "%.17g" writes fixed notation for X in -4..16, which is laid out
# from D by one row permutation per exponent. Zeros have their own layout,
# and any other cell (exponent notation, an estimate of X off by one, a
# carry to 10**17) is formatted by "%.17g". uint64 and int64 arrays are
# never mixed: numpy promotes the mix to float64.
_CSV_BLOCK_CELLS = 8192  # cells laid out at once; bounds the planes held
_CELL_BYTES = 25  # the longest "%.17g" text, "-1.2345678901234567e-308", + separator
_TEXT_BYTES = _CELL_BYTES - 1
_U64 = np.uint64
# cell classes: 0..20 are the fixed-notation exponents -4..16, then these
_ZERO_CLASS, _OTHER_CLASS = 21, 22
# rows of the source plane: the 17 digits, then these
_ZERO_ROW, _DOT_ROW, _SIGN_ROW, _NUL_ROW = 17, 18, 19, 20
# the class of floor(log10|v|) clipped to -5..17, indexed from -5
_CLASS_OF_EXPONENT = np.array([_OTHER_CLASS, *range(21), _OTHER_CLASS], dtype=np.int8)
_SPLIT = float(2 ** 27 + 1)  # Veltkamp's splitter: 53 bits = 26 + 27
# per class, 10**k and its two halves; 1 for the last two
_SCALE = np.array([float(10 ** k) for k in range(20, -1, -1)] + [1.0, 1.0])
_SCALE_HIGH = _SPLIT * _SCALE - (_SPLIT * _SCALE - _SCALE)
_SCALE_LOW = _SCALE - _SCALE_HIGH
_DIGIT_INDEX = np.arange(17, dtype=np.int8)[:, None]


def _cell_layouts() -> np.ndarray:
    # per class, the source row of each text byte
    layouts = np.full((_ZERO_CLASS + 1, _TEXT_BYTES), _NUL_ROW, dtype=np.intp)
    for x in range(-4, 17):
        if x >= 0:
            rows = [_SIGN_ROW, *range(x + 1), _DOT_ROW, *range(x + 1, 17)]
        else:
            rows = [_SIGN_ROW, _ZERO_ROW, _DOT_ROW, *[_ZERO_ROW] * (-x - 1), *range(17)]
        layouts[x + 4, :len(rows)] = rows
    layouts[_ZERO_CLASS, :2] = (_SIGN_ROW, _ZERO_ROW)
    return layouts


_CELL_LAYOUTS = _cell_layouts()


def _exponent_class(values: np.ndarray) -> np.ndarray:
    """Per value, X + 4 for the fixed-notation exponents X = -4..16 by a
    log10 estimate, else _ZERO_CLASS or _OTHER_CLASS."""
    magnitude = np.abs(values)
    with np.errstate(divide="ignore"):  # log10(0) is -inf, clipped below
        exponent = np.log10(magnitude)
    np.floor(exponent, out=exponent)
    np.clip(exponent, -5, 17, out=exponent)
    exponent += 5
    cls = _CLASS_OF_EXPONENT[exponent.astype(np.intp)]
    cls[magnitude == 0] = _ZERO_CLASS
    return cls


def _digits17(values: np.ndarray, cls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D, the 17 significant digits of each value of class ``cls`` as one
    integer, and where D is exact; elsewhere D is meaningless."""
    a = np.abs(values)
    a[cls >= _ZERO_CLASS] = 1.0  # outside fixed notation 1 * 1: no cast leaves int64
    scale_high, scale_low = _SCALE_HIGH[cls], _SCALE_LOW[cls]
    product = a * _SCALE[cls]
    # Veltkamp's split of a, then Dekker's error, each product and sum one
    # numpy operation (never fused), as the proof assumes
    a_high = _SPLIT * a
    a_high -= a_high - a
    a -= a_high  # the low half
    error = product - a_high * scale_high
    error -= a * scale_high
    error -= a_high * scale_low
    np.subtract(a * scale_low, error, out=error)  # |v| * 10**k - product, exactly
    digits = product.astype(np.int64)
    digits += np.rint(error, out=error).astype(np.int64)  # product is even: ties to even
    # X was not too large (no double's product lies within 1/2 below
    # 10**16) or too small, and no carry
    exact = (digits >= 10 ** 16) & (digits < 10 ** 17)
    return digits.view(np.uint64), exact


def _source_rows(digits: np.ndarray, cls: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(_NUL_ROW + 1, len(values)) uint8: the ASCII digits of D, NUL past the
    fraction's last nonzero digit, then the rows '0', '.' (NUL when the
    fraction is empty), the sign (NUL when positive) and NUL."""
    count = values.size
    source = np.empty((_NUL_ROW + 1, count), dtype=np.uint8)
    # the digits as 9 + 8: the lower 8 times 10 are 9 digits, and their last
    # one, 0, lands in _ZERO_ROW
    upper = digits // _U64(10 ** 8)
    work = np.empty((2, count), dtype=np.uint32)
    work[0] = upper
    work[1] = (digits - upper * _U64(10 ** 8)) * _U64(10)
    digit_rows = source[:18].reshape(2, 9, count)
    for j in range(8, -1, -1):
        rest = work // np.uint32(10)
        np.subtract(work, rest * np.uint32(10), out=digit_rows[:, j], casting="unsafe")
        work = rest
    # keep the integer digits and the fraction up to its last nonzero digit
    x = cls - np.int8(4)
    last = ((source[:17] != 0) * _DIGIT_INDEX).max(axis=0)
    kept = np.maximum(last, x) + np.int8(1)
    source[:17] += ord("0")
    source[:17] *= _DIGIT_INDEX < kept
    source[_ZERO_ROW] = ord("0")
    source[_DOT_ROW] = np.where(kept > x + np.int8(1), ord("."), 0)
    source[_SIGN_ROW] = np.where(np.signbit(values), ord("-"), 0)
    source[_NUL_ROW] = 0
    return source


def _cell_text(values: np.ndarray) -> np.ndarray:
    """(len(values), _CELL_BYTES) uint8: the "%.17g" text of each finite
    value, NUL-padded, with its last byte left for the separator."""
    cls = _exponent_class(values)
    # cells sorted by class, so each class's layout is one block of columns
    order = np.argsort(cls, kind="stable")
    sizes = np.bincount(cls, minlength=_OTHER_CLASS + 1).tolist()
    cls = cls[order]
    values = values[order]
    digits, exact = _digits17(values, cls)
    source = _source_rows(digits, cls, values)
    plane = np.empty((_TEXT_BYTES, values.size), dtype=np.uint8)
    start = 0
    for c, size in enumerate(sizes[:_OTHER_CLASS]):
        plane[:, start:start + size] = source[_CELL_LAYOUTS[c], start:start + size]
        start += size
    exact |= cls == _ZERO_CLASS
    other = np.flatnonzero(~exact)
    if other.size:
        texts = np.array(["%.17g" % v for v in values[other].tolist()], dtype=f"S{_TEXT_BYTES}")
        plane[:, other] = texts.view(np.uint8).reshape(-1, _TEXT_BYTES).T
    cells = np.empty((values.size, _CELL_BYTES), dtype=np.uint8)
    cells[order, :_TEXT_BYTES] = plane.T
    return cells


def _check_csv(series: TimeSeries, names: list[str]) -> None:
    """ConfigError if the header of ``names`` would not parse back,
    NumericalError if any of their values or tau is not finite."""
    if not names:
        raise ConfigError("a CSV needs at least one channel")
    for name in names:
        if not isinstance(name, str) or any(c in name for c in ",\r\n"):
            raise ConfigError(f"channel name {name!r} is not a CSV header cell")
        if name not in series.channels:
            raise ConfigError(f"series has no channel {name!r}")
    if len({"tau", *names}) != len(names) + 1:
        raise ConfigError(f"channel names repeat: {['tau', *names]}")
    tau = series.tau_grid
    for name, column in [("tau", tau)] + [(n, series.channels[n]) for n in names]:
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            raise NumericalError(f"channel {name!r} is {float(column[bad[0]])!r} "
                                 f"at tau={float(tau[bad[0]])!r}")


def _format_files(files: list[tuple[TimeSeries, list[str]]]) -> dict[tuple, str]:
    """The CSV text of each (series, names) of ``files``, all of one row
    count, keyed by (id(series), tuple(names)), after every file is checked.
    Each distinct column, keyed by its bytes, goes through ``_cell_text``
    once, a block of rows at a time, and each file's rows are cut from that
    block."""
    for series, names in files:
        _check_csv(series, names)
    index: dict[bytes, int] = {}
    columns: list[np.ndarray] = []
    picks: list[list[int]] = []
    for series, names in files:
        file_picks = []
        for column in (series.tau_grid, *(series.channels[n] for n in names)):
            j = index.setdefault(column.tobytes(), len(columns))
            if j == len(columns):
                columns.append(column)
            file_picks.append(j)
        picks.append(file_picks)
    del index  # a copy of every column; freed before the pass
    table = np.stack(columns, axis=1)
    width = len(columns)
    every = list(range(width))
    parts = [["tau," + ",".join(names) + "\n"] for _, names in files]
    rows = max(1, _CSV_BLOCK_CELLS // width)
    for start in range(0, len(table), rows):
        cells = _cell_text(table[start:start + rows].ravel()).reshape(-1, width, _CELL_BYTES)
        for file_picks, part in zip(picks, parts):
            # each file sets every separator of its cells, so it may take the
            # shared cells as they are
            block = cells if file_picks == every else cells.take(file_picks, axis=1)
            block[:, :, -1] = ord(",")
            block[:, -1, -1] = ord("\n")
            part.append(block.tobytes().translate(None, b"\0").decode("ascii"))  # drop the NULs
    return {(id(series), tuple(names)): "".join(part)
            for (series, names), part in zip(files, parts)}


class _CsvBundle:
    """The CSV texts of several (series, channel_order) files, formatted
    together by ``_format_files`` on first use, so a column two files hold (a
    figure command's tau grid) is laid out once."""

    def __init__(self, files: Iterable[tuple[TimeSeries, Sequence[str]]]) -> None:
        self._files = [(series, list(names)) for series, names in files]
        self._texts: Optional[dict[tuple, str]] = None

    def text(self, series: TimeSeries, names: list[str]) -> str:
        if self._texts is None:
            self._texts = _format_files(self._files)
        return self._texts[id(series), tuple(names)]


def format_csv(series: TimeSeries, channel_order: Sequence[str], *,
               _bundle: Optional[_CsvBundle] = None) -> str:
    """CSV text of ``series``; ConfigError if its header would not parse back,
    NumericalError if any emitted value is not finite.

    Given ``_bundle``, a figure command's bundle holding this file, it
    returns the text that bundle formatted with every file of the command, or
    raises the first error of any of them; without it, the call formats a
    one-file bundle.
    """
    names = list(channel_order)
    bundle = _bundle if _bundle is not None else _CsvBundle([(series, names)])
    return bundle.text(series, names)


def write_csv(series: TimeSeries, channel_order: Sequence[str],
              path: Union[str, Path], *, _bundle: Optional[_CsvBundle] = None) -> Path:
    """Write the CSV of ``series`` to ``path`` atomically and return ``path``.

    The text is one ``format_csv`` call's, passed ``_bundle``. It goes to a
    temporary file beside the target, which then replaces it, so an
    interrupted or failed write leaves any old target whole.
    """
    if not isinstance(path, (str, os.PathLike)):  # Path() takes nothing else
        raise ConfigError(f"CSV target must be a path, got {path!r}")
    target = Path(path)
    text = format_csv(series, channel_order, _bundle=_bundle)
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
        reason = getattr(exc, "strerror", None) or exc
        if isinstance(exc, (FileExistsError, NotADirectoryError)):
            # mkdir met a file where a directory must be: name it, not errno
            blocker = next((part for part in reversed(target.parents)
                            if part.exists() and not part.is_dir()), None)
            reason = f"{blocker} is not a directory" if blocker else reason
        raise ConfigError(f"cannot write {target}: {reason}") from exc
    return target


def run(cfg: ScenarioConfig) -> Path:
    """Execute one scenario and write its CSV to cfg.out."""
    if cfg.out is None:
        raise ConfigError("config must set out=<path> for run")
    series = run_scenario(cfg)
    return write_csv(series, cfg.channels, cfg.out)

