"""Named preset dataset bundles (fig1..fig11).

Each preset is the scenarios it propagates. An entry pairs a file stem with
one scenario config; running a preset propagates each entry's config once
and writes each of its channels ``c`` to ``{stem}_{c}.csv`` in the chosen
directory, one tau column and one channel per file. Filenames encode system,
size or mode pair, interaction strength, and channel, e.g.
``fig1_boson_N2_U0.05_avgC_CN.csv``. Reruns are byte-identical.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from .errors import ConfigError, NumericalError
from .scenario import ScenarioConfig, _CsvBundle, run_scenario, write_csv

_PAIR_TAGS = {"l-up/r-down": "lu-rd", "l-up/r-up": "lu-ru"}

WEAK_U = 0.05
STRONG_U = 5.0
BOSON_SIZES = (2, 5, 10)


@dataclass(frozen=True)
class PresetEntry:
    stem: str
    config: ScenarioConfig

    @property
    def filenames(self) -> tuple[str, ...]:
        """The file of each channel of ``config``, in channel order."""
        return tuple(f"{self.stem}_{c}.csv" for c in self.config.channels)


def _boson(fig: str, n: int, ubar: float, channels: tuple[str, ...]) -> PresetEntry:
    cfg = ScenarioConfig(system="boson", N=n, ubar=ubar, channels=channels)
    return PresetEntry(f"{fig}_boson_N{n}_U{ubar:g}", cfg)


def _fermion(fig: str, ubar: float, channels: tuple[str, ...],
             mode_pair: str | None = None) -> PresetEntry:
    cfg = ScenarioConfig(system="fermion", ubar=ubar, channels=channels,
                         mode_pair=mode_pair)
    tag = "" if mode_pair is None else f"_{_PAIR_TAGS[mode_pair]}"
    return PresetEntry(f"{fig}_fermion{tag}_U{ubar:g}", cfg)


def _boson_average_fig(fig: str, ubar: float, kind: str) -> tuple[PresetEntry, ...]:
    return tuple(_boson(fig, n, ubar, (f"avg{kind}_CN", f"avg{kind}_U"))
                 for n in BOSON_SIZES)


def _fermion_phase_fig(fig: str, mode_pair: str, ubar: float) -> tuple[PresetEntry, ...]:
    return (_fermion(fig, ubar, ("avgC_U", "avgS_U", "fluctC", "fluctS"), mode_pair),)


def _imbalance_fig(fig: str, ubars: tuple[float, ...]) -> tuple[PresetEntry, ...]:
    return tuple(entry for ubar in ubars
                 for entry in (_boson(fig, 2, ubar, ("avgW", "fluctW")),
                               _fermion(fig, ubar, ("avgW", "fluctW"))))


PRESETS: dict[str, tuple[PresetEntry, ...]] = {
    "fig1": _boson_average_fig("fig1", WEAK_U, "C"),
    "fig2": _boson_average_fig("fig2", STRONG_U, "C"),
    "fig3": _boson_average_fig("fig3", WEAK_U, "S"),
    "fig4": _boson_average_fig("fig4", STRONG_U, "S"),
    "fig5": _fermion_phase_fig("fig5", "l-up/r-down", WEAK_U),
    "fig6": _fermion_phase_fig("fig6", "l-up/r-down", STRONG_U),
    "fig7": _fermion_phase_fig("fig7", "l-up/r-up", WEAK_U),
    "fig8": _fermion_phase_fig("fig8", "l-up/r-up", STRONG_U),
    "fig9": tuple(_boson("fig9", 2, ubar, ("fluctC", "fluctS"))
                  for ubar in (WEAK_U, STRONG_U)),
    "fig10": _imbalance_fig("fig10", (WEAK_U, 0.5)),
    "fig11": _imbalance_fig("fig11", (STRONG_U,)),
}
PRESET_NAMES = tuple(PRESETS)


def preset_entries(name: str) -> tuple[PresetEntry, ...]:
    try:
        return PRESETS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ConfigError(
            f"unknown preset {name!r}; expected one of {PRESET_NAMES}"
        ) from None


def run_figure(name: str, out_dir: Union[str, Path]) -> list[Path]:
    """Run one preset bundle sequentially, returning the written CSV paths.

    Each entry's config is propagated once. The texts of all files are
    formatted together when the first is written, each distinct column (tau
    once) laid out once, so a header or non-finite value any file would fail
    on leaves every file as it was. If a write fails, the files and then the
    directories this call created are removed before the error propagates;
    files it replaced keep their new content.
    """
    entries = preset_entries(name)
    if not isinstance(out_dir, (str, os.PathLike)):  # Path() takes nothing else
        raise ConfigError(f"output directory must be a path, got {out_dir!r}")
    if out_dir == "":  # Path("") is the working directory
        raise ConfigError("output directory must not be empty, got ''")
    out = Path(out_dir)
    files = []  # (target, series, one-channel order), in file order
    for entry in entries:
        series = run_scenario(entry.config)
        files += [(out / filename, series, (channel,))
                  for filename, channel in zip(entry.filenames, entry.config.channels)]
    bundle = _CsvBundle((series, channels) for _, series, channels in files)
    # the directories write_csv's mkdir would create, deepest first
    made_dirs = list(itertools.takewhile(lambda d: not os.path.lexists(d),
                                         (out, *out.parents)))
    written: list[Path] = []
    created: list[Path] = []
    try:
        for target, series, channels in files:
            existed = os.path.lexists(target)
            written.append(write_csv(series, channels, target, _bundle=bundle))
            if not existed:
                created.append(target)
    except (ConfigError, NumericalError):
        for path in created:  # leave no new file of a partial bundle
            with contextlib.suppress(OSError):
                path.unlink()
        for directory in made_dirs:  # rmdir removes only an empty one
            with contextlib.suppress(OSError, ValueError):  # ValueError: a NUL
                directory.rmdir()
        raise
    return written
