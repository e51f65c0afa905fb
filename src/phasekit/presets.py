"""Named preset dataset bundles (fig1..fig11).

Each preset expands to a list of single-channel scenarios; running a preset
writes one CSV per scenario into the chosen directory, propagating each
distinct config (channels aside) once. Filenames encode system, size or mode
pair, interaction strength, and channel, e.g.
``fig1_boson_N2_U0.05_avgC_CN.csv``. Reruns are byte-identical.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, fields, replace
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
    filename: str
    config: ScenarioConfig


def _boson_entry(fig: str, n: int, ubar: float, channel: str) -> PresetEntry:
    cfg = ScenarioConfig(system="boson", N=n, ubar=ubar, channels=(channel,))
    return PresetEntry(f"{fig}_boson_N{n}_U{ubar:g}_{channel}.csv", cfg)


def _fermion_entry(fig: str, ubar: float, channel: str,
                   mode_pair: str | None = None) -> PresetEntry:
    cfg = ScenarioConfig(system="fermion", ubar=ubar, channels=(channel,),
                         mode_pair=mode_pair)
    if mode_pair is None:
        name = f"{fig}_fermion_U{ubar:g}_{channel}.csv"
    else:
        name = f"{fig}_fermion_{_PAIR_TAGS[mode_pair]}_U{ubar:g}_{channel}.csv"
    return PresetEntry(name, cfg)


def _boson_average_fig(fig: str, ubar: float, kind: str) -> tuple[PresetEntry, ...]:
    channels = (f"avg{kind}_CN", f"avg{kind}_U")
    return tuple(_boson_entry(fig, n, ubar, ch)
                 for n in BOSON_SIZES for ch in channels)


def _fermion_phase_fig(fig: str, mode_pair: str, ubar: float) -> tuple[PresetEntry, ...]:
    return tuple(_fermion_entry(fig, ubar, ch, mode_pair)
                 for ch in ("avgC_U", "avgS_U", "fluctC", "fluctS"))


def _imbalance_fig(fig: str, ubars: tuple[float, ...]) -> tuple[PresetEntry, ...]:
    entries: list[PresetEntry] = []
    for ubar in ubars:
        for ch in ("avgW", "fluctW"):
            entries.append(_boson_entry(fig, 2, ubar, ch))
        for ch in ("avgW", "fluctW"):
            entries.append(_fermion_entry(fig, ubar, ch))
    return tuple(entries)


def _build_presets() -> dict[str, tuple[PresetEntry, ...]]:
    presets: dict[str, tuple[PresetEntry, ...]] = {
        "fig1": _boson_average_fig("fig1", WEAK_U, "C"),
        "fig2": _boson_average_fig("fig2", STRONG_U, "C"),
        "fig3": _boson_average_fig("fig3", WEAK_U, "S"),
        "fig4": _boson_average_fig("fig4", STRONG_U, "S"),
        "fig5": _fermion_phase_fig("fig5", "l-up/r-down", WEAK_U),
        "fig6": _fermion_phase_fig("fig6", "l-up/r-down", STRONG_U),
        "fig7": _fermion_phase_fig("fig7", "l-up/r-up", WEAK_U),
        "fig8": _fermion_phase_fig("fig8", "l-up/r-up", STRONG_U),
        "fig9": tuple(_boson_entry("fig9", 2, ubar, ch)
                      for ubar in (WEAK_U, STRONG_U)
                      for ch in ("fluctC", "fluctS")),
        "fig10": _imbalance_fig("fig10", (WEAK_U, 0.5)),
        "fig11": _imbalance_fig("fig11", (STRONG_U,)),
    }
    return presets


PRESETS = _build_presets()
PRESET_NAMES = tuple(PRESETS)


def preset_entries(name: str) -> tuple[PresetEntry, ...]:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; expected one of {PRESET_NAMES}"
        ) from None


def run_figure(name: str, out_dir: Union[str, Path]) -> list[Path]:
    """Run one preset bundle sequentially, returning the written CSV paths.

    Entries whose configs differ only in their channels share one
    propagation. The texts of all entries are formatted together when the
    first file is written, each distinct column (tau once) laid out once, so
    a header or non-finite value any entry would fail on leaves every file
    as it was. If a write fails, the files this call created are removed
    before the error propagates; files it replaced keep their new content.
    """
    entries = preset_entries(name)
    groups: dict[tuple, tuple[ScenarioConfig, list[str]]] = {}
    for entry in entries:
        _, channels = groups.setdefault(_without_channels(entry.config),
                                        (entry.config, []))
        channels.extend(c for c in entry.config.channels if c not in channels)
    series = {key: run_scenario(replace(cfg, channels=tuple(channels)))
              for key, (cfg, channels) in groups.items()}
    files = [(series[_without_channels(e.config)], e.config.channels) for e in entries]
    bundle = _CsvBundle(files)
    out = Path(out_dir)
    written: list[Path] = []
    created: list[Path] = []
    try:
        for entry, (entry_series, channels) in zip(entries, files):
            target = out / entry.filename
            existed = os.path.lexists(target)
            written.append(write_csv(entry_series, channels, target, _bundle=bundle))
            if not existed:
                created.append(target)
    except (ConfigError, NumericalError):
        for path in created:  # leave no new file of a partial bundle
            with contextlib.suppress(OSError):
                path.unlink()
        raise
    return written


def _without_channels(cfg: ScenarioConfig) -> tuple:
    return tuple(getattr(cfg, f.name) for f in fields(cfg) if f.name != "channels")
