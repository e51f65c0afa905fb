import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from phasekit import ConfigError, run_figure, scenario
from phasekit.presets import PRESET_NAMES, PRESETS, preset_entries

# sha256 and every 200th row (plus the last) of each preset CSV, written by
# perfbench/make_reference.py; read only
REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def test_preset_names():
    assert PRESET_NAMES == tuple(f"fig{i}" for i in range(1, 12))


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        preset_entries("fig12")


def test_entry_counts():
    # scenarios per preset, and the one-channel files they write
    scenarios = {name: len(entries) for name, entries in PRESETS.items()}
    assert scenarios == {
        "fig1": 3, "fig2": 3, "fig3": 3, "fig4": 3,
        "fig5": 1, "fig6": 1, "fig7": 1, "fig8": 1,
        "fig9": 2, "fig10": 4, "fig11": 2,
    }
    files = {name: sum(len(e.filenames) for e in entries)
             for name, entries in PRESETS.items()}
    assert files == {
        "fig1": 6, "fig2": 6, "fig3": 6, "fig4": 6,
        "fig5": 4, "fig6": 4, "fig7": 4, "fig8": 4,
        "fig9": 4, "fig10": 8, "fig11": 4,
    }


def test_preset_entries_propagate_distinct_scenarios():
    # entries differing only in their channels would propagate one scenario
    # twice; each file name is its stem and channel
    for name, entries in PRESETS.items():
        scenarios = [tuple(v for k, v in vars(e.config).items() if k != "channels")
                     for e in entries]
        assert len(set(scenarios)) == len(scenarios), name
        for entry in entries:
            assert entry.filenames == tuple(f"{entry.stem}_{c}.csv"
                                            for c in entry.config.channels)


def test_boson_average_preset_structure():
    entries = preset_entries("fig1")
    names = [f for e in entries for f in e.filenames]
    assert "fig1_boson_N2_U0.05_avgC_CN.csv" in names
    assert "fig1_boson_N10_U0.05_avgC_U.csv" in names
    for entry in entries:
        assert entry.config.system == "boson"
        assert entry.config.ubar == 0.05
        assert entry.config.N in (2, 5, 10)
        assert entry.config.steps == 2001
        assert entry.config.tau_max == 40.0
        assert entry.config.initial == "right-well"
        assert entry.config.channels == ("avgC_CN", "avgC_U")


def test_fermion_phase_presets_cover_both_pairs():
    cross = preset_entries("fig5")
    assert all(e.config.mode_pair == "l-up/r-down" for e in cross)
    assert all("lu-rd" in f for e in cross for f in e.filenames)
    same = preset_entries("fig7")
    assert all(e.config.mode_pair == "l-up/r-up" for e in same)
    assert all("lu-ru" in f for e in same for f in e.filenames)
    assert [c for e in cross for c in e.config.channels] == \
        ["avgC_U", "avgS_U", "fluctC", "fluctS"]


def test_imbalance_presets_emit_both_systems():
    entries = preset_entries("fig10")
    systems = {(e.config.system, e.config.ubar) for e in entries}
    assert systems == {("boson", 0.05), ("boson", 0.5),
                       ("fermion", 0.05), ("fermion", 0.5)}
    names = [f for e in entries for f in e.filenames]
    assert "fig10_fermion_U0.5_fluctW.csv" in names
    strong = preset_entries("fig11")
    assert {e.config.ubar for e in strong} == {5.0}


def test_run_figure_writes_and_is_idempotent(tmp_path):
    paths = run_figure("fig9", tmp_path)
    assert len(paths) == 4
    first = {p.name: p.read_bytes() for p in paths}
    again = run_figure("fig9", tmp_path)
    second = {p.name: p.read_bytes() for p in again}
    assert first == second
    for name, blob in first.items():
        assert blob.startswith(b"tau,")
        assert blob.count(b"\n") == 2002  # header + 2001 rows


def test_figure_lays_out_each_distinct_column_once(tmp_path, monkeypatch):
    # a figure's files share one tau grid; it and each channel are laid out once
    cells = []
    real_cell_text = scenario._cell_text

    def counting(values):
        cells.append(values.size)
        return real_cell_text(values)

    monkeypatch.setattr(scenario, "_cell_text", counting)
    per_figure = {}
    for name in PRESET_NAMES:
        cells.clear()
        run_figure(name, tmp_path / name)
        per_figure[name] = sum(cells)
    assert per_figure["fig1"] == 7 * 2001  # tau and six channels
    assert sum(per_figure.values()) == (11 + 56) * 2001


def _golden_mismatch(data: bytes, ref: dict):
    """None if the CSV bytes match the reference digest, or its header, row
    count and every sampled row within 1e-13; else what differs."""
    if hashlib.sha256(data).hexdigest() == ref["sha256"]:
        return None
    lines = data.decode("utf-8").split("\n")
    if lines[0] != ref["header"] or lines[-1] != "":
        return "header or final newline"
    if len(lines) - 2 != int(ref["rows"]):
        return f"{len(lines) - 2} rows"
    for row, line in ref["samples"]:
        got = np.array(lines[1 + row].split(","), dtype=float)
        want = np.array(line.split(","), dtype=float)
        if not np.max(np.abs(got - want)) <= 1e-13:
            return f"row {row}"
    return None


def test_all_presets_complete_quickly(tmp_path):
    golden = json.loads(REFERENCE.read_text(encoding="utf-8"))["figures"]["files"]
    start = time.perf_counter()
    total = 0
    for name in PRESET_NAMES:
        total += len(run_figure(name, tmp_path / name))
    elapsed = time.perf_counter() - start
    assert total == 56
    assert elapsed < 60.0
    assert set(golden) == set(PRESET_NAMES)
    for name in PRESET_NAMES:
        written = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
        assert set(written) == set(golden[name]), name
        for filename, data in written.items():
            problem = _golden_mismatch(data, golden[name][filename])
            assert problem is None, f"{filename}: {problem}"
