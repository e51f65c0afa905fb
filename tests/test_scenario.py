import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekit import (
    ConfigError,
    ScenarioConfig,
    embedded_fermion_states,
    expectation_series,
    fermion_cn_phase,
    fermion_sector,
    fermion_unitary_phase,
    fluctuation_series,
    parse_config,
    serialize_config,
    well_number_diff,
    xi_fermion_closed_form,
)
from phasekit.scenario import (
    BOSON_CHANNELS,
    FERMION_CHANNELS,
    MODE_PAIRS,
    apply_overrides,
    format_csv,
    initial_amplitudes,
    propagate_scenario,
    run,
    run_scenario,
)


def test_parse_minimal_boson_config():
    cfg = parse_config("system=boson\nN=2\nubar=0.05\nchannels=avgC_CN\n")
    assert cfg.system == "boson"
    assert cfg.N == 2
    assert cfg.tau_max == 40.0
    assert cfg.steps == 2001
    assert cfg.integrator == "eigen"
    assert cfg.initial == "right-well"
    assert cfg.channels == ("avgC_CN",)


def test_parse_comments_and_whitespace():
    text = """
# a comment line
system = fermion   # trailing comment
ubar = 5.0
channels = avgW , fluctW
"""
    cfg = parse_config(text)
    assert cfg.system == "fermion"
    assert cfg.channels == ("avgW", "fluctW")
    assert cfg.variant == "single-occupancy"
    assert cfg.mode_pair == "l-up/r-down"


def test_parse_rejects_malformed_input():
    with pytest.raises(ConfigError):
        parse_config("system=boson\nN=2\nubar=x\nchannels=xi\n")
    with pytest.raises(ConfigError):
        parse_config("system=boson\nN=2\nubar=1\nchannels=xi\nnope=1\n")
    with pytest.raises(ConfigError):
        parse_config("system=boson\nN=2\nubar=1\nubar=2\nchannels=xi\n")
    with pytest.raises(ConfigError):
        parse_config("just a line\n")
    with pytest.raises(ConfigError):
        parse_config("system=boson\nN=2\n")  # channels missing


def test_field_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(system="anyon", ubar=1.0, channels=("xi",))
    with pytest.raises(ConfigError):
        ScenarioConfig(system="boson", ubar=1.0, channels=("xi",))  # N missing
    with pytest.raises(ConfigError):
        ScenarioConfig(system="boson", N=2, ubar=1.0, channels=())
    with pytest.raises(ConfigError):
        ScenarioConfig(system="boson", N=2, ubar=1.0, channels=("xi_closed",))
    with pytest.raises(ConfigError):
        ScenarioConfig(system="boson", N=2, ubar=1.0, channels=("xi",), steps=1)
    with pytest.raises(ConfigError):
        ScenarioConfig(system="boson", N=2, ubar=1.0, channels=("xi",), tau_max=0.0)
    with pytest.raises(ConfigError):
        ScenarioConfig(system="fermion", N=2, ubar=1.0, channels=("avgW",))
    with pytest.raises(ConfigError):
        ScenarioConfig(system="boson", N=2, ubar=1.0, channels=("xi",),
                       mode_pair="l-up/r-down")
    with pytest.raises(ConfigError):
        ScenarioConfig(system="fermion", ubar=1.0, channels=("avgW",),
                       variant="eq-printed")


def test_initial_amplitude_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(system="boson", N=2, ubar=0.0, channels=("xi",),
                       initial=(1.0, 1.0, 0.0))
    with pytest.raises(ConfigError):
        ScenarioConfig(system="boson", N=2, ubar=0.0, channels=("xi",),
                       initial=(1.0, 0.0))
    cfg = ScenarioConfig(system="boson", N=2, ubar=0.0, channels=("xi",),
                         initial=(1.0, 0.0, 0.0))
    assert cfg.initial == (1.0 + 0.0j, 0.0j, 0.0j)


def test_initial_placement():
    boson = ScenarioConfig(system="boson", N=3, ubar=0.0, channels=("xi",))
    assert initial_amplitudes(boson)[0] == 1.0
    boson_left = ScenarioConfig(system="boson", N=3, ubar=0.0, channels=("xi",),
                                initial="left-well")
    assert initial_amplitudes(boson_left)[3] == 1.0
    fermion = ScenarioConfig(system="fermion", ubar=0.0, channels=("avgW",))
    assert initial_amplitudes(fermion)[2] == 1.0


config_strategy = st.one_of(
    st.builds(
        lambda n, ubar, steps, chans, integrator: ScenarioConfig(
            system="boson", N=n, ubar=ubar, steps=steps,
            channels=tuple(sorted(set(chans))), integrator=integrator),
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.integers(min_value=2, max_value=50),
        st.lists(st.sampled_from(BOSON_CHANNELS), min_size=1, max_size=4),
        st.sampled_from(("eigen", "rk4")),
    ),
    st.builds(
        lambda ubar, chans, pair: ScenarioConfig(
            system="fermion", ubar=ubar, channels=tuple(sorted(set(chans))),
            mode_pair=pair),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.lists(st.sampled_from(FERMION_CHANNELS), min_size=1, max_size=4),
        st.sampled_from(("l-up/r-down", "l-up/r-up")),
    ),
)


@given(config_strategy)
@settings(max_examples=60, deadline=None)
def test_config_round_trip_is_fixed_point(cfg):
    text = serialize_config(cfg)
    parsed = parse_config(text)
    assert parsed == cfg
    assert serialize_config(parsed) == text


def test_round_trip_with_amplitudes():
    cfg = ScenarioConfig(system="fermion", ubar=2.0, channels=("avgW",),
                         initial=(0.5, 0.5j, math.sqrt(0.5)))
    parsed = parse_config(serialize_config(cfg))
    assert parsed == cfg


def test_apply_overrides():
    cfg = ScenarioConfig(system="boson", N=2, ubar=0.0, channels=("xi",))
    out = apply_overrides(cfg, tau_max=10.0, steps=11, integrator="rk4")
    assert (out.tau_max, out.steps, out.integrator) == (10.0, 11, "rk4")
    assert apply_overrides(cfg) is cfg


def test_run_scenario_produces_requested_channels():
    cfg = ScenarioConfig(system="boson", N=2, ubar=0.05, steps=11, tau_max=1.0,
                         channels=("avgC_CN", "avgW", "xi"))
    series = run_scenario(cfg)
    assert set(series.channels) == {"avgC_CN", "avgW", "xi"}
    assert len(series.tau_grid) == 11
    assert series.tau_grid[0] == 0.0
    assert series.tau_grid[-1] == 1.0
    assert series.channels["avgW"][0] == pytest.approx(-2.0, abs=1e-12)


def test_run_scenario_fermion_channels():
    cfg = ScenarioConfig(system="fermion", ubar=0.05, steps=11, tau_max=1.0,
                         channels=FERMION_CHANNELS)
    series = run_scenario(cfg)
    assert set(series.channels) == set(FERMION_CHANNELS)
    assert series.channels["avgW"][0] == pytest.approx(-2.0, abs=1e-12)
    assert series.channels["xi_second_moment"][0] == pytest.approx(2.0, abs=1e-12)
    assert series.channels["xi_variance"][0] == pytest.approx(0.0, abs=1e-12)


def _fock_space_channels(cfg, traj):
    """Every fermion channel from the 16-dim embedded states and full operators."""
    states = embedded_fermion_states(traj)
    space = fermion_sector()
    m, mp = MODE_PAIRS[cfg.mode_pair]
    cos_cn, sin_cn = fermion_cn_phase(space, m, mp)
    cos_u, sin_u, _ = fermion_unitary_phase(space, m, mp)
    w = well_number_diff(space)
    mean_w = expectation_series(w, states)
    second_w = expectation_series(w.entries @ w.entries, states)
    return {
        "avgC_CN": expectation_series(cos_cn, states),
        "avgS_CN": expectation_series(sin_cn, states),
        "avgC_U": expectation_series(cos_u, states),
        "avgS_U": expectation_series(sin_u, states),
        "fluctC": fluctuation_series(cos_u, states),
        "fluctS": fluctuation_series(sin_u, states),
        "avgW": mean_w,
        "fluctW": fluctuation_series(w, states),
        "xi_variance": (second_w - mean_w * mean_w) / 2.0,
        "xi_second_moment": second_w / 2.0,
        "xi_closed": xi_fermion_closed_form(cfg.ubar, traj.tau_grid),
    }


@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=6, max_size=6)
       .filter(lambda xs: sum(x * x for x in xs) > 1e-3),
       st.floats(min_value=0.0, max_value=10.0),
       st.sampled_from(tuple(MODE_PAIRS)),
       st.sampled_from(("single-occupancy", "uniform-shift")))
@settings(max_examples=40, deadline=None)
def test_fermion_channels_match_fock_space_evaluation(parts, ubar, pair, variant):
    amps = np.array(parts[:3]) + 1j * np.array(parts[3:])
    cfg = ScenarioConfig(system="fermion", ubar=ubar, variant=variant,
                         mode_pair=pair, steps=41, tau_max=8.0,
                         initial=tuple(amps / np.linalg.norm(amps)),
                         channels=FERMION_CHANNELS)
    series = run_scenario(cfg)
    oracle = _fock_space_channels(cfg, propagate_scenario(cfg))
    assert set(oracle) == set(FERMION_CHANNELS)
    for name in FERMION_CHANNELS:
        assert np.max(np.abs(series.channels[name] - oracle[name])) <= 1e-12, name


def test_rk4_and_eigen_scenarios_agree_at_weak_coupling():
    base = dict(system="boson", N=4, ubar=0.05, steps=21, tau_max=2.0,
                channels=("avgC_U", "fluctW"))
    eigen = run_scenario(ScenarioConfig(integrator="eigen", **base))
    rk4 = run_scenario(ScenarioConfig(integrator="rk4", **base))
    for name in base["channels"]:
        assert np.max(np.abs(eigen.channels[name] - rk4.channels[name])) < 1e-8


def test_csv_format(tmp_path):
    cfg = ScenarioConfig(system="boson", N=2, ubar=0.0, steps=3, tau_max=1.0,
                         channels=("avgW",), out=str(tmp_path / "out.csv"))
    path = run(cfg)
    data = path.read_bytes()
    text = data.decode("utf-8")
    lines = text.split("\n")
    assert lines[0] == "tau,avgW"
    assert len(lines) == 5  # header + 3 rows + trailing newline
    assert lines[-1] == ""
    assert "\r" not in text
    # every value round-trips through float at 17 significant digits
    for line in lines[1:4]:
        for token in line.split(","):
            assert f"{float(token):.17g}" == token


def test_csv_rerun_is_byte_identical(tmp_path):
    cfg = ScenarioConfig(system="fermion", ubar=5.0, steps=101, tau_max=20.0,
                         channels=("avgC_U", "fluctS"),
                         out=str(tmp_path / "f.csv"))
    first = run(cfg).read_bytes()
    second = run(cfg).read_bytes()
    assert first == second


def test_run_requires_out():
    cfg = ScenarioConfig(system="boson", N=2, ubar=0.0, channels=("xi",))
    with pytest.raises(ConfigError):
        run(cfg)


def test_format_csv_rejects_unknown_channel():
    cfg = ScenarioConfig(system="boson", N=2, ubar=0.0, steps=3, tau_max=1.0,
                         channels=("avgW",))
    series = run_scenario(cfg)
    with pytest.raises(ConfigError):
        format_csv(series, ["missing"])
