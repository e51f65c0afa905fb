import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekit import (
    ConfigError,
    NumericalError,
    ScenarioConfig,
    TimeSeries,
    boson_basis,
    boson_cn_phase,
    boson_number_diff,
    boson_unitary_phase,
    embedded_fermion_states,
    expectation_series,
    fermion_cn_phase,
    fermion_sector,
    fermion_unitary_phase,
    parse_config,
    serialize_config,
    well_number_diff,
    xi_fermion_closed_form,
)
from phasekit import scenario
from phasekit.observe import pair_moments
from phasekit.scenario import (
    BOSON_CHANNELS,
    FERMION_CHANNELS,
    MAX_GRID_AMPLITUDES,
    MAX_N,
    MODE_PAIRS,
    apply_overrides,
    format_csv,
    initial_amplitudes,
    propagate_scenario,
    run,
    run_scenario,
    write_csv,
)
from phasekit.cli import main
from phasekit.presets import PRESETS, run_figure


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


@pytest.mark.parametrize("field, value, message", [
    ("ubar", "1", "ubar must be a real number"),
    ("tau_max", "2", "tau_max must be a real number"),
    ("ubar", True, "ubar must be a real number"),
    ("tau_max", 2j, "tau_max must be a real number"),
    ("N", True, "N must be an integer"),
    ("steps", True, "steps must be an integer"),
    ("steps", 2001.0, "steps must be an integer"),
    ("ubar", 10**400, "ubar must be finite"),
    ("tau_max", 10**400, "tau_max must be positive and finite"),
    ("initial", 5, "initial must be right-well, left-well, or amplitudes"),
    ("initial", ("x", 0, 0), "initial must be right-well, left-well, or amplitudes"),
    ("initial", ["right-well"], "initial must be right-well, left-well, or amplitudes"),
    ("channels", 5, "channels must be a sequence of channel names"),
    ("mode_pair", ["l-up/r-up"], "mode_pair must be a string"),
    ("out", 5, "out must be a string"),
], ids=["ubar-str", "tau_max-str", "ubar-bool", "tau_max-complex", "N-bool",
        "steps-bool", "steps-float", "ubar-int-beyond-double", "tau_max-int-beyond-double",
        "initial-int", "initial-str-amplitude", "initial-label-in-list", "channels-int",
        "mode_pair-list", "out-int"])
def test_numeric_fields_must_be_numbers(field, value, message):
    if field == "mode_pair":  # a fermion field
        kwargs = dict(system="fermion", ubar=1.0, channels=("avgW",))
    else:
        kwargs = dict(system="boson", N=2, ubar=1.0, channels=("avgW",))
    kwargs[field] = value
    with pytest.raises(ConfigError, match=message):
        ScenarioConfig(**kwargs)


def test_channels_given_as_a_string_are_refused():
    with pytest.raises(ConfigError, match="sequence of channel names.*'avgW'"):
        ScenarioConfig(system="boson", N=2, ubar=1.0, channels="avgW")


def test_work_limits_are_inclusive():
    ScenarioConfig(system="boson", N=MAX_N, ubar=1.0, channels=("xi",), steps=2)
    with pytest.raises(ConfigError, match="N must be"):
        ScenarioConfig(system="boson", N=MAX_N + 1, ubar=1.0, channels=("xi",), steps=2)
    most = MAX_GRID_AMPLITUDES // 3
    ScenarioConfig(system="fermion", ubar=1.0, channels=("avgW",), steps=most)
    with pytest.raises(ConfigError, match="grid amplitudes"):
        ScenarioConfig(system="fermion", ubar=1.0, channels=("avgW",), steps=most + 1)


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


# any text but '#' and line breaks, with no whitespace at either end
out_strategy = st.one_of(st.none(), st.text(
    st.characters(blacklist_characters="#", blacklist_categories=("Cs",)), max_size=12,
).filter(lambda out: out == out.strip() and len(out.splitlines()) <= 1))

config_strategy = st.one_of(
    st.builds(
        lambda n, ubar, steps, chans, integrator, out: ScenarioConfig(
            system="boson", N=n, ubar=ubar, steps=steps,
            channels=tuple(sorted(set(chans))), integrator=integrator, out=out),
        st.integers(min_value=1, max_value=8),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.integers(min_value=2, max_value=50),
        st.lists(st.sampled_from(BOSON_CHANNELS), min_size=1, max_size=4),
        st.sampled_from(("eigen", "rk4")),
        out_strategy,
    ),
    st.builds(
        lambda ubar, chans, pair, out: ScenarioConfig(
            system="fermion", ubar=ubar, channels=tuple(sorted(set(chans))),
            mode_pair=pair, out=out),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.lists(st.sampled_from(FERMION_CHANNELS), min_size=1, max_size=4),
        st.sampled_from(("l-up/r-down", "l-up/r-up")),
        out_strategy,
    ),
)


@given(config_strategy)
@settings(max_examples=60, deadline=None)
def test_config_round_trip_is_fixed_point(cfg):
    text = serialize_config(cfg)
    parsed = parse_config(text)
    assert parsed == cfg
    assert serialize_config(parsed) == text


@pytest.mark.parametrize("out", ["a#b.csv", " a.csv", "a.csv ", "a.csv\nN=3", "a\rb.csv",
                                 "a\x85b.csv", "\n"],
                         ids=["hash", "leading-space", "trailing-space", "lf", "cr",
                              "next-line", "line-break-only"])
def test_out_that_would_not_parse_back_is_refused(out):
    # parse_config would cut it at '#' or a line break, or strip it
    with pytest.raises(ConfigError, match="out must hold"):
        ScenarioConfig(system="boson", N=2, ubar=1.0, channels=("avgW",), out=out)


def test_variant_is_an_unknown_key(tmp_path, capsys):
    text = "system=fermion\nubar=5.0\nvariant=single-occupancy\nchannels=avgW\n"
    with pytest.raises(ConfigError, match="unknown key 'variant'"):
        parse_config(text)
    config = tmp_path / "pair.cfg"
    config.write_text(f"{text}out={tmp_path / 'pair.csv'}\n", encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 1
    assert "unknown key 'variant'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pair.cfg"]


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


# the boson mirror law: a left-well start gives the right-well channels with
# the S and W means negated (fluctW waits for its exact spread, ROADMAP item 9)
_MIRROR_SIGNS = {"avgC_CN": 1, "avgS_CN": -1, "avgC_U": 1, "avgS_U": -1,
                 "fluctC": 1, "fluctS": 1, "avgW": -1, "xi": 1}


@pytest.mark.parametrize("ubar", [0.05, 5.0])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
def test_boson_channels_obey_the_mirror_law(n, ubar):
    right = ScenarioConfig(system="boson", N=n, ubar=ubar, channels=tuple(_MIRROR_SIGNS))
    left = replace(right, initial="left-well")
    from_right, from_left = run_scenario(right), run_scenario(left)
    for name, sign in _MIRROR_SIGNS.items():
        np.testing.assert_allclose(from_left.channels[name], sign * from_right.channels[name],
                                   rtol=0, atol=1e-11, err_msg=name)


def _all_channels(system, integrator):
    """Every channel of ``system`` from a seeded random start."""
    rng = np.random.default_rng(14)
    dim = 11 if system == "boson" else 3
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    size = {"N": 10} if system == "boson" else {"mode_pair": "l-up/r-up"}
    return ScenarioConfig(system=system, ubar=0.5, steps=201, tau_max=10.0,
                          initial=tuple(amps / np.linalg.norm(amps)),
                          integrator=integrator,
                          channels=BOSON_CHANNELS if system == "boson"
                          else FERMION_CHANNELS, **size)


@pytest.mark.parametrize("integrator", ["eigen", "rk4"])
@pytest.mark.parametrize("system", ["boson", "fermion"])
def test_all_channel_run_evaluates_each_moment_once(system, integrator, monkeypatch):
    forms = []
    real = scenario.expectation_series

    def counting(op, states):
        forms.append(op)
        return real(op, states)

    monkeypatch.setattr(scenario, "expectation_series", counting)
    run_scenario(_all_channels(system, integrator))
    # the means of C_CN, S_CN, C_U, S_U and W, and the second moments of
    # C_U, S_U and W (13 boson and 15 fermion forms when each channel had its own)
    assert len(forms) == 8


def _spread(mean, second):
    return np.sqrt(np.clip(second - mean * mean, 0.0, None))


@pytest.mark.parametrize("system", ["boson", "fermion"])
def test_channels_equal_the_public_series_functions(system):
    # each channel, bit for bit, from expectation_series of an operator and
    # its second-moment operator
    cfg = _all_channels(system, "rk4")
    series = run_scenario(cfg)
    traj = propagate_scenario(cfg)
    if system == "boson":
        basis = boson_basis(cfg.N)
        ops = (*boson_cn_phase(basis), *boson_unitary_phase(basis)[:2],
               boson_number_diff(basis))
        pairs = [(op.entries, op.entries @ op.entries) for op in ops]
    else:
        space = fermion_sector()
        pair = MODE_PAIRS[cfg.mode_pair]
        ops = (*fermion_cn_phase(space, *pair), *fermion_unitary_phase(space, *pair)[:2],
               well_number_diff(space))
        pairs = [pair_moments(op) for op in ops]
    moments = [tuple(expectation_series(form, traj) for form in forms) for forms in pairs]
    c_cn, s_cn, c_u, s_u, w = moments
    want = dict(zip(("avgC_CN", "avgS_CN", "avgC_U", "avgS_U", "avgW"),
                    (mean for mean, _ in (c_cn, s_cn, c_u, s_u, w))))
    for name, (mean, second) in zip(("fluctC", "fluctS", "fluctW"), (c_u, s_u, w)):
        want[name] = _spread(mean, second)
    mean_w, second_w = w
    if system == "boson":
        dw = _spread(mean_w, second_w)
        want["xi"] = dw * dw / float(cfg.N)
    else:
        want["xi_variance"] = (second_w - mean_w * mean_w) / 2.0
        want["xi_second_moment"] = second_w / 2.0
        want["xi_closed"] = xi_fermion_closed_form(cfg.ubar, traj.tau_grid)
    assert set(want) == set(cfg.channels)
    for name in cfg.channels:
        assert np.array_equal(series.channels[name], want[name]), name


@pytest.mark.parametrize("system, channel", [
    ("boson", "fluctC"), ("boson", "fluctW"), ("boson", "xi"),
    ("fermion", "fluctS"), ("fermion", "fluctW"),
])
def test_inconsistent_moments_raise_the_radicand_error(system, channel, monkeypatch):
    # every moment reads -1, so every radicand is -1 - (-1)^2 = -2
    monkeypatch.setattr(scenario, "expectation_series",
                        lambda op, states: -np.ones(len(states.tau_grid)))
    cfg = replace(_all_channels(system, "eigen"), channels=(channel,))
    with pytest.raises(NumericalError, match="fluctuation radicand -2.000e"):
        run_scenario(cfg)


def _fock_space_spread(op, states):
    return _spread(expectation_series(op, states),
                   expectation_series(op.entries @ op.entries, states))


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
        "fluctC": _fock_space_spread(cos_u, states),
        "fluctS": _fock_space_spread(sin_u, states),
        "avgW": mean_w,
        "fluctW": _spread(mean_w, second_w),
        "xi_variance": (second_w - mean_w * mean_w) / 2.0,
        "xi_second_moment": second_w / 2.0,
        "xi_closed": xi_fermion_closed_form(cfg.ubar, traj.tau_grid),
    }


@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=6, max_size=6)
       .filter(lambda xs: sum(x * x for x in xs) > 1e-3),
       st.floats(min_value=0.0, max_value=10.0),
       st.sampled_from(tuple(MODE_PAIRS)))
@settings(max_examples=40, deadline=None)
def test_fermion_channels_match_fock_space_evaluation(parts, ubar, pair):
    amps = np.array(parts[:3]) + 1j * np.array(parts[3:])
    cfg = ScenarioConfig(system="fermion", ubar=ubar, mode_pair=pair,
                         steps=41, tau_max=8.0, initial=tuple(amps / np.linalg.norm(amps)),
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


def _format_csv_by_row(series, names):
    """The per-value formatter format_csv replaced: the byte oracle."""
    lines = ["tau," + ",".join(names)]
    table = np.column_stack([series.tau_grid] + [series.channels[n] for n in names])
    for row in table:
        lines.append(",".join(f"{v:.17g}" for v in row.tolist()))
    return "\n".join(lines) + "\n"


_SPECIAL_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1 / 3, 1.0, 0.1)


def _series_of(table):
    names = [f"c{j}" for j in range(table.shape[1] - 1)]
    return TimeSeries(table[:, 0], {n: table[:, j + 1] for j, n in enumerate(names)}), names


@given(width=st.sampled_from((1, 14)),
       data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1),
       drawn=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=16))
@settings(max_examples=40, deadline=None)
def test_format_csv_matches_per_value_formatter(width, data, seed, drawn):
    # the kernel lays out rows of _CSV_BLOCK_CELLS // (width + 1) at a time
    block = scenario._CSV_BLOCK_CELLS // (width + 1)
    rows = data.draw(st.sampled_from((1, 2, 255, 256, 257, 2001,
                                      block - 1, block, block + 1, 2 * block + 1)),
                     label="rows")
    # random bit patterns span every exponent; non-finite ones become specials
    rng = np.random.default_rng(seed)
    specials = np.array(_SPECIAL_VALUES + tuple(drawn))
    table = rng.integers(0, 2 ** 64, size=(rows, width + 1), dtype=np.uint64).view(float)
    bad = ~np.isfinite(table)
    table[bad] = rng.choice(specials, size=int(bad.sum()))
    spots = rng.integers(0, table.size, size=len(specials))
    table.ravel()[spots] = specials
    series, names = _series_of(table)
    assert format_csv(series, names) == _format_csv_by_row(series, names)


def _ulp_neighbours(value, ulps):
    """``value`` and the ``ulps`` doubles on either side of it."""
    around = [value]
    up = down = value
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        around += [float(up), float(down)]
    return around


def test_format_csv_boundaries_match_per_value_formatter():
    values = []
    for power in range(-8, 20):  # every fixed/exponent switch and digit count
        values += _ulp_neighbours(float(f"1e{power}"), 3)
    values += _ulp_neighbours(2.0 ** 51, 3)
    # fixed-notation cells of at least 2**51, which the kernel lays out itself
    large = np.array([2.0 ** 51, -2.0 ** 51, 2.0 ** 52, 2.0 ** 53 - 1, 2.0 ** 53,
                      2.0 ** 53 + 2, 1e16, 12345678901234568.0, -3e16])
    _, exact = scenario._digits17(large, scenario._exponent_class(large))
    assert exact.all()
    values += large.tolist()
    ties = [1 + 2 ** -17, 1 + 3 * 2 ** -17]  # 18 digits, the 18th a 5
    values += ties
    # the smallest and largest subnormal, the smallest normal, 0, the largest
    values += [5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               0.0, 1.7976931348623157e308]
    values += [-v for v in values]
    values += [0.0] * (-len(values) % 3)
    series, names = _series_of(np.array(values).reshape(-1, 3))
    assert format_csv(series, names) == _format_csv_by_row(series, names)
    # half-way ties round to even: down after ...2, up after ...7
    assert format_csv(*_series_of(np.array([ties + [0.0]]))) == (
        "tau,c0,c1\n1.0000076293945312,1.0000228881835938,0\n")


def test_bundle_texts_match_per_value_formatter():
    # columns are shared by their bytes: across files, a channel equal to
    # tau, and -0.0 beside 0.0, which print differently
    rng = np.random.default_rng(3)
    tau, a, b = np.linspace(0.0, 1.0, 3001), *rng.normal(size=(2, 3001))
    first = TimeSeries(tau, {"a": a, "same": tau, "zero": np.zeros(3001)})
    second = TimeSeries(tau.copy(), {"b": b, "negzero": -np.zeros(3001), "a": a})
    files = [(first, ["a", "same"]), (second, ["negzero", "b"]),
             (first, ["zero", "a"]), (second, ["a"])]
    bundle = scenario._CsvBundle(files)
    for series, names in files:
        assert format_csv(series, names, _bundle=bundle) == _format_csv_by_row(series, names)


@pytest.mark.parametrize("tau, channels", [
    (np.float64(0.5), {"avgW": np.float64(0.5)}),
    (np.zeros((2, 2)), {"avgW": np.zeros((2, 2))}),
    (np.zeros(2), {"avgW": np.array([1.0, 1.0 + 1e-3j])}),
], ids=["0-d-tau", "2-d-tau", "complex-channel"])
def test_time_series_refuses_what_a_csv_cannot_hold(tau, channels):
    with pytest.raises(ConfigError):
        TimeSeries(tau, channels)


@pytest.mark.parametrize("names", [[], ["avgW", "avgW"], ["a,b"], ["a\rb"], ["a\nb"], ["tau"]],
                         ids=["none", "repeated", "comma", "cr", "lf", "tau"])
def test_format_csv_refuses_a_malformed_header(tmp_path, names):
    series = TimeSeries(np.zeros(2), {name: np.zeros(2) for name in [*names, "avgW"]})
    with pytest.raises(ConfigError):
        format_csv(series, names)
    target = tmp_path / "series.csv"
    with pytest.raises(ConfigError):
        write_csv(series, names, target)
    assert list(tmp_path.iterdir()) == []


# The tracemalloc peak of formatting this 2001 x 11 table, measured at
# 1.42 MB (numpy 2.4, Python 3.11), output text included; the row templates
# the kernel replaced peaked at 1.67 MB, and the kernel laying out the whole
# table at once at 2.51 MB.
CSV_PEAK_BOUND = 2.0e6


def test_format_csv_memory_peak_is_bounded():
    table = np.random.default_rng(7).normal(size=(2001, 11))
    series, names = _series_of(table)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        text = format_csv(series, names)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(text) > 400_000
    assert peak < CSV_PEAK_BOUND


def test_preset_series_format_as_per_value_formatter(tmp_path):
    # alone and as one figure call writes them
    for name, entries in PRESETS.items():
        written = run_figure(name, tmp_path / name)
        assert [p.name for p in written] == [e.filename for e in entries]
        for entry, path in zip(entries, written):
            series = run_scenario(entry.config)
            names = entry.config.channels
            expected = _format_csv_by_row(series, names)
            assert format_csv(series, names) == expected, entry.filename
            assert path.read_bytes() == expected.encode("utf-8"), entry.filename


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_write_csv_refuses_non_finite_values(tmp_path, bad):
    tau = np.linspace(0.0, 2.0, 5)
    values = np.zeros(5)
    values[3] = bad
    series = TimeSeries(tau, {"ok": np.ones(5), "avgW": values})
    target = tmp_path / "series.csv"
    with pytest.raises(NumericalError, match=r"'avgW' is (nan|inf) at tau=1\.5"):
        write_csv(series, ["ok", "avgW"], target)
    assert not target.exists()
    # a channel left out of the file is not checked
    assert write_csv(series, ["ok"], target).exists()


@pytest.mark.parametrize("stem", ["x" * 251, "\u3042" * 83 + "xx"], ids=["ascii", "utf8"])
def test_write_csv_longest_file_name(tmp_path, stem):
    # 255 bytes, the NAME_MAX of common filesystems
    target = tmp_path / (stem + ".csv")
    assert len(target.name.encode("utf-8")) == 255
    series = TimeSeries(np.linspace(0.0, 1.0, 3), {"avgW": np.zeros(3)})
    assert write_csv(series, ["avgW"], target) == target
    assert [p.name for p in tmp_path.iterdir()] == [target.name]


def test_write_csv_refuses_non_finite_tau(tmp_path):
    series = TimeSeries(np.array([0.0, math.inf]), {"avgW": np.zeros(2)})
    target = tmp_path / "series.csv"
    with pytest.raises(NumericalError, match="'tau' is inf"):
        write_csv(series, ["avgW"], target)
    assert not target.exists()
