import math
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekit import (
    ConfigError,
    NumericalError,
    ScenarioConfig,
    TimeSeries,
    boson_cn_phase,
    boson_dimer_hamiltonian,
    boson_number_diff,
    boson_unitary_phase,
    commutator,
    eigen_propagate,
    embedded_fermion_states,
    expectation_series,
    fermion_cn_phase,
    fermion_unitary_phase,
    parse_config,
    preset_entries,
    serialize_config,
    unitarity_deficiency,
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


@pytest.mark.parametrize("key, value", [("N", "x"), ("ubar", "x"), ("tau_max", "1j"),
                                        ("steps", "x"), ("steps", "5.0"),
                                        ("initial", "1,x,0")])
def test_malformed_value_names_its_key(key, value):
    pairs = {"system": "boson", "N": "2", "ubar": "1.0", "channels": "avgW", key: value}
    text = "".join(f"{k}={v}\n" for k, v in pairs.items())
    with pytest.raises(ConfigError, match=f"^malformed {key} value: "):
        parse_config(text)


def test_config_text_table_is_the_fields_in_canonical_order():
    keys = ["system", "N", "ubar", "mode_pair", "tau_max", "steps", "initial",
            "integrator", "channels", "out"]
    assert list(scenario._CONFIG_TEXT) == keys
    assert sorted(keys) == sorted(field.name for field in fields(ScenarioConfig))
    cfg = ScenarioConfig(system="fermion", ubar=5.0, channels=("avgW",), out="a.csv")
    assert [line.split("=")[0] for line in serialize_config(cfg).splitlines()] == \
        [k for k in keys if k != "N"]


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


def test_numpy_integer_counts_are_stored_as_int():
    # in int64, steps x dimension = 2**62 x 4 wraps to 0, under any limit
    with pytest.raises(ConfigError, match=f"exceeds {MAX_GRID_AMPLITUDES} grid amplitudes"):
        ScenarioConfig(system="boson", N=3, ubar=0.05, steps=np.int64(2**62),
                       channels=("avgW",))
    cfg = ScenarioConfig(system="boson", N=np.int64(3), ubar=0.05, steps=np.int64(21),
                         channels=("avgW",))
    assert type(cfg.N) is int and type(cfg.steps) is int
    assert parse_config(serialize_config(cfg)) == cfg


@pytest.mark.parametrize("tau_max", [np.float32(0.1), np.float16(4.0), 4, Fraction(1, 10)],
                         ids=["float32", "float16", "int", "fraction"])
def test_tau_max_is_stored_as_float(tau_max):
    # a float32 tau_max made linspace build a float32 grid, whose uneven
    # spacing no RK4 step taken from tau_max / (steps - 1) fits
    cfg = ScenarioConfig(system="boson", N=2, ubar=0.05, tau_max=tau_max, steps=101,
                         integrator="rk4", channels=("avgW",))
    assert type(cfg.tau_max) is float and cfg.tau_max == float(tau_max)
    traj = propagate_scenario(cfg)
    assert np.array_equal(traj.tau_grid, np.linspace(0.0, float(tau_max), 101))
    assert parse_config(serialize_config(cfg)) == cfg


@pytest.mark.parametrize("ubar", [np.float32(0.1), np.float16(0.3), 5, Fraction(1, 10)],
                         ids=["float32", "float16", "int", "fraction"])
def test_ubar_is_stored_as_float(ubar):
    # a float32 ubar made the boson interaction diagonal float32
    cfg = ScenarioConfig(system="boson", N=3, ubar=ubar, steps=11, channels=("avgW", "xi"))
    assert type(cfg.ubar) is float and cfg.ubar == float(ubar)
    want = ScenarioConfig(system="boson", N=3, ubar=float(ubar), steps=11,
                          channels=("avgW", "xi"))
    got, expected = run_scenario(cfg), run_scenario(want)
    for name in cfg.channels:
        assert got.channels[name].tobytes() == expected.channels[name].tobytes(), name
    assert parse_config(serialize_config(cfg)) == cfg


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


# any non-empty text but '#' and line breaks, with no whitespace at either end
out_strategy = st.one_of(st.none(), st.text(
    st.characters(blacklist_characters="#", blacklist_categories=("Cs",)),
    min_size=1, max_size=12,
).filter(lambda out: out == out.strip() and len(out.splitlines()) <= 1
         and out.rsplit("/", 1)[-1] not in ("", ".", "..")))

_part = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(min_value=-1.0, max_value=1.0))


def _initial(dim):
    """A label, or ``dim`` amplitudes scaled to unit norm; a part that is
    0.0 or -0.0 stays so."""
    def unit(amps):
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
        return tuple(complex(a.real / norm, a.imag / norm) for a in amps)
    amps = st.lists(st.builds(complex, _part, _part), min_size=dim, max_size=dim)
    return st.one_of(st.sampled_from(("right-well", "left-well")),
                     amps.filter(lambda amps: sum(abs(a) for a in amps) > 1e-3).map(unit))


def _config(system, dim, channels, **size):
    return st.builds(
        ScenarioConfig, system=st.just(system),
        ubar=st.floats(allow_nan=False, allow_infinity=False),
        tau_max=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        steps=st.integers(min_value=2, max_value=50), initial=_initial(dim),
        integrator=st.sampled_from(("eigen", "rk4")),
        channels=st.lists(st.sampled_from(channels), min_size=1, max_size=4,
                          unique=True).map(tuple),
        out=out_strategy, **size)


# every key, with negative ubar, any positive tau_max and amplitude starts
config_strategy = st.one_of(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda n: _config("boson", n + 1, BOSON_CHANNELS, N=st.just(n))),
    _config("fermion", 3, FERMION_CHANNELS,
            mode_pair=st.sampled_from((None, *MODE_PAIRS))),
)


@given(config_strategy)
@settings(max_examples=200, deadline=None)
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


@pytest.mark.parametrize("out", ["dir/", "new/deep/", "/", "dir/.", ".", "dir/.."])
def test_out_naming_a_directory_is_refused(out):
    # Path drops a trailing '/' or '/.', so "dir/" would write a file named dir
    with pytest.raises(ConfigError, match="out must name a file, not a directory"):
        ScenarioConfig(system="boson", N=2, ubar=1.0, channels=("avgW",), out=out)


def test_empty_out_is_refused():
    # Path("") is the working directory, so an empty out names no file
    with pytest.raises(ConfigError, match="out must not be empty, got ''"):
        ScenarioConfig(system="boson", N=2, ubar=1.0, channels=("avgW",), out="")


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


def _law_tolerance(cfg):
    """64·max|E|·tau_max·eps: the phases E·tau of an eigen run carry rounding
    of order max|E|·tau_max·eps. Up to N=40 the boson laws below measured at
    most 2.1 (mirror) and 12.6 (interaction sign) times that."""
    h = boson_dimer_hamiltonian(cfg.N, cfg.ubar)
    return 64 * np.max(np.abs(np.linalg.eigvalsh(h))) * cfg.tau_max * np.finfo(float).eps


# the boson mirror law: a left-well start gives the right-well channels with
# the S and W means negated (fluctW waits for its exact spread, ROADMAP item 9)
_MIRROR_SIGNS = {"avgC_CN": 1, "avgS_CN": -1, "avgC_U": 1, "avgS_U": -1,
                 "fluctC": 1, "fluctS": 1, "avgW": -1, "xi": 1}


@pytest.mark.parametrize("ubar", [0.05, 0.5, 5.0])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 20, 40])
def test_boson_channels_obey_the_mirror_law(n, ubar):
    right = ScenarioConfig(system="boson", N=n, ubar=ubar, channels=tuple(_MIRROR_SIGNS))
    left = replace(right, initial="left-well")
    from_right, from_left = run_scenario(right), run_scenario(left)
    for name, sign in _MIRROR_SIGNS.items():
        np.testing.assert_allclose(from_left.channels[name], sign * from_right.channels[name],
                                   rtol=0, atol=_law_tolerance(right), err_msg=name)


# the boson interaction-sign law: P = diag((-1)^l) gives P H(u) P = -H(-u),
# so psi_{-u}(tau) = ±P conj(psi_u(tau)). The CN and W channels follow it at
# every N; the U channels only at odd N, where the vacuum term follows the CN
# laws (fluctW waits for its exact spread, ROADMAP item 9)
_SIGN_LAW = {"avgC_CN": -1, "avgS_CN": 1, "avgW": 1, "xi": 1}
_ODD_N_SIGN_LAW = {"avgC_U": -1, "avgS_U": 1, "fluctC": 1, "fluctS": 1}


@pytest.mark.parametrize("ubar", [0.05, 0.5, 5.0])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 10, 20, 40])
def test_boson_channels_obey_the_interaction_sign_law(n, ubar):
    signs = {**_SIGN_LAW, **(_ODD_N_SIGN_LAW if n % 2 else {})}
    cfg = ScenarioConfig(system="boson", N=n, ubar=ubar, channels=tuple(signs))
    plus, minus = run_scenario(cfg), run_scenario(replace(cfg, ubar=-ubar))
    for name, sign in signs.items():
        np.testing.assert_allclose(minus.channels[name], sign * plus.channels[name],
                                   rtol=0, atol=_law_tolerance(cfg), err_msg=name)


# the pair's laws: the sign of each channel under the mirror (a left-well
# start) and under ubar -> -ubar; every channel not named is equal. fluctW
# is left out of the mirror law (ROADMAP item 9). For l-up/r-up the U
# channels break the mirror (the vacuum coupling's sign convention, ROADMAP
# item 11)
_PAIR_LAWS = {
    "l-up/r-down": ({"avgS_U": -1, "avgW": -1}, {"avgS_U": -1}),
    "l-up/r-up": ({"avgC_CN": -1, "avgW": -1}, {"avgC_CN": -1, "avgC_U": -1}),
}
_PAIR_U_CHANNELS = ("avgC_U", "avgS_U", "fluctC", "fluctS")


@pytest.mark.parametrize("ubar", [0.05, 0.5, 5.0])
@pytest.mark.parametrize("mode_pair", list(_PAIR_LAWS))
def test_pair_channels_obey_the_mirror_and_interaction_sign_laws(mode_pair, ubar):
    mirror_signs, sign_law = _PAIR_LAWS[mode_pair]
    cfg = ScenarioConfig(system="fermion", ubar=ubar, mode_pair=mode_pair,
                         channels=FERMION_CHANNELS)
    base = run_scenario(cfg).channels
    left = run_scenario(replace(cfg, initial="left-well")).channels
    minus = run_scenario(replace(cfg, ubar=-ubar)).channels
    for name in FERMION_CHANNELS:
        np.testing.assert_allclose(minus[name], sign_law.get(name, 1) * base[name],
                                   rtol=0, atol=1e-12, err_msg=name)
        if name == "fluctW" or (mode_pair == "l-up/r-up" and name in _PAIR_U_CHANNELS):
            continue
        np.testing.assert_allclose(left[name], mirror_signs.get(name, 1) * base[name],
                                   rtol=0, atol=1e-12, err_msg=name)
    if mode_pair == "l-up/r-up":  # measured: each misses both signs by >= 6.2e-3
        for name in _PAIR_U_CHANNELS:
            assert min(np.max(np.abs(left[name] - s * base[name])) for s in (1, -1)) >= 6e-3


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
        ops = (*boson_cn_phase(cfg.N), *boson_unitary_phase(cfg.N)[:2],
               boson_number_diff(cfg.N))
        pairs = [(op, op @ op) for op in ops]
    else:
        pair = MODE_PAIRS[cfg.mode_pair]
        ops = (*fermion_cn_phase(*pair), *fermion_unitary_phase(*pair)[:2],
               well_number_diff())
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
                   expectation_series(op @ op, states))


def _fock_space_channels(cfg, traj):
    """Every fermion channel from the 16-dim embedded states and full operators."""
    states = embedded_fermion_states(traj)
    m, mp = MODE_PAIRS[cfg.mode_pair]
    cos_cn, sin_cn = fermion_cn_phase(m, mp)
    cos_u, sin_u, _ = fermion_unitary_phase(m, mp)
    w = well_number_diff()
    mean_w = expectation_series(w, states)
    second_w = expectation_series(w @ w, states)
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
    # alone and as one figure call writes them, one channel per file
    for name, entries in PRESETS.items():
        written = run_figure(name, tmp_path / name)
        assert [p.name for p in written] == [f for e in entries for f in e.filenames]
        paths = iter(written)
        for entry in entries:
            series = run_scenario(entry.config)
            for filename, channel in zip(entry.filenames, entry.config.channels):
                expected = _format_csv_by_row(series, [channel])
                assert format_csv(series, [channel]) == expected, filename
                assert next(paths).read_bytes() == expected.encode("utf-8"), filename


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


_SERIES = TimeSeries(np.linspace(0.0, 1.0, 3), {"avgW": np.zeros(3)})
_START = np.array([1.0, 0.0, 0.0])


@pytest.mark.parametrize("call", [
    lambda: expectation_series(np.ones((3, 2)), _START),
    lambda: commutator("a", "b"),
    lambda: expectation_series(np.eye(3), "x"),
    lambda: expectation_series(np.eye(3), [[1.0, 0.0, 0.0], [1.0, 0.0]]),
    lambda: expectation_series(np.eye(3), 1.0),
    lambda: embedded_fermion_states("x"),
    lambda: expectation_series(np.eye(3), np.full((2, 3), np.nan)),
    lambda: expectation_series(np.eye(3), np.full((2, 3), np.inf)),
    lambda: embedded_fermion_states(np.array([[np.nan, 0.0, 0.0], [1.0, 0.0, 0.0]])),
    lambda: unitarity_deficiency(np.ones((2, 3))),
    lambda: unitarity_deficiency(np.eye(3), np.eye(2)),
    lambda: eigen_propagate("x", _START, [0.0, 1.0]),
    lambda: eigen_propagate(np.zeros((0, 0)), [], [0.0]),
    lambda: write_csv(_SERIES, ["avgW"], None),
    lambda: run_figure("fig1", None),
    lambda: preset_entries(["fig1"]),
], ids=["expectation-not-square", "commutator-str", "expectation-str-states",
        "expectation-ragged-states", "expectation-scalar-state", "embed-str-states",
        "expectation-nan-states", "expectation-inf-states", "embed-nan-states",
        "deficiency-not-square", "deficiency-subspace-mismatch", "propagate-str",
        "propagate-empty", "write-csv-none", "figure-none", "preset-list"])
def test_malformed_operands_are_config_errors(call):
    # each once raised numpy's ValueError or IndexError, or Python's TypeError
    with pytest.raises(ConfigError):
        call()
