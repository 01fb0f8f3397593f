"""Config format: round-trip identity, validation diagnostics, bundles."""

import dataclasses
import hashlib

import pytest

from spikebench import (
    AdaptiveLifParams,
    ConfigError,
    GridSpec,
    IzhikevichParams,
    NeuronState,
    PlatformRecord,
    StdpParams,
    StimulusSpec,
    connection_probability,
    expected_event_count,
)
from spikebench.distributed import check_run_args
from spikebench.network import check_build_args
from spikebench.neurons import _check_dt
from spikebench.config import (
    SCHEMA,
    RunConfig,
    apply_overrides,
    bundled_config_names,
    emit_config,
    load_bundled_config,
    parse_config,
    parse_config_text,
    parse_inputs,
)


def test_default_config_is_valid():
    cfg = RunConfig()
    assert cfg.validate() == []
    assert cfg["grid.x"] == 10
    assert cfg["stimulus.ext_synapses_per_neuron"] == 594
    assert cfg["stimulus.ext_rate_hz"] == 3.0


def test_emit_parse_roundtrip_identity():
    cfg = RunConfig().with_values(**{
        "grid.seed": 99,
        "grid.decay_lambda": 3.25,
        "stdp.enabled": True,
        "run.transport": "tcp",
        "power.server.current": 1.15,
    })
    text = emit_config(cfg)
    back = parse_config_text(text)
    assert back.values == cfg.values
    assert emit_config(back) == text


def test_parse_reports_every_problem():
    bad = "grid.x = ten\nnot a line\nmystery.key = 3\ngrid.y = 4\n"
    with pytest.raises(ConfigError) as exc_info:
        parse_config_text(bad, source="test.cfg")
    problems = exc_info.value.problems
    assert len(problems) == 3
    assert any("grid.x" in p for p in problems)
    assert any("not a line" in p for p in problems)
    assert any("mystery.key" in p for p in problems)


def test_validation_field_diagnostics():
    cfg = RunConfig().with_values(**{
        "run.simulated_seconds": 0.0,
        "run.ranks": 0,
        "grid.exc_fraction": 1.5,
        "run.transport": "carrier-pigeon",
    })
    problems = cfg.validate()
    assert any("run.simulated_seconds" in p for p in problems)
    assert any("run.ranks" in p for p in problems)
    assert any("exc_fraction" in p for p in problems)
    assert any("run.transport" in p for p in problems)
    with pytest.raises(ConfigError):
        cfg.require_valid()


def test_validation_refuses_more_ranks_than_columns_and_runs_of_no_step():
    cfg = load_bundled_config("small-1k").with_values(**{  # 5 x 2 columns
        "run.ranks": 20, "run.simulated_seconds": 0.0004})
    assert cfg.validate() == [
        "run.simulated_seconds: 0.0004 s rounds to 0 steps of run.dt_ms = 1.0 ms",
        "run.ranks: 20 ranks exceed the grid's 10 columns",
    ]
    fits = cfg.with_values(**{"run.ranks": 10, "run.simulated_seconds": 0.0006})
    assert fits.validate() == []  # 0.6 steps round to one


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7])
def test_stimulus_seed_outside_64_bits_is_refused(seed):
    # a masked seed would draw the stimulus of another, valid seed
    cfg = RunConfig().with_values(**{"stimulus.seed": seed})
    assert cfg.validate() == [f"stimulus: seed must fit in 64 bits, got {seed}"]
    assert RunConfig().with_values(**{"stimulus.seed": 2**64 - 1}).validate() == []


def test_comments_and_blank_lines_ignored():
    cfg = parse_config_text("# hello\n\ngrid.x = 3\n")
    assert cfg["grid.x"] == 3


def test_overrides():
    cfg = RunConfig()
    out = apply_overrides(cfg, ["grid.seed=7", "stdp.enabled=true", "grid.w_exc=0.25"])
    assert out["grid.seed"] == 7
    assert out["stdp.enabled"] is True
    assert out["grid.w_exc"] == 0.25
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["nonsense"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["grid.seed=abc"])
    with pytest.raises(ConfigError):
        apply_overrides(cfg, ["no.such.key=1"])
    with pytest.raises(ConfigError) as exc_info:
        apply_overrides(cfg, ["no.such.key=1", "stdp.enabled=maybe"])
    assert exc_info.value.problems == [
        "--set: unknown key 'no.such.key'",
        "--set stdp.enabled: expected true/false, got 'maybe'",
    ]


def test_bundled_configs():
    names = bundled_config_names()
    assert "paper-desk.cfg" in names
    assert "small-1k.cfg" in names
    desk = load_bundled_config("paper-desk")
    assert desk.validate() == []
    assert desk["grid.x"] * desk["grid.y"] * desk["grid.neurons_per_column"] == 10_000
    assert desk["grid.target_fanout"] == 1195.0
    assert desk["stimulus.ext_synapses_per_neuron"] == 594
    assert desk["stimulus.ext_rate_hz"] == 3.0
    assert desk["run.simulated_seconds"] == 3.0
    assert desk["stdp.enabled"] is False
    small = load_bundled_config("small-1k.cfg")
    assert small.validate() == []
    assert small["grid.x"] * small["grid.y"] * small["grid.neurons_per_column"] == 1000
    with pytest.raises(ConfigError):
        load_bundled_config("missing")


def test_power_records():
    cfg = RunConfig()
    assert cfg.power_labels() == []
    assert cfg.power_record("server") is None
    cfg = cfg.with_values(**{
        "power.server.current": 1.15,
        "power.server.wall_seconds": 9.1,
        "power.server.events": 235_000_000,
    })
    assert cfg.power_labels() == ["server"]
    record = cfg.power_record("server")
    assert record.voltage == 220.0
    assert record.current == 1.15
    assert record.wall_seconds == 9.1
    assert record.events == 235_000_000
    assert cfg.power_record("embedded") is None


# the parent revision's emit_config text of the power sections below
POWER_TEXT = """\
power.server.voltage = 230.0
power.server.current = 1.15
power.server.current_error = 0.01
power.server.wall_seconds = 9.1
power.server.events = 235000000
power.server.baseline_w = 53.0
power.embedded.voltage = 220.0
power.embedded.current = 0.08
power.embedded.current_error = 0.005
power.embedded.wall_seconds = 30.0
power.embedded.events = 7
power.embedded.baseline_w = 1.5
"""


def test_power_sections_are_the_platform_record():
    records = {"server": PlatformRecord(voltage=230.0, current=1.15, current_error=0.01,
                                        wall_seconds=9.1, events=235_000_000, baseline_w=53.0),
               "embedded": PlatformRecord(current=0.08, wall_seconds=30.0, events=7,
                                          baseline_w=1.5)}
    cfg = RunConfig().with_values(**{f"power.{label}.{f.name}": getattr(record, f.name)
                                     for label, record in records.items()
                                     for f in dataclasses.fields(record)})
    assert cfg.validate() == []
    assert {label: cfg.power_record(label) for label in records} == records
    text = emit_config(cfg)
    # same keys, order, types and values as before; the rest of the text
    # is the default config's
    assert text.split("\n\n")[-1].splitlines() == POWER_TEXT.splitlines()
    assert text.split("\n\n")[:-1] == emit_config(RunConfig()).split("\n\n")[:-1]
    assert parse_config_text(text).values == cfg.values


def test_every_power_key_is_checked_with_or_without_a_current():
    # a record with no current is absent from the report, but a stray key
    # is still refused, one diagnostic each, prefixed by its section
    cfg = RunConfig().with_values(**{"power.embedded.voltage": -5.0,
                                     "power.server.current_error": -1.0})
    assert cfg.power_labels() == []
    assert cfg.validate() == ["power.server: current_error must be >= 0, got -1.0",
                              "power.embedded: voltage must be > 0, got -5.0"]
    cfg = RunConfig().with_values(**{"power.server.current": 1.0,
                                     "power.server.baseline_w": 1000.0})
    assert cfg.validate() == [
        "power.server: baseline_w must lie in [0, voltage * current = 220.0 W], got 1000.0"]


def test_typed_views_construct_domain_objects():
    cfg = load_bundled_config("paper-desk")
    spec = cfg.grid_spec()
    assert spec.n_neurons == 10_000
    stim = cfg.stimulus()
    assert stim.events_per_step(1.0) == pytest.approx(1.782, rel=1e-9)
    assert stim.ext_synapses_per_neuron == 594
    lif = cfg.lif_params()
    assert lif.tau_m == 20.0
    stdp = cfg.stdp_params()
    assert stdp.enabled is False


def test_parse_config_file(tmp_path):
    path = tmp_path / "my.cfg"
    path.write_text(emit_config(RunConfig().with_values(**{"grid.seed": 123})))
    cfg = parse_config(path)
    assert cfg["grid.seed"] == 123


SECTIONS = {"grid": GridSpec, "model.lif": AdaptiveLifParams,
            "stimulus": StimulusSpec, "stdp": StdpParams,
            "power.server": PlatformRecord, "power.embedded": PlatformRecord}


def test_each_dataclass_field_is_one_schema_key():
    declared = set()
    for section, cls in SECTIONS.items():
        for f in dataclasses.fields(cls):
            key = f"{section}.{f.name}".replace("grid.grid_", "grid.")
            assert SCHEMA[key] == (f.type, f.default)
            declared.add(key)
    assert {k for k in SCHEMA
            if k.startswith(("grid.", "model.lif.", "stimulus.", "stdp.", "power."))} == declared


def test_schema_types_are_plain_types():
    # a string annotation (from __future__ import annotations) would show here
    assert {kind for kind, _ in SCHEMA.values()} <= {int, float, bool, str}
    for kind, default in SCHEMA.values():
        assert type(default) is kind


def test_default_views_equal_dataclass_defaults():
    cfg = RunConfig()
    assert cfg.grid_spec() == GridSpec()
    assert cfg.stimulus() == StimulusSpec()
    assert cfg.lif_params() == AdaptiveLifParams()
    assert cfg.stdp_params() == StdpParams()


@pytest.mark.parametrize("cfg, digest", [
    (RunConfig, "8a63ef5fc038e155766c0465eb083c31ced60d2e3fa63d0235f19be162e475c2"),
    (lambda: load_bundled_config("paper-desk"),
     "7bb2f6d358fd00e5288321e44ed9c8ff6695e76c230a08355b1fde2930eed318"),
], ids=["default", "paper-desk"])
def test_emitted_config_is_pinned(cfg, digest):
    # the 50 keys keep the order and text they had beside the dropped
    # run.w_exc_scale key, whose line was the only difference
    text = emit_config(cfg())
    assert len(SCHEMA) == 50 and "w_exc_scale" not in text
    old = text.replace("run.transport = memory\n",
                       "run.transport = memory\nrun.w_exc_scale = 1.0\n")
    assert hashlib.sha256(old.encode()).hexdigest() == digest


def test_every_float_key_refuses_a_value_that_is_not_finite():
    # nan compares false with every bound, so no section check could see
    # it; inf overflows the step count.  The parser refuses both, one
    # diagnostic per key, in the same pass as every other bad line.
    float_keys = [key for key, (kind, _) in SCHEMA.items() if kind is float]
    assert "run.simulated_seconds" in float_keys and "grid.w_exc" in float_keys
    for raw in ("nan", "inf", "-inf", "NaN"):
        with pytest.raises(ConfigError) as err:
            apply_overrides(RunConfig(), [f"{key}={raw}" for key in float_keys] + ["run.x=1"])
        assert err.value.problems == [
            f"--set {key}: must be a finite number, got {raw!r}" for key in float_keys
        ] + ["--set: unknown key 'run.x'"]
    with pytest.raises(ConfigError) as err:
        parse_config_text("run.simulated_seconds = nan\ngrid.w_exc = 0.5\n"
                          "stimulus.ext_rate_hz = inf\n", source="x.cfg")
    assert err.value.problems == [
        "x.cfg:1: run.simulated_seconds: must be a finite number, got 'nan'",
        "x.cfg:3: stimulus.ext_rate_hz: must be a finite number, got 'inf'",
    ]
    assert apply_overrides(RunConfig(), ["grid.w_exc=1e300"])["grid.w_exc"] == 1e300


# every parameter record, with the fields it has no default for
_RECORDS = {GridSpec: {}, StimulusSpec: {}, AdaptiveLifParams: {}, StdpParams: {},
            PlatformRecord: {}, IzhikevichParams: dict(a=0.02, b=0.2, c=-65.0, d=8.0),
            NeuronState: dict(v=-65.0, w=-13.0)}


@pytest.mark.parametrize("record, name", [
    (record, f.name) for record in _RECORDS for f in dataclasses.fields(record)
    if f.type is float], ids=lambda x: getattr(x, "__name__", x))
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_every_float_field_of_a_record_refuses_a_value_that_is_not_finite(record, name, value):
    # each rule is a positive test, which nan and +-inf fail; a rule across
    # two fields is skipped while one of them is broken, so one line each
    with pytest.raises(ConfigError) as err:
        record(**{**_RECORDS[record], name: value})
    [problem] = err.value.problems
    assert problem.startswith(f"{name} must ") and problem.endswith(f", got {value}")


def test_a_nan_stimulus_rate_or_refractory_time_is_refused():
    # each ran before: no external event at all, or a refractory time of 0
    with pytest.raises(ConfigError) as err:
        StimulusSpec(ext_rate_hz=float("nan"))
    assert err.value.problems == ["ext_rate_hz must be >= 0, got nan"]
    with pytest.raises(ConfigError) as err:
        AdaptiveLifParams(t_refr=float("nan"))
    assert err.value.problems == ["t_refr must be >= 0, got nan"]


def test_a_rule_across_two_fields_is_one_line_naming_one_field():
    cases = [
        (GridSpec, dict(delay_min_ms=5.0, delay_max_ms=2.0),
         ["delay_max_ms (2.0) must be at least delay_min_ms (5.0)"]),
        (GridSpec, dict(w_exc=-1.0, w_inh=-2.0),  # the magnitudes are one rule each
         ["w_exc must be >= 0, got -1.0", "w_inh must be >= 0, got -2.0"]),
        (StdpParams, dict(w_min=5.0, w_max=1.0), ["w_min (5.0) must not exceed w_max (1.0)"]),
        (StdpParams, dict(a_plus=-1.0, a_minus=-2.0),
         ["a_plus must be >= 0, got -1.0", "a_minus must be >= 0, got -2.0"]),
        (AdaptiveLifParams, dict(v_thresh=-70.0),
         ["v_thresh (-70.0) must exceed v_reset (-60.0)"]),
        (IzhikevichParams, dict(a=0.02, b=0.2, c=40.0, d=8.0),
         ["v_peak (30.0) must exceed reset c (40.0)"]),
        # voltage and current both broken: their product bounds nothing
        (PlatformRecord, dict(voltage=-5.0, current=-1.0, baseline_w=2.0),
         ["voltage must be > 0, got -5.0", "current must be >= 0, got -1.0"]),
    ]
    for record, kwargs, problems in cases:
        with pytest.raises(ConfigError) as err:
            record(**kwargs)
        assert err.value.problems == problems


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_every_float_argument_of_an_entry_point_refuses_a_value_that_is_not_finite(value):
    spec = GridSpec(grid_x=2, grid_y=2, neurons_per_column=10, target_fanout=5.0)
    calls = [
        (lambda: check_build_args(spec, value), "run.dt_ms: "),
        (lambda: check_run_args(seconds=value), "run.simulated_seconds: "),
        (lambda: check_run_args(timeout=value), "run.timeout_seconds: "),
        (lambda: _check_dt(value), "dt "),
        (lambda: connection_probability(value, spec), "distance "),
        (lambda: connection_probability(1.0, spec, p0=value), "p0 "),
        *[(lambda i=i: expected_event_count(*[value if j == i else 1.0 for j in range(6)]),
           f"{name} ") for i, name in enumerate(
               ["neurons", "seconds", "mean_rate_hz", "fanout", "ext_syn", "ext_rate_hz"])],
    ]
    for call, name in calls:
        with pytest.raises(ConfigError) as err:
            call()
        [problem] = err.value.problems
        assert problem.startswith(f"{name}must ") and problem.endswith(f", got {value}")


def test_a_value_that_did_not_parse_reads_none_until_a_later_item_sets_it():
    cfg, problems = parse_inputs("small-1k", [("--set", "grid.x=abc"), ("--set", "grid.x=3"),
                                              ("--set", "run.ranks=2"),
                                              ("--ranks", "run.ranks=two")])
    assert problems == ["--set grid.x: invalid literal for int() with base 0: 'abc'",
                        "--ranks run.ranks: invalid literal for int() with base 0: 'two'"]
    assert cfg["grid.x"] == 3 and cfg["run.ranks"] is None
    assert cfg.grid_spec().grid_x == 3 and cfg.validate() == []
    # a source that cannot be read could have set any key
    cfg, problems = parse_inputs("no-such", [("--set", "run.ranks=0")])
    assert problems == [f"no bundled config 'no-such.cfg'; available: {bundled_config_names()}"]
    assert [key for key, value in cfg.values.items() if value is not None] == ["run.ranks"]
    assert cfg.validate() == ["run.ranks: must be >= 1, got 0"]
