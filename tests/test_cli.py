"""CLI contract: subcommands, artifacts, provenance, exit codes."""

import os
import platform
import resource
import socket
import subprocess
import sys
import time
from dataclasses import fields

import numpy as np
import pytest

from spikebench.cli import main
from spikebench.engine import RunMetrics, load_raster_csv, raster_checksum


TINY = {
    "grid.x": "4", "grid.y": "2", "grid.neurons_per_column": "25",
    "grid.target_fanout": "30.0", "grid.w_exc": "0.3", "grid.w_inh": "1.2",
    "grid.seed": "5",
    "stimulus.ext_synapses_per_neuron": "100", "stimulus.ext_rate_hz": "8.0",
    "stimulus.ext_weight": "2.0", "stimulus.seed": "13",
    "run.simulated_seconds": "0.3",
}


def _tiny_args(extra=()):
    sets = [f"--set={k}={v}" for k, v in TINY.items()]
    return sets + list(extra)


def _read_kv(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            if "=" in line:
                key, _, val = line.partition("=")
                out[key.strip()] = val.strip()
    return out


def test_run_writes_artifacts_with_provenance(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--out", str(out)] + _tiny_args())
    assert code == 0
    raster = out / "raster.csv"
    metrics = out / "metrics.kv"
    assert raster.exists() and metrics.exists()
    # provenance: resolved config keys and seeds in both artifacts
    doc = _read_kv(metrics)
    assert doc["config.grid.seed"] == "5"
    assert doc["config.stimulus.seed"] == "13"
    assert int(doc["metrics.total_spikes"]) > 0
    assert float(doc["metrics.events_per_second"]) > 0
    assert doc["metrics.raster_sha256"]
    assert int(doc["metrics.equivalent_synapses"]) > 0
    header = raster.read_text().splitlines()[:60]
    assert any(line.startswith("# config.grid.seed = 5") for line in header)


def test_run_names_the_machine_it_measured(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--out", str(out)] + _tiny_args()) == 0
    doc = _read_kv(out / "metrics.kv")
    machine = {k: v for k, v in doc.items() if k.startswith("machine.")}
    core = np._core if hasattr(np, "_core") else np.core
    enabled = [f for f, on in core._multiarray_umath.__cpu_features__.items() if on]
    assert machine["machine.usable_cpus"] == str(len(os.sched_getaffinity(0)))
    assert machine["machine.python"] == platform.python_version()
    assert machine["machine.numpy"] == np.__version__
    assert machine["machine.numpy_simd"].split() == enabled
    assert machine["machine.arch"] == platform.machine()
    with open("/proc/cpuinfo") as fh:
        models = [line.partition(":")[2].strip() for line in fh if line.startswith("model name")]
    if models:  # ARM kernels name only the implementer and part
        assert machine["machine.cpu_model"] == models[0]
    assert machine["machine.cpu_model"] not in ("", "unknown")
    assert not any("machine" in k for k in doc if k.startswith("metrics."))


def test_run_records_network_build_time(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--out", str(out)] + _tiny_args()) == 0
    assert float(_read_kv(out / "metrics.kv")["metrics.build_seconds"]) > 0


SETUP_KEYS = ("metrics.partition_seconds", "metrics.stdp_init_seconds", "metrics.link_seconds")


@pytest.mark.parametrize("stdp", ["false", "true"])
def test_run_records_setup_times_within_its_own_wall_time(tmp_path, stdp):
    out = tmp_path / "out"
    t0 = time.perf_counter()
    assert main(["run", "--out", str(out), "--ranks", "2",
                 f"--set=stdp.enabled={stdp}"] + _tiny_args()) == 0
    wall = time.perf_counter() - t0
    doc = _read_kv(out / "metrics.kv")
    setup = {key: float(doc[key]) for key in SETUP_KEYS}
    assert all(value >= 0 for value in setup.values())
    assert (setup["metrics.stdp_init_seconds"] > 0) == (stdp == "true")
    assert (sum(setup.values()) + float(doc["metrics.build_seconds"])
            + float(doc["metrics.wall_seconds"])) < wall


def test_run_cpu_seconds_count_forked_build_workers(tmp_path, fork_workers):
    forks = fork_workers(2)
    out = tmp_path / "out"
    assert main(["run", "--config", "small-1k", "--out", str(out),
                 "--set=run.simulated_seconds=0.05"]) == 0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    assert len(forks) == 1
    # the run's reaped worker counts, children of earlier tests do not
    assert (float(_read_kv(out / "metrics.kv")["metrics.cpu_seconds"])
            > usage.ru_utime + usage.ru_stime)


def test_run_rank_count_does_not_change_checksum(tmp_path):
    out1, out4 = tmp_path / "p1", tmp_path / "p4"
    assert main(["run", "--out", str(out1), "--ranks", "1"] + _tiny_args()) == 0
    assert main(["run", "--out", str(out4), "--ranks", "4"] + _tiny_args()) == 0
    doc1 = _read_kv(out1 / "metrics.kv")
    doc4 = _read_kv(out4 / "metrics.kv")
    assert doc1["metrics.raster_sha256"] == doc4["metrics.raster_sha256"]
    assert doc1["metrics.total_spikes"] == doc4["metrics.total_spikes"]
    assert doc1["metrics.internal_synaptic_events"] == doc4["metrics.internal_synaptic_events"]


def test_run_binary_raster_format(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--out", str(out)] + _tiny_args(
        ["--set=run.raster_format=binary"]
    ))
    assert code == 0
    raster = out / "raster.bin"
    assert raster.exists()
    assert raster.stat().st_size % 8 == 0


def test_run_invalid_config_exits_2(tmp_path):
    code = main(["run", "--out", str(tmp_path / "o")] + _tiny_args(
        ["--set=run.simulated_seconds=0.0"]
    ))
    assert code == 2
    code = main(["run", "--out", str(tmp_path / "o2"), "--set=grid.x=bogus"])
    assert code == 2
    code = main(["run", "--out", str(tmp_path / "o3"), "--rank", "0"] + _tiny_args())
    assert code == 2  # --rank without --cluster
    cluster = tmp_path / "cluster.txt"
    cluster.write_text("0 127.0.0.1:1\n1 127.0.0.1:2\n")
    code = main(["run", "--out", str(tmp_path / "o4"), "--cluster", str(cluster),
                 "--ranks", "2"] + _tiny_args())
    assert code == 2  # --cluster without --rank
    assert not (tmp_path / "o4" / "metrics.kv").exists()
    code = main(["run", "--out", str(tmp_path / "o5"), "--cluster", str(cluster),
                 "--rank", "2", "--ranks", "3"] + _tiny_args())
    assert code == 2  # rank 2 has no address in the cluster file
    code = main(["run", "--out", str(tmp_path / "o6"), "--rank", "0",
                 "--cluster", str(tmp_path / "absent.txt")] + _tiny_args())
    assert code == 2  # unreadable cluster file


def test_run_rejects_driver_arguments_before_building(tmp_path, monkeypatch, capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("network built before the driver arguments were checked")

    monkeypatch.setattr("spikebench.network.build_network", no_build)
    cluster = tmp_path / "cluster.txt"
    cluster.write_text("0 127.0.0.1:1\n1 127.0.0.1:2\n")
    bad = [
        ["--rank", "0"],                                    # rank without cluster
        ["--cluster", str(cluster), "--ranks", "2"],         # cluster without rank
        ["--ranks", "9"],                                   # more ranks than the 8 columns
        ["--set=run.simulated_seconds=0.0004"],             # 0 steps of 1 ms
    ]
    for extra in bad:
        assert main(["run", "--out", str(tmp_path / "o")] + _tiny_args(extra)) == 2
    err = capsys.readouterr().err
    assert "needs a cluster" in err and "needs the rank" in err
    assert "config error: run.ranks: 9 ranks exceed the grid's 8 columns" in err
    assert "config error: run.simulated_seconds: 0.0004 s rounds to 0 steps" in err


def test_run_reports_config_rank_and_cluster_problems_in_one_pass(tmp_path, monkeypatch,
                                                                   capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("network built before the run's arguments were checked")

    monkeypatch.setattr("spikebench.network.build_network", no_build)
    assert main(["run", "--out", str(tmp_path / "o"), "--rank", "3"]
                + _tiny_args(["--set=run.ranks=0"])) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: run.ranks: must be >= 1, got 0",
        "config error: rank 3 needs a cluster (CLI: --cluster FILE)",
        "config error: rank 3 outside [0, 0)",
    ]
    assert not (tmp_path / "o").exists()


def _no_build(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("network built before the run's inputs were checked")

    monkeypatch.setattr("spikebench.network.build_network", no_build)


def test_run_reports_a_build_rule_beside_a_run_rule_in_one_pass(tmp_path, monkeypatch,
                                                                capsys):
    _no_build(monkeypatch)
    out = tmp_path / "o"
    assert main(["run", "--out", str(out)] + _tiny_args(
        ["--set=run.ranks=0", "--set=run.dt_ms=2", "--set=grid.delay_min_ms=1"])) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: grid.delay_min_ms (1.0) must be at least one step of run.dt_ms (2.0)",
        "config error: run.ranks: must be >= 1, got 0",
    ]
    assert not out.exists()


def test_run_refuses_an_infeasible_fanout_as_a_validation_failure(tmp_path, monkeypatch,
                                                                  capsys):
    # 190 of the tiny grid's 200 neurons is below the neuron count, so the
    # grid section accepts it; the build's fanout rule does not
    _no_build(monkeypatch)
    assert main(["run", "--out", str(tmp_path / "o")]
                + _tiny_args(["--set=grid.target_fanout=190", "--ranks", "9"])) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert err[0].startswith("config error: grid.target_fanout: 190.0 needs p0 = ")
    assert err[0].endswith(" > 1; grid too small for the requested fanout")
    assert err[1] == "config error: run.ranks: 9 ranks exceed the grid's 8 columns"


def test_run_reports_bad_cluster_lines_beside_the_config_problems(tmp_path, monkeypatch,
                                                                  capsys):
    _no_build(monkeypatch)
    cluster = tmp_path / "cluster.txt"
    cluster.write_text("0 localhost\n1 127.0.0.1:0\n")
    assert main(["run", "--out", str(tmp_path / "o"), "--rank", "0", "--cluster", str(cluster)]
                + _tiny_args(["--set=run.ranks=0", "--set=run.timeout_seconds=0"])) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: run.ranks: must be >= 1, got 0",
        "config error: run.timeout_seconds: must be > 0, got 0.0",
        f"config error: {cluster}:1: expected 'rank host:port', got '0 localhost'",
        f"config error: {cluster}:2: port 0 outside [1, 65535]",
    ]


def test_run_refuses_values_that_are_not_finite_before_building(tmp_path, monkeypatch,
                                                                capsys):
    _no_build(monkeypatch)
    bad = ["run.simulated_seconds=nan", "run.timeout_seconds=nan", "grid.decay_lambda=nan",
           "grid.delay_max_ms=inf", "stimulus.ext_rate_hz=nan", "grid.w_exc=nan"]
    assert main(["run", "--out", str(tmp_path / "o"), "--ranks", "2"]
                + _tiny_args([f"--set={item}" for item in bad])) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: --set {key}: must be a finite number, got {raw!r}"
        for key, _, raw in (item.partition("=") for item in bad)]


@pytest.mark.parametrize("extra, lines", [
    # a value that does not parse skips only the rules that read it
    (["--set=run.simulated_seconds=nan", "--set=run.ranks=0"],
     ["--set run.simulated_seconds: must be a finite number, got 'nan'",
      "run.ranks: must be >= 1, got 0"]),
    # the flags are items of the same pass, refused by the rules' owners
    (["--transport", "pigeon", "--set=run.ranks=0"],
     ["run.ranks: must be >= 1, got 0",
      "run.transport: expected one of ('memory', 'tcp'), got 'pigeon'"]),
    # no grid is built from a grid.x that did not parse, so no rule
    # compares the ranks with its columns
    (["--set=grid.x=abc", "--set=run.ranks=150", "--set=run.timeout_seconds=0"],
     ["--set grid.x: invalid literal for int() with base 0: 'abc'",
      "run.timeout_seconds: must be > 0, got 0.0"]),
    # frames and rasters number a step in 32 bits; a step count too large
    # for an int is refused by the same rule, with no traceback
    (["--set=run.simulated_seconds=4294967.2955"],
     ["run.simulated_seconds: must be fewer than 2**32 steps of run.dt_ms = 1.0 ms, "
      "got 4294967.2955"]),
    (["--set=run.simulated_seconds=1e306"],
     ["run.simulated_seconds: must be fewer than 2**32 steps of run.dt_ms = 1.0 ms, "
      "got 1e+306"]),
    (["--set=run.dt_ms=1e-320"],
     ["grid.delay_max_ms / run.dt_ms (inf) exceeds the int16 range",
      "run.simulated_seconds: must be fewer than 2**32 steps of run.dt_ms = 1e-320 ms, "
      "got 0.3"]),
], ids=["nan-and-ranks", "transport-flag", "grid-not-parsed", "2**32-steps", "huge-seconds",
        "tiny-dt"])
def test_run_reports_every_input_problem_in_one_pass(tmp_path, monkeypatch, capsys, extra,
                                                     lines):
    _no_build(monkeypatch)
    assert main(["run", "--out", str(tmp_path / "o")] + _tiny_args(extra)) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {line}" for line in lines]
    assert not (tmp_path / "o").exists()


def test_run_reports_config_lines_beside_set_items_and_refuses_an_unreadable_config(
        tmp_path, monkeypatch, capsys):
    _no_build(monkeypatch)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("grid.x = 4\nrun.ranks = zero\n")
    assert main(["run", "--out", str(tmp_path / "o"), "--config", str(cfg)] + _tiny_args(
        ["--set=run.timeout_seconds=-1", "--set=grid.w_exc=heavy", "--set=grid.nope=1"])) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {cfg}:2: run.ranks: invalid literal for int() with base 0: 'zero'",
        "config error: --set grid.w_exc: could not convert string to float: 'heavy'",
        "config error: --set: unknown key 'grid.nope'",
        "config error: run.timeout_seconds: must be > 0, got -1.0",
    ]
    # a directory has no lines: every key it might set is unknown, so only
    # the rules of the keys set after it run
    assert main(["run", "--out", str(tmp_path / "o"), "--config", str(tmp_path),
                 "--set=run.ranks=0"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: --config {tmp_path}: Is a directory",
        "config error: run.ranks: must be >= 1, got 0",
    ]
    assert not (tmp_path / "o").exists()


def test_flags_win_over_set_items(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--out", str(out), "--ranks", "2"]
                + _tiny_args(["--set=run.ranks=3", "--set=run.simulated_seconds=0.05"])) == 0
    doc = _read_kv(out / "metrics.kv")
    assert doc["config.run.ranks"] == "2"
    assert "metrics.rank1.n_neurons" in doc and "metrics.rank2.n_neurons" not in doc


def test_run_refuses_a_stray_power_key_without_a_current(tmp_path, capsys):
    assert main(["run", "--out", str(tmp_path / "o")]
                + _tiny_args(["--set=power.embedded.voltage=-5"])) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: power.embedded: voltage must be > 0, got -5.0"]
    assert not (tmp_path / "o").exists()


def test_run_refuses_a_baseline_above_the_measured_power_before_building(tmp_path, monkeypatch,
                                                                         capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("network built with a baseline above the measured power")

    monkeypatch.setattr("spikebench.network.build_network", no_build)
    out = tmp_path / "o"
    assert main(["run", "--out", str(out)] + _tiny_args(
        ["--set=power.server.current=1.0", "--set=power.server.baseline_w=1000"])) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: power.server: baseline_w must lie in [0, voltage * current = 220.0 W], "
        "got 1000.0"]
    assert not (out / "raster.csv").exists() and not (out / "metrics.kv").exists()


def test_run_refuses_a_stimulus_seed_outside_64_bits(tmp_path, monkeypatch, capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("network built with a stimulus seed outside 64 bits")

    monkeypatch.setattr("spikebench.network.build_network", no_build)
    # --seed S sets stimulus.seed to S + 1, so 2**64 - 1 is refused too
    for extra, seed in ((["--set=stimulus.seed=-1"], -1),
                        ([f"--set=stimulus.seed={2**64 + 7}"], 2**64 + 7),
                        (["--seed", str(2**64 - 1)], 2**64)):
        capsys.readouterr()
        assert main(["run", "--out", str(tmp_path / "o")] + _tiny_args(extra)) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: stimulus: seed must fit in 64 bits, got {seed}"]


def test_flags_arrive_as_text_and_their_owners_parse_them_in_the_pass(tmp_path, monkeypatch,
                                                                     capsys):
    # --rank and --seed take the config's integer syntax, int(text, 0), so
    # 010 is refused as it is in a config line; calibrate's floats parse
    # beside its rules.  Each bad flag is one line beside the config's.
    _no_build(monkeypatch)
    out = tmp_path / "o"
    cases = [
        (["run", "--rank", "x"] + _tiny_args(["--set=run.ranks=0"]),
         ["run.ranks: must be >= 1, got 0", "--rank: invalid literal for int() with base 0: 'x'"]),
        (["run", "--seed", "010", "--rank", "1", "--cluster", str(tmp_path / "absent")]
         + _tiny_args(),
         ["--seed: invalid literal for int() with base 0: '010'",
          f"cluster file {tmp_path / 'absent'}: No such file or directory"]),
        (["calibrate", "--target-hz", "fast", "--band-hz", "inf", "--probe-seconds=-inf"]
         + _tiny_args(["--set=run.ranks=0"]),
         ["run.ranks: must be >= 1, got 0",
          "--target-hz: could not convert string to float: 'fast'",
          "--band-hz: must be finite, got inf",
          "--probe-seconds: must be finite, got -inf"]),
    ]
    for argv, lines in cases:
        assert main(argv[:1] + ["--out", str(out)] + argv[1:]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {line}" for line in lines]
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    ["--set=power.server.current=1.15", "--set=power.embedded.current=0.08"],
    ["--ranks", "2", "--set=power.server.current=1.15", "--set=power.server.wall_seconds=9.1"],
    # a run of 0 events completes; only report would find its price undefined
    ["--set=stimulus.ext_rate_hz=0", "--set=power.server.current=1"],
])
def test_run_writes_no_energy_report_whatever_power_holds(tmp_path, capsys, extra):
    out = tmp_path / "o"
    assert main(["run", "--out", str(out)] + _tiny_args(extra)) == 0
    assert capsys.readouterr().out.splitlines()[2:] == [f"wrote {out / 'raster.csv'}",
                                                        f"wrote {out / 'metrics.kv'}"]
    assert sorted(os.listdir(out)) == ["metrics.kv", "raster.csv"]


def test_run_energy_report_from_measured_events(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--out", str(out)] + _tiny_args()) == 0
    rep = tmp_path / "rep"
    assert main(["report", "--out", str(rep), "--metrics", str(out / "metrics.kv"),
                 "--set=power.server.current=1.15", "--set=power.server.wall_seconds=9.1"]) == 0
    doc = _read_kv(rep / "energy.kv")
    assert float(doc["energy.server.power_w"]) == pytest.approx(253.0, rel=1e-9)
    metrics = _read_kv(out / "metrics.kv")
    expected_jpe = 2302.3 / int(metrics["metrics.total_events"])
    assert float(doc["energy.server.joule_per_event"]) == pytest.approx(expected_jpe, rel=1e-9)
    assert doc["energy.server.wall_seconds_from"] == "power.server.wall_seconds"


def test_energy_from_the_runs_own_time_reproduces_metrics(tmp_path, capsys):
    # power.server.wall_seconds stays 0: report --metrics takes the loop
    # time from the run, so energy.kv follows from metrics.kv alone
    out = tmp_path / "run"
    assert main(["run", "--out", str(out)] + _tiny_args()) == 0
    metrics = _read_kv(out / "metrics.kv")
    wall = float(metrics["metrics.wall_seconds"])
    expected_jpe = 220.0 * 1.0 * wall / int(metrics["metrics.total_events"])
    rep = tmp_path / "rep"
    assert main(["report", "--out", str(rep), "--metrics", str(out / "metrics.kv"),
                 "--set=power.server.current=1.0"]) == 0
    doc = _read_kv(rep / "energy.kv")
    assert doc["energy.server.wall_seconds_from"] == "metrics.wall_seconds"
    assert float(doc["energy.server.wall_seconds"]) == wall
    assert float(doc["energy.server.joule_per_event"]) == pytest.approx(expected_jpe, rel=1e-12)
    # without a run's metrics the time is unknown: one diagnostic, exit 2
    capsys.readouterr()
    assert main(["report", "--out", str(tmp_path / "bad"), "--set=power.server.current=1.0",
                 "--set=power.server.events=1000"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "power.server.wall_seconds is 0" in err[0], err
    assert not (tmp_path / "bad").exists()


# a fixed metrics document, as run writes it (235 M events over 9.1 s of loop)
PINNED_METRICS = """\
config.grid.seed = 42
metrics.n_neurons = 10000
metrics.simulated_seconds = 3.0
metrics.wall_seconds = 9.1
metrics.total_spikes = 153000
metrics.internal_synaptic_events = 183000000
metrics.external_synaptic_events = 52000000
metrics.table_bytes = 48000000
"""

PINNED_ENERGY = """\
energy.server.label = server
energy.server.power_w = 252.99999999999997
energy.server.power_err_w = 1.1
energy.server.energy_j = 2302.2999999999997
energy.server.energy_err_j = 10.01
energy.server.joule_per_event = 9.797021276595743e-06
energy.server.joule_per_event_err = 4.259574468085106e-08
energy.server.wall_seconds = 9.1
energy.server.synaptic_events = 235000000
energy.server.baseline_w = 0.0
energy.server.wall_seconds_from = metrics.wall_seconds
energy.embedded.label = embedded
energy.embedded.power_w = 15.100000000000001
energy.embedded.power_err_w = 1.1
energy.embedded.energy_j = 453.00000000000006
energy.embedded.energy_err_j = 33.0
energy.embedded.joule_per_event = 1.9276595744680855e-06
energy.embedded.joule_per_event_err = 1.404255319148936e-07
energy.embedded.wall_seconds = 30.0
energy.embedded.synaptic_events = 235000000
energy.embedded.baseline_w = 2.5
energy.embedded.wall_seconds_from = power.embedded.wall_seconds
"""

PINNED_TABLE = """\
                          server   embedded  server / embedded
joule per synaptic event  9.80 uJ  1.93 uJ   5.08x
total energy to solution  2302 J   453 J     5.08x
instantaneous power       253 W    15.1 W    16.75x
time to solution          9.1 s    30 s      0.30x

reference compass_sim_on_core_i7: 5.7e-06 J/event
reference spinnaker: 2e-08 J/event
reference truenorth: 2.6e-11 J/event
"""


def test_report_of_a_metrics_document_is_pinned_byte_for_byte(tmp_path):
    doc = tmp_path / "metrics.kv"
    doc.write_text(PINNED_METRICS)
    rep = tmp_path / "rep"
    assert main(["report", "--out", str(rep), "--metrics", str(doc),
                 "--set=power.server.current=1.15", "--set=power.embedded.current=0.08",
                 "--set=power.embedded.wall_seconds=30.0",
                 "--set=power.embedded.baseline_w=2.5"]) == 0
    energy = [line for line in (rep / "energy.kv").read_text().splitlines(keepends=True)
              if line.startswith("energy.")]
    assert "".join(energy) == PINNED_ENERGY
    assert (rep / "comparison.txt").read_text() == PINNED_TABLE


def test_report_reproduces_measured_table(tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "report", "--out", str(out),
        "--set=power.server.current=1.15", "--set=power.server.wall_seconds=9.1",
        "--set=power.server.events=235000000",
        "--set=power.embedded.current=0.08", "--set=power.embedded.wall_seconds=30.0",
        "--set=power.embedded.events=235000000",
    ])
    assert code == 0
    table = (out / "comparison.txt").read_text()
    assert "9.80 uJ" in table
    assert "2.25 uJ" in table
    assert "4.36x" in table
    doc = _read_kv(out / "energy.kv")
    assert float(doc["energy.server.energy_j"]) == pytest.approx(2302.3, rel=1e-9)
    assert float(doc["energy.embedded.energy_j"]) == pytest.approx(528.0, rel=1e-9)


def test_report_refuses_to_compare_one_run_with_itself(tmp_path, capsys):
    run = tmp_path / "run"
    both = ["--set=power.server.current=1.15", "--set=power.embedded.current=0.08"]
    # run prices nothing, whatever power.* holds
    assert main(["run", "--out", str(run)] + _tiny_args(both)) == 0
    assert not (run / "energy.kv").exists()
    capsys.readouterr()
    rep = tmp_path / "rep"
    assert main(["report", "--out", str(rep), "--metrics", str(run / "metrics.kv")]
                + both) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert "power.server.wall_seconds and power.embedded.wall_seconds are both 0" in err[0]
    assert not rep.exists()


def test_comparison_prints_a_sub_second_run_with_four_digits(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["run", "--out", str(run)] + _tiny_args()) == 0
    wall = float(_read_kv(run / "metrics.kv")["metrics.wall_seconds"])
    assert wall < 1.0
    rep = tmp_path / "rep"
    assert main(["report", "--out", str(rep), "--metrics", str(run / "metrics.kv"),
                 "--set=power.server.current=1.15", "--set=power.embedded.current=0.08",
                 "--set=power.embedded.wall_seconds=30.0"]) == 0
    rows = (rep / "comparison.txt").read_text().splitlines()
    assert rows[2].split()[-5:-3] == [f"{253.0 * wall:.4g}", "J"]
    assert rows[3].split()[-5:] == ["253", "W", "17.6", "W", "14.37x"]
    assert rows[4].split()[-5:-1] == [f"{wall:.4g}", "s", "30", "s"]
    assert rows[4].split()[-4] != "0.0"


def test_report_single_record_no_ratios(tmp_path):
    out = tmp_path / "out"
    code = main([
        "report", "--out", str(out),
        "--set=power.embedded.current=0.08", "--set=power.embedded.wall_seconds=30.0",
        "--set=power.embedded.events=235000000",
    ])
    assert code == 0
    assert (out / "energy.kv").exists()
    assert not (out / "comparison.txt").exists()


def test_report_zero_events_exits_2(tmp_path, capsys):
    code = main([
        "report", "--out", str(tmp_path / "o"),
        "--set=power.server.current=1.15", "--set=power.server.wall_seconds=9.1",
    ])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: power.server.events is 0 and no measured event count supplied one; "
        "joule-per-event needs a positive event count"]


def test_report_checks_its_time_and_event_rules_in_the_pass(tmp_path, monkeypatch, capsys):
    # a record with a broken field still has its time and event count
    # resolved (here against no run), so every problem shows at once
    _no_build(monkeypatch)
    assert main(["report", "--out", str(tmp_path / "rep"), "--set=power.server.current=1",
                 "--set=power.server.voltage=-1"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: power.server: voltage must be > 0, got -1.0",
        "config error: power.server.wall_seconds is 0 and no run supplied its time; set it, "
        "or pass the run's metrics (report --metrics FILE)",
        "config error: power.server.events is 0 and no measured event count supplied one; "
        "joule-per-event needs a positive event count",
    ]
    assert not (tmp_path / "rep").exists()


def test_report_reads_its_metrics_doc_in_the_same_pass(tmp_path, capsys):
    binary = tmp_path / "binary.kv"
    binary.write_bytes(b"metrics.total_events = \xff\n")
    for doc, why in ((tmp_path / "absent.kv", "No such file or directory"),
                     (tmp_path, "Is a directory"),
                     (binary, "'utf-8' codec can't decode byte 0xff in position 23: "
                              "invalid start byte")):
        assert main(["report", "--out", str(tmp_path / "rep"), "--metrics", str(doc),
                     "--set=power.server.current=1.0", "--set=power.server.voltage=-1"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: power.server: voltage must be > 0, got -1.0",
            f"config error: --metrics {doc}: {why}",
        ]
    assert not (tmp_path / "rep").exists()


def test_report_takes_events_from_metrics_doc(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "--out", str(out)] + _tiny_args()) == 0
    rep = tmp_path / "rep"
    code = main([
        "report", "--out", str(rep), "--metrics", str(out / "metrics.kv"),
        "--set=power.server.current=1.15", "--set=power.server.wall_seconds=9.1",
    ])
    assert code == 0
    doc = _read_kv(rep / "energy.kv")
    metrics = _read_kv(out / "metrics.kv")
    assert doc["energy.server.synaptic_events"] == metrics["metrics.total_events"]


def test_report_refuses_a_metrics_doc_without_its_counters(tmp_path, capsys):
    doc = tmp_path / "metrics.kv"
    doc.write_text("metrics.n_neurons = 1000\nmetrics.wall_seconds = soon\n")
    assert main(["report", "--out", str(tmp_path / "rep"), "--metrics", str(doc),
                 "--set=power.server.current=1.0"]) == 2
    err = capsys.readouterr().err.splitlines()
    # one diagnostic per counter missing or malformed; n_neurons parses
    assert len(err) == 6 and "config error: metrics.wall_seconds: expected float, got 'soon'" in err
    assert not (tmp_path / "rep" / "energy.kv").exists()


def _calibrated(tmp_path, capsys, extra):
    """Calibrate the tiny config -> (derived config, the scale found)."""
    out = tmp_path / "out"
    assert main(["calibrate", "--out", str(out)] + extra + _tiny_args()) == 0
    derived = out / "calibrated.cfg"
    assert derived.exists()
    printed = capsys.readouterr().out.splitlines()[0].split()
    assert printed[:2] == ["calibrated", "grid.w_exc"] and printed[4] == "x"
    from spikebench.config import parse_config
    return parse_config(derived), float(printed[3]), derived.read_text()


def test_calibrate_writes_derived_config(tmp_path, capsys):
    cfg, scale, text = _calibrated(tmp_path, capsys, [
        "--target-hz", "13.0", "--band-hz", "9.0",
        "--probe-seconds", "0.2", "--warmup-seconds", "0.2"])
    assert cfg["grid.w_exc"] > 0 and scale > 0
    assert "w_exc_scale" not in text


def test_calibrate_writes_the_weight_it_found_into_grid_w_exc(tmp_path, capsys):
    # a band the unscaled weight misses, so the search moves the weight;
    # the derived config is the input with grid.w_exc = w_exc * scale, the
    # product each probe ran with, and nothing else changed
    from spikebench.config import RunConfig, apply_overrides
    cfg, scale, text = _calibrated(tmp_path, capsys, [
        "--target-hz", "40.0", "--band-hz", "10.0",
        "--probe-seconds", "0.1", "--warmup-seconds", "0.1"])
    assert scale != 1.0 and cfg["grid.w_exc"] == float(TINY["grid.w_exc"]) * scale
    tiny = apply_overrides(RunConfig(), [f"{k}={v}" for k, v in TINY.items()])
    assert cfg.values == {**tiny.values, "grid.w_exc": cfg["grid.w_exc"]}
    assert "w_exc_scale" not in text and f"grid.w_exc = {cfg['grid.w_exc']!r}\n" in text


def test_calibrate_refuses_each_bad_flag_before_building(tmp_path, monkeypatch, capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("network built before the calibrate flags were checked")

    monkeypatch.setattr("spikebench.network.build_network", no_build)
    out = tmp_path / "o"
    assert main(["calibrate", "--out", str(out), "--probe-seconds", "0", "--band-hz", "-1",
                 "--warmup-seconds", "-0.5", "--target-hz", "0"]
                + _tiny_args(["--set=run.ranks=0"])) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: run.ranks: must be >= 1, got 0",
        "config error: --target-hz: must be finite and > 0, got 0.0",
        "config error: --band-hz: must be finite and > 0, got -1.0",
        "config error: --warmup-seconds: must be finite and >= 0, got -0.5",
        "config error: --probe-seconds: must be finite and at least one step of "
        "run.dt_ms = 1.0 ms, got 0.0",
    ]
    assert not out.exists()
    # a probe of half a step rounds up to one, and is accepted
    assert main(["calibrate", "--out", str(out), "--probe-seconds", "0.0005",
                 "--warmup-seconds", "nan"] + _tiny_args()) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error: --warmup-seconds: must be finite and >= 0, got nan"]
    # the probes run warmup + probe steps, which frames number in 32 bits
    for warmup, probe in (("0.5", "1e306"), ("4294967.295", "0.001")):
        assert main(["calibrate", "--out", str(out), "--warmup-seconds", warmup,
                     "--probe-seconds", probe] + _tiny_args()) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: --warmup-seconds + --probe-seconds: must be fewer than 2**32 steps "
            f"of run.dt_ms = 1.0 ms, got {float(warmup)} + {float(probe)} s"]


def test_calibrate_probes_run_exactly_the_steps_they_read(tmp_path, monkeypatch, capsys):
    # 20.5 + 20.5 steps round to 21 + 21: each probe runs all 42 and reads
    # its rate over the 21 steps after the warmup
    from spikebench import distributed
    from spikebench.engine import step_count

    real, runs = distributed.run_simulation, []

    def recorded(net, *, seconds, **kwargs):
        result = real(net, seconds=seconds, **kwargs)
        runs.append((step_count(seconds, net.dt_ms), result[1][0], net.n_neurons))
        return result

    monkeypatch.setattr(distributed, "run_simulation", recorded)
    assert main(["calibrate", "--out", str(tmp_path / "o"), "--target-hz", "13.0",
                 "--band-hz", "1000.0", "--warmup-seconds", "0.0205",
                 "--probe-seconds", "0.0205"] + _tiny_args()) == 0
    [(n_steps, steps, n_neurons)] = runs  # the first probe lands in the band
    assert n_steps == 42 and steps.max() <= 41
    rate = int((steps >= 21).sum()) / (n_neurons * 0.021)
    assert f"(probe rate {rate:.3f} Hz)" in capsys.readouterr().out


def test_calibrate_impossible_target_exits_1(tmp_path):
    code = main([
        "calibrate", "--out", str(tmp_path / "o"),
        "--target-hz", "1000.0", "--band-hz", "1.0",
        "--probe-seconds", "0.1", "--warmup-seconds", "0.0",
    ] + _tiny_args())
    assert code == 1


def test_seed_flag_overrides_both_seeds(tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--out", str(out), "--seed", "77"] + _tiny_args()) == 0
    doc = _read_kv(out / "metrics.kv")
    assert doc["config.grid.seed"] == "77"
    assert doc["config.stimulus.seed"] == "78"


def test_bundled_config_by_name(tmp_path):
    # resolve a bundled name and override to a fast run
    out = tmp_path / "out"
    code = main([
        "run", "--config", "small-1k", "--out", str(out),
        "--set=run.simulated_seconds=0.1",
    ])
    assert code == 0
    assert (out / "metrics.kv").exists()


@pytest.fixture(scope="module")
def two_rank_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("two_ranks")
    assert main(["run", "--config", "small-1k", "--out", str(out), "--ranks", "2",
                 "--set=run.simulated_seconds=0.2"]) == 0
    return _read_kv(out / "metrics.kv")


# the metrics.* keys of a 2-rank run, rank rows aside
RUN_KEYS = {f"metrics.{name}" for name in (
    "n_neurons", "simulated_seconds", "wall_seconds", "total_spikes",
    "internal_synaptic_events", "external_synaptic_events", "total_events", "mean_rate_hz",
    "events_per_second", "equivalent_synapses", "table_bytes", "raster_sha256",
    "build_seconds", "partition_seconds", "stdp_init_seconds", "link_seconds", "cpu_seconds")}
RANK_NAMES = ("n_neurons", "simulated_seconds", "wall_seconds", "total_spikes",
              "internal_synaptic_events", "external_synaptic_events", "table_bytes",
              "total_events", "mean_rate_hz", "events_per_second")


def test_run_metrics_keys_are_pinned(two_rank_doc):
    keys = {key for key in two_rank_doc if key.startswith("metrics.")}
    assert keys == RUN_KEYS | {f"metrics.rank{r}.{name}" for r in (0, 1) for name in RANK_NAMES}
    for key in keys - {"metrics.raster_sha256"}:
        value = two_rank_doc[key]
        # an integer, or a float written as the repr of a Python float
        assert value.isdigit() or repr(float(value)) == value, (key, value)


def test_run_writes_per_rank_rows_that_sum_to_the_merged_counts(two_rank_doc):
    doc = two_rank_doc
    assert "metrics.rank2.wall_seconds" not in doc
    for f in fields(RunMetrics):
        if f.name == "setup_seconds":  # the run's, in no rank row (the pinned keys)
            continue
        rows = [f.type(doc[f"metrics.rank{r}.{f.name}"]) for r in (0, 1)]
        run = f.type(doc[f"metrics.{f.name}"])
        assert all(value > 0 for value in rows), f.name
        if f.name == "wall_seconds":  # the slowest rank's loop
            assert run == max(rows)
        elif f.name == "simulated_seconds":  # one run, one simulated time
            assert run == rows[0] == rows[1] == 0.2
        else:
            assert run == sum(rows), f.name


def _free_ports(n):
    socks, ports = [], []
    for _ in range(n):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
        ports.append(s.getsockname()[1])
    for s in socks:
        s.close()
    return ports


def test_multiprocess_tcp_cluster_matches_memory(tmp_path):
    # two CLI processes, one rank each, rendezvous via a cluster file;
    # merged shards must match the single-process run bit-for-bit
    ports = _free_ports(2)
    cluster = tmp_path / "cluster.txt"
    cluster.write_text("".join(f"{r} 127.0.0.1:{p}\n" for r, p in enumerate(ports)))
    outs = [tmp_path / f"rank{r}" for r in range(2)]
    base = ["-m", "spikebench.cli", "run", "--cluster", str(cluster)]
    sets = [f"--set={k}={v}" for k, v in TINY.items()] + [
        "--set=run.ranks=2", "--set=power.server.current=1.15"]
    procs = [
        subprocess.Popen(
            [sys.executable] + base + ["--rank", str(r), "--out", str(outs[r])] + sets,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        for r in range(2)
    ]
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
    for r in range(2):  # each rank's raster and metrics, never an energy report
        assert sorted(os.listdir(outs[r])) == [f"metrics_rank{r}.kv", f"raster_rank{r}.csv"]

    steps = []
    gids = []
    for r in range(2):
        s, g = load_raster_csv(outs[r] / f"raster_rank{r}.csv")
        steps.append(s)
        gids.append(g)
    merged = raster_checksum(np.concatenate(steps), np.concatenate(gids))
    # each rank reports its own neurons
    n_local = [int(_read_kv(outs[r] / f"metrics_rank{r}.kv")["metrics.n_neurons"])
               for r in range(2)]
    assert sum(n_local) == 4 * 2 * 25

    ref = tmp_path / "ref"
    assert main(["run", "--out", str(ref)] + _tiny_args(["--set=run.simulated_seconds=0.3"])) == 0
    assert _read_kv(ref / "metrics.kv")["metrics.raster_sha256"] == merged


def test_cluster_rank_that_cannot_listen_exits_1_with_one_line(tmp_path):
    # another socket holds rank 0's port, so its listener cannot bind
    with socket.create_server(("127.0.0.1", 0)) as holder:
        port = holder.getsockname()[1]
        cluster = tmp_path / "cluster.txt"
        cluster.write_text(f"0 127.0.0.1:{port}\n1 127.0.0.1:{_free_ports(1)[0]}\n")
        sets = [f"--set={k}={v}" for k, v in TINY.items()] + [
            "--set=run.ranks=2", "--set=run.timeout_seconds=5"]
        got = subprocess.run(
            [sys.executable, "-m", "spikebench.cli", "run", "--cluster", str(cluster),
             "--rank", "0", "--out", str(tmp_path / "out")] + sets,
            capture_output=True, text=True, timeout=120)
    assert got.returncode == 1
    lines = got.stderr.splitlines()
    assert len(lines) == 1, got.stderr
    assert lines[0].startswith("runtime failure: rank 0 could not listen at")
    assert str(port) in lines[0]
