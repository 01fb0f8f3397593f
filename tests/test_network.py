"""Network construction: normalization, determinism, statistics, packed words."""

import dataclasses
import math
import os
import re
import signal

import numpy as np
import pytest

from spikebench import (
    ConfigError,
    GridSpec,
    SpikebenchError,
    StimulusSpec,
    build_network,
    connection_probability,
    count_equivalent_synapses,
    network_stats,
    normalize_fanout,
)
from spikebench import distributed, forked, network, rng
from spikebench.network import format_network_stats


@pytest.fixture(scope="module")
def small_spec():
    return GridSpec(grid_x=5, grid_y=2, neurons_per_column=100,
                    target_fanout=200.0, decay_lambda=2.0, seed=42)


@pytest.fixture(scope="module")
def small_net(small_spec):
    return build_network(small_spec, dt_ms=1.0)


def test_single_column_p0_is_exact():
    # one column of 1196 neurons, fanout 1195: p0 = 1195/1195 with the
    # source excluded from its own column's pool
    spec = GridSpec(grid_x=1, grid_y=1, neurons_per_column=1196,
                    target_fanout=1195.0, decay_lambda=2.0)
    assert normalize_fanout(spec) == pytest.approx(1.0, rel=1e-12)


def test_connection_probability_analytic_points(small_spec):
    p0 = normalize_fanout(small_spec)
    assert connection_probability(0.0, small_spec) == pytest.approx(p0, rel=1e-12)
    assert connection_probability(small_spec.decay_lambda, small_spec) == pytest.approx(
        p0 / np.e, rel=1e-12
    )


def test_connection_probability_monotone(small_spec):
    p0 = normalize_fanout(small_spec)
    ds = np.linspace(0.0, 10.0, 100)
    ps = [connection_probability(float(d), small_spec, p0=p0) for d in ds]
    assert all(0.0 <= p <= 1.0 for p in ps)
    assert all(a >= b for a, b in zip(ps, ps[1:]))


def test_connection_probability_rejects_negative_distance(small_spec):
    with pytest.raises(ConfigError):
        connection_probability(-0.5, small_spec)


def test_infeasible_fanout_raises():
    spec = GridSpec(grid_x=2, grid_y=2, neurons_per_column=10, target_fanout=39.0)
    with pytest.raises(ConfigError, match=r"^grid.target_fanout: 39.0 needs p0 = \d+\.\d{4} > 1"):
        normalize_fanout(spec)
    # fanout >= total neurons is rejected when the spec is made
    with pytest.raises(ConfigError, match=r"target_fanout \(40.0\) must be below the neuron "
                                          r"count \(40\)"):
        GridSpec(grid_x=2, grid_y=2, neurons_per_column=10, target_fanout=40.0)


def test_grid_spec_checks_itself_on_construction():
    with pytest.raises(ConfigError) as err:
        GridSpec(grid_x=0)
    assert err.value.problems == ["grid must be at least 1x1, got 0x10"]
    with pytest.raises(ConfigError) as err:  # every problem at once
        GridSpec(neurons_per_column=0, exc_fraction=1.0, decay_lambda=0.0, seed=-1)
    assert len(err.value.problems) == 4


def test_build_reports_every_bad_argument_at_once():
    spec = GridSpec(grid_x=2, grid_y=2, neurons_per_column=10, target_fanout=5.0)
    with pytest.raises(ConfigError) as err:
        build_network(spec, dt_ms=0.0, model="hh")
    assert err.value.problems == [
        "model.kind: unknown model 'hh'; expected one of ('izhikevich', 'adaptive_lif')",
        "run.dt_ms: must be > 0, got 0.0",
    ]
    # with a valid dt, the delay checks report beside the model's
    with pytest.raises(ConfigError) as err:
        build_network(dataclasses.replace(spec, delay_min_ms=0.4), dt_ms=1.0, model="hh")
    assert len(err.value.problems) == 2
    assert ("grid.delay_min_ms (0.4) must be at least one step of run.dt_ms (1.0)"
            in err.value.problems[1])


def test_check_build_args_lists_every_rule_before_any_draw(monkeypatch):
    # the build's rules, the fanout's among them, in one ConfigError from
    # the function that build_network calls first; nothing is drawn
    def no_draw(*args):
        raise RuntimeError("drew a synapse")

    monkeypatch.setattr(rng, "philox_generator", no_draw)
    spec = GridSpec(grid_x=2, grid_y=2, neurons_per_column=10, target_fanout=39.0)
    for check in (network.check_build_args, build_network):
        with pytest.raises(ConfigError) as err:
            check(spec, 2.0, "hh")
        problems = err.value.problems
        assert problems[:2] == [
            "model.kind: unknown model 'hh'; expected one of ('izhikevich', 'adaptive_lif')",
            "grid.delay_min_ms (1.0) must be at least one step of run.dt_ms (2.0)",
        ]
        assert len(problems) == 3 and re.fullmatch(
            r"grid.target_fanout: 39.0 needs p0 = \d\.\d{4} > 1; "
            r"grid too small for the requested fanout", problems[2])
    with pytest.raises(ConfigError) as err:  # no neuron has a target to reach
        network.check_build_args(GridSpec(grid_x=1, grid_y=1, neurons_per_column=1,
                                          target_fanout=0.5))
    assert err.value.problems == [
        "grid.target_fanout: 0.5 cannot be met: no neuron has an eligible target"]
    # a spec of None stands for a grid with problems of its own
    with pytest.raises(ConfigError) as err:
        network.check_build_args(None, 0.0, "adaptive_lif")
    assert err.value.problems == ["run.dt_ms: must be > 0, got 0.0"]
    network.check_build_args(dataclasses.replace(spec, target_fanout=5.0), 1.0)


def test_the_weight_is_one_input_that_only_source_weights_reads(small_spec, small_net):
    # the build never reads w_exc: a network given a * 1.37 through
    # replace holds the table of one built with it, and its weights are
    # those the former second knob, source_weights(1.37), formed
    a = small_spec.w_exc
    given = dataclasses.replace(small_net, spec=dataclasses.replace(small_spec, w_exc=a * 1.37))
    direct = build_network(dataclasses.replace(small_spec, w_exc=a * 1.37), dt_ms=1.0)
    exc = small_net.is_excitatory(np.arange(small_net.n_neurons))
    knob = np.where(exc, float(a) * 1.37, -float(small_spec.w_inh))
    for net in (given, direct):
        assert net.offsets.tobytes() == small_net.offsets.tobytes()
        assert net.words.tobytes() == small_net.words.tobytes()
        assert net.source_weights().tobytes() == knob.tobytes()
    with pytest.raises(TypeError):  # no second knob
        small_net.source_weights(1.37)


def test_mean_fanout_within_two_percent(small_net, small_spec):
    mean = small_net.fanouts.mean()
    assert abs(mean - small_spec.target_fanout) / small_spec.target_fanout < 0.02


def test_build_deterministic(small_spec, small_net):
    again = build_network(small_spec, dt_ms=1.0)
    assert (again.offsets == small_net.offsets).all()
    assert (again.targets == small_net.targets).all()
    assert (again.weights == small_net.weights).all()
    assert (again.delay_steps == small_net.delay_steps).all()


def test_seed_change_alters_wiring_not_statistics(small_spec, small_net):
    other = build_network(dataclasses.replace(small_spec, seed=small_spec.seed + 1), dt_ms=1.0)
    assert not (
        len(other.targets) == len(small_net.targets)
        and (other.targets == small_net.targets).all()
    )
    assert abs(other.fanouts.mean() - small_spec.target_fanout) / small_spec.target_fanout < 0.02


def test_no_self_synapses(small_net):
    src = np.repeat(np.arange(small_net.n_neurons), small_net.fanouts)
    assert (src != small_net.targets).all()


def test_weights_signed_by_source_class(small_net):
    spec = small_net.spec
    src = np.repeat(np.arange(small_net.n_neurons), small_net.fanouts)
    exc = (src % spec.neurons_per_column) < spec.n_exc_per_column
    assert (small_net.weights[exc] == spec.w_exc).all()
    assert (small_net.weights[~exc] == -spec.w_inh).all()


def test_excitatory_composition_exact_per_column(small_net):
    spec = small_net.spec
    gids = np.arange(small_net.n_neurons)
    exc = small_net.is_excitatory(gids)
    per_col = exc.reshape(spec.n_columns, spec.neurons_per_column).sum(axis=1)
    assert (per_col == round(spec.exc_fraction * spec.neurons_per_column)).all()


def test_delays_in_range_and_uniform(small_net, small_spec):
    d = small_net.delay_steps
    lo = round(small_spec.delay_min_ms / small_net.dt_ms)
    hi = round(small_spec.delay_max_ms / small_net.dt_ms)
    assert d.min() >= lo and d.max() <= hi
    assert len(d) >= 10**5
    counts = np.bincount(d)[lo:hi + 1]
    expected = len(d) / (hi - lo + 1)
    chi2 = ((counts - expected) ** 2 / expected).sum()
    # 19 dof at the 1% level: critical value 36.19
    assert chi2 < 36.19


def test_count_equivalent_synapses_examples(small_net):
    # empty network
    empty = build_network(
        GridSpec(grid_x=1, grid_y=1, neurons_per_column=2, target_fanout=0.5,
                 decay_lambda=1.0, seed=1), dt_ms=1.0)
    none = StimulusSpec(ext_synapses_per_neuron=0)
    assert count_equivalent_synapses(empty, none) == empty.total_synapses
    # 1K neurons at fanout 200, no external: the smallest scaling point
    total = count_equivalent_synapses(small_net, none)
    assert abs(total - 200_000) / 200_000 < 0.02
    with_ext = count_equivalent_synapses(small_net, StimulusSpec(ext_synapses_per_neuron=594))
    assert with_ext == small_net.total_synapses + small_net.n_neurons * 594


def test_synapse_counting_arithmetic():
    # 10K neurons * (1195 internal + 594 external) = 17.89M ~ "18M"
    assert 10_000 * (1195 + 594) == 17_890_000


def test_network_stats_and_formatting(small_net):
    stats = network_stats(small_net)
    assert stats["n_neurons"] == 1000
    assert stats["n_excitatory"] == 800
    assert stats["n_inhibitory"] == 200
    assert stats["total_synapses"] == small_net.total_synapses
    text = format_network_stats(stats)
    assert "network.mean_fanout" in text
    assert "network.delay_hist.1" in text


def test_build_grow_path_gives_identical_words(monkeypatch, small_spec, small_net):
    # a one-word table makes the build grow it at every column, by the
    # column's words or by doubling, whichever is more
    monkeypatch.setattr(network, "_table_capacity", lambda spec: 1)
    grown = build_network(small_spec, dt_ms=1.0)
    assert np.array_equal(grown.offsets, small_net.offsets)
    assert grown.words.dtype == np.int32
    assert np.array_equal(grown.words, small_net.words)


def test_build_rejects_ring_beyond_int32_word(monkeypatch):
    # 2 columns of 32,768 neurons and a 32,767-step delay: 32,768 slots.
    # A 1-rank ring then has 2**31 cells, one too many for an int32 word.
    # The check comes before any draw.
    def no_draw(*args):
        raise RuntimeError("drew a synapse")

    monkeypatch.setattr(rng, "philox_generator", no_draw)
    spec = GridSpec(grid_x=2, grid_y=1, neurons_per_column=32768, target_fanout=1.0,
                    delay_max_ms=32767.0)
    with pytest.raises(ConfigError) as err:
        build_network(spec, dt_ms=1.0)
    assert len(err.value.problems) == 1
    assert "32768 ring slots x 65536 neurons is 2147483648 synapse words" in err.value.problems[0]
    # one slot fewer fits int32: the build goes on to draw
    with pytest.raises(RuntimeError, match="drew a synapse"):
        build_network(dataclasses.replace(spec, delay_max_ms=32766.0), dt_ms=1.0)


def test_delay_min_below_dt_rejected():
    spec = GridSpec(grid_x=2, grid_y=2, neurons_per_column=10, target_fanout=5.0,
                    delay_min_ms=0.5, delay_max_ms=20.0)
    with pytest.raises(ConfigError):
        build_network(spec, dt_ms=1.0)
    # but fine at dt = 0.5
    net = build_network(spec, dt_ms=0.5)
    assert net.delay_steps.min() >= 1


@pytest.mark.parametrize("delays_ms, steps", [((2.5, 3.5), (3, 4)), ((1.5, 2.5), (2, 3))])
def test_delay_bounds_round_half_steps_up(delays_ms, steps):
    # half to even would build 2-4 steps for [2.5, 3.5] ms, and only 2
    # steps, with a ring of 3, for [1.5, 2.5] ms
    spec = GridSpec(grid_x=2, grid_y=2, neurons_per_column=10, target_fanout=10.0,
                    delay_min_ms=delays_ms[0], delay_max_ms=delays_ms[1])
    net = build_network(spec, dt_ms=1.0)
    assert (int(net.delay_steps.min()), int(net.delay_steps.max())) == steps
    assert net.n_slots == steps[1] + 1
    for n_ranks in (1, 2):
        assert all(p.n_slots == net.n_slots for p in distributed.partition(net, n_ranks)[1])
    # a minimum below one step is refused, even where it would round up to one
    with pytest.raises(ConfigError, match="delay_min_ms"):
        build_network(dataclasses.replace(spec, delay_min_ms=0.75), dt_ms=1.0)


def _reference_source(spec, dt_ms, s):
    """Targets and delays of source ``s`` from numpy's own calls, as the
    module docstring describes them: per-source Philox stream, binomial
    count per target column, a uniform slot per synapse that skips the
    source itself, then a uniform integer delay per synapse."""
    npc = spec.neurons_per_column
    col = s // npc
    cols = np.arange(spec.n_columns)
    dx = cols % spec.grid_x - col % spec.grid_x
    dy = cols // spec.grid_x - col // spec.grid_x
    dist = np.sqrt((dx * dx + dy * dy).astype(np.float64))
    probs = normalize_fanout(spec) * np.array([math.exp(-d / spec.decay_lambda) for d in dist])
    eligible = np.full(spec.n_columns, npc)
    eligible[col] = npc - 1
    gen = rng.philox_generator(spec.seed, s)
    tgt_col = np.repeat(cols, gen.binomial(eligible, probs))
    slots = np.floor(gen.random(len(tgt_col)) * eligible[tgt_col]).astype(np.int64)
    slots[(tgt_col == col) & (slots >= s - col * npc)] += 1
    lo = math.floor(spec.delay_min_ms / dt_ms + 0.5)  # half steps round up
    hi = math.floor(spec.delay_max_ms / dt_ms + 0.5)
    delays = gen.integers(lo, hi + 1, size=len(tgt_col))
    return tgt_col * npc + slots, delays


def _assert_every_source_matches_reference(net):
    spec = net.spec
    sources = [_reference_source(spec, net.dt_ms, s) for s in range(spec.n_neurons)]
    offsets = np.cumsum([0] + [len(targets) for targets, _ in sources])
    words = np.concatenate([d * spec.n_neurons + t for t, d in sources]).astype(np.int32)
    assert net.offsets.tobytes() == offsets.astype(np.int64).tobytes()
    assert net.words.tobytes() == words.tobytes()


def test_build_matches_per_source_reference():
    # 4x3 grid at dt 0.5: corner, edge and interior columns
    spec = GridSpec(grid_x=4, grid_y=3, neurons_per_column=40, target_fanout=150.0,
                    decay_lambda=2.0, delay_max_ms=12.0)
    for seed in (9, 7, 3):
        _assert_every_source_matches_reference(
            build_network(dataclasses.replace(spec, seed=seed), dt_ms=0.5))


@pytest.mark.parametrize("spec", [
    # small-1k's shape: the own column's binomial has n * p = 43 > 30,
    # where numpy switches from inversion to BTPE
    GridSpec(grid_x=5, grid_y=2, neurons_per_column=100, target_fanout=200.0,
             decay_lambda=2.0),
    # one neuron per column: the own column has no eligible target, and
    # numpy draws nothing for its binomial
    GridSpec(grid_x=6, grid_y=5, neurons_per_column=1, target_fanout=4.0,
             decay_lambda=2.0),
], ids=["small-1k", "one-per-column"])
def test_build_matches_reference_for_every_source(spec):
    for seed in (42, 7, 3):
        _assert_every_source_matches_reference(
            build_network(dataclasses.replace(spec, seed=seed), dt_ms=1.0))


class _CountingGenerator:
    """A Philox Generator that counts its ``integers`` calls."""

    def __init__(self, gen):
        self.gen, self.integers_calls = gen, 0

    def __getattr__(self, name):
        return getattr(self.gen, name)

    def integers(self, *args, **kwargs):
        self.integers_calls += 1
        return self.gen.integers(*args, **kwargs)


def test_build_redraws_sources_numpy_would_reject(monkeypatch):
    # a 30,000-step delay span: numpy rejects a 32-bit half below
    # 2**32 mod 30,000 = 17,296, about 4e-6 per delay; seed 1 rejects
    # halves of two sources among 1M delays
    spec = GridSpec(grid_x=2, grid_y=2, neurons_per_column=500, target_fanout=500.0,
                    delay_max_ms=30000.0, seed=1)
    made = []
    real = rng.philox_generator

    def counting_generator(seed, stream):
        made.append(_CountingGenerator(real(seed, stream)))
        return made[-1]

    monkeypatch.setattr(rng, "philox_generator", counting_generator)
    # one process: the counts of forked workers never reach this one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    net = build_network(spec, dt_ms=1.0)
    monkeypatch.undo()
    assert net.total_synapses >= 1_000_000
    assert made[0].integers_calls == 2  # one per redrawn source
    _assert_every_source_matches_reference(net)


def _table_bytes(net):
    return net.words.tobytes(), net.offsets.tobytes(), net.column_synapses.tobytes()


@pytest.mark.parametrize("spec, dt_ms", [
    (GridSpec(grid_x=5, grid_y=2, neurons_per_column=100, target_fanout=200.0,
              decay_lambda=2.0), 1.0),
    (GridSpec(grid_x=4, grid_y=3, neurons_per_column=40, target_fanout=150.0,
              decay_lambda=2.0, delay_max_ms=12.0, seed=9), 0.5),
], ids=["small-1k", "4x3"])
def test_build_bytes_do_not_depend_on_worker_count(fork_workers, spec, dt_ms):
    forks = fork_workers(1)
    one = _table_bytes(build_network(spec, dt_ms=dt_ms))
    assert forks == []
    fds = sorted(os.listdir("/proc/self/fd"))
    for count in (2, 3, 4):
        del forks[:]
        fork_workers(count)
        assert _table_bytes(build_network(spec, dt_ms=dt_ms)) == one
        assert len(forks) == count - 1  # this process builds the first range
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)
        assert sorted(os.listdir("/proc/self/fd")) == fds


def test_build_column_ranges_balance_expected_synapses():
    # the corner columns of a 4x3 grid reach fewer targets than the middle
    spec = GridSpec(grid_x=4, grid_y=3, neurons_per_column=40, target_fanout=150.0)
    _, probs, eligible = network._connection_kernel(spec)
    expected = (probs * eligible).sum(axis=1)
    for parts in range(1, spec.n_columns + 1):
        bounds = forked.balanced_ranges(expected, parts)
        assert bounds[0] == 0 and bounds[-1] == spec.n_columns
        assert all(a < b for a, b in zip(bounds, bounds[1:]))  # none empty
    bounds = forked.balanced_ranges(expected, 3)
    sums = [expected[a:b].sum() for a, b in zip(bounds, bounds[1:])]
    assert max(sums) - min(sums) <= expected.max()


def test_build_grow_path_with_workers_gives_identical_words(monkeypatch, fork_workers,
                                                           small_spec, small_net):
    # the worker's buffer and the table it is read into both start at one word
    forks = fork_workers(2)
    monkeypatch.setattr(network, "_table_capacity", lambda spec: 1)
    grown = build_network(small_spec, dt_ms=1.0)
    assert len(forks) == 1
    assert _table_bytes(grown) == _table_bytes(small_net)


def test_build_worker_failure_names_its_range_and_leaves_nothing_behind(
        monkeypatch, fork_workers, small_spec):
    forks = fork_workers(3)
    build_columns = network._build_columns

    def fail_in_last_range(*args):
        lo = args[5]
        if lo >= 7:
            raise RuntimeError("worker broke")
        return build_columns(*args)

    monkeypatch.setattr(network, "_build_columns", fail_in_last_range)
    fds = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(SpikebenchError) as err:
        build_network(small_spec, dt_ms=1.0)
    assert len(forks) == 2
    assert "columns 7..9" in str(err.value) and "exit status 1" in str(err.value)
    assert str(err.value).endswith("RuntimeError: worker broke")  # the worker's own text
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_build_failure_in_this_process_kills_and_reaps_workers(monkeypatch, fork_workers,
                                                              small_spec):
    forks = fork_workers(2)
    build_columns = network._build_columns

    def fail_in_first_range(*args):
        if args[5] == 0:
            raise RuntimeError("parent broke")
        return build_columns(*args)

    monkeypatch.setattr(network, "_build_columns", fail_in_first_range)
    fds = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(RuntimeError, match="parent broke"):
        build_network(small_spec, dt_ms=1.0)
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_build_fork_failure_closes_its_pipes_and_kills_and_reaps_the_first_worker(
        monkeypatch, fork_workers, small_spec):
    fork_workers(3)
    pids, kills, fork, kill = [], [], os.fork, os.kill

    def fork_once():
        if pids:
            raise OSError("fork refused")
        pids.append(fork())
        return pids[-1]

    def recording_kill(pid, sig):
        kills.append((pid, sig))
        kill(pid, sig)

    monkeypatch.setattr(os, "fork", fork_once)
    monkeypatch.setattr(os, "kill", recording_kill)
    fds = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(OSError, match="fork refused"):
        build_network(small_spec, dt_ms=1.0)
    assert kills == [(pids[0], signal.SIGKILL)]
    with pytest.raises(ChildProcessError):  # the first worker was reaped
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == fds
