"""STDP: pair rule analytics, trace/closed-form equivalence, clamping,
and the disabled-is-identity contract."""

import itertools
import math
import os
import threading

import numpy as np
import pytest

from spikebench import (ConfigError, GridSpec, SpikebenchError, StimulusSpec, build_network,
                        engine, forked, plasticity, raster_checksum)
from spikebench.distributed import partition, run_simulation
from spikebench.plasticity import StdpParams, StdpState, depress, potentiate, stdp_delta_w


PARAMS = StdpParams(a_plus=0.01, a_minus=0.012, tau_plus=20.0, tau_minus=20.0,
                    w_min=0.0, w_max=10.0, enabled=True)


def closed_form_total(pre_times, post_times, params):
    return sum(
        stdp_delta_w(tp - tq, params) for tq in pre_times for tp in post_times
    )


class _ToyPart:
    """One pre source (gid 0) wired to one local post neuron by one synapse."""

    def __init__(self, w0=1.0):
        self.rank = 0
        self.model = "adaptive_lif"
        self.n_slots = 2
        self.local_gids = np.array([1], dtype=np.int64)
        self.local_excitatory = np.array([True])
        self.source_excitatory = np.array([True, True])
        self.in_offsets = np.array([0, 1, 1], dtype=np.int64)
        self.in_words = np.array([1], dtype=np.int32)  # delay 1 * n_local 1 + target 0
        self.source_weights = np.array([w0, w0], dtype=np.float64)


def run_trace_toy(pre_steps, post_steps, params, n_steps, w0=1.0):
    part = _ToyPart(w0=w0)
    state = StdpState(part, params, dt_ms=1.0)
    pre_set, post_set = set(pre_steps), set(post_steps)
    for t in range(n_steps):
        pre = np.array([0], dtype=np.int64) if t in pre_set else np.empty(0, dtype=np.int64)
        post = np.array([0], dtype=np.int64) if t in post_set else np.empty(0, dtype=np.int64)
        state.process_step(pre, post)
    return part.in_weights[0]


# ----------------------------------------------------------- pair rule

def test_delta_w_analytic_points():
    assert stdp_delta_w(PARAMS.tau_plus, PARAMS) == pytest.approx(PARAMS.a_plus / math.e, rel=1e-12)
    assert stdp_delta_w(-PARAMS.tau_minus, PARAMS) == pytest.approx(-PARAMS.a_minus / math.e, rel=1e-12)
    assert stdp_delta_w(0.0, PARAMS) == 0.0


def test_delta_w_vanishes_at_long_lags():
    assert abs(stdp_delta_w(10 * PARAMS.tau_plus, PARAMS)) < PARAMS.a_plus * math.exp(-10) * (1 + 1e-12)
    assert abs(stdp_delta_w(200.0, PARAMS)) < 1e-6
    with pytest.raises(ConfigError):
        stdp_delta_w(float("nan"), PARAMS)


def test_param_invariants():
    with pytest.raises(ConfigError):
        StdpParams(tau_plus=0.0)
    with pytest.raises(ConfigError):
        StdpParams(w_min=1.0, w_max=0.0)
    with pytest.raises(ConfigError):
        StdpParams(a_plus=-0.1)


# ----------------------------------------------- trace vs closed form

def test_isolated_pair_matches_closed_form():
    for lag in range(1, 60):
        w = run_trace_toy([5], [5 + lag], PARAMS, n_steps=5 + lag + 1)
        expected = 1.0 + stdp_delta_w(float(lag), PARAMS)
        assert w == pytest.approx(expected, abs=1e-12)
    for lag in range(1, 60):
        w = run_trace_toy([5 + lag], [5], PARAMS, n_steps=5 + lag + 1)
        expected = 1.0 + stdp_delta_w(-float(lag), PARAMS)
        assert w == pytest.approx(expected, abs=1e-12)


def test_simultaneous_pair_changes_nothing():
    w = run_trace_toy([5], [5], PARAMS, n_steps=10)
    assert w == 1.0


def test_all_patterns_up_to_3x3_match_pairwise_sum():
    # exhaustive spike patterns on a lag grid; wide bounds so the clamp
    # never engages and the trace total must equal the pairwise sum
    params = StdpParams(a_plus=0.01, a_minus=0.012, tau_plus=20.0, tau_minus=20.0,
                        w_min=-100.0, w_max=100.0, enabled=True)
    grid = [0, 3, 7, 12, 25]
    horizon = max(grid) + 2
    checked = 0
    for n_pre in range(1, 4):
        for n_post in range(1, 4):
            for pre in itertools.combinations(grid, n_pre):
                for post in itertools.combinations(grid, n_post):
                    w = run_trace_toy(pre, post, params, n_steps=horizon, w0=1.0)
                    expected = 1.0 + closed_form_total(pre, post, params)
                    assert w == pytest.approx(expected, abs=1e-12), (pre, post)
                    checked += 1
    assert checked == (5 + 10 + 10) ** 2


# ------------------------------------------------------------ clamping

def test_weight_at_w_max_stays_exactly_w_max():
    params = StdpParams(a_plus=0.5, a_minus=0.0, tau_plus=20.0, tau_minus=20.0,
                        w_min=0.0, w_max=2.0, enabled=True)
    w = run_trace_toy([5], [6], params, n_steps=8, w0=2.0)
    assert w == 2.0


def test_weights_clamped_within_bounds():
    params = StdpParams(a_plus=5.0, a_minus=5.0, tau_plus=20.0, tau_minus=20.0,
                        w_min=0.5, w_max=1.5, enabled=True)
    up = run_trace_toy([5], [6], params, n_steps=8, w0=1.4)
    down = run_trace_toy([6], [5], params, n_steps=8, w0=0.6)
    assert up == 1.5
    assert down == 0.5


def test_pure_op_forms():
    w = np.array([1.0, 9.99])
    out = potentiate(w, np.array([1.0, 1.0]), PARAMS)
    assert out[0] == pytest.approx(1.0 + PARAMS.a_plus)
    assert out[1] == PARAMS.w_max
    out = depress(np.array([0.005, 1.0]), np.array([1.0, 1.0]), PARAMS)
    assert out[0] == max(PARAMS.w_min, 0.0)
    assert out[1] == pytest.approx(1.0 - PARAMS.a_minus)


def test_excitatory_weights_never_change_sign():
    # heavy depression cannot push an excitatory weight below zero even
    # with a negative configured floor
    params = StdpParams(a_plus=0.0, a_minus=10.0, tau_plus=20.0, tau_minus=20.0,
                        w_min=-5.0, w_max=10.0, enabled=True)
    w = run_trace_toy([6, 8, 10], [5], params, n_steps=12, w0=0.2)
    assert w >= 0.0


def test_state_requires_enabled():
    with pytest.raises(ConfigError):
        StdpState(_ToyPart(), StdpParams(enabled=False), dt_ms=1.0)


# ----------------------------------------- engine-level enable/disable

def _net_and_stim():
    spec = GridSpec(grid_x=2, grid_y=2, neurons_per_column=25, target_fanout=30.0,
                    decay_lambda=2.0, w_exc=0.3, w_inh=1.2, seed=5)
    net = build_network(spec, dt_ms=1.0)
    stim = StimulusSpec(ext_synapses_per_neuron=100, ext_rate_hz=8.0, ext_weight=2.0, seed=13)
    return net, stim


def test_disabled_leaves_weights_bit_identical():
    net, stim = _net_and_stim()
    disabled = StdpParams(enabled=False)
    before = net.weights.copy()
    _, _, _, parts = run_simulation(net, seconds=0.5, stim=stim, stdp_params=disabled)
    assert (net.weights == before).all()
    # with STDP off no per-synapse table exists, so nothing could write one
    assert parts[0].in_weights is None
    assert np.array_equal(parts[0].source_weights.view(np.int64),
                          net.source_weights().view(np.int64))


def test_disabled_raster_identical_to_plasticity_free_build():
    net, stim = _net_and_stim()
    _, r_without, _, _ = run_simulation(net, seconds=0.5, stim=stim, stdp_params=None)
    _, r_disabled, _, _ = run_simulation(
        net, seconds=0.5, stim=stim, stdp_params=StdpParams(enabled=False)
    )
    assert raster_checksum(*r_without) == raster_checksum(*r_disabled)


def test_enabled_changes_excitatory_weights_only():
    net, stim = _net_and_stim()
    params = StdpParams(a_plus=0.05, a_minus=0.06, tau_plus=20.0, tau_minus=20.0,
                        w_min=0.0, w_max=5.0, enabled=True)
    _, _, _, parts = run_simulation(net, seconds=0.5, stim=stim, stdp_params=params)
    part = parts[0]
    exc = part.source_excitatory
    spec = net.spec
    # one table entry per plastic synapse; every other synapse keeps its
    # source's weight
    assert len(part.in_weights) == np.diff(part.in_offsets)[exc].sum()
    assert (part.source_weights[~exc] == -spec.w_inh).all()
    assert (part.source_weights[exc] == spec.w_exc).all()
    assert not (part.in_weights == spec.w_exc).all()
    assert (part.in_weights >= 0.0).all()
    assert (part.in_weights <= params.w_max).all()


def test_plastic_table_is_partition_invariant():
    # each 2-rank table is the 1-rank table restricted to that rank's
    # targets, in order
    from spikebench.config import load_bundled_config

    cfg = load_bundled_config("small-1k")
    net = build_network(cfg.grid_spec(), dt_ms=1.0)
    params = StdpParams(a_plus=0.05, a_minus=0.06, tau_plus=20.0, tau_minus=20.0,
                        w_min=0.0, w_max=5.0, enabled=True)
    runs = [run_simulation(net, seconds=0.5, stim=cfg.stimulus(), stdp_params=params,
                           n_ranks=n)[3] for n in (1, 2)]
    (one,), two = runs
    plastic = np.repeat(one.source_excitatory, np.diff(one.in_offsets))
    targets = one.local_gids[one.in_targets[plastic]]
    assert not (one.in_weights == net.spec.w_exc).all()
    assert sum(len(p.in_weights) for p in two) == len(one.in_weights)
    for part in two:
        assert np.array_equal(part.in_weights,
                              one.in_weights[np.isin(targets, part.local_gids)])


def test_enabled_partition_invariant():
    net, stim = _net_and_stim()
    params = StdpParams(a_plus=0.05, a_minus=0.06, tau_plus=20.0, tau_minus=20.0,
                        w_min=0.0, w_max=5.0, enabled=True)
    _, r1, _, _ = run_simulation(net, seconds=0.5, stim=stim, stdp_params=params, n_ranks=1)
    _, r2, _, _ = run_simulation(net, seconds=0.5, stim=stim, stdp_params=params, n_ranks=2)
    assert raster_checksum(*r1) == raster_checksum(*r2)


@pytest.mark.parametrize("enabled", [False, True])
def test_table_bytes_count_each_ranks_stored_arrays(enabled):
    net, stim = _net_and_stim()
    params = StdpParams(a_plus=0.05, a_minus=0.06, w_max=5.0, enabled=enabled)
    merged, _, per_rank, parts = run_simulation(net, seconds=0.1, stim=stim,
                                                stdp_params=params, n_ranks=2)
    for part, m in zip(parts, per_rank):
        stored = [part.local_gids, part.local_excitatory, part.source_excitatory,
                  part.in_offsets, part.in_words, part.source_weights,
                  *part.peer_sources.values()]
        expected = sum(a.nbytes for a in stored)
        if enabled:
            n_global = len(part.in_offsets) - 1
            counts = np.diff(part.in_offsets)
            n_plastic = int(counts[part.source_excitatory].sum())
            per_plastic = (np.min_scalar_type(n_global).itemsize
                           + np.min_scalar_type(counts.max()).itemsize)
            assert part.in_weights.nbytes == 8 * n_plastic
            # in_weights and its offsets, the transpose (bounds, src, slot)
            # and both traces
            expected += (8 * n_plastic + 8 * (n_global + 1) + 8 * (part.n_local + 1)
                         + per_plastic * n_plastic + 8 * (n_global + part.n_local))
        else:
            assert part.in_weights is None
        assert m.table_bytes == expected
    assert merged.table_bytes == sum(m.table_bytes for m in per_rank)


# ------------------------------------------- reference rule on small-1k

def _reference_step(part, params, decay_plus, decay_minus, pre_trace, post_trace,
                    pre_sources, post_local):
    """The trace rule over the whole synapse table, one phase at a time.

    Every synapse is visited through a mask over the full table, so this
    reads only the rank's public CSR layout, never the state's transpose.
    """
    n_global = len(part.in_offsets) - 1
    src = np.repeat(np.arange(n_global), np.diff(part.in_offsets))
    plastic = part.source_excitatory[src]
    lo, hi = max(params.w_min, 0.0), params.w_max
    w = part.in_weights
    pre_trace *= decay_plus
    post_trace *= decay_minus
    pre_mask = np.zeros(n_global, dtype=bool)
    pre_mask[pre_sources] = True
    post_mask = np.zeros(part.n_local, dtype=bool)
    post_mask[post_local] = True
    dep = plastic & pre_mask[src]
    w[dep] = np.minimum(np.maximum(
        w[dep] - params.a_minus * post_trace[part.in_targets[dep]], lo), hi)
    pot = plastic & post_mask[part.in_targets]
    w[pot] = np.minimum(np.maximum(
        w[pot] + params.a_plus * pre_trace[src[pot]], lo), hi)
    pre_trace[pre_sources] += 1.0
    post_trace[post_local] += 1.0


@pytest.mark.parametrize("n_ranks", [1, 2])
def test_process_step_matches_reference_rule_on_small_1k(n_ranks):
    _check_process_step_against_reference(n_ranks)


def test_depression_in_blocks_matches_reference_rule(monkeypatch):
    # about 32k synapses a step in each phase: blocks of 1,000 split each
    # step's depression and potentiation, and the state's scratch shrinks
    # with them, as both read the one block size
    monkeypatch.setattr(engine, "_BLOCK_SYNAPSES", 1000)
    blocks = {"_depress": [], "_potentiate": []}

    def spy(name):
        phase = getattr(StdpState, name)

        def run(self, *args):  # the block's size is the last argument
            blocks[name].append((args[-1], len(self._words)))
            return phase(self, *args)
        return run

    for name in blocks:
        monkeypatch.setattr(StdpState, name, spy(name))
    (part,) = _check_process_step_against_reference(1)
    plastic = np.repeat(part.source_excitatory, np.diff(part.in_offsets))
    longest = max(np.diff(part.in_offsets)[part.source_excitatory].max(),
                  np.bincount(part.in_targets[plastic]).max())
    for name, seen in blocks.items():
        assert len(seen) > 10 * 50, name  # 50 steps, each cut into many blocks
        assert {scratch for _, scratch in seen} == {1000 + longest}
        assert 1000 <= max(size for size, _ in seen) < 1000 + longest


def _check_process_step_against_reference(n_ranks):
    from spikebench.config import load_bundled_config

    cfg = load_bundled_config("small-1k")
    net = build_network(cfg.grid_spec(), dt_ms=1.0)
    # a narrow weight window so both clamps engage within 50 steps
    params = StdpParams(a_plus=0.01, a_minus=0.05, tau_plus=20.0, tau_minus=15.0,
                        w_min=0.0, w_max=0.42, enabled=True)
    _, parts = partition(net, n_ranks)
    _, ref_parts = partition(net, n_ranks)
    for part, ref in zip(parts, ref_parts):
        _replay_against_reference(part, ref, params, n_steps=50)
        assert (part.in_weights == params.w_max).any() and (part.in_weights == 0.0).any()
    return parts


def _replay_against_reference(part, ref, params, n_steps):
    """Drive ``part``'s StdpState and the reference rule on ``ref`` (an
    identical part, with a weight for every synapse) with the same random
    spikes; the plastic weights must agree bit for bit."""
    n_global = len(part.in_offsets) - 1
    state = StdpState(part, params, dt_ms=1.0)
    built = np.repeat(ref.source_weights, np.diff(ref.in_offsets))
    ref.in_weights = built.copy()
    ref_pre = np.zeros(n_global)
    ref_post = np.zeros(part.n_local)
    spikes = np.random.default_rng(100 + part.rank)
    for _ in range(n_steps):
        pre = np.flatnonzero(spikes.random(n_global) < 0.2)
        post = np.flatnonzero(spikes.random(part.n_local) < 0.2)
        state.process_step(pre, post)
        _reference_step(ref, params, state.decay_plus, state.decay_minus,
                        ref_pre, ref_post, pre, post)
    plastic = np.repeat(ref.source_excitatory, np.diff(ref.in_offsets))
    assert np.array_equal(part.in_weights, ref.in_weights[plastic])
    assert np.array_equal(ref.in_weights[~plastic], built[~plastic])
    assert np.array_equal(state.pre_trace, ref_pre)
    assert np.array_equal(state.post_trace, ref_post)
    return state


@pytest.mark.parametrize("n_ranks", [1, 2])
def test_transpose_lists_each_targets_plastic_synapses_in_table_order(n_ranks):
    from spikebench.config import load_bundled_config

    net = build_network(load_bundled_config("small-1k").grid_spec(), dt_ms=1.0)
    _, parts = partition(net, n_ranks)
    for part in parts:
        state = StdpState(part, PARAMS, dt_ms=1.0)
        n_global = len(part.in_offsets) - 1
        counts = np.diff(part.in_offsets)
        assert state._by_target_src.dtype == np.min_scalar_type(n_global)
        assert state._by_target_slot.dtype == np.min_scalar_type(counts.max())
        # brute force: the plastic table positions, stably grouped by target
        positions = np.flatnonzero(np.repeat(part.source_excitatory, counts))
        targets = part.in_targets[positions]
        order = np.argsort(targets, kind="stable")
        bounds = np.searchsorted(targets[order], np.arange(part.n_local + 1))
        assert np.array_equal(state._by_target_bounds, bounds)
        rebuilt = (part.in_offsets[state._by_target_src.astype(np.int64)]
                   + state._by_target_slot)
        assert np.array_equal(rebuilt, positions[order])
        # the plastic table lists the same synapses in the same order
        plastic = state.plastic_offsets[state._by_target_src] + state._by_target_slot
        assert np.array_equal(plastic, order)


def test_transpose_types_widen_past_16_bits():
    # 70,000 sources, and source 0 alone has 70,000 synapses: neither the
    # source gid nor the slot fits uint16, so both must widen to uint32
    from spikebench.distributed import RankPartition

    n_global, n_local, big = 70_000, 40, 70_000

    def toy():
        gen = np.random.default_rng(3)
        counts = np.where(np.arange(n_global) % 3 == 0, 0, 1)
        counts[0] = big
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        delays = gen.integers(1, 4, offsets[-1])
        exc = np.arange(n_global) % 5 != 4
        return RankPartition(
            rank=0, n_ranks=1, neurons_per_column=n_local, model="adaptive_lif", n_slots=4,
            local_gids=np.arange(n_local, dtype=np.int64),
            local_excitatory=exc[:n_local], source_excitatory=exc,
            in_offsets=offsets,
            in_words=(delays * n_local + gen.integers(0, n_local, offsets[-1])).astype(np.int32),
            source_weights=np.where(exc, 0.3, -1.0))

    params = StdpParams(a_plus=0.01, a_minus=0.05, tau_plus=20.0, tau_minus=15.0,
                        w_min=0.0, w_max=0.42, enabled=True)
    state = _replay_against_reference(toy(), toy(), params, n_steps=20)
    assert state._by_target_src.dtype == np.uint32
    assert state._by_target_slot.dtype == np.uint32
    assert int(state._by_target_src.max()) >= 1 << 16
    assert int(state._by_target_slot.max()) >= 1 << 16


# ------------------------------------------- transpose in worker processes

def _small_1k_parts(fork_workers, n_ranks):
    from spikebench.config import load_bundled_config

    fork_workers(1)  # the build stays in this process
    net = build_network(load_bundled_config("small-1k").grid_spec(), dt_ms=1.0)
    return partition(net, n_ranks)[1]


def _transpose_of(part):
    state = StdpState(part, PARAMS, dt_ms=1.0)
    arrays = (state._by_target_bounds, state._by_target_src, state._by_target_slot)
    return [(a.dtype, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("n_ranks", [1, 2, 3])
def test_transpose_bytes_do_not_depend_on_worker_count(fork_workers, n_ranks):
    for part in _small_1k_parts(fork_workers, n_ranks):
        forks = fork_workers(1)
        del forks[:]
        one = _transpose_of(part)
        assert forks == []
        fds = sorted(os.listdir("/proc/self/fd"))
        for count in (2, 3):
            fork_workers(count)
            del forks[:]
            assert _transpose_of(part) == one
            assert len(forks) == count - 1  # this process transposes the first range
            with pytest.raises(ChildProcessError):  # every worker was reaped
                os.waitpid(-1, os.WNOHANG)
            assert sorted(os.listdir("/proc/self/fd")) == fds


def test_transpose_worker_failure_names_its_source_range(monkeypatch, fork_workers):
    (part,) = _small_1k_parts(fork_workers, 1)
    n_global = len(part.in_offsets) - 1
    plastic = np.where(part.source_excitatory, np.diff(part.in_offsets), 0)
    last = forked.balanced_ranges(plastic, 3)[2]
    forks = fork_workers(3)
    transpose_sources = plasticity._transpose_sources

    def fail_in_last_range(part, shifts, types, s0, s1, size):
        if s0 == last:
            raise RuntimeError("worker broke")
        return transpose_sources(part, shifts, types, s0, s1, size)

    monkeypatch.setattr(plasticity, "_transpose_sources", fail_in_last_range)
    fds = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(SpikebenchError) as err:
        StdpState(part, PARAMS, dt_ms=1.0)
    assert len(forks) == 2
    assert f"STDP transpose of sources {last}..{n_global - 1} failed" in str(err.value)
    assert "exit status 1" in str(err.value)
    assert str(err.value).endswith("RuntimeError: worker broke")  # the worker's own text
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_transpose_does_not_fork_while_another_thread_runs(fork_workers):
    (part,) = _small_1k_parts(fork_workers, 1)
    one = _transpose_of(part)
    forks = fork_workers(3)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert _transpose_of(part) == one
    finally:
        release.set()
        other.join(60)
    assert not other.is_alive()
    assert forks == []  # a forked child would hold only this thread


def test_transpose_key_fits_63_bits_or_is_refused():
    assert plasticity._key_shifts(1, 1, 1) == (0, 0)
    assert plasticity._key_shifts(10_000, 10_000, 3_000) == (12, 26)
    # 20 slot bits, 20 source bits and a 23-bit end bound n_local: 63 bits
    source_shift, target_shift = plasticity._key_shifts(2**23 - 1, 2**20, 2**20)
    assert (source_shift, target_shift) == (20, 40)
    largest = (2**23 - 2) << target_shift | (2**20 - 1) << source_shift | (2**20 - 1)
    assert largest < (2**23 - 1) << target_shift < 2**63
    with pytest.raises(ConfigError, match="8388608 targets x 1048576 sources x fan-out "
                                          "1048576 overflow the int64 STDP sort key"):
        plasticity._key_shifts(2**23, 2**20, 2**20)
