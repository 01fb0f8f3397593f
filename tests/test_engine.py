"""Engine loop: stimulus, delay ring, event accounting, calibration."""

import dataclasses
import hashlib

import numpy as np
import pytest

from spikebench import (
    CalibrationError,
    ConfigError,
    ContractViolationError,
    DelayRing,
    GridSpec,
    NumericalDivergenceError,
    StimulusSpec,
    build_network,
    calibrate_rate,
    expected_event_count,
    raster_checksum,
)
from spikebench import rng
from spikebench.distributed import run_simulation
from spikebench.engine import (
    Engine,
    RunMetrics,
    merge_ranks,
    load_raster_binary,
    load_raster_csv,
    save_raster_binary,
    save_raster_csv,
    step_count,
)
from spikebench.neurons import NeuronState, izhikevich_preset, step_izhikevich


# ------------------------------------------------------------- stimulus

def test_poisson_external_zero_rate_always_zero():
    stim = StimulusSpec(ext_rate_hz=0.0)
    lam = stim.events_per_step(1.0)
    assert all(rng.poisson_keyed(lam, 1, n, t) == 0 for n in range(50) for t in range(5))


def test_poisson_external_mean_within_one_percent():
    # 594 synapses at 3 Hz, dt=1 ms -> mean 1.782 events/neuron/step
    stim = StimulusSpec(ext_synapses_per_neuron=594, ext_rate_hz=3.0)
    assert stim.events_per_step(1.0) == pytest.approx(1.782, rel=1e-12)
    neurons = np.arange(100_000)
    draws = np.concatenate([
        rng.poisson_keyed_batch(stim.events_per_step(1.0), 3, neurons, step)
        for step in range(10)
    ])
    assert abs(draws.mean() - 1.782) / 1.782 < 0.01


# ------------------------------------------------------------ delay ring

def _accumulate(ring, delays, targets, weights):
    """Deliver (delay, target) pairs through the ring's packed word."""
    words = np.asarray(delays, dtype=np.int32) * ring.n_local + np.asarray(targets)
    ring.accumulate(words.astype(np.int32), np.asarray(weights, dtype=np.float64))


def test_ring_drain_and_modulo_slots():
    ring = DelayRing(n_slots=4, n_local=3)
    _accumulate(ring, [3], [1], [2.5])
    assert ring.drain().tolist() == [0.0, 0.0, 0.0]
    ring.advance()
    assert ring.drain().tolist() == [0.0, 0.0, 0.0]
    ring.advance()
    assert ring.drain().tolist() == [0.0, 0.0, 0.0]
    ring.advance()
    assert ring.drain().tolist() == [0.0, 2.5, 0.0]
    # drained exactly once: slot is zero afterwards
    assert ring.drain().tolist() == [0.0, 0.0, 0.0]


def test_ring_accumulates_additively():
    ring = DelayRing(n_slots=5, n_local=2)
    _accumulate(ring, [2], [0], [1.5])
    _accumulate(ring, [2], [0], [-0.5])
    ring.advance(); ring.drain()
    ring.advance()
    assert ring.drain().tolist() == [1.0, 0.0]


def test_empty_synapse_list_changes_nothing():
    ring = DelayRing(n_slots=3, n_local=2)
    before = ring.buf.copy()
    ring.accumulate(np.empty(0, dtype=np.int32), np.empty(0))
    assert (ring.buf == before).all()


def test_zero_delay_is_contract_violation():
    ring = DelayRing(n_slots=3, n_local=2)
    with pytest.raises(ContractViolationError):
        _accumulate(ring, [0], [0], [1.0])


def test_ring_rotated_accumulate_matches_modulo_reference():
    # reference: bin by absolute slot (cursor + delay) mod length, then add
    # the whole binned ring; the rotated form must agree bit for bit at
    # every cursor position
    n_slots, n_local = 7, 5
    gen = np.random.default_rng(3)
    ring = DelayRing(n_slots, n_local)
    ref = np.zeros((n_slots, n_local))
    for step in range(3 * n_slots):
        for _ in range(2):  # several calls per step, as with many spikers
            size = int(gen.integers(1, 40))
            delays = gen.integers(1, n_slots, size).astype(np.int16)
            targets = gen.integers(0, 2, size).astype(np.int32)  # repeated targets
            weights = gen.normal(0.0, 3.0, size) * 10.0 ** gen.integers(-8, 8, size)
            _accumulate(ring, delays, targets, weights)
            slots = (ring.cursor + delays.astype(np.int64)) % n_slots
            ref += np.bincount(slots * n_local + targets, weights=weights,
                               minlength=n_slots * n_local).reshape(n_slots, n_local)
        assert ring.buf.tobytes() == ref.tobytes(), f"cursor {ring.cursor}"
        assert ring.drain().tobytes() == ref[ring.cursor].tobytes()
        ref[ring.cursor] = 0.0
        ring.advance()


def test_delay_beyond_ring_is_contract_violation():
    ring = DelayRing(n_slots=3, n_local=2)
    with pytest.raises(ContractViolationError):
        _accumulate(ring, [3], [0], [1.0])


# ----------------------------------------------------------- engine runs

def _tiny_net(**kw):
    defaults = dict(grid_x=2, grid_y=2, neurons_per_column=25, target_fanout=30.0,
                    decay_lambda=2.0, w_exc=0.3, w_inh=1.2, seed=5)
    defaults.update(kw)
    return build_network(GridSpec(**defaults), dt_ms=1.0)


def test_zero_weights_zero_stimulus_never_spikes():
    net = _tiny_net(w_exc=0.0, w_inh=0.0)
    stim = StimulusSpec(ext_rate_hz=0.0)
    metrics, (steps, gids), _, _ = run_simulation(net, seconds=0.5, stim=stim)
    assert metrics.total_spikes == 0
    assert len(steps) == 0
    assert metrics.internal_synaptic_events == 0


def test_single_neuron_engine_matches_scalar_oracle():
    # two 1-neuron columns with zero-weight wiring driven by the keyed
    # Poisson stimulus: each neuron's spike train must equal the scalar
    # stepper fed the same input sequence
    spec = GridSpec(grid_x=1, grid_y=2, neurons_per_column=1, exc_fraction=0.99,
                    target_fanout=0.3, decay_lambda=1.0, w_exc=0.0, w_inh=0.0, seed=3)
    net = build_network(spec, dt_ms=1.0, model="izhikevich")
    stim = StimulusSpec(ext_synapses_per_neuron=594, ext_rate_hz=3.0, ext_weight=4.0, seed=21)
    metrics, (steps, gids), _, _ = run_simulation(net, seconds=1.0, stim=stim)

    rs = izhikevich_preset("rs")
    for gid in (0, 1):
        state = NeuronState(v=rs.c, w=rs.b * rs.c)
        expected_steps = []
        for t in range(1000):
            count = rng.poisson_keyed(stim.events_per_step(1.0), stim.seed, gid, t)
            # weights are zero so ring input is always 0
            i_syn = 0.0 + stim.ext_weight * count
            state, spiked = step_izhikevich(state, rs, i_syn, 1.0)
            if spiked:
                expected_steps.append(t)
        got = steps[gids == gid].tolist()
        assert got == expected_steps


def test_event_conservation_and_raster_recount():
    net = _tiny_net()
    stim = StimulusSpec(ext_synapses_per_neuron=100, ext_rate_hz=8.0, ext_weight=2.0, seed=13)
    metrics, (steps, gids), _, _ = run_simulation(net, seconds=1.0, stim=stim)
    assert metrics.total_spikes == len(steps)
    # exact recount from the saved raster: sum of the spikers' fanouts
    recount = int(net.fanouts[gids].sum())
    assert metrics.internal_synaptic_events == recount
    # external events equal the sum of all keyed Poisson draws
    total_ext = sum(
        int(rng.poisson_keyed_batch(stim.events_per_step(1.0), stim.seed,
                                    np.arange(net.n_neurons), t).sum())
        for t in range(1000)
    )
    assert metrics.external_synaptic_events == total_ext


def test_stimulus_blocks_stop_at_the_last_step(monkeypatch):
    # 1,000 local neurons draw blocks of 65 steps; 200 steps end on a block of 5
    from spikebench.config import load_bundled_config
    from spikebench.distributed import partition

    cfg = load_bundled_config("small-1k")
    net = build_network(cfg.grid_spec(), dt_ms=cfg["run.dt_ms"])
    _, (part,) = partition(net, 1)
    n_steps = 200
    drawn_steps, drawn_events = [], []
    inner = rng.poisson_keyed_batch

    def counted(lam, seed, streams, step):  # as the trace counts the stimulus
        counts = inner(lam, seed, streams, step)
        drawn_steps.append(np.ravel(step).tolist())
        drawn_events.append(int(counts.sum()))
        return counts

    monkeypatch.setattr(rng, "poisson_keyed_batch", counted)
    eng = Engine(part, cfg.stimulus(), dt_ms=net.dt_ms, n_steps=n_steps)
    for t in range(n_steps):
        eng.deliver(t, eng.step(t))
        eng.advance()
    assert [len(s) for s in drawn_steps] == [65, 65, 65, 5]
    assert sum(drawn_steps, []) == list(range(n_steps))
    assert sum(drawn_events) == eng.external_events > 0
    with pytest.raises(ContractViolationError):
        eng.step(n_steps)


def test_loop_page_faults_do_not_depend_on_what_was_freed_before():
    # glibc keeps or returns freed heap by thresholds that earlier frees
    # move; a loop that allocated its per-step arrays afresh took a number
    # of page faults, and a speed, set by what setup happened to free
    import resource

    from spikebench.config import load_bundled_config
    from spikebench.distributed import partition

    cfg = load_bundled_config("small-1k")
    net = build_network(cfg.grid_spec(), dt_ms=cfg["run.dt_ms"])
    _, (part,) = partition(net, 1)

    def loop_faults():
        eng = Engine(part, cfg.stimulus(), dt_ms=net.dt_ms, n_steps=300)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for t in range(300):
            eng.deliver(t, eng.step(t))
            eng.advance()
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    plain = loop_faults()
    freed = np.ones(4 << 20)  # 32 MB, touched, then freed
    del freed
    after_free = loop_faults()
    # bound: 1,000 faults, 4 MB of pages; both loops here take 0-6,200
    assert abs(after_free - plain) < 1000, (plain, after_free)


def test_run_determinism_bit_identical():
    net = _tiny_net()
    stim = StimulusSpec(ext_synapses_per_neuron=100, ext_rate_hz=8.0, ext_weight=2.0, seed=13)
    m1, r1, _, _ = run_simulation(net, seconds=0.5, stim=stim)
    m2, r2, _, _ = run_simulation(net, seconds=0.5, stim=stim)
    assert raster_checksum(*r1) == raster_checksum(*r2)
    assert m1.total_spikes == m2.total_spikes
    assert m1.internal_synaptic_events == m2.internal_synaptic_events


@pytest.mark.parametrize("n_ranks,transport", [(1, "memory"), (2, "memory"), (2, "tcp")])
def test_divergence_error_names_neuron(n_ranks, transport):
    # the error raised in a rank thread reaches the caller
    net = _tiny_net(w_exc=0.0, w_inh=0.0)
    stim = StimulusSpec(ext_synapses_per_neuron=594, ext_rate_hz=3.0,
                        ext_weight=1e308, seed=2)
    with pytest.raises(NumericalDivergenceError) as exc_info:
        run_simulation(net, seconds=0.05, stim=stim, n_ranks=n_ranks,
                       transport=transport, timeout=5.0)
    assert exc_info.value.neuron is not None


# ------------------------------------------------------ expected events

def test_expected_event_count_desk_scale_value():
    value = expected_event_count(10000, 3, 5.1, 1195, 594, 3)
    assert value == pytest.approx(236_295_000, abs=1.0)
    # within 0.6% of the rounded 235M headline figure
    assert abs(value - 235e6) / 235e6 < 0.006


def test_expected_event_count_zero_and_simple_cases():
    assert expected_event_count(0, 3, 5.1, 1195, 594, 3) == 0
    assert expected_event_count(1000, 1, 0.0, 200, 0, 0.0) == 0
    assert expected_event_count(1000, 1, 5.0, 200, 0, 0) == pytest.approx(1_000_000)
    with pytest.raises(ConfigError):
        expected_event_count(-1, 3, 5.1, 1195, 594, 3)


# ----------------------------------------------------------- calibration

def test_calibrate_returns_input_scale_when_in_band():
    calls = []
    def probe(scale):
        calls.append(scale)
        return 5.0
    scale, rate = calibrate_rate(probe, target_hz=5.1, band_hz=1.5)
    assert scale == 1.0 and rate == 5.0
    assert calls == [1.0]


def test_calibrate_zero_target_zero_stimulus_degenerate():
    scale, rate = calibrate_rate(lambda s: 0.0, target_hz=0.0, band_hz=1.5)
    assert rate == 0.0
    assert scale == 1.0


def test_calibrate_bisects_monotone_response():
    # synthetic monotone response hitting the band at scale ~2.55
    def probe(scale):
        return 2.0 * scale
    scale, rate = calibrate_rate(probe, target_hz=5.1, band_hz=0.4)
    assert 4.7 <= rate <= 5.5
    assert probe(scale) == rate


def test_calibrate_unreachable_target_exhausts():
    # rate saturates far below a 1 kHz target (refractory bound)
    def probe(scale):
        return min(300.0, 2.0 * scale)
    with pytest.raises(CalibrationError) as exc_info:
        calibrate_rate(probe, target_hz=1000.0, band_hz=1.5)
    assert exc_info.value.achieved_hz is not None
    assert exc_info.value.achieved_hz <= 300.0


# (target_hz, initial_scale, band_hz, rate at scale 0, probed scales, result
# scale or None for CalibrationError): the search's whole probe order is
# pinned, for brackets that double, halve, and start at scale 0
_CALIBRATION_TRACES = [
    (0.5, 0.0, 1.5, 0.0, [0.0], 0.0),
    (0.5, 0.3, 1.5, 0.0, [0.3], 0.3),
    (0.5, 1.0, 1.5, 0.0, [1.0, 0.5], 0.5),
    (0.5, 7.0, 1.5, 0.0, [7.0, 3.5, 1.75, 0.875, 0.4375], 0.4375),
    (5.1, 0.0, 1.5, 0.0, [0.0, 1.0], 1.0),
    (5.1, 0.3, 1.5, 0.0, [0.3, 0.6, 1.2], 1.2),
    (5.1, 1.0, 1.5, 0.0, [1.0], 1.0),
    (5.1, 7.0, 1.5, 0.0, [7.0, 3.5, 1.75, 0.875, 1.3125], 1.3125),
    (40.0, 0.0, 1.5, 0.0, [0.0, 1.0, 2.0, 4.0, 8.0, 6.0, 5.0, 4.5, 4.75], 4.75),
    (40.0, 0.3, 1.5, 0.0, [0.3, 0.6, 1.2, 2.4, 4.8, 3.5999999999999996, 4.199999999999999, 4.5, 4.65], 4.65),
    (40.0, 1.0, 1.5, 0.0, [1.0, 2.0, 4.0, 8.0, 6.0, 5.0, 4.5, 4.75], 4.75),
    (40.0, 7.0, 1.5, 0.0, [7.0, 3.5, 5.25, 4.375, 4.8125, 4.59375], 4.59375),
    (0.5, 0.0, 0.25, 2.0, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], None),
    (3.0, 2.0, 0.25, 2.0, [2.0, 1.0, 0.5, 0.25, 0.375], 0.375),
]


@pytest.mark.parametrize("target, initial, band, offset, probed, result", _CALIBRATION_TRACES)
def test_calibrate_probe_sequence_is_pinned(target, initial, band, offset, probed, result):
    def rate(scale):
        return offset + 4.0 * scale ** 1.5 if scale > 0 else offset

    calls = []
    def probe(scale):
        calls.append(scale)
        return rate(scale)

    if result is None:
        with pytest.raises(CalibrationError) as exc_info:
            calibrate_rate(probe, target_hz=target, band_hz=band,
                           initial_scale=initial, max_iters=12)
        assert exc_info.value.achieved_hz == rate(calls[-1])
    else:
        assert calibrate_rate(probe, target_hz=target, band_hz=band,
                              initial_scale=initial, max_iters=12) == (result, rate(result))
    assert calls == probed


def test_calibrate_deterministic_given_seeds():
    net = _tiny_net()
    stim = StimulusSpec(ext_synapses_per_neuron=100, ext_rate_hz=8.0, ext_weight=2.0, seed=13)

    def probe(scale):
        scaled = dataclasses.replace(
            net, spec=dataclasses.replace(net.spec, w_exc=net.spec.w_exc * scale))
        m, _, _, _ = run_simulation(scaled, seconds=0.25, stim=stim)
        return m.mean_rate_hz

    out1 = calibrate_rate(probe, target_hz=probe(1.0), band_hz=0.5)
    out2 = calibrate_rate(probe, target_hz=out1[1], band_hz=0.5)
    assert out1 == (1.0, out2[1])


# ------------------------------------------------------------- raster io

def test_raster_binary_roundtrip(tmp_path):
    steps = np.array([0, 1, 1, 5], dtype=np.uint32)
    gids = np.array([3, 2, 9, 0], dtype=np.uint32)
    path = tmp_path / "raster.bin"
    save_raster_binary(path, steps, gids)
    assert path.stat().st_size == 4 * 8
    s2, g2 = load_raster_binary(path)
    assert (s2 == steps).all() and (g2 == gids).all()


def test_raster_csv_roundtrip_with_provenance(tmp_path):
    steps = np.array([0, 4], dtype=np.uint32)
    gids = np.array([7, 1], dtype=np.uint32)
    path = tmp_path / "raster.csv"
    save_raster_csv(path, steps, gids, provenance={"config.grid.seed": 42})
    text = path.read_text()
    assert text.startswith("# config.grid.seed = 42\n")
    assert "step,neuron" in text
    s2, g2 = load_raster_csv(path)
    assert (s2 == steps).all() and (g2 == gids).all()


def test_raster_checksum_order_invariant():
    steps = np.array([3, 1, 2], dtype=np.uint32)
    gids = np.array([5, 6, 7], dtype=np.uint32)
    shuffled = raster_checksum(steps[::-1].copy(), gids[::-1].copy())
    assert raster_checksum(steps, gids) == shuffled


def test_raster_checksum_hashes_the_bytes_of_a_sorted_binary_raster(tmp_path):
    # both encode the raster as one array of (step u32, neuron u32) pairs
    steps = np.array([0, 1, 1, 5, 70000], dtype=np.int64)
    gids = np.array([3, 2, 9, 0, 2**32 - 1], dtype=np.int64)
    path = tmp_path / "raster.bin"
    save_raster_binary(path, steps, gids)
    assert raster_checksum(steps, gids) == hashlib.sha256(path.read_bytes()).hexdigest()


# ------------------------------------------------------------- run metrics

def _rank_metrics(**kw):
    values = dict(n_neurons=50, simulated_seconds=0.3, wall_seconds=0.25, total_spikes=7,
                  internal_synaptic_events=210, external_synaptic_events=3000,
                  table_bytes=4096)
    values.update(kw)
    return RunMetrics(**values)


def test_merge_ranks_applies_each_counters_rule_and_sorts_the_raster_once():
    a = _rank_metrics(wall_seconds=0.25, total_spikes=3, table_bytes=100)
    b = _rank_metrics(wall_seconds=0.5, total_spikes=4, table_bytes=200)
    raster_a = (np.array([2, 0], dtype=np.uint32), np.array([10, 11], dtype=np.uint32))
    raster_b = (np.array([0, 2], dtype=np.uint32), np.array([3, 1], dtype=np.uint32))
    merged, (steps, gids) = merge_ranks([(a, raster_a), (b, raster_b)])
    assert merged == RunMetrics(n_neurons=100, simulated_seconds=0.3, wall_seconds=0.5,
                                total_spikes=7, internal_synaptic_events=420,
                                external_synaptic_events=6000, table_bytes=300)
    assert merged.setup_seconds == {}  # setup is the driver's, never a rank's
    assert steps.tolist() == [0, 0, 2, 2] and gids.tolist() == [3, 11, 1, 10]
    with pytest.raises(ContractViolationError):  # one run has one simulated time
        merge_ranks([(a, raster_a), (_rank_metrics(simulated_seconds=0.2), raster_b)])


def test_run_metrics_rows_write_floats_that_parse_back():
    m = _rank_metrics(wall_seconds=np.float64(0.1) + 0.2,
                      setup_seconds={"partition": 0.125, "link": 1e-5})
    rows = m.rows("metrics.rank3")
    assert list(rows) == [
        f"metrics.rank3.{name}" for name in (
            "n_neurons", "simulated_seconds", "wall_seconds", "total_spikes",
            "internal_synaptic_events", "external_synaptic_events", "table_bytes",
            "partition_seconds", "link_seconds",
            "total_events", "mean_rate_hz", "events_per_second")]
    assert str(rows["metrics.rank3.wall_seconds"]) == "0.30000000000000004"
    assert rows["metrics.rank3.total_events"] == 3210
    text = {key: str(value) for key, value in rows.items()}
    back = RunMetrics.from_rows(text, "metrics.rank3")
    assert back == _rank_metrics(wall_seconds=0.30000000000000004)
    assert back.rows("metrics.rank3") == {k: v for k, v in rows.items()
                                          if not k.endswith(("partition_seconds", "link_seconds"))}
    assert all(type(v) is float for v in back.rows("metrics.rank3").values()
               if not isinstance(v, int))
    text.pop("metrics.rank3.total_spikes")
    text["metrics.rank3.wall_seconds"] = "fast"
    with pytest.raises(ConfigError) as err:
        RunMetrics.from_rows(text, "metrics.rank3")
    assert len(err.value.problems) == 2


def test_half_steps_round_up():
    # Python's round would give 0, 2 and 2 steps: half steps to even
    assert [step_count(s, 1.0) for s in (0.0005, 0.0015, 0.0025)] == [1, 2, 3]
    assert step_count(0.0004, 1.0) == 0 and step_count(0.3, 1.0) == 300


def test_simulated_time_is_the_steps_run():
    net = _tiny_net()
    stim = StimulusSpec(ext_synapses_per_neuron=100, ext_rate_hz=8.0, ext_weight=2.0, seed=13)
    # 1.5 steps of 1 ms round to 2 steps: the run reports the 2 ms it ran
    metrics, (steps, _), per_rank, _ = run_simulation(net, seconds=0.0015, stim=stim,
                                                      n_ranks=2)
    assert steps.max(initial=0) <= 1
    assert metrics.simulated_seconds == 0.002
    assert [m.simulated_seconds for m in per_rank] == [0.002, 0.002]
    assert metrics.mean_rate_hz == metrics.total_spikes / (net.n_neurons * 0.002)
    with pytest.raises(ConfigError, match="rounds to 0 steps"):
        run_simulation(net, seconds=0.0004, stim=stim)
