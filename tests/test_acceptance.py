"""Acceptance suite: one test per criterion, one PASS line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS lines.
The desk-scale criteria (2, 3, 5) share one session build and one
calibration; the full module budget is dominated by criterion 3's ten
3-second desk runs.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from spikebench import (
    GridSpec,
    StimulusSpec,
    build_network,
    count_equivalent_synapses,
    expected_event_count,
    raster_checksum,
)
from spikebench.cli import main
from spikebench.config import load_bundled_config, parse_config
from spikebench.distributed import decode_frame, encode_frame, run_simulation
from spikebench.errors import FrameCorruptionError, ProtocolViolationError
from spikebench.neurons import NeuronState, izhikevich_preset, step_adaptive_lif, step_izhikevich
from spikebench.plasticity import StdpParams, stdp_delta_w


def _pass(criterion, message):
    print(f"\nACCEPTANCE {criterion}: PASS - {message}")


def _close_or_rounds(computed, printed, decimals, rel=0.02):
    """Within 2% of the printed value, or rounds exactly to it at the
    printed precision (the printed figures carry their own rounding)."""
    if abs(computed - printed) <= rel * abs(printed):
        return True
    return round(computed, decimals) == printed


# ------------------------------------------------- shared desk fixtures

@pytest.fixture(scope="module")
def desk_cfg():
    return load_bundled_config("paper-desk")


@pytest.fixture(scope="module")
def desk_net(desk_cfg):
    return build_network(desk_cfg.grid_spec(), dt_ms=desk_cfg["run.dt_ms"],
                         model=desk_cfg["model.kind"])


@pytest.fixture(scope="module")
def desk_w_exc(tmp_path_factory, desk_cfg):
    """Excitatory weight grid.w_exc written by the real `calibrate` subcommand."""
    out = tmp_path_factory.mktemp("calibration")
    code = main(["calibrate", "--config", "paper-desk", "--out", str(out)])
    assert code == 0
    derived = parse_config(out / "calibrated.cfg")
    return derived["grid.w_exc"]


@pytest.fixture(scope="module")
def desk_calibrated_net(desk_net, desk_w_exc):
    """The desk network at the calibrated weight (the build never reads it)."""
    return dataclasses.replace(desk_net, spec=dataclasses.replace(desk_net.spec, w_exc=desk_w_exc))


@pytest.fixture(scope="module")
def desk_seed_runs(desk_cfg, desk_calibrated_net):
    """Ten 3-second desk runs at the calibrated weight, stimulus seeds 0..9."""
    runs = []
    for seed in range(10):
        stim = StimulusSpec(
            ext_synapses_per_neuron=desk_cfg["stimulus.ext_synapses_per_neuron"],
            ext_rate_hz=desk_cfg["stimulus.ext_rate_hz"],
            ext_weight=desk_cfg["stimulus.ext_weight"],
            seed=seed,
        )
        metrics, _, _, _ = run_simulation(
            desk_calibrated_net, seconds=desk_cfg["run.simulated_seconds"], stim=stim,
            lif_params=desk_cfg.lif_params(),
        )
        runs.append(metrics)
    return runs


@pytest.fixture(scope="module")
def small_cfg():
    return load_bundled_config("small-1k")


# ------------------------------------------------------------ criteria

def test_criterion_1_table_arithmetic_reproduction():
    # (220 V, 1.15 A, 9.1 s) and (220 V, 0.08 A, 30 s) with 235e6 events
    events = 235_000_000
    p_server = 220.0 * 1.15
    p_embedded = 220.0 * 0.08
    e_server = p_server * 9.1
    e_embedded = p_embedded * 30.0
    jpe_server = e_server / events
    jpe_embedded = e_embedded / events

    assert _close_or_rounds(p_server, 253.0, 0)
    assert _close_or_rounds(p_embedded, 17.6, 1)
    assert _close_or_rounds(e_server / 1000.0, 2.30, 2)      # kJ
    assert _close_or_rounds(e_embedded, 528.0, 0)
    assert _close_or_rounds(jpe_server * 1e6, 9.8, 1)        # uJ
    # 2.2468 uJ is 2.13% from the printed 2.2 but rounds to it exactly;
    # every other entry also satisfies the strict 2% branch
    assert _close_or_rounds(jpe_embedded * 1e6, 2.2, 1)
    assert _close_or_rounds(e_server / e_embedded, 4.4, 1)
    assert _close_or_rounds(p_server / p_embedded, 14.4, 1)
    assert _close_or_rounds(30.0 / 9.1, 3.3, 1)
    _pass(1, f"{p_server:.1f} W / {p_embedded:.1f} W, "
             f"{e_server:.1f} J / {e_embedded:.1f} J, "
             f"{jpe_server*1e6:.2f} uJ / {jpe_embedded*1e6:.2f} uJ per event, "
             f"ratios {e_server/e_embedded:.2f} / {p_server/p_embedded:.2f} / {30.0/9.1:.2f}")


def test_criterion_2_equivalent_synapse_count(desk_cfg, desk_net):
    total = count_equivalent_synapses(desk_net, desk_cfg.stimulus())
    target = 17_890_000
    assert abs(total - target) / target < 0.02
    _pass(2, f"desk build reports {total} equivalent synapses "
             f"({100*abs(total-target)/target:.3f}% from {target})")


def test_criterion_3_event_count_formula(desk_cfg, desk_net, desk_seed_runs):
    # closed-form headline value
    value = expected_event_count(10000, 3, 5.1, 1195, 594, 3)
    assert abs(value - 236_295_000) <= 1.0
    assert abs(value - 235e6) / 235e6 < 0.006

    # simulated totals vs the formula at each run's own achieved rate.
    # The formula assumes homogeneous firing; its residual fluctuation is
    # modeled as sigma^2 = E_ext (external Poisson arrivals)
    #                    + K * Var(fanout) (which neurons carried the spikes)
    #                    + K * mean_fanout^2 (Poisson spike-count noise
    #                      inherited by the rate-based product)
    fanouts = desk_net.fanouts.astype(float)
    fbar, fvar = fanouts.mean(), fanouts.var()
    worst = 0.0
    for seed, metrics in enumerate(desk_seed_runs):
        expected = expected_event_count(
            desk_net.n_neurons, metrics.simulated_seconds, metrics.mean_rate_hz,
            fbar, desk_cfg["stimulus.ext_synapses_per_neuron"],
            desk_cfg["stimulus.ext_rate_hz"],
        )
        k = metrics.total_spikes
        sigma = math.sqrt(
            metrics.external_synaptic_events + k * fvar + k * fbar * fbar
        )
        deviation = abs(metrics.total_events - expected)
        assert deviation <= 3.0 * sigma, (
            f"seed {seed}: |{metrics.total_events} - {expected:.0f}| "
            f"= {deviation:.0f} > 3*sigma = {3*sigma:.0f}"
        )
        worst = max(worst, deviation / sigma)
    _pass(3, f"formula value {value:,.0f}; 10-seed simulated totals within "
             f"3 sigma (worst {worst:.2f} sigma)")


def test_criterion_4_partition_transparency(small_cfg):
    net = build_network(small_cfg.grid_spec(), dt_ms=small_cfg["run.dt_ms"],
                        model=small_cfg["model.kind"])
    assert net.n_neurons == 1000
    stim = small_cfg.stimulus()
    checksums = {}
    totals = {}
    p1_counters = None
    for p in (1, 2, 4, 8):
        metrics, raster, per_rank, _ = run_simulation(
            net, seconds=1.0, stim=stim, n_ranks=p,
            lif_params=small_cfg.lif_params(),
        )
        checksums[p] = raster_checksum(*raster)
        counters = (metrics.total_spikes, metrics.internal_synaptic_events,
                    metrics.external_synaptic_events)
        totals[p] = counters
        if p == 1:
            p1_counters = counters
        assert counters[0] == sum(m.total_spikes for m in per_rank)
        assert counters[1] == sum(m.internal_synaptic_events for m in per_rank)
        assert counters[2] == sum(m.external_synaptic_events for m in per_rank)
    assert len(set(checksums.values())) == 1
    for p in (2, 4, 8):
        assert totals[p] == p1_counters
    assert p1_counters[0] > 0
    _pass(4, f"P in {{1,2,4,8}} rasters share checksum {checksums[1][:12]}...; "
             f"per-rank counters sum to P=1 totals {p1_counters}")


def test_criterion_5_firing_rate_band(desk_cfg, desk_net, desk_calibrated_net, desk_w_exc):
    stim = desk_cfg.stimulus()
    metrics, (steps, gids), _, _ = run_simulation(
        desk_calibrated_net, seconds=desk_cfg["run.simulated_seconds"], stim=stim,
        lif_params=desk_cfg.lif_params(),
    )
    assert 3.6 <= metrics.mean_rate_hz <= 6.6
    # exact event conservation at desk scale: recount from the raster
    assert metrics.internal_synaptic_events == int(desk_net.fanouts[gids].sum())
    _pass(5, f"calibrated grid.w_exc {desk_w_exc!r}: fresh 3 s run at "
             f"{metrics.mean_rate_hz:.3f} Hz lies in [3.6, 6.6]; "
             f"internal events equal the raster recount exactly")


def test_criterion_6_neuron_oracles():
    # independent scalar reference steppers, written to the documented
    # integration scheme without touching the package internals
    def ref_izh(v, u, p, i, dt):
        if v >= p.v_peak:
            return p.c, u + p.d, True
        half = 0.5 * dt
        v1 = v + half * (0.04 * v * v + 5.0 * v + 140.0 - u + i)
        v2 = v1 + half * (0.04 * v1 * v1 + 5.0 * v1 + 140.0 - u + i)
        return v2, u + dt * (p.a * (p.b * v2 - u)), False

    def ref_lif(v, c, refr, p, i, dt):
        c2 = c - dt * (c / p.tau_c)
        if refr > 0.0:
            return p.v_reset, c2, max(refr - dt, 0.0), False
        v2 = v + dt * ((p.v_rest - v) / p.tau_m - p.g_c * c * (v - p.e_k) + i)
        if v2 >= p.v_thresh:
            return p.v_reset, c2 + p.delta_c, p.t_refr, True
        return v2, c2, 0.0, False

    rs, fs = izhikevich_preset("rs"), izhikevich_preset("fs")
    gen = np.random.default_rng(1234)
    for _ in range(10_000):
        p = rs if gen.random() < 0.5 else fs
        v, u = float(gen.uniform(-90, 35)), float(gen.uniform(-20, 10))
        i = float(gen.uniform(-20, 20))
        state, spiked = step_izhikevich(NeuronState(v=v, w=u), p, i, 1.0)
        assert (state.v, state.w, spiked) == ref_izh(v, u, p, i, 1.0)

    from spikebench.neurons import AdaptiveLifParams
    lif = AdaptiveLifParams()
    for _ in range(10_000):
        v = float(gen.uniform(-90, -45))
        c = float(gen.uniform(0, 5))
        refr = float(gen.choice([0.0, 1.0, 2.0]))
        i = float(gen.uniform(-5, 10))
        state, spiked = step_adaptive_lif(
            NeuronState(v=v, w=c, refr_remaining=refr), lif, i, 1.0
        )
        assert (state.v, state.w, state.refr_remaining, spiked) == ref_lif(v, c, refr, lif, i, 1.0)

    # RS tonic spiking under DC input: spike count matches the reference
    v, u = -70.0, -14.0
    ref_count = 0
    for _ in range(1000):
        v, u, s = ref_izh(v, u, rs, 10.0, 1.0)
        ref_count += s
    state = NeuronState(v=-70.0, w=-14.0)
    got = 0
    for _ in range(1000):
        state, s = step_izhikevich(state, rs, 10.0, 1.0)
        got += s
    assert got == ref_count == 19
    _pass(6, f"10^4 random cases per model bit-identical; RS tonic count {got} == oracle")


def test_criterion_7_stdp():
    params = StdpParams(a_plus=0.01, a_minus=0.012, tau_plus=20.0, tau_minus=20.0,
                        w_min=-100.0, w_max=100.0, enabled=True)
    from spikebench.plasticity import StdpState

    class ToyPart:
        rank = 0
        model = "adaptive_lif"
        n_slots = 2
        local_gids = np.array([1], dtype=np.int64)
        local_excitatory = np.array([True])
        source_excitatory = np.array([True, True])
        in_offsets = np.array([0, 1, 1], dtype=np.int64)
        in_words = np.array([1], dtype=np.int32)  # delay 1 * n_local 1 + target 0
        source_weights = np.array([1.0, 1.0])

    lag_grid = [0, 2, 5, 11, 23]
    horizon = max(lag_grid) + 2
    worst = 0.0
    for n_pre in range(1, 4):
        for n_post in range(1, 4):
            for pre in itertools.combinations(lag_grid, n_pre):
                for post in itertools.combinations(lag_grid, n_post):
                    part = ToyPart()
                    state = StdpState(part, params, dt_ms=1.0)
                    for t in range(horizon):
                        pre_arr = (np.array([0], dtype=np.int64) if t in pre
                                   else np.empty(0, dtype=np.int64))
                        post_arr = (np.array([0], dtype=np.int64) if t in post
                                    else np.empty(0, dtype=np.int64))
                        state.process_step(pre_arr, post_arr)
                    closed = 1.0 + sum(
                        stdp_delta_w(float(tp - tq), params) for tq in pre for tp in post
                    )
                    err = abs(part.in_weights[0] - closed)
                    assert err < 1e-12, (pre, post, err)
                    worst = max(worst, err)

    # disabled plasticity leaves every weight bit-identical over a run
    spec = GridSpec(grid_x=2, grid_y=2, neurons_per_column=25, target_fanout=30.0,
                    decay_lambda=2.0, w_exc=0.3, w_inh=1.2, seed=5)
    net = build_network(spec, dt_ms=1.0)
    stim = StimulusSpec(ext_synapses_per_neuron=100, ext_rate_hz=8.0,
                        ext_weight=2.0, seed=13)
    _, _, _, parts = run_simulation(net, seconds=0.5, stim=stim,
                                    stdp_params=StdpParams(enabled=False))
    assert parts[0].in_weights is None
    assert np.array_equal(parts[0].source_weights.view(np.int64),
                          net.source_weights().view(np.int64))
    _pass(7, f"all <=3x3 patterns within 1e-12 of the pairwise sum "
             f"(worst {worst:.2e}); disabled run left weights bit-identical")


def test_criterion_8_wire_protocol(small_cfg):
    gen = np.random.default_rng(4321)
    for _ in range(10_000):
        sender = int(gen.integers(0, 2**16))
        step = int(gen.integers(0, 2**32))
        spikes = gen.integers(0, 2**32, size=int(gen.integers(0, 30)), dtype=np.uint32)
        s2, t2, back = decode_frame(encode_frame(sender, step, spikes))
        assert (s2, t2) == (sender, step) and (back == spikes).all()

    good = encode_frame(1, 7, np.array([3, 4], dtype=np.uint32))
    with pytest.raises(FrameCorruptionError):
        decode_frame(b"QQQQ" + good[4:])
    with pytest.raises(FrameCorruptionError):
        decode_frame(good[:-4])

    # wrong-step frames are a protocol violation at the exchange layer
    from spikebench.distributed import (
        Communicator, TcpTransport, loopback_links, partition)
    net = build_network(small_cfg.grid_spec(), dt_ms=1.0,
                        model=small_cfg["model.kind"])
    _, parts = partition(net, 2)
    links = loopback_links(parts, 1.0, "memory")
    ep0, ep1 = TcpTransport(0, links[0]), TcpTransport(1, links[1])
    try:
        comm0 = Communicator(parts[0], ep0, timeout=1.0)
        ep1.send(0, encode_frame(1, 5, []))
        with pytest.raises(ProtocolViolationError):
            comm0.exchange(0, np.empty(0, dtype=np.int64))
    finally:
        ep0.close()
        ep1.close()

    # identical rasters over socket-pair ("memory") and TCP links
    stim = small_cfg.stimulus()
    _, r_mem, _, _ = run_simulation(net, seconds=0.3, stim=stim, n_ranks=4,
                                    lif_params=small_cfg.lif_params(),
                                    transport="memory")
    _, r_tcp, _, _ = run_simulation(net, seconds=0.3, stim=stim, n_ranks=4,
                                    lif_params=small_cfg.lif_params(),
                                    transport="tcp", timeout=20.0)
    assert raster_checksum(*r_mem) == raster_checksum(*r_tcp)
    _pass(8, "10^4 frame round-trips exact; corruption and step mismatch "
             "rejected; memory and TCP rasters identical")


def test_criterion_9_throughput_report_substitutes_absolutes(small_cfg, tmp_path):
    # absolute wall-clock times and physical power draw are hardware-bound
    # and out of scope; every run instead reports events-per-second
    net = build_network(small_cfg.grid_spec(), dt_ms=1.0,
                        model=small_cfg["model.kind"])
    metrics, _, _, _ = run_simulation(net, seconds=0.2, stim=small_cfg.stimulus(),
                                      lif_params=small_cfg.lif_params())
    assert metrics.wall_seconds > 0
    assert metrics.events_per_second > 0

    out = tmp_path / "out"
    assert main(["run", "--config", "small-1k", "--out", str(out),
                 "--set=run.simulated_seconds=0.2"]) == 0
    doc = {}
    for line in (out / "metrics.kv").read_text().splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            doc[key.strip()] = val.strip()
    assert float(doc["metrics.events_per_second"]) > 0
    _pass(9, f"throughput report emitted ({metrics.events_per_second:.3g} events/s "
             "in-library and in metrics.kv)")
