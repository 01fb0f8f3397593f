"""Partitioning, wire protocol, transports, and partition transparency."""

import contextlib
import dataclasses
import hashlib
import os
import socket
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from spikebench import (
    FrameCorruptionError,
    GridSpec,
    Network,
    ProtocolViolationError,
    StimulusSpec,
    build_network,
    raster_checksum,
)
from spikebench import distributed, engine, network, rng
from spikebench.distributed import (
    Communicator,
    FRAME_MAGIC,
    HEADER_SIZE,
    TcpTransport,
    check_run_args,
    decode_frame,
    encode_frame,
    loopback_links,
    parse_cluster_file,
    partition,
    rendezvous,
    run_simulation,
)
from spikebench.engine import Engine
from spikebench.errors import ConfigError, ExchangeError
from spikebench.plasticity import StdpParams, StdpState


def _net(seed=5, **kw):
    defaults = dict(grid_x=4, grid_y=2, neurons_per_column=25, target_fanout=30.0,
                    decay_lambda=2.0, w_exc=0.3, w_inh=1.2, seed=seed)
    defaults.update(kw)
    return build_network(GridSpec(**defaults), dt_ms=1.0)


def _with_w_exc(net, w_exc):
    """``net`` with another excitatory weight: the build never reads it."""
    return dataclasses.replace(net, spec=dataclasses.replace(net.spec, w_exc=w_exc))


def _stim(**kw):
    defaults = dict(ext_synapses_per_neuron=100, ext_rate_hz=8.0, ext_weight=2.0, seed=13)
    defaults.update(kw)
    return StimulusSpec(**defaults)


# ------------------------------------------------------------ partition

def test_partition_balance_and_errors():
    net = _net()
    column_to_rank, parts = partition(net, 4)
    counts = np.bincount(column_to_rank, minlength=4)
    assert counts.max() - counts.min() <= 1
    assert sum(p.n_local for p in parts) == net.n_neurons
    with pytest.raises(ConfigError, match="^run.ranks: 9 ranks exceed the grid's 8 columns$"):
        partition(net, 9)  # only 8 columns
    with pytest.raises(ConfigError, match="^run.ranks: must be >= 1, got 0$"):
        partition(net, 0)


def test_partition_single_rank_all_local():
    net = _net()
    _, parts = partition(net, 1)
    part = parts[0]
    assert part.out_peers == [] and part.in_peers == []
    assert len(part.in_targets) == net.total_synapses
    assert part.in_words is net.words and part.in_offsets is net.offsets


@pytest.mark.parametrize("n_ranks", [1, 2, 4])
@pytest.mark.parametrize("w_exc_scale", [1.0, 1.37])
def test_partition_union_reproduces_network_multiset(w_exc_scale, n_ranks):
    net = _net()
    _, parts = partition(_with_w_exc(net, net.spec.w_exc * w_exc_scale), n_ranks)
    rows = []
    n = net.n_neurons
    for part in parts:
        src = np.repeat(np.arange(n), np.diff(part.in_offsets))
        tgt = part.local_gids[part.in_targets]
        rows.append(np.stack([
            src, tgt, part.in_delays.astype(np.int64),
            np.repeat(part.source_weights, np.diff(part.in_offsets)).view(np.int64),
        ], axis=1))
    union = np.concatenate(rows)
    src_full = np.repeat(np.arange(n), net.fanouts)
    w_full = np.where(net.is_excitatory(src_full), net.weights * w_exc_scale, net.weights)
    full = np.stack([
        src_full, net.targets.astype(np.int64), net.delay_steps.astype(np.int64),
        w_full.view(np.int64),
    ], axis=1)
    order = lambda a: a[np.lexsort(a.T[::-1])]
    assert (order(union) == order(full)).all()


def _hand_net(fanouts, grid_x=4, grid_y=3, seed=0):
    """A network with the given per-source fanouts, random targets and
    delays in [1, 20] steps; cheap enough to span many source blocks."""
    fanouts = np.asarray(fanouts, dtype=np.int64)
    # the fanouts are given, so any valid target_fanout will do
    spec = GridSpec(grid_x=grid_x, grid_y=grid_y,
                    neurons_per_column=len(fanouts) // (grid_x * grid_y), target_fanout=1.0)
    assert spec.n_neurons == len(fanouts)
    offsets = np.zeros(len(fanouts) + 1, dtype=np.int64)
    np.cumsum(fanouts, out=offsets[1:])
    rng = np.random.default_rng(seed)
    targets = rng.integers(0, spec.n_neurons, int(offsets[-1]), dtype=np.int32)
    delays = rng.integers(1, 21, int(offsets[-1]), dtype=np.int16)
    # each synapse packed as build_network stores it: delay * n + target
    words = delays.astype(np.int64) * spec.n_neurons + targets
    return Network(spec=spec, dt_ms=1.0, model="adaptive_lif", offsets=offsets,
                   words=words.astype(np.int32),
                   column_synapses=np.bincount(targets // spec.neurons_per_column,
                                               minlength=spec.n_columns),
                   n_slots=21)


@pytest.mark.parametrize("n_ranks", [1, 2, 3])
def test_partition_table_order_with_empty_sources_at_block_edges(n_ranks):
    # 64 sources of block/64 synapses fill a block exactly, so the block
    # ends at the 64th and the empty sources right after it (65 and 66, 131)
    # start the next; source 0 and the last source are empty, and source
    # 300, which alone exceeds a block, ends the block it joins
    block = engine._BLOCK_SYNAPSES
    fanout = block // 64
    fanouts = np.full(600, fanout)
    fanouts[[0, 65, 66, 131, 200, 599]] = 0
    fanouts[300] = block + 7
    net = _hand_net(fanouts)
    blocks = list(distributed._source_blocks(net.offsets))
    assert len(blocks) >= 6
    assert blocks[0][0] == 0 and blocks[-1][1] == net.n_neurons
    assert all(a == b for (_, a), (b, _) in zip(blocks, blocks[1:]))
    assert blocks[:3] == [(0, 65), (65, 131), (131, 196)]  # empty block starts
    assert (261, 301) in blocks

    # per-source brute force: each source's synapses in table order, kept
    # when the target lives on rank r, packed as delay * n_local + target
    npc = net.spec.neurons_per_column
    owner = (np.arange(net.n_neurons) // npc) % n_ranks
    _, parts = partition(net, n_ranks)
    for r, part in enumerate(parts):
        local_gids = np.flatnonzero(owner == r)
        local_of = {int(g): i for i, g in enumerate(local_gids)}
        offsets, words = [0], []
        for s in range(net.n_neurons):
            a, b = net.offsets[s], net.offsets[s + 1]
            for tgt, delay in zip(net.targets[a:b].tolist(), net.delay_steps[a:b].tolist()):
                if owner[tgt] == r:
                    words.append(delay * len(local_gids) + local_of[tgt])
            offsets.append(len(words))
        assert np.array_equal(part.local_gids, local_gids)
        assert part.gid_to_local.tolist() == [local_of.get(g, -1) for g in range(net.n_neurons)]
        assert part.in_offsets.dtype == np.int64 and part.in_words.dtype == np.int32
        assert part.in_offsets.tolist() == offsets
        assert part.in_words.tolist() == words


@pytest.mark.parametrize("n_ranks", [1, 2])
def test_partition_builds_no_network_sized_temporary(n_ranks):
    # 4M synapses span 64 source blocks; the tables are 16 MB of words.
    # Whole-network temporaries (a target rank per synapse, a synapse
    # index, gathers through it) reach 2.7-4.5 times the tables; one
    # block's temporaries are a few hundred kB.
    net = _hand_net(np.full(3000, 4 * 2**20 // 3000), grid_x=5, grid_y=6)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, parts = partition(net, n_ranks)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table_bytes = sum(p.in_words.nbytes + p.in_offsets.nbytes for p in parts)
    if n_ranks == 1:
        # the network's arrays are the table: nothing sized to it is made
        assert parts[0].in_words is net.words and parts[0].in_offsets is net.offsets
        assert peak - before < table_bytes / 2
    else:
        assert retained - before >= table_bytes
        assert peak - retained < table_bytes / 2


# sha256 over each rank's in_offsets bytes then in_words bytes, rank by
# rank, computed before build_network stored packed words
_TABLE_SHA256 = {
    ("small-1k", 1): "3e225581dadb58747ae38d66fd834f726e60eddbf90521003230eee5b4b54a35",
    ("small-1k", 2): "c6f661e537def13bfce12dfcb4ac6e74aec13faaf40238ca50af5f198e4dd68d",
    ("small-1k", 3): "205c47bf00be4c725896f5e74253fbef6b1a7f0cd456e67b6888be7d68e85f27",
    ("small-1k", 4): "4eb8723d994134f9ecde0c63e1c4d290572749d21cbf4d8d49553f1bd79e4b31",
    ("paper-desk", 1): "f4f9a1a925199b5210b8d951729a6726d5f6cb3a7728a8bbdbc3e0ab6e0049b9",
    ("paper-desk", 2): "fd50691df6fa07717f133e1a8593534c6e336e79f6fddb26df40146151329794",
    ("paper-desk", 3): "c11536a99cbd0fbee9faefed672783268a4f7c7d9a8670ada9b662681f9143eb",
    ("paper-desk", 4): "d4de3ceae8a56a02f376b15600d5146e6a6f44ff422d6b5dfb2d4a04379165da",
}


@pytest.mark.parametrize("config", ["small-1k", "paper-desk"])
def test_rank_tables_match_pinned_digests(config):
    from spikebench.config import load_bundled_config

    cfg = load_bundled_config(config)
    net = build_network(cfg.grid_spec(), dt_ms=cfg["run.dt_ms"], model=cfg["model.kind"])
    # the build's preallocation holds these networks without growing
    assert net.total_synapses <= network._table_capacity(net.spec)
    for n_ranks in (1, 2, 3, 4):
        # every rank built in one call, then each rank built alone
        for parts in (partition(net, n_ranks)[1],
                      [partition(net, n_ranks, rank=r)[1][0] for r in range(n_ranks)]):
            digest = hashlib.sha256()
            for part in parts:
                digest.update(part.in_offsets.tobytes())
                digest.update(part.in_words.tobytes())
            assert digest.hexdigest() == _TABLE_SHA256[config, n_ranks], n_ranks


@pytest.mark.parametrize("w_exc_scale", [1.0, 1.37])
def test_partition_keeps_one_weight_per_source(w_exc_scale):
    net = _net()
    exc = net.is_excitatory(np.arange(net.n_neurons))
    rule = np.where(exc, net.spec.w_exc * w_exc_scale, -net.spec.w_inh)
    scaled = _with_w_exc(net, net.spec.w_exc * w_exc_scale)
    _, parts = partition(scaled, 2)
    for part in parts:
        assert part.in_weights is None
        assert np.array_equal(part.source_weights.view(np.int64),
                              scaled.source_weights().view(np.int64))
        assert np.array_equal(part.source_weights.view(np.int64), rule.view(np.int64))


@pytest.mark.parametrize("n_ranks", [1, 2])
def test_per_source_and_per_synapse_delivery_agree(n_ranks):
    from spikebench.config import load_bundled_config

    cfg = load_bundled_config("small-1k")
    net = build_network(cfg.grid_spec(), dt_ms=cfg["run.dt_ms"])
    stim = cfg.stimulus()
    _, per_source = partition(net, n_ranks)
    _, per_synapse = partition(net, n_ranks)
    # STDP that changes no weight: the per-synapse side delivers through
    # its plastic weight table, which keeps the build's weights
    frozen = StdpParams(enabled=True, a_plus=0.0, a_minus=0.0)
    engines = [[Engine(p, stim, dt_ms=net.dt_ms, n_steps=200) for p in per_source],
               [Engine(p, stim, dt_ms=net.dt_ms, n_steps=200,
                       stdp=StdpState(p, frozen, net.dt_ms)) for p in per_synapse]]
    for t in range(200):
        # every rank sees every spike of the step; sources without
        # synapses on a rank deliver nothing there
        merged = [np.sort(np.concatenate([e.step(t) for e in side])) for side in engines]
        assert np.array_equal(merged[0], merged[1])
        for a, b in zip(*engines):
            a.deliver(t, merged[0])
            b.deliver(t, merged[1])
            assert np.array_equal(a.ring.buf.view(np.int64), b.ring.buf.view(np.int64))
            a.advance()
            b.advance()
    rasters = [np.concatenate([np.stack(e.raster()) for e in side], axis=1)
               for side in engines]
    assert rasters[0].shape[1] > 0
    assert np.array_equal(rasters[0], rasters[1])
    assert sum(e.internal_events for e in engines[0]) > 0


@pytest.mark.parametrize("n_ranks", [1, 2])
def test_packed_delivery_matches_three_table_reference(n_ranks):
    # the reference bins each synapse by delay * n_local + target, rebuilt
    # from separate delay and target tables as before the packed word, and
    # adds the binned ring at the engine's cursor
    from spikebench.config import load_bundled_config

    cfg = load_bundled_config("small-1k")
    net = build_network(cfg.grid_spec(), dt_ms=cfg["run.dt_ms"])
    _, parts = partition(net, n_ranks)
    engines = [Engine(p, cfg.stimulus(), dt_ms=net.dt_ms, n_steps=200) for p in parts]
    tables = [(p.in_delays.astype(np.int64), p.in_targets.astype(np.int64),
               np.zeros((p.n_slots, p.n_local))) for p in parts]
    for t in range(200):
        for e, (_, _, ref) in zip(engines, tables):
            ref[e.ring.cursor] = 0.0  # the step drains this slot
        merged = np.sort(np.concatenate([e.step(t) for e in engines]))
        for e, (delays, targets, ref) in zip(engines, tables):
            part, ring = e.part, e.ring
            e.deliver(t, merged)
            idx = np.concatenate([np.arange(part.in_offsets[s], part.in_offsets[s + 1])
                                  for s in merged] + [np.empty(0, dtype=np.int64)])
            w = part.source_weights[np.searchsorted(part.in_offsets, idx, side="right") - 1]
            flat = delays[idx] * part.n_local + targets[idx]
            acc = np.bincount(flat, weights=w, minlength=ring.n_slots * part.n_local)
            acc = acc.reshape(ring.n_slots, part.n_local)
            c = ring.cursor
            ref[c:] += acc[:ring.n_slots - c]
            ref[:c] += acc[ring.n_slots - c:]
            assert np.array_equal(ring.buf.view(np.int64), ref.view(np.int64)), t
            e.advance()
    assert sum(e.internal_events for e in engines) > 0


def test_partition_communication_graph_consistency():
    net = _net()
    _, parts = partition(net, 4)
    for part in parts:
        for peer in part.out_peers:
            assert part.rank in parts[peer].in_peers
        for peer in part.in_peers:
            assert part.rank in parts[peer].out_peers


@pytest.mark.parametrize("n_ranks", [2, 3, 4])
def test_partition_communication_graph_matches_brute_force(n_ranks):
    # every (source, remote target rank) pair, read off the synapse list
    # one synapse at a time
    net = _net()
    _, parts = partition(net, n_ranks)
    owner = {int(gid): part.rank for part in parts for gid in part.local_gids}
    pairs = set()
    for src in range(net.n_neurons):
        for tgt in net.targets[net.offsets[src]:net.offsets[src + 1]]:
            if owner[int(tgt)] != owner[src]:
                pairs.add((src, owner[int(tgt)]))
    for part in parts:
        expected = {}
        for src, peer in sorted(pairs):
            if owner[src] == part.rank:
                expected.setdefault(peer, []).append(src)
        assert part.out_peers == sorted(expected)
        assert {peer: srcs.tolist() for peer, srcs in part.peer_sources.items()} == expected
        assert part.in_peers == sorted({owner[s] for s, peer in pairs if peer == part.rank})


@pytest.mark.parametrize("sparse", [False, True])
@pytest.mark.parametrize("n_ranks", [1, 2, 3, 4])
def test_partition_of_one_rank_equals_that_rank_of_every_rank(n_ranks, sparse):
    # the sparse net sends each peer only some of a rank's sources, and at
    # 4 ranks some pairs of ranks exchange nothing, so a peer list read
    # from the wrong rank's synapses shows
    net = _net(target_fanout=3.0, decay_lambda=0.5) if sparse else _net()
    columns, every = partition(net, n_ranks)
    if sparse and n_ranks > 1:
        assert all(len(s) < p.n_local for p in every for s in p.peer_sources.values())
    if sparse and n_ranks == 4:
        assert any(len(p.in_peers) < n_ranks - 1 for p in every)
    for r, whole in enumerate(every):
        column_to_rank, alone = partition(net, n_ranks, rank=r)
        assert np.array_equal(column_to_rank, columns)
        assert len(alone) == 1
        part = alone[0]
        assert part.rank == r and part.n_slots == whole.n_slots == net.n_slots
        assert np.array_equal(part.local_gids, whole.local_gids)
        assert part.in_offsets.tobytes() == whole.in_offsets.tobytes()
        assert part.in_words.tobytes() == whole.in_words.tobytes()
        assert part.out_peers == whole.out_peers and part.in_peers == whole.in_peers
        assert part.peer_sources.keys() == whole.peer_sources.keys()
        for peer, sources in whole.peer_sources.items():
            assert part.peer_sources[peer].tobytes() == sources.tobytes()
        if n_ranks == 1:
            assert part.in_words is net.words and part.in_offsets is net.offsets


def test_partition_of_one_rank_allocates_only_its_own_table():
    # rank 0's table is about half of the two; building both, even to keep
    # one, would raise the peak by the other rank's table
    net = _hand_net(np.full(3000, 4 * 2**20 // 3000), grid_x=5, grid_y=6)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, (part,) = partition(net, 2, rank=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = part.in_words.nbytes + part.in_offsets.nbytes
    assert table_bytes > 0.4 * (net.words.nbytes + 2 * net.offsets.nbytes)
    assert peak - before < 1.5 * table_bytes


# ---------------------------------------------------------- wire frames

def test_empty_frame_is_header_only():
    frame = encode_frame(3, 9, [])
    assert len(frame) == HEADER_SIZE == 15
    sender, step, spikes = decode_frame(frame)
    assert (sender, step, len(spikes)) == (3, 9, 0)


def test_frame_roundtrip_random():
    gen = np.random.default_rng(99)
    for _ in range(10_000):
        sender = int(gen.integers(0, 2**16))
        step = int(gen.integers(0, 2**32))
        spikes = gen.integers(0, 2**32, size=int(gen.integers(0, 40)), dtype=np.uint32)
        sender2, step2, spikes2 = decode_frame(encode_frame(sender, step, spikes))
        assert sender2 == sender and step2 == step
        assert (spikes2 == spikes).all()


def test_frame_layout_is_pinned():
    frame = encode_frame(1, 2, np.array([7], dtype=np.uint32))
    assert frame[:4] == FRAME_MAGIC
    assert frame[4] == 1  # version
    assert frame[5:7] == (1).to_bytes(2, "little")
    assert frame[7:11] == (2).to_bytes(4, "little")
    assert frame[11:15] == (1).to_bytes(4, "little")
    assert frame[15:19] == (7).to_bytes(4, "little")


def test_frame_corruption_detected():
    good = encode_frame(0, 5, np.array([1, 2], dtype=np.uint32))
    with pytest.raises(FrameCorruptionError):
        decode_frame(b"XXXX" + good[4:])            # bad magic
    with pytest.raises(FrameCorruptionError):
        decode_frame(good[:4] + b"\x09" + good[5:])  # unsupported version
    with pytest.raises(FrameCorruptionError):
        decode_frame(good[:-4])                      # declared 2, payload 1
    with pytest.raises(FrameCorruptionError):
        decode_frame(good + b"\x00" * 4)             # trailing bytes
    with pytest.raises(FrameCorruptionError):
        decode_frame(good[:10])                      # shorter than header


# ------------------------------------------------------------- exchange

@contextlib.contextmanager
def _transports(parts, timeout=5.0, transport="memory"):
    """One transport per part over fresh loopback links; all closed on exit."""
    links = loopback_links(parts, timeout, transport)
    ends = [TcpTransport(p.rank, links[p.rank]) for p in parts]
    try:
        yield ends
    finally:
        for end in ends:
            end.close()


def test_exchange_two_ranks_example():
    # rank 0 spikes {7}, rank 1 spikes {}: rank 1 receives {7}, rank 0 {}
    net = _net()
    _, parts = partition(net, 2)
    assert 7 in parts[0].local_gids
    with _transports(parts) as ends:
        comms = [Communicator(p, ends[p.rank], timeout=5.0) for p in parts]
        results = {}

        def ranker(rank, spikes):
            results[rank] = comms[rank].exchange(5, spikes)

        t0 = threading.Thread(target=ranker, args=(0, np.array([7], dtype=np.int64)))
        t1 = threading.Thread(target=ranker, args=(1, np.empty(0, dtype=np.int64)))
        t0.start(); t1.start(); t0.join(); t1.join()
    # gid 7 is excitatory in column 0 with targets on rank 1 in this build
    assert results[1].tolist() == [7]
    assert results[0].tolist() == []


def test_exchange_single_rank_returns_empty_immediately():
    net = _net()
    _, parts = partition(net, 1)
    with _transports(parts) as (end,):
        comm = Communicator(parts[0], end, timeout=0.01)
        remote = comm.exchange(0, np.array([3], dtype=np.int64))
    assert len(remote) == 0


def test_exchange_timeout_names_rank_and_step():
    net = _net()
    _, parts = partition(net, 2)
    with _transports(parts) as (ep0, _):
        comm = Communicator(parts[0], ep0, timeout=0.05)
        with pytest.raises(ExchangeError) as exc_info:
            comm.exchange(0, np.empty(0, dtype=np.int64))
    assert exc_info.value.rank == 1
    assert exc_info.value.step == 0


def test_exchange_step_mismatch_rejected():
    net = _net()
    _, parts = partition(net, 2)
    with _transports(parts) as (ep0, ep1):
        comm0 = Communicator(parts[0], ep0, timeout=1.0)
        ep1.send(0, encode_frame(1, 3, []))  # frame for the wrong step
        with pytest.raises(ProtocolViolationError):
            comm0.exchange(0, np.empty(0, dtype=np.int64))


def test_exchange_unknown_source_rejected():
    net = _net()
    _, parts = partition(net, 2)
    with _transports(parts) as (ep0, ep1):
        comm0 = Communicator(parts[0], ep0, timeout=1.0)
        ep1.send(0, encode_frame(1, 0, np.array([10**6], dtype=np.uint32)))
        with pytest.raises(ProtocolViolationError):
            comm0.exchange(0, np.empty(0, dtype=np.int64))


def test_exchange_wrong_sender_rejected():
    net = _net()
    _, parts = partition(net, 2)
    with _transports(parts) as (ep0, ep1):
        comm0 = Communicator(parts[0], ep0, timeout=1.0)
        ep1.send(0, encode_frame(0, 0, []))  # claims sender 0 on pair (1->0)
        with pytest.raises(ProtocolViolationError):
            comm0.exchange(0, np.empty(0, dtype=np.int64))


def test_exchange_rejects_a_frame_naming_the_receivers_own_neuron():
    # a rank-0 neuron with synapses on rank 0: known to the table, but no
    # peer may announce it as a remote spike
    net = _net()
    _, parts = partition(net, 2)
    has_here = np.diff(parts[0].in_offsets) > 0
    own = int(parts[0].local_gids[has_here[parts[0].local_gids]][0])
    with _transports(parts) as (ep0, ep1):
        comm0 = Communicator(parts[0], ep0, timeout=1.0)
        ep1.send(0, encode_frame(1, 0, np.array([own], dtype=np.uint32)))
        with pytest.raises(ProtocolViolationError, match=f"source {own} .* neuron of rank 0"):
            comm0.exchange(0, np.empty(0, dtype=np.int64))


def test_exchange_rejects_a_source_with_no_synapses_on_the_receiver():
    net = _net(target_fanout=3.0, decay_lambda=0.5)
    _, parts = partition(net, 2)
    no_synapses = parts[1].local_gids[np.diff(parts[0].in_offsets)[parts[1].local_gids] == 0]
    assert len(no_synapses)
    bad = int(no_synapses[0])
    with _transports(parts) as (ep0, ep1):
        comm0 = Communicator(parts[0], ep0, timeout=1.0)
        ep1.send(0, encode_frame(1, 0, np.array([bad], dtype=np.uint32)))
        with pytest.raises(ProtocolViolationError,
                           match=f"source {bad} from rank 1 has no synapses on rank 0"):
            comm0.exchange(0, np.empty(0, dtype=np.int64))


def test_exchange_rejects_a_third_ranks_neuron():
    # at 3 ranks neuron 50 (column 2) is rank 2's and has synapses on rank
    # 0: only rank 2 may announce it there, never rank 1
    net = _net()
    _, parts = partition(net, 3)
    assert 50 in parts[2].local_gids
    assert np.diff(parts[0].in_offsets)[50] > 0
    assert 1 in parts[0].in_peers
    with _transports(parts) as ends:
        comm0 = Communicator(parts[0], ends[0], timeout=1.0)
        ends[1].send(0, encode_frame(1, 0, np.array([50], dtype=np.uint32)))
        with pytest.raises(ProtocolViolationError,
                           match="source 50 from rank 1 is a neuron of rank 2"):
            comm0.exchange(0, np.empty(0, dtype=np.int64))


@pytest.mark.parametrize("n_ranks", [2, 3, 4])
def test_exchange_sends_each_peer_exactly_its_sources(n_ranks):
    # sparse enough that each peer hears of only some of a rank's neurons
    net = _net(target_fanout=3.0, decay_lambda=0.5)
    _, parts = partition(net, n_ranks)
    assert all(len(s) < p.n_local for p in parts for s in p.peer_sources.values())
    gen = np.random.default_rng(n_ranks)
    with _transports(parts) as ends:
        comms = [Communicator(p, ends[p.rank], timeout=5.0) for p in parts]
        with ThreadPoolExecutor(n_ranks) as pool:
            for step in range(2 * n_ranks):
                # random ascending subsets of each rank's neurons; one rank
                # per step spikes nothing
                spikes = [np.sort(gen.choice(p.local_gids, int(gen.integers(1, p.n_local + 1)),
                                             replace=False))
                          if p.rank != step % n_ranks else np.empty(0, dtype=np.int64)
                          for p in parts]
                got = list(pool.map(lambda c, s: c.exchange(step, s), comms, spikes))
                for part, remote in zip(parts, got):
                    expected = [np.empty(0, dtype=np.int64)]
                    expected += [spikes[p][np.isin(spikes[p], parts[p].peer_sources[part.rank])]
                                 for p in part.in_peers]
                    assert remote.tolist() == np.concatenate(expected).tolist()


@pytest.mark.parametrize("transport", ["memory", "tcp"])
def test_recv_keeps_to_a_short_timeout_after_a_long_one(transport):
    net = _net()
    _, parts = partition(net, 2)
    with _transports(parts, transport=transport) as (ep0, ep1):
        ep1.send(0, encode_frame(1, 0, []))
        assert decode_frame(ep0.recv(1, 5.0))[1] == 0
        t0 = time.monotonic()
        with pytest.raises(ExchangeError, match="rank 0 lost rank 1"):
            ep0.recv(1, 0.05)
        assert time.monotonic() - t0 < 1.0


@pytest.mark.parametrize("transport, buffer_bytes, neurons_per_column", [
    # loopback TCP with buffers much below 16 KB stalls on delayed ACKs,
    # which would time out without any deadlock
    ("memory", 4096, 1000), ("tcp", 16384, 8000)])
def test_exchange_completes_when_both_frames_overflow_the_link(
        transport, buffer_bytes, neurons_per_column):
    # every local neuron spikes, so each rank's frame (8 columns * 4 bytes
    # * neurons_per_column) is larger than its link can hold; if both ranks
    # sent before receiving, each would block in sendall
    net = _net(grid_x=4, grid_y=4, neurons_per_column=neurons_per_column,
               target_fanout=10.0, decay_lambda=100.0)
    _, parts = partition(net, 2)
    with _transports(parts, timeout=10.0, transport=transport) as ends:
        for end in ends:
            for sock in end._socks.values():
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, buffer_bytes)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, buffer_bytes)
        for a, b in ((0, 1), (1, 0)):  # a frame outgrows all a link can hold
            held = (ends[a]._socks[b].getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
                    + ends[b]._socks[a].getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF))
            assert 4 * len(parts[a].peer_sources[b]) > held
        comms = [Communicator(p, ends[p.rank], timeout=10.0) for p in parts]
        with ThreadPoolExecutor(2) as pool:
            got = list(pool.map(lambda c: c.exchange(0, c.part.local_gids), comms))
    for part, remote in zip(parts, got):
        assert remote.tolist() == parts[1 - part.rank].peer_sources[part.rank].tolist()


# ----------------------------------------------- partition transparency

def test_rasters_bit_identical_across_rank_counts():
    net = _net()
    stim = _stim()
    checks = {}
    totals = {}
    for p in (1, 2, 4, 8):
        metrics, raster, per_rank, _ = run_simulation(net, seconds=0.5, stim=stim, n_ranks=p)
        checks[p] = raster_checksum(*raster)
        totals[p] = (metrics.total_spikes, metrics.internal_synaptic_events,
                     metrics.external_synaptic_events)
        assert metrics.total_spikes == sum(m.total_spikes for m in per_rank)
        assert metrics.internal_synaptic_events == sum(m.internal_synaptic_events for m in per_rank)
    assert len(set(checks.values())) == 1
    assert len(set(totals.values())) == 1
    assert totals[1][0] > 0


def test_remote_expansion_counts_on_receiving_rank():
    # sum of per-rank internal events must equal the sum of the spikers'
    # full fanouts, wherever the targets live
    net = _net()
    stim = _stim()
    metrics, (steps, gids), per_rank, _ = run_simulation(net, seconds=0.5, stim=stim, n_ranks=4)
    assert metrics.internal_synaptic_events == int(net.fanouts[gids].sum())


def test_tcp_transport_matches_memory():
    net = _net()
    stim = _stim()
    m_mem, r_mem, _, _ = run_simulation(net, seconds=0.3, stim=stim, n_ranks=4,
                                        transport="memory")
    m_tcp, r_tcp, _, _ = run_simulation(net, seconds=0.3, stim=stim, n_ranks=4,
                                        transport="tcp", timeout=20.0)
    assert raster_checksum(*r_mem) == raster_checksum(*r_tcp)
    assert m_mem.total_spikes == m_tcp.total_spikes
    assert m_mem.internal_synaptic_events == m_tcp.internal_synaptic_events


def test_tcp_step_where_every_neuron_spikes_matches_memory():
    # a stimulus that fires all of small-1k at once puts every source id
    # of each rank into one frame
    from spikebench.config import load_bundled_config

    cfg = load_bundled_config("small-1k")
    net = build_network(cfg.grid_spec(), dt_ms=cfg["run.dt_ms"])
    stim = StimulusSpec(ext_synapses_per_neuron=594, ext_rate_hz=30.0, ext_weight=20.0,
                        seed=7)
    runs = {tr: run_simulation(net, seconds=0.01, stim=stim, n_ranks=2, transport=tr,
                               timeout=20.0)[1]
            for tr in ("memory", "tcp")}
    steps, gids = runs["tcp"]
    mem_steps, mem_gids = runs["memory"]
    full = np.flatnonzero(np.bincount(steps) == net.n_neurons)
    assert len(full) > 0
    for t in full:
        assert gids[steps == t].tolist() == list(range(net.n_neurons))
        assert np.array_equal(gids[steps == t], mem_gids[mem_steps == t])
    assert raster_checksum(*runs["tcp"]) == raster_checksum(*runs["memory"])


def test_concurrent_tcp_runs_in_one_process_do_not_collide():
    net = _net()
    stim = _stim()
    results, errors = {}, []

    def run(i):
        try:
            results[i] = run_simulation(net, seconds=0.3, stim=stim, n_ranks=2,
                                        transport="tcp", timeout=20.0)[1]
        except BaseException as err:
            errors.append(err)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60.0)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert raster_checksum(*results[0]) == raster_checksum(*results[1])
    assert len(results[0][0]) > 0


def test_cluster_rank_builds_only_its_own_partition(monkeypatch):
    # both ranks of a 2-rank cluster, as threads of this process: each
    # run_simulation builds one RankPartition, its own, and the two rank
    # rasters merge into the thread-rank run's
    built = []

    class CountedPartition(distributed.RankPartition):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append((threading.get_ident(), self.rank))

    net, stim = _net(), _stim()
    _, expected, _, _ = run_simulation(net, seconds=0.3, stim=stim, n_ranks=2)
    monkeypatch.setattr(distributed, "RankPartition", CountedPartition)
    cluster = {r: ("127.0.0.1", _free_port()) for r in range(2)}
    with ThreadPoolExecutor(2) as pool:
        runs = list(pool.map(lambda r: run_simulation(
            net, seconds=0.3, stim=stim, n_ranks=2, rank=r, cluster=cluster, timeout=20.0),
            range(2)))
    assert sorted(rank for _, rank in built) == [0, 1]
    assert len({thread for thread, _ in built}) == 2
    for r, (_, _, per_rank, parts) in enumerate(runs):
        assert [p.rank for p in parts] == [r] and len(per_rank) == 1
    steps = np.concatenate([raster[0] for _, raster, _, _ in runs])
    gids = np.concatenate([raster[1] for _, raster, _, _ in runs])
    order = np.lexsort((gids, steps))
    assert len(steps) > 0
    assert raster_checksum(steps[order], gids[order]) == raster_checksum(*expected)


def test_cluster_file_parsing(tmp_path):
    path = tmp_path / "cluster.txt"
    path.write_text("# comment\n0 127.0.0.1:9000\n1 127.0.0.1:9001\n")
    cluster = parse_cluster_file(path)
    assert cluster == {0: ("127.0.0.1", 9000), 1: ("127.0.0.1", 9001)}
    bad = tmp_path / "bad.txt"
    bad.write_text("0 localhost\n")
    with pytest.raises(ConfigError):
        parse_cluster_file(bad)
    # one diagnostic per bad line: port 0 would bind a port no peer can
    # find, and a repeated rank must not silently win
    worse = tmp_path / "worse.txt"
    worse.write_text("0 localhost\n1 127.0.0.1:0\n2 127.0.0.1:65536\n"
                     "3 127.0.0.1:9003\n3 127.0.0.1:9004\n4 127.0.0.1:65535\n")
    with pytest.raises(ConfigError) as exc_info:
        parse_cluster_file(worse)
    problems = exc_info.value.problems
    assert len(problems) == 4
    assert [p.split(":")[1] for p in problems] == ["1", "2", "3", "5"]
    assert "port 0 " in problems[1] and "port 65536 " in problems[2]
    assert "rank 3 " in problems[3]
    # an empty host would listen on every interface
    hostless = tmp_path / "hostless.txt"
    hostless.write_text("0 127.0.0.1:9000\n1 :9001\n2 :9002\n")
    with pytest.raises(ConfigError) as exc_info:
        parse_cluster_file(hostless)
    problems = exc_info.value.problems
    assert [p.split(":")[1] for p in problems] == ["2", "3"]
    assert all("no host" in p for p in problems)


def test_check_run_args_rejects_each_cluster_rank_that_does_not_exist():
    cluster = {r: ("127.0.0.1", 5000 + abs(r)) for r in (0, 1, 7, -3)}
    with pytest.raises(ConfigError) as exc_info:
        check_run_args(n_ranks=2, rank=0, cluster=cluster)
    assert exc_info.value.problems == ["cluster rank -3 outside [0, 2)",
                                       "cluster rank 7 outside [0, 2)"]
    check_run_args(n_ranks=2, rank=0, cluster={0: ("127.0.0.1", 5000), 1: ("127.0.0.1", 5001)})


def test_a_build_or_run_argument_that_is_not_finite_is_refused_before_any_draw(monkeypatch):
    # each once ended in a ValueError or OverflowError traceback, or ran on
    net = _net()

    def no_draw(*args, **kwargs):
        raise AssertionError("drew or partitioned before the arguments were checked")

    monkeypatch.setattr(rng, "philox_generator", no_draw)
    monkeypatch.setattr(distributed, "partition", no_draw)
    nan, inf = float("nan"), float("inf")
    with pytest.raises(ConfigError) as exc_info:
        build_network(net.spec, dt_ms=nan)
    assert exc_info.value.problems == ["run.dt_ms: must be > 0, got nan"]
    for kwargs, problem in ((dict(seconds=inf), "run.simulated_seconds: must be finite, got inf"),
                            (dict(timeout=inf), "run.timeout_seconds: must be finite, got inf")):
        with pytest.raises(ConfigError) as exc_info:
            run_simulation(net, **{"seconds": 0.01, "stim": _stim(), **kwargs})
        assert exc_info.value.problems == [problem]


def test_library_run_refuses_its_arguments_before_partition(monkeypatch):
    # check_run_args owns every rule on run_simulation's arguments and
    # runs before partition, with STDP on as well; the public functions
    # that need one of its rules call the same owner
    net = _net()

    def no_partition(*args, **kwargs):
        raise AssertionError("partitioned before the run's arguments were checked")

    monkeypatch.setattr(distributed, "partition", no_partition)
    transport = "run.transport: expected one of ('memory', 'tcp'), got 'carrier-pigeon'"
    cases = [
        (dict(n_ranks=0), ["run.ranks: must be >= 1, got 0"]),
        (dict(n_ranks=9), ["run.ranks: 9 ranks exceed the grid's 8 columns"]),
        (dict(n_ranks=2, transport="carrier-pigeon"), [transport]),
        (dict(timeout=0.0), ["run.timeout_seconds: must be > 0, got 0.0"]),
        (dict(timeout=-1), ["run.timeout_seconds: must be > 0, got -1"]),
        (dict(seconds=0.0004), [
            "run.simulated_seconds: 0.0004 s rounds to 0 steps of run.dt_ms = 1.0 ms"]),
        (dict(seconds=1e306), [
            "run.simulated_seconds: must be fewer than 2**32 steps of run.dt_ms = 1.0 ms, "
            "got 1e+306"]),
        (dict(seconds=0.0, n_ranks=2, transport="carrier-pigeon", timeout=float("nan"),
              rank=2), [
            "run.simulated_seconds: must be > 0, got 0.0",
            "run.timeout_seconds: must be > 0, got nan", transport,
            "rank 2 needs a cluster (CLI: --cluster FILE)", "rank 2 outside [0, 2)"]),
    ]
    for kwargs, problems in cases:
        with pytest.raises(ConfigError) as exc_info:
            run_simulation(net, **{"seconds": 0.01, "stim": _stim(),
                                   "stdp_params": StdpParams(enabled=True), **kwargs})
        assert exc_info.value.problems == problems
    monkeypatch.undo()
    with pytest.raises(ConfigError, match="^run.ranks: must be >= 1, got 0$"):
        partition(net, 0)
    _, parts = partition(net, 2)
    with pytest.raises(ConfigError) as exc_info:
        loopback_links(parts, 5.0, "carrier-pigeon")
    assert exc_info.value.problems == [transport]


# ------------------------------------------------------------ TCP links

def _close_all(links):
    for socks in links.values():
        for sock in socks.values():
            sock.close()


@pytest.mark.parametrize("n_ranks", [3, 4])
def test_loopback_links_join_exactly_the_coupled_pairs(n_ranks):
    _, parts = partition(_net(), n_ranks)
    for transport in ("memory", "tcp"):
        links = loopback_links(parts, 5.0, transport)
        try:
            for part in parts:
                assert set(links[part.rank]) == set(part.out_peers) | set(part.in_peers)
                for peer, sock in links[part.rank].items():  # the far end is the peer's
                    sock.sendall(bytes([part.rank]))
                    assert links[peer][part.rank].recv(1) == bytes([part.rank])
        finally:
            _close_all(links)


def test_loopback_links_close_every_socket_when_one_fails(monkeypatch):
    _, parts = partition(_net(), 3)
    made, links = [], []
    create_server, connect, accept, socketpair = (
        socket.create_server, socket.create_connection, socket.socket.accept,
        socket.socketpair)

    def recording_server(*args, **kwargs):
        made.append(create_server(*args, **kwargs))
        return made[-1]

    def second_link_fails(make):
        def link(*args, **kwargs):
            links.append(args)
            if len(links) == 2:
                raise OSError("injected failure of the second link")
            ends = make(*args, **kwargs)
            made.extend(ends if isinstance(ends, tuple) else [ends])
            return ends
        return link

    def recording_accept(self):
        conn, addr = accept(self)
        made.append(conn)
        return conn, addr

    monkeypatch.setattr(socket, "create_server", recording_server)
    monkeypatch.setattr(socket, "create_connection", second_link_fails(connect))
    monkeypatch.setattr(socket, "socketpair", second_link_fails(socketpair))
    monkeypatch.setattr(socket.socket, "accept", recording_accept)
    # "tcp": the listener and both ends of the first link; "memory": the
    # first socket pair, with no listener
    for transport, n_made in (("tcp", 3), ("memory", 2)):
        made.clear()
        links.clear()
        with pytest.raises(OSError, match="second link"):
            loopback_links(parts, 5.0, transport)
        assert len(made) == n_made
        assert [sock.fileno() for sock in made] == [-1] * n_made


def _free_port():
    with socket.create_server(("127.0.0.1", 0)) as sock:
        return sock.getsockname()[1]


def test_rendezvous_names_the_peer_that_never_connects():
    cluster = {r: ("127.0.0.1", 0) for r in range(3)}
    t0 = time.perf_counter()
    with pytest.raises(ExchangeError) as exc_info:
        rendezvous(0, cluster, [1, 2], timeout=0.3)
    assert exc_info.value.rank == 1
    assert time.perf_counter() - t0 < 2.0


def test_rendezvous_rejects_a_hello_from_outside_its_peers():
    cluster = {r: ("127.0.0.1", _free_port()) for r in range(3)}
    with ThreadPoolExecutor(1) as pool:
        accepting = pool.submit(rendezvous, 0, cluster, [1], 0.5)
        stranger = rendezvous(2, cluster, [0], timeout=0.5)  # rank 0 waits for rank 1
        try:
            with pytest.raises(ProtocolViolationError, match="hello from rank 2"):
                accepting.result(timeout=5.0)
        finally:
            _close_all({2: stranger})


def test_rendezvous_names_the_peer_it_cannot_reach():
    cluster = {0: ("127.0.0.1", _free_port()), 1: ("127.0.0.1", 0)}  # nothing listens
    with pytest.raises(ExchangeError, match="could not reach rank 0") as exc_info:
        rendezvous(1, cluster, [0], timeout=0.3)
    assert exc_info.value.rank == 0


# ------------------------------------------------------ failing ranks

@pytest.mark.parametrize("transport", ["memory", "tcp"])
@pytest.mark.parametrize("unread", [False, True])
def test_closed_peer_raises_exchange_error_naming_rank(unread, transport):
    # closing with a frame left unread resets the connection instead of
    # ending it cleanly; either way the survivor's error names the peer
    _, parts = partition(_net(), 3)
    assert 1 in parts[2].in_peers
    with _transports(parts, transport=transport) as (ep0, ep1, ep2):
        frame = encode_frame(0, 0, np.arange(1000, dtype=np.uint32))
        ep1.send(0, frame)
        assert ep0.recv(1, timeout=5.0) == frame
        if unread:
            ep0.send(1, frame)
            time.sleep(0.05)
        else:
            ep1.send(0, frame)
        ep1.close()
        if not unread:  # frames sent before close arrive
            assert ep0.recv(1, timeout=10.0) == frame
        t0 = time.perf_counter()
        with pytest.raises(ExchangeError) as exc_info:
            ep0.recv(1, timeout=10.0)
        assert time.perf_counter() - t0 < 1.0
        assert exc_info.value.rank == 1
        with pytest.raises(ExchangeError) as exc_info:
            ep2.recv(1, timeout=10.0)
        assert exc_info.value.rank == 1
        # the first send after the peer closed may still be buffered; one of
        # the next ones meets the reset
        with pytest.raises(ExchangeError) as exc_info:
            for _ in range(100):
                ep0.send(1, frame)
                time.sleep(0.01)
        assert exc_info.value.rank == 1


def test_corrupt_frame_header_is_rejected_before_its_count_sizes_a_read():
    # a bad magic with count 2**32 - 1 must not ask the socket for 16 GiB
    _, parts = partition(_net(), 2)
    bogus = b"XXXX" + encode_frame(1, 0, [])[4:HEADER_SIZE - 4] + b"\xff" * 4
    with _transports(parts) as (ep0, ep1):
        ep1.send(0, bogus)
        with pytest.raises(FrameCorruptionError, match="bad frame magic"):
            ep0.recv(1, timeout=5.0)


def test_frame_that_claims_more_ids_than_arrive_ends_in_exchange_error():
    # a valid header claiming 2**32 - 1 ids, then the peer closes: the read
    # ends with the link, naming the peer, after allocating only what came
    _, parts = partition(_net(), 2)
    header = encode_frame(1, 0, [])[:HEADER_SIZE - 4] + b"\xff" * 4
    with _transports(parts) as (ep0, ep1):
        ep1.send(0, header + b"\x00" * 1000)
        ep1.close()
        with pytest.raises(ExchangeError) as exc_info:
            ep0.recv(1, timeout=5.0)
    assert exc_info.value.rank == 1
    assert "rank 1" in str(exc_info.value)


@pytest.mark.parametrize("transport", ["memory", "tcp", "tcp-connect"])
def test_rank_failure_ends_run_promptly_with_its_own_error(monkeypatch, transport):
    # rank 1 dies at step 2, or ("tcp-connect") while the driver links it
    # to rank 0; rank 0 must stop at its next receive, or never start, and
    # the run must raise rank 1's error, not rank 0's lost-peer error
    net = _net()
    if transport == "tcp-connect":
        transport, error = "tcp", OSError

        def failing_connect(*args, **kwargs):
            raise OSError("injected failure on rank 1")

        monkeypatch.setattr(socket, "create_connection", failing_connect)
    else:
        error = RuntimeError
        step = Engine.step

        def failing_step(self, t):
            if self.part.rank == 1 and t == 2:
                raise RuntimeError("injected failure on rank 1")
            return step(self, t)

        monkeypatch.setattr(Engine, "step", failing_step)
    t0 = time.perf_counter()
    with pytest.raises(error, match="injected failure on rank 1"):
        run_simulation(net, seconds=0.5, stim=_stim(), n_ranks=2,
                       transport=transport, timeout=10.0)
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.parametrize("transport", ["memory", "tcp"])
def test_rank_failure_before_the_start_barrier_raises_its_own_error(monkeypatch, transport):
    # rank 1 fails while wrapping its links; rank 0, waiting for it at the
    # start barrier, must be freed, and the run must raise rank 1's error
    init = distributed.Communicator.__init__

    def failing_init(self, part, *args, **kwargs):
        if part.rank == 1:
            raise RuntimeError("injected failure on rank 1")
        init(self, part, *args, **kwargs)

    monkeypatch.setattr(distributed.Communicator, "__init__", failing_init)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="injected failure on rank 1"):
        run_simulation(_net(), seconds=0.5, stim=_stim(), n_ranks=2,
                       transport=transport, timeout=10.0)
    assert time.perf_counter() - t0 < 2.0


def test_rank_whose_transport_fails_closes_its_links(monkeypatch):
    # rank 1's transport raises, so no transport owns its links: its worker
    # must close them itself, or they stay open after the run has failed
    class FailingTransport(distributed.TcpTransport):
        def __init__(self, rank, socks):
            if rank == 1:
                raise RuntimeError("injected failure on rank 1")
            super().__init__(rank, socks)

    net = _net()
    monkeypatch.setattr(distributed, "TcpTransport", FailingTransport)
    fds = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(RuntimeError, match="injected failure on rank 1"):
        run_simulation(net, seconds=0.5, stim=_stim(), n_ranks=2, transport="memory",
                       timeout=10.0)
    assert sorted(os.listdir("/proc/self/fd")) == fds


def test_rank_loop_timers_start_together(monkeypatch):
    # rank 1 takes 0.5 s to get ready; rank 0's loop time must not hold
    # that wait, which its step-0 receive would otherwise spend
    init = distributed.Communicator.__init__

    def slow_init(self, part, *args, **kwargs):
        if part.rank == 1:
            time.sleep(0.5)
        init(self, part, *args, **kwargs)

    monkeypatch.setattr(distributed.Communicator, "__init__", slow_init)
    _, _, per_rank, _ = run_simulation(_net(), seconds=0.1, stim=_stim(), n_ranks=2,
                                       transport="memory", timeout=10.0)
    assert per_rank[0].wall_seconds < 0.4
