"""An independent scalar reference for the simulated model.

The model fits in plain Python loops: per neuron, the scalar stimulus
draw ``rng.poisson_keyed`` and the scalar neuron step; per synapse, a
word decoded with ``divmod``; one step's deliveries summed per (delay,
target) cell from 0.0 in source order and then added to that cell's
pending input; and STDP as the plasticity module's docstring states it.
The reference reads only ``Network.offsets``, ``Network.words`` and
``source_weights()``, never the engine's ring, stimulus blocks, rank
tables or STDP transpose, so a change that every vectorized version of
those shares still shows here.  The engine must match it bit for bit at
one rank and at two ranks on either transport.
"""

import functools
import math

import numpy as np
import pytest

from spikebench import build_network, rng
from spikebench.config import apply_overrides, load_bundled_config
from spikebench.distributed import run_simulation
from spikebench.neurons import NeuronState, izhikevich_preset, step_adaptive_lif, step_izhikevich

SECONDS = 0.3

OVERRIDES = {
    "adaptive_lif": [],
    # as in the golden pins: at ext_weight 0.5 no Izhikevich neuron fires
    "izhikevich": ["model.kind=izhikevich", "stimulus.ext_weight=2.0"],
    "stdp": ["stdp.enabled=true"],
}


@functools.lru_cache(maxsize=None)
def _case(case):
    cfg = apply_overrides(load_bundled_config("small-1k"), OVERRIDES[case]).require_valid()
    net = build_network(cfg.grid_spec(), dt_ms=cfg["run.dt_ms"], model=cfg["model.kind"])
    return cfg, net, _reference(net, cfg, int(round(SECONDS * 1000.0 / net.dt_ms)))


def _reference(net, cfg, n_steps):
    """Simulate ``n_steps`` -> (raster as (step, gid) pairs in order,
    internal events, external events, final weight of every synapse)."""
    n, dt = net.n_neurons, net.dt_ms
    stim, lif, stdp = cfg.stimulus(), cfg.lif_params(), cfg.stdp_params()
    lam = stim.events_per_step(dt)
    offsets = net.offsets.tolist()
    delay, target = zip(*(divmod(word, n) for word in net.words.tolist()))
    weight = np.repeat(net.source_weights(), net.fanouts).tolist()
    exc = [bool(e) for e in net.is_excitatory(np.arange(n))]

    if net.model == "izhikevich":
        params = [izhikevich_preset("rs" if e else "fs") for e in exc]
        states = [NeuronState(v=p.c, w=p.b * p.c) for p in params]
    else:
        states = [NeuronState(v=lif.v_rest, w=0.0) for _ in range(n)]

    if stdp.enabled:
        decay_plus = math.exp(-dt / stdp.tau_plus)
        decay_minus = math.exp(-dt / stdp.tau_minus)
        lo, hi = max(stdp.w_min, 0.0), stdp.w_max
        pre, post = [0.0] * n, [0.0] * n
        source = [s for s in range(n) for _ in range(offsets[s], offsets[s + 1])]
        into = [[] for _ in range(n)]  # plastic synapses by target
        for g, s in enumerate(source):
            if exc[s]:
                into[target[g]].append(g)

    raster, internal, external = [], 0, 0
    pending = {}  # step -> input due at that step, per neuron
    for t in range(n_steps):
        due = pending.pop(t, [0.0] * n)
        spikes = []
        for j in range(n):
            count = rng.poisson_keyed(lam, stim.seed, j, t)
            external += count
            i_syn = due[j] + stim.ext_weight * count
            if net.model == "izhikevich":
                states[j], spiked = step_izhikevich(states[j], params[j], i_syn, dt)
            else:
                states[j], spiked = step_adaptive_lif(states[j], lif, i_syn, dt)
            if spiked:
                spikes.append(j)
        raster += [(t, j) for j in spikes]

        cells = {}
        for s in spikes:
            for g in range(offsets[s], offsets[s + 1]):
                cell = (delay[g], target[g])
                cells[cell] = cells.get(cell, 0.0) + weight[g]
                internal += 1
        for (d, j), x in cells.items():
            pending.setdefault(t + d, [0.0] * n)[j] += x

        if stdp.enabled:
            pre = [x * decay_plus for x in pre]
            post = [x * decay_minus for x in post]
            for s in spikes:
                if exc[s]:
                    for g in range(offsets[s], offsets[s + 1]):
                        weight[g] = min(max(weight[g] - post[target[g]] * stdp.a_minus, lo), hi)
            for j in spikes:
                for g in into[j]:
                    weight[g] = min(max(weight[g] + pre[source[g]] * stdp.a_plus, lo), hi)
            for s in spikes:
                pre[s] += 1.0
                post[s] += 1.0
    return raster, internal, external, weight


@pytest.mark.parametrize("case", list(OVERRIDES))
@pytest.mark.parametrize("n_ranks, transport", [(1, "memory"), (2, "memory"), (2, "tcp")])
def test_engine_matches_the_scalar_reference(case, n_ranks, transport):
    cfg, net, (raster, internal, external, weight) = _case(case)
    metrics, (steps, gids), _, parts = run_simulation(
        net, seconds=SECONDS, stim=cfg.stimulus(), n_ranks=n_ranks, transport=transport,
        lif_params=cfg.lif_params(), stdp_params=cfg.stdp_params())
    assert len(raster) > 100
    assert list(zip(steps.tolist(), gids.tolist())) == raster
    assert (metrics.internal_synaptic_events, metrics.external_synaptic_events) == (
        internal, external)
    if not cfg["stdp.enabled"]:
        return
    # in_weights lists each excitatory source's synapses on the rank, in
    # source and table order; every other synapse keeps its source weight
    n, offsets, words = net.n_neurons, net.offsets.tolist(), net.words.tolist()
    exc = net.is_excitatory(np.arange(n))
    for part in parts:
        local = set(part.local_gids.tolist())
        expected = [weight[g] for s in np.flatnonzero(exc).tolist()
                    for g in range(offsets[s], offsets[s + 1]) if words[g] % n in local]
        assert part.in_weights.tobytes() == np.array(expected).tobytes()
        assert part.source_weights.tobytes() == net.source_weights().tobytes()
    assert any((part.in_weights != net.spec.w_exc).any() for part in parts)
