#!/usr/bin/env python3
"""Build the desk-scale columnar network and inspect its statistics.

Shows the distance-decaying connection probability, the fanout
normalization (mean outgoing synapses per neuron hits the target), the
uniform delay histogram, and the 80/20 excitatory/inhibitory split.
"""

import numpy as np

from spikebench import build_network, connection_probability, count_equivalent_synapses, normalize_fanout
from spikebench.config import load_bundled_config
from spikebench.network import format_network_stats, network_stats

cfg = load_bundled_config("paper-desk")
spec = cfg.grid_spec()

p0 = normalize_fanout(spec)
print(f"fanout normalization: p0 = {p0:.5f} for target {spec.target_fanout}")
print("connection probability vs inter-column distance:")
for d in (0.0, 1.0, 2.0, 4.0, 8.0, 12.0):
    print(f"  d = {d:4.1f} columns -> p = {connection_probability(d, spec, p0=p0):.5f}")

print("\nbuilding the 10K-neuron network (one keyed stream per source)...")
net = build_network(spec, dt_ms=cfg["run.dt_ms"], model=cfg["model.kind"])
stats = network_stats(net)
print(format_network_stats(stats))

equivalent = count_equivalent_synapses(net, cfg.stimulus())
print(f"equivalent synapses (internal + external): {equivalent:,} "
      f"(internal {net.total_synapses:,} + 10000 x 594 external)")

# determinism: the same seed rebuilds the identical wiring
again = build_network(spec, dt_ms=cfg["run.dt_ms"], model=cfg["model.kind"])
print("rebuild with the same seed is bit-identical:",
      bool((again.targets == net.targets).all() and (again.weights == net.weights).all()))
