#!/usr/bin/env python3
"""Partition transparency: the raster does not depend on the rank count.

Runs the 1K-neuron configuration on 1, 2, 4 and 8 ranks (threads linked
by AF_UNIX socket pairs) with identical seeds and shows that the spike
rasters are bit-identical and the per-rank counters sum to the
single-rank totals exactly.
"""

from spikebench import raster_checksum
from spikebench.config import load_bundled_config
from spikebench.distributed import run_simulation
from spikebench.network import build_network

cfg = load_bundled_config("small-1k")
net = build_network(cfg.grid_spec(), dt_ms=cfg["run.dt_ms"], model=cfg["model.kind"])
stim = cfg.stimulus()

reference = None
for ranks in (1, 2, 4, 8):
    metrics, raster, per_rank, _ = run_simulation(
        net, seconds=1.0, stim=stim, n_ranks=ranks, lif_params=cfg.lif_params(),
    )
    digest = raster_checksum(*raster)
    marker = ""
    if reference is None:
        reference = digest
    else:
        marker = "  (matches P=1)" if digest == reference else "  MISMATCH"
    rank_spikes = [m.total_spikes for m in per_rank]
    print(f"P={ranks}: rate={metrics.mean_rate_hz:.3f} Hz "
          f"spikes={metrics.total_spikes} internal={metrics.internal_synaptic_events} "
          f"raster sha256 {digest[:16]}...{marker}")
    print(f"      per-rank spike counts {rank_spikes} sum to {sum(rank_spikes)}")
