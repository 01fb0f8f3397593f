"""Golden raster pins: small-1k over 1 simulated second.

Rank-count and transport agreement (test_distributed) cannot catch a
refactor that changes every rank the same way; these pins can.  The
values were computed with the engine as it stood before the compacting
stimulus loop and the rotated delay-ring delivery were introduced
(stimulus: a full-size re-masked Knuth loop; delivery: modulo-slot
bincount over the whole ring), so every later step-loop change must
reproduce them bit for bit.
"""

import pytest

from spikebench import build_network, raster_checksum
from spikebench.config import apply_overrides, load_bundled_config
from spikebench.distributed import run_simulation

# (raster_sha256, total_events) per model configuration
PINS = {
    "adaptive_lif": ("3732ed43f600a8bb9422870d62c1a14238a6b0524158c76f845ad863467f018b", 2195760),
    "izhikevich": ("4dfb850693da3962efadeaf43f5419aaec5bba5e6bfa3cd3508465ef6353bc7d", 3659561),
    "adaptive_lif+stdp": ("6cc44152ea83b29f7ca49964c1346003ee037d3eacd576730038c70f7885c30f", 2194208),
}

OVERRIDES = {
    "adaptive_lif": [],
    # at the bundled ext_weight of 0.5 no Izhikevich neuron ever fires,
    # which would pin an empty raster; 2.0 gives about 9 Hz
    "izhikevich": ["model.kind=izhikevich", "stimulus.ext_weight=2.0"],
    "adaptive_lif+stdp": ["stdp.enabled=true"],
}


def _run(case: str, n_ranks: int, transport: str):
    cfg = apply_overrides(load_bundled_config("small-1k"), OVERRIDES[case]).require_valid()
    net = build_network(cfg.grid_spec(), dt_ms=cfg["run.dt_ms"], model=cfg["model.kind"])
    metrics, (steps, gids), _, _ = run_simulation(
        net, seconds=cfg["run.simulated_seconds"], stim=cfg.stimulus(),
        n_ranks=n_ranks, transport=transport, lif_params=cfg.lif_params(),
        stdp_params=cfg.stdp_params(),
    )
    return raster_checksum(steps, gids), metrics.total_events


@pytest.mark.parametrize("case, n_ranks, transport", [
    ("adaptive_lif", 1, "memory"),
    ("adaptive_lif", 2, "memory"),
    ("adaptive_lif", 2, "tcp"),
    ("izhikevich", 1, "memory"),
    ("adaptive_lif+stdp", 1, "memory"),
    ("adaptive_lif+stdp", 2, "tcp"),
])
def test_small_1k_raster_matches_golden_pin(case, n_ranks, transport):
    assert _run(case, n_ranks, transport) == PINS[case]
