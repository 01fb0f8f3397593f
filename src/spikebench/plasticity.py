"""Spike-timing dependent plasticity (all-to-all exponential traces).

Weight change for one pre/post spike pair at lag dt = t_post - t_pre:

    dt > 0:  +a_plus  * exp(-dt / tau_plus)
    dt < 0:  -a_minus * exp(+dt / tau_minus)
    dt = 0:  0

The trace implementation keeps one exponentially decaying trace per
pre-synaptic source (decay tau_plus) and per post-synaptic neuron (decay
tau_minus).  Per step: decay both traces, apply depression for this
step's pre spikes against the existing post traces, apply potentiation
for this step's post spikes against the existing pre traces, then bump
the traces of this step's spikes.  Zero-lag pairs therefore contribute
nothing, matching the pair rule, and the total over any spike pattern
equals the all-to-all pairwise sum.

Updates touch excitatory synapses only and are clamped to
[max(w_min, 0), w_max], so excitatory weights never change sign.
Disabled parameters leave every weight bit-identical.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = ["StdpParams", "stdp_delta_w", "potentiate", "depress", "StdpState"]

# synapses depressed in one joined pass: a burst step's temporaries stay
# near 3 MB instead of growing with the step (16 MB on desk-stdp)
_DEPRESS_BLOCK = 1 << 16


@dataclass(frozen=True)
class StdpParams:
    enabled: bool = False
    a_plus: float = 0.01
    a_minus: float = 0.012
    tau_plus: float = 20.0
    tau_minus: float = 20.0
    w_min: float = 0.0
    w_max: float = 10.0

    def __post_init__(self):
        problems = []
        if not self.tau_plus > 0:
            problems.append(f"tau_plus must be > 0, got {self.tau_plus}")
        if not self.tau_minus > 0:
            problems.append(f"tau_minus must be > 0, got {self.tau_minus}")
        if self.w_min > self.w_max:
            problems.append(f"w_min ({self.w_min}) must not exceed w_max ({self.w_max})")
        if self.a_plus < 0 or self.a_minus < 0:
            problems.append("a_plus and a_minus are magnitudes and must be >= 0")
        if problems:
            raise ConfigError(problems)


def stdp_delta_w(dt_pre_post: float, params: StdpParams) -> float:
    """Pairwise weight change for lag dt = t_post - t_pre (ms)."""
    if not math.isfinite(dt_pre_post):
        raise ConfigError([f"spike lag must be finite, got {dt_pre_post}"])
    if dt_pre_post > 0:
        return params.a_plus * math.exp(-dt_pre_post / params.tau_plus)
    if dt_pre_post < 0:
        return -params.a_minus * math.exp(dt_pre_post / params.tau_minus)
    return 0.0


def potentiate(weights: np.ndarray, pre_traces: np.ndarray, params: StdpParams) -> np.ndarray:
    """Potentiation at a post spike: w + a_plus * pre_trace, clamped."""
    return np.clip(weights + params.a_plus * pre_traces, max(params.w_min, 0.0), params.w_max)


def depress(weights: np.ndarray, post_traces: np.ndarray, params: StdpParams) -> np.ndarray:
    """Depression at a pre spike: w - a_minus * post_trace, clamped."""
    return np.clip(weights - params.a_minus * post_traces, max(params.w_min, 0.0), params.w_max)


class StdpState:
    """Trace state bound to one rank's incoming synapse table.

    Creates the per-synapse table ``part.in_weights`` and mutates it in
    place.  Pre traces are kept for every source that projects onto this
    rank (indexed by global id), post traces for local neurons.  Only
    synapses from excitatory sources are plastic.
    """

    def __init__(self, part, params: StdpParams, dt_ms: float):
        if not params.enabled:
            raise ConfigError(["StdpState requires params.enabled = true"])
        self.part = part
        self.params = params
        self.decay_plus = math.exp(-dt_ms / params.tau_plus)
        self.decay_minus = math.exp(-dt_ms / params.tau_minus)
        n_global = len(part.in_offsets) - 1
        self.pre_trace = np.zeros(n_global, dtype=np.float64)
        self.post_trace = np.zeros(len(part.local_gids), dtype=np.float64)
        # transpose of the plastic (excitatory-source) synapses: sorting the
        # unique keys target * n_syn + synapse index groups them by local
        # target, in table order within a target
        n_syn = len(part.in_words)
        n_local = self._n_local = len(part.local_gids)
        counts = np.diff(part.in_offsets)
        exc_idx = np.flatnonzero(np.repeat(part.source_excitatory, counts))
        targets = part.in_words[exc_idx]
        targets %= n_local  # in int32 before widening; the remainder is the slow pass
        key = targets.astype(np.int64)
        del targets
        key *= n_syn
        key += exc_idx
        del exc_idx
        key.sort()
        self._by_target_bounds = np.searchsorted(
            key, np.arange(n_local + 1, dtype=np.int64) * n_syn)
        key %= n_syn
        self._by_target_idx = key
        # source gid of each transposed synapse, read as a contiguous slice
        self._by_target_src = np.repeat(
            np.arange(n_global, dtype=np.int32), counts)[self._by_target_idx]
        # created last, so the transpose's temporaries never coexist with it
        part.in_weights = np.repeat(part.source_weights, counts)

    def _depress(self, spans: list) -> None:
        """Depress the synapses of table ``spans`` (disjoint slices)."""
        w = self.part.in_weights
        targets = np.concatenate([self.part.in_words[s] for s in spans])
        targets %= self._n_local
        joined = depress(np.concatenate([w[s] for s in spans]), self.post_trace[targets],
                         self.params)
        at = 0
        for s in spans:
            w[s] = joined[at:at + s.stop - s.start]
            at += s.stop - s.start

    def process_step(self, pre_sources: np.ndarray, post_spiked_local: np.ndarray) -> None:
        """Advance one step: decay, depress, potentiate, bump traces.

        ``pre_sources``: global ids of every neuron that spiked this step
        and projects onto this rank (ascending).  ``post_spiked_local``:
        local indices of this rank's neurons that spiked (ascending).
        """
        p, part = self.params, self.part
        w = part.in_weights
        self.pre_trace *= self.decay_plus
        self.post_trace *= self.decay_minus

        # depression: the spans of this step's excitatory sources are
        # disjoint, so they are joined, depressed at once and written back,
        # in blocks of about _DEPRESS_BLOCK synapses to bound the temporaries
        exc = pre_sources[part.source_excitatory[pre_sources]]
        spans, size = [], 0
        for a, b in zip(part.in_offsets[exc].tolist(), part.in_offsets[exc + 1].tolist()):
            spans.append(slice(a, b))
            size += b - a
            if size >= _DEPRESS_BLOCK:
                self._depress(spans)
                spans, size = [], 0
        if spans:
            self._depress(spans)
        bounds = self._by_target_bounds
        for j in post_spiked_local:
            lo, hi = bounds[j], bounds[j + 1]
            if hi > lo:
                idx = self._by_target_idx[lo:hi]
                w[idx] = potentiate(w[idx], self.pre_trace[self._by_target_src[lo:hi]], p)

        self.pre_trace[pre_sources] += 1.0
        if len(post_spiked_local):
            self.post_trace[post_spiked_local] += 1.0
