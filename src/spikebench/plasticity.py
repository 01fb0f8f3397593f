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

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import engine, forked
from .engine import _source_blocks, _unpack
from .errors import ConfigError, finite, require

__all__ = ["StdpParams", "stdp_delta_w", "potentiate", "depress", "StdpState"]


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
        w_min, w_max = self.w_min, self.w_max
        require([("a_plus", self.a_plus, 0 <= self.a_plus < math.inf, "be >= 0"),
                 ("a_minus", self.a_minus, 0 <= self.a_minus < math.inf, "be >= 0"),
                 ("tau_plus", self.tau_plus, 0 < self.tau_plus < math.inf, "be > 0"),
                 ("tau_minus", self.tau_minus, 0 < self.tau_minus < math.inf, "be > 0"),
                 *finite(self, "w_min", "w_max"),
                 (f"w_min ({w_min})", None, not -math.inf < w_max < w_min < math.inf,
                  f"not exceed w_max ({w_max})")])


def stdp_delta_w(dt_pre_post: float, params: StdpParams) -> float:
    """Pairwise weight change for lag dt = t_post - t_pre (ms)."""
    if not math.isfinite(dt_pre_post):
        raise ConfigError([f"spike lag must be finite, got {dt_pre_post}"])
    if dt_pre_post > 0:
        return params.a_plus * math.exp(-dt_pre_post / params.tau_plus)
    if dt_pre_post < 0:
        return -params.a_minus * math.exp(dt_pre_post / params.tau_minus)
    return 0.0


def potentiate(weights: np.ndarray, pre_traces: np.ndarray, params: StdpParams,
               out: Optional[np.ndarray] = None) -> np.ndarray:
    """Potentiation at a post spike: w + a_plus * pre_trace, clamped.
    The result fills ``out`` (which may be ``pre_traces``) if given."""
    gain = np.multiply(pre_traces, params.a_plus, out=out)
    return np.clip(np.add(weights, gain, out=gain), max(params.w_min, 0.0), params.w_max,
                   out=gain)


def depress(weights: np.ndarray, post_traces: np.ndarray, params: StdpParams,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """Depression at a pre spike: w - a_minus * post_trace, clamped.
    The result fills ``out`` (which may be ``post_traces``) if given."""
    loss = np.multiply(post_traces, params.a_minus, out=out)
    return np.clip(np.subtract(weights, loss, out=loss), max(params.w_min, 0.0), params.w_max,
                   out=loss)


class StdpState:
    """Trace state bound to one rank's incoming synapse table.

    Only synapses from excitatory sources are plastic, so only they get a
    weight of their own: ``part.in_weights`` (created here and mutated in
    place) holds each excitatory source's span, in source order, and
    source ``s``'s weights are ``in_weights[plastic_offsets[s]:
    plastic_offsets[s + 1]]`` (an empty span for an inhibitory source),
    8 B per plastic synapse.  Slot ``k`` of that span is the synapse whose
    word is ``in_words[in_offsets[s] + k]``.  Every other synapse keeps
    ``source_weights[s]``.  Pre traces are kept for every source that
    projects onto this rank (indexed by global id), post traces for local
    neurons.

    Potentiation reads the plastic synapses by target through a transpose
    that stores, per plastic synapse in target-major order, its source gid
    and its slot in that source's span, each in the smallest unsigned type
    that holds it (4 B per plastic synapse up to 65,535 neurons and
    fan-outs).  Target ``j``'s synapses are entries
    ``_by_target_bounds[j]:_by_target_bounds[j + 1]``, in table order;
    their weights are ``in_weights[plastic_offsets[src] + slot]``.
    """

    def __init__(self, part, params: StdpParams, dt_ms: float):
        if not params.enabled:
            raise ConfigError(["StdpState requires params.enabled = true"])
        self.part = part
        self.params = params
        self.decay_plus = math.exp(-dt_ms / params.tau_plus)
        self.decay_minus = math.exp(-dt_ms / params.tau_minus)
        self.pre_trace = np.zeros(len(part.in_offsets) - 1, dtype=np.float64)
        self.post_trace = np.zeros(len(part.local_gids), dtype=np.float64)
        self._n_local = len(part.local_gids)
        counts = np.where(part.source_excitatory, np.diff(part.in_offsets), 0)
        self.plastic_offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.plastic_offsets[1:])
        self._by_target_bounds, self._by_target_src, self._by_target_slot = _transpose(
            part, self.plastic_offsets)
        # scratch, reused by every block of depression (fewer than
        # _BLOCK_SYNAPSES synapses plus one source's span) and of potentiation
        # (plus one target's): fresh temporaries of that size are mapped and
        # faulted in anew whenever malloc's dynamic mmap threshold is below
        # them, which doubled depression's time
        size = engine._BLOCK_SYNAPSES + int(max(counts.max(initial=0),
                                                np.diff(self._by_target_bounds).max(initial=0)))
        self._words, self._delays, self._targets = (
            np.empty(size, dtype=part.in_words.dtype) for _ in range(3))
        self._src = np.empty(size, dtype=self._by_target_src.dtype)
        self._slot = np.empty(size, dtype=self._by_target_slot.dtype)
        self._positions = np.empty(size, dtype=np.int64)
        self._traces, self._joined = np.empty(size), np.empty(size)
        # created last, so the transpose's sort key never coexists with it
        part.in_weights = np.repeat(part.source_weights, counts)

    def stored_bytes(self) -> int:
        """Bytes of the plastic offsets, the transpose and the traces
        (``in_weights`` is the part's)."""
        return sum(a.nbytes for a in (self.plastic_offsets, self._by_target_bounds,
                                      self._by_target_src, self._by_target_slot,
                                      self.pre_trace, self.post_trace))

    def overlay(self, w: np.ndarray, sources: np.ndarray, lengths: np.ndarray) -> None:
        """Copy each excitatory source's plastic weights over its stretch of
        ``w``: the weights of ``sources``, ``lengths[i]`` synapses each,
        joined in order."""
        exc = self.part.source_excitatory[sources]
        at = np.cumsum(lengths) - lengths
        plastic = sources[exc]
        pw = self.part.in_weights
        for i, a, b in zip(at[exc].tolist(), self.plastic_offsets[plastic].tolist(),
                           self.plastic_offsets[plastic + 1].tolist()):
            w[i:i + b - a] = pw[a:b]

    def _depress(self, starts: list, lo: list, hi: list, size: int) -> None:
        """Depress the ``size`` synapses of disjoint source spans: weights
        ``in_weights[lo[i]:hi[i]]``, words from ``in_words[starts[i]]`` on."""
        w = self.part.in_weights
        words = self._words[:size]
        np.concatenate([self.part.in_words[s:s + b - a] for s, a, b in zip(starts, lo, hi)],
                       out=words)
        _, targets = _unpack(words, self._n_local, out=(self._delays[:size], self._targets[:size]))
        # targets lie in [0, n_local), so "clip" never clips; unlike "raise",
        # it fills out without a buffered copy
        traces = np.take(self.post_trace, targets, out=self._traces[:size], mode="clip")
        joined = self._joined[:size]
        np.concatenate([w[a:b] for a, b in zip(lo, hi)], out=joined)
        depress(joined, traces, self.params, out=traces)
        at = 0
        for a, b in zip(lo, hi):
            w[a:b] = traces[at:at + b - a]
            at += b - a

    def _potentiate(self, lo: list, hi: list, size: int) -> None:
        """Potentiate the ``size`` synapses of transpose runs ``lo[i]:hi[i]``."""
        src, slot = self._src[:size], self._slot[:size]
        np.concatenate([self._by_target_src[a:b] for a, b in zip(lo, hi)], out=src)
        np.concatenate([self._by_target_slot[a:b] for a, b in zip(lo, hi)], out=slot)
        # indices in range, so "clip" never clips (see _depress); numpy
        # widens the narrow src and slot into the int64 positions
        idx = np.take(self.plastic_offsets, src, out=self._positions[:size], mode="clip")
        idx += slot
        traces = np.take(self.pre_trace, src, out=self._traces[:size], mode="clip")
        w = self.part.in_weights
        joined = np.take(w, idx, out=self._joined[:size], mode="clip")
        # the runs' synapses are distinct (each has one target), so the
        # scattered write-back sets each once
        w[idx] = potentiate(joined, traces, self.params, out=traces)

    def process_step(self, pre_sources: np.ndarray, post_spiked_local: np.ndarray) -> None:
        """Advance one step: decay, depress, potentiate, bump traces.

        ``pre_sources``: global ids of every neuron that spiked this step
        and projects onto this rank (ascending).  ``post_spiked_local``:
        local indices of this rank's neurons that spiked (ascending).
        """
        part, plastic = self.part, self.plastic_offsets
        self.pre_trace *= self.decay_plus
        self.post_trace *= self.decay_minus

        # depression: the spans of this step's excitatory sources are
        # disjoint, so they are joined, depressed at once and written back,
        # in blocks, so a burst step's temporaries stay near 3 MB instead of
        # growing with the step (16 MB on desk-stdp)
        exc = pre_sources[part.source_excitatory[pre_sources]]
        starts, lo, hi = (part.in_offsets[exc].tolist(), plastic[exc].tolist(),
                          plastic[exc + 1].tolist())
        ends = list(itertools.accumulate(map(operator.sub, hi, lo), initial=0))
        for i, j in _source_blocks(ends):
            self._depress(starts[i:j], lo[i:j], hi[i:j], ends[j] - ends[i])

        # potentiation: the spiking targets' transpose runs, joined alike
        bounds = self._by_target_bounds
        lo = bounds.take(post_spiked_local).tolist()
        hi = bounds.take(post_spiked_local + 1).tolist()
        ends = list(itertools.accumulate(map(operator.sub, hi, lo), initial=0))
        for i, j in _source_blocks(ends):
            self._potentiate(lo[i:j], hi[i:j], ends[j] - ends[i])

        self.pre_trace[pre_sources] += 1.0
        if len(post_spiked_local):
            self.post_trace[post_spiked_local] += 1.0


def _key_shifts(n_local: int, n_global: int, fan: int) -> tuple:
    """(source_shift, target_shift) of the transpose's sort key
    ``target << target_shift | source << source_shift | slot``: each field
    takes the bits of its largest value, the end bound ``n_local <<
    target_shift`` included, and all of them must fit in 63."""
    source_shift = max(fan - 1, 0).bit_length()
    target_shift = source_shift + max(n_global - 1, 0).bit_length()
    if target_shift + n_local.bit_length() > 63:
        raise ConfigError([f"{n_local} targets x {n_global} sources x fan-out {fan} "
                           "overflow the int64 STDP sort key"])
    return source_shift, target_shift


def _transpose(part, plastic_offsets: np.ndarray):
    """(bounds, src, slot) of the plastic synapses of ``part``, grouped by
    local target and in table order within a target (see StdpState);
    ``plastic_offsets`` is the state's.

    The sources are split into contiguous ranges of about equal plastic
    synapse count, one per worker process (``forked.worker_count``).  This
    process forks a worker for every range but the first, transposes the
    first itself, and reads each worker's transpose from a pipe.  As the
    source is the key's second field, target ``j``'s runs of the ranges,
    joined in range order, are its synapses in table order.
    """
    offsets = part.in_offsets
    n_global, n_local = len(offsets) - 1, len(part.local_gids)
    fan = int(np.diff(offsets).max(initial=0))
    shifts = _key_shifts(n_local, n_global, fan)
    types = np.min_scalar_type(n_global), np.min_scalar_type(fan)
    bounds = forked.balanced_ranges(np.diff(plastic_offsets),
                                    forked.worker_count(plastic_offsets[-1], n_global))
    ranges = list(zip(bounds, bounds[1:]))
    sizes = [int(plastic_offsets[b] - plastic_offsets[a]) for a, b in ranges]
    run = functools.partial(_transpose_sources, part, shifts, types)
    with forked.Children() as workers:
        outputs = [workers.fork(f"STDP transpose of sources {a}..{b - 1}",
                                functools.partial(_write_transpose, run, a, b, size))
                   for (a, b), size in zip(ranges[1:], sizes[1:])]
        sides = [run(*ranges[0], sizes[0])]
        for size, output in zip(sizes[1:], outputs):
            side = (np.empty(n_local + 1, dtype=np.int64), np.empty(size, dtype=types[0]),
                    np.empty(size, dtype=types[1]))
            for array in side:
                workers.read(output, array)
            sides.append(side)
    return sides[0] if len(sides) == 1 else _join(sides, n_local)


def _join(sides: list, n_local: int) -> tuple:
    """One (bounds, src, slot) from the ranges' ``sides``: target ``j``'s
    runs of each range in turn.  A run is copied through memoryviews,
    which cost a third of what numpy slices do (20,000 runs on
    paper-desk)."""
    bounds = sum(side[0] for side in sides)
    src, slot = (np.empty(int(bounds[-1]), dtype=a.dtype) for a in sides[0][1:])
    runs = [(side[0].tolist(), memoryview(side[1]), memoryview(side[2])) for side in sides]
    to_src, to_slot = memoryview(src), memoryview(slot)
    at = 0
    for j in range(n_local):
        for starts, from_src, from_slot in runs:
            a, b = starts[j], starts[j + 1]
            end = at + b - a
            to_src[at:end] = from_src[a:b]
            to_slot[at:end] = from_slot[a:b]
            at = end
    return bounds, src, slot


def _write_transpose(run, s0: int, s1: int, size: int, out) -> None:
    """Transpose sources [s0, s1) and write bounds, src and slot to ``out``."""
    for array in run(s0, s1, size):
        out.write(array)


def _transpose_sources(part, shifts: tuple, types: tuple, s0: int, s1: int, size: int):
    """(bounds, src, slot) of the ``size`` plastic synapses of sources
    [s0, s1) alone, in the dtypes ``types`` of src and slot.

    Each plastic synapse gets the unique int64 sort key ``target <<
    target_shift | source << source_shift | slot`` (see _key_shifts): a
    synapse's table position ``in_offsets[source] + slot`` rises with
    (source, slot), so sorting the keys groups the synapses by target, in
    table order.  The key is filled and decoded in blocks, so no other
    temporary is sized to the range, and it is freed when this returns.
    """
    source_shift, target_shift = shifts
    offsets, exc = part.in_offsets, part.source_excitatory
    n_local = len(part.local_gids)
    key = np.empty(size, dtype=np.int64)
    at = 0
    for b0, b1 in _source_blocks(offsets[s0:s1 + 1]):
        b0, b1 = b0 + s0, b1 + s0
        a, b = int(offsets[b0]), int(offsets[b1])
        lens = np.diff(offsets[b0:b1 + 1])
        plastic = np.repeat(exc[b0:b1], lens)
        _, targets = _unpack(part.in_words[a:b][plastic], n_local)
        out = key[at:at + len(targets)]
        out[...] = targets
        out <<= target_shift
        # source << source_shift - in_offsets[source] + table position
        within = np.repeat((np.arange(b0, b1, dtype=np.int64) << source_shift)
                           - offsets[b0:b1], lens)
        within += np.arange(a, b)
        out |= within[plastic]
        at += len(targets)
    key.sort()
    bounds = np.searchsorted(key, np.arange(n_local + 1, dtype=np.int64) << target_shift)
    src, slot = np.empty(size, dtype=types[0]), np.empty(size, dtype=types[1])
    source_mask, slot_mask = (1 << (target_shift - source_shift)) - 1, (1 << source_shift) - 1
    for a in range(0, size, engine._BLOCK_SYNAPSES):
        # one mask and one shift per field; the key is no longer needed
        block = key[a:a + engine._BLOCK_SYNAPSES]
        np.bitwise_and(block, slot_mask, out=slot[a:a + len(block)], casting="unsafe")
        block >>= source_shift
        np.bitwise_and(block, source_mask, out=src[a:a + len(block)], casting="unsafe")
    return bounds, src, slot
