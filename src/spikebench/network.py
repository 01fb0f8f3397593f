"""Columnar grid network construction.

Neurons are grouped into columns laid out on a 2D grid with unit spacing.
Connection probability between columns decays exponentially with the
Euclidean distance between column centers, normalized so the expected
outgoing fanout per neuron equals ``target_fanout`` on average over
source columns.  Targets are sampled with replacement (multiple synapses
between a pair are allowed; self-synapses are excluded), weights are set
by the source class (+w_exc for excitatory sources, -w_inh for
inhibitory) and axonal delays are uniform integers in
[delay_min_ms/dt, delay_max_ms/dt] steps, each bound rounded half up.

Construction is keyed per source neuron (Philox4x64-10 keyed by
(seed, source id)), so the result is bit-identical for any build order,
build parallelism, or partition count.

Neuron numbering: column cid (row-major, cid = gy*grid_x + gx) owns the
contiguous id block [cid*npc, (cid+1)*npc).  Within each column the first
round(exc_fraction*npc) ids are excitatory.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import forked, rng
from .engine import StimulusSpec, ms_steps
from .errors import ConfigError, require, rule_problems

__all__ = [
    "GridSpec",
    "Network",
    "connection_probability",
    "normalize_fanout",
    "check_build_args",
    "build_network",
    "count_equivalent_synapses",
    "network_stats",
    "format_network_stats",
]

MODEL_KINDS = ("izhikevich", "adaptive_lif")


@dataclass(frozen=True)
class GridSpec:
    """Shape, connectivity and efficacy parameters of the columnar grid."""

    grid_x: int = 10
    grid_y: int = 10
    neurons_per_column: int = 100
    exc_fraction: float = 0.8
    target_fanout: float = 1195.0
    decay_lambda: float = 2.0
    delay_min_ms: float = 1.0
    delay_max_ms: float = 20.0
    w_exc: float = 0.4
    w_inh: float = 2.0
    seed: int = 42

    @property
    def n_columns(self) -> int:
        return self.grid_x * self.grid_y

    @property
    def n_neurons(self) -> int:
        return self.n_columns * self.neurons_per_column

    @property
    def n_exc_per_column(self) -> int:
        # round-half-up so 0.8*npc behaves as expected for small columns
        return int(math.floor(self.exc_fraction * self.neurons_per_column + 0.5))

    def __post_init__(self):
        x, y, npc, fanout = self.grid_x, self.grid_y, self.neurons_per_column, self.target_fanout
        lo, hi = self.delay_min_ms, self.delay_max_ms
        counted = x >= 1 and y >= 1 and npc >= 1 and 0 < fanout < math.inf
        require([
            ("grid", f"{x}x{y}", x >= 1 and y >= 1, "be at least 1x1"),
            ("neurons_per_column", npc, npc >= 1, "be >= 1"),
            ("exc_fraction", self.exc_fraction, 0 < self.exc_fraction < 1, "be in (0, 1)"),
            ("target_fanout", fanout, 0 < fanout < math.inf, "be > 0"),
            (f"target_fanout ({fanout})", None, not counted or fanout < self.n_neurons,
             f"be below the neuron count ({self.n_neurons})"),
            ("decay_lambda", self.decay_lambda, 0 < self.decay_lambda < math.inf, "be > 0"),
            ("delay_min_ms", lo, 0 < lo < math.inf, "be > 0"),
            ("delay_max_ms", hi, 0 < hi < math.inf, "be > 0"),
            (f"delay_max_ms ({hi})", None, not 0 < hi < lo < math.inf,
             f"be at least delay_min_ms ({lo})"),
            ("w_exc", self.w_exc, 0 <= self.w_exc < math.inf, "be >= 0"),
            ("w_inh", self.w_inh, 0 <= self.w_inh < math.inf, "be >= 0"),
        ], rng.seed_problems(self.seed))


@dataclass
class Network:
    """Immutable built network in CSR layout ordered by source id.

    ``offsets[s]:offsets[s+1]`` indexes the synapses of source s, each one
    int32 word ``delay * n_neurons + target`` (delay in steps) of weight
    ``source_weights()[s]``.  These two arrays are the table of a 1-rank
    run, which uses them as they are.  ``column_synapses[c]`` counts the
    synapses onto column c's neurons, which sizes a rank's table.
    ``n_slots`` is the delay ring's length, the longest delay in steps
    plus one, for every rank.  ``model`` selects the neuron family
    simulated on it.
    """

    spec: GridSpec
    dt_ms: float
    model: str
    offsets: np.ndarray          # int64, n_neurons + 1
    words: np.ndarray            # int32, delay * n_neurons + target
    column_synapses: np.ndarray  # int64, n_columns
    n_slots: int
    p0: float = field(default=0.0)

    @property
    def n_neurons(self) -> int:
        return self.spec.n_neurons

    @property
    def total_synapses(self) -> int:
        return int(self.offsets[-1])

    @property
    def fanouts(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def targets(self) -> np.ndarray:
        """Target of each synapse (int32), derived; no run reads it."""
        return self.words % self.n_neurons

    @property
    def delay_steps(self) -> np.ndarray:
        """Delay of each synapse in steps (int16), derived; no run reads it."""
        return (self.words // self.n_neurons).astype(np.int16)

    @property
    def weights(self) -> np.ndarray:
        """Per-synapse weights, derived; no run reads them."""
        return np.repeat(self.source_weights(), self.fanouts)

    def is_excitatory(self, gid) -> np.ndarray:
        """Vector-friendly excitatory test by id."""
        return (np.asarray(gid) % self.spec.neurons_per_column) < self.spec.n_exc_per_column

    def source_weights(self) -> np.ndarray:
        """The weight of every synapse of each source, one float64 per
        source: ``w_exc`` if it is excitatory, else ``-w_inh``; the build reads neither."""
        exc = self.is_excitatory(np.arange(self.n_neurons))
        return np.where(exc, float(self.spec.w_exc), -float(self.spec.w_inh))


def _connection_kernel(spec: GridSpec):
    """(p0, probs, eligible) per source column c (row) and target column
    c': ``eligible`` (int64) counts every neuron of c', less the source
    itself in its own column, and ``probs`` is ``p0 * exp(-d(c,c')/lambda)``
    (p0 <= 1, see normalize_fanout), with libm's ``math.exp`` per cell so
    that no SIMD loop numpy dispatches on the machine changes a draw."""
    npc, n_cols = spec.neurons_per_column, spec.n_columns
    cids = np.arange(n_cols)
    gx, gy = cids % spec.grid_x, cids // spec.grid_x
    dx, dy = gx[:, None] - gx, gy[:, None] - gy
    distance = np.sqrt((dx * dx + dy * dy).astype(np.float64)).ravel().tolist()
    kernel = np.reshape([math.exp(-d / spec.decay_lambda) for d in distance], (n_cols, n_cols))
    eligible = np.full((n_cols, n_cols), npc, dtype=np.int64)
    np.fill_diagonal(eligible, npc - 1)
    mean_reach = float((kernel * eligible).sum(axis=1).mean())
    if mean_reach <= 0.0:
        raise ConfigError([f"grid.target_fanout: {spec.target_fanout} cannot be met: "
                           "no neuron has an eligible target"])
    p0 = spec.target_fanout / mean_reach
    if p0 > 1.0:
        raise ConfigError([f"grid.target_fanout: {spec.target_fanout} needs p0 = {p0:.4f} > 1; "
                           "grid too small for the requested fanout"])
    return p0, p0 * kernel, eligible


def normalize_fanout(spec: GridSpec) -> float:
    """Base connection probability p0 so the average expected fanout equals
    ``target_fanout``.

    The expected fanout of a source in column c is
    p0 * sum_c' exp(-d(c,c')/lambda) * n_eligible(c,c'), with the source
    itself excluded from its own column's eligible pool.  p0 is fixed so
    the mean over source columns hits the target; a required p0 > 1 means
    the grid is too small for the requested fanout (a ConfigError).
    """
    return _connection_kernel(spec)[0]


def connection_probability(d: float, spec: GridSpec, p0: Optional[float] = None) -> float:
    """Probability of a synapse onto one neuron at inter-column distance d.

    ``p0 * exp(-d/decay_lambda)`` clamped to [0, 1]; pass a precomputed
    p0 to skip renormalization.
    """
    require([("distance", d, 0 <= d < math.inf, "be >= 0"),
             ("p0", p0, p0 is None or 0 <= p0 < math.inf, "be >= 0")])
    if p0 is None:
        p0 = normalize_fanout(spec)
    p = p0 * math.exp(-d / spec.decay_lambda)
    return min(max(p, 0.0), 1.0)


def _table_capacity(spec: GridSpec) -> int:
    """Words preallocated for the build: the expected synapse count
    ``target_fanout * n`` (exact by construction of p0) plus eight standard
    deviations of the sum of binomial draws, so the grow path almost never
    runs."""
    expected = spec.target_fanout * spec.n_neurons
    return int(expected + 8.0 * math.sqrt(expected)) + 1


def _grown(words: np.ndarray, filled: int, end: int) -> np.ndarray:
    """A larger table holding ``words[:filled]``: ``end`` words, or twice
    the old size if that is more."""
    grown = np.empty(max(end, 2 * len(words)), dtype=np.int32)
    grown[:filled] = words[:filled]
    return grown


def _build_columns(spec: GridSpec, probs: np.ndarray, eligible: np.ndarray,
                   delay_lo: int, delay_hi: int, lo: int, hi: int, words: np.ndarray):
    """Build the synapses of source columns [lo, hi) into ``words``, grown
    if need be -> (words, filled, counts_per_source, column_synapses).

    ``words[:filled]`` holds the range's synapses in source order, and
    ``counts_per_source`` the synapse count of each of its sources.
    """
    npc, n_cols, n = spec.neurons_per_column, spec.n_columns, spec.n_neurons
    col_starts = np.tile(np.arange(n_cols, dtype=np.int32) * np.int32(npc), npc)
    span = delay_hi - delay_lo + 1
    # numpy's bounded integers (Lemire's method) reject a 32-bit half h, and
    # draw another, when (h * span) mod 2**32 is below this
    reject_below = (2**32 - span) % span

    counts_per_source = np.zeros((hi - lo) * npc, dtype=np.int64)
    column_synapses = np.zeros(n_cols, dtype=np.int64)
    gen = rng.philox_generator(spec.seed, 0)
    rewind = rng.philox_rewinder(gen, spec.seed)
    filled = 0
    uw = hw = np.empty(0, dtype=np.uint64)  # column scratch, one item per synapse
    # each source draws from its own stream: binomial counts per target
    # column, then one block of raw words, k words for the uniforms and k
    # 32-bit halves for the delays; they are decoded once per source column
    for c in range(lo, hi):
        counts = np.empty((npc, n_cols), dtype=np.int64)
        pos = 0
        for i in range(npc):
            rewind(c * npc + i)
            counts[i] = gen.binomial(eligible[c], probs[c])
            k = int(counts[i].sum())
            r = gen.bit_generator.random_raw(k + (k + 1) // 2)
            if pos + k > len(uw):  # grow, keeping the column's items so far
                uw, hw = np.resize(uw, 2 * (pos + k)), np.resize(hw, 2 * (pos + k))
            uw[pos:pos + k] = r[:k]
            hw[pos:pos + k] = r[k:].astype("<u8", copy=False).view("<u4")[:k]  # low half first
            pos += k
        per_source = counts.sum(axis=1)
        counts_per_source[(c - lo) * npc:(c - lo + 1) * npc] = per_source
        column_synapses += counts.sum(axis=0)
        src_end = np.cumsum(per_source)
        end = filled + pos
        if end > len(words):  # more synapses than expected
            words = _grown(words, filled, end)
        u, h, t = uw[:pos], hw[:pos], words[filled:end]
        filled = end

        # targets: the uniform (w >> 11) * 2**-53 times the eligible count,
        # floored; only the own column's synapses take npc - 1 and skip the
        # source's own slot
        u >>= np.uint64(11)  # below 2**53: converts to float exactly
        col_base = np.repeat(col_starts, counts.ravel())
        own_at = np.flatnonzero(col_base == c * npc)
        own = (u[own_at] * ((npc - 1) * 2.0**-53)).astype(np.int32)
        own += own >= np.searchsorted(src_end, own_at, side="right")
        np.multiply(u.view(np.int64), npc * 2.0**-53, out=u.view(np.float64))
        np.copyto(t, u.view(np.float64), casting="unsafe")  # floor: >= 0
        t[own_at] = own
        t += col_base

        # delays: a half h gives lo + (h * span) >> 32, as in numpy; a source
        # with a half that numpy would reject takes numpy's own delays
        h *= np.uint64(span)
        low = np.bitwise_and(h, np.uint64(0xFFFFFFFF), out=u)
        h >>= np.uint64(32)
        h += np.uint64(delay_lo)
        if pos and low.min() < reject_below:  # most columns have no such half
            rejected = np.flatnonzero(low < reject_below)
            for i in np.unique(np.searchsorted(src_end, rejected, side="right")).tolist():
                rewind(c * npc + i)
                gen.binomial(eligible[c], probs[c])
                gen.random(per_source[i])
                h[src_end[i] - per_source[i]:src_end[i]] = gen.integers(
                    delay_lo, delay_hi + 1, size=per_source[i])
        h *= np.uint64(n)
        np.add(t, h.view(np.int64), out=t, casting="unsafe")  # fits int32, checked above
    return words, filled, counts_per_source, column_synapses


def _write_columns(build, lo: int, hi: int, capacity: int, out) -> None:
    """Build columns [lo, hi) into a table of ``capacity`` words and write
    them to ``out``: one int64 block, the synapse count, the range's
    ``counts_per_source`` and its ``column_synapses``, then the words."""
    words, filled, counts, column_synapses = build(lo, hi, np.empty(capacity, dtype=np.int32))
    out.write(np.concatenate(([filled], counts, column_synapses)).astype(np.int64))
    out.write(words[:filled])


def check_build_args(spec: Optional[GridSpec], dt_ms: Optional[float] = 1.0,
                     model: Optional[str] = "adaptive_lif"):
    """Refuse what ``build_network`` cannot build, one diagnostic per broken
    rule naming its config key -> the spec's connection kernel (not computed
    for a ring beyond int32 words).  An argument of None skips the rules
    that read it; a dt_ms of None also the kernel, whose size they bound."""
    problems = [] if model is None or model in MODEL_KINDS else [
        f"model.kind: unknown model {model!r}; expected one of {MODEL_KINDS}"]
    stepped = dt_ms is not None and 0 < dt_ms < math.inf
    problems += rule_problems([("run.dt_ms:", dt_ms, dt_ms is None or stepped, "be > 0")])
    if not stepped:
        spec = None
    elif spec is not None:
        n, delay_hi = spec.n_neurons, ms_steps(spec.delay_max_ms, dt_ms)
        problems += rule_problems([  # no delay can be shorter than a step
            (f"grid.delay_min_ms ({spec.delay_min_ms})", None, spec.delay_min_ms >= dt_ms,
             f"be at least one step of run.dt_ms ({dt_ms})")])
        if delay_hi >= 2**15:
            problems.append(f"grid.delay_max_ms / run.dt_ms ({delay_hi}) exceeds the int16 range")
        # every word delay * n + target is below (delay_hi + 1) * n, the cells
        # of a 1-rank delay ring; a rank of a larger run holds fewer neurons
        if (delay_hi + 1) * n >= 2**31:
            problems.append(f"{delay_hi + 1} ring slots x {n} neurons is {(delay_hi + 1) * n} "
                            "synapse words, beyond int32 (2**31); use fewer neurons or a "
                            "shorter grid.delay_max_ms")
            spec = None  # too large for its kernel too
    try:
        kernel = None if spec is None else _connection_kernel(spec)
    except ConfigError as err:
        problems += err.problems
    if problems:
        raise ConfigError(problems)
    return kernel


def build_network(spec: GridSpec, dt_ms: float = 1.0, model: str = "adaptive_lif") -> Network:
    """Build the full network deterministically from spec.seed.

    Every source's synapse list is a pure function of (seed, source id,
    spec), so the result does not depend on build order or partitioning.
    ``check_build_args`` checks the arguments first.  The columns are
    split into contiguous ranges of about equal expected synapse count,
    one per CPU.  This process forks a worker for every range but the
    first, builds the first straight into one table allocated before its
    first draw, and then reads each worker's words from a pipe into the
    table after it.
    """
    p0, probs, eligible = check_build_args(spec, dt_ms, model)
    n, npc = spec.n_neurons, spec.neurons_per_column
    delay_lo, delay_hi = ms_steps(spec.delay_min_ms, dt_ms), ms_steps(spec.delay_max_ms, dt_ms)
    n_cols = spec.n_columns
    expected = npc * (probs * eligible).sum(axis=1)  # synapses from each column
    bounds = forked.balanced_ranges(expected, forked.worker_count(expected.sum(), n_cols))
    build = functools.partial(_build_columns, spec, probs, eligible, delay_lo, delay_hi)

    capacity = _table_capacity(spec)
    ranges = list(zip(bounds[1:-1], bounds[2:]))
    with forked.Children() as workers:
        outputs = []
        for lo, hi in ranges:
            # its share of the table, by expected synapses: for a share f,
            # a margin of 8 * sqrt(f) standard deviations of its own count
            share = math.ceil(capacity * expected[lo:hi].sum() / expected.sum())
            outputs.append(workers.fork(f"network build of columns {lo}..{hi - 1}",
                                        functools.partial(_write_columns, build, lo, hi, share)))
        words, filled, counts, column_synapses = build(
            0, bounds[1], np.empty(capacity, dtype=np.int32))
        counts_per_source = np.empty(n, dtype=np.int64)
        counts_per_source[:len(counts)] = counts
        for (lo, hi), output in zip(ranges, outputs):
            head = np.empty(1 + (hi - lo) * npc + n_cols, dtype=np.int64)
            workers.read(output, head)
            end = filled + int(head[0])
            counts_per_source[lo * npc:hi * npc] = head[1:1 + (hi - lo) * npc]
            column_synapses += head[1 + (hi - lo) * npc:]
            if end > len(words):  # more synapses than expected
                words = _grown(words, filled, end)
            workers.read(output, words[filled:end])
            filled = end

    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts_per_source, out=offsets[1:])
    # a view: the unused tail was never written, so it holds no pages
    return Network(spec=spec, dt_ms=dt_ms, model=model, offsets=offsets,
                   words=words[:filled], column_synapses=column_synapses,
                   n_slots=delay_hi + 1, p0=p0)


def count_equivalent_synapses(net: Network, stim: StimulusSpec) -> int:
    """Internal synapses plus the external input synapses ``stim`` models."""
    return net.total_synapses + net.n_neurons * int(stim.ext_synapses_per_neuron)


def network_stats(net: Network) -> dict:
    """Counts and histograms for inspection."""
    fanouts = net.fanouts
    delay_values, delay_counts = np.unique(net.delay_steps, return_counts=True)
    hist, edges = np.histogram(fanouts, bins=20)
    exc_mask = net.is_excitatory(np.arange(net.n_neurons))
    return {
        "n_neurons": net.n_neurons,
        "n_columns": net.spec.n_columns,
        "neurons_per_column": net.spec.neurons_per_column,
        "n_excitatory": int(exc_mask.sum()),
        "n_inhibitory": int((~exc_mask).sum()),
        "model": net.model,
        "total_synapses": net.total_synapses,
        "mean_fanout": float(fanouts.mean()) if net.n_neurons else 0.0,
        "p0": net.p0,
        "fanout_hist_counts": hist.tolist(),
        "fanout_hist_edges": [float(e) for e in edges],
        "delay_hist_steps": [int(v) for v in delay_values],
        "delay_hist_counts": [int(c) for c in delay_counts],
    }


def format_network_stats(stats: dict) -> str:
    """Structured-text rendering of :func:`network_stats`."""
    lines = [f"network.{key} = {value}" for key, value in stats.items()
             if not isinstance(value, list)]
    for i, (c, lo, hi) in enumerate(
        zip(stats["fanout_hist_counts"], stats["fanout_hist_edges"], stats["fanout_hist_edges"][1:])
    ):
        lines.append(f"network.fanout_hist.{i} = [{lo:.1f}, {hi:.1f}) {c}")
    for steps, count in zip(stats["delay_hist_steps"], stats["delay_hist_counts"]):
        lines.append(f"network.delay_hist.{steps} = {count}")
    return "\n".join(lines) + "\n"

