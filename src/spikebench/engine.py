"""Per-rank simulation loop.

Each step: drain the current delay-ring slot into per-neuron input
currents, add the Poisson external stimulus, integrate every local neuron
in ascending id order, and report the spikes emitted this step.  Spike
delivery (local and remote alike) happens once per step after the
exchange, over the union of that step's spikes sorted by source id, so
every input accumulator sees its contributions in a canonical
(step, source id) order -- this is what makes rasters bit-identical for
any rank count.

Synaptic events are counted exactly: one internal event per synapse
delivered, one external event per Poisson arrival.
"""

import bisect
import hashlib
import itertools
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from . import rng
from .errors import (
    CalibrationError,
    ConfigError,
    ContractViolationError,
    NumericalDivergenceError,
    finite,
    integer,
    require,
)
from .neurons import (
    AdaptiveLifParams,
    izhikevich_preset,
    step_adaptive_lif_batch,
    step_izhikevich_batch,
)

__all__ = [
    "StimulusSpec",
    "DelayRing",
    "RunMetrics",
    "merge_ranks",
    "MAX_STEPS",
    "ms_steps",
    "step_count",
    "Engine",
    "expected_event_count",
    "calibrate_rate",
    "save_raster_binary",
    "load_raster_binary",
    "save_raster_csv",
    "load_raster_csv",
    "raster_checksum",
]

# Poisson lanes (neurons x steps) drawn per stimulus block: large enough that
# the Knuth loop's per-pass numpy overhead is spread over many lanes
_STIMULUS_BLOCK_LANES = 1 << 16

# synapses per block of whole spans that a pass over a table converts at
# once: its temporaries stay a few hundred kB for any network, and stay in
# cache.  Every span walk reads it here, at call time.
_BLOCK_SYNAPSES = 1 << 16


def _source_blocks(offsets):
    """Yield (s0, s1): consecutive runs of the spans
    ``offsets[s]:offsets[s + 1]`` (an array or a list), each ending at the
    span that brings it to ``_BLOCK_SYNAPSES`` synapses (the last may hold
    fewer).  So a block holds fewer than ``_BLOCK_SYNAPSES`` plus its
    longest span."""
    n = len(offsets) - 1
    s0 = 0
    while s0 < n:
        s1 = min(bisect.bisect_left(offsets, offsets[s0] + _BLOCK_SYNAPSES, s0 + 1), n)
        yield s0, s1
        s0 = s1


def _unpack(words: np.ndarray, n: int, out=(None, None)) -> Tuple[np.ndarray, np.ndarray]:
    """(delay, target) of each word ``delay * n + target``, filling the
    arrays ``out`` if given.  Floor division by a scalar runs about five
    times faster than ``%`` or ``np.divmod``."""
    delays = np.floor_divide(words, n, out=out[0])
    targets = np.multiply(delays, n, out=out[1])
    np.subtract(words, targets, out=targets)
    return delays, targets


@dataclass(frozen=True)
class StimulusSpec:
    """External Poisson stimulus: per-neuron equivalent synapse count,
    per-synapse rate, and the efficacy of one arrival."""

    ext_synapses_per_neuron: int = 594
    ext_rate_hz: float = 3.0
    ext_weight: float = 0.5
    seed: int = 7

    def __post_init__(self):
        n, rate = self.ext_synapses_per_neuron, self.ext_rate_hz
        require([integer("ext_synapses_per_neuron", n, n >= 0, "be >= 0"),
                 ("ext_rate_hz", rate, 0 <= rate < math.inf, "be >= 0"),
                 *finite(self, "ext_weight")],
                rng.seed_problems(self.seed))

    def events_per_step(self, dt_ms: float) -> float:
        """Poisson mean per neuron per step."""
        return self.ext_synapses_per_neuron * self.ext_rate_hz * dt_ms / 1000.0


class DelayRing:
    """Per-future-step input accumulators, one per local neuron per slot.

    Row ``(cursor + d) % n_slots`` of ``buf`` holds the input due ``d``
    steps from now; the ring length is the max delay in steps + 1.  The
    current slot is drained exactly once per step and zeroed.
    """

    def __init__(self, n_slots: int, n_local: int):
        self.n_slots = n_slots
        self.n_local = n_local
        self.buf = np.zeros((n_slots, n_local), dtype=np.float64)
        self.cursor = 0

    def drain(self) -> np.ndarray:
        """Return and zero the current slot's accumulators."""
        row = self.buf[self.cursor].copy()
        self.buf[self.cursor].fill(0.0)
        return row

    def accumulate(self, words: np.ndarray, weights: np.ndarray,
                   bins: Optional[np.ndarray] = None,
                   more: bool = False) -> Optional[np.ndarray]:
        """Add ``weights[i]`` at delay ``words[i] // n_local`` (slot
        (cursor + delay) mod length), target ``words[i] % n_local``.

        The weights are binned by the cursor-relative word ``delay *
        n_local + target`` itself, and the binned rows are added into the
        ring as two rotated slices: delay rows ``[0, S - c)`` land on slots
        ``[c, S)`` and rows ``[S - c, S)`` wrap onto slots ``[0, c)``.
        For a fixed cursor, (delay, target) and (slot, target) name the
        same cell, so each cell's bin sums the same weights in input order
        and receives one ``buf + bin`` addition, exactly as binning by
        absolute slot would.  Callers control the float addition order by
        ordering their inputs.

        A step's weights may come in several calls: a call with ``more``
        returns the step's bins instead of adding them, and the caller
        passes them to the next call, which continues them (``np.bincount``
        opens the bins, ``np.add.at``, which also adds in input order,
        continues them).  Only the call without ``more`` adds them into the
        ring, so a step split into calls sums every bin from +0.0 in input
        order and adds it once, bit for bit as one call with all of its
        words would.
        """
        n_slots, n_local, c = self.n_slots, self.n_local, self.cursor
        size = n_slots * n_local
        if len(words):
            if int(words.min()) < n_local:
                raise ContractViolationError("synaptic delay below the 1-step minimum")
            if bins is None:
                bins = np.bincount(words, weights=weights, minlength=size)
                if len(bins) > size:
                    raise ContractViolationError("synaptic delay beyond the ring length")
            elif int(words.max()) >= size:
                raise ContractViolationError("synaptic delay beyond the ring length")
            else:
                np.add.at(bins, words, weights)
        if more or bins is None:
            return bins
        acc = bins.reshape(n_slots, n_local)
        self.buf[c:] += acc[:n_slots - c]
        self.buf[:c] += acc[n_slots - c:]
        return None

    def advance(self) -> None:
        self.cursor = (self.cursor + 1) % self.n_slots


# frames and rasters store a step as a u32
MAX_STEPS = 2**32


def ms_steps(ms: float, dt_ms: float) -> int:
    """Steps of ``dt_ms`` in ``ms`` milliseconds, half steps rounded up:
    the one rule for durations and delays.  A count of ``MAX_STEPS`` or
    more reads ``MAX_STEPS``, which every caller's rule refuses, so a ratio
    too large for an int (inf, at a tiny ``dt_ms``) is refused too."""
    steps = ms / dt_ms + 0.5
    return math.floor(steps) if steps < MAX_STEPS else MAX_STEPS


def step_count(seconds: float, dt_ms: float) -> int:
    """Steps of ``dt_ms`` that a run of ``seconds`` takes."""
    return ms_steps(seconds * 1000.0, dt_ms)


def _shared(values: list):
    """The run's value, which every rank must share."""
    if any(v != values[0] for v in values):
        raise ContractViolationError(f"ranks disagree on a run-wide value: {values}")
    return values[0]


@dataclass
class RunMetrics:
    """Counters for one run or one rank of a run.

    Each counter is one ``rows`` entry and merges over ranks by its
    ``merge`` rule (``merge_ranks``): wall time is the slowest rank's,
    simulated time the run's, and every other counter adds up.
    ``setup_seconds`` times the setup by phase (``build``, ``partition``,
    ``stdp_init``, ``link``).  It belongs to the process that ran the
    setup: the driver fills it on the run's record, and no merge sums it.
    """

    n_neurons: int
    simulated_seconds: float = field(metadata={"merge": _shared})  # the steps run
    wall_seconds: float = field(metadata={"merge": max})  # the step loop
    total_spikes: int
    internal_synaptic_events: int
    external_synaptic_events: int
    table_bytes: int  # the rank's stored synapse and STDP tables
    setup_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def mean_rate_hz(self) -> float:
        if self.n_neurons == 0 or self.simulated_seconds == 0:
            return 0.0
        return self.total_spikes / (self.n_neurons * self.simulated_seconds)

    @property
    def total_events(self) -> int:
        return self.internal_synaptic_events + self.external_synaptic_events

    @property
    def events_per_second(self) -> float:
        """Throughput: synaptic events processed per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.total_events / self.wall_seconds

    @classmethod
    def _counters(cls):
        return [f for f in fields(cls) if f.name != "setup_seconds"]

    def rows(self, prefix: str) -> dict:
        """``{f"{prefix}.{name}": value}`` for every counter, each setup
        phase (``<phase>_seconds``) and the derived figures.  Written with
        ``str``, a float is its shortest repr, which parses back exactly
        (never ``repr``, which numpy 2 gives as ``np.float64(...)``)."""
        values = {f.name: getattr(self, f.name) for f in self._counters()}
        values.update((f"{phase}_seconds", s) for phase, s in self.setup_seconds.items())
        values.update(total_events=self.total_events, mean_rate_hz=self.mean_rate_hz,
                      events_per_second=self.events_per_second)
        return {f"{prefix}.{name}": value for name, value in values.items()}

    @classmethod
    def from_rows(cls, doc: dict, prefix: str) -> "RunMetrics":
        """The counters that ``rows(prefix)`` wrote into ``doc`` (text
        values); one diagnostic per counter missing or malformed."""
        values, problems = {}, []
        for f in cls._counters():
            key = f"{prefix}.{f.name}"
            try:
                values[f.name] = f.type(doc[key])
            except (KeyError, ValueError):
                problems.append(f"{key}: expected {f.type.__name__}, got {doc.get(key)!r}")
        if problems:
            raise ConfigError(problems)
        return cls(**values)


def merge_ranks(results) -> Tuple[RunMetrics, Tuple[np.ndarray, np.ndarray]]:
    """Merge rank results ``[(RunMetrics, (steps, gids)), ...]`` into the
    run's: each counter by its merge rule (a sum unless it names another),
    and the rasters joined once and sorted by (step, id)."""
    metrics, rasters = zip(*results)
    merged = RunMetrics(**{
        f.name: f.metadata.get("merge", sum)([getattr(m, f.name) for m in metrics])
        for f in RunMetrics._counters()})
    steps, gids = (np.concatenate(column) for column in zip(*rasters))
    order = np.lexsort((gids, steps))
    return merged, (steps[order], gids[order])


class Engine:
    """Simulation state for one rank.

    ``part`` supplies the rank's view of the network (see
    distributed.RankPartition): sorted local ids, per-source incoming
    synapse lists in CSR form, one packed ``delay * n_local + target``
    word per synapse, and the ring length.  The caller drives the loop
    over ``t in range(n_steps)``:

        spikes = engine.step(t)
        ... exchange spikes ...
        engine.deliver(t, merged_sorted_sources)
        engine.advance()
    """

    def __init__(self, part, stim: StimulusSpec, dt_ms: float = 1.0,
                 lif_params: Optional[AdaptiveLifParams] = None,
                 stdp=None, *, n_steps: int):
        self.part = part
        self.stim = stim
        self.dt_ms = dt_ms
        self.model = part.model
        self.local_gids = part.local_gids
        self.n_local = len(part.local_gids)
        self.ring = DelayRing(part.n_slots, self.n_local)
        self.stdp = stdp
        self._lam = stim.events_per_step(dt_ms)
        self.n_steps = n_steps
        # the stimulus is keyed by (neuron, step), so a block of future steps
        # is drawn in one call, bit for bit, and never past the last step;
        # the block is allocated here, before the loop, and refilled in place
        self._block_steps = max(1, _STIMULUS_BLOCK_LANES // max(1, self.n_local))
        self._block = np.zeros((self._block_steps, self.n_local), dtype=np.int64)
        self._block_t0 = -1
        # delivery scratch, reused by every block of every step (fewer than
        # _BLOCK_SYNAPSES synapses plus one source's span): the joined words
        # (int64, so bincount takes them without a copy)
        longest = int(np.diff(part.in_offsets).max(initial=0))
        self._words = np.empty(_BLOCK_SYNAPSES + longest, dtype=np.int64)

        if self.model == "izhikevich":
            exc = part.local_excitatory
            rs, fs = izhikevich_preset("rs"), izhikevich_preset("fs")
            self._a = np.where(exc, rs.a, fs.a)
            self._b = np.where(exc, rs.b, fs.b)
            self._c = np.where(exc, rs.c, fs.c)
            self._d = np.where(exc, rs.d, fs.d)
            self._v_peak = np.where(exc, rs.v_peak, fs.v_peak)
            self.v = self._c.copy()
            self.w = self._b * self.v
            self.refr = None
        else:  # adaptive_lif: build_network refuses any other model
            self.lif = lif_params if lif_params is not None else AdaptiveLifParams()
            self.v = np.full(self.n_local, self.lif.v_rest, dtype=np.float64)
            self.w = np.zeros(self.n_local, dtype=np.float64)
            self.refr = np.zeros(self.n_local, dtype=np.float64)

        self.total_spikes = 0
        self.internal_events = 0
        self.external_events = 0
        self._raster_steps = [np.empty(0, dtype=np.uint32)]  # empty first: a raster of none
        self._raster_gids = [np.empty(0, dtype=np.uint32)]
        self._last_spiked_local = np.empty(0, dtype=np.int64)

    def step(self, t: int) -> np.ndarray:
        """Integrate one step; returns this step's spiking global ids
        (ascending).  Spikes are not delivered here -- see deliver()."""
        if not 0 <= t < self.n_steps:
            raise ContractViolationError(f"step {t} outside the run's [0, {self.n_steps})")
        i_syn = self.ring.drain()
        if self._lam > 0.0:
            t0 = t - t % self._block_steps
            if t0 != self._block_t0:
                steps = np.arange(t0, min(t0 + self._block_steps, self.n_steps))
                self._block[:len(steps)] = rng.poisson_keyed_batch(
                    self._lam, self.stim.seed, self.local_gids, steps[:, None])
                self._block_t0 = t0
            counts = self._block[t - t0]
            with np.errstate(over="ignore"):
                i_syn = i_syn + self.stim.ext_weight * counts
            self.external_events += int(counts.sum())

        if self.model == "izhikevich":
            v2, w2, spiked, diverged = step_izhikevich_batch(
                self.v, self.w, self._a, self._b, self._c, self._d, self._v_peak,
                i_syn, self.dt_ms,
            )
            refr2 = None
        else:
            v2, w2, refr2, spiked, diverged = step_adaptive_lif_batch(
                self.v, self.w, self.refr, self.lif, i_syn, self.dt_ms,
            )
        if diverged.any():
            gid = int(self.local_gids[int(np.flatnonzero(diverged)[0])])
            raise NumericalDivergenceError(
                f"neuron {gid} diverged at step {t}", neuron=gid
            )
        self.v, self.w = v2, w2
        if refr2 is not None:
            self.refr = refr2

        spiked_local = np.flatnonzero(spiked)
        self._last_spiked_local = spiked_local
        n = len(spiked_local)
        self.total_spikes += n
        spiked_gids = self.local_gids[spiked_local]
        if n:
            self._raster_steps.append(np.full(n, t, dtype=np.uint32))
            self._raster_gids.append(spiked_gids.astype(np.uint32))
        return spiked_gids

    def deliver(self, t: int, sources_sorted: np.ndarray) -> None:
        """Expand this step's spikes (ascending source id, local and remote
        merged) through the rank's incoming synapse lists.

        The spans are delivered in blocks of whole spans (``_source_blocks``
        over their running sum), each joined into the engine's scratch and
        binned into the step's bins, which the first block opens and which
        reach the ring once, after the last block; so no temporary grows
        with a burst step."""
        part = self.part
        starts = part.in_offsets[sources_sorted]
        lengths = part.in_offsets[sources_sorted + 1] - starts
        counts = lengths.tolist()
        ends = list(itertools.accumulate(counts, initial=0))
        if ends[-1]:
            spans = list(zip(starts.tolist(), counts))
            bins = None
            for i, j in _source_blocks(ends):
                words = self._words[:ends[j] - ends[i]]
                # each source's synapses are one contiguous span of the table;
                # joining the spans in source order copies each word once
                np.concatenate([part.in_words[a:a + k] for a, k in spans[i:j]], out=words)
                # np.repeat has no out=; a Python loop filling a buffer span
                # by span held the GIL and slowed thread ranks
                sources, lens = sources_sorted[i:j], lengths[i:j]
                w = np.repeat(part.source_weights[sources], lens)
                if self.stdp is not None:  # only plastic synapses have weights of their own
                    self.stdp.overlay(w, sources, lens)
                bins = self.ring.accumulate(words, w, bins, more=j < len(counts))
            self.internal_events += ends[-1]
        if self.stdp is not None:
            self.stdp.process_step(sources_sorted, self._last_spiked_local)

    def advance(self) -> None:
        self.ring.advance()

    def raster(self) -> Tuple[np.ndarray, np.ndarray]:
        return np.concatenate(self._raster_steps), np.concatenate(self._raster_gids)

    def metrics(self, wall_seconds: float) -> RunMetrics:
        """The rank's counters, over the steps the run takes."""
        return RunMetrics(
            n_neurons=self.n_local,
            simulated_seconds=self.n_steps * self.dt_ms / 1000.0,
            wall_seconds=wall_seconds,
            total_spikes=self.total_spikes,
            internal_synaptic_events=self.internal_events,
            external_synaptic_events=self.external_events,
            table_bytes=self.part.stored_bytes() + (
                0 if self.stdp is None else self.stdp.stored_bytes()),
        )


def expected_event_count(neurons: float, seconds: float, mean_rate_hz: float,
                         fanout: float, ext_syn: float, ext_rate_hz: float) -> float:
    """Expected total synaptic events:
    neurons * seconds * (rate * fanout + ext_rate * ext_synapses)."""
    require((name, value, 0 <= value < math.inf, "be >= 0") for name, value in (
        ("neurons", neurons), ("seconds", seconds), ("mean_rate_hz", mean_rate_hz),
        ("fanout", fanout), ("ext_syn", ext_syn), ("ext_rate_hz", ext_rate_hz)))
    return neurons * seconds * (mean_rate_hz * fanout + ext_rate_hz * ext_syn)


def calibrate_rate(probe: Callable[[float], float], target_hz: float = 5.1,
                   band_hz: float = 1.5, initial_scale: float = 1.0,
                   max_iters: int = 32) -> Tuple[float, float]:
    """Find an excitatory weight scale whose probe rate lands in
    [target - band, target + band] by bracket expansion plus bisection.

    ``probe(scale)`` runs a short, fully seeded simulation and returns its
    mean rate; identical seeds make the search deterministic.  Raises
    CalibrationError (with the last achieved rate) if the budget of
    ``max_iters`` probes is exhausted.
    """
    lo_band, hi_band = target_hz - band_hz, target_hz + band_hz
    used = 0
    last_rate = None

    def run(scale):
        nonlocal used, last_rate
        if used >= max_iters:
            raise CalibrationError(
                f"calibration exhausted {max_iters} probes; last rate {last_rate:.3f} Hz",
                achieved_hz=last_rate,
            )
        used += 1
        last_rate = probe(scale)
        return last_rate

    rate = run(initial_scale)
    if lo_band <= rate <= hi_band:
        return initial_scale, rate

    # bracket: double the scale while the rate stays below the target, or
    # halve it while the rate stays above
    up = rate < target_hz
    factor = 2.0 if up else 0.5
    near, far = initial_scale, initial_scale * factor
    if up and initial_scale <= 0:  # doubling would stay at 0
        far = 1.0
    while True:
        rate = run(far)
        if lo_band <= rate <= hi_band:
            return far, rate
        if not (rate < target_hz if up else rate > target_hz):
            break  # the target lies between near and far
        near, far = far, far * factor
    lo, hi = (near, far) if up else (far, near)

    while True:
        mid = 0.5 * (lo + hi)
        rate = run(mid)
        if lo_band <= rate <= hi_band:
            return mid, rate
        if rate < target_hz:
            lo = mid
        else:
            hi = mid


def _raster_bytes(steps: np.ndarray, gids: np.ndarray) -> bytes:
    """The raster as a stream of (step u32, neuron u32) pairs, little-endian."""
    pairs = np.empty((len(steps), 2), dtype="<u4")
    pairs[:, 0] = steps
    pairs[:, 1] = gids
    return pairs.tobytes()


def save_raster_binary(path, steps: np.ndarray, gids: np.ndarray) -> None:
    """Write the raster as ``_raster_bytes`` pairs, in its record order."""
    with open(path, "wb") as fh:
        fh.write(_raster_bytes(steps, gids))


def load_raster_binary(path) -> Tuple[np.ndarray, np.ndarray]:
    raw = np.fromfile(path, dtype="<u4")
    if raw.size % 2:
        raise ConfigError([f"raster file {path} has an odd number of u32 words"])
    pairs = raw.reshape(-1, 2)
    return pairs[:, 0].astype(np.uint32), pairs[:, 1].astype(np.uint32)


def save_raster_csv(path, steps: np.ndarray, gids: np.ndarray,
                    provenance: Optional[dict] = None) -> None:
    """CSV raster with `step,neuron` header; provenance keys become
    leading `#` comments."""
    with open(path, "w") as fh:
        for key, value in (provenance or {}).items():
            fh.write(f"# {key} = {value}\n")
        fh.write("step,neuron\n")
        fh.writelines(f"{s},{g}\n" for s, g in zip(steps.tolist(), gids.tolist()))


def load_raster_csv(path) -> Tuple[np.ndarray, np.ndarray]:
    steps, gids = [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("step"):
                continue
            s, g = line.split(",")
            steps.append(int(s))
            gids.append(int(g))
    return np.asarray(steps, dtype=np.uint32), np.asarray(gids, dtype=np.uint32)


def raster_checksum(steps: np.ndarray, gids: np.ndarray) -> str:
    """SHA-256 over the canonical little-endian encoding sorted by
    (step, neuron); identical rasters give identical digests regardless
    of record order."""
    order = np.lexsort((gids, steps))
    return hashlib.sha256(_raster_bytes(np.asarray(steps)[order],
                                        np.asarray(gids)[order])).hexdigest()
