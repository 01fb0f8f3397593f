"""Reproducible random number generation.

Two generators, both counter-based so that any draw is a pure function of
its key and never depends on construction order or parallel scheduling:

* Network construction uses numpy's Philox4x64-10 bit generator keyed by
  ``(seed, source neuron id)`` -- one independent stream per source neuron,
  so a network can be built source-by-source in any order (or in parallel)
  and come out bit-identical.

* The per-step external stimulus uses a splitmix64-style keyed hash over
  ``(seed, neuron id, step, draw index)``.  This admits an O(1) scalar
  query for a single (neuron, step) pair and vectorizes over neurons, and
  it is what makes the Poisson stimulus independent of how the network is
  partitioned over ranks.

The hash chain is fixed for reproducibility: starting from the seed, each
key word w is absorbed as ``x = mix64(x + GOLDEN + w * WORD_MULT)`` where
``mix64`` is the splitmix64 finalizer.  Draw k of a keyed stream is
``mix64(base + (k+1) * GOLDEN)``.
"""

import math
from typing import Callable, Optional

import numpy as np

from .errors import integer, rule_problems

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_WORD_MULT = 0xD1342543DE82EF95
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

# 1/2^53, for mapping the top 53 bits of a u64 to [0, 1)
_U53 = 1.0 / 9007199254740992.0


def seed_problems(seed: int) -> list:
    """A seed is one 64-bit word; a wider one would key another's streams."""
    return rule_problems([integer("seed", seed, 0 <= seed < 2**64, "fit in 64 bits")])


def mix64(x: int) -> int:
    """Splitmix64 finalizer over a Python int (mod 2^64)."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * _M1) & _MASK
    x = ((x ^ (x >> 27)) * _M2) & _MASK
    return x ^ (x >> 31)


def hash_words(seed: int, *words: int) -> int:
    """Hash a key tuple to a 64-bit base value."""
    x = seed & _MASK
    for w in words:
        x = mix64((x + _GOLDEN + (w & _MASK) * _WORD_MULT) & _MASK)
    return x


def stream_u64(base: int, k: int) -> int:
    """Draw k (0-based) of the keyed stream rooted at ``base``."""
    return mix64((base + ((k + 1) * _GOLDEN & _MASK)) & _MASK)


def unit_from_u64(x: int) -> float:
    """Map a u64 to a float64 uniform in [0, 1)."""
    return (x >> 11) * _U53


def _mix64_arr(x: np.ndarray, t: Optional[np.ndarray] = None) -> np.ndarray:
    """Splitmix64 finalizer over a uint64 array, in place; returns ``x``.
    ``t``, a uint64 array of x's shape, holds the shifts if given."""
    t = np.empty_like(x) if t is None else t
    x ^= np.right_shift(x, np.uint64(30), out=t)
    x *= np.uint64(_M1)
    x ^= np.right_shift(x, np.uint64(27), out=t)
    x *= np.uint64(_M2)
    x ^= np.right_shift(x, np.uint64(31), out=t)
    return x


def hash_words_arr(seed: int, words: list) -> np.ndarray:
    """Vector form of :func:`hash_words`; each element of ``words`` may be
    a scalar or an array, broadcast together."""
    shape = np.broadcast_shapes(*(np.shape(w) for w in words))
    x = np.full(shape, seed & _MASK, dtype=np.uint64)
    for w in words:
        x += np.uint64(_GOLDEN)
        x += np.asarray(w, dtype=np.uint64) * np.uint64(_WORD_MULT)
        _mix64_arr(x)
    return x


def poisson_keyed(lam: float, seed: int, stream: int, step: int) -> int:
    """One Poisson(lam) draw keyed by (seed, stream, step).

    Knuth multiplication method over the keyed uniform stream; the scalar
    and vector paths perform identical float64 operations, so they match
    bit-for-bit.
    """
    if lam <= 0.0:
        return 0
    base = hash_words(seed, stream, step)
    limit = math.exp(-lam)
    p = 1.0
    k = 0
    while True:
        p = p * unit_from_u64(stream_u64(base, k))
        k += 1
        if not p > limit:
            return k - 1


def poisson_keyed_batch(lam: float, seed: int, streams: np.ndarray, step) -> np.ndarray:
    """Poisson(lam) draws keyed by ``streams`` and ``step``, which broadcast
    together: a ``(T, 1)`` array of steps against a vector of streams
    draws T steps at once, one row per step.

    Bit-identical to calling :func:`poisson_keyed` per element.  The
    Knuth loop runs over a shrinking active set: each pass draws uniform k
    only for the lanes still running, multiplies it into their running
    products, and compacts ``base``, ``p`` and the lane index down to the
    lanes whose product is still above ``exp(-lam)``.  A lane therefore
    multiplies the same uniforms, in the same order, as the scalar loop,
    and stops at the same pass; the work is about E[N] + 1 passes over the
    lanes instead of max(N) + 1 passes over the full array.
    """
    shape = np.broadcast_shapes(np.shape(streams), np.shape(step))
    if lam <= 0.0 or math.prod(shape) == 0:
        return np.zeros(shape, dtype=np.int64)
    base = hash_words_arr(seed, [streams, step]).ravel()
    n = base.size
    limit = math.exp(-lam)
    counts = np.zeros(n, dtype=np.int64)
    # scratch allocated once and refilled in place: the active lanes are a
    # prefix, and each compaction moves them into the prefix of the spare
    # array of their pair, so no pass allocates more than the kept index
    x = np.empty(n, dtype=np.uint64)
    p, q = np.ones(n, dtype=np.float64), np.empty(n, dtype=np.float64)
    lane, spare = np.arange(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    alive = np.empty(n, dtype=bool)
    m, k = n, 0
    while m:
        xs, ps, qs = x[:m], p[:m], q[:m]
        np.add(base[:m], np.uint64((k + 1) * _GOLDEN & _MASK), out=xs)
        _mix64_arr(xs, qs.view(np.uint64))
        xs >>= np.uint64(11)
        np.multiply(xs, _U53, out=qs)  # the uniform, exact: x >> 11 < 2**53
        ps *= qs
        k += 1
        np.greater(ps, limit, out=alive[:m])
        keep = np.flatnonzero(alive[:m])
        if keep.size < m:
            # mode "clip" writes into ``out`` directly ("raise" buffers it);
            # every index is in range
            np.take(base[:m], keep, out=x[:keep.size], mode="clip")
            np.take(ps, keep, out=q[:keep.size], mode="clip")
            np.take(lane[:m], keep, out=spare[:keep.size], mode="clip")
            base, x, p, q, lane, spare = x, base, q, p, spare, lane
            m = keep.size
        counts[lane[:m]] = k
    return counts.reshape(shape)


def philox_generator(seed: int, stream: int) -> np.random.Generator:
    """Philox4x64-10 generator keyed by (seed, stream)."""
    key = np.array([seed & _MASK, stream & _MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def philox_rewinder(gen: np.random.Generator, seed: int) -> Callable[[int], None]:
    """Return ``rewind(stream)``: it puts ``gen`` (a Generator over Philox)
    where a fresh :func:`philox_generator` for (seed, stream) starts, without
    its OS-entropy seeding, by reassigning one state dict with a new key."""
    key = [seed & _MASK, 0]
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,  # buffer used up: the next draw computes block 0
        "has_uint32": 0,
        "uinteger": 0,
    }
    bitgen = gen.bit_generator

    def rewind(stream: int) -> None:
        key[1] = stream & _MASK
        bitgen.state = state

    return rewind
