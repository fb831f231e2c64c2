"""Counter-based noise: reference outputs, path equality, distributions."""

import numpy as np
import pytest

from bezier_dp import (
    DATA_CHANNEL,
    DomainError,
    NoiseRows,
    NoiseSource,
    ReplayExhaustedError,
    derive_seed,
    derive_seeds,
    derive_substream,
    laplace_rows,
    uniforms01_rows,
)

# -- pure-Python SplitMix64 oracle ---------------------------------------------
#
# An independent, integer-only implementation of the generator and of the
# substream derivation; the library's block path must match it bit for bit.

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _oracle_bits(seed: int, count: int) -> list[int]:
    """The first `count` 64-bit outputs of the stream seeded `seed`."""
    s = seed & _MASK64
    return [_mix64(s + i * _GAMMA) for i in range(1, count + 1)]


def _oracle_uniforms(seed: int, count: int) -> np.ndarray:
    return np.array([((b >> 11) + 0.5) * 2.0**-53 - 0.5 for b in _oracle_bits(seed, count)])


def _oracle_seed(base_seed: int, trial_index: int, channel: int) -> int:
    h = _mix64((base_seed + _GAMMA) & _MASK64)
    h = _mix64(h ^ (((trial_index + 1) * _GAMMA) & _MASK64))
    return _mix64(h ^ (((channel + 1) * 0xC2B2AE3D27D4EB4F) & _MASK64))


# Published SplitMix64 output sequence for seed 1234567.
_REFERENCE_SEED = 1234567
_REFERENCE_BITS = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]

# Frozen regression values for this package's streams (seed 42).
_BITS_42 = [13679457532755275413, 2949826092126892291, 5139283748462763858]
_LAPLACE_42 = [
    0.6599634176840695,
    -1.1399944845911227,
    -0.58482698017467,
    -0.37341218617745975,
    -2.5762283447209717,
]


def test_reference_vector():
    assert _oracle_bits(_REFERENCE_SEED, 5) == _REFERENCE_BITS
    got = NoiseSource.seeded(_REFERENCE_SEED).uniforms(5)
    assert np.array_equal(got, _oracle_uniforms(_REFERENCE_SEED, 5))


def test_regression_seed_42():
    assert _oracle_bits(42, 3) == _BITS_42
    assert np.array_equal(NoiseSource.seeded(42).uniforms(3), _oracle_uniforms(42, 3))
    got = NoiseSource.seeded(42).laplace_vector(1.0, 5)
    assert np.array_equal(got, np.array(_LAPLACE_42))


def test_streams_match_oracle_at_every_start():
    for seed in (0, 7, 2**63 + 5, _MASK64):
        want = _oracle_uniforms(seed, 40)
        src = NoiseSource.seeded(seed)
        got = np.concatenate([src.uniforms(c) for c in (1, 0, 3, 8, 9, 19)])
        assert np.array_equal(got, want), seed
        assert np.array_equal(uniforms01_rows([seed, seed], 40), np.stack([want, want]) + 0.5)
        one_draw = [NoiseSource.seeded(seed).laplace(1.0)]
        u = want[0]
        assert one_draw == [float(-np.sign(u) * np.log1p(-2.0 * abs(u)))]


def test_scalar_and_vector_paths_identical():
    a = NoiseSource.seeded(9001)
    b = NoiseSource.seeded(9001)
    one_by_one = np.array([a.laplace(0.7) for _ in range(64)])
    batched = b.laplace_vector(0.7, 64)
    assert np.array_equal(one_by_one, batched)


def test_batch_split_invariance():
    a = NoiseSource.seeded(5150)
    b = NoiseSource.seeded(5150)
    whole = a.laplace_vector(2.0, 40)
    parts = np.concatenate(
        [b.laplace_vector(2.0, 3), b.laplace_vector(2.0, 8), b.laplace_vector(2.0, 29)]
    )
    assert np.array_equal(whole, parts)


def test_draw_counter():
    src = NoiseSource.seeded(1)
    assert src.draws == 0
    src.laplace(1.0)
    src.laplace_vector(1.0, 10)
    assert src.draws == 11


def test_uniform_range_strict():
    u = NoiseSource.seeded(31337).uniforms(200_000)
    assert u.min() > -0.5
    assert u.max() < 0.5
    assert abs(float(u.mean())) < 0.005


def test_uniforms01_range():
    u = NoiseSource.seeded(4).uniforms01(10_000)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_laplace_transform_formula():
    # x = -b * sign(u) * log1p(-2|u|) applied to this stream's own uniforms
    scale = 1.7
    u = NoiseSource.seeded(2718).uniforms(1000)
    expect = -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))
    got = NoiseSource.seeded(2718).laplace_vector(scale, 1000)
    assert np.array_equal(got, expect)


def test_laplace_moments():
    scale = 1.0
    x = NoiseSource.seeded(77).laplace_vector(scale, 1_000_000)
    assert abs(float(x.mean())) < 0.005
    assert float(x.var()) == pytest.approx(2.0 * scale**2, rel=0.02)
    assert 0.495 < float(np.mean(x > 0)) < 0.505
    # scale parameter acts linearly on the draws
    y = NoiseSource.seeded(77).laplace_vector(3.0, 100)
    assert np.allclose(y, 3.0 * NoiseSource.seeded(77).laplace_vector(1.0, 100))


def test_zero_source():
    src = NoiseSource.zero()
    assert src.laplace(5.0) == 0.0
    assert np.array_equal(src.laplace_vector(2.0, 7), np.zeros(7))
    assert src.draws == 8
    with pytest.raises(DomainError):
        src.uniforms(3)


def test_replay_source():
    src = NoiseSource.replay([1.5, -2.0, 0.25])
    assert src.laplace(1.0) == 1.5
    assert np.array_equal(src.laplace_vector(1.0, 2), np.array([-2.0, 0.25]))
    with pytest.raises(ReplayExhaustedError):
        src.laplace(1.0)


def test_replay_partial_exhaustion():
    src = NoiseSource.replay([1.0, 2.0])
    with pytest.raises(ReplayExhaustedError):
        src.laplace_vector(1.0, 3)


def test_scale_validation():
    rows = NoiseRows(np.ones((2, 3)))
    for src in (NoiseSource.seeded(0), NoiseSource.zero(), NoiseSource.replay([1.0]), rows):
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(DomainError, match="finite and > 0"):
                src.laplace_vector(bad, 1)
            if not isinstance(src, NoiseRows):
                with pytest.raises(DomainError):
                    src.laplace(bad)
        assert src.draws == 0


def test_counts_and_trial_indices_validation():
    rows = NoiseRows(np.ones((2, 3)))
    for src in (NoiseSource.seeded(1), NoiseSource.zero(), NoiseSource.replay([1.0]), rows):
        for bad in (9.5, -1, "2", None):
            with pytest.raises(DomainError, match="integer >= 0"):
                src.laplace_vector(1.0, bad)
        assert src.draws == 0
        assert src.laplace_vector(1.0, np.int64(1)).shape[-1] == 1
    with pytest.raises(DomainError):
        NoiseSource.seeded(1).uniforms(2.0)
    with pytest.raises(DomainError):
        uniforms01_rows([1, 2], 2.5)
    # trial indices live in [0, 2**64): 2**64 must not wrap onto trial 0
    last = 2**64 - 1
    assert derive_seed(0, last, 0) == _oracle_seed(0, last, 0)
    assert derive_seed(0, np.uint64(last), 3) == _oracle_seed(0, last, 3)
    for bad in (2**64, -1, 0.0, True, "1"):
        with pytest.raises(DomainError, match=r"\[0, 2\*\*64\)"):
            derive_seed(0, bad, 0)
    with pytest.raises(DomainError):
        derive_seeds(0, [0, 2**64], 0)


def test_invalid_kind():
    with pytest.raises(DomainError):
        NoiseSource("fancy")


def test_derive_seed_regression_and_validation():
    assert derive_seed(0, 0, 0) == 3113959015092365217
    assert derive_seed(123, 5, 7) == 5044855880228675340
    with pytest.raises(DomainError):
        derive_seed(0, -1, 0)
    with pytest.raises(DomainError):
        derive_seed(0, 0, -2)


def test_derive_seeds_matches_scalar_reference():
    trials = np.array([0, 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64)
    for base in (0, -1, 2**64 + 5):
        for channel in (0, 12, DATA_CHANNEL):
            got = derive_seeds(base, trials, channel)
            assert got.dtype == np.uint64
            want = [_oracle_seed(base, int(t), channel) for t in trials]
            assert [int(v) for v in got] == want, (base, channel)
            assert [derive_seed(base, int(t), channel) for t in trials] == want
    assert derive_seeds(3, np.arange(0), 1).shape == (0,)
    for bad_trials, bad_channel in (([-1], 0), ([0.5], 0), ([0], -1)):
        with pytest.raises(DomainError):
            derive_seeds(0, bad_trials, bad_channel)


def test_derive_seeds_over_a_channel_array():
    trials = np.array([[0, 7], [2**63, 2**64 - 1]], dtype=np.uint64)
    channels = [0, 5, 12, DATA_CHANNEL]
    for base in (0, 2**64 + 5):
        for chans in (channels, np.array(channels + [2**64 - 1], dtype=np.uint64), range(3)):
            got = derive_seeds(base, trials, chans)
            assert got.dtype == np.uint64 and got.shape == (2, 2, len(chans))
            for c, channel in enumerate(chans):
                assert np.array_equal(got[..., c], derive_seeds(base, trials, int(channel)))
    assert derive_seeds(1, 9, [3, 4]).tolist() == [derive_seed(1, 9, 3), derive_seed(1, 9, 4)]
    assert derive_seeds(1, np.arange(0), [3, 4]).shape == (0, 2)
    assert derive_seeds(1, [4, 5], np.arange(0)).shape == (2, 0)
    for bad in ([0, -1], [1.0], np.array([0.5]), [2**64], ["1"]):
        with pytest.raises(DomainError, match="channels"):
            derive_seeds(0, [0, 1], bad)


def test_laplace_rows_match_per_stream_draws():
    seeds = derive_seeds(17, np.arange(50), 3)
    unit = laplace_rows(seeds, 9)
    assert unit.shape == (50, 9)
    for i, seed in enumerate(seeds):
        assert np.array_equal(unit[i], NoiseSource.seeded(int(seed)).laplace_vector(1.0, 9))
        # scaling the unit row reproduces a scaled draw bit for bit
        scaled = NoiseSource.seeded(int(seed)).laplace_vector(0.7, 9)
        assert np.array_equal(unit[i] * 0.7, scaled)
    # one draw at a time agrees too
    short = laplace_rows(seeds[:5], 2)
    for i, seed in enumerate(seeds[:5]):
        src = NoiseSource.seeded(int(seed))
        assert short[i].tolist() == [src.laplace(1.0), src.laplace(1.0)]


def test_uniforms01_rows_match_per_stream_draws():
    seeds = derive_seeds(5, np.arange(30), 0)
    for count in (0, 2, 9, 40):
        rows = uniforms01_rows(seeds, count)
        assert rows.shape == (30, count)
        for i, seed in enumerate(seeds):
            assert np.array_equal(rows[i], NoiseSource.seeded(int(seed)).uniforms01(count))
    with pytest.raises(DomainError):
        uniforms01_rows(seeds, -1)


def test_block_draws_leave_their_inputs_unmodified():
    # the SplitMix64 kernel works in place, on arrays of its own only
    trials = [np.arange(50, dtype=np.uint64), np.arange(50), np.arange(12).reshape(3, 4)]
    channels = np.array([0, 1, DATA_CHANNEL], dtype=np.uint64)
    for t in trials:
        before = t.copy()
        derive_seeds(9, t, 0)
        derive_seeds(9, t, channels)
        assert np.array_equal(t, before) and t.dtype == before.dtype
    assert np.array_equal(channels, [0, 1, DATA_CHANNEL])
    for seeds in (derive_seeds(3, np.arange(40), 0), derive_seeds(3, np.arange(6), 0)[0]):
        before = seeds.copy()
        for draw in (laplace_rows, uniforms01_rows):
            rows = draw(seeds, 606)
            assert np.array_equal(seeds, before)
            assert not np.shares_memory(rows, seeds)


def test_noise_rows_playback():
    unit = laplace_rows(derive_seeds(1, np.arange(4), 0), 5)
    rows = NoiseRows(unit)
    assert np.array_equal(rows.laplace_vector(2.0, 3), unit[:, :3] * 2.0)
    assert rows.draws == 3
    # a sequence of scales stacks one block per scale
    stacked = NoiseRows(unit).laplace_vector([2.0, 0.5], 3)
    assert stacked.shape == (2, 4, 3)
    assert np.array_equal(stacked[0], unit[:, :3] * 2.0)
    assert np.array_equal(stacked[1], unit[:, :3] * 0.5)
    with pytest.raises(DomainError):
        NoiseRows(unit).laplace_vector([1.0, -1.0], 1)
    assert np.array_equal(rows.laplace_vector(1.0, 2), unit[:, 3:])
    with pytest.raises(ReplayExhaustedError):
        rows.laplace_vector(1.0, 1)
    with pytest.raises(DomainError):
        rows.laplace_vector(0.0, 0)
    with pytest.raises(DomainError):
        NoiseRows(np.zeros(3))


def test_derive_seed_collision_free_on_grid():
    seen = set()
    for t in range(200):
        for ch in range(8):
            seen.add(derive_seed(99, t, ch))
    assert len(seen) == 200 * 8


def test_substreams_differ_and_reproduce():
    a = derive_substream(7, 0, 0).laplace_vector(1.0, 4)
    b = derive_substream(7, 0, 1).laplace_vector(1.0, 4)
    c = derive_substream(7, 1, 0).laplace_vector(1.0, 4)
    again = derive_substream(7, 0, 0).laplace_vector(1.0, 4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(a, again)


def test_seed_wraps_to_64_bits():
    big = NoiseSource.seeded(2**64 + 5)
    small = NoiseSource.seeded(5)
    assert np.array_equal(big.laplace_vector(1.0, 3), small.laplace_vector(1.0, 3))
