"""Deterministic, counter-based noise sources.

All randomness in the package flows through `NoiseSource`.  The seeded kind
is a counter-based SplitMix64 generator: output i is a pure function of
(seed, i), so any run of draws can be computed at once from its start
counter.  Every draw is computed that way, in one block implementation:
`_uniform_rows` maps a block of seeds and a start counter to a block of
uniforms, and `derive_seeds` maps a block of trial indices to substream
seeds.  A single stream, a single draw and a single seed are the one-row
case of those blocks, so how draws are batched never changes a value; that
property is what makes experiment results independent of batching and
thread count.

Substreams for (trial, channel) pairs are derived by avalanche-mixing the
indices into the base seed, giving statistically independent streams without
any shared mutable state.  `laplace_rows` and `uniforms01_rows` draw a whole
block of trials' substreams as one array and reproduce every per-trial
stream bit for bit; `NoiseRows` hands such a block to a mechanism.

Uniform deviates are built from the top 53 bits as (bits + 0.5) * 2**-53 - 0.5,
which lies strictly inside (-1/2, 1/2); Laplace deviates use the inverse-CDF
map  x = -b * sign(u) * log1p(-2|u|),  which never evaluates log at 0.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ReplayExhaustedError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# Distinct odd multiplier for the channel coordinate of substream derivation.
_CHANNEL_MULT = 0xC2B2AE3D27D4EB4F

_U64_GAMMA = np.uint64(_GAMMA)
_U64_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_U64_MIX_B = np.uint64(0x94D049BB133111EB)

_SCALE = 2.0**-53


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer elementwise on a uint64 array (wrapping arithmetic).

    Overwrites `z` and returns it, so callers pass a fresh array (a numpy
    scalar comes back as a new one).  Callers enter np.errstate(over="ignore")
    once around it: a context per call costs about as much as mixing a short array.
    """
    z ^= z >> np.uint64(30)
    z *= _U64_MIX_A
    z ^= z >> np.uint64(27)
    z *= _U64_MIX_B
    z ^= z >> np.uint64(31)
    return z


def _laplace_from_uniforms(u: np.ndarray, scale: float) -> np.ndarray:
    out = np.log1p(-2.0 * np.abs(u))
    out *= np.sign(u)
    out *= -scale
    return out


def _check_natural(value, what: str) -> int:
    if not isinstance(value, (int, np.integer)) or value < 0:
        raise DomainError(f"{what} must be an integer >= 0, got {value!r}")
    return int(value)


def check_finite_positive(value, what: str) -> float:
    """value as a float; DomainError unless it is finite and > 0."""
    value = float(value)
    if not 0.0 < value < math.inf:
        raise DomainError(f"{what} must be finite and > 0, got {value}")
    return value


def _check_naturals(values, what: str) -> np.ndarray:
    """`values` as a uint64 array; DomainError unless all are integers in [0, 2**64)."""
    a = np.asarray(values)  # dtype object beyond 2**64 - 1
    if a.dtype.kind not in "iu" or (a.size and a.dtype.kind == "i" and a.min() < 0):
        raise DomainError(f"{what} must be integers in [0, 2**64), got {values!r}")
    return a.astype(np.uint64)


def derive_seeds(base_seed: int, trial_indices, channel) -> np.ndarray:
    """64-bit seeds of the (trial, channel) substreams, as uint64.

    Trial indices and channels are integers in [0, 2**64).  One channel
    gives a seed per trial index, in their shape.  An array of channels
    appends its shape, and entry [..., c] equals the seed of channel c bit
    for bit; each trial index is hashed once for all channels.
    """
    t = _check_naturals(trial_indices, "trial indices")
    if isinstance(channel, (int, np.integer)) or np.ndim(channel) == 0:
        ch = np.uint64(((_check_natural(channel, "channel") + 1) * _CHANNEL_MULT) & _MASK64)
    else:
        ch = (_check_naturals(channel, "channels") + np.uint64(1)) * np.uint64(_CHANNEL_MULT)
        t = t.reshape(t.shape + (1,) * ch.ndim)
    base = np.uint64((int(base_seed) + _GAMMA) & _MASK64)
    with np.errstate(over="ignore"):
        h = _mix(base) ^ ((t + np.uint64(1)) * _U64_GAMMA)
        return _mix(_mix(h) ^ ch)


def derive_seed(base_seed: int, trial_index: int, channel: int) -> int:
    """Collision-resistant 64-bit seed for one (trial, channel) substream."""
    return int(derive_seeds(base_seed, trial_index, channel))


def _uniform_rows(seeds, count, start: int = 0) -> np.ndarray:
    """Uniforms in (-1/2, 1/2) from many seeded streams, one row per seed.

    Row i holds draws start+1 .. start+count of the stream seeded seeds[i].
    The result has shape seeds.shape + (count,): one seed gives a 1-d row of
    its own, not a view into a (1, count) block, which would keep numpy from
    reusing it as a temporary (in `uniforms01`, say).
    """
    count = _check_natural(count, "count")
    seeds = np.asarray(seeds, dtype=np.uint64)[..., None]
    # idx is scaled in place: seeds broadcasts, so `seeds + idx * gamma`
    # could not reuse the temporary and would hold a third array at the peak
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    idx *= _U64_GAMMA
    with np.errstate(over="ignore"):
        bits = _mix(seeds + idx)
    bits >>= np.uint64(11)
    u = bits.astype(np.float64)
    u += 0.5
    u *= _SCALE
    u -= 0.5
    return u


def laplace_rows(seeds, count: int) -> np.ndarray:
    """Unit-scale Laplace draws from many seeded streams, one row per seed.

    Row i equals `NoiseSource.seeded(seeds[i]).laplace_vector(1.0, count)`,
    and row i times b equals the same stream's `laplace_vector(b, count)`,
    bit for bit.
    """
    return _laplace_from_uniforms(_uniform_rows(seeds, count), 1.0)


def uniforms01_rows(seeds, count: int) -> np.ndarray:
    """Uniforms strictly inside (0, 1) from many seeded streams, one row per seed.

    Row i equals `NoiseSource.seeded(seeds[i]).uniforms01(count)` bit for bit.
    """
    u = _uniform_rows(seeds, count)
    u += 0.5
    return u


class NoiseSource:
    """Single-consumer stream of noise draws.

    Kinds:
      * ``seeded`` -- deterministic SplitMix64-based stream;
      * ``zero``   -- every draw is exactly 0.0 (debugging / exactness tests);
      * ``replay`` -- plays back a fixed list of values, then raises.

    A seeded source is one row of `_uniform_rows`, started at its counter.
    Not thread-safe: each source is meant to be consumed by one owner.
    """

    __slots__ = ("kind", "_seed", "_counter", "_values")

    def __init__(self, kind: str, seed: int = 0, values=None):
        if kind not in ("seeded", "zero", "replay"):
            raise DomainError(f"unknown noise source kind {kind!r}")
        self.kind = kind
        self._seed = int(seed) & _MASK64
        self._counter = 0
        self._values = None if values is None else [float(v) for v in values]

    @classmethod
    def seeded(cls, seed: int) -> "NoiseSource":
        return cls("seeded", seed=seed)

    @classmethod
    def zero(cls) -> "NoiseSource":
        return cls("zero")

    @classmethod
    def replay(cls, values) -> "NoiseSource":
        return cls("replay", values=values)

    @property
    def draws(self) -> int:
        """Number of draws consumed so far."""
        return self._counter

    def uniforms(self, count: int) -> np.ndarray:
        """`count` uniforms strictly inside (-1/2, 1/2)."""
        if self.kind != "seeded":
            raise DomainError(f"uniforms are only defined for seeded sources, not {self.kind!r}")
        u = _uniform_rows(self._seed, count, self._counter)
        self._counter += u.shape[0]
        return u

    def uniforms01(self, count: int) -> np.ndarray:
        """`count` uniforms strictly inside (0, 1) (data-generation helper)."""
        return self.uniforms(count) + 0.5

    def laplace(self, scale: float) -> float:
        """One centered Laplace draw with the given scale parameter b."""
        return float(self.laplace_vector(scale, 1)[0])

    def laplace_vector(self, scale: float, count: int) -> np.ndarray:
        """`count` i.i.d. centered Laplace draws with scale parameter b."""
        scale = check_finite_positive(scale, "Laplace scale")
        count = _check_natural(count, "count")
        if self.kind == "zero":
            self._counter += count
            return np.zeros(count, dtype=np.float64)
        if self.kind == "replay":
            return self._replay_take(count)
        return _laplace_from_uniforms(self.uniforms(count), scale)

    def _replay_take(self, count: int) -> np.ndarray:
        have = len(self._values) - self._counter
        if count > have:
            raise ReplayExhaustedError(
                f"replay source has {have} value(s) left but {count} were requested"
            )
        vals = self._values[self._counter : self._counter + count]
        self._counter += count
        return np.array(vals, dtype=np.float64)


def derive_substream(base_seed: int, trial_index: int, channel: int) -> NoiseSource:
    """Seeded source for one (trial, channel) cell of an experiment grid."""
    return NoiseSource.seeded(derive_seed(base_seed, trial_index, channel))


class NoiseRows:
    """Plays back a (rows, cells) matrix of unit-scale Laplace draws.

    `laplace_vector(scale, count)` returns the next `count` columns times
    `scale`, shape (rows, count), so a mechanism run on it releases one value
    per row; a 1-d sequence of scales gives one such block per scale, shape
    (scales, rows, count).  Built from `laplace_rows` over per-trial
    substream seeds, row t matches what the substream of trial t would have
    drawn.  Draws past the last column raise ReplayExhaustedError.
    """

    __slots__ = ("_unit", "_pos")

    def __init__(self, unit):
        unit = np.asarray(unit, dtype=np.float64)
        if unit.ndim != 2:
            raise DomainError(f"noise rows must form a 2-d array, got shape {unit.shape}")
        self._unit = unit
        self._pos = 0

    @property
    def draws(self) -> int:
        """Draws consumed so far in each row."""
        return self._pos

    def laplace_vector(self, scale, count: int) -> np.ndarray:
        scales = [check_finite_positive(b, "Laplace scale") for b in np.ravel(scale)]
        scale = np.reshape(scales, np.shape(scale) + (1, 1))
        count = _check_natural(count, "count")
        have = self._unit.shape[1] - self._pos
        if count > have:
            raise ReplayExhaustedError(
                f"noise rows have {have} draw(s) left but {count} were requested"
            )
        block = self._unit[:, self._pos : self._pos + count]
        self._pos += count
        return block * scale
