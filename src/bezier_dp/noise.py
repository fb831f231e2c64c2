"""Deterministic, counter-based noise sources.

All randomness in the package flows through `NoiseSource`.  The seeded kind
is a counter-based SplitMix64 generator: output i is a pure function of
(seed, i), so a stream can be consumed one draw at a time or in vectorized
batches and the two paths produce bit-identical values.  That property is
what makes experiment results independent of batching and thread count.

Substreams for (trial, channel) pairs are derived by avalanche-mixing the
indices into the base seed, giving statistically independent streams without
any shared mutable state.  Because both the seed derivation and the draws are
pure functions of their counters, `derive_seeds`, `laplace_rows` and
`uniforms01_rows` compute a whole block of trials' substreams as one array
and still reproduce every per-trial draw bit for bit; `NoiseRows` hands such
a block to a mechanism.

Uniform deviates are built from the top 53 bits as (bits + 0.5) * 2**-53 - 0.5,
which lies strictly inside (-1/2, 1/2); Laplace deviates use the inverse-CDF
map  x = -b * sign(u) * log1p(-2|u|),  which never evaluates log at 0.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ReplayExhaustedError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
# Distinct odd multiplier for the channel coordinate of substream derivation.
_CHANNEL_MULT = 0xC2B2AE3D27D4EB4F

_U64_GAMMA = np.uint64(_GAMMA)
_U64_MIX_A = np.uint64(_MIX_A)
_U64_MIX_B = np.uint64(_MIX_B)

# Below this many draws a pure-Python loop beats numpy's per-call overhead.
_SCALAR_CUTOFF = 8

_SCALE = 2.0**-53


def _mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _mix64_vector(z: np.ndarray) -> np.ndarray:
    """`_mix64` elementwise on a uint64 array (wrapping arithmetic).

    Callers enter np.errstate(over="ignore") once around it: a context per
    call costs about as much as mixing a short array.
    """
    z = (z ^ (z >> np.uint64(30))) * _U64_MIX_A
    z = (z ^ (z >> np.uint64(27))) * _U64_MIX_B
    return z ^ (z >> np.uint64(31))


def _uniforms_from_bits(bits: np.ndarray) -> np.ndarray:
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * _SCALE - 0.5


def _laplace_from_uniforms(u: np.ndarray, scale: float) -> np.ndarray:
    out = np.log1p(-2.0 * np.abs(u))
    out *= np.sign(u)
    out *= -scale
    return out


def _check_channel(channel) -> None:
    if not isinstance(channel, (int, np.integer)) or channel < 0:
        raise DomainError(f"channel must be an integer >= 0, got {channel!r}")


def derive_seed(base_seed: int, trial_index: int, channel: int) -> int:
    """Collision-resistant 64-bit seed for one (trial, channel) substream."""
    if not isinstance(trial_index, (int, np.integer)) or trial_index < 0:
        raise DomainError(f"trial_index must be an integer >= 0, got {trial_index!r}")
    _check_channel(channel)
    h = _mix64((int(base_seed) + _GAMMA) & _MASK64)
    h = _mix64(h ^ (((int(trial_index) + 1) * _GAMMA) & _MASK64))
    h = _mix64(h ^ (((int(channel) + 1) * _CHANNEL_MULT) & _MASK64))
    return h


def derive_seeds(base_seed: int, trial_indices, channel: int) -> np.ndarray:
    """`derive_seed` for an array of trial indices at once, as uint64.

    Bit-identical to the scalar reference for every index in [0, 2**64).
    """
    t = np.asarray(trial_indices)
    if t.dtype.kind not in "iu" or (t.size and t.dtype.kind == "i" and t.min() < 0):
        raise DomainError("trial indices must be integers >= 0")
    _check_channel(channel)
    h0 = np.uint64(_mix64((int(base_seed) + _GAMMA) & _MASK64))
    ch = np.uint64(((int(channel) + 1) * _CHANNEL_MULT) & _MASK64)
    with np.errstate(over="ignore"):
        h = _mix64_vector(h0 ^ ((t.astype(np.uint64) + np.uint64(1)) * _U64_GAMMA))
        return _mix64_vector(h ^ ch)


def _uniform_rows(seeds, count: int) -> np.ndarray:
    """Uniforms in (-1/2, 1/2) from many seeded streams, one row per seed."""
    if count < 0:
        raise DomainError(f"count must be >= 0, got {count}")
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1, 1)
    idx = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        bits = _mix64_vector(seeds + idx * _U64_GAMMA)
    return _uniforms_from_bits(bits)


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
    return _uniform_rows(seeds, count) + 0.5


class NoiseSource:
    """Single-consumer stream of noise draws.

    Kinds:
      * ``seeded`` -- deterministic SplitMix64-based stream;
      * ``zero``   -- every draw is exactly 0.0 (debugging / exactness tests);
      * ``replay`` -- plays back a fixed list of values, then raises.

    Not thread-safe: each source is meant to be consumed by one owner.
    """

    __slots__ = ("kind", "_seed", "_counter", "_values", "_pos")

    def __init__(self, kind: str, seed: int = 0, values=None):
        if kind not in ("seeded", "zero", "replay"):
            raise DomainError(f"unknown noise source kind {kind!r}")
        self.kind = kind
        self._seed = int(seed) & _MASK64
        self._counter = 0
        self._values = None if values is None else [float(v) for v in values]
        self._pos = 0

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
        if self.kind == "replay":
            return self._pos
        return self._counter

    # -- raw 64-bit outputs -------------------------------------------------

    def _bits_scalar(self, count: int) -> list[int]:
        s, c = self._seed, self._counter
        out = [_mix64(s + (c + i) * _GAMMA) for i in range(1, count + 1)]
        self._counter += count
        return out

    def _bits_vector(self, count: int) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + count + 1, dtype=np.uint64)
        self._counter += count
        with np.errstate(over="ignore"):
            return _mix64_vector(np.uint64(self._seed) + idx * _U64_GAMMA)

    # -- uniforms -----------------------------------------------------------

    def uniforms(self, count: int) -> np.ndarray:
        """`count` uniforms strictly inside (-1/2, 1/2)."""
        if self.kind != "seeded":
            raise DomainError(f"uniforms are only defined for seeded sources, not {self.kind!r}")
        if count < 0:
            raise DomainError(f"count must be >= 0, got {count}")
        if count <= _SCALAR_CUTOFF:
            bits = self._bits_scalar(count)
            return np.array(
                [((b >> 11) + 0.5) * _SCALE - 0.5 for b in bits], dtype=np.float64
            )
        return _uniforms_from_bits(self._bits_vector(count))

    def uniforms01(self, count: int) -> np.ndarray:
        """`count` uniforms strictly inside (0, 1) (data-generation helper)."""
        return self.uniforms(count) + 0.5

    # -- Laplace draws ------------------------------------------------------

    def laplace(self, scale: float) -> float:
        """One centered Laplace draw with the given scale parameter b."""
        scale = float(scale)
        if not scale > 0.0:
            raise DomainError(f"Laplace scale must be > 0, got {scale}")
        if self.kind == "zero":
            self._counter += 1
            return 0.0
        if self.kind == "replay":
            return float(self._replay_take(1)[0])
        b = self._bits_scalar(1)[0]
        u = ((b >> 11) + 0.5) * _SCALE - 0.5
        # np.log1p (not math.log1p): keeps single draws bit-identical to
        # batched draws -- the two libm implementations differ by 1 ulp.
        mag = float(np.log1p(-2.0 * abs(u)))
        sign = 1.0 if u > 0.0 else -1.0
        return mag * sign * -scale

    def laplace_vector(self, scale: float, count: int) -> np.ndarray:
        """`count` i.i.d. centered Laplace draws with scale parameter b."""
        scale = float(scale)
        if not scale > 0.0:
            raise DomainError(f"Laplace scale must be > 0, got {scale}")
        if count < 0:
            raise DomainError(f"count must be >= 0, got {count}")
        if self.kind == "zero":
            self._counter += count
            return np.zeros(count, dtype=np.float64)
        if self.kind == "replay":
            return self._replay_take(count)
        if count <= _SCALAR_CUTOFF:
            bits = self._bits_scalar(count)
            u = np.array(
                [((b >> 11) + 0.5) * _SCALE - 0.5 for b in bits], dtype=np.float64
            )
        else:
            u = self.uniforms(count)
        return _laplace_from_uniforms(u, scale)

    def _replay_take(self, count: int) -> np.ndarray:
        have = len(self._values) - self._pos
        if count > have:
            raise ReplayExhaustedError(
                f"replay source has {have} value(s) left but {count} were requested"
            )
        vals = self._values[self._pos : self._pos + count]
        self._pos += count
        return np.array(vals, dtype=np.float64)


def derive_substream(base_seed: int, trial_index: int, channel: int) -> NoiseSource:
    """Seeded source for one (trial, channel) cell of an experiment grid."""
    return NoiseSource.seeded(derive_seed(base_seed, trial_index, channel))


class NoiseRows:
    """Plays back a (rows, cells) matrix of unit-scale Laplace draws.

    `laplace_vector(scale, count)` returns the next `count` columns times
    `scale`, shape (rows, count), so a mechanism run on it releases one value
    per row.  Built from `laplace_rows` over per-trial substream seeds, row t
    matches what the substream of trial t would have drawn.  Draws past the
    last column raise ReplayExhaustedError.
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

    def laplace_vector(self, scale: float, count: int) -> np.ndarray:
        scale = float(scale)
        if not scale > 0.0:
            raise DomainError(f"Laplace scale must be > 0, got {scale}")
        if count < 0:
            raise DomainError(f"count must be >= 0, got {count}")
        have = self._unit.shape[1] - self._pos
        if count > have:
            raise ReplayExhaustedError(
                f"noise rows have {have} draw(s) left but {count} were requested"
            )
        block = self._unit[:, self._pos : self._pos + count]
        self._pos += count
        return block * scale

