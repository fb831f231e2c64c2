"""Empirical sensitivity audit for the aggregate maps used by the mechanisms.

The privacy calibration rests on a handful of claims of the form "this map
from datasets to R^m has L1 sensitivity at most s under the stated
neighboring model".  This module stress-tests those claims on randomly
generated neighbor pairs whose records are drawn from an adversarial mixture
(uniform mass, exact corners, strongly edge-concentrated values), across a
spread of dataset sizes including the empty dataset.

Pairs are generated in blocks of equally sized datasets (`neighbor_pair_block`)
and every built-in map has a block form, `map.block`, from (pairs, n, d)
records to (pairs, m) values; the per-dataset maps are its one-row case.
Because each pair's uniforms come from its own counter-based stream and
every sum runs within one dataset, a pair's values do not depend on the
block it is generated or mapped in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .noise import derive_seed, derive_seeds, uniforms01_rows  # noqa: F401 (traced by perfbench)
from .stats import (
    Dataset,
    covariances,
    unnormalized_covariances,
    unnormalized_variances,
    variances,
)
from .bernstein import bernstein_aggregate

MODELS = ("add-remove", "swap")

# Records (base plus extended, over all pairs) in one block of neighbor
# pairs; a size class with more pairs is split over several blocks, which
# changes no value.  At the audit's default sizes, 8x larger blocks ran no
# faster and raised the peak RSS of a 600-pair audit by about 1.5 MB.
_BLOCK_RECORDS = 1 << 13


@dataclass(frozen=True)
class NeighborPair:
    """Two datasets differing by one record under `model`."""

    base: Dataset
    extended: Dataset
    model: str

    def __post_init__(self):
        if self.model not in MODELS:
            raise DomainError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.base.d != self.extended.d:
            raise DomainError("neighbor datasets must share the record dimension")
        if self.model == "add-remove":
            if self.extended.n != self.base.n + 1:
                raise DomainError("add-remove neighbors must differ by one record")
        else:
            if self.extended.n != self.base.n:
                raise DomainError("swap neighbors must have equal size")
            if self.base.n == 0:
                raise DomainError("swap neighbors need at least one record")


def neighbor_pair_block(
    n: int, d: int, model: str, seeds
) -> tuple[np.ndarray, np.ndarray]:
    """Neighbor pairs of base size n with d-dimensional records, one per seed.

    Returns (base, extended) record arrays of shapes (pairs, n, d) and
    (pairs, n+1, d) under add-remove, or (pairs, n, d) each under swap.
    Pair i reads the uniforms of the SplitMix64 stream seeded with seeds[i]
    in order: 3nd for the base records (the category, value and side of
    every coordinate, one full pass each), 3d likewise for the fresh record,
    and under swap one more for the base position the fresh record replaces.
    """
    if model not in MODELS:
        raise DomainError(f"model must be one of {MODELS}, got {model!r}")
    if n < 0 or (model == "swap" and n < 1):
        raise DomainError(f"invalid base size {n} for model {model!r}")
    if d < 1:
        raise DomainError(f"record dimension must be >= 1, got {d}")
    n, d = int(n), int(d)
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    pairs, nd = seeds.shape[0], n * d
    u = uniforms01_rows(seeds, 3 * (nd + d) + (model == "swap"))

    def coords(i):  # uniform i of every coordinate: base records, then fresh
        fresh = 3 * nd + i * d
        return np.concatenate(
            [u[:, i * nd : (i + 1) * nd], u[:, fresh : fresh + d]], axis=1
        ).reshape(pairs, n + 1, d)

    # adversarial mixture: uniform, exact 0/1 corners, edge-concentrated
    cat, val, side = coords(0), coords(1), coords(2)
    edge = val**8
    edge = np.where(side < 0.5, edge, 1.0 - edge)
    recs = np.where(cat < 0.4, val, np.where(cat < 0.7, np.round(val), edge))
    Dataset(recs, d=d)  # the range check, once for the block
    base = recs[:, :n].copy()
    if model == "add-remove":
        return base, recs
    ext = base.copy()
    pos = np.minimum((u[:, -1] * n).astype(np.int64), n - 1)
    ext[np.arange(pairs), pos] = recs[:, n]
    return base, ext


def random_neighbor_pair(
    n: int, d: int, model: str, rng_seed: int
) -> NeighborPair:
    """Deterministic neighbor pair of base size n with d-dimensional records.

    The one-pair case of `neighbor_pair_block`, on the stream seeded with
    `rng_seed`.
    """
    base, ext = neighbor_pair_block(n, d, model, [int(rng_seed) % (1 << 64)])
    return NeighborPair(Dataset(base[0], d=d), Dataset(ext[0], d=d), model)


@dataclass(frozen=True)
class SensitivityReport:
    """Extremes of ||f(extended) - f(base)||_1 over the sampled pairs."""

    map_name: str
    model: str
    trials: int
    max_l1: float
    min_l1: float
    argmax: NeighborPair
    by_size: dict[int, float]  # base size -> max L1 seen at that size


def empirical_sensitivity(
    map_fn: Callable[[Dataset], np.ndarray],
    model: str,
    trials: int,
    sizes: Sequence[int],
    seed: int = 0,
    d: int = 1,
    map_name: str = "custom",
) -> SensitivityReport:
    """Sample neighbor pairs and track the extremes of the map's L1 difference.

    Trial t audits the pair of base size ``sizes[t % len(sizes)]`` drawn
    from seed ``derive_seed(seed, t, 0)``, all derived in one call (`seed`
    wraps mod 2**64).  Pairs of one size are generated in blocks and mapped
    by the map's block form ``map_fn.block``, as every built-in map has; any
    other callable runs once per dataset.  The argmax, the first trial with
    the largest L1 difference, keeps the records its block drew; a size with
    no trial reports 0.0.
    """
    if model not in MODELS:
        raise DomainError(f"model must be one of {MODELS}, got {model!r}")
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < 1:
        raise DomainError(f"trials must be an integer >= 1, got {trials!r}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise DomainError(f"seed must be an integer, got {seed!r}")
    sizes = [int(s) for s in sizes]
    if not sizes:
        raise DomainError("need at least one dataset size")
    for s in sizes:
        if s < 0 or (model == "swap" and s < 1):
            raise DomainError(f"invalid size {s} for model {model!r}")
    ns = np.resize(np.array(sizes), trials)  # base size of each trial
    seeds = derive_seeds(seed, np.arange(trials), 0)
    l1 = np.empty(trials)
    by_size = dict.fromkeys(sizes, 0.0)
    peaks = {}  # trial -> (base, ext) of each block's first maximum; one is the argmax
    block = getattr(map_fn, "block", None) or _per_dataset(map_fn, d)
    for n in by_size:
        ts = np.flatnonzero(ns == n)
        step = max(1, _BLOCK_RECORDS // (2 * n + 1))
        for lo in range(0, ts.size, step):
            t = ts[lo : lo + step]
            base, ext = neighbor_pair_block(n, d, model, seeds[t])
            l1[t] = v = np.sum(np.abs(block(ext) - block(base)), axis=-1)
            i = int(np.argmax(v))
            peaks[int(t[i])] = base[i].copy(), ext[i].copy()
            by_size[n] = float(np.max(v, initial=by_size[n]))
    top = int(np.argmax(l1))
    return SensitivityReport(
        map_name=map_name,
        model=model,
        trials=trials,
        max_l1=float(l1[top]),
        min_l1=float(l1.min()),
        argmax=NeighborPair(*(Dataset(r, d=d) for r in peaks[top]), model),
        by_size=by_size,
    )


def _per_dataset(map_fn: Callable[[Dataset], np.ndarray], d: int):
    """Block form of a map without one: the map on each dataset in turn."""

    def block(values: np.ndarray) -> np.ndarray:
        rows = [np.asarray(map_fn(Dataset(v, d=d)), dtype=np.float64) for v in values]
        return np.stack([r.reshape(-1) for r in rows])

    return block


# -- ready-made maps --------------------------------------------------------
#
# Each map is the one-row case of its block form, kept as its `block`
# attribute: a function on (pairs, n, d) record blocks returning (pairs, m).
# The variance and covariance maps are the `stats` kernels themselves
# (`variances`, `covariances` and their unnormalized forms) with the value
# as a length-1 vector, so they are `variance_exact`/`covariance_exact` by
# construction.


def _dataset_map(block, doc: str | None) -> Callable[[Dataset], np.ndarray]:
    """The map ``data -> block(data.values[None])[0]``, with `block` attached."""

    def f(data: Dataset) -> np.ndarray:
        return block(data.values[None])[0]

    f.__doc__, f.block = doc, block
    return f


def bernstein_map(k: int, d: int = 1) -> Callable[[Dataset], np.ndarray]:
    """Dataset -> flat Bernstein aggregate (claimed L1 sensitivity exactly 1)."""
    return _dataset_map(lambda values: bernstein_aggregate(values, k), None)


def _transformed_block(values: np.ndarray) -> np.ndarray:
    u = unnormalized_variances(values)[..., None]
    return np.concatenate([values.shape[-2] - u, u], axis=-1)


unnormalized_variance_map = _dataset_map(
    lambda values: unnormalized_variances(values)[..., None],
    "Dataset -> [n * variance] (claimed add-remove sensitivity 1).",
)
unnormalized_covariance_map = _dataset_map(
    lambda values: unnormalized_covariances(values)[..., None],
    "Dataset -> [n * covariance] (claimed add-remove sensitivity 1).",
)
transformed_pair_map = _dataset_map(
    _transformed_block,
    "Dataset -> [n - u, u] with u = n * variance (claimed sensitivity 1).",
)
swap_variance_map = _dataset_map(
    lambda values: variances(values)[..., None],
    "Dataset -> [variance]; swap-model sensitivity is claimed <= 1/n.",
)
swap_covariance_map = _dataset_map(
    lambda values: covariances(values)[..., None],
    "Dataset -> [covariance]; swap-model sensitivity is claimed <= 1/n.",
)


def builtin_maps() -> dict[str, dict]:
    """Name -> {fn-or-factory, model, d, claimed bound} for the CLI and tests."""
    return {
        "bernstein": {
            "factory": bernstein_map,
            "model": "add-remove",
            "bound": "= 1",
        },
        "uvar": {
            "fn": unnormalized_variance_map,
            "model": "add-remove",
            "d": 1,
            "bound": "<= 1",
        },
        "ucov": {
            "fn": unnormalized_covariance_map,
            "model": "add-remove",
            "d": 2,
            "bound": "<= 1",
        },
        "transformed": {
            "fn": transformed_pair_map,
            "model": "add-remove",
            "d": 1,
            "bound": "<= 1",
        },
        "swap_variance": {
            "fn": swap_variance_map,
            "model": "swap",
            "d": 1,
            "bound": "<= 1/n",
        },
        "swap_covariance": {
            "fn": swap_covariance_map,
            "model": "swap",
            "d": 2,
            "bound": "<= 1/n",
        },
    }
