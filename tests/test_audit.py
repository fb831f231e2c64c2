"""Sensitivity audit: pair generation, report plumbing, bound checks."""

import functools

import numpy as np
import pytest

from bezier_dp import (
    Dataset,
    DomainError,
    NeighborPair,
    NoiseSource,
    SensitivityReport,
    UndefinedStatisticError,
    bernstein_aggregate,
    bernstein_map,
    builtin_maps,
    covariance_exact,
    derive_seed,
    empirical_sensitivity,
    neighbor_pair_block,
    random_neighbor_pair,
    swap_covariance_map,
    swap_variance_map,
    transformed_pair_map,
    unnormalized_covariance_map,
    unnormalized_variance_map,
    variance_exact,
)

SEEDS = (0, 7, 2**63 + 5)
SIZES = {"add-remove": [0, 1, 2, 5, 20, 100], "swap": [1, 2, 5, 20, 100]}


# -- per-pair references ------------------------------------------------------


def _reference_records(src, count, d):
    """`count` mixture records drawn from `src` one stream call at a time."""
    if count == 0:
        return np.empty((0, d))
    cat = src.uniforms01(count * d)
    val = src.uniforms01(count * d)
    side = src.uniforms01(count * d)
    out = np.where(
        cat < 0.4,
        val,
        np.where(cat < 0.7, np.round(val), np.where(side < 0.5, val**8, 1.0 - val**8)),
    )
    return out.reshape(count, d)


def _reference_pair(n, d, model, seed):
    """(base, extended) records of one pair, drawn from a NoiseSource."""
    src = NoiseSource.seeded(seed)
    base = _reference_records(src, n, d)
    fresh = _reference_records(src, 1, d)
    if model == "add-remove":
        return base, np.concatenate([base, fresh], axis=0)
    pos = min(n - 1, int(src.uniforms01(1)[0] * n))
    ext = base.copy()
    ext[pos] = fresh[0]
    return base, ext


def _bernstein_ref(k):
    return lambda ds: bernstein_aggregate(ds.values, k)


def _uvar_ref(ds):
    return ds.n * variance_exact(ds) if ds.n else 0.0


def _ucov_ref(ds):
    return ds.n * covariance_exact(ds) if ds.n else 0.0


def _transformed_ref(ds):
    u = _uvar_ref(ds)
    return np.array([ds.n - u, u])


# map name -> (map under test, model, d, reference on one Dataset)
REFERENCE_MAPS = {
    "bernstein_k2d1": (bernstein_map(2, 1), "add-remove", 1, _bernstein_ref(2)),
    "bernstein_k3d1": (bernstein_map(3, 1), "add-remove", 1, _bernstein_ref(3)),
    "bernstein_k2d2": (bernstein_map(2, 2), "add-remove", 2, _bernstein_ref(2)),
    "uvar": (
        unnormalized_variance_map, "add-remove", 1,
        lambda ds: np.array([_uvar_ref(ds)]),
    ),
    "ucov": (
        unnormalized_covariance_map, "add-remove", 2,
        lambda ds: np.array([_ucov_ref(ds)]),
    ),
    "transformed": (transformed_pair_map, "add-remove", 1, _transformed_ref),
    "swap_variance": (swap_variance_map, "swap", 1, lambda ds: np.array([variance_exact(ds)])),
    "swap_covariance": (
        swap_covariance_map, "swap", 2, lambda ds: np.array([covariance_exact(ds)])
    ),
}


def _reference_report(ref, model, trials, sizes, seed, d):
    """(max, min, by_size, argmax pair) from the per-pair loop, strict `>`."""
    best = worst = best_pair = None
    by_size = {s: 0.0 for s in sizes}
    for t in range(trials):
        n = sizes[t % len(sizes)]
        base, ext = _reference_pair(n, d, model, derive_seed(seed, t, 0))
        diff = np.asarray(ref(Dataset(ext, d=d)), dtype=np.float64) - np.asarray(
            ref(Dataset(base, d=d)), dtype=np.float64
        )
        l1 = float(np.sum(np.abs(diff)))
        if best is None or l1 > best:
            best, best_pair = l1, (base, ext)
        if worst is None or l1 < worst:
            worst = l1
        if l1 > by_size[n]:
            by_size[n] = l1
    return best, worst, by_size, best_pair


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_neighbor_pair_validation():
    base = Dataset([0.1, 0.2])
    ext = Dataset([0.1, 0.2, 0.3])
    NeighborPair(base, ext, "add-remove")
    with pytest.raises(DomainError):
        NeighborPair(base, ext, "swap")  # sizes differ
    with pytest.raises(DomainError):
        NeighborPair(base, base, "add-remove")  # sizes equal
    with pytest.raises(DomainError):
        NeighborPair(base, Dataset([[0.1, 0.2]]), "add-remove")  # dims differ
    with pytest.raises(DomainError):
        NeighborPair(base, ext, "replace-one")
    with pytest.raises(DomainError):
        NeighborPair(Dataset.empty(1), Dataset.empty(1), "swap")


def test_random_neighbor_pair_properties():
    for model in ("add-remove", "swap"):
        for n in (1, 2, 7):
            pair = random_neighbor_pair(n, 1, model, rng_seed=n)
            assert pair.model == model
            assert pair.base.n == n
            assert pair.extended.n == n + (1 if model == "add-remove" else 0)
    # add-remove keeps the base prefix intact
    pair = random_neighbor_pair(5, 2, "add-remove", rng_seed=9)
    assert np.array_equal(pair.extended.values[:5], pair.base.values)
    # swap changes exactly one row
    pair = random_neighbor_pair(6, 1, "swap", rng_seed=9)
    changed = np.any(pair.extended.values != pair.base.values, axis=1)
    assert changed.sum() <= 1
    # deterministic in the seed
    a = random_neighbor_pair(4, 1, "add-remove", rng_seed=3)
    b = random_neighbor_pair(4, 1, "add-remove", rng_seed=3)
    assert np.array_equal(a.extended.values, b.extended.values)
    with pytest.raises(DomainError):
        random_neighbor_pair(0, 1, "swap", rng_seed=1)
    with pytest.raises(DomainError):
        random_neighbor_pair(-1, 1, "add-remove", rng_seed=1)
    with pytest.raises(DomainError):
        random_neighbor_pair(2, 0, "add-remove", rng_seed=1)


def test_neighbor_pair_block_rows_match_per_stream_pairs():
    for model, sizes in SIZES.items():
        for n in sizes:
            for d in (1, 2):
                base, ext = neighbor_pair_block(n, d, model, list(SEEDS))
                assert base.shape == (len(SEEDS), n, d)
                assert ext.shape == (len(SEEDS), n + (model == "add-remove"), d)
                for i, seed in enumerate(SEEDS):
                    ref_base, ref_ext = _reference_pair(n, d, model, seed)
                    assert _same_bits(base[i], ref_base) and _same_bits(ext[i], ref_ext)
                    # the one-pair case is the same generator
                    pair = random_neighbor_pair(n, d, model, seed)
                    assert _same_bits(pair.base.values, ref_base)
                    assert _same_bits(pair.extended.values, ref_ext)
    empty = neighbor_pair_block(3, 2, "swap", [])
    assert empty[0].shape == empty[1].shape == (0, 3, 2)
    with pytest.raises(DomainError):
        neighbor_pair_block(0, 1, "swap", [1])
    with pytest.raises(DomainError):
        neighbor_pair_block(2, 1, "replace-one", [1])


def test_map_block_forms_match_stats_references():
    for name, (fn, model, d, ref) in REFERENCE_MAPS.items():
        for n in SIZES[model]:
            base, ext = neighbor_pair_block(n, d, model, list(SEEDS) + [11, 12])
            for block in (base, ext):
                got = fn.block(block)
                assert got.shape[0] == block.shape[0], name
                for i, records in enumerate(block):
                    expected = ref(Dataset(records, d=d))
                    assert _same_bits(got[i], expected), (name, n, i)
                    assert _same_bits(fn(Dataset(records, d=d)), expected), (name, n, i)
    # the block forms keep the per-dataset errors
    with pytest.raises(DomainError, match="needs d=1 data, got d=2"):
        unnormalized_variance_map.block(np.zeros((3, 4, 2)))
    with pytest.raises(UndefinedStatisticError):
        swap_variance_map.block(np.zeros((3, 0, 1)))


def _custom_map(data):
    """(sum x, sum x^2): no block form, so audited one pair at a time."""
    x = data.column(0)
    return np.array([x.sum(), (x * x).sum()])


@pytest.mark.parametrize("name", [*REFERENCE_MAPS, "custom", "wrapped"])
def test_empirical_sensitivity_matches_per_pair_loop(name):
    if name == "custom":
        fn, model, d, ref = _custom_map, "add-remove", 1, _custom_map
    elif name == "wrapped":
        # what a tracing wrapper passes: functools.wraps copies `block`
        inner, model, d, ref = REFERENCE_MAPS["uvar"]
        fn = functools.wraps(inner)(lambda data: inner(data))
        assert fn.block is inner.block
    else:
        fn, model, d, ref = REFERENCE_MAPS[name]
    base_sizes = SIZES[model]
    cases = [(trials, base_sizes, 7) for trials in (5, 37, 600)]
    cases += [(37, base_sizes[::-1], 2**63 + 5), (37, base_sizes + base_sizes[:2], 0)]
    for trials, sizes, seed in cases:
        rep = empirical_sensitivity(fn, model, trials, sizes, seed=seed, d=d)
        best, worst, by_size, (arg_base, arg_ext) = _reference_report(
            ref, model, trials, sizes, seed, d
        )
        assert rep.max_l1 == best and rep.min_l1 == worst
        assert list(rep.by_size.items()) == list(by_size.items())
        assert _same_bits(rep.argmax.base.values, arg_base)
        assert _same_bits(rep.argmax.extended.values, arg_ext)


def test_mixture_hits_corners_and_interior():
    vals = random_neighbor_pair(400, 1, "add-remove", rng_seed=77).extended.values
    assert np.any(vals == 0.0) and np.any(vals == 1.0)
    assert np.any((vals > 0.1) & (vals < 0.9))
    assert vals.min() >= 0.0 and vals.max() <= 1.0


def test_report_structure():
    rep = empirical_sensitivity(
        unnormalized_variance_map,
        "add-remove",
        trials=40,
        sizes=[0, 1, 5],
        seed=3,
        map_name="uvar",
    )
    assert isinstance(rep, SensitivityReport)
    assert rep.map_name == "uvar"
    assert rep.trials == 40
    assert set(rep.by_size) == {0, 1, 5}
    assert 0.0 <= rep.min_l1 <= rep.max_l1
    assert rep.max_l1 == max(rep.by_size.values())
    assert isinstance(rep.argmax, NeighborPair)
    with pytest.raises(DomainError):
        empirical_sensitivity(unnormalized_variance_map, "add-remove", 0, [1])
    with pytest.raises(DomainError):
        empirical_sensitivity(unnormalized_variance_map, "add-remove", 5, [])
    with pytest.raises(DomainError):
        empirical_sensitivity(unnormalized_variance_map, "swap", 5, [0, 1])


def test_bernstein_map_sensitivity_exactly_one():
    # adding any record changes the aggregate by that record's basis vector,
    # whose L1 norm is exactly 1 (partition of unity)
    for k, d in ((2, 1), (3, 1), (2, 2)):
        rep = empirical_sensitivity(
            bernstein_map(k, d),
            "add-remove",
            trials=400,
            sizes=[0, 1, 2, 5, 20],
            seed=11,
            d=d,
            map_name=f"bernstein k={k} d={d}",
        )
        assert rep.max_l1 == pytest.approx(1.0, abs=1e-9)
        assert rep.min_l1 == pytest.approx(1.0, abs=1e-9)


def test_unnormalized_maps_bounded_by_one():
    rep = empirical_sensitivity(
        unnormalized_variance_map, "add-remove", 600, [0, 1, 2, 5, 20, 100], seed=13
    )
    assert rep.max_l1 <= 1.0 + 1e-9
    rep = empirical_sensitivity(
        unnormalized_covariance_map, "add-remove", 600, [0, 1, 2, 5, 20, 100], seed=14, d=2
    )
    assert rep.max_l1 <= 1.0 + 1e-9
    rep = empirical_sensitivity(
        transformed_pair_map, "add-remove", 600, [0, 1, 2, 5, 20, 100], seed=15
    )
    assert rep.max_l1 <= 1.0 + 1e-9
    # the bound is nearly attained (corner-heavy mixture finds ~1)
    assert rep.max_l1 >= 0.9


def test_swap_map_bounded_by_inverse_n():
    for n in (1, 2, 5, 20):
        rep = empirical_sensitivity(
            swap_variance_map, "swap", 300, [n], seed=16 + n
        )
        assert rep.max_l1 <= 1.0 / n + 1e-9


def test_builtin_maps_catalog():
    maps = builtin_maps()
    assert set(maps) == {
        "bernstein",
        "uvar",
        "ucov",
        "transformed",
        "swap_variance",
        "swap_covariance",
    }
    for name, meta in maps.items():
        assert meta["model"] in ("add-remove", "swap")
        assert "bound" in meta
        assert ("fn" in meta) != ("factory" in meta)
    # catalog entries are runnable as-is
    meta = maps["ucov"]
    rep = empirical_sensitivity(
        meta["fn"], meta["model"], 50, [0, 3], seed=2, d=meta["d"], map_name="ucov"
    )
    assert rep.max_l1 <= 1.0 + 1e-9
