#!/usr/bin/env python3
"""Anatomy of a single private release.

A mechanism is *prepared* once per dataset (the exact aggregates are
computed up front) and can then be run many times, each run drawing fresh
Laplace noise from an explicit, replayable noise source.  `run` returns the
released value together with its audit trail: every noisy intermediate the
value was derived from, plus the clip range that was enforced.

The demo walks one variance release end to end, shows that a zero-noise
source reproduces the exact statistic bit for bit, and finishes with a full
degree-2 coefficient release.
"""

import bezier_dp as bd


def banner(title):
    print()
    print(f"== {title} " + "=" * max(0, 66 - len(title)))


def main():
    src = bd.NoiseSource.seeded(7)
    data = bd.Dataset(src.uniforms01(500))
    print(f"dataset: n={data.n}, d={data.d}, mean={data.values.mean():.4f}")

    banner("Prepare once, release repeatedly")
    prep = bd.prepare("bezier_variance", data)
    print(f"  mechanism     : {prep.mechanism_id}")
    print(f"  exact variance: {prep.exact_value:.6f}")
    print(f"  clip range    : [{prep.clip_range.lo}, {prep.clip_range.hi}]")
    for eps in (0.5, 1.0, 4.0):
        est = prep.run(eps, bd.NoiseSource.seeded(100 + int(eps * 10)))
        err = est.value - prep.exact_value
        print(f"  eps={eps:<4}: value {est.value:.6f}  (error {err:+.6f})")

    banner("The audit trail of one release")
    est = prep.run(1.0, bd.NoiseSource.seeded(11))
    print(f"  value = {est.value:.6f} at eps = {est.epsilon}")
    print("  noisy aggregates the value was computed from:")
    for key, val in est.noisy_aggregates.items():
        print(f"    {key:>8} = {val:.6f}")
    print("  (b_j~ are the noisy basis cells; n~, s_x~, s_x2~ the recovered sums)")

    banner("Zero noise reproduces the exact statistic bit for bit")
    for mid in ("bezier_variance", "naive_variance", "improved_variance"):
        p = bd.prepare(mid, data)
        got = p.run_value(1.0, bd.NoiseSource.zero())
        print(f"  {mid:<22} zero-noise == exact: {got == p.exact_value}")

    banner("Replay sources pin the draw order for tests")
    replay = bd.NoiseSource.replay([0.3, -0.4, 0.12])
    est = prep.run(1.0, replay)
    print("  injected draws [0.3, -0.4, 0.12] into the three basis cells")
    print(f"  released value: {est.value:.6f}  (draws consumed: {replay.draws})")

    banner("Full coefficient release (degree 2)")
    rel = bd.prepare_moment_release(data, 2)
    exact = bd.moments_unnormalized(data, 2)
    noisy = rel.run_value(1.0, bd.NoiseSource.seeded(13))
    for j in range(3):
        print(
            f"  sum x^{j}: private {noisy[j]:>12.6f}   exact {exact[j]:>12.6f}"
            f"   per-release MSE prediction {bd.moment_release_mse(2, j, 1.0):.3f}"
        )
    print("  (every downstream statistic of this vector is free post-processing)")


if __name__ == "__main__":
    main()
