#!/usr/bin/env python3
"""The covariance ladder: naive -> improved -> basis-driven.

Three add-remove covariance mechanisms, three very different prices:

    naive_covariance     perturbs (n, sum x, sum y, sum xy), each with
                         sensitivity-4 budget splitting  -> ~ 50/eps^2
    improved_covariance  perturbs (n, n*cov) with sensitivity 2 each
                         -> ~ 8/eps^2
    bezier_covariance    perturbs the degree-1 tensor aggregate, total
                         sensitivity 1  -> ~ 0.5/eps^2 on uniform pairs

That is roughly 100 : 16 : 1 at every epsilon.  The demo measures all three
on the same fixed dataset and compares with the analytic predictions.
"""

import numpy as np

import bezier_dp as bd
from bezier_dp.noise import derive_seed


def mc_normalized(mechanism_id, data, eps, trials, seed):
    """n^2 * mean squared error over `trials` releases, drawn as one block."""
    prep = bd.prepare(mechanism_id, data)
    src = bd.NoiseSource.seeded(seed)
    noise = src.laplace_vector(prep.scale(eps), trials * prep.cells)
    err = prep.kernel(noise.reshape(trials, prep.cells)) - prep.exact_value
    return data.n**2 * float(np.sum(err * err)) / trials


def main():
    n, trials = 2000, 10_000
    src = bd.NoiseSource.seeded(505)
    data = bd.Dataset(src.uniforms01(2 * n).reshape(n, 2))
    print(f"independent uniform pairs, n={n}; {trials} trials per cell")
    print()
    header = (
        f"{'eps':>5}{'mechanism':>24}{'norm. MSE':>12}{'predicted':>12}{'vs bezier':>11}"
    )
    print(header)
    print("-" * len(header))
    mechanisms = ("naive_covariance", "improved_covariance", "bezier_covariance")
    for ei, eps in enumerate((0.3, 1.0)):
        got = {
            mid: mc_normalized(mid, data, eps, trials, derive_seed(506, ei, mi))
            for mi, mid in enumerate(mechanisms)
        }
        for mid in mechanisms:
            pred = bd.predicted_normalized_mse(mid, data, eps)
            times = got[mid] / got["bezier_covariance"]
            print(f"{eps:>5}{mid:>24}{got[mid]:>12.3f}{pred:>12.3f}{times:>10.1f}x")
        print("-" * len(header))
    print()
    print("swapping the naive release for the basis-driven one buys back the")
    print("same accuracy at a ~10x smaller epsilon -- or ~100x less MSE at a")
    print("fixed privacy budget")


if __name__ == "__main__":
    main()
