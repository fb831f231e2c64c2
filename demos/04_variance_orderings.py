#!/usr/bin/env python3
"""Three variance mechanisms, one instance-dependent hierarchy.

All three basis-driven variance mechanisms share the same worst-case
normalized MSE of 2/eps^2, but their *instance* constants differ:

    bezier_variance          2 * C_b(r, v) / eps^2
    variance_via_covariance  2 * C_c(r, v) / eps^2   with C_c = C_b + w1^2
    transformed_variance     2 * C_u(v)    / eps^2

where r and v are the data's mean and variance.  C_b <= C_c <= C_u on every
feasible instance, so the direct release never loses -- and its edge over
the via-covariance route, C_c - C_b = (r(1-r) + v)^2, is largest for
centered data.  The demo shows the analytic constants across beta-sampled
instances and confirms the ordering with Monte Carlo.
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
    print("analytic constants along the beta family (v = (2/3) r (1-r)):")
    print(f"{'mean r':>8}{'C_b':>10}{'C_c':>10}{'C_u':>10}{'C_c - C_b':>12}")
    for r in (0.1, 0.3, 0.5, 0.7, 0.9):
        v = (2.0 / 3.0) * r * (1.0 - r)
        c = bd.instance_constants(r, v)
        print(
            f"{r:>8}{c.bezier:>10.4f}{c.via_covariance:>10.4f}"
            f"{c.transformed:>10.4f}{c.via_covariance - c.bezier:>12.4f}"
        )
    print("-> the via-covariance penalty peaks at r = 0.5; the transformed")
    print("   route pays its large constant whenever the variance is small")

    eps, trials, n = 1.0, 10_000, 400
    print()
    print(f"Monte Carlo on beta samples (n={n}, eps={eps}, {trials} trials):")
    print(f"{'mean r':>8}{'bezier':>10}{'via_cov':>10}{'transf':>10}   ordering")
    for i, r in enumerate((0.1, 0.5, 0.9)):
        cfg = bd.ExperimentConfig(
            mechanisms=["bezier"],
            epsilons=[eps],
            n=n,
            trials=1,
            distribution="beta",
            dist_param=r,
        ).normalized()
        data = bd.generate_dataset(cfg, derive_seed(400, i, 0))
        rb = mc_normalized("bezier_variance", data, eps, trials, derive_seed(401, i, 0))
        rc = mc_normalized(
            "variance_via_covariance", data, eps, trials, derive_seed(401, i, 1)
        )
        ru = mc_normalized(
            "transformed_variance", data, eps, trials, derive_seed(401, i, 2)
        )
        mark = "bezier < via_cov < transformed" if rb < rc < ru else "UNEXPECTED"
        print(f"{r:>8}{rb:>10.3f}{rc:>10.3f}{ru:>10.3f}   {mark}")
    print()
    print("the three curves meet their predictions from instance_constants --")
    print("pick the mechanism whose constant is smallest for your data regime")


if __name__ == "__main__":
    main()
