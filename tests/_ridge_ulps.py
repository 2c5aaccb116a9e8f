"""The closed-form ridge against the bisection, in units in the last place of the 50-digit root.

Draws a seeded sample of one-eigenvalue configs, alpha, sigma and gamma over
the ranges of ``_synth.MP_CONFIGS`` and S^2 over [1e-300, 1e300], and for
each solved config compares ``solve_ridge``'s R and the R of
``_synth.bisect_ridge`` (the bisection route, at the same R_hat) with the
root of ``_synth.mp_ridge``. Errors are counted in units of the float
spacing at the root where the root is a normal float. Prints the counts,
the worst error of each route and how often each is the closer one.

Run from the root of the repository:

    PYTHONPATH=src python tests/_ridge_ulps.py [n_configs] [seed]
"""

import math
import sys

import mpmath as mp
import numpy as np

from itslab import solve_ridge

from _synth import bisect_ridge, mp_ridge


def draw(rng):
    """One config (alpha, sigma, gamma, S^2) over the ranges of MP_CONFIGS, S^2 over [1e-300, 1e300]."""
    kind = rng.integers(3)
    if kind == 0:
        alpha = 10.0 ** rng.uniform(-6, 3)
    elif kind == 1:
        alpha = 1.0
    else:
        alpha = 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6, -1)
    return tuple(float(x) for x in (alpha, 10.0 ** rng.uniform(-150, 1), 10.0 ** rng.uniform(-3, 150),
                                    10.0 ** rng.uniform(-300, 300)))


def main(n_configs=20_000, seed=0):
    rng = np.random.default_rng(seed)
    solved, normal, closer, farther = 0, 0, 0, 0
    worst = {"closed form": (0.0, None), "bisection": (0.0, None)}
    for _ in range(n_configs):
        alpha, sigma, gamma, S2 = draw(rng)
        try:
            de = solve_ridge(alpha, sigma, gamma, S2)
        except ValueError:  # ridgeless, or R_hat or R past the float range
            continue
        solved += 1
        R, R_hat = de.R, de.R_hat
        R_bisect = bisect_ridge(alpha, S2, R_hat) if R_hat > 0.0 else 0.0
        with mp.workdps(50):
            root = mp_ridge(alpha, S2, R_hat, R)[0]
            if not 2.0**-1022 <= root <= sys.float_info.max:
                continue
            normal += 1
            spacing = mp.mpf(math.ulp(float(root)))
            errors = {name: float(abs(mp.mpf(value) - root) / spacing)
                      for name, value in (("closed form", R), ("bisection", R_bisect))}
        for name, error in errors.items():
            if error > worst[name][0]:
                worst[name] = (error, (alpha, sigma, gamma, S2))
        closer += errors["closed form"] < errors["bisection"]
        farther += errors["closed form"] > errors["bisection"]
    print(f"{n_configs} configs drawn (seed {seed}), {solved} solved, {normal} with a normal root")
    for name, (error, config) in worst.items():
        print(f"{name}: worst {error:.3g} ulps at (alpha, sigma, gamma, S^2) = {config}")
    print(f"closed form closer in {closer}, farther in {farther}, as close in {normal - closer - farther}")


if __name__ == "__main__":
    main(*(int(arg) for arg in sys.argv[1:]))
