"""Reference oracles for the Monte Carlo layer.

`unblocked_frontiers` is the unblocked scan: it hashes every (trial, site,
particle, step) of all S tracked sites and converts each hash to a float
uniform.  The blocked, early-exit scan in `frogz.mc` must return the same
frontiers.  `wilson_interval` is the one-count-at-a-time Wilson interval in
Python floats; `frogz.mc.wilson_interval` on an array of counts must match it
bit for bit.
"""

import math
from statistics import NormalDist

import numpy as np

from frogz.mc import _K1, _K2, _K3, _K4, _mix


def unblocked_frontiers(q: np.ndarray, N: int, L: int, seed: int,
                        trial_lo: int, trial_hi: int) -> np.ndarray:
    """Frontier site h (max activated site in [1, S]) for each trial in the range.

    q[i-1] is the left-step probability of site i; S = len(q) sites are tracked.
    """
    S = len(q)
    trials = np.arange(trial_lo, trial_hi, dtype=np.uint64)
    sites = np.arange(1, S + 1, dtype=np.uint64)
    particles = np.arange(N, dtype=np.uint64)
    steps = np.arange(L, dtype=np.uint64)

    h1 = _mix(np.uint64(seed) ^ (trials * _K1))                      # (B,)
    h2 = _mix(h1[:, None] ^ (sites * _K2)[None, :])                  # (B,S)
    pt = (particles * _K3)[:, None] ^ (steps * _K4)[None, :]         # (N,L)
    h3 = _mix(h2[:, :, None, None] ^ pt[None, None, :, :])           # (B,S,N,L)
    u = (h3 >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)

    moves = np.where(u < q[None, :, None, None], -1, 1).astype(np.int32)
    cum = np.cumsum(moves, axis=3)
    # rightmost reach of any of the N walks from each site (never below 0:
    # the origin itself counts as visited)
    reach = np.maximum(cum.max(axis=3).max(axis=2), 0)               # (B,S)

    idx = np.arange(1, S + 1, dtype=np.int64)
    far = np.minimum(idx[None, :] + reach, S)
    prefix = np.maximum.accumulate(far, axis=1)
    stuck = prefix == idx[None, :]
    # the last tracked site is always "stuck" after clipping, so argmax is safe
    return 1 + np.argmax(stuck, axis=1)


def wilson_interval(k: int, n: int, level: float = 0.95) -> tuple[float, float]:
    z = NormalDist().inv_cdf(0.5 + level / 2)
    if n == 0:
        return 0.0, 1.0
    phat = k / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)
