"""Reference oracles for the Monte Carlo layer.

`unblocked_frontiers` is the unblocked scan: it hashes every (trial, site) of
all S tracked sites, converts each hash to a float uniform and draws each
site's reach by comparing floats with the MC's law, `frogz.mc._miss_probs`
(the first-passage sums of `frogz.exact._reach_sums`, made monotone in d and
raised to the N-th power).  The blocked, early-exit scan in `frogz.mc`, which
compares integers against per-block thresholds, must return the same
frontiers.

`miss_law` and `activation_law` are the exact frontier law, independent of
the first-passage sums and of `frogz.mc`'s threshold code: P(R < d) for one
site comes from the 2^L path counts in `Fraction`, and P(E_i) = P(frontier >= i)
from a forward recursion over the excess e_i = max_{j <= i}(j + R_j) - i,
which obeys e_{i+1} = max(e_i - 1, R_{i+1}); the run is alive at site i while
e_i >= 1.

`wilson_interval` is the one-count-at-a-time Wilson interval in Python floats;
`frogz.mc.wilson_interval` on an array of counts must match it bit for bit.

`survival_fields` computes what a run reports from one frontier per trial;
`frogz.mc.estimate_survival`, which reads its counts per distinct frontier, must match it.

`_block_end` is the scan's block schedule in closed form: the end of the block
holding a site, from the site's bit length.  `frogz.mc._frontiers` walks the
blocks one by one and counts the trial-sites it hashes, which must sum to the
block end of each trial's frontier.
"""

import math
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from frogz.exact import _path_counts
from frogz.mc import _BLOCK, _K1, _K2, _miss_probs, _mix


def _block_end(site, S: int):
    """Last site of the scan block holding `site` (an int or an int64 array).

    Blocks double in width from 1 site up to _BLOCK and then keep _BLOCK, so
    they end at 2**k - 1 up to 2 * _BLOCK - 1 and then at every site that is
    -1 mod _BLOCK; the last block ends at S.
    """
    site = np.asarray(site, dtype=np.int64)
    _, bits = np.frexp(site)            # the bit length of each positive site
    return np.minimum(np.minimum((np.int64(1) << bits) - 1, site | (_BLOCK - 1)), S)


def unblocked_frontiers(q: np.ndarray, N: int, L: int, seed: int,
                        trial_lo: int, trial_hi: int) -> np.ndarray:
    """Frontier site h (max activated site in [1, S]) for each trial in the range.

    q[i-1] is the left-step probability of site i; S = len(q) sites are tracked.
    """
    S = len(q)
    trials = np.arange(trial_lo, trial_hi, dtype=np.uint64)
    sites = np.arange(1, S + 1, dtype=np.uint64)

    h1 = _mix(np.uint64(seed) ^ (trials * _K1))                      # (B,)
    h2 = _mix(h1[:, None] ^ (sites * _K2)[None, :])                  # (B,S)
    u = (h2 >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
    # R = #{d : u >= P(R < d)}, the inverse CDF of the site's reach
    reach = (u[None, :, :] >= _miss_probs(q, N, L)[:, None, :]).sum(axis=0)   # (B,S)

    idx = np.arange(1, S + 1, dtype=np.int64)
    far = np.minimum(idx[None, :] + reach, S)
    prefix = np.maximum.accumulate(far, axis=1)
    stuck = prefix == idx[None, :]
    # the last tracked site is always "stuck" after clipping, so argmax is safe
    return 1 + np.argmax(stuck, axis=1)


def miss_law(q: float, N: int, L: int) -> list[Fraction]:
    """P(R < d) for d = 1..L, exact for the float q: no walk of N reaches d.

    Sums p^k q^(L-k) over the L-step paths whose running max is below d,
    k being a path's number of right steps, with p = 1 - q as a rational.
    """
    q = Fraction(q)
    p = 1 - q
    count = _path_counts(L)
    weight = [p ** k * q ** (L - k) for k in range(L + 1)]
    miss, total = [], Fraction(0)
    for d in range(1, L + 1):
        total += sum(c * w for c, w in zip(count[d - 1], weight))
        miss.append(total ** N)
    return miss


def activation_law(q: np.ndarray, N: int, L: int) -> np.ndarray:
    """P(E_i) for i = 1..len(q) + 1, where q[i-1] is the left-step probability of site i.

    v[e] is the probability of being alive with excess e after the sites so
    far; it starts as excess 1 before site 1, so that e_1 = R_1.  Each site
    shifts v down by one and takes the max with the site's reach, whose CDF
    P(R <= x) = P(R < x + 1) is miss_law's, in floats; excess 0 dies.
    """
    cdfs = {}
    v = np.zeros(L + 1)
    v[1] = 1.0
    alive = [1.0]
    for qi in q.tolist():
        if qi not in cdfs:
            cdfs[qi] = np.array([float(m) for m in miss_law(qi, N, L)] + [1.0])
        cdf = np.cumsum(np.append(v[1:], 0.0)) * cdfs[qi]
        v = np.diff(cdf, prepend=0.0)
        v[0] = 0.0
        alive.append(float(v.sum()))
    return np.array(alive)


def wilson_interval(k: int, n: int, level: float = 0.95) -> tuple[float, float]:
    z = NormalDist().inv_cdf(0.5 + level / 2)
    if n == 0:
        return 0.0, 1.0
    phat = k / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def survival_fields(frontiers: np.ndarray, M: int, S: int) -> dict:
    """What `frogz.mc.estimate_survival` reports, from one frontier per trial.

    These are the per-trial formulas the frontier counts replace: the
    frontiers capped at M give the mean, the max and the per-site counts
    (E_i holds iff the frontier reached at least i), and each trial hashes the
    sites up to the end of the scan block holding its frontier.
    """
    capped = np.minimum(frontiers, M)
    hist = np.bincount(capped, minlength=M + 1)
    return {
        "survival_count": int(np.sum(frontiers >= M)),
        "max_site_mean": float(np.mean(capped)),
        "max_site_max": int(np.max(capped)),
        "site_counts": np.cumsum(hist[::-1])[::-1][1:].tolist(),
        "evaluated": int(_block_end(frontiers, S).sum()),
    }
