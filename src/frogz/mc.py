"""Monte Carlo simulation of the activation dynamics on a truncated interval.

Randomness is counter-based: the uniform driving step t of particle p at site
i in trial n is a pure hash of (seed, n, i, p, t).  That makes runs
reproducible bit-for-bit regardless of worker count, and couples configs that
share a seed: raising N appends particles and raising L appends steps without
disturbing existing draws, so activated sets grow monotonically per trial.

Because every walk is nearest-neighbor, the range of one particle is the
interval [i + min cum, i + max cum], and the activated set is always the
interval [1, h] for some frontier h.  A trial therefore reduces to a prefix-
maximum scan over per-site rightmost reaches: the frontier is the first site
h with max_{i <= h} (i + reach_i) == h.

The scan walks the S = M + L tracked sites in blocks that double in width
from 1 site up to 64 and then keep 64, so they end at sites 1, 3, 7, 15, 31,
63, 127, 191, ... (_block_end).  It carries each trial's running prefix
maximum from one block to the next and drops a trial in the block where its
frontier is found, so a trial that dies at site 1 costs one hashed site.
Because every draw is a pure hash, this early exit returns exactly the
frontiers of a full scan.  Trials are split into equal ranges, as many as the
workers or a multiple of that, each hashing at most 2**18 elements
(trials * 64 * N * L) per block, so memory stays near the L2 cache size
whatever the horizon or the trial count, and a site's step law is evaluated
once, when a trial first scans it.  The work a run records as evaluated is,
summed over trials, the end of the block holding the frontier (at most S)
times N * L.  A step goes left when (hash >> 11) < ceil(q * 2**53), which is
exactly the float test (hash >> 11) * 2**-53 < q.  `simulate --profile`
derives the activation profile from the same run (activation_profile), so one
command is one MC pass.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import exact
from .classify import ProcessParams
from .errors import OutOfRangeError, TooLargeError

DEFAULT_WORK_BUDGET = 4_000_000_000  # trials * (M+L) * N * L
_BLOCK = 64                   # a power of 2: the widest scan block, in sites
_CHUNK_ELEMENTS = 2 ** 18     # trials * _BLOCK * N * L hashed at once per range

_K1 = np.uint64(0x9E3779B97F4A7C15)
_K2 = np.uint64(0xC2B2AE3D27D4EB4F)
_K3 = np.uint64(0x165667B19E3779F9)
_K4 = np.uint64(0xD6E8FEB86659FD93)
_SHIFT = np.uint64(11)  # a hash's top 53 bits make its uniform


def _mix(z):
    """splitmix64 finalizer, elementwise on a uint64 array; overwrites and returns z."""
    tmp = np.empty_like(z)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z


@dataclass(frozen=True)
class SimConfig:
    params: ProcessParams
    horizon: int
    trials: int
    seed: int
    ci_level: float = 0.95

    def __post_init__(self):
        if self.horizon <= self.params.L:
            raise OutOfRangeError(f"horizon must exceed L, got {self.horizon}")
        if self.trials < 1:
            raise OutOfRangeError(f"need trials >= 1, got {self.trials}")
        if not (0 < self.ci_level < 1):
            raise OutOfRangeError(f"ci_level must be in (0,1), got {self.ci_level}")
        if not (0 <= self.seed < 2 ** 64):
            raise OutOfRangeError(f"seed must be in [0, 2**64), got {self.seed}")

    def to_dict(self) -> dict:
        return {
            "params": {
                "N": self.params.N,
                "L": self.params.L,
                "spec": self.params.spec.to_dict(),
            },
            "horizon": self.horizon,
            "trials": self.trials,
            "seed": self.seed,
            "ci_level": self.ci_level,
        }


@dataclass(frozen=True)
class SimResult:
    config: SimConfig
    max_sites: np.ndarray        # per-trial max activated site, capped at M
    survival_count: int
    p_hat: float
    ci_low: float
    ci_high: float
    site_counts: np.ndarray      # activation counts for sites 1..M
    work: dict                   # hashed elements: "budgeted" and "evaluated"

    def aggregate_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "result": {
                "trials": self.config.trials,
                "survival_count": self.survival_count,
                "p_hat": self.p_hat,
                "ci_low": self.ci_low,
                "ci_high": self.ci_high,
                "max_site_mean": float(np.mean(self.max_sites)),
                "max_site_max": int(np.max(self.max_sites)),
            },
        }


@dataclass(frozen=True)
class ActivationProfile:
    sites: np.ndarray            # 1..M
    p_hat: np.ndarray            # empirical P(E_i)
    ci_half: np.ndarray          # Wilson half-widths
    lower_curve: np.ndarray      # telescoping bound, nan where undefined


def wilson_interval(k, n: int, level: float = 0.95):
    """Wilson score interval for k successes in n trials; k is one count or an array."""
    z = NormalDist().inv_cdf(0.5 + level / 2)
    if n == 0:
        return 0.0, 1.0
    phat = np.asarray(k) / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return np.maximum(0.0, center - half), np.minimum(1.0, center + half)


def _left_thresholds(q: np.ndarray) -> np.ndarray:
    """Integer thresholds T with (h >> 11) < T exactly when (h >> 11) * 2**-53 < q.

    q * 2**53 is exact in float64, and an integer k is below a real x iff it is
    below ceil(x).  Clipping q to [0, 1] keeps T in [0, 2**53] without changing
    any comparison, since (h >> 11) * 2**-53 always lies in [0, 1).
    """
    return np.ceil(np.clip(q, 0.0, 1.0) * 2.0 ** 53).astype(np.uint64)


def _block_end(site, S: int):
    """Last site of the scan block holding `site` (an int or an int64 array).

    Blocks double in width from 1 site up to _BLOCK and then keep _BLOCK, so
    they end at 2**k - 1 up to 2 * _BLOCK - 1 and then at every site that is
    -1 mod _BLOCK; the last block ends at S.
    """
    site = np.asarray(site, dtype=np.int64)
    _, bits = np.frexp(site)            # the bit length of each positive site
    return np.minimum(np.minimum((np.int64(1) << bits) - 1, site | (_BLOCK - 1)), S)


def _block_thresholds(spec):
    """thresholds(lo, hi): the left-step thresholds of sites lo+1..hi of `spec`.

    Each block is evaluated once, on first use, and shared by every range and
    worker, so no more of the horizon is evaluated than some trial scans.
    """
    @functools.cache
    def thresholds(lo: int, hi: int) -> np.ndarray:
        return _left_thresholds(spec.values(lo + 1, hi + 1))
    return thresholds


def _frontiers(thresholds, S: int, N: int, L: int, seed: int,
               trial_lo: int, trial_hi: int) -> np.ndarray:
    """Frontier site h (max activated site in [1, S]) for each trial in the range.

    thresholds(lo, hi) gives the left-step thresholds of sites lo+1..hi (see
    _left_thresholds).  Sites are scanned in the blocks of _block_end,
    carrying each trial's running prefix maximum from block to block; a trial
    leaves the scan in the block where its frontier is found.
    """
    trials = np.arange(trial_lo, trial_hi, dtype=np.uint64)
    h1 = _mix(np.uint64(seed) ^ (trials * _K1))                      # (B,)
    particles = np.arange(N, dtype=np.uint64)
    steps = np.arange(L, dtype=np.uint64)
    pt = (steps * _K4)[:, None] ^ (particles * _K3)[None, :]         # (L,N)

    frontier = np.empty(len(trials), dtype=np.int64)
    live = np.arange(len(trials))       # positions in `frontier` still scanning
    carry = np.zeros(len(trials), dtype=np.int64)  # prefix max up to the block
    lo = 0                              # sites scanned so far
    while len(live):
        hi = int(_block_end(lo + 1, S))
        idx = np.arange(lo + 1, hi + 1, dtype=np.int64)
        h2 = _mix(h1[:, None] ^ (idx.astype(np.uint64) * _K2)[None, :])   # (B,b)
        # steps lead so the walk below runs over whole contiguous slabs
        h3 = _mix(pt[:, :, None, None] ^ h2[None, None, :, :])            # (L,N,B,b)
        left = np.right_shift(h3, _SHIFT, out=h3) < thresholds(lo, hi)
        del h3
        # position after t+1 steps is t+1 - 2 * (left steps so far); the
        # origin itself counts as visited, so reach is never below 0
        lefts = np.zeros(left.shape[1:], dtype=np.int32)
        reach = np.zeros_like(lefts)
        for t in range(L):
            lefts += left[t]
            np.maximum(reach, t + 1 - 2 * lefts, out=reach)
        reach = reach.max(axis=0)                                    # (B,b)

        far = np.minimum(idx[None, :] + reach, S)
        far[:, 0] = np.maximum(far[:, 0], carry)
        prefix = np.maximum.accumulate(far, axis=1)
        stuck = prefix == idx[None, :]
        # the last tracked site is always "stuck" after clipping, so every
        # trial leaves by the last block
        done = stuck.any(axis=1)
        frontier[live[done]] = lo + 1 + np.argmax(stuck[done], axis=1)
        keep = ~done
        live, h1, carry = live[keep], h1[keep], prefix[keep, -1]
        lo = hi
    return frontier


def _check_budget(cfg: SimConfig) -> int:
    S = cfg.horizon + cfg.params.L
    work = cfg.trials * S * cfg.params.N * cfg.params.L
    if work > DEFAULT_WORK_BUDGET:
        raise TooLargeError(
            f"trials*sites*N*L = {work} exceeds the work budget {DEFAULT_WORK_BUDGET}"
        )
    return S


def run_trials(cfg: SimConfig, threads: int = 1) -> np.ndarray:
    """Frontier sites for all trials; deterministic in (config, seed) only."""
    S = _check_budget(cfg)
    N, L = cfg.params.N, cfg.params.L
    thresholds = _block_thresholds(cfg.params.spec)
    per_trial = min(_BLOCK, S) * N * L
    workers = max(1, min(threads, os.cpu_count() or 1))
    # equal ranges within the chunk bound, as many as the workers or a multiple
    # of it, so that every worker gets the same share
    count = -(-cfg.trials * per_trial // _CHUNK_ELEMENTS)
    count = min(-(-count // workers) * workers, cfg.trials)
    bounds = [k * cfg.trials // count for k in range(count + 1)]
    ranges = list(zip(bounds[:-1], bounds[1:]))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(lambda r: _frontiers(thresholds, S, N, L, cfg.seed, *r), ranges))
    return np.concatenate(parts)


def simulate_trial(params: ProcessParams, M: int, trial: int, seed: int):
    """One trial: (max activated site capped at M, the activated site set)."""
    if M <= params.L:
        raise OutOfRangeError(f"horizon must exceed L, got {M}")
    h = int(_frontiers(_block_thresholds(params.spec), M + params.L, params.N, params.L,
                       seed, trial, trial + 1)[0])
    return min(h, M), frozenset(range(1, h + 1))


def estimate_survival(cfg: SimConfig, threads: int = 1) -> SimResult:
    """Survival-to-horizon estimate with a Wilson interval, plus per-site counts."""
    M = cfg.horizon
    frontiers = run_trials(cfg, threads=threads)
    survived = int(np.sum(frontiers >= M))
    lo, hi = map(float, wilson_interval(survived, cfg.trials, cfg.ci_level))
    hist = np.bincount(np.minimum(frontiers, M), minlength=M + 1)
    # E_i holds iff the frontier reached at least i
    site_counts = np.cumsum(hist[::-1])[::-1][1:]
    N, L = cfg.params.N, cfg.params.L
    S = M + L
    # a trial is scanned up to the end of the block holding its frontier
    scanned = _block_end(frontiers, S)
    return SimResult(
        config=cfg,
        max_sites=np.minimum(frontiers, M),
        survival_count=survived,
        p_hat=survived / cfg.trials,
        ci_low=lo,
        ci_high=hi,
        site_counts=site_counts,
        work={"budgeted": cfg.trials * S * N * L,
              "evaluated": int(scanned.sum()) * N * L},
    )


def _profile_blocks(cfg: SimConfig) -> tuple[int, int]:
    """Blocks [1, M-L) of the lower curve: block n bounds site n+L+1 = L+2..M."""
    return 1, cfg.horizon - cfg.params.L


def check_profile(cfg: SimConfig) -> None:
    """Refuse, before any MC, a profile whose exact curve the exact layer would refuse."""
    start, stop = _profile_blocks(cfg)
    exact.check_blocks(stop - start, cfg.params.L)


def activation_profile(result: SimResult) -> ActivationProfile:
    """Empirical P(E_i) per site of a finished run, with the telescoping lower-bound curve.

    The curve anchors at the empirical P(E_{L+1}) and multiplies the exact
    block factors (1 - a_k): site n+L+1 gets P(E_{L+1}) * prod_{k=1..n}(1-a_k).
    """
    cfg = result.config
    M, L = cfg.horizon, cfg.params.L
    n_trials = cfg.trials
    p = result.site_counts / n_trials
    lo, hi = wilson_interval(result.site_counts, n_trials, cfg.ci_level)
    half = (hi - lo) / 2
    curve = np.full(M, np.nan)
    # anchored at P(E_{L+1}); SimConfig's M > L makes that site tracked
    an = exact.a_n_array(cfg.params.spec, cfg.params.N, L, *_profile_blocks(cfg))
    curve[L + 1:] = p[L] * np.cumprod(1.0 - an)
    return ActivationProfile(sites=np.arange(1, M + 1), p_hat=p, ci_half=half, lower_curve=curve)


def estimate_activation_profile(cfg: SimConfig, threads: int = 1) -> ActivationProfile:
    """Run the MC for `cfg` and return its activation profile."""
    return activation_profile(estimate_survival(cfg, threads=threads))
