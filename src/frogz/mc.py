"""Monte Carlo simulation of the activation dynamics on a truncated interval.

Because every walk is nearest-neighbor, the range of one particle is the
interval [i + min cum, i + max cum], and the activated set is always the
interval [1, h] for some frontier h.  A trial therefore depends on site i only
through R_i in 0..L, the furthest right reach of its N particles within L
steps, and reduces to a prefix-maximum scan: the frontier is the first site h
with max_{i <= h} (i + R_i) == h.

The law of R_i is exact: P(R_i < d) = (1 - reach(q_i, L, d))^N
(_miss_probs), where reach is the single-walk first-passage sum of the exact
layer (exact._first_passage), the same law its block quantities a_n read.  One
uniform per (trial, site) then draws R_i by inverse CDF:
R_i = #{d in 1..L : u >= P(R_i < d)}, compared as integers against
T_{i,d} = ceil(P(R_i < d) * 2**53) with u's top 53 bits (_thresholds).

Randomness is counter-based: the uniform of site i in trial n is a pure hash
of (seed, n, i), splitmix64's finalizer of h_n ^ (i * K2), where h_n is the
finalizer of seed ^ (n * K1).  The finalizer's first step, z ^ (z >> 30),
distributes over xor, so each trial's h_n and each site's key are folded
once (_fold) and a trial-site costs one xor and the remaining steps
(_mix_folded).  That makes runs reproducible bit-for-bit whatever the range
and slice sizes, and couples configs that share a seed: raising N or L lowers
every P(R_i < d) or leaves it, so for the same uniform R_i only grows, and
activated sets grow monotonically per trial.  The float arithmetic keeps that
order by construction: each reach is a sequential prefix sum in increasing t
of terms that do not depend on L, followed by a running minimum over d, and
the N-th power is formed by repeated multiplication by a factor <= 1, so the
thresholds are nondecreasing in d and nonincreasing in N and in L.

The scan walks the S = M + L tracked sites in blocks that double in width
from 1 site up to 64 and then keep 64, so they end at sites 1, 3, 7, 15, 31,
63, 127, 191, ... and at S.  Trials are split into ceil(trials / 2**14)
equal ranges, scanned one after another in the calling thread: a second
thread does not pay, since every numpy call hands the GIL between them.
Each block is scanned in slices of at most 3 * 2**14 trial-sites: a row of
all of a range's live trials, the inner axis, by as many of the block's
sites as fill the slice, so a site's key and thresholds broadcast over long
contiguous rows and the scan makes few, long numpy calls.  Since R_i <= L,
site k is the frontier exactly when R_k = 0, no site among the L - 1 before
it reaches past it, and no earlier slice does either: R is counted in uint8
(uint16 for L >= 256), the in-slice test is L - 1 shifted comparisons of R,
and each trial carries the furthest site its earlier slices reach.  A trial leaves the scan at the end
of the block where its frontier is found, so a trial that dies at site 1
costs one hashed site.  Because every draw is a pure hash, this early exit
returns exactly the frontiers of a full scan.  A slice is hashed whole into
two reused uint64 arrays, the hashes and _mix_folded's scratch, and once the
hashes are mixed the scratch bytes hold the stuck mask, a comparison mask
and the reach counts: the scan holds 16 bytes per slice element (768 KiB),
plus 2 per element of a slice's last L - 1 rows, whatever the horizon or the
trial count.  Thresholds are evaluated in stretches, one at a time: a
stretch starts at a block and doubles with the blocks up to _CHUNK_ELEMENTS
// L sites in whole blocks (at least one), so each site is evaluated once:
about L^2/4 first-passage terms and at most N*L multiplications per site, in
O(log S + S*L/_CHUNK_ELEMENTS) calls.  Only a run of several ranges keeps its
stretches, shared by its ranges, which rescan the same sites; the work guard
holds those under 2 MiB.  A run keeps one count per distinct frontier,
capped at M (at most one per trial, whatever the horizon), and every number
it reports reads these counts.  The scan counts the trial-sites it hashes,
its live trials times the width of each block, as the work evaluated.
`simulate --profile` derives the activation profile from the same run
(activation_profile), so one command is one MC pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import exact
from .classify import ProcessParams
from .errors import OutOfRangeError, TooLargeError
from .exact import _reach_sums

DEFAULT_WORK_BUDGET = 4_000_000_000  # (M+L) * L * max(trials, N, L)
_BLOCK = 64                   # a power of 2: the widest scan block, in sites
_CHUNK_ELEMENTS = 3 * 2 ** 14  # trial-sites per scan slice; about L * sites per threshold stretch
_RANGE_TRIALS = 2 ** 14       # the most trials one range scans: <= _CHUNK_ELEMENTS, one slice row

_K1 = np.uint64(0x9E3779B97F4A7C15)
_K2 = np.uint64(0xC2B2AE3D27D4EB4F)
_SHIFT = np.uint64(11)  # a hash's top 53 bits make its uniform
# splitmix64's finalizer after its first xorshift: multiply, then xorshift
_MIX_STEPS = ((np.uint64(0xBF58476D1CE4E5B9), np.uint64(27)),
              (np.uint64(0x94D049BB133111EB), np.uint64(31)))


def _fold(z):
    """z ^ (z >> 30), the first step of the splitmix64 finalizer, as a new array.

    A logical right shift distributes over xor, so _fold(a ^ b) equals
    _fold(a) ^ _fold(b): a site key and a trial hash folded once each make
    the folded hash of every (trial, site) with one xor.
    """
    return z ^ (z >> np.uint64(30))


def _mix_folded(z, tmp):
    """The splitmix64 finalizer after its first xorshift, elementwise on a uint64
    array that _fold made; overwrites and returns z.  tmp is scratch of z's shape.
    """
    for mult, shift in _MIX_STEPS:
        z *= mult
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
    return z


def _mix(z):
    """splitmix64 finalizer, elementwise on a uint64 array, as a new array."""
    z = _fold(z)
    return _mix_folded(z, np.empty_like(z))


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


class SimResult(NamedTuple):
    config: SimConfig
    sites: np.ndarray            # max activated sites capped at M, increasing but for repeats of M
    counts: np.ndarray           # trials per entry of sites
    survival_count: int
    p_hat: float
    ci_low: float
    ci_high: float
    work: dict                   # hashed trial-sites: "budgeted" and "evaluated"

    @property
    def site_counts(self) -> np.ndarray:
        """Activation counts for sites 1..M, built on demand: O(M) memory."""
        hist = np.zeros(self.config.horizon + 1, dtype=np.int64)
        np.add.at(hist, self.sites, self.counts)
        # E_i holds iff the frontier reached at least i
        return np.cumsum(hist[::-1])[::-1][1:]

    def aggregate_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "result": {
                "trials": self.config.trials,
                "survival_count": self.survival_count,
                "p_hat": self.p_hat,
                "ci_low": self.ci_low,
                "ci_high": self.ci_high,
                # an exact int total, so the mean is correctly rounded
                "max_site_mean": int(self.sites @ self.counts) / self.config.trials,
                "max_site_max": int(self.sites[-1]),
            },
        }


class ActivationProfile(NamedTuple):
    sites: np.ndarray            # 1..M
    p_hat: np.ndarray            # empirical P(E_i)
    ci_half: np.ndarray          # Wilson half-widths
    lower_curve: np.ndarray      # telescoping bound, nan where undefined


def wilson_interval(k, n: int, level: float = 0.95):
    """Wilson score interval for k successes in n trials; k is one count or an array."""
    from statistics import NormalDist   # imported here: only simulate needs it
    z = NormalDist().inv_cdf(0.5 + level / 2)
    if n == 0:
        return 0.0, 1.0
    phat = np.asarray(k) / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return np.maximum(0.0, center - half), np.minimum(1.0, center + half)


def _miss_probs(q: np.ndarray, N: int, L: int) -> np.ndarray:
    """P(R < d) for d = 1..L, an (L, sites) array: the chance that none of N
    L-step walks from a site with left-step probability q reaches d.

    Each single-walk reach is a first-passage sum of _reach_sums, in which a
    longer lifetime only appends terms.  A running minimum over d and the N-th
    power by repeated multiplication keep the result nondecreasing in d and
    nonincreasing in N and L; the multiplication stops early, with the same
    result, once the product is a fixed point.  q is taken as given: p = 1 - q
    may round to 1.
    """
    reach = _reach_sums(np.clip(q, 0.0, 1.0), L)
    miss = np.maximum(1.0 - np.minimum.accumulate(reach, axis=0), 0.0)
    power = miss.copy()
    for n in range(1, N):
        # a product that no longer changes (0, 1 or the smallest subnormal,
        # whose products are slow) stays the same for every later n
        if n % 64 == 0 and np.array_equal(power * miss, power):
            break
        power *= miss
    return power


def _thresholds(prob: np.ndarray) -> np.ndarray:
    """Integer thresholds T with (h >> 11) >= T exactly when (h >> 11) * 2**-53 >= prob.

    prob * 2**53 is exact in float64, and an integer k is at least a real x iff
    it is at least ceil(x).  Clipping prob to [0, 1] keeps T in [0, 2**53]
    without changing any comparison, since (h >> 11) * 2**-53 always lies in
    [0, 1).
    """
    return np.ceil(np.clip(prob, 0.0, 1.0) * 2.0 ** 53).astype(np.uint64)


def _frontiers(values, N: int, L: int, S: int, seed: int, trial_lo: int, trial_hi: int,
               work: dict, shared: dict | None = None) -> np.ndarray:
    """Frontier site h (max activated site in [1, S]) for each trial in the range.

    values(a, b) gives the left-step probabilities of sites a..b-1, as
    SequenceSpec.values does.  Sites are scanned in blocks of 1, 2, 4, ...,
    _BLOCK, _BLOCK, ... sites, each in slices of at most _CHUNK_ELEMENTS
    trial-sites: a row of every live trial (a range has at most _RANGE_TRIALS)
    by as many of the block's sites as fill the slice.  Since R_i <= L, site k
    is the frontier when R_k = 0 and no site among the L - 1 before it reaches
    past it, the earlier slices' furthest reach being carried per trial; a
    trial leaves the scan at the end of the block where its frontier is found.
    The thresholds are evaluated in stretches, one at a time: a stretch starts
    at the block that passes the last one and doubles with the blocks up to
    width sites, _CHUNK_ELEMENTS // L in whole blocks and at least one, so
    stretches end on block ends and no site is evaluated twice.  Each block
    adds the trial-sites it hashes to work["evaluated"].
    `shared`, given only in a run of several ranges, keeps each stretch by its
    first site for the ranges that rescan it.
    """
    h1 = _fold(_mix(np.uint64(seed) ^ (np.arange(trial_lo, trial_hi, dtype=np.uint64) * _K1)))
    frontier = np.empty(len(h1), dtype=np.int64)
    live = np.arange(len(h1))           # positions in `frontier` still scanning
    count = np.dtype(np.uint8 if L < 256 else np.uint16)   # reach counts
    # max of i + R_i over the sites scanned, per trial; at L = 1 no site
    # reaches past itself, so there is nothing to carry
    carry = np.zeros(len(h1) if L > 1 else 0, dtype=np.int64)
    lo = 0                              # sites scanned so far
    width = max(1, _CHUNK_ELEMENTS // L // _BLOCK) * _BLOCK   # the widest stretch, in sites
    start = end = 0                     # the stretch holds sites start+1..end
    size = min(_CHUNK_ELEMENTS, _BLOCK * len(h1))
    # a slice's hashes and _mix_folded's scratch; once the hashes are mixed,
    # the scratch bytes hold the stuck mask, a comparison mask and the counts
    words, scratch = np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
    mem = scratch.view(np.uint8)
    while len(live):
        hi = min(2 * lo + 1, lo + _BLOCK, S)   # the block holds sites lo+1..hi
        work["evaluated"] += len(live) * (hi - lo)
        if hi > end:                    # the next stretch starts at this block
            start, end = lo, min(2 * lo + 1, lo + width, S)
            stretch = shared.get(start) if shared is not None else None
            if stretch is None:
                stretch = _thresholds(_miss_probs(values(start + 1, end + 1), N, L))
                if shared is not None:
                    shared[start] = stretch
        table = stretch[:, lo - start:hi - start, None]
        keys = _fold(np.arange(lo + 1, hi + 1, dtype=np.uint64) * _K2)[:, None]   # (sites, 1)
        found = np.zeros(len(live), dtype=bool)
        w = len(live)                   # trials per slice: every live one
        n = size // w                   # sites per slice
        for r in range(0, hi - lo, n):
            rs = slice(r, min(r + n, hi - lo))  # the slice's rows of the block
            b = rs.stop - r
            k = b * w
            first = lo + r + 1          # the slice's first site
            u = np.bitwise_xor(keys[rs], h1, out=words[:k].reshape(b, w))
            _mix_folded(u, scratch[:k].reshape(b, w))
            np.right_shift(u, _SHIFT, out=u)
            stuck = np.less(u, table[0, rs], out=mem[:k].view(np.bool_).reshape(b, w))
            if L > 1:                   # R_i = #{d : u >= T_d}; stuck holds R_i == 0
                mask = mem[k:2 * k].view(np.bool_).reshape(b, w)
                reach = mem[2 * k:(2 + count.itemsize) * k].view(count).reshape(b, w)
                np.logical_not(stuck, out=reach)
                for row in table[1:, rs]:
                    reach += np.greater_equal(u, row, out=mask)
                for m in range(1, min(L, b)):
                    stuck[m:] &= np.less_equal(reach[:-m], m, out=mask[m:])
                tail = min(L - 1, b)    # the last sites, which may reach past the slice
                idx = np.arange(first, first + tail, dtype=np.int64)[:, None]
                stuck[:tail] &= np.greater_equal(idx, carry, out=mask[:tail])
                far = reach[b - tail:] + np.arange(b - tail, b, dtype=np.uint16)[:, None]
                np.maximum(carry, far.max(axis=0) + np.int64(first), out=carry)
            if lo + rs.stop == S:       # every trial leaves by the last site
                stuck[-1] = True
            new = stuck.any(axis=0)
            np.greater(new, found, out=new)        # not found in an earlier slice
            if new.any():
                frontier[live[new]] = first + np.argmax(stuck[:, new], axis=0)
                found |= new
        if found.any():
            keep = np.logical_not(found, out=found)
            live = live[keep]
            h1 = h1[keep]
            if L > 1:
                carry = carry[keep]
        lo = hi
    return frontier


def _check_budget(cfg: SimConfig) -> int:
    S, N, L = cfg.horizon + cfg.params.L, cfg.params.N, cfg.params.L
    work = S * L * max(cfg.trials, N, L)
    if work > DEFAULT_WORK_BUDGET:
        raise TooLargeError(
            f"sites*L*max(trials, N, L) = {work} exceeds the work budget {DEFAULT_WORK_BUDGET}"
        )
    return S


def run_trials(cfg: SimConfig, work: dict | None = None) -> np.ndarray:
    """Frontier sites for all trials; deterministic in (config, seed) only.

    `work`, when given, gets the budgeted (trials * S) and evaluated trial-sites."""
    S = _check_budget(cfg)
    work = {} if work is None else work
    work.update(budgeted=cfg.trials * S, evaluated=0)
    count = -(-cfg.trials // _RANGE_TRIALS)     # equal ranges of at most _RANGE_TRIALS
    bounds = [k * cfg.trials // count for k in range(count + 1)]
    # ranges rescan the same sites; the work guard keeps S * L, and so the
    # stretches they share, under DEFAULT_WORK_BUDGET / _RANGE_TRIALS * 8 bytes
    shared = {} if count > 1 else None
    params = cfg.params
    return np.concatenate([_frontiers(params.spec.values, params.N, params.L, S, cfg.seed,
                                      lo, hi, work, shared)
                           for lo, hi in zip(bounds[:-1], bounds[1:])])


def simulate_trial(params: ProcessParams, M: int, trial: int, seed: int):
    """One trial: (max activated site capped at M, the activated site set)."""
    SimConfig(params, horizon=M, trials=1, seed=seed)   # its horizon and seed rules
    if not 0 <= trial < 2 ** 64:
        raise OutOfRangeError(f"trial must be in [0, 2**64), got {trial}")
    S = M + params.L
    h = int(_frontiers(params.spec.values, params.N, params.L, S, seed, trial, trial + 1,
                       {"evaluated": 0})[0])
    return min(h, M), frozenset(range(1, h + 1))


def estimate_survival(cfg: SimConfig) -> SimResult:
    """Survival-to-horizon estimate with a Wilson interval; per-site counts on demand."""
    M, work = cfg.horizon, {}
    sites, counts = np.unique(run_trials(cfg, work), return_counts=True)   # trials per frontier
    survived = int(counts[sites >= M].sum())
    lo, hi = map(float, wilson_interval(survived, cfg.trials, cfg.ci_level))
    return SimResult(config=cfg, sites=np.minimum(sites, M), counts=counts, survival_count=survived,
                     p_hat=survived / cfg.trials, ci_low=lo, ci_high=hi, work=work)


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
    counts = result.site_counts
    p = counts / cfg.trials
    lo, hi = wilson_interval(counts, cfg.trials, cfg.ci_level)
    half = (hi - lo) / 2
    curve = np.full(M, np.nan)
    # anchored at P(E_{L+1}); SimConfig's M > L makes that site tracked
    an = exact.a_n_array(cfg.params.spec, cfg.params.N, L, *_profile_blocks(cfg))
    curve[L + 1:] = p[L] * np.cumprod(1.0 - an)
    return ActivationProfile(sites=np.arange(1, M + 1), p_hat=p, ci_half=half, lower_curve=curve)


def estimate_activation_profile(cfg: SimConfig) -> ActivationProfile:
    """Run the MC for `cfg` and return its activation profile."""
    return activation_profile(estimate_survival(cfg))
