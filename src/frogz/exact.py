"""Exact finite computations for the finite-lifetime walk system.

Single-walk reach probabilities from first-passage sums (with a 2^L
path-enumeration oracle), the block quantities a_n, the two-sided sandwich
bounds around them, and truncated survival products.

_first_passage is the package's one reach law, on an array of walks at once.
_reach_sums runs it for every displacement d = 1..L of each walk (the Monte
Carlo's mc._miss_probs, and `reach_prob` as an array of one); tables, profiles
and bound checks run it in `_block_grid`, once per (block, position) cell at
the cell's displacement.  A batched value is bit-identical to a one-walk value:
every element goes through the same IEEE operations in the same order, and
powers use Python's `**` on each element, never np.power, whose last bit can
differ.  The sums are float64 only: a step probability of another number type
(a fractions.Fraction, say) is converted once with float() where it enters,
and exact rationals live only in the path-count oracle, brute_force_reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import BoundViolationError, OutOfRangeError, TooLargeError
from .sequences import SequenceSpec

ENUMERATION_MAX_STEPS = 20  # 2^L guard for the brute-force oracle
_DP_CELLS = 1 << 14         # cells of a chunk's (blocks, L) grid: _DP_CELLS // L blocks
_LDEXP_MAX = 2200           # 2^2200 * (smallest subnormal) already exceeds 1
_DP_WORK_MAX = 4 * 10**9    # blocks * L^3 of a block query, which sums ~blocks L^2 3/4 terms


def f(j: int, L: int | None = None) -> int:
    """Left-jump budget floor((j+1)/2) for block position j."""
    if j < 1 or (L is not None and j > L):
        raise OutOfRangeError(f"block position {j} outside [1, {L}]")
    return (j + 1) // 2


def b(N: int, L: int) -> int:
    """Extinction/survival threshold exponent: N * sum of f(j) over a block."""
    if N < 1 or L < 1:
        raise OutOfRangeError(f"need N >= 1 and L >= 1, got N={N}, L={L}")
    if L % 2 == 1:
        return N * ((L + 1) // 2) ** 2
    return N * (L * (L + 2)) // 4


def _p_right_error(p) -> OutOfRangeError:
    return OutOfRangeError(f"p_right must be in (0,1), got {p}")


@dataclass(frozen=True)
class WalkLaw:
    """One +-1 walk: right-step probability and a fixed number of steps."""

    p_right: float
    steps: int

    def __post_init__(self):
        if not (0 < self.p_right < 1):
            raise _p_right_error(self.p_right)
        if self.steps < 1:
            raise OutOfRangeError(f"steps must be >= 1, got {self.steps}")


def _first_passage(term: np.ndarray, pq: np.ndarray) -> np.ndarray:
    """reach[d-1] = P(an L-step walk reaches d), for rows d = 1..L of walks with
    term[d-1] = p^d and pq[d-1] = p q, p = 1 - q being the right-step probability.
    A walk first reaches d at step t = d + 2j with probability g_j = (d/t) C(t, j)
    p^(d+j) q^j (the ballot numbers; Feller, vol. 1, ch. III): reach sums these at
    t <= L in increasing t, g_j = g_{j-1} * pq (t-2)(t-1) / (j (d+j)) from g_0 = p^d.
    A term depends on (q, d, j) only: a longer lifetime only appends terms.
    """
    L = len(term)
    reach = term.copy()
    d = np.arange(1, L + 1)
    for j in range(1, (L + 1) // 2):
        t = d[:L - 2 * j] + 2 * j
        term = term[:L - 2 * j] * (((t - 2) * (t - 1) / (j * (t - j)))[:, None] * pq[:L - 2 * j])
        reach[:L - 2 * j] += term
    return reach


def _reach_sums(q: np.ndarray, L: int) -> np.ndarray:
    """_first_passage for d = 1..L of walks with left-step probabilities q (taken as
    given: 1 - q may round to 1), with p^d = p^(d-1) * p: an (L, sites) array."""
    p = 1.0 - q
    term = np.empty((L, q.size))
    term[0] = p
    for d in range(1, L):
        np.multiply(term[d - 1], p, out=term[d])
    return _first_passage(term, np.broadcast_to(p * q, term.shape))


def reach_prob(law: WalkLaw, d: int) -> float:
    """P(running max of the walk reaches displacement d within its steps), a float."""
    if d < 1:
        raise OutOfRangeError(f"displacement must be >= 1, got {d}")
    if d > law.steps:
        return 0.0
    q = np.array([1 - float(law.p_right)])
    return _reach_sums(q, law.steps)[d - 1].tolist()[0]


@lru_cache(maxsize=None)
def _path_counts(L: int) -> tuple[tuple[int, ...], ...]:
    """count[m][k]: how many of the 2^L step sequences have running max m and k right steps.

    Every sequence is enumerated, one step at a time, as int8 arrays of its
    position, running max and right steps: a few bytes per sequence.
    """
    pos = top = ups = np.zeros(1, dtype=np.int8)
    for _ in range(L):
        right = pos + 1
        pos = np.concatenate([right, pos - 1])
        top = np.concatenate([np.maximum(top, right), top])
        ups = np.concatenate([ups + 1, ups])
    cells = (L + 1) ** 2
    count = np.zeros(cells, dtype=np.int64)
    chunk = 1 << 16
    for i in range(0, top.size, chunk):
        key = top[i:i + chunk].astype(np.intp) * (L + 1) + ups[i:i + chunk]
        count += np.bincount(key, minlength=cells)
    return tuple(map(tuple, count.reshape(L + 1, L + 1).tolist()))


def check_enumeration(L: int) -> None:
    """Refuse a 2^L path enumeration beyond ENUMERATION_MAX_STEPS steps."""
    if L > ENUMERATION_MAX_STEPS:
        raise TooLargeError(f"enumeration guarded at L <= {ENUMERATION_MAX_STEPS}, got {L}")


def brute_force_reach(law: WalkLaw, d: int):
    """Independent oracle for reach_prob: exhaustive 2^L path enumeration.

    Sums count * p^k * q^(L-k) over the paths whose running max is at least d,
    k being a path's number of right steps.
    """
    if d < 1:
        raise OutOfRangeError(f"displacement must be >= 1, got {d}")
    check_enumeration(law.steps)
    L = law.steps
    if d > L:
        return 0.0
    p = law.p_right
    q = 1 - p
    count = _path_counts(L)
    return sum(sum(row[k] for row in count[d:]) * p ** k * q ** (L - k)
               for k in range(L + 1))


def _block_grid(q: np.ndarray, N: int, L: int):
    """The sandwich of a (blocks, L) grid of left-step probabilities q, cell
    [i, j - 1] being block i's walk at position j: the grids lower <= miss <= upper
    and, per block, None or (j, error) for its first walk that fails as WalkLaw
    would, its 1 - q outside (0, 1).  miss = (1 - reach)^N, one _first_passage
    sum per cell at its displacement d = L + 1 - j, in rows by d, with p^d =
    p^(d-1) * p as in _reach_sums.  lower = q^(N f(j)).  upper = min(1, 2^(NL) lower)
    scales lower exactly, never forming the float 2^(NL) (it overflows once
    NL >= 1024); where lower fell below the normal floats and lost its digits,
    it comes from logs: 2^(NL + N f(j) log2 q).
    """
    if N < 1:
        raise OutOfRangeError(f"need N >= 1, got {N}")
    if L < 1:
        raise OutOfRangeError(f"need L >= 1, got {L}")
    try:
        float(N * L)
    except OverflowError as exc:
        raise OutOfRangeError("N*L is too large for float bounds") from exc
    by_d = np.ascontiguousarray(q.T[::-1])
    p = 1.0 - by_d
    term = p.copy()
    for d in range(1, L):
        term[d:] *= p[d:]
    miss = (1 - _first_passage(term, p * by_d))[::-1].T
    lower, upper = np.empty(q.shape), np.empty(q.shape)
    for j in range(1, L + 1):
        col, k = q[:, j - 1], N * f(j, L)
        low = np.array([x ** k for x in col.tolist()])
        with np.errstate(over="ignore", divide="ignore"):
            up = np.ldexp(low, min(N * L, _LDEXP_MAX))
            tiny = low < np.finfo(np.float64).tiny
            if tiny.any():
                up[tiny] = np.exp2(N * L + k * np.log2(col[tiny]))
        lower[:, j - 1], upper[:, j - 1] = low, np.minimum(1.0, up)
        miss[:, j - 1] = [m ** N for m in miss[:, j - 1].tolist()]
    p = 1 - q
    fails = [None] * len(q)
    for i, j in reversed(np.argwhere(~((0 < p) & (p < 1))).tolist()):
        fails[i] = (j + 1, _p_right_error(p[i, j].item()))
    return lower, miss, upper, fails


def check_blocks(blocks: int, L: int) -> None:
    """Refuse an empty block, or a query of more than _DP_WORK_MAX blocks * L^3."""
    if L < 1:
        raise OutOfRangeError(f"need L >= 1, got {L}")
    if blocks * L**3 > _DP_WORK_MAX:
        raise TooLargeError(
            f"{blocks} blocks at L={L}: blocks*L^3 = {blocks * L**3} exceeds {_DP_WORK_MAX}")


def _blocks(spec: SequenceSpec, N: int, L: int, start: int, stop: int):
    """Yield (lower, a_n, upper) for blocks n = start, ..., stop - 1, in order: the
    position-order products of a row of _block_grid, one grid per _DP_CELLS // L
    blocks, a window view of one spec.values call (block n's walk at position j
    starts from site n + j).  A failing walk raises when its block is reached, the
    first error a block-by-block, position-by-position loop meets.  An empty block,
    or a query of more than _DP_WORK_MAX blocks * L^3, is refused before any q is formed.
    """
    if start < 0:
        raise OutOfRangeError(f"block index must be >= 0, got {start}")
    check_blocks(stop - start, L)
    size = max(1, _DP_CELLS // L)
    for first in range(start, stop, size):
        B = min(stop, first + size) - first
        q = np.lib.stride_tricks.sliding_window_view(spec.values(first + 1, first + B + L), L)
        lo, miss, up, fails = _block_grid(q, N, L)
        lower = a = upper = np.ones(B)
        for j in range(L):
            lower, a, upper = lower * lo[:, j], a * miss[:, j], upper * up[:, j]
        done = next((i for i, fail in enumerate(fails) if fail), B)
        yield from zip(lower[:done].tolist(), a[:done].tolist(), upper[:done].tolist())
        if done < B:
            raise fails[done][1]


def a_n(spec: SequenceSpec, N: int, L: int, n: int):
    """P(no particle from the block {n+1, ..., n+L} ever visits site n+L+1)."""
    return next(_blocks(spec, N, L, n, n + 1))[1]


def a_n_array(spec: SequenceSpec, N: int, L: int, start: int, stop: int) -> np.ndarray:
    """a_n for blocks n in [start, stop), one first-passage sum per (block, position) walk."""
    return np.fromiter((an for _, an, _ in _blocks(spec, N, L, start, stop)), dtype=np.float64)


class BoundReport(NamedTuple):
    j: int
    q: float
    lower: float
    prob: float
    upper: float


def _within(lower: float, prob: float, upper: float) -> bool:
    """The sandwich test lower <= prob <= upper, with a relative slack of 1e-12 for rounding."""
    slack = 1 + 1e-12
    return lower <= prob * slack and prob <= upper * slack


def bound_reports(specs: list[SequenceSpec], N: int, L: int, n: int) -> list:
    """bound_check of block n for several specs, one grid row per spec: each spec's
    reports, or the error its bound_check raises (the first in position order).
    """
    q = np.array([spec.values(n + 1, n + L + 1) for spec in specs]).reshape(len(specs), L)
    lower, miss, upper, fails = _block_grid(q, N, L)
    outcomes = []
    for row, *cells, fail in zip(q.tolist(), lower.tolist(), miss.tolist(), upper.tolist(), fails):
        stop, error = fail or (L + 1, None)
        reports = [BoundReport(j, *cell) for j, cell in enumerate(zip(row, *cells), 1)][:stop - 1]
        wrong = [rep for rep in reports if not _within(rep.lower, rep.prob, rep.upper)]
        if wrong:
            error = BoundViolationError(f"sandwich violated: {wrong[0]}")
        outcomes.append(reports if error is None else error)
    return outcomes


def bound_check(spec: SequenceSpec, N: int, L: int, n: int) -> list[BoundReport]:
    """Sandwich q^(N f(j)) <= P(n+j not-> n+L+1) <= 2^(NL) q^(N f(j)) per position.

    Raises BoundViolationError on failure: the bounds always hold, so a
    violation means a bug in the engine.
    """
    (outcome,) = bound_reports([spec], N, L, n)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def partial_survival_product(spec: SequenceSpec, N: int, L: int, M: int, start: int = 0):
    """prod over M consecutive blocks (from index `start`) of (1 - a_n).

    With start = 0 this is the truncated survival factor whose limit, for
    L = 1, is the closed product prod_i (1 - q_i^N).
    """
    if M < 1:
        raise OutOfRangeError(f"need M >= 1, got {M}")
    prod = 1.0
    for _, an, _ in _blocks(spec, N, L, start, start + M):
        prod *= 1.0 - an
        if prod == 0.0:
            break
    return prod


class ReachRow(NamedTuple):
    n: int
    a_n: float
    lower: float
    upper: float
    partial_product: float


def build_reach_table(spec: SequenceSpec, N: int, L: int, n_max: int) -> tuple[ReachRow, ...]:
    """Rows n = 0..n_max with a_n, its sandwich bounds, and the running product."""
    if N < 1 or L < 1:
        raise OutOfRangeError(f"need N >= 1 and L >= 1, got N={N}, L={L}")
    if n_max < 0:
        raise OutOfRangeError(f"need n_max >= 0, got {n_max}")
    rows = []
    prod = 1.0
    for n, (lower, an, upper) in enumerate(_blocks(spec, N, L, 0, n_max + 1)):
        if not _within(lower, an, upper):
            raise BoundViolationError(f"sandwich violated at n={n}: {lower} {an} {upper}")
        prod *= 1.0 - an
        rows.append(ReachRow(n=n, a_n=an, lower=lower, upper=upper, partial_product=prod))
    return tuple(rows)
