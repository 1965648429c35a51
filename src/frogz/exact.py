"""Exact finite computations for the finite-lifetime walk system.

Single-walk reach probabilities by dynamic programming (with a 2^L
path-enumeration oracle), non-visit probabilities, the block quantities a_n,
the two-sided sandwich bounds around them, and truncated survival products.

The DP works over whatever number type the step probability carries, so
passing fractions.Fraction gives bit-stable exact-rational fixtures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import BoundViolationError, OutOfRangeError, TooLargeError
from .sequences import SequenceSpec

ENUMERATION_MAX_STEPS = 20  # 2^L guard for the brute-force oracle


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


@dataclass(frozen=True)
class WalkLaw:
    """One +-1 walk: right-step probability and a fixed number of steps."""

    p_right: float
    steps: int

    def __post_init__(self):
        if not (0 < self.p_right < 1):
            raise OutOfRangeError(f"p_right must be in (0,1), got {self.p_right}")
        if self.steps < 1:
            raise OutOfRangeError(f"steps must be >= 1, got {self.steps}")


def reach_prob(law: WalkLaw, d: int):
    """P(running max of the walk reaches displacement d within its steps).

    Forward DP over (time, displacement) with an absorbing barrier at d.
    Conservation (retained + absorbed mass = 1) is asserted at every step.
    """
    if d < 1:
        raise OutOfRangeError(f"displacement must be >= 1, got {d}")
    L = law.steps
    if d > L:
        return 0.0
    p = law.p_right
    q = 1 - p
    one = p + q
    # mass[s + L] = probability of sitting at displacement s, not yet absorbed
    mass = [0 * p] * (L + d)
    mass[L] = one
    absorbed = 0 * p
    exact = not isinstance(p, float)
    for _ in range(L):
        new = [0 * p] * (L + d)
        for idx, m in enumerate(mass):
            if m == 0:
                continue
            up = idx + 1
            if up == L + d:
                absorbed = absorbed + m * p
            else:
                new[up] = new[up] + m * p
            if idx > 0:
                new[idx - 1] = new[idx - 1] + m * q
        mass = new
        total = absorbed + sum(mass)
        if exact:
            assert total == one
        else:
            assert math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-12)
    return absorbed


@lru_cache(maxsize=4096)
def _max_displacement_dist(p, L: int):
    """Running-max distribution by enumerating all 2^L step sequences."""
    q = 1 - p
    dist = [0 * p] * (L + 1)
    for bits in range(1 << L):
        pos = 0
        best = 0
        prob = 1 + 0 * p
        for t in range(L):
            if bits >> t & 1:
                pos += 1
                prob = prob * p
                if pos > best:
                    best = pos
            else:
                pos -= 1
                prob = prob * q
        dist[best] = dist[best] + prob
    return tuple(dist)


def brute_force_reach(law: WalkLaw, d: int):
    """Independent oracle for reach_prob: exhaustive 2^L path enumeration."""
    if d < 1:
        raise OutOfRangeError(f"displacement must be >= 1, got {d}")
    if law.steps > ENUMERATION_MAX_STEPS:
        raise TooLargeError(
            f"enumeration guarded at L <= {ENUMERATION_MAX_STEPS}, got {law.steps}"
        )
    if d > law.steps:
        return 0.0
    dist = _max_displacement_dist(law.p_right, law.steps)
    return sum(dist[d:])


def not_visit_prob(q_i: float, N: int, L: int, delta: int):
    """P(site i + delta is never visited by any of the N walks from site i).

    delta > 0 uses right-step probability 1 - q_i; delta < 0 mirrors the walk.
    The origin itself (delta = 0) is visited at time 0 by definition.
    """
    if delta == 0:
        raise OutOfRangeError("delta = 0: a site always visits itself at time 0")
    if N < 1:
        raise OutOfRangeError(f"need N >= 1, got {N}")
    d = abs(delta)
    if d > L:
        return 1.0
    p = (1 - q_i) if delta > 0 else q_i
    return (1 - reach_prob(WalkLaw(p, L), d)) ** N


def _sandwich(spec: SequenceSpec, N: int, L: int, n: int, j: int):
    """(q, lower, prob, upper) at position j of block n: prob is
    P(no particle from site n+j ever visits n+L+1), and
    lower = q^(N f(j)) <= prob <= upper = min(1, 2^(NL) q^(N f(j)))."""
    q = spec.value(n + j)
    lower = q ** (N * f(j, L))
    return q, lower, not_visit_prob(q, N, L, L + 1 - j), min(1.0, 2 ** (N * L) * lower)


def a_n(spec: SequenceSpec, N: int, L: int, n: int):
    """P(no particle from the block {n+1, ..., n+L} ever visits site n+L+1)."""
    if n < 0:
        raise OutOfRangeError(f"block index must be >= 0, got {n}")
    target = n + L + 1
    prod = 1.0
    for i in range(n + 1, n + L + 1):
        prod *= not_visit_prob(spec.value(i), N, L, target - i)
    return prod


@dataclass(frozen=True)
class BoundReport:
    j: int
    q: float
    lower: float
    prob: float
    upper: float

    @property
    def margin(self) -> tuple[float, float]:
        return (self.prob - self.lower, self.upper - self.prob)


def bound_check(spec: SequenceSpec, N: int, L: int, n: int) -> list[BoundReport]:
    """Sandwich q^(N f(j)) <= P(n+j not-> n+L+1) <= 2^(NL) q^(N f(j)) per position.

    Raises BoundViolationError on failure: the bounds always hold, so a
    violation means a bug in the engine.
    """
    reports = []
    for j in range(1, L + 1):
        rep = BoundReport(j, *_sandwich(spec, N, L, n, j))
        if not (rep.lower <= rep.prob * (1 + 1e-12) and rep.prob <= rep.upper * (1 + 1e-12)):
            raise BoundViolationError(f"sandwich violated: {rep}")
        reports.append(rep)
    return reports


def partial_survival_product(spec: SequenceSpec, N: int, L: int, M: int, start: int = 0):
    """prod over M consecutive blocks (from index `start`) of (1 - a_n).

    With start = 0 this is the truncated survival factor whose limit, for
    L = 1, is the closed product prod_i (1 - q_i^N).
    """
    if M < 1:
        raise OutOfRangeError(f"need M >= 1, got {M}")
    prod = 1.0
    for n in range(start, start + M):
        prod *= 1.0 - a_n(spec, N, L, n)
        if prod == 0.0:
            break
    return prod


@dataclass(frozen=True)
class ReachRow:
    n: int
    a_n: float
    lower: float
    upper: float
    partial_product: float


@dataclass(frozen=True)
class ReachTable:
    spec: SequenceSpec
    N: int
    L: int
    rows: tuple[ReachRow, ...]


def build_reach_table(spec: SequenceSpec, N: int, L: int, n_max: int) -> ReachTable:
    """Rows n = 0..n_max with a_n, its sandwich bounds, and the running product."""
    rows = []
    prod = 1.0
    for n in range(n_max + 1):
        lower = an = upper = 1.0
        for j in range(1, L + 1):
            _, lo, p, up = _sandwich(spec, N, L, n, j)
            lower *= lo
            an *= p
            upper *= up
        if not (lower <= an * (1 + 1e-12) and an <= upper * (1 + 1e-12)):
            raise BoundViolationError(f"sandwich violated at n={n}: {lower} {an} {upper}")
        prod *= 1.0 - an
        rows.append(ReachRow(n=n, a_n=an, lower=lower, upper=upper, partial_product=prod))
    return ReachTable(spec=spec, N=N, L=L, rows=tuple(rows))
