"""Reference oracle for the exact layer: one walk, one block at a time.

This is the scalar form of `frogz.exact`: a pure-Python reach DP called once
per (block, position), the 2^L enumeration of every path's probability, the
position-by-position bound check and the block-by-block table loop.  The
batched DP, the path-counts oracle, the batched bound checks and tables in
`frogz.exact` must give the same values bit for bit, and the same first error
(type and message).  The upper bound here is the plain
`2 ** (N*L) * lower`, so keep N*L < 1024 when comparing against it.
"""

import math

from frogz.errors import BoundViolationError, OutOfRangeError
from frogz.exact import BoundReport, ReachRow, WalkLaw, f


def reach_prob(law: WalkLaw, d: int):
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


def max_displacement_dist(p, L: int):
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


def not_visit_prob(q_i, N: int, L: int, delta: int):
    if N < 1:
        raise OutOfRangeError(f"need N >= 1, got {N}")
    d = abs(delta)
    if d > L:
        return 1.0
    p = (1 - q_i) if delta > 0 else q_i
    return (1 - reach_prob(WalkLaw(p, L), d)) ** N


def a_n(spec, N: int, L: int, n: int):
    prod = 1.0
    for i in range(n + 1, n + L + 1):
        prod *= not_visit_prob(spec.value(i), N, L, n + L + 1 - i)
    return prod


def sandwich(spec, N: int, L: int, n: int, j: int):
    q = spec.value(n + j)
    lower = q ** (N * f(j, L))
    return q, lower, not_visit_prob(q, N, L, L + 1 - j), min(1.0, 2 ** (N * L) * lower)


def bound_check(spec, N: int, L: int, n: int) -> list[BoundReport]:
    reports = []
    for j in range(1, L + 1):
        rep = BoundReport(j, *sandwich(spec, N, L, n, j))
        if not (rep.lower <= rep.prob * (1 + 1e-12) and rep.prob <= rep.upper * (1 + 1e-12)):
            raise BoundViolationError(f"sandwich violated: {rep}")
        reports.append(rep)
    return reports


def reach_table_rows(spec, N: int, L: int, n_max: int) -> tuple[ReachRow, ...]:
    rows = []
    prod = 1.0
    for n in range(n_max + 1):
        lower = an = upper = 1.0
        for j in range(1, L + 1):
            _, lo, p, up = sandwich(spec, N, L, n, j)
            lower *= lo
            an *= p
            upper *= up
        if not (lower <= an * (1 + 1e-12) and an <= upper * (1 + 1e-12)):
            raise BoundViolationError(f"sandwich violated at n={n}: {lower} {an} {upper}")
        prod *= 1.0 - an
        rows.append(ReachRow(n=n, a_n=an, lower=lower, upper=upper, partial_product=prod))
    return tuple(rows)
