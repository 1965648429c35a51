"""Reference oracle for the exact layer: one walk, one block at a time.

This is the scalar form of `frogz.exact`: the first-passage sums of one walk
in pure Python, called once per (block, position), the 2^L enumeration of
every path's probability, the position-by-position bound check and the
block-by-block table loop.  The sums do the same float operations in the same
order as `frogz.exact._first_passage`, each p^d formed as p^(d-1) * p just as
`_reach_sums` and the block grid form it, so the batched sums (every
displacement of a walk in `_reach_sums`, one displacement per (block,
position) cell in the grid), the batched bound checks and tables in
`frogz.exact` must give the same values bit for bit, and the same first error
(type and message).  Given a `Fraction`, the sums are
exact.  The upper bound here is the plain `2 ** (N*L) * lower`, so keep
N*L < 1024 when comparing against it.
"""

from fractions import Fraction

from frogz.errors import BoundViolationError, OutOfRangeError
from frogz.exact import BoundReport, ReachRow, WalkLaw, f


def reach_sums(q, L: int) -> list:
    """reach[d-1] for d = 1..L: P(an L-step walk with left-step probability q reaches d).

    The first-passage terms g_j = (d/t) C(t, j) p^(d+j) q^j at t = d + 2j <= L,
    summed in increasing t, each term from the one before it.
    """
    p = 1 - q
    pq = p * q
    term = [p]
    for _ in range(1, L):
        term.append(term[-1] * p)
    reach = list(term)
    for j in range(1, (L + 1) // 2):
        for d in range(1, L - 2 * j + 1):
            t = d + 2 * j
            # a float pq takes the correctly rounded quotient, as numpy does
            term[d - 1] = term[d - 1] * (Fraction((t - 2) * (t - 1), j * (t - j)) * pq)
            reach[d - 1] = reach[d - 1] + term[d - 1]
    return reach


def reach_prob(law: WalkLaw, d: int):
    if d < 1:
        raise OutOfRangeError(f"displacement must be >= 1, got {d}")
    L = law.steps
    if d > L:
        return 0.0
    return reach_sums(1 - law.p_right, L)[d - 1]


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


def not_visit_prob(q_i, N: int, L: int, d: int):
    """P(none of N walks from a site with left-step probability q_i reaches d)."""
    if N < 1:
        raise OutOfRangeError(f"need N >= 1, got {N}")
    if d > L:
        return 1.0
    WalkLaw(1 - q_i, L)  # refuses a right-step probability outside (0, 1)
    return (1 - reach_sums(q_i, L)[d - 1]) ** N


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
