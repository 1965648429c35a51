"""Survival/extinction classification of the process Gamma[N, L, (q_n)].

Rules R1-R6 are cheap structural criteria on the summability index m, the
threshold b(N, L), monotonicity, and the subsequence quantities L0/L1.  They
form one ordered table, _RULES: classify() takes the first entry that fires,
applicable_rules() every entry that fires, and the soundness cross-check
(tested as a hard invariant) is that those all agree.  When no entry fires,
both fall back to R7, the sharp series test: sum a_n diverges iff the process
dies out a.s., and the sandwich bounds reduce that series, per block
alignment, to sum n^(-E_r) (log n)^(-F_r) with exponents read off the spec
symbolically.  R7 carries a complete-period window refinement calibrated for
that remaining regime only.  Sparse overrides block the exponents; there the
fallback is R8, survival for all large N, since L0 <= L < L1 must hold once
R5 and R6 have failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .errors import InvalidSpecError, OutOfRangeError, TooLargeError
from .exact import b, f
from .sequences import INF, L0_L1, SequenceSpec, is_in_D1, m_of

EDGE_TOL = 1e-9  # tolerance for detecting the exact exponent edge E_r == 1
DEFAULT_N_CAP = 1000
ALIGNMENT_WORK_MAX = 10**8  # modulus * L block positions of the series test: about 20 s


class Outcome(str, Enum):
    DIES_AS = "DiesAS"
    SURVIVES_WPP = "SurvivesWPP"
    SURVIVES_FOR_LARGE_N = "SurvivesForLargeN"


@dataclass(frozen=True)
class ProcessParams:
    N: int
    L: int
    spec: SequenceSpec

    def __post_init__(self):
        if self.N < 1 or self.L < 1:
            raise OutOfRangeError(f"need N >= 1 and L >= 1, got N={self.N}, L={self.L}")


class SeriesExponent(NamedTuple):
    """Block-alignment exponents: sum a_n restricted to n = r (mod k) behaves
    like sum n^(-E) (log n)^(-F)."""

    residue: int
    power_exp: float   # E_r
    log_exp: int       # F_r
    period_exp: float  # E_r over j <= k*floor(L/k), or over 1..L when that is empty or whole

    @property
    def diverges(self) -> bool:
        e, g = self.power_exp, self.log_exp
        if e < 1.0 - EDGE_TOL:
            return True
        if abs(e - 1.0) <= EDGE_TOL:
            return g <= 1
        return False


class TraceEntry(NamedTuple):
    rule: str
    note: str
    values: dict


def num(x):
    """A verdict value as classify and sweep print it: "inf" for INF, else x itself."""
    return "inf" if x == INF else x


class Verdict(NamedTuple):
    outcome: Outcome
    trace: tuple[TraceEntry, ...]
    m: float
    b: int
    L0: float
    L1: float
    exponents: tuple[SeriesExponent, ...] = ()

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "trace": [
                {"rule": t.rule, "note": t.note, "values": {k: num(v) for k, v in t.values.items()}}
                for t in self.trace
            ],
            "values": {
                "m": num(self.m),
                "b": self.b,
                "L0": num(self.L0),
                "L1": num(self.L1),
                "exponents": [
                    {"residue": e.residue, "E": e.power_exp, "F": e.log_exp}
                    for e in self.exponents
                ],
            },
        }


def check_alignment(spec: SequenceSpec, L: int) -> None:
    """Refuse a series test over more than ALIGNMENT_WORK_MAX modulus * L block positions."""
    if spec.modulus * L > ALIGNMENT_WORK_MAX:
        raise TooLargeError(
            f"series test at modulus {spec.modulus}, L={L}: modulus*L = {spec.modulus * L} "
            f"exceeds {ALIGNMENT_WORK_MAX}")


def check_sweep(spec: SequenceSpec, n_range: range, l_range: range) -> None:
    """Refuse a grid of series tests, one per (N, L) cell, whose largest cell or whose
    total over all cells exceeds ALIGNMENT_WORK_MAX modulus * L block positions."""
    check_alignment(spec, l_range[-1])
    total = len(n_range) * spec.modulus * len(l_range) * (l_range[0] + l_range[-1]) // 2
    if total > ALIGNMENT_WORK_MAX:
        raise TooLargeError(
            f"sweep of {len(n_range)} x {len(l_range)} series tests at modulus {spec.modulus}: "
            f"modulus*L summed over the cells = {total} exceeds {ALIGNMENT_WORK_MAX}")


def weakest_alignment(exps: tuple[SeriesExponent, ...]) -> SeriesExponent:
    """The minimum-E_r alignment; ties in E go to the smaller F, which dominates divergence."""
    return min(exps, key=lambda s: (s.power_exp, s.log_exp))


def min_alignment_exponent(spec: SequenceSpec, N: int, L: int) -> tuple[SeriesExponent, ...]:
    """Per-alignment exponents (E_r, F_r), one per residue r, in one pass over the block.

    E_r collects N * alpha * f(j) over power-law block positions, F_r collects
    N * f(j) over log-inverse positions; constant positions contribute only a
    constant factor and drop out.  E_r as summed up to j = k*floor(L/k) is the
    complete-period exponent, so series_test reads both its windows from here.
    """
    if spec.overrides:
        raise InvalidSpecError("alignment exponents are undefined with sparse overrides")
    try:
        float(N)
    except OverflowError as exc:
        raise OutOfRangeError("N is too large for float series exponents") from exc
    check_alignment(spec, L)
    k = spec.modulus
    # each class's coefficient once; a class of the other kind adds 0.0 (or 0)
    power = [N * form.alpha if form.kind == "power" else 0.0 for form in spec.residue_forms]
    loginv = [N if form.kind == "loginv" else 0 for form in spec.residue_forms]
    period = k * (L // k) or L
    out = []
    for r in range(k):
        e = period_e = 0.0
        g = 0
        for j in range(1, L + 1):
            c = (r + j) % k
            fj = f(j)
            e += power[c] * fj
            g += loginv[c] * fj
            if j == period:
                period_e = e
        out.append(SeriesExponent(residue=r, power_exp=e, log_exp=g, period_exp=period_e))
    return tuple(out)


def series_test(spec: SequenceSpec, N: int, L: int) -> tuple[Outcome, tuple[SeriesExponent, ...]]:
    """Series criterion: sum a_n = infinity  <=>  dies out a.s.

    The sandwich bounds pin sum a_n to sum prod_j q_{n+j}^(N f(j)) up to the
    constant 2^(NL), which reduces per alignment to sum n^(-E) (log n)^(-F).

    Two divergence sources, read from one min_alignment_exponent pass:
      - the full-range exponents diverge (E < 1, or E = 1 with F <= 1);
      - the exponent restricted to complete periods of the modulus
        (j <= k*floor(L/k)) falls strictly below 1.  This window convention
        is the contract for periodic specs when the lifetime is not a
        multiple of the modulus (an empty or whole window adds nothing).
    The refinement is calibrated for the regime where no structural rule
    applies (L0 <= L < L1 and m > b), which is the only place classify()
    consults it.
    """
    exps = min_alignment_exponent(spec, N, L)
    dies = any(e.diverges or e.period_exp < 1.0 - EDGE_TOL for e in exps)
    return (Outcome.DIES_AS if dies else Outcome.SURVIVES_WPP), exps


def survival_threshold_N(spec: SequenceSpec, L: int):
    """Smallest N for which the series test yields survival; inf past DEFAULT_N_CAP."""
    for N in range(1, DEFAULT_N_CAP + 1):
        outcome, _ = series_test(spec, N, L)
        if outcome is Outcome.SURVIVES_WPP:
            return N
    return INF


def _spec_values(spec: SequenceSpec, N: int, L: int) -> dict:
    """The values every rule reads; D1 and L0/L1 are cached per spec."""
    l0, l1, _ = L0_L1(spec)
    return {"m": m_of(spec), "b": b(N, L), "L0": l0, "L1": l1, "D1": is_in_D1(spec)}


# The structural rules in decision order: (rule id, predicate on the spec
# values and L, outcome, trace note).  Whenever several fire they agree.
_RULES = (
    ("R1", lambda v, L: v["m"] != INF and v["m"] <= v["b"], Outcome.SURVIVES_WPP,
     "finite summability index within the left-jump budget"),
    ("R2", lambda v, L: v["m"] != INF and v["D1"] == "yes" and v["m"] > v["b"], Outcome.DIES_AS,
     "nonincreasing, summability index exceeds the budget"),
    ("R3", lambda v, L: v["m"] == INF and v["D1"] == "yes", Outcome.DIES_AS,
     "nonincreasing with infinite summability index"),
    ("R4", lambda v, L: v["m"] == INF and v["L0"] == INF, Outcome.DIES_AS,
     "every summable-power subsequence has unbounded gaps"),
    ("R5", lambda v, L: L < v["L0"], Outcome.DIES_AS,
     "lifetime below the minimal recurring gap L0"),
    ("R6", lambda v, L: v["L1"] != INF and L >= v["L1"], Outcome.SURVIVES_WPP,
     "lifetime at least the gap-times-index product L1"),
)


def applicable_rules(params: ProcessParams) -> dict[str, Outcome]:
    """Every decisive rule whose hypothesis holds, evaluated independently.

    Used by the soundness cross-check: all entries must agree on any verdict
    they produce.  R7 is included only when no table rule fires, because its
    complete-period window refinement is calibrated for exactly that regime
    (it is not guaranteed outside it).  R8 is never included: it decides
    survival only for large N, not at this N.
    """
    values = _spec_values(params.spec, params.N, params.L)
    fired = {rule: outcome for rule, holds, outcome, _ in _RULES if holds(values, params.L)}
    if not fired and not params.spec.overrides:
        fired["R7"] = series_test(params.spec, params.N, params.L)[0]
    return fired


def classify(params: ProcessParams) -> Verdict:
    """The first table rule that fires decides; otherwise R7 or R8."""
    values = _spec_values(params.spec, params.N, params.L)
    exps = ()
    for rule, holds, outcome, note in _RULES:
        if holds(values, params.L):
            entry = TraceEntry(rule, note, values)
            break
    else:
        if params.spec.overrides:
            # R8: L0 <= L < L1 holds once R5 and R6 have failed, and a
            # bounded-gap summable-power subsequence gives survival for large N.
            outcome = Outcome.SURVIVES_FOR_LARGE_N
            note = ("bounded-gap summable subsequence; survives for all large N "
                    "(threshold search unavailable with sparse overrides)")
            entry = TraceEntry("R8", note, values)
        else:
            outcome, exps = series_test(params.spec, params.N, params.L)
            vals = dict(values, exponents=[(e.residue, e.power_exp, e.log_exp) for e in exps])
            entry = TraceEntry("R7", "series test on the block products", vals)
    return Verdict(
        outcome=outcome, trace=(entry,), m=values["m"], b=values["b"],
        L0=values["L0"], L1=values["L1"], exponents=tuple(exps),
    )
