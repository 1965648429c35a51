"""Jump-probability sequences (q_n) as a closed DSL.

A sequence is described by a modulus k, one primitive decay form per residue
class, and optional sparse overrides on geometric index families.  Each form is
evaluated at the per-residue occurrence counter s = 1, 2, ...: the s-th index
with residue r (among n >= 1) takes the value form(s).  Convergence questions
(the summability index m, membership in D and D1, the subsequence quantities
L0 and L1) are decided symbolically from the form parameters, never from
numeric partial sums.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from bisect import bisect_left
from functools import cached_property, lru_cache
from itertools import takewhile
from typing import NamedTuple, Union

import numpy as np

from .errors import InvalidSpecError, MalformedConfigError, OutOfRangeError

INF = math.inf

# the DSL's index domain is [1, INDEX_END): int64 indices and counters
INDEX_END = 2**63

# numeric scan horizon for monotonicity checks (fixed, reproducible)
MONOTONE_SCAN_HORIZON = 10**6
# windows of that scan: the first one, and the cap that bounds its memory
D1_FIRST_WINDOW = 64
D1_WINDOW_CAP = 1 << 16
# numeric prefix checked at construction, on top of the symbolic tail argument
VALIDITY_SCAN_PREFIX = 1000


class _Form:
    """What the primitive forms share: m is INF unless a form overrides it."""

    m = INF

    def to_dict(self) -> dict:
        return {"kind": self.kind, **asdict(self)}


@dataclass(frozen=True)
class PowerLaw(_Form):
    """q = c * (s + offset)^(-alpha) at occurrence counter s."""

    c: float
    alpha: float
    offset: int = 0

    kind = "power"

    def check(self) -> None:
        if not (self.c > 0 and self.alpha > 0 and self.offset >= 0):
            raise InvalidSpecError(f"bad power-law parameters: {self}")
        if int(self.offset) != self.offset:
            raise InvalidSpecError("offset must be an integer")
        if not math.isfinite(1.0 / self.alpha):
            # m = floor(1/alpha) + 1 needs a finite 1/alpha
            raise InvalidSpecError(f"power-law alpha {self.alpha} is too small: 1/alpha overflows")

    def value_array(self, s: np.ndarray) -> np.ndarray:
        return self.c * (s.astype(np.float64) + self.offset) ** (-self.alpha)

    @property
    def m(self):
        # smallest integer M with M*alpha > 1 (M*alpha == 1 diverges, harmonic-type)
        return math.floor(1.0 / self.alpha) + 1


@dataclass(frozen=True)
class LogInverse(_Form):
    """q = c / log(s + offset) at occurrence counter s.  Sum of q^M diverges for every M."""

    c: float
    offset: int = 2

    kind = "loginv"

    def check(self) -> None:
        if not (self.c > 0 and self.offset >= 2 and int(self.offset) == self.offset):
            raise InvalidSpecError(f"bad log-inverse parameters: {self}")

    def value_array(self, s: np.ndarray) -> np.ndarray:
        return self.c / np.log(s.astype(np.float64) + self.offset)


@dataclass(frozen=True)
class ConstantForm(_Form):
    """q constant in (0,1).  Sum of q^M diverges for every M."""

    q: float

    kind = "const"

    def check(self) -> None:
        if not (0.0 < self.q < 1.0):
            raise InvalidSpecError(f"constant form must lie in (0,1), got {self.q}")

    def value_array(self, s: np.ndarray) -> np.ndarray:
        return np.full(s.shape, self.q, dtype=np.float64)


PrimitiveForm = Union[PowerLaw, LogInverse, ConstantForm]


def _check_range(form, what: str, first: int, last: int, labels: tuple[str, str]) -> None:
    """Refuse `form` unless it lies in (0, 1) at counters first .. last: forms do not increase."""
    # float64, as value_array converts counters anyway: an override's j0 may pass 2**63
    with np.errstate(divide="ignore"):  # a power law's pole at j0 = 0 is inf
        high, low = form.value_array(np.array([first, last], dtype=np.float64))
    if not high < 1.0:
        raise InvalidSpecError(f"{what} hits {high} >= 1 at {labels[0]}")
    if not low > 0.0:
        raise InvalidSpecError(f"{what} underflows to 0.0 at {labels[1]}")


def config_number(key: str, value, kind=int):
    """The value of config key `key` as an int or a float (`kind`).

    A value that is no number (a JSON boolean included), or a fractional one
    for an int (1.5, where 2.0 and "2" are fine), raises MalformedConfigError.
    A string that `kind` cannot parse raises its ValueError.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        out = kind(value)
    except (TypeError, OverflowError) as exc:
        raise MalformedConfigError(
            f"config key {key!r} must be a number, got {value!r}") from exc
    if kind is int and isinstance(value, float) and out != value:
        raise MalformedConfigError(f"config key {key!r} must be an integer, got {value!r}")
    return out


def form_from_dict(d: dict) -> PrimitiveForm:
    if not isinstance(d, dict):
        raise MalformedConfigError(f"a form must be a JSON object, got {d!r}")
    kind = d.get("kind")
    if kind == "power":
        return PowerLaw(c=config_number("c", d["c"], float),
                        alpha=config_number("alpha", d["alpha"], float),
                        offset=config_number("offset", d.get("offset", 0)))
    if kind == "loginv":
        return LogInverse(c=config_number("c", d["c"], float),
                          offset=config_number("offset", d.get("offset", 2)))
    if kind == "const":
        return ConstantForm(q=config_number("q", d["q"], float))
    raise MalformedConfigError(f"unknown form kind {kind!r}")


@dataclass(frozen=True)
class SparseOverride:
    """Values on the geometric index family {n = a * b^j : j >= j0} in [1, INDEX_END).

    b >= 2 forces unbounded gaps between consecutive override indices, so a
    family alone has l = infinity.  A spec refuses families that share an index.
    """

    a: int
    b: int
    form: PrimitiveForm
    j0: int = 1

    def check(self) -> None:
        params = (self.a, self.b, self.j0)
        if not (self.a >= 1 and self.b >= 2 and self.j0 >= 0 and all(int(x) == x for x in params)):
            raise InvalidSpecError(f"bad override family: a={self.a}, b={self.b}, j0={self.j0}")
        self.form.check()
        j = self.j0 + max(len(self.indices) - 1, 0)  # the last j in the domain, else j0
        _check_range(self.form, "override form", self.j0, j, (f"j0={self.j0}", f"j={j}"))

    @cached_property
    def indices(self) -> tuple[int, ...]:
        """Every n = a*b^j < INDEX_END with j >= j0, increasing: the i-th has j = j0 + i."""
        # n >= 2^j: no j past log2(INDEX_END) is tried, where b^j may be too large to form
        js = range(int(self.j0), INDEX_END.bit_length())
        family = (int(self.a) * int(self.b) ** j for j in js)
        return tuple(takewhile(lambda n: n < INDEX_END, family))

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "j0": self.j0, "form": self.form.to_dict()}


def _occurrence_counter(n: int, r: int, k: int) -> int:
    """How many indices in 1 .. n have residue r mod k (n's counter if n = r mod k); ints."""
    return (n - r) // k + (r != 0)


@dataclass(frozen=True)
class SequenceSpec:
    """Full description of (q_n): modulus, per-residue forms, sparse overrides."""

    modulus: int
    residue_forms: tuple[PrimitiveForm, ...]
    overrides: tuple[SparseOverride, ...] = ()

    def __post_init__(self):
        k = self.modulus
        if k < 1:
            raise InvalidSpecError(f"modulus must be >= 1, got {k}")
        if len(self.residue_forms) != k:
            raise InvalidSpecError(
                f"need one form per residue: modulus {k}, got {len(self.residue_forms)}"
            )
        try:
            for r, form in enumerate(self.residue_forms):
                form.check()
                # from counter 1 to the counter of the residue's last index in the domain
                s = _occurrence_counter(INDEX_END - 1, r, k)
                _check_range(form, f"residue {r} form", 1, s, ("counter 1", f"counter {s}"))
            for ov in self.overrides:
                ov.check()
            self._check_override_disjointness()
            # belt and braces: the symbolic checks above guarantee the tail (forms
            # are positive and nonincreasing in the counter), the prefix is scanned
            vals = self.values(1, VALIDITY_SCAN_PREFIX + 1)
        except OverflowError as exc:  # an integer parameter too large for a float
            raise InvalidSpecError(f"spec values cannot be computed: {exc}") from exc
        bad = np.nonzero((vals <= 0.0) | (vals >= 1.0))[0]
        if bad.size:
            n = int(bad[0]) + 1
            raise InvalidSpecError(f"q_{n} = {vals[bad[0]]} outside (0,1)")

    def _check_override_disjointness(self):
        seen: dict[int, int] = {}
        for i, ov in enumerate(self.overrides):
            for n in ov.indices:
                if n in seen:
                    raise InvalidSpecError(f"override families {seen[n]} and {i} both cover index {n}")
                seen[n] = i

    # -- evaluation ---------------------------------------------------------

    def value(self, n: int) -> float:
        """q_n as a Python float: values(n, n + 1), so bit-identical to every values() call."""
        return self.values(n, n + 1).item()

    def values(self, start: int, stop: int) -> np.ndarray:
        """q_n for n in [start, stop), vectorized; overrides take precedence over residue forms."""
        if start < 1:
            raise OutOfRangeError(f"sequence index must be >= 1, got {start}")
        if stop > INDEX_END:            # int64 indices and counters would wrap past 2**63 - 1
            raise OverflowError(f"sequence indices must stay below 2**63, got stop {stop}")
        out = np.empty(max(stop - start, 0), dtype=np.float64)
        k = self.modulus
        for r, form in enumerate(self.residue_forms):
            first = start + (r - start) % k  # the first index >= start with residue r
            if first < stop:  # the class's indices from `first` on have consecutive counters
                s = _occurrence_counter(first, r, k)
                out[first - start::k] = form.value_array(
                    np.arange(s, s + len(range(first, stop, k)), dtype=np.int64))
        for ov in self.overrides:
            lo, hi = bisect_left(ov.indices, start), bisect_left(ov.indices, stop)
            if lo < hi:
                out[[n - start for n in ov.indices[lo:hi]]] = ov.form.value_array(
                    np.arange(ov.j0 + lo, ov.j0 + hi, dtype=np.int64))
        return out

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "residues": [
                {"r": r, "form": f.to_dict()} for r, f in enumerate(self.residue_forms)
            ],
            "overrides": [ov.to_dict() for ov in self.overrides],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SequenceSpec":
        try:
            k = config_number("modulus", d["modulus"])
            if k < 1:
                raise MalformedConfigError(f"modulus must be >= 1, got {k}")
            entries = sorted(((config_number("r", e["r"]), e) for e in d["residues"]),
                             key=lambda entry: entry[0])
            if len(entries) != k or [r for r, _ in entries] != list(range(k)):
                raise MalformedConfigError(f"residues must cover 0..{k - 1} exactly once")
            forms = tuple(form_from_dict(e["form"]) for _, e in entries)
            overrides = tuple(
                SparseOverride(
                    a=config_number("a", o["a"]), b=config_number("b", o["b"]),
                    j0=config_number("j0", o.get("j0", 1)), form=form_from_dict(o["form"]),
                )
                for o in d.get("overrides", [])
            )
        except (KeyError, TypeError, OverflowError) as exc:
            raise MalformedConfigError(f"malformed spec object: {exc}") from exc
        return cls(modulus=k, residue_forms=forms, overrides=overrides)


def single(form: PrimitiveForm) -> SequenceSpec:
    """Spec with modulus 1: q_n = form(n)."""
    return SequenceSpec(modulus=1, residue_forms=(form,))


# -- summability ------------------------------------------------------------


def m_of(spec: SequenceSpec):
    """Minimal M with sum q_n^M finite; math.inf if there is none.

    Decided per component: every residue class (a shifted copy of its form)
    and every override family (its form along the geometric counter) must be
    summable at exponent M, so the answer is the max of the component values.
    """
    out = 1
    for form in spec.residue_forms:
        out = max(out, form.m)
    for ov in spec.overrides:
        out = max(out, ov.form.m)
    return out


def scan_windows(stop: int):
    """[start, end) windows over the indices 1 .. stop - 1 for the D1 scan.

    Sizes double from D1_FIRST_WINDOW up to D1_WINDOW_CAP, and each window
    starts at the last index of the one before, so every adjacent pair of
    indices lies inside one window.
    """
    start, size = 1, D1_FIRST_WINDOW
    while start < stop - 1:
        end = min(stop, start + size)
        yield start, end
        start, size = end - 1, min(2 * size, D1_WINDOW_CAP)


@lru_cache(maxsize=256)
def is_in_D1(spec: SequenceSpec) -> str:
    """Is (q_n) nonincreasing?  'yes' / 'no' / 'unknown'.

    'yes' only when provable symbolically (single class, or identical forms in
    every class: the occurrence counter is nondecreasing in n and every form is
    nonincreasing in its counter).  'no' when a violating adjacent pair shows
    up in a scan of the first MONOTONE_SCAN_HORIZON indices.  The scan reads
    spec.values window by window (scan_windows), so it stops at the first
    window with a strict increase and holds one window in memory; each value
    is bit-identical to the one a single values() call over the prefix gives.
    """
    if not spec.overrides:
        if spec.modulus == 1:
            return "yes"
        if all(f == spec.residue_forms[0] for f in spec.residue_forms):
            return "yes"
    for start, end in scan_windows(MONOTONE_SCAN_HORIZON + 2):
        vals = spec.values(start, end)
        if np.any(vals[1:] > vals[:-1]):
            return "no"
    return "unknown"


# -- subsequence analysis (L0, L1) -------------------------------------------


class SubseqAnalysis(NamedTuple):
    """One candidate subsequence: a residue subset or an override family."""

    residues: tuple[int, ...]
    m_value: float
    l_value: float
    note: str = ""


def _cyclic_gaps(residues: tuple[int, ...], k: int) -> list[int]:
    """Gaps after each selected residue (sorted) to the next one, cyclically."""
    rs = sorted(residues)
    return [b - a for a, b in zip(rs, rs[1:])] + [k - rs[-1] + rs[0]]


def cyclic_gap(residues: tuple[int, ...], k: int) -> int:
    """Max gap between consecutive selected residues over one cyclic period."""
    return max(_cyclic_gaps(residues, k))


def _override_recurrent_residues(ov: SparseOverride, k: int) -> set[int]:
    """Residues mod k hit infinitely often by the family {a*b^j}."""
    # residues of a*b^j mod k are eventually periodic in j; the tail of a long
    # orbit is exactly the recurrent set
    r = (ov.a * pow(ov.b, ov.j0, k)) % k
    orbit = []
    for _ in range(4 * k + 8):
        orbit.append(r)
        r = (r * ov.b) % k
    return set(orbit[len(orbit) // 2:])


@lru_cache(maxsize=256)
def L0_L1(spec: SequenceSpec):
    """(L0, L1, witnesses) over the closed family of candidate subsequences.

    Candidates are nonempty residue subsets whose member classes all have a
    finite summability index, taken with the override indices they contain
    ("residues", admissible when every override recurrent on the subset has
    a finite index too) or without them ("residues minus overrides", when
    some override is recurrent on the subset), plus the override families
    themselves (l = infinity, never minimizers of L0).

    Adding residues never widens a gap, so one sweep over the distinct finite
    indices t finds the minima.  Natural candidates of index <= t all lie
    inside the set of residues admissible at t, and "minus" candidates of
    index <= t inside {r : m_r <= t}; each of these sets is itself a
    candidate of index <= t with the least gap.  The witnesses are these
    sets, one per threshold where they change, and the override families.
    Cached per spec, like is_in_D1: every (N, L) cell of a sweep reads one
    result, so the witnesses are a tuple.
    """
    k = spec.modulus
    m_res = [form.m for form in spec.residue_forms]
    recurrent = [_override_recurrent_residues(ov, k) for ov in spec.overrides]
    # the largest index among overrides recurrent at r (0 when there is none)
    m_ov = [max([ov.form.m for ov, rec in zip(spec.overrides, recurrent) if r in rec], default=0)
            for r in range(k)]
    punctured = set().union(*recurrent)
    thresholds = sorted({m for m in m_res + [ov.form.m for ov in spec.overrides] if m != INF})
    candidates: list[SubseqAnalysis] = []
    natural = minus = ()
    for t in thresholds:
        below = tuple(r for r in range(k) if m_res[r] <= t)
        admissible = tuple(r for r in below if m_ov[r] <= t)
        if admissible and admissible != natural:
            # residue indices keep whatever values they carry, overrides included
            natural = admissible
            m_nat = max(max(m_res[r], m_ov[r]) for r in natural)
            candidates.append(SubseqAnalysis(natural, m_nat, cyclic_gap(natural, k), "residues"))
        if below != minus and punctured.intersection(below):
            # exclude every override index: deleting one occurrence of a
            # punctured residue merges the gaps on either side of it
            minus = below
            gaps = _cyclic_gaps(minus, k)
            merged = max([max(gaps)] + [gaps[i - 1] + gaps[i]
                                        for i, r in enumerate(minus) if r in punctured])
            candidates.append(SubseqAnalysis(
                minus, max(m_res[r] for r in minus), merged, "residues minus overrides"))

    for ov in spec.overrides:
        if ov.form.m != INF:
            candidates.append(
                SubseqAnalysis((), ov.form.m, INF, f"override a={ov.a} b={ov.b}")
            )

    if not candidates:
        return INF, INF, ()
    l0 = min(c.l_value for c in candidates)
    l1 = min(c.l_value * c.m_value for c in candidates)
    witnesses = tuple(sorted(candidates, key=lambda c: (c.l_value, c.residues)))
    return l0, l1, witnesses
