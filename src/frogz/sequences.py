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

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .errors import InvalidSpecError, MalformedConfigError, OutOfRangeError

INF = math.inf

# numeric scan horizon for monotonicity checks (fixed, reproducible)
MONOTONE_SCAN_HORIZON = 10**6
# numeric prefix checked at construction, on top of the symbolic tail argument
VALIDITY_SCAN_PREFIX = 1000


@dataclass(frozen=True)
class PowerLaw:
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
        if self.value(1) >= 1.0:
            raise InvalidSpecError(
                f"power-law form hits {self.value(1)} >= 1 at counter 1; "
                "increase offset or lower c"
            )

    def value(self, s):
        return self.c * (s + self.offset) ** (-self.alpha)

    def value_array(self, s: np.ndarray) -> np.ndarray:
        return self.c * (s.astype(np.float64) + self.offset) ** (-self.alpha)

    @property
    def m(self):
        # smallest integer M with M*alpha > 1 (M*alpha == 1 diverges, harmonic-type)
        return math.floor(1.0 / self.alpha) + 1

    def to_dict(self) -> dict:
        return {"kind": "power", "c": self.c, "alpha": self.alpha, "offset": self.offset}


@dataclass(frozen=True)
class LogInverse:
    """q = c / log(s + offset) at occurrence counter s.  Sum of q^M diverges for every M."""

    c: float
    offset: int = 2

    kind = "loginv"

    def check(self) -> None:
        if not (self.c > 0 and self.offset >= 2):
            raise InvalidSpecError(f"bad log-inverse parameters: {self}")
        if self.value(1) >= 1.0:
            raise InvalidSpecError(
                f"log-inverse form hits {self.value(1)} >= 1 at counter 1; "
                "increase offset or lower c"
            )

    def value(self, s):
        return self.c / math.log(s + self.offset)

    def value_array(self, s: np.ndarray) -> np.ndarray:
        return self.c / np.log(s.astype(np.float64) + self.offset)

    @property
    def m(self):
        return INF

    def to_dict(self) -> dict:
        return {"kind": "loginv", "c": self.c, "offset": self.offset}


@dataclass(frozen=True)
class ConstantForm:
    """q constant in (0,1).  Sum of q^M diverges for every M."""

    q: float

    kind = "const"

    def check(self) -> None:
        if not (0.0 < self.q < 1.0):
            raise InvalidSpecError(f"constant form must lie in (0,1), got {self.q}")

    def value(self, s):
        return self.q

    def value_array(self, s: np.ndarray) -> np.ndarray:
        return np.full(s.shape, self.q, dtype=np.float64)

    @property
    def m(self):
        return INF

    def to_dict(self) -> dict:
        return {"kind": "const", "q": self.q}


PrimitiveForm = Union[PowerLaw, LogInverse, ConstantForm]


def form_from_dict(d: dict) -> PrimitiveForm:
    kind = d.get("kind")
    if kind == "power":
        return PowerLaw(c=float(d["c"]), alpha=float(d["alpha"]), offset=int(d.get("offset", 0)))
    if kind == "loginv":
        return LogInverse(c=float(d["c"]), offset=int(d.get("offset", 2)))
    if kind == "const":
        return ConstantForm(q=float(d["q"]))
    raise MalformedConfigError(f"unknown form kind {kind!r}")


@dataclass(frozen=True)
class SparseOverride:
    """Values on the geometric index family {n = a * b^j : j >= j0}.

    b >= 2 forces unbounded gaps between consecutive override indices, so an
    override family on its own always has l = infinity.
    """

    a: int
    b: int
    form: PrimitiveForm
    j0: int = 1

    def check(self) -> None:
        if not (self.a >= 1 and self.b >= 2 and self.j0 >= 0):
            raise InvalidSpecError(f"bad override family: a={self.a}, b={self.b}, j0={self.j0}")
        self.form.check()
        # the family's first value is its largest: forms do not increase
        try:
            v = self.form.value(self.j0)
        except ZeroDivisionError as exc:
            raise InvalidSpecError(f"override form undefined at j0={self.j0}") from exc
        if not (0.0 < v < 1.0):
            raise InvalidSpecError(f"override form value {v} at j0={self.j0} outside (0,1)")

    def index(self, j: int) -> int:
        return self.a * self.b**j

    def indices_upto(self, stop: int) -> list[tuple[int, int]]:
        """All (j, n) with n = a*b^j < stop, j >= j0."""
        out = []
        j = self.j0
        while self.index(j) < stop:
            out.append((j, self.index(j)))
            j += 1
        return out

    def match(self, n: int) -> int | None:
        """Return j if n belongs to the family, else None."""
        if n % self.a != 0:
            return None
        t = n // self.a
        if t < 1:
            return None
        j = round(math.log(t, self.b))
        for jj in (j - 1, j, j + 1):
            if jj >= self.j0 and self.b**jj == t:
                return jj
        return None

    def to_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "j0": self.j0, "form": self.form.to_dict()}


def _occurrence_counter(n: int, r: int, k: int) -> int:
    """1-based rank of index n among indices >= 1 with residue r mod k."""
    if r == 0:
        return n // k
    return (n - r) // k + 1


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
        for form in self.residue_forms:
            form.check()
        for ov in self.overrides:
            ov.check()
        self._check_override_disjointness()
        # belt and braces: the symbolic checks above guarantee the tail (forms
        # are positive and nonincreasing in the counter), the prefix is scanned
        vals = self.values(1, VALIDITY_SCAN_PREFIX + 1)
        bad = np.nonzero((vals <= 0.0) | (vals >= 1.0))[0]
        if bad.size:
            n = int(bad[0]) + 1
            raise InvalidSpecError(f"q_{n} = {vals[bad[0]]} outside (0,1)")

    def _check_override_disjointness(self):
        seen: dict[int, int] = {}
        for i, ov in enumerate(self.overrides):
            for _, n in ov.indices_upto(10**15):
                if n in seen:
                    raise InvalidSpecError(
                        f"override families {seen[n]} and {i} both cover index {n}"
                    )
                seen[n] = i

    # -- evaluation ---------------------------------------------------------

    def value(self, n: int) -> float:
        """q_n.  Overrides take precedence over the residue form."""
        if n < 1:
            raise OutOfRangeError(f"sequence index must be >= 1, got {n}")
        for ov in self.overrides:
            j = ov.match(n)
            if j is not None:
                return ov.form.value(j)
        r = n % self.modulus
        s = _occurrence_counter(n, r, self.modulus)
        return self.residue_forms[r].value(s)

    def values(self, start: int, stop: int) -> np.ndarray:
        """q_n for n in [start, stop), vectorized."""
        if start < 1:
            raise OutOfRangeError(f"sequence index must be >= 1, got {start}")
        n = np.arange(start, stop, dtype=np.int64)
        out = np.empty(n.shape, dtype=np.float64)
        k = self.modulus
        r = n % k
        s = np.where(r == 0, n // k, (n - r) // k + 1)
        for res in range(k):
            mask = r == res
            if mask.any():
                out[mask] = self.residue_forms[res].value_array(s[mask])
        for ov in self.overrides:
            for j, idx in ov.indices_upto(stop):
                if idx >= start:
                    out[idx - start] = ov.form.value(j)
        return out

    @property
    def has_overrides(self) -> bool:
        return bool(self.overrides)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "modulus": self.modulus,
            "residues": [
                {"r": r, "form": f.to_dict()} for r, f in enumerate(self.residue_forms)
            ],
            "overrides": [ov.to_dict() for ov in self.overrides],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "SequenceSpec":
        try:
            k = int(d["modulus"])
            if k < 1:
                raise MalformedConfigError(f"modulus must be >= 1, got {k}")
            entries = sorted(d["residues"], key=lambda e: int(e["r"]))
            if [int(e["r"]) for e in entries] != list(range(k)):
                raise MalformedConfigError(f"residues must cover 0..{k - 1} exactly once")
            forms = tuple(form_from_dict(e["form"]) for e in entries)
            overrides = tuple(
                SparseOverride(
                    a=int(o["a"]), b=int(o["b"]), j0=int(o.get("j0", 1)),
                    form=form_from_dict(o["form"]),
                )
                for o in d.get("overrides", [])
            )
        except (KeyError, TypeError) as exc:
            raise MalformedConfigError(f"malformed spec object: {exc}") from exc
        return cls(modulus=k, residue_forms=forms, overrides=overrides)

    @classmethod
    def from_json(cls, text: str) -> "SequenceSpec":
        return cls.from_dict(json.loads(text))


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


@lru_cache(maxsize=256)
def is_in_D1(spec: SequenceSpec) -> str:
    """Is (q_n) nonincreasing?  'yes' / 'no' / 'unknown'.

    'yes' only when provable symbolically (single class, or identical forms in
    every class: the occurrence counter is nondecreasing in n and every form is
    nonincreasing in its counter).  'no' when a violating adjacent pair shows
    up in a scan of the first MONOTONE_SCAN_HORIZON indices.
    """
    if not spec.overrides:
        if spec.modulus == 1:
            return "yes"
        if all(f == spec.residue_forms[0] for f in spec.residue_forms):
            return "yes"
    vals = spec.values(1, MONOTONE_SCAN_HORIZON + 2)
    if np.any(vals[1:] > vals[:-1]):
        return "no"
    return "unknown"


# -- subsequence analysis (L0, L1) -------------------------------------------


@dataclass(frozen=True)
class SubseqAnalysis:
    """One candidate subsequence: a residue subset or an override family."""

    residues: tuple[int, ...]
    m_value: float
    l_value: float
    note: str = ""


def cyclic_gap(residues: tuple[int, ...], k: int) -> int:
    """Max gap between consecutive selected residues over one cyclic period."""
    rs = sorted(residues)
    if len(rs) == 1:
        return k
    gaps = [rs[i + 1] - rs[i] for i in range(len(rs) - 1)]
    gaps.append(k - rs[-1] + rs[0])
    return max(gaps)


def _gap_neighbors(residues: tuple[int, ...], k: int, r0: int) -> int:
    """Merged gap created by deleting one occurrence at residue r0 from the
    periodic pattern: gap to the previous selected residue plus gap to the next."""
    rs = sorted(residues)
    i = rs.index(r0)
    prev_gap = rs[i] - rs[i - 1] if i > 0 else k - rs[-1] + rs[0]
    next_gap = rs[i + 1] - rs[i] if i < len(rs) - 1 else k - rs[-1] + rs[0]
    if len(rs) == 1:
        prev_gap = next_gap = k
    return prev_gap + next_gap


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
    finite summability index (with and without override indices excluded) plus
    the override families themselves (l = infinity, never minimizers of L0).
    Cached per spec, like is_in_D1: every (N, L) cell of a sweep reads one
    result, so the witnesses are a tuple.
    """
    k = spec.modulus
    finite = [r for r in range(k) if spec.residue_forms[r].m != INF]
    candidates: list[SubseqAnalysis] = []

    for mask in range(1, 1 << len(finite)):
        subset = tuple(finite[i] for i in range(len(finite)) if mask >> i & 1)
        base_l = cyclic_gap(subset, k)
        base_m = max(spec.residue_forms[r].m for r in subset)
        hitting = [
            ov for ov in spec.overrides
            if _override_recurrent_residues(ov, k) & set(subset)
        ]
        if all(ov.form.m != INF for ov in hitting):
            # natural subsequence: residue indices keep whatever values they
            # carry, overrides included
            m_nat = max([base_m] + [ov.form.m for ov in hitting])
            candidates.append(SubseqAnalysis(subset, m_nat, base_l, "residues"))
        if hitting:
            # exclude every override index: sparse deletions merge adjacent
            # gaps at the recurrent residues they puncture
            merged = base_l
            for ov in hitting:
                for r0 in _override_recurrent_residues(ov, k) & set(subset):
                    merged = max(merged, _gap_neighbors(subset, k, r0))
            candidates.append(
                SubseqAnalysis(subset, base_m, merged, "residues minus overrides")
            )

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
