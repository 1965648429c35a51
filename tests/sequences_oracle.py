"""Reference oracle for the spec-level analyses: full scans and enumeration.

`value` reads q_n from the definition: the occurrence counter is the rank of
n among the indices 1..n with its residue, and n belongs to an override
family when dividing n / a by b repeatedly reaches 1 after j >= j0 steps.
Forms are evaluated as `SequenceSpec.values` evaluates them, by their one
evaluator `value_array` on an int64 array: a residue form at the occurrence
counter, an override form at j.
`is_in_D1` here builds the whole prefix q_1 .. q_{H+1} in one `values` call
and compares every adjacent pair; `L0_L1` enumerates all 2^k residue subsets
of the finite-index classes.  The windowed scan and the threshold sweep in
`frogz.sequences` must give the same answers, with the same types (int or
`inf`).  Keep k small when calling `L0_L1`: it doubles with every residue.
"""

import numpy as np

from frogz.sequences import (
    INF,
    MONOTONE_SCAN_HORIZON,
    SequenceSpec,
    SparseOverride,
    SubseqAnalysis,
    _override_recurrent_residues,
    cyclic_gap,
)


def override_exponent(ov: SparseOverride, n: int):
    """j with n = a * b^j and j >= j0, or None when n is not in the family."""
    if n % ov.a:
        return None
    t, j = n // ov.a, 0
    while t % ov.b == 0:
        t, j = t // ov.b, j + 1
    return j if t == 1 and j >= ov.j0 else None


def value(spec: SequenceSpec, n: int) -> float:
    for ov in spec.overrides:
        j = override_exponent(ov, n)
        if j is not None:
            return ov.form.value_array(np.array([j], dtype=np.int64)).item()
    k = spec.modulus
    r = n % k
    # the indices 1..n with residue r are r, r + k, ..., or k, 2k, ... for r = 0
    s = np.array([len(range(r or k, n + 1, k))], dtype=np.int64)
    return spec.residue_forms[r].value_array(s).item()


def is_in_D1(spec: SequenceSpec) -> str:
    if not spec.overrides:
        if spec.modulus == 1:
            return "yes"
        if all(f == spec.residue_forms[0] for f in spec.residue_forms):
            return "yes"
    vals = spec.values(1, MONOTONE_SCAN_HORIZON + 2)
    if np.any(vals[1:] > vals[:-1]):
        return "no"
    return "unknown"


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


def L0_L1(spec: SequenceSpec):
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
            m_nat = max([base_m] + [ov.form.m for ov in hitting])
            candidates.append(SubseqAnalysis(subset, m_nat, base_l, "residues"))
        if hitting:
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
