import contextlib
import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sequences_oracle as oracle
from conftest import mod3_spec
from frogz.errors import InvalidSpecError, MalformedConfigError, OutOfRangeError
from frogz.sequences import (
    D1_WINDOW_CAP,
    INF,
    MONOTONE_SCAN_HORIZON,
    ConstantForm,
    L0_L1,
    LogInverse,
    PowerLaw,
    SequenceSpec,
    SparseOverride,
    cyclic_gap,
    is_in_D1,
    m_of,
    scan_windows,
    single,
)

_CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# sha256 of the little-endian float64 bytes of values(1, 20001) and of
# values(2**62, 2**62 + 100) for each shipped config
_VALUES_SHA256 = {
    "dyadic_override": ("97bbb35d731da6fdc67e4046e7eb2c2f6f265e93c92c2fa8664ec9c37696144b",
                         "0e3d74dd7cd5712e8d48ec490b36749fb7f82456b1ce2d9a63b0a1bae13388f7"),
    "inv_square": ("8dc4b09ffdbfe53802915e290805229380a329faf5ce58112f6fc0741d11845e",
                    "fa8eca96c88b7983fe1bad38ca7659adf1f6a03cbad6e442778b46b5fd639f84"),
    "log_decay": ("4cdffc6e4e1d57b9cffcf908cdc056a72edf9f01cfe6b9c4c8a08a2505569ad8",
                   "42b5a695aa22493d4f59c4951ba8cb3890457ab41a8affaecea2ec925b6fb2bd"),
    "mod2_interleave": ("afab0160051462f15f08dafbc9cd420831f8bcc09d8598b2080175770f702948",
                         "168185a6a2a1e1444f831bd4652000402026713c6e301785b32463e5daf06de4"),
    "sqrt_decay": ("eb33cf67d09c704e673fad6534f0f8ec86d4f85dd8a0206bc41c2368121fbe86",
                    "f1388848bd60cc49d690d2e1eaa25922a9c0e85b0eb8d622c4e09ef15fd453d5"),
}


class TestEval:
    def test_constant(self, const_spec):
        assert const_spec.value(17) == 0.5

    def test_power_counter(self):
        spec = single(PowerLaw(c=0.9, alpha=0.5))
        assert spec.value(9) == pytest.approx(0.3)

    def test_mod2_interleave(self, mod2_spec):
        # even indices from the power class (counter s = n/2), odd from the log class
        assert mod2_spec.value(2) == pytest.approx(1 / 2)
        assert mod2_spec.value(4) == pytest.approx(1 / 3)
        assert mod2_spec.value(1) == pytest.approx(1 / math.log(3))
        assert mod2_spec.value(3) == pytest.approx(1 / math.log(4))

    def test_override_precedence(self, dyadic_spec):
        assert dyadic_spec.value(8) == pytest.approx(1 / 4)   # j = 3
        assert dyadic_spec.value(9) == pytest.approx(1 / math.log(11))

    def test_out_of_range(self, const_spec):
        with pytest.raises(OutOfRangeError):
            const_spec.value(0)
        with pytest.raises(OutOfRangeError):
            const_spec.values(0, 5)
        # indices are int64, for value as for values
        assert const_spec.value(2**63 - 1) == 0.5
        with pytest.raises(OverflowError):
            const_spec.value(2**63)
        # a stop past 2**63 would wrap the last index to -2**63
        assert const_spec.values(2**63 - 2, 2**63).tolist() == [0.5, 0.5]
        with pytest.raises(OverflowError):
            const_spec.values(2**63 - 2, 2**63 + 1)

    def test_values_matches_scalar(self, inv_square_spec, sqrt_spec, log_spec, mod2_spec,
                                   dyadic_spec, const_spec):
        # bitwise: value(n) is values(n, n + 1), so the exact layer, the Monte
        # Carlo and the D1 scan read the same q_n; numpy's power and log and
        # Python's ** and math.log disagree in the last bit on some n
        configs = [SequenceSpec.from_dict(json.loads(path.read_text())["spec"])
                   for path in sorted(_CONFIGS.glob("*.json"))]
        assert len(configs) == 5
        for spec in configs + [inv_square_spec, sqrt_spec, log_spec, mod2_spec, dyadic_spec,
                               const_spec]:
            scalar = [spec.value(n) for n in range(1, 20001)]
            assert all(type(q) is float for q in scalar)
            assert np.array_equal(np.array(scalar), spec.values(1, 20001))

    @pytest.mark.parametrize("name", sorted(_VALUES_SHA256))
    def test_values_pinned_bit_for_bit(self, name):
        # q as the shipped configs read it, to the last bit, near 1 and near 2**63
        spec = SequenceSpec.from_dict(json.loads((_CONFIGS / f"{name}.json").read_text())["spec"])
        digests = tuple(hashlib.sha256(spec.values(a, b).astype("<f8").tobytes()).hexdigest()
                        for a, b in ((1, 20001), (2**62, 2**62 + 100)))
        assert digests == _VALUES_SHA256[name]

    @given(data=st.data(), k=st.integers(1, 7), a=st.integers(1, 50), b=st.integers(2, 10),
           j0=st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_value_matches_index_oracle(self, data, k, a, b, j0):
        forms = st.sampled_from([PowerLaw(c=0.5, alpha=1.0, offset=1),
                                 PowerLaw(c=0.9, alpha=0.5, offset=2),
                                 LogInverse(c=0.5, offset=2), ConstantForm(q=0.3)])
        ov = SparseOverride(a=a, b=b, j0=j0, form=data.draw(forms))
        spec = SequenceSpec(modulus=k, residue_forms=tuple(data.draw(forms) for _ in range(k)),
                            overrides=(ov,))
        member = st.builds(lambda j, delta: max(1, a * b**j + delta),
                           st.integers(j0, j0 + 12), st.sampled_from([-1, 0, 1]))
        n = data.draw(st.one_of(st.integers(1, 10**12), member))
        # exact, not approx: both sides must pick the same form at the same counter
        assert spec.value(n) == oracle.value(spec, n)

    def test_always_in_open_unit_interval(self, mod2_spec, dyadic_spec, log_spec):
        for spec in (mod2_spec, dyadic_spec, log_spec):
            vals = spec.values(1, 5000)
            assert np.all((vals > 0) & (vals < 1))


class TestValidity:
    def test_power_hitting_one_rejected(self):
        with pytest.raises(InvalidSpecError):
            single(PowerLaw(c=1, alpha=1, offset=0))

    def test_loginv_exceeding_one_rejected(self):
        with pytest.raises(InvalidSpecError):
            single(LogInverse(c=2, offset=2))

    def test_constant_outside_interval_rejected(self):
        for q in (0.0, 1.0, 1.2, -0.1):
            with pytest.raises(InvalidSpecError):
                single(ConstantForm(q=q))

    def test_modulus_mismatch(self):
        with pytest.raises(InvalidSpecError):
            SequenceSpec(modulus=2, residue_forms=(ConstantForm(q=0.5),))

    def test_overlapping_overrides_rejected(self):
        with pytest.raises(InvalidSpecError):
            SequenceSpec(
                modulus=1,
                residue_forms=(LogInverse(c=1, offset=2),),
                overrides=(
                    SparseOverride(a=1, b=4, form=PowerLaw(c=1, alpha=1, offset=1)),
                    SparseOverride(a=4, b=4, form=PowerLaw(c=1, alpha=1, offset=1)),
                ),
            )

    @pytest.mark.parametrize("a, b, j0, index", [
        # first meets {2, 4, ..., 2**62} at 2**55, past the 10**15 where the check
        # used to stop: the second family's 0.2 then won there silently
        (2**55, 2, 0, 2**55),
        # {2**62, 3 * 2**62, ...} meets it only at 2**62
        (2**62, 3, 0, 2**62),
    ], ids=["past_10_to_15", "only_at_2_62"])
    def test_overlap_anywhere_in_the_domain_rejected(self, a, b, j0, index):
        with pytest.raises(InvalidSpecError, match=f"families 0 and 1 both cover index {index}$"):
            SequenceSpec(modulus=1, residue_forms=(ConstantForm(q=0.5),), overrides=(
                SparseOverride(a=1, b=2, j0=1, form=ConstantForm(q=0.1)),
                SparseOverride(a=a, b=b, j0=j0, form=ConstantForm(q=0.2))))

    def test_family_past_the_domain_overrides_nothing(self):
        # a * b^63 >= 2**63: the family is accepted and has no index to override
        ov = SparseOverride(a=1, b=2, j0=63, form=ConstantForm(q=0.1))
        spec = SequenceSpec(modulus=1, residue_forms=(ConstantForm(q=0.5),), overrides=(ov,))
        assert ov.indices == ()
        assert np.all(spec.values(1, 5001) == 0.5)
        assert spec.value(2**62) == spec.value(2**63 - 1) == 0.5

    @given(a=st.integers(1, 2**64), b=st.integers(2, 2**40), j0=st.integers(0, 70))
    @settings(max_examples=300, deadline=None)
    def test_override_indices_are_the_family_in_the_domain(self, a, b, j0):
        brute, j = [], j0
        while a * b**j < 2**63:
            brute.append(a * b**j)
            j += 1
        assert SparseOverride(a=a, b=b, j0=j0, form=ConstantForm(q=0.5)).indices == tuple(brute)

    @given(families=st.lists(st.tuples(st.integers(0, 64), st.integers(0, 1),
                                       st.sampled_from([2, 3, 4, 6, 8, 12, 16, 32]),
                                       st.integers(0, 3)), min_size=2, max_size=2))
    @settings(max_examples=300, deadline=None)
    def test_override_families_refused_exactly_when_they_meet(self, families):
        # a = 2^x 3^y with bases built from 2 and 3: about one pair in six meets,
        # two in five of those first past 10**15
        overrides = tuple(SparseOverride(a=2**x * 3**y, b=b, j0=j0, form=ConstantForm(q=0.1))
                          for x, y, b, j0 in families)
        first, second = ({ov.a * ov.b**j for j in range(ov.j0, 64) if ov.a * ov.b**j < 2**63}
                         for ov in overrides)
        shared = first & second
        with (pytest.raises(InvalidSpecError, match=f"both cover index {min(shared)}$")
              if shared else contextlib.nullcontext()):
            SequenceSpec(modulus=1, residue_forms=(ConstantForm(q=0.5),), overrides=overrides)

    def test_bad_override_parameters(self):
        with pytest.raises(InvalidSpecError):
            SparseOverride(a=1, b=1, form=ConstantForm(q=0.5)).check()

    @pytest.mark.parametrize("override", [
        # 0.5 * 0^(-1) at j = 0: used to escape as a ZeroDivisionError
        SparseOverride(a=3, b=2, j0=0, form=PowerLaw(c=0.5, alpha=1, offset=0)),
        # 1 / log 2 = 1.44 at n = 5000, past the numeric prefix scan: used to pass
        SparseOverride(a=5000, b=2, j0=0, form=LogInverse(c=1)),
    ], ids=["power_pole", "loginv_above_one"])
    def test_override_checked_at_j0(self, override):
        with pytest.raises(InvalidSpecError, match="at j0=0"):
            override.check()
        with pytest.raises(InvalidSpecError):
            SequenceSpec(modulus=1, residue_forms=(PowerLaw(c=1, alpha=1, offset=1),),
                         overrides=(override,))

    def test_tiny_alpha_rejected(self):
        # 1/alpha is inf, so the summability index floor(1/alpha) + 1 is undefined
        with pytest.raises(InvalidSpecError):
            single(PowerLaw(c=0.5, alpha=1e-320, offset=1))

    def test_underflow_past_the_prefix_scan_rejected(self):
        # 1e-320 / n is 0.0 from n = 4048, past the 1000-index prefix scan
        form = PowerLaw(c=1e-320, alpha=1)
        positive, zero = form.value_array(np.array([4047, 4048])).tolist()
        assert zero == 0.0 < positive
        with pytest.raises(InvalidSpecError, match="underflows to 0.0"):
            single(form)
        with pytest.raises(InvalidSpecError, match="underflows to 0.0"):
            single(LogInverse(c=1e-322))
        # q_n = 1e-17 / (n + 1) stays positive up to 2**63
        spec = single(PowerLaw(c=1e-17, alpha=1, offset=1))
        assert spec.values(2**63 - 1, 2**63)[0] > 0.0

    def test_underflow_checked_at_each_residues_last_index(self):
        # 1.7e-305 / n underflows at n = 2**63 - 1, not at n = 2**62: alone the
        # form reaches counter 2**63 - 1, in either class of modulus 2 at most 2**62
        form = PowerLaw(c=1.7e-305, alpha=1)
        with pytest.raises(InvalidSpecError, match="residue 0 form underflows"):
            single(form)
        spec = SequenceSpec(modulus=2, residue_forms=(form, form))
        assert np.all(spec.values(2**63 - 2, 2**63) > 0.0)
        with pytest.raises(InvalidSpecError, match="residue 1 form underflows"):
            SequenceSpec(modulus=2,
                         residue_forms=(ConstantForm(q=0.5), PowerLaw(c=1e-320, alpha=1)))

    def test_override_underflow_rejected(self):
        # 1e-322 * j^-3 is positive at j0 = 1 and 0.0 at j = 62, the last j with
        # 2**j below 2**63; a family that stops at j = 2 below 2**63 is fine
        form = PowerLaw(c=1e-322, alpha=3)
        with pytest.raises(InvalidSpecError, match="override form underflows to 0.0 at j=62"):
            SequenceSpec(modulus=1, residue_forms=(ConstantForm(q=0.5),),
                         overrides=(SparseOverride(a=1, b=2, form=form),))
        short = SparseOverride(a=2**60, b=2, form=form)
        spec = SequenceSpec(modulus=1, residue_forms=(ConstantForm(q=0.5),), overrides=(short,))
        assert spec.value(2**62) == form.value_array(np.array([2])).item() > 0.0

    def test_override_valid_from_j0_accepted(self):
        ov = SparseOverride(a=5000, b=2, j0=0, form=LogInverse(c=1, offset=3))
        spec = SequenceSpec(modulus=1, residue_forms=(PowerLaw(c=1, alpha=1, offset=1),),
                            overrides=(ov,))
        assert ov.indices[:2] == (5000, 10000)
        assert spec.value(5000) == ov.form.value_array(np.array([0])).item()

    def test_override_family_valid_only_from_j0_accepted(self):
        # both forms are >= 1 at counter 1 (2 and 1.5 / log 3) and below 1 from
        # j = 3 on: a family is checked from its own j0, not from counter 1
        families = (SparseOverride(a=1, b=2, j0=3, form=PowerLaw(c=2, alpha=1)),
                    SparseOverride(a=3, b=2, j0=3, form=LogInverse(c=1.5)))
        spec = SequenceSpec(modulus=1, residue_forms=(PowerLaw(c=1, alpha=1, offset=1),),
                            overrides=families)
        head = spec.values(1, 20001)
        for ov in families:
            n = np.array(ov.indices, dtype=np.int64)
            j = np.arange(ov.j0, ov.j0 + len(n))
            assert j[0] == 3
            assert np.array_equal([spec.value(int(i)) for i in n], ov.form.value_array(j))
            assert np.array_equal(head[n[n <= 20000] - 1], ov.form.value_array(j[n <= 20000]))

    def test_loginv_fractional_offset_rejected(self):
        # used to pass, and the to_dict that simulate writes was then refused by from_dict
        with pytest.raises(InvalidSpecError, match="bad log-inverse parameters"):
            single(LogInverse(c=0.5, offset=2.5))

    @pytest.mark.parametrize("name", ["a", "b", "j0"])
    def test_override_fractional_parameter_rejected(self, name):
        # a = 1.5, b = 2.5 or j0 = 1.5 used to escape from values as an IndexError
        params = {"a": 1, "b": 2, "j0": 1}
        params[name] += 0.5
        family = SparseOverride(form=ConstantForm(q=0.5), **params)
        with pytest.raises(InvalidSpecError, match="bad override family"):
            SequenceSpec(modulus=1, residue_forms=(PowerLaw(c=1, alpha=1, offset=1),),
                         overrides=(family,))


class TestSummability:
    def test_sqrt_is_three(self, sqrt_spec):
        assert m_of(sqrt_spec) == 3

    def test_loginv_is_infinite(self, log_spec):
        assert m_of(log_spec) == INF

    def test_fast_decay_is_one(self, inv_square_spec):
        assert m_of(inv_square_spec) == 1

    def test_constant_is_infinite(self, const_spec):
        assert m_of(const_spec) == INF

    def test_harmonic_boundary_diverges(self):
        # M*alpha == 1 counts as divergent, so alpha = 1 needs M = 2
        assert m_of(single(PowerLaw(c=1, alpha=1, offset=1))) == 2

    def test_mixed_takes_max(self, mod2_spec):
        assert m_of(mod2_spec) == INF

    def test_override_contributes(self, dyadic_spec):
        assert m_of(dyadic_spec) == INF
        aux = SequenceSpec(
            modulus=1,
            residue_forms=(PowerLaw(c=1, alpha=1, offset=1),),
            overrides=(SparseOverride(a=1, b=2, form=LogInverse(c=1, offset=2)),),
        )
        assert m_of(aux) == INF
        both_finite = SequenceSpec(
            modulus=1,
            residue_forms=(PowerLaw(c=1, alpha=2, offset=1),),
            overrides=(SparseOverride(a=1, b=2, form=PowerLaw(c=1, alpha=0.5, offset=1)),),
        )
        assert m_of(both_finite) == 3


class TestMonotone:
    def test_single_class_yes(self, sqrt_spec, log_spec, const_spec):
        for spec in (sqrt_spec, log_spec, const_spec):
            assert is_in_D1(spec) == "yes"

    def test_identical_forms_yes(self):
        form = PowerLaw(c=1, alpha=0.5, offset=1)
        assert is_in_D1(SequenceSpec(modulus=3, residue_forms=(form,) * 3)) == "yes"

    def test_interleave_no(self, mod2_spec):
        assert is_in_D1(mod2_spec) == "no"

    def test_override_breaks_monotonicity(self, dyadic_spec):
        assert is_in_D1(dyadic_spec) == "no"


class TestSubsequences:
    def test_mod2_values(self, mod2_spec):
        l0, l1, witnesses = L0_L1(mod2_spec)
        assert (l0, l1) == (2, 4)
        best = witnesses[0]
        assert best.residues == (0,) and best.l_value == 2 and best.m_value == 2

    def test_mod3_gap(self):
        from conftest import mod3_spec
        l0, l1, _ = L0_L1(mod3_spec(0.5))
        assert l0 == 3
        assert l1 == 3 * 3  # m(1/sqrt) = 3

    def test_no_summable_subsequence(self, log_spec, const_spec):
        assert L0_L1(log_spec)[:2] == (INF, INF)
        assert L0_L1(const_spec)[:2] == (INF, INF)

    def test_dyadic_override_never_minimizes(self, dyadic_spec):
        l0, l1, witnesses = L0_L1(dyadic_spec)
        assert (l0, l1) == (INF, INF)
        assert witnesses and witnesses[0].l_value == INF

    def test_excluded_override_merges_gaps(self):
        # power background punctured by a log-inverse geometric family:
        # deleting one index from a gap-1 pattern yields recurring gaps of 2
        aux = SequenceSpec(
            modulus=1,
            residue_forms=(PowerLaw(c=1, alpha=1, offset=1),),
            overrides=(SparseOverride(a=1, b=2, form=LogInverse(c=1, offset=2)),),
        )
        l0, l1, _ = L0_L1(aux)
        assert (l0, l1) == (2, 4)

    def test_full_set_gap_one_when_summable(self, sqrt_spec):
        l0, l1, _ = L0_L1(sqrt_spec)
        assert l0 == 1 and l1 == 3

    def test_l0_exceeds_one_iff_m_infinite(self, sqrt_spec, log_spec, mod2_spec, dyadic_spec):
        for spec in (sqrt_spec, log_spec, mod2_spec, dyadic_spec):
            l0 = L0_L1(spec)[0]
            assert (l0 > 1) == (m_of(spec) == INF)

    def test_monotone_spec_l1_equals_m(self, sqrt_spec, log_spec, inv_square_spec):
        for spec in (sqrt_spec, log_spec, inv_square_spec):
            assert is_in_D1(spec) == "yes"
            assert L0_L1(spec)[1] == m_of(spec)

    @given(
        k=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_cyclic_gap_matches_brute_force(self, k, data):
        subset = tuple(sorted(data.draw(
            st.sets(st.integers(0, k - 1), min_size=1, max_size=k))))
        # selected indices past index k, long enough that all periodic gaps recur
        selected = [n for n in range(k + 1, 12 * k + 2) if n % k in subset][: 10 * k]
        gaps = [b - a for a, b in zip(selected, selected[1:])]
        assert cyclic_gap(subset, k) == max(gaps)

    @given(
        alphas=st.lists(st.floats(0.1, 3.0), min_size=1, max_size=4),
        kinds=st.lists(st.sampled_from(["power", "loginv", "const"]), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_l1_at_least_l0(self, alphas, kinds):
        k = min(len(alphas), len(kinds))
        forms = []
        for i in range(k):
            if kinds[i] == "power":
                forms.append(PowerLaw(c=1, alpha=alphas[i], offset=1))
            elif kinds[i] == "loginv":
                forms.append(LogInverse(c=1, offset=2))
            else:
                forms.append(ConstantForm(q=0.5))
        spec = SequenceSpec(modulus=k, residue_forms=tuple(forms))
        l0, l1, _ = L0_L1(spec)
        assert l1 >= l0


# forms that are valid at every counter and override j0 drawn below
_alphas = st.sampled_from([0.2, 0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0])
_power = st.builds(PowerLaw, c=st.sampled_from([0.3, 0.5, 0.9]), alpha=_alphas,
                   offset=st.integers(1, 3))
_loginv = st.builds(LogInverse, c=st.sampled_from([0.3, 0.6]), offset=st.integers(2, 4))
_const = st.builds(ConstantForm, q=st.sampled_from([0.2, 0.5]))
# a few fixed forms, so that identical classes (provably in D1) come up too
_shared = st.sampled_from([PowerLaw(c=0.5, alpha=0.5, offset=1), LogInverse(c=0.6, offset=2)])
_override = st.builds(SparseOverride, a=st.integers(1, 12), b=st.integers(2, 4),
                      form=st.one_of(_power, _loginv), j0=st.integers(0, 3))


@st.composite
def _specs(draw):
    k = draw(st.integers(1, 8))
    forms = tuple(draw(st.lists(st.one_of(_shared, _power, _loginv, _const),
                                min_size=k, max_size=k)))
    overrides = tuple(draw(st.lists(_override, max_size=2)))
    try:
        return SequenceSpec(modulus=k, residue_forms=forms, overrides=overrides)
    except InvalidSpecError:
        assume(False)  # overlapping override families


class TestSpecAnalysisMatchesOracle:
    """The windowed D1 scan and the L0/L1 threshold sweep against the full
    scan and the 2^k subset enumeration of `tests/sequences_oracle.py`."""

    @given(spec=_specs())
    @settings(max_examples=300, deadline=None)
    def test_l0_l1_matches_oracle(self, spec):
        l0, l1, witnesses = L0_L1(spec)
        want = oracle.L0_L1(spec)
        assert (l0, l1) == want[:2]
        assert (type(l0), type(l1)) == (type(want[0]), type(want[1]))
        assert set(witnesses) <= set(want[2])
        assert bool(witnesses) == bool(want[2])

    @given(spec=_specs())
    @settings(max_examples=40, deadline=None)  # the oracle scans 10^6 values each time
    def test_d1_matches_oracle(self, spec):
        assert is_in_D1(spec) == oracle.is_in_D1(spec)

    @pytest.mark.parametrize("n", [2, 64, 65, 191, 192, MONOTONE_SCAN_HORIZON + 1,
                                   MONOTONE_SCAN_HORIZON + 2])
    def test_single_increase_found_in_any_window(self, n):
        # one value above its predecessor at index n, on a decreasing background:
        # the pair (n - 1, n) straddles a window edge for n = 65 and n = 192
        spec = SequenceSpec(
            modulus=1, residue_forms=(PowerLaw(c=0.5, alpha=0.5, offset=1),),
            overrides=(SparseOverride(a=n, b=10**7, form=ConstantForm(q=0.9), j0=0),),
        )
        want = "no" if n <= MONOTONE_SCAN_HORIZON + 1 else "unknown"
        assert is_in_D1(spec) == oracle.is_in_D1(spec) == want

    def test_windows_cover_every_pair(self):
        stop = MONOTONE_SCAN_HORIZON + 2
        windows = list(scan_windows(stop))
        assert windows[0][0] == 1 and windows[-1][1] == stop
        for (_, end), (start, _) in zip(windows, windows[1:]):
            assert start == end - 1
        assert max(end - start for start, end in windows) == D1_WINDOW_CAP

    def test_windowed_values_bit_identical(self, mod2_spec, dyadic_spec):
        stop = MONOTONE_SCAN_HORIZON + 2
        for spec in (mod2_spec, dyadic_spec, mod3_spec(0.5)):
            full = spec.values(1, stop)
            for start, end in scan_windows(stop):
                part = spec.values(start, end)
                assert np.array_equal(part.view(np.uint64),
                                      full[start - 1:end - 1].view(np.uint64))

    def test_unknown_scan_memory_bounded(self):
        # ties only, no strict increase: the scan runs over the whole prefix
        spec = SequenceSpec(modulus=2, residue_forms=(
            PowerLaw(0.5, 1, offset=1), PowerLaw(0.5, 1, offset=0)))
        tracemalloc.start()
        try:
            assert is_in_D1.__wrapped__(spec) == "unknown"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_forty_residues(self):
        # 2^40 subsets would never finish; the sweep visits two thresholds
        forms = tuple(PowerLaw(c=0.5, alpha=2.0 if r % 4 == 0 else 0.2, offset=1)
                      for r in range(40))
        spec = SequenceSpec(modulus=40, residue_forms=forms)
        l0, l1, witnesses = L0_L1(spec)
        # m = 1 on every fourth residue (gap 4), m = 6 on all of them (gap 1)
        assert (l0, l1) == (1, 4)
        assert [(len(w.residues), w.m_value, w.l_value) for w in witnesses] == [
            (40, 6, 1), (10, 1, 4)]
        ov = SparseOverride(a=1, b=3, form=LogInverse(c=0.3, offset=2))
        punctured = SequenceSpec(modulus=40, residue_forms=forms, overrides=(ov,))
        # 3^j mod 40 recurs on 1, 3, 9, 27 only: the m = 1 classes stay natural,
        # and the rest lose those four (gap 2), as natural or as punctured sets
        assert L0_L1(punctured)[:2] == (2, 4)


class TestSerialization:
    def test_round_trip(self, mod2_spec, dyadic_spec):
        for spec in (mod2_spec, dyadic_spec):
            assert SequenceSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_residue_order_independent(self, mod2_spec):
        d = mod2_spec.to_dict()
        d["residues"] = list(reversed(d["residues"]))
        assert SequenceSpec.from_dict(d) == mod2_spec

    def test_malformed_rejected(self):
        with pytest.raises(MalformedConfigError):
            SequenceSpec.from_dict({"modulus": 0, "residues": []})
        with pytest.raises(MalformedConfigError):
            SequenceSpec.from_dict({"modulus": 1, "residues": [
                {"r": 0, "form": {"kind": "mystery"}}]})
        with pytest.raises(MalformedConfigError):
            SequenceSpec.from_dict({"modulus": 2, "residues": [
                {"r": 0, "form": {"kind": "const", "q": 0.5}},
                {"r": 0, "form": {"kind": "const", "q": 0.5}}]})

    def test_json_is_canonical(self, mod2_spec):
        text = json.dumps(mod2_spec.to_dict(), sort_keys=True)
        assert json.loads(text) == SequenceSpec.from_dict(json.loads(text)).to_dict()
