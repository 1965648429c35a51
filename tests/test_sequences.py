import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frogz.errors import InvalidSpecError, MalformedConfigError, OutOfRangeError
from frogz.sequences import (
    INF,
    ConstantForm,
    L0_L1,
    LogInverse,
    PowerLaw,
    SequenceSpec,
    SparseOverride,
    cyclic_gap,
    is_in_D1,
    m_of,
    single,
)


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

    def test_values_matches_scalar(self, mod2_spec, dyadic_spec):
        for spec in (mod2_spec, dyadic_spec):
            arr = spec.values(1, 200)
            assert arr == pytest.approx([spec.value(n) for n in range(1, 200)])

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

    def test_override_valid_from_j0_accepted(self):
        ov = SparseOverride(a=5000, b=2, j0=0, form=LogInverse(c=1, offset=3))
        spec = SequenceSpec(modulus=1, residue_forms=(PowerLaw(c=1, alpha=1, offset=1),),
                            overrides=(ov,))
        assert spec.value(5000) == ov.form.value(0)


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


class TestSerialization:
    def test_round_trip(self, mod2_spec, dyadic_spec):
        for spec in (mod2_spec, dyadic_spec):
            assert SequenceSpec.from_json(spec.to_json()) == spec

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
        text = mod2_spec.to_json()
        assert json.loads(text) == json.loads(SequenceSpec.from_json(text).to_json())
