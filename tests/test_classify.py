import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mod3_spec, mod3_two_power_spec
from frogz.classify import (
    Outcome,
    ProcessParams,
    SeriesExponent,
    applicable_rules,
    classify,
    min_alignment_exponent,
    series_test,
    survival_threshold_N,
    weakest_alignment,
)
from frogz.errors import InvalidSpecError, OutOfRangeError, TooLargeError
from frogz.exact import f
from frogz.sequences import (
    INF,
    ConstantForm,
    LogInverse,
    PowerLaw,
    SequenceSpec,
    SparseOverride,
    single,
)


def outcome(spec, N, L):
    return classify(ProcessParams(N=N, L=L, spec=spec)).outcome


GOLDEN_SPECS = json.loads(
    (Path(__file__).parent / "data" / "verdicts_golden.json").read_text())["specs"]


@st.composite
def _periodic_specs(draw):
    """A spec of up to 7 residue classes, each a power law, log-inverse or constant."""
    forms = draw(st.lists(st.one_of(
        st.builds(PowerLaw, c=st.sampled_from([1.0, 0.5]), offset=st.just(1),
                  alpha=st.one_of(st.sampled_from([0.1, 0.3, 1 / 3, 1.0, 1.7]),
                                  st.floats(0.05, 3.0))),
        st.just(LogInverse(c=1, offset=2)),
        st.just(ConstantForm(q=0.5)),
    ), min_size=1, max_size=7))
    return SequenceSpec(modulus=len(forms), residue_forms=tuple(forms))


def _exponents_by_dispatch(spec, N, L):
    """(r, E_r, F_r) as the per-position dispatch on each class's kind sums them."""
    out = []
    for r in range(spec.modulus):
        e, g = 0.0, 0
        for j in range(1, L + 1):
            form = spec.residue_forms[(r + j) % spec.modulus]
            if form.kind == "power":
                e += N * form.alpha * f(j)
            elif form.kind == "loginv":
                g += N * f(j)
        out.append((r, e, g))
    return out


class TestStructuralRules:
    def test_fast_decay_always_survives(self, inv_square_spec):
        for N in range(1, 5):
            for L in range(1, 5):
                v = classify(ProcessParams(N=N, L=L, spec=inv_square_spec))
                assert v.outcome is Outcome.SURVIVES_WPP
                assert v.trace[0].rule == "R1"

    def test_sqrt_threshold_at_budget(self, sqrt_spec):
        # m = 3; survives exactly when b(N, L) >= 3
        from frogz.exact import b
        for N in range(1, 5):
            for L in range(1, 6):
                want = Outcome.SURVIVES_WPP if b(N, L) >= 3 else Outcome.DIES_AS
                assert outcome(sqrt_spec, N, L) is want

    def test_slow_decay_dies(self, log_spec, const_spec):
        for spec in (log_spec, const_spec):
            for N, L in [(1, 1), (3, 5), (10, 10)]:
                v = classify(ProcessParams(N=N, L=L, spec=spec))
                assert v.outcome is Outcome.DIES_AS
                assert v.trace[0].rule == "R3"

    def test_unbounded_gap_dies(self, dyadic_spec):
        v = classify(ProcessParams(N=5, L=50, spec=dyadic_spec))
        assert v.outcome is Outcome.DIES_AS
        assert v.trace[0].rule == "R4"

    def test_short_lifetime_dies(self, mod2_spec):
        v = classify(ProcessParams(N=100, L=1, spec=mod2_spec))
        assert v.outcome is Outcome.DIES_AS
        assert v.trace[0].rule == "R5"
        assert v.L0 == 2

    def test_long_lifetime_survives(self, mod2_spec):
        for N in range(1, 6):
            for L in (4, 5, 9):
                v = classify(ProcessParams(N=N, L=L, spec=mod2_spec))
                assert v.outcome is Outcome.SURVIVES_WPP

    def test_invalid_params(self, const_spec):
        with pytest.raises(OutOfRangeError):
            ProcessParams(N=0, L=1, spec=const_spec)
        with pytest.raises(OutOfRangeError):
            ProcessParams(N=1, L=0, spec=const_spec)


class TestSeriesTest:
    def test_mod2_window(self, mod2_spec):
        # L = 2 between L0 and L1: decided by the exponents
        assert outcome(mod2_spec, 1, 2) is Outcome.DIES_AS
        assert outcome(mod2_spec, 2, 2) is Outcome.SURVIVES_WPP
        assert outcome(mod2_spec, 1, 3) is Outcome.SURVIVES_WPP

    def test_mod2_exponents(self, mod2_spec):
        exps = min_alignment_exponent(mod2_spec, N=1, L=2)
        # alignment r=0: positions 1, 2 hit classes 1 (log), 0 (power, alpha=1)
        by_res = {e.residue: e for e in exps}
        assert by_res[0].power_exp == pytest.approx(1.0)
        assert by_res[0].log_exp == 1
        assert weakest_alignment(exps).diverges

    def test_edge_divergence_convention(self):
        assert SeriesExponent(0, 1.0, 1, 1.0).diverges
        assert SeriesExponent(0, 1.0, 2, 1.0).diverges is False
        assert SeriesExponent(0, 0.999, 99, 0.999).diverges
        assert SeriesExponent(0, 1.001, 0, 1.001).diverges is False
        assert SeriesExponent(0, 1.0 + 1e-12, 1, 1.0 + 1e-12).diverges  # inside tolerance

    def test_overrides_unsupported(self, dyadic_spec):
        with pytest.raises(InvalidSpecError):
            min_alignment_exponent(dyadic_spec, 1, 2)

    def test_refused_before_the_first_position(self, mod2_spec, monkeypatch):
        import frogz.classify as classify_mod

        def reached(*args):
            raise AssertionError("a block position was read")

        monkeypatch.setattr(classify_mod, "f", reached)
        with pytest.raises(TooLargeError, match=r"^series test at modulus 2, L=50000001: "
                                                r"modulus\*L = 100000002 exceeds 100000000$"):
            min_alignment_exponent(mod2_spec, 1, 50_000_001)

    def test_work_limit(self, mod2_spec, monkeypatch):
        import frogz.classify as classify_mod
        monkeypatch.setattr(classify_mod, "ALIGNMENT_WORK_MAX", 2 * 7)
        exps = min_alignment_exponent(mod2_spec, 1, 7)  # modulus * L at the limit runs
        assert len(exps) == 2
        with pytest.raises(TooLargeError):
            min_alignment_exponent(mod2_spec, 1, 8)
        with pytest.raises(TooLargeError):
            series_test(mod2_spec, 1, 8)

    @pytest.mark.parametrize("N, L", [(1, 7), (1, 8), (2, 5), (3, 5)])
    def test_both_windows_from_one_pass(self, monkeypatch, N, L):
        # golden cells decided by the complete-period window alone: the window
        # used to be a second min_alignment_exponent call over k*floor(L/k)
        import frogz.classify as classify_mod
        spec = SequenceSpec.from_dict(GOLDEN_SPECS["mod3_alpha0.3"])
        calls = []

        def counting(*args):
            calls.append(args)
            return min_alignment_exponent(*args)

        monkeypatch.setattr(classify_mod, "min_alignment_exponent", counting)
        got, exps = series_test(spec, N, L)
        assert got is Outcome.DIES_AS and len(calls) == 1
        assert not any(e.diverges for e in exps)
        assert any(e.period_exp < 1.0 for e in exps)

    @given(spec=_periodic_specs(), N=st.sampled_from([1, 2, 3, 5, 8, 10**20, 2**53 + 1]),
           L=st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    def test_period_exponent_is_the_complete_period_sum(self, spec, N, L):
        exps = min_alignment_exponent(spec, N, L)
        periods = spec.modulus * (L // spec.modulus)
        want = min_alignment_exponent(spec, N, periods) if 1 <= periods < L else exps
        assert [e.period_exp.hex() for e in exps] == [w.power_exp.hex() for w in want]

    @given(spec=_periodic_specs(), N=st.sampled_from([1, 2, 3, 5, 8, 10**20, 2**53 + 1]),
           L=st.integers(1, 40))
    @settings(max_examples=300, deadline=None)
    def test_exponents_bit_identical_to_the_dispatch_loop(self, spec, N, L):
        exps = min_alignment_exponent(spec, N, L)
        got = [(e.residue, e.power_exp.hex(), e.log_exp) for e in exps]
        want = [(r, e.hex(), g) for r, e, g in _exponents_by_dispatch(spec, N, L)]
        assert got == want

    def test_mod3_threshold_N(self):
        spec = mod3_spec(0.2)
        # exponent scales linearly in N, so a finite threshold exists at L >= L1/3
        n0 = survival_threshold_N(spec, L=3)
        assert n0 != INF
        assert series_test(spec, n0, 3)[0] is Outcome.SURVIVES_WPP
        if n0 > 1:
            assert series_test(spec, n0 - 1, 3)[0] is Outcome.DIES_AS

    def test_threshold_cap(self, const_spec, monkeypatch):
        import frogz.classify as classify_mod
        monkeypatch.setattr(classify_mod, "DEFAULT_N_CAP", 5)
        assert survival_threshold_N(const_spec, L=2) == INF


class TestLargeNWindow:
    def test_override_window_survives_for_large_N(self):
        aux = SequenceSpec(
            modulus=1,
            residue_forms=(PowerLaw(c=1, alpha=1, offset=1),),
            overrides=(SparseOverride(a=1, b=2, form=LogInverse(c=1, offset=2)),),
        )
        v = classify(ProcessParams(N=1, L=2, spec=aux))
        assert v.outcome is Outcome.SURVIVES_FOR_LARGE_N
        assert v.trace[0].rule == "R8"
        assert outcome(aux, 1, 1) is Outcome.DIES_AS   # L < L0
        assert outcome(aux, 1, 4) is Outcome.SURVIVES_WPP  # L >= L1


class TestSoundness:
    @given(
        alpha=st.floats(0.1, 3.0),
        N=st.integers(1, 6),
        L=st.integers(1, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_fired_rules_agree_power(self, alpha, N, L):
        params = ProcessParams(N=N, L=L, spec=single(PowerLaw(c=1, alpha=alpha, offset=1)))
        fired = applicable_rules(params)
        assert fired, "at least the series test must fire"
        assert len(set(fired.values())) == 1
        assert classify(params).outcome is next(iter(fired.values()))

    @given(
        alpha=st.floats(0.1, 2.0),
        beta=st.floats(0.1, 2.0),
        N=st.integers(1, 4),
        L=st.integers(1, 7),
    )
    @settings(max_examples=80, deadline=None)
    def test_fired_rules_agree_mod3(self, alpha, beta, N, L):
        params = ProcessParams(N=N, L=L, spec=mod3_two_power_spec(alpha, beta))
        fired = applicable_rules(params)
        decisive = set(fired.values())
        assert len(decisive) <= 1 or decisive == set()
        if fired:
            assert classify(params).outcome is next(iter(decisive))

    @given(N=st.integers(1, 5), L=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_N(self, N, L):
        # survival is monotone: if (N, L) survives then (N+1, L) survives
        spec = mod3_spec(0.3)
        rank = {Outcome.DIES_AS: 0, Outcome.SURVIVES_FOR_LARGE_N: 1,
                Outcome.SURVIVES_WPP: 2}
        a = outcome(spec, N, L)
        b_ = outcome(spec, N + 1, L)
        assert rank[b_] >= rank[a]

    @given(N=st.integers(1, 5), L=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_L(self, N, L):
        spec = mod3_spec(0.3)
        rank = {Outcome.DIES_AS: 0, Outcome.SURVIVES_FOR_LARGE_N: 1,
                Outcome.SURVIVES_WPP: 2}
        assert rank[outcome(spec, N, L + 1)] >= rank[outcome(spec, N, L)]


class TestVerdictSerialization:
    def test_to_dict_json_safe(self, mod2_spec, log_spec, dyadic_spec):
        for spec, N, L in [(mod2_spec, 1, 2), (log_spec, 1, 1), (dyadic_spec, 2, 3)]:
            d = classify(ProcessParams(N=N, L=L, spec=spec)).to_dict()
            text = json.dumps(d)  # must not choke on inf
            assert "Infinity" not in text
            assert d["outcome"] in {o.value for o in Outcome}
            assert d["trace"]

    def test_trace_never_mentions_internals(self, mod2_spec):
        d = classify(ProcessParams(N=1, L=2, spec=mod2_spec)).to_dict()
        joined = json.dumps(d).lower()
        for banned in ("theorem", "paper", "spec.md", "section"):
            assert banned not in joined
