import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frogz.errors import BoundViolationError, OutOfRangeError, TooLargeError
from frogz.exact import (
    WalkLaw,
    a_n,
    b,
    bound_check,
    brute_force_reach,
    build_reach_table,
    f,
    not_visit_prob,
    partial_survival_product,
    reach_prob,
)
from frogz.sequences import ConstantForm, PowerLaw, single


class TestCombinatorics:
    def test_f_values(self):
        assert [f(j) for j in range(1, 7)] == [1, 1, 2, 2, 3, 3]

    def test_f_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            f(0)
        with pytest.raises(OutOfRangeError):
            f(5, L=4)

    def test_b_odd_closed_form(self):
        for N in range(1, 11):
            for L in range(1, 101, 2):
                assert b(N, L) == N * ((L + 1) // 2) ** 2

    def test_b_even_closed_form(self):
        for N in range(1, 11):
            for L in range(2, 101, 2):
                assert b(N, L) == N * L * (L + 2) // 4

    def test_b_is_f_partial_sum(self):
        for L in range(1, 30):
            assert b(3, L) == 3 * sum(f(j) for j in range(1, L + 1))


class TestReach:
    def test_known_value(self):
        # p=0.6, 3 steps: hit +1 on step one, or step left then RR
        law = WalkLaw(p_right=0.6, steps=3)
        assert reach_prob(law, 1) == pytest.approx(0.6 + 0.4 * 0.6 * 0.6)

    def test_exact_fraction(self):
        law = WalkLaw(p_right=Fraction(1, 2), steps=2)
        assert reach_prob(law, 2) == Fraction(1, 4)

    def test_unreachable(self):
        law = WalkLaw(p_right=0.5, steps=3)
        assert reach_prob(law, 4) == 0.0
        assert reach_prob(law, 5) == 0.0

    def test_certain_at_zero_distance_invalid(self):
        with pytest.raises(OutOfRangeError):
            reach_prob(WalkLaw(p_right=0.5, steps=2), 0)

    def test_oracle_guard(self):
        with pytest.raises(TooLargeError):
            brute_force_reach(WalkLaw(p_right=0.5, steps=21), 1)

    @given(
        p=st.floats(0.05, 0.95),
        L=st.integers(1, 10),
        d=st.integers(1, 10),
    )
    @settings(max_examples=150, deadline=None)
    def test_dp_matches_enumeration(self, p, L, d):
        law = WalkLaw(p_right=p, steps=L)
        assert reach_prob(law, min(d, L)) == pytest.approx(
            brute_force_reach(law, min(d, L)), abs=1e-12)

    @given(p=st.floats(0.05, 0.95), L=st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_distance(self, p, L):
        law = WalkLaw(p_right=p, steps=L)
        probs = [reach_prob(law, d) for d in range(1, L + 2)]
        assert all(x >= y for x, y in zip(probs, probs[1:]))

    @given(d=st.integers(1, 6), L=st.integers(1, 10))
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_p(self, d, L):
        probs = [reach_prob(WalkLaw(p_right=p, steps=L), d)
                 for p in (0.2, 0.4, 0.6, 0.8)]
        assert all(x <= y + 1e-15 for x, y in zip(probs, probs[1:]))


class TestNotVisit:
    def test_single_particle_value(self):
        # q=1/2, L=2, delta=1: visit prob = reach_prob = 5/8? no — leftward
        # steps have prob q, so p_right = 1 - q = 1/2 and target is +1.
        got = not_visit_prob(0.5, N=1, L=2, delta=1)
        assert got == pytest.approx(1 - reach_prob(WalkLaw(0.5, 2), 1))

    def test_power_in_N(self):
        one = not_visit_prob(0.3, N=1, L=3, delta=2)
        assert not_visit_prob(0.3, N=4, L=3, delta=2) == pytest.approx(one ** 4)

    def test_beyond_range_certain(self):
        assert not_visit_prob(0.5, N=2, L=3, delta=4) == 1.0
        assert not_visit_prob(0.5, N=2, L=3, delta=-4) == 1.0

    def test_left_mirror(self):
        # moving left 2 with left-prob q is reaching +2 with p_right = q
        q = 0.7
        got = not_visit_prob(q, N=1, L=4, delta=-2)
        assert got == pytest.approx(1 - reach_prob(WalkLaw(q, 4), 2))

    def test_zero_delta_invalid(self):
        with pytest.raises(OutOfRangeError):
            not_visit_prob(0.5, N=1, L=2, delta=0)


class TestSandwich:
    @given(
        q=st.floats(0.05, 0.95),
        N=st.integers(1, 4),
        L=st.integers(1, 8),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds_hold(self, q, N, L):
        reports = bound_check(single(ConstantForm(q=q)), N, L, 0)
        assert len(reports) == L
        for rep in reports:
            assert rep.lower <= rep.prob * (1 + 1e-12)
            assert rep.prob <= rep.upper * (1 + 1e-12)

    def test_violation_raises(self, monkeypatch):
        import frogz.exact as exact_mod
        monkeypatch.setattr(exact_mod, "not_visit_prob",
                            lambda q, N, L, delta: 2.0)
        with pytest.raises(BoundViolationError):
            exact_mod.bound_check(single(ConstantForm(q=0.5)), 1, 2, 0)


class TestActivationProducts:
    def test_a_n_single_site_in_range(self, const_spec):
        # n=0, L=1: only site 1 can block, must fail to step right once
        assert a_n(const_spec, N=1, L=1, n=0) == pytest.approx(0.5)

    def test_a_n_multiplies_over_sites(self, const_spec):
        # n=1, L=2: block sites 2 and 3, target site 4
        p1 = not_visit_prob(0.5, 1, 2, 2)
        p2 = not_visit_prob(0.5, 1, 2, 1)
        assert a_n(const_spec, N=1, L=2, n=1) == pytest.approx(p1 * p2)

    def test_a_n_finite_when_2_to_the_NL_overflows(self, const_spec):
        # N*L = 1024: a_n must not form the float 2^(NL) of the upper bound
        assert math.isfinite(a_n(const_spec, N=128, L=8, n=0))
        assert 0 < partial_survival_product(const_spec, N=128, L=8, M=3) <= 1

    def test_inv_square_product_limit(self, inv_square_spec):
        # with q_n = 1/(n+1)^2, N=L=1: a_n = q_{n+1} and the running
        # product of (1 - 1/m^2) for m >= 2 telescopes to 1/2
        prod = partial_survival_product(inv_square_spec, N=1, L=1, M=4000)
        assert prod == pytest.approx(0.5, abs=2e-4)

    def test_product_is_nonincreasing(self, const_spec):
        vals = [partial_survival_product(const_spec, 1, 2, M) for M in range(1, 12)]
        assert all(x >= y for x, y in zip(vals, vals[1:]))
        assert 0 < vals[-1] < 1

    def test_table_structure(self, inv_square_spec):
        table = build_reach_table(inv_square_spec, N=1, L=1, n_max=30)
        assert [row.n for row in table.rows] == list(range(31))
        for row in table.rows:
            assert 0 <= row.lower <= row.upper <= 1
            assert 0 < row.partial_product <= 1
        prods = [row.partial_product for row in table.rows]
        assert all(x >= y for x, y in zip(prods, prods[1:]))

    def test_table_upper_is_capped(self, const_spec):
        table = build_reach_table(const_spec, N=1, L=4, n_max=10)
        assert all(row.upper <= 1.0 for row in table.rows)
