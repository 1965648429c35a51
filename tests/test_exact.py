import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

import exact_oracle as oracle
import frogz.exact as exact_mod
from frogz.errors import BoundViolationError, InvalidSpecError, OutOfRangeError, TooLargeError
from frogz.exact import (
    WalkLaw,
    a_n,
    a_n_array,
    b,
    bound_check,
    brute_force_reach,
    build_reach_table,
    f,
    partial_survival_product,
    reach_prob,
)
from frogz.sequences import (
    ConstantForm, LogInverse, PowerLaw, SequenceSpec, SparseOverride, single,
)


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
        # the sums are float64: a Fraction p_right is converted once, and 1/4 is a float
        got = reach_prob(WalkLaw(p_right=Fraction(1, 2), steps=2), 2)
        assert type(got) is float
        assert got == 0.25

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
        def too_likely(term, pq):
            return np.full(term.shape, -1.0)  # every walk misses with probability 2

        monkeypatch.setattr(exact_mod, "_first_passage", too_likely)
        with pytest.raises(BoundViolationError):
            bound_check(single(ConstantForm(q=0.5)), 1, 2, 0)


class TestActivationProducts:
    def test_a_n_single_site_in_range(self, const_spec):
        # n=0, L=1: only site 1 can block, must fail to step right once
        assert a_n(const_spec, N=1, L=1, n=0) == pytest.approx(0.5)

    def test_a_n_multiplies_over_sites(self, const_spec):
        # n=1, L=2: block sites 2 and 3, target site 4
        p1 = oracle.not_visit_prob(0.5, 1, 2, 2)
        p2 = oracle.not_visit_prob(0.5, 1, 2, 1)
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

    def test_product_stops_at_zero(self, monkeypatch):
        # 1 - a_n = 1 - q = 2^-53 per block at N = L = 1, so the product
        # underflows to 0.0 at block 21, in the third chunk of 8 blocks
        spec = single(ConstantForm(q=1 - 2.0 ** -53))
        grids, block_grid = [], exact_mod._block_grid
        monkeypatch.setattr(exact_mod, "_DP_CELLS", 8)
        monkeypatch.setattr(exact_mod, "_block_grid", lambda *args: grids.append(args) or
                            block_grid(*args))
        assert partial_survival_product(spec, N=1, L=1, M=400) == 0.0
        assert len(grids) == 3

    def test_table_structure(self, inv_square_spec):
        rows = build_reach_table(inv_square_spec, N=1, L=1, n_max=30)
        assert [row.n for row in rows] == list(range(31))
        for row in rows:
            assert 0 <= row.lower <= row.upper <= 1
            assert 0 < row.partial_product <= 1
        prods = [row.partial_product for row in rows]
        assert all(x >= y for x, y in zip(prods, prods[1:]))

    def test_table_upper_is_capped(self, const_spec):
        rows = build_reach_table(const_spec, N=1, L=4, n_max=10)
        assert all(row.upper <= 1.0 for row in rows)

    @pytest.mark.parametrize("N, L", [(1, 0), (1, -2), (0, 3)])
    def test_table_rejects_empty_block_or_no_particles(self, const_spec, N, L):
        # L = 0 used to give rows with a_n = 1.0 and a product of 0.0
        with pytest.raises(OutOfRangeError, match=rf"need N >= 1 and L >= 1, got N={N}, L={L}"):
            build_reach_table(const_spec, N=N, L=L, n_max=2)

    def test_block_queries_reject_an_empty_block(self, const_spec):
        # L = 0 used to give a_n = 1.0 and an empty bound check
        with pytest.raises(OutOfRangeError, match=r"^need L >= 1, got 0$"):
            a_n_array(const_spec, 1, 0, 0, 3)
        with pytest.raises(OutOfRangeError, match=r"^need L >= 1, got 0$"):
            bound_check(const_spec, 1, 0, 0)

    def test_table_rejects_negative_n_max(self, const_spec):
        # n_max = -5 used to give a table of no rows
        with pytest.raises(OutOfRangeError, match=r"^need n_max >= 0, got -5$"):
            build_reach_table(const_spec, N=1, L=1, n_max=-5)
        assert len(build_reach_table(const_spec, N=1, L=1, n_max=0)) == 1


# -- the batched sums against the one-walk, one-block oracle -------------------


def outcome(fn, *args):
    """fn's value, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc), str(exc)


def _steep(alpha, period=32):
    """q_n = 0.5 * n^-alpha at sites 1..period, repeated with that period.

    The power law itself underflows to 0.0 far below index 2**63, so the DSL
    refuses it as a spec; every test here reads fewer than `period` sites,
    which carry its values bit for bit.
    """
    q = PowerLaw(c=0.5, alpha=alpha).value_array(np.arange(1, period + 1))
    return SequenceSpec(modulus=period,
                        residue_forms=tuple(ConstantForm(q=float(v)) for v in np.roll(q, 1)))


# alpha up to 60 makes some q_i so small that 1 - q_i rounds to 1
forms = st.one_of(
    st.builds(PowerLaw, c=st.floats(0.05, 1.0), alpha=st.floats(0.2, 60.0),
              offset=st.integers(0, 4)),
    st.builds(LogInverse, c=st.floats(0.05, 1.2), offset=st.integers(2, 9)),
    st.builds(ConstantForm, q=st.floats(0.01, 0.99)),
)


@st.composite
def specs(draw):
    k = draw(st.integers(1, 3))
    overrides = ()
    if draw(st.booleans()):
        overrides = (SparseOverride(a=draw(st.integers(1, 4)), b=draw(st.integers(2, 3)),
                                    form=draw(forms), j0=draw(st.integers(0, 2))),)
    try:
        return SequenceSpec(modulus=k, residue_forms=tuple(draw(forms) for _ in range(k)),
                            overrides=overrides)
    except InvalidSpecError:
        reject()


class TestBatchedReach:
    @given(p=st.floats(1e-6, 1 - 1e-6), L=st.integers(1, 12), d=st.integers(1, 13))
    @settings(max_examples=200, deadline=None)
    def test_scalar_dp_is_bit_identical(self, p, L, d):
        law = WalkLaw(p_right=p, steps=L)
        assert reach_prob(law, d) == oracle.reach_prob(law, d)

    @given(ps=st.lists(st.floats(1e-6, 1 - 1e-6), min_size=1, max_size=12),
           L=st.integers(1, 14))
    @settings(max_examples=100, deadline=None)
    def test_one_table_over_a_p_grid_is_each_walk(self, ps, L):
        # verify reads each (p, d) from one table per L: the sums are
        # elementwise in q, so a column is bit-identical to its single walk
        sums = exact_mod._reach_sums(np.array([1 - p for p in ps]), L)
        for i, p in enumerate(ps):
            law = WalkLaw(p_right=p, steps=L)
            assert sums[:, i].tolist() == [reach_prob(law, d) for d in range(1, L + 1)]

    def test_oracle_fraction_dp_equals_counts_oracle(self):
        # exact rationals live in the two oracles, which agree to the last digit
        for p in (Fraction(1, 3), Fraction(2, 7), Fraction(9, 10)):
            for L in range(1, 11):
                law = WalkLaw(p_right=p, steps=L)
                for d in range(1, L + 1):
                    got = oracle.reach_prob(law, d)
                    assert isinstance(got, Fraction)
                    assert got == brute_force_reach(law, d)

    def test_fraction_p_right_is_float_p_right(self):
        for p in (Fraction(1, 3), Fraction(2, 7), Fraction(9, 10)):
            for L in range(1, 11):
                for d in range(1, L + 1):
                    got = reach_prob(WalkLaw(p_right=p, steps=L), d)
                    assert type(got) is float
                    assert got == reach_prob(WalkLaw(p_right=float(p), steps=L), d)

    def test_first_passage_sums_are_the_path_counts(self):
        # both sides are polynomials of degree <= L in p, so agreeing exactly at
        # L + 1 distinct points makes them the same polynomial
        for L in range(1, 15):
            for p in (Fraction(k, L + 2) for k in range(1, L + 2)):
                law = WalkLaw(p_right=p, steps=L)
                reach = oracle.reach_sums(1 - p, L)
                assert reach == [brute_force_reach(law, d) for d in range(1, L + 1)], L

    def test_counts_oracle_equals_enumeration(self):
        for p in (Fraction(1, 3), Fraction(2, 7), Fraction(9, 10)):
            for L in range(1, 11):
                law = WalkLaw(p_right=p, steps=L)
                dist = oracle.max_displacement_dist(p, L)
                for d in range(1, L + 1):
                    assert brute_force_reach(law, d) == sum(dist[d:])

    def test_counts_table_memory_at_L20(self):
        exact_mod._path_counts.cache_clear()
        tracemalloc.start()
        try:
            brute_force_reach(WalkLaw(p_right=0.5, steps=20), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak
        # every one of the 2^20 paths is counted once
        assert sum(map(sum, exact_mod._path_counts(20))) == 2**20


class TestBatchedTable:
    @given(spec=specs(), N=st.integers(1, 3), L=st.integers(1, 10), n_max=st.integers(0, 40))
    @settings(max_examples=200, deadline=None)
    def test_table_matches_oracle(self, spec, N, L, n_max):
        got = outcome(lambda: build_reach_table(spec, N, L, n_max))
        assert got == outcome(oracle.reach_table_rows, spec, N, L, n_max)

    @given(spec=specs(), N=st.integers(1, 3), L=st.integers(1, 6),
           start=st.integers(0, 20), M=st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_a_n_matches_oracle(self, spec, N, L, start, M):
        want = outcome(lambda: [oracle.a_n(spec, N, L, n) for n in range(start, start + M)])
        got = outcome(lambda: a_n_array(spec, N, L, start, start + M).tolist())
        assert got == want
        if isinstance(want, list):
            assert [a_n(spec, N, L, n) for n in range(start, start + M)] == want

    @pytest.mark.parametrize("spec, N, L, n_max, message", [
        (single(PowerLaw(c=1, alpha=2, offset=1)), 1, 1, 200, "sandwich violated at n=150:"),
        (SequenceSpec(modulus=2, residue_forms=(PowerLaw(c=1, alpha=1, offset=1),
                                                LogInverse(c=1, offset=2))),
         2, 14, 900, "sandwich violated at n=842:"),
        (_steep(40), 2, 3, 10, "p_right must be in (0,1)"),
    ], ids=["inv_square", "mod2_interleave", "p_right_one"])
    def test_first_error_matches_oracle(self, spec, N, L, n_max, message):
        got = outcome(build_reach_table, spec, N, L, n_max)
        assert got == outcome(oracle.reach_table_rows, spec, N, L, n_max)
        assert got[1].startswith(message)

    @pytest.mark.parametrize("index, j, error", [
        (2, 2, OutOfRangeError),  # same walk: its failure stops the table before the check
        (3, 1, OutOfRangeError),  # a later block
        (1, 2, BoundViolationError),  # an earlier block: the injection is what fails
    ])
    def test_first_failure_in_block_position_order(self, monkeypatch, index, j, error):
        # q_4 = 0.5 * 4^-30 makes 1 - q_4 round to 1 (q_3 does not): with L=2,
        # site 4 fails first at n=2, j=2; a sandwich violation is injected at
        # block `index`, position j: the grid's rows go by displacement
        # d = L + 1 - j and its columns by block, all six blocks in one chunk
        spec = _steep(30)
        L = 2
        sums, injected = exact_mod._first_passage, []

        def too_likely(term, pq):
            reach = sums(term, pq)
            reach[L - j, index] = -1.0
            injected.append(term.shape)
            return reach

        monkeypatch.setattr(exact_mod, "_first_passage", too_likely)
        with pytest.raises(error):
            build_reach_table(spec, 1, L, 5)
        assert injected == [(L, 6)]

    def test_partial_product_matches_oracle(self, mod2_spec):
        want = 1.0
        for n in range(3, 3 + 50):
            want *= 1.0 - oracle.a_n(mod2_spec, 2, 3, n)
        assert partial_survival_product(mod2_spec, 2, 3, 50, start=3) == want

    def test_upper_from_logs_when_lower_underflows(self):
        # 0.1^(128*3) underflows to 0.0, but 2^640 * 10^-384 is about 4.6e-192
        (rep,) = bound_check(single(ConstantForm(q=0.1)), 128, 5, 0)[4:]
        assert rep.lower == 0.0
        assert rep.upper == pytest.approx(2.0 ** 640 * 10.0 ** -192 * 1e-192, rel=1e-9)
        assert rep.prob <= rep.upper


class TestChunkSeams:
    # a small _DP_CELLS puts _DP_CELLS // L blocks in a chunk, so these queries
    # cross chunks that the default size would hold in one
    @given(spec=specs(), N=st.integers(1, 3), L=st.integers(1, 10), n_max=st.integers(0, 40))
    @settings(max_examples=100, deadline=None)
    def test_table_matches_oracle(self, spec, N, L, n_max):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact_mod, "_DP_CELLS", 64)
            got = outcome(build_reach_table, spec, N, L, n_max)
        assert got == outcome(oracle.reach_table_rows, spec, N, L, n_max)

    @given(spec=specs(), N=st.integers(1, 3), L=st.integers(1, 10),
           start=st.integers(0, 20), M=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_a_n_matches_oracle(self, spec, N, L, start, M):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact_mod, "_DP_CELLS", 64)
            got = outcome(lambda: a_n_array(spec, N, L, start, start + M).tolist())
        assert got == outcome(lambda: [oracle.a_n(spec, N, L, n) for n in range(start, start + M)])

    @pytest.mark.parametrize("L, cells", [(1, 2), (1, 4), (2, 8)])
    def test_first_failure_in_a_later_chunk(self, monkeypatch, L, cells):
        # q_7 = 1e-20 makes 1 - q_7 round to 1 (q_1 = ... = q_6 = 0.5), so block
        # 7 - L fails first; a chunk holds cells // L <= 7 - L blocks, so that
        # block lies in a later chunk
        spec = SequenceSpec(modulus=8, residue_forms=tuple(
            ConstantForm(q=1e-20 if r == 7 else 0.5) for r in range(8)))
        fail = next(i for i in range(1, 9) if 1 - spec.value(i) == 1)
        assert fail == 7 and cells // L <= fail - L
        monkeypatch.setattr(exact_mod, "_DP_CELLS", cells)
        got = outcome(build_reach_table, spec, 1, L, 10)
        assert got == outcome(oracle.reach_table_rows, spec, 1, L, 10)
        assert got[1].startswith("p_right must be in (0,1)")
        for start in range(fail - L + 1):
            got = outcome(lambda: a_n_array(spec, 1, L, start, 10).tolist())
            assert got == outcome(lambda: [oracle.a_n(spec, 1, L, n) for n in range(start, 10)])
        assert a_n_array(spec, 1, L, 0, fail - L).tolist() == [
            oracle.a_n(spec, 1, L, n) for n in range(fail - L)]

    @pytest.mark.parametrize("L, cells", [(1, 64), (3, 64), (10, 64), (16, 1 << 14)])
    def test_each_chunk_evaluates_its_cells_once(self, monkeypatch, L, cells):
        # chunk by chunk, the B * L cells of its blocks go to _first_passage
        # once each, in rows of displacement d = L + 1 - j and columns in block
        # order: block n's walk at position j starts from site n + j
        spec = single(PowerLaw(c=0.5, alpha=1, offset=1))
        sums, seen = exact_mod._first_passage, []

        def counting(term, pq):
            seen.append(pq.tolist())
            return sums(term, pq)

        monkeypatch.setattr(exact_mod, "_first_passage", counting)
        monkeypatch.setattr(exact_mod, "_DP_CELLS", cells)
        start, stop, size = 5, 60, cells // L
        a_n_array(spec, 1, L, start, stop)
        want = []
        for first in range(start, stop, size):
            B = min(stop, first + size) - first
            sites = [[spec.value(n + L + 1 - d) for n in range(first, first + B)]
                     for d in range(1, L + 1)]
            want.append([[(1 - q) * q for q in row] for row in sites])
        assert seen == want

    def test_largest_query_sums_one_row_per_cell(self, monkeypatch):
        # 4 blocks at L = 1000, the guard's limit, sum 4 * 1000 walks: one per
        # (block, position) cell, each at its own displacement only
        spec = single(PowerLaw(c=0.5, alpha=0.5, offset=1))
        sums, cells = exact_mod._first_passage, []

        def counting(term, pq):
            cells.append(term.size)
            return sums(term, pq)

        monkeypatch.setattr(exact_mod, "_first_passage", counting)
        a_n_array(spec, 1, 1000, 0, 4)
        assert sum(cells) == 4 * 1000


class TestBatchedBoundCheck:
    @given(batch=st.lists(specs(), min_size=1, max_size=3), N=st.integers(1, 3),
           L=st.integers(1, 10), n=st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_reports_match_oracle(self, batch, N, L, n):
        # the oracle's upper bound is the plain 2^(NL) lower (N*L <= 30 here);
        # once lower underflows, the bound comes from logs instead
        assume(all(spec.value(n + j) ** (N * f(j, L)) >= sys.float_info.min
                   for spec in batch for j in range(1, L + 1)))
        want = [outcome(oracle.bound_check, spec, N, L, n) for spec in batch]
        assert [outcome(bound_check, spec, N, L, n) for spec in batch] == want
        got = exact_mod.bound_reports(batch, N, L, n)
        assert [r if isinstance(r, list) else (type(r), str(r)) for r in got] == want
        # Python floats, so a report's repr in verify's failure text shows no np.float64(...)
        assert all(type(x) is float for r in got if isinstance(r, list)
                   for rep in r for x in (rep.q, rep.lower, rep.prob, rep.upper))

    @pytest.mark.parametrize("violate_j, error", [
        (None, OutOfRangeError),   # site 4, at j = 2, has 1 - q_4 == 1.0
        (1, BoundViolationError),  # a violation at j = 1 comes first
        (2, OutOfRangeError),      # at j = 2 the walk fails before the check
    ], ids=["None-None-OutOfRangeError", "None-1-BoundViolationError",
            "None-2-OutOfRangeError"])
    def test_first_failure_in_position_order(self, monkeypatch, violate_j, error):
        # q_4 = 0.5 * 4^-30 makes 1 - q_4 round to 1 (q_3 does not)
        spec = _steep(30)
        L = 2
        sums = exact_mod._first_passage

        def too_likely(term, pq):
            # the grid's row L - j holds the walks at position j of every block
            reach = sums(term, pq)
            if violate_j is not None:
                reach[L - violate_j] = -1.0
            return reach

        monkeypatch.setattr(exact_mod, "_first_passage", too_likely)
        with pytest.raises(error):
            bound_check(spec, 1, L, 2)
        outcomes = exact_mod.bound_reports([single(ConstantForm(q=0.5)), spec], 1, L, 2)
        assert isinstance(outcomes[1], error)
        # the q = 0.5 block fails only by an injection, which hits every walk
        assert isinstance(outcomes[0], list if violate_j is None else BoundViolationError)
