import hashlib
import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frogz.classify import ProcessParams
from frogz.errors import OutOfRangeError, TooLargeError
from frogz.exact import a_n_array, partial_survival_product
from frogz.mc import (
    _BLOCK,
    SimConfig,
    _fold,
    _frontiers,
    _miss_probs,
    _mix,
    _mix_folded,
    _thresholds,
    estimate_activation_profile,
    estimate_survival,
    run_trials,
    simulate_trial,
    wilson_interval,
)
from frogz.sequences import ConstantForm, SequenceSpec, single
from mc_oracle import (
    _block_end,
    activation_law,
    miss_law,
    survival_fields,
    unblocked_frontiers,
    wilson_interval as wilson_oracle,
)


def make_cfg(spec, N=1, L=1, horizon=50, trials=200, seed=7):
    return SimConfig(params=ProcessParams(N=N, L=L, spec=spec),
                     horizon=horizon, trials=trials, seed=seed)


class TestConfig:
    def test_horizon_must_exceed_lifetime(self, const_spec):
        with pytest.raises(OutOfRangeError):
            make_cfg(const_spec, L=5, horizon=5)

    def test_trials_positive(self, const_spec):
        with pytest.raises(OutOfRangeError):
            make_cfg(const_spec, trials=0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_range(self, const_spec, seed):
        with pytest.raises(OutOfRangeError):
            make_cfg(const_spec, seed=seed)

    def test_largest_seed_runs(self, const_spec):
        cfg = make_cfg(const_spec, trials=10, seed=2**64 - 1)
        assert len(run_trials(cfg)) == 10

    def test_budget_guard(self, const_spec, monkeypatch):
        import frogz.mc as mc_mod
        cfg = make_cfg(const_spec, trials=1000, horizon=1000)
        monkeypatch.setattr(mc_mod, "DEFAULT_WORK_BUDGET", 10)
        with pytest.raises(TooLargeError):
            run_trials(cfg)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_guard_admits_every_run_the_old_guard_admitted(self, data):
        # the old guard charged (M+L)*L*max(trials*N, L); max(trials, N) <= trials*N
        import frogz.mc as mc_mod
        budget = mc_mod.DEFAULT_WORK_BUDGET
        L = data.draw(st.integers(1, 3 * 10**4))
        horizon = data.draw(st.integers(L + 1, max(L + 1, budget // L**2 - L)))
        per_site = budget // ((horizon + L) * L)       # trials * N within the old budget
        trials = data.draw(st.integers(1, max(1, per_site)))
        N = data.draw(st.integers(1, max(1, per_site // trials)))
        old = (horizon + L) * L * max(trials * N, L)
        cfg = make_cfg(single(ConstantForm(q=0.5)), N=N, L=L, horizon=horizon, trials=trials)
        if old <= budget:
            assert mc_mod._check_budget(cfg) == horizon + L
        assert (horizon + L) * L * max(trials, N, L) <= old

    def test_guard_refuses_large_N(self, const_spec):
        # N alone still counts: the threshold power takes up to N*L steps per site
        import frogz.mc as mc_mod
        with pytest.raises(TooLargeError, match=r"max\(trials, N, L\) = 4000000002 exceeds"):
            mc_mod._check_budget(make_cfg(const_spec, N=1_333_333_334, L=1, horizon=2, trials=1))

    def test_to_dict_round_trips_through_json(self, mod2_spec):
        cfg = make_cfg(mod2_spec, N=2, L=3, horizon=40)
        assert json.loads(json.dumps(cfg.to_dict())) == cfg.to_dict()


class TestWilson:
    def test_symmetric_at_half(self):
        lo, hi = wilson_interval(50, 100)
        assert lo == pytest.approx(1 - hi, abs=1e-12)
        assert lo < 0.5 < hi

    def test_contains_phat(self):
        for k, n in [(0, 10), (10, 10), (3, 17), (999, 1000)]:
            lo, hi = wilson_interval(k, n)
            eps = 1e-15
            assert 0.0 <= lo <= k / n + eps
            assert k / n - eps <= hi <= 1.0

    def test_narrows_with_n(self):
        w1 = np.diff(wilson_interval(5, 10))[0]
        w2 = np.diff(wilson_interval(500, 1000))[0]
        assert w2 < w1

    def test_wider_at_higher_level(self):
        w95 = np.diff(wilson_interval(30, 100, 0.95))[0]
        w99 = np.diff(wilson_interval(30, 100, 0.99))[0]
        assert w99 > w95

    @pytest.mark.parametrize("n", [1, 7, 300, 20_000])
    @pytest.mark.parametrize("level", [0.9, 0.95, 0.99])
    def test_array_of_counts_matches_scalar_oracle(self, n, level):
        # activation_profile passes every site's count at once
        counts = np.unique(np.linspace(0, n, 201).astype(np.int64))
        lo, hi = wilson_interval(counts, n, level)
        want = [wilson_oracle(k, n, level) for k in counts.tolist()]
        assert list(zip(lo.tolist(), hi.tolist())) == want
        assert ((hi - lo) / 2).tolist() == [(h - l) / 2 for l, h in want]


class TestDeterminism:
    def test_same_seed_same_result(self, mod2_spec):
        cfg = make_cfg(mod2_spec, N=2, L=2, horizon=30, trials=300)
        a = run_trials(cfg)
        b = run_trials(cfg)
        assert np.array_equal(a, b)

    def test_ranges_do_not_change_result(self, mod2_spec, monkeypatch):
        # the 300 trials in 6 or 43 ranges give the frontiers of one range
        import frogz.mc as mc_mod
        cfg = make_cfg(mod2_spec, N=2, L=2, horizon=30, trials=300)
        baseline = run_trials(cfg)
        for range_trials in (50, 7):
            monkeypatch.setattr(mc_mod, "_RANGE_TRIALS", range_trials)
            assert np.array_equal(mc_mod.run_trials(cfg), baseline)

    def test_chunking_does_not_change_result(self, mod2_spec, monkeypatch):
        import frogz.mc as mc_mod
        cfg = make_cfg(mod2_spec, N=2, L=2, horizon=30, trials=97)
        baseline = run_trials(cfg)
        monkeypatch.setattr(mc_mod, "_CHUNK_ELEMENTS", 2000)
        assert np.array_equal(mc_mod.run_trials(cfg), baseline)

    def test_different_seeds_differ(self, const_spec):
        a = run_trials(make_cfg(const_spec, horizon=30, trials=500, seed=1))
        b = run_trials(make_cfg(const_spec, horizon=30, trials=500, seed=2))
        assert not np.array_equal(a, b)

    def test_single_trial_matches_batch(self, mod2_spec):
        cfg = make_cfg(mod2_spec, N=2, L=2, horizon=30, trials=20)
        batch = np.minimum(run_trials(cfg), cfg.horizon)
        for t in range(cfg.trials):
            h, active = simulate_trial(cfg.params, cfg.horizon, t, cfg.seed)
            assert h == batch[t]
            assert active == frozenset(range(1, max(active) + 1))

    @pytest.mark.parametrize("trial, seed", [(0, -1), (0, 2**64), (-1, 0), (2**64, 0)],
                             ids=["seed_negative", "seed_2_64", "trial_negative", "trial_2_64"])
    def test_single_trial_out_of_range_refused(self, const_spec, trial, seed):
        # these used to escape from numpy as an OverflowError
        with pytest.raises(OutOfRangeError, match=r"must be in \[0, 2\*\*64\)"):
            simulate_trial(ProcessParams(N=1, L=2, spec=const_spec), 10, trial, seed)


def _array_frontiers(qs, N, L, seed, trial_lo, trial_hi):
    """_frontiers over the len(qs) sites whose left-step probabilities are qs."""
    return _frontiers(lambda a, b: qs[a - 1:b - 1], N, L, len(qs), seed, trial_lo, trial_hi,
                      {"evaluated": 0})


# the last site of each of the first scan blocks: they double in width up to
# _BLOCK sites and then keep it
_BLOCK_ENDS = [1, 3, 7, 15, 31, 63, 127, 191]


class TestBlockedScan:
    def test_block_ends(self):
        S = 300
        ends, lo = [], 0
        while lo < S:
            lo = int(_block_end(lo + 1, S))
            ends.append(lo)
        assert ends == _BLOCK_ENDS + [255, 300]
        sites = np.arange(1, S + 1)
        want = [min(e for e in ends if e >= i) for i in sites.tolist()]
        assert _block_end(sites, S).tolist() == want

    @given(data=st.data(), N=st.integers(1, 4), L=st.integers(1, 4),
           seed=st.integers(0, 2**64 - 1), trials=st.integers(1, 64))
    @settings(max_examples=80, deadline=None)
    def test_matches_unblocked_oracle(self, data, N, L, seed, trials):
        # S tracked sites, below, on and just past block edges
        S = data.draw(st.one_of(
            st.integers(1, 2 * _BLOCK + 1),
            st.sampled_from([e + d for e in _BLOCK_ENDS for d in (-1, 0, 1) if e + d >= 1])))
        # run_trials tracks S = M + L sites with M > L
        S_cfg = max(S, 2 * L + 1)
        q = data.draw(st.floats(0.02, 0.9))
        cfg = make_cfg(single(ConstantForm(q=q)), N=N, L=L, horizon=S_cfg - L,
                       trials=trials, seed=seed)
        qs = cfg.params.spec.values(1, S_cfg + 1)
        assert np.array_equal(run_trials(cfg), unblocked_frontiers(qs, N, L, seed, 0, trials))
        # per-site laws mixing sure right steps, coin flips and sure left
        # steps: walks then often jump a block edge onto a site that stalls
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        qs = rng.choice([1e-9, 0.5, 1 - 1e-9], size=S, p=[0.8, 0.1, 0.1])
        lo = data.draw(st.integers(0, 2**40))
        assert np.array_equal(_array_frontiers(qs, N, L, seed, lo, lo + trials),
                              unblocked_frontiers(qs, N, L, seed, lo, lo + trials))

    @pytest.mark.parametrize("L, stalls, want", [
        # sites 65 and 129 (inside full-width blocks)
        pytest.param(1, [_BLOCK + 1, 2 * _BLOCK + 1], _BLOCK + 1, id="1-65"),
        pytest.param(2, [_BLOCK + 1, 2 * _BLOCK + 1], 3 * _BLOCK, id="2-192"),
        # the first site of each block after the first
        *[pytest.param(1, [e + 1], e + 1, id=f"1-first-site-{e + 1}") for e in _BLOCK_ENDS],
        pytest.param(2, [e + 1 for e in _BLOCK_ENDS], 3 * _BLOCK, id="2-every-first-site"),
    ])
    def test_reach_carried_across_block_edge(self, L, stalls, want):
        # every walk steps right, except on the stalling sites, where it steps
        # left: only a reach from an earlier site (L >= 2) carries the frontier
        # over one, from the previous block when the site starts a block
        qs = np.full(3 * _BLOCK, 1e-12)
        qs[np.array(stalls) - 1] = 1 - 1e-12
        got = _array_frontiers(qs, 1, L, 5, 0, 20)
        assert np.array_equal(got, unblocked_frontiers(qs, 1, L, 5, 0, 20))
        assert np.all(got == want)

    @pytest.mark.parametrize("chunk", [None, 3000])
    @pytest.mark.parametrize("ranges", [1, 2, 3, 22])
    def test_workers_match_unblocked_oracle(self, sqrt_spec, ranges, chunk, monkeypatch):
        # 3000 trial-sites per slice: a range of 150 trials takes several
        # slices of the wider blocks.  The 150 trials make one range at the
        # default _RANGE_TRIALS, and 2, 3 or 22 at 75, 50 or 7
        import frogz.mc as mc_mod
        if ranges > 1:
            monkeypatch.setattr(mc_mod, "_RANGE_TRIALS", -(-150 // ranges))
        if chunk:
            monkeypatch.setattr(mc_mod, "_CHUNK_ELEMENTS", chunk)
        cfg = make_cfg(sqrt_spec, N=1, L=3, horizon=197, trials=150, seed=24)
        want = unblocked_frontiers(sqrt_spec.values(1, 201), 1, 3, 24, 0, 150)
        # frontiers in every doubling block, a full one and the last one
        assert set(_block_end(want, 200).tolist()) == {1, 3, 7, 15, 31, 63, 127, 200}
        assert np.array_equal(mc_mod.run_trials(cfg), want)

    @pytest.mark.parametrize("q0", [0.5, 1 / 3, 0.1, 1 - 2.0**-53, 2.0**-60])
    def test_integer_threshold_matches_float_test(self, q0):
        # q is a probability P(R < d): the reach counts d where u >= q
        for q in (np.nextafter(q0, 0.0), q0, np.nextafter(q0, 1.0)):
            T = int(_thresholds(np.array([q]))[0])
            # hashes whose top 53 bits sit on either side of the threshold,
            # with the low 11 bits clear and set, plus random ones
            ks = [k for k in (T - 2, T - 1, T, T + 1) if 0 <= k < 2**53]
            hs = [k << 11 | low for k in ks for low in (0, 2**11 - 1)]
            hs += np.random.default_rng(0).integers(0, 2**64, 1000, dtype=np.uint64).tolist()
            h = np.array(hs, dtype=np.uint64)
            k = h >> np.uint64(11)
            assert np.array_equal(k >= np.uint64(T), k.astype(np.float64) * 2.0**-53 >= q)

    def test_memory_does_not_grow_with_horizon(self):
        # dies within the first block, so the scan never reaches the horizon
        cfg = {M: make_cfg(single(ConstantForm(q=0.9)), horizon=M, trials=1000)
               for M in (2_000, 20_000)}
        peak = {}
        for M, c in cfg.items():
            tracemalloc.start()
            try:
                run_trials(c)
                peak[M] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak[20_000] <= 1.5 * peak[2_000], peak

    @pytest.mark.parametrize("name, L, M", [("inv_square", 1, 120_000), ("sqrt_decay", 16, 10_000)])
    def test_memory_does_not_grow_with_a_surviving_horizon(self, name, L, M):
        # two of the 4 trials reach the horizon; one stretch of thresholds is
        # held at a time, a full one already at M
        peak = {}
        for m in (M, 10 * M):
            cfg = make_cfg(_config_spec(name), N=1, L=L, horizon=m, trials=4, seed=1)
            tracemalloc.start()
            try:
                got = run_trials(cfg)
                peak[m] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (got == m + L).sum() == 2
        assert peak[10 * M] < min(1.25 * peak[M], 3 * 2**20), peak

    def test_memory_bounded_by_the_chunk(self, inv_square_spec, sqrt_spec):
        # 16 bytes per slice element: the slice's uint64 hashes (8) and
        # _mix_folded's scratch (8), whose bytes then hold the stuck mask, a
        # comparison mask and the reach counts (at most 4), plus the uint16
        # reach ends of the last L - 1 rows; 0.75 MiB at 3 * 2**14, plus 1 MiB
        # for the per-trial arrays and the thresholds
        import frogz.mc as mc_mod
        bound = 7 * 2**18
        assert 16 * mc_mod._CHUNK_ELEMENTS + 2**20 <= bound
        # the two mc_survive configs of the benchmark
        for cfg in (make_cfg(inv_square_spec, N=1, L=1, horizon=2000, trials=20_000),
                    make_cfg(sqrt_spec, N=2, L=3, horizon=800, trials=10_000)):
            tracemalloc.start()
            try:
                run_trials(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (cfg.params.N, cfg.params.L, peak)

    def test_memory_per_trial(self, sqrt_spec):
        # 2 * 10**5 trials: the slice scratch, 16 bytes per trial (the
        # ranges' frontiers and their concatenation) and 1 MiB for the range
        # arrays and the thresholds
        import frogz.mc as mc_mod
        trials = 200_000
        cfg = make_cfg(sqrt_spec, N=2, L=3, horizon=60, trials=trials)
        tracemalloc.start()
        try:
            run_trials(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * mc_mod._CHUNK_ELEMENTS + 16 * trials + 2**20, peak

    @pytest.mark.parametrize("L", [1, 2, 63, 64, 65, 255, 256, 300])
    def test_long_reach_matches_unblocked_oracle(self, L):
        # reach counts are uint8 up to L = 255 and uint16 from 256.  Sure
        # right steps reach L sites, past several blocks and over sure-left
        # stalls; q = 0.6 makes short reaches
        S = 2 * L + 70
        qs = np.random.default_rng(L).choice([1e-3, 0.6, 1 - 1e-9], size=S, p=[0.1, 0.8, 0.1])
        qs[0] = 0.6
        got = _array_frontiers(qs, 1, L, 9, 0, 40)
        assert np.array_equal(got, unblocked_frontiers(qs, 1, L, 9, 0, 40))
        # through run_trials, with thresholds evaluated in doubling stretches
        cfg = make_cfg(single(ConstantForm(q=0.6)), N=1, L=L, horizon=L + 70, trials=40, seed=9)
        want = unblocked_frontiers(cfg.params.spec.values(1, S + 1), 1, L, 9, 0, 40)
        assert len(set(want.tolist())) >= 4
        assert np.array_equal(run_trials(cfg), want)


def _splitmix64(z: int) -> int:
    """The splitmix64 finalizer on one Python int, modulo 2**64."""
    z ^= z >> 30
    z = z * 0xBF58476D1CE4E5B9 % 2**64
    z ^= z >> 27
    z = z * 0x94D049BB133111EB % 2**64
    return z ^ (z >> 31)


_WORDS = st.lists(st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
                  min_size=1, max_size=16)


class TestHashKernel:
    @given(a=_WORDS, b=_WORDS)
    @settings(max_examples=200, deadline=None)
    def test_folded_operands_mix_to_the_hash_of_their_xor(self, a, b):
        # a logical right shift distributes over xor, so folding each operand
        # once stands in for the finalizer's first xorshift of their xor
        n = min(len(a), len(b))
        a, b = np.array(a[:n], dtype=np.uint64), np.array(b[:n], dtype=np.uint64)
        want = _mix(a ^ b)
        assert want.tolist() == [_splitmix64(x ^ y) for x, y in zip(a.tolist(), b.tolist())]
        folded = _fold(a) ^ _fold(b)
        assert np.array_equal(_mix_folded(folded, np.empty_like(folded)), want)

    @pytest.mark.parametrize("name, N, L, horizon, trials, digest", [
        ("inv_square", 1, 1, 2000, 20_000,
         "abecd1424410407d0b933262dc4e097a19f84dba2f2377860f72da952c13a043"),
        ("sqrt_decay", 2, 3, 800, 10_000,
         "5306014b5bf98c39265d0d2f61c49dc92fd71f6b15cd86cdd708c8626015308c"),
    ])
    def test_benchmark_frontiers_pinned(self, name, N, L, horizon, trials, digest):
        # the two mc_survive configs at seed 11, bit for bit: slice and range
        # seams only show with thousands of live trials
        cfg = make_cfg(_config_spec(name), N=N, L=L, horizon=horizon, trials=trials, seed=11)
        frontiers = run_trials(cfg)
        assert hashlib.sha256(frontiers.astype("<i8").tobytes()).hexdigest() == digest


class TestPhysicality:
    def test_frontier_bounds(self, mod2_spec):
        cfg = make_cfg(mod2_spec, N=1, L=3, horizon=25, trials=400)
        fr = run_trials(cfg)
        assert np.all(fr >= 1)
        assert np.all(fr <= cfg.horizon + cfg.params.L)

    def test_tiny_left_prob_reaches_horizon(self):
        spec = single(ConstantForm(q=1e-9))
        cfg = make_cfg(spec, N=1, L=2, horizon=20, trials=50)
        assert np.all(run_trials(cfg) >= cfg.horizon)

    def test_huge_left_prob_stalls(self):
        spec = single(ConstantForm(q=1 - 1e-9))
        cfg = make_cfg(spec, N=1, L=3, horizon=20, trials=50)
        assert np.all(run_trials(cfg) == 1)

    def test_coupled_monotone_in_N(self, sqrt_spec):
        for t in range(30):
            prev = 0
            for N in (1, 2, 3, 4):
                h, _ = simulate_trial(ProcessParams(N=N, L=2, spec=sqrt_spec), 40, t, 99)
                assert h >= prev
                prev = h

    def test_coupled_monotone_in_L(self, sqrt_spec):
        for t in range(30):
            prev = 0
            for L in (1, 2, 3, 4):
                h, _ = simulate_trial(ProcessParams(N=1, L=L, spec=sqrt_spec), 40, t, 99)
                assert h >= prev
                prev = h


class TestEstimates:
    def test_survival_matches_product(self, inv_square_spec):
        # exact survival-to-horizon P(E_M) within CI of the truncated product
        cfg = make_cfg(inv_square_spec, horizon=200, trials=4000, seed=11)
        res = estimate_survival(cfg)
        exact_p = partial_survival_product(inv_square_spec, 1, 1, cfg.horizon + 50)
        assert res.ci_low - 0.02 <= exact_p <= res.ci_high + 0.02

    def test_site_counts_consistent(self, mod2_spec):
        cfg = make_cfg(mod2_spec, N=1, L=2, horizon=30, trials=500)
        res = estimate_survival(cfg)
        counts = res.site_counts
        assert counts.shape == (cfg.horizon,)
        assert counts[0] == cfg.trials              # site 1 is always active
        assert np.all(np.diff(counts) <= 0)         # E_i is nested
        assert counts[-1] == res.survival_count

    def test_aggregate_serializes(self, mod2_spec):
        cfg = make_cfg(mod2_spec, N=1, L=2, horizon=30, trials=100)
        line = json.dumps(estimate_survival(cfg).aggregate_dict())
        payload = json.loads(line)
        assert payload["result"]["trials"] == 100
        assert 0 <= payload["result"]["p_hat"] <= 1

    def test_profile_dominates_lower_curve(self, inv_square_spec):
        cfg = make_cfg(inv_square_spec, horizon=80, trials=3000, seed=3)
        prof = estimate_activation_profile(cfg)
        assert prof.p_hat[0] == 1.0
        for i in range(cfg.horizon):
            lb = prof.lower_curve[i]
            if not math.isnan(lb):
                assert prof.p_hat[i] >= lb - prof.ci_half[i] - 1e-12

    def test_profile_nonincreasing(self, mod2_spec):
        cfg = make_cfg(mod2_spec, N=2, L=2, horizon=40, trials=2000, seed=5)
        prof = estimate_activation_profile(cfg)
        assert np.all(np.diff(prof.p_hat) <= 1e-12)

    def test_survival_memory_does_not_grow_with_horizon(self):
        # one trial that dies at once: the per-site counts are built only
        # when asked for, so nothing of size M is held
        cfg = make_cfg(single(ConstantForm(q=0.9)), horizon=10**6, trials=1)
        tracemalloc.start()
        try:
            res = estimate_survival(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        assert res.site_counts[0] == 1 and res.site_counts.shape == (10**6,)

    def test_survival_memory_does_not_grow_with_a_surviving_horizon(self, inv_square_spec):
        # the simulate path without --profile: two of the 4 trials reach the
        # horizon, and a run keeps one count per distinct frontier
        peak = {}
        for M in (120_000, 1_200_000):
            cfg = make_cfg(inv_square_spec, N=1, L=1, horizon=M, trials=4, seed=1)
            tracemalloc.start()
            try:
                result = estimate_survival(cfg).aggregate_dict()["result"]
                peak[M] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result["survival_count"] == 2 and result["max_site_max"] == M
        assert peak[1_200_000] < min(1.25 * peak[120_000], 3 * 2**20), peak

    def test_survival_memory_per_trial(self):
        # one count per distinct frontier: at 10^6 trials nothing but run_trials' int64
        # frontiers and their per-range pieces grows with the trial count
        trials = 10**6
        cfg = make_cfg(single(ConstantForm(q=0.5)), horizon=2, trials=trials)
        tracemalloc.start()
        try:
            estimate_survival(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * trials + 4 * 2**20, peak

    @given(seed=st.integers(0, 2**32), trials=st.integers(1, 64))
    @settings(max_examples=25, deadline=None)
    def test_phat_consistent_with_counts(self, seed, trials):
        cfg = make_cfg(single(ConstantForm(q=0.5)), horizon=10, trials=trials, seed=seed)
        res = estimate_survival(cfg)
        assert res.p_hat == res.survival_count / trials
        assert res.ci_low - 1e-15 <= res.p_hat <= res.ci_high + 1e-15


_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _config_spec(name):
    return SequenceSpec.from_dict(json.loads((_CONFIGS / f"{name}.json").read_text())["spec"])


class TestReachLaw:
    # 32 units of 2**-53: a few roundings per first-passage term, the running
    # sum and the N-th power, with room to spare
    _ATOL = Fraction(32, 2**53)

    @pytest.mark.parametrize("L", range(1, 15))
    def test_miss_probs_match_path_counts(self, L):
        rng = np.random.default_rng(L)
        qs = np.concatenate([rng.random(4), 10.0 ** rng.uniform(-12, 0, 3),
                             1 - 10.0 ** rng.uniform(-12, 0, 3), [1e-12, 2.0**-60, 1 - 1e-12]])
        for N in (1, 2, 3, 4):
            got = _miss_probs(qs, N, L)
            for i, q in enumerate(qs.tolist()):
                for d, want in enumerate(miss_law(q, N, L)):
                    assert abs(Fraction(got[d, i]) - want) <= self._ATOL, (q, N, d + 1)

    @pytest.mark.parametrize("L", [1, 2, 5, 9])
    def test_power_is_repeated_multiplication(self, L):
        # the early exit at a fixed point returns the product of all N factors
        rng = np.random.default_rng(L)
        qs = np.concatenate([rng.random(50), [0.0, 1.0, 1e-17, 0.5, 1 - 1e-12, 1e-12]])
        miss = _miss_probs(qs, 1, L)
        power = miss.copy()
        for N in range(2, 3001):
            power *= miss
            if N in (63, 64, 65, 128, 129, 3000):
                assert np.array_equal(_miss_probs(qs, N, L), power), N

    @pytest.mark.parametrize("name", sorted(p.stem for p in _CONFIGS.glob("*.json")))
    def test_thresholds_never_invert(self, name):
        # nondecreasing in d, nonincreasing in N and in L: the coupling of one
        # uniform per (trial, site) across N and L stays monotone
        qs = _config_spec(name).values(1, 3001)
        T = {(N, L): _thresholds(_miss_probs(qs, N, L)).astype(np.int64)
             for N in range(1, 5) for L in range(1, 17)}
        for (N, L), t in T.items():
            assert np.all(np.diff(t, axis=0) >= 0), (N, L)
            if N > 1:
                assert np.all(t <= T[N - 1, L]), (N, L)
            if L > 1:
                assert np.all(t[:L - 1] <= T[N, L - 1]), (N, L)

    @pytest.mark.parametrize("chunk, L", [(400, 3), (30, 5)])
    def test_stretches_fit_the_chunk(self, chunk, L, monkeypatch):
        # _CHUNK_ELEMENTS // L = 133 sites at L = 3, which whole blocks make
        # 128: stretches of two blocks from site 255 on; at L = 5 one block
        import frogz.mc as mc_mod
        sizes = []

        def counted(q, N, L):
            sizes.append(q.size)
            return _miss_probs(q, N, L)
        monkeypatch.setattr(mc_mod, "_miss_probs", counted)
        monkeypatch.setattr(mc_mod, "_CHUNK_ELEMENTS", chunk)
        spec = _config_spec("inv_square")
        cfg = make_cfg(spec, N=1, L=L, horizon=1000, trials=20, seed=3)
        got = mc_mod.run_trials(cfg)
        assert max(sizes) <= max(_BLOCK, chunk // L)
        assert max(sizes) == max(_BLOCK, chunk // L // _BLOCK * _BLOCK)
        # every site up to the furthest frontier's block is evaluated once
        assert sum(sizes) == _block_end(got.max(), 1000 + L) > 1000 - 2 * max(sizes)
        assert np.array_equal(got, unblocked_frontiers(spec.values(1, 1001 + L), 1, L, 3, 0, 20))

    def test_ranges_share_stretches(self, sqrt_spec, monkeypatch):
        # 3 ranges rescan the same sites, yet each stretch is evaluated once
        # per run: the one-range run's calls, in the same order
        import frogz.mc as mc_mod
        calls = {}

        def counted(q, N, L):
            calls[run].append(q.size)
            return _miss_probs(q, N, L)
        monkeypatch.setattr(mc_mod, "_miss_probs", counted)
        cfg = make_cfg(sqrt_spec, N=1, L=3, horizon=197, trials=150, seed=24)
        got = {}
        for run in (150, 50):
            monkeypatch.setattr(mc_mod, "_RANGE_TRIALS", run)
            calls[run] = []
            got[run] = mc_mod.run_trials(cfg)
        assert calls[150] == [1, 2, 4, 8, 16, 32, 64, 73]
        assert calls[50] == calls[150]
        assert np.array_equal(got[50], got[150])

    def test_thresholds_evaluated_per_piece(self, monkeypatch):
        # one surviving trial scans all 38 blocks of S = 2002 sites; the
        # thresholds come in the 11 doubling pieces 2**k..2**(k+1) - 1, one
        # _miss_probs call each at L = 2, so the N-th power runs 11 times
        import frogz.mc as mc_mod
        calls = []

        def counted(q, N, L):
            calls.append(q.size)
            return _miss_probs(q, N, L)
        monkeypatch.setattr(mc_mod, "_miss_probs", counted)
        cfg = make_cfg(single(ConstantForm(q=0.5)), N=10**5, L=2, horizon=2000, trials=1)
        assert mc_mod.run_trials(cfg).tolist() == [2002]
        assert calls == [2**k for k in range(10)] + [2002 - 1023]


class TestExactLaw:
    @pytest.mark.parametrize("M", [10, 200, 2000])
    def test_inv_square_closed_form(self, inv_square_spec, M):
        # q_n = 1/(n+1)^2, N = L = 1: P(E_M) = prod_{k=2..M}(1 - 1/k^2) = (M+1)/(2M)
        law = activation_law(inv_square_spec.values(1, M), 1, 1)
        assert law[-1] == pytest.approx((M + 1) / (2 * M), rel=1e-12)

    # 4 standard errors for p_hat (two-sided 6e-5); 4.5 for the largest of the
    # per-site counts (two-sided 7e-6 per site, under 6e-3 over 800 sites)
    @pytest.mark.parametrize("name, N, L, M", [
        ("sqrt_decay", 2, 3, 800),
        ("mod2_interleave", 2, 2, 400),
        ("dyadic_override", 1, 4, 200),
    ])
    def test_sampler_matches_law(self, name, N, L, M):
        spec = _config_spec(name)
        trials = 20_000
        law = activation_law(spec.values(1, M), N, L)          # P(E_1..E_M)
        res = estimate_survival(make_cfg(spec, N=N, L=L, horizon=M, trials=trials, seed=1))
        se = np.sqrt(law * (1 - law) / trials)
        assert abs(res.p_hat - law[-1]) <= 4 * se[-1], (res.p_hat, law[-1])
        z = (res.site_counts / trials - law)[se > 0] / se[se > 0]
        assert np.max(np.abs(z)) <= 4.5
        assert np.all(res.site_counts[se == 0] == trials * law[se == 0])

    @pytest.mark.parametrize("name", sorted(p.stem for p in _CONFIGS.glob("*.json")))
    def test_telescoping_bound(self, name):
        # the paper's lower bound, anchored at the exact P(E_{L+1}):
        # P(E_{L+1}) prod_{k<=n}(1 - a_k) <= P(E_{n+L+1}), an equality at L = 1
        config = json.loads((_CONFIGS / f"{name}.json").read_text())
        spec, N, L, M = _config_spec(name), config["N"], config["L"], 300
        law = activation_law(spec.values(1, M), N, L)
        an = a_n_array(spec, N, L, 1, M - L)
        assert np.all(law[L] * np.cumprod(1.0 - an) <= law[L + 1:] * (1 + 1e-12))


class TestFrontierHistogram:
    @pytest.mark.parametrize("size", ["own", "40000x60", "3"])
    @pytest.mark.parametrize("name", sorted(p.stem for p in _CONFIGS.glob("*.json")))
    def test_matches_per_trial_formulas(self, name, size):
        # every number a run reports reads the frontier counts; the per-trial
        # formulas on run_trials' frontiers must give the same, bit for bit
        config = json.loads((_CONFIGS / f"{name}.json").read_text())
        trials, M = {"own": (config["trials"], config["horizon"]), "40000x60": (40_000, 60),
                     "3": (3, config["horizon"])}[size]
        cfg = make_cfg(_config_spec(name), N=config["N"], L=config["L"], horizon=M,
                       trials=trials, seed=5)
        res = estimate_survival(cfg)
        result = res.aggregate_dict()["result"]
        got = {key: result[key] for key in ("survival_count", "max_site_mean", "max_site_max")}
        got.update(site_counts=res.site_counts.tolist(), evaluated=res.work["evaluated"])
        assert got == survival_fields(run_trials(cfg), M, M + config["L"])
        assert res.counts.sum() == trials and np.all(np.diff(res.sites) >= 0) and res.sites[-1] <= M


class TestWorkCount:
    # the scan counts the trial-sites it hashes, block by block; from the
    # frontiers alone, the oracle's closed form of the block schedule gives
    # the same total, each trial's frontier block end (the configs' own sizes
    # are checked the same way by TestFrontierHistogram)
    @pytest.mark.parametrize("range_trials", [None, 7])
    @pytest.mark.parametrize("name, L, M, trials", [
        *[(name, L, 2 * L + 200, 40) for name in sorted(p.stem for p in _CONFIGS.glob("*.json"))
          for L in (1, 2, 3, 63, 64, 65, 255, 256, 300)],
        # two trials die at site 1 and two scan all M + 1 sites
        ("inv_square", 1, 10**5, 4),
    ])
    def test_evaluated_is_the_frontier_block_ends(self, name, L, M, trials, range_trials,
                                                  monkeypatch):
        # at 7 trials per range, 6 ranges rescan the same sites and share stretches
        import frogz.mc as mc_mod
        if range_trials:
            monkeypatch.setattr(mc_mod, "_RANGE_TRIALS", range_trials)
        N = json.loads((_CONFIGS / f"{name}.json").read_text())["N"]
        cfg = make_cfg(_config_spec(name), N=N, L=L, horizon=M, trials=trials, seed=1)
        frontiers = mc_mod.run_trials(cfg)
        want = {"budgeted": trials * (M + L), "evaluated": int(_block_end(frontiers, M + L).sum())}
        assert estimate_survival(cfg).work == want
