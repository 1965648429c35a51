"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single ``ACCEPTANCE n: PASS`` line on success (visible with
``pytest -s`` or in captured output on failure).  Tolerances and budgets are
part of the contract and must not be loosened.
"""

import time

import numpy as np
import pytest

from frogz.classify import Outcome, ProcessParams, classify, series_test
from frogz.exact import (
    WalkLaw, b, bound_check, brute_force_reach, f, reach_prob,
)
from frogz.mc import SimConfig, estimate_activation_profile, estimate_survival, simulate_trial
from frogz.sequences import (
    ConstantForm, LogInverse, PowerLaw, SequenceSpec, SparseOverride, single,
)


def report(n, detail):
    print(f"\nACCEPTANCE {n}: PASS — {detail}")


def spec_inv_square():
    return single(PowerLaw(c=1, alpha=2, offset=1))


def spec_sqrt():
    return single(PowerLaw(c=1, alpha=0.5, offset=1))


def spec_log():
    return single(LogInverse(c=1, offset=2))


def spec_mod2():
    return SequenceSpec(modulus=2, residue_forms=(
        PowerLaw(c=1, alpha=1, offset=1), LogInverse(c=1, offset=2)))


def spec_mod2_soft():
    return SequenceSpec(modulus=2, residue_forms=(
        PowerLaw(c=1, alpha=1, offset=5), LogInverse(c=1, offset=30)))


def spec_dyadic():
    return SequenceSpec(
        modulus=1,
        residue_forms=(LogInverse(c=1, offset=2),),
        overrides=(SparseOverride(a=1, b=2, form=PowerLaw(c=1, alpha=1, offset=1)),),
    )


def test_c01_closed_form_survival_l1():
    # q_n = 1/(n+1)^2, N=1, L=1: survival to horizon M has the closed form
    # (M+1)/(2M) from the telescoping product of (1 - q_n)
    t0 = time.monotonic()
    M, trials = 2000, 10**5
    cfg = SimConfig(params=ProcessParams(N=1, L=1, spec=spec_inv_square()),
                    horizon=M, trials=trials, seed=20260823)
    res = estimate_survival(cfg)
    exact = (M + 1) / (2 * M)
    elapsed = time.monotonic() - t0
    assert abs(res.p_hat - exact) <= 0.01, (res.p_hat, exact)
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s over budget"
    report(1, f"p_hat={res.p_hat:.5f} vs exact {exact:.5f} in {elapsed:.1f}s")


def test_c02_reach_dp_matches_enumeration():
    t0 = time.monotonic()
    checked = 0
    for L in range(1, 13):
        for p in [round(0.1 * i, 1) for i in range(1, 10)]:
            law = WalkLaw(p_right=p, steps=L)
            for d in range(1, L + 1):
                assert abs(reach_prob(law, d) - brute_force_reach(law, d)) <= 1e-12
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s over budget"
    report(2, f"{checked} (p, L, d) points equal to 1e-12 in {elapsed:.1f}s")


def test_c03_probability_sandwich_grid():
    tuples = 0
    for q in (0.1, 0.3, 0.5, 0.7, 0.9):
        spec = single(ConstantForm(q=q))
        for N in (1, 2, 3, 4):
            for L in range(1, 8):
                tuples += len(bound_check(spec, N, L, 0))  # raises on violation
    assert tuples >= 500
    report(3, f"{tuples} (q, N, L, j) tuples, zero violations")


def test_c04_threshold_closed_form_identity():
    checked = 0
    for N in range(1, 11):
        for L in range(1, 101):
            assert b(N, L) == N * sum(f(j) for j in range(1, L + 1))
            checked += 1
    report(4, f"{checked} (N, L) pairs, exact integer equality")


def test_c05_classifier_regressions():
    grid = [(N, L) for N in range(1, 9) for L in range(1, 9)]
    # (a) log-inverse decay dies everywhere
    for N, L in grid:
        assert classify(ProcessParams(N, L, spec_log())).outcome is Outcome.DIES_AS
    # (b) alpha = 1/2 survives exactly when the budget b(N, L) reaches 3
    for N, L in grid:
        got = classify(ProcessParams(N, L, spec_sqrt())).outcome
        want = Outcome.SURVIVES_WPP if b(N, L) >= 3 else Outcome.DIES_AS
        assert got is want, (N, L, got)
    # (c) alternating power/log classes: lifetime thresholds 2 and 4
    v = classify(ProcessParams(1, 2, spec_mod2()))
    assert (v.L0, v.L1) == (2, 4)
    assert v.outcome is Outcome.DIES_AS
    for N in range(2, 9):
        assert classify(ProcessParams(N, 2, spec_mod2())).outcome is Outcome.SURVIVES_WPP
    for N in range(1, 9):
        assert classify(ProcessParams(N, 3, spec_mod2())).outcome is Outcome.SURVIVES_WPP
    # (d) geometric-index summable family with unbounded gaps dies
    for N, L in [(1, 1), (4, 6), (8, 8)]:
        assert classify(ProcessParams(N, L, spec_dyadic())).outcome is Outcome.DIES_AS
    report(5, "all four regression families match on [1,8] x [1,8]")


def test_c06_series_test_closed_forms():
    # family 1: power class every third index, log-inverse elsewhere; the
    # minimizing alignment collects f at positions 1, 4, 7, ... so extinction
    # is equivalent to  sum_i N*alpha*floor((3i+2)/2) < 1
    agree = 0
    for alpha in (0.1, 0.25, 1 / 3, 0.9):
        spec = SequenceSpec(modulus=3, residue_forms=(
            PowerLaw(c=1, alpha=alpha, offset=1),
            LogInverse(c=1, offset=2),
            LogInverse(c=1, offset=2)))
        for L in range(3, 13):
            for N in range(1, 9):
                e = sum(N * alpha * ((3 * i + 2) // 2) for i in range(L // 3))
                want = Outcome.DIES_AS if e < 1 - 1e-9 else Outcome.SURVIVES_WPP
                got, _ = series_test(spec, N, L)
                assert got is want, (alpha, N, L, e, got)
                agree += 1
    # family 2: plain power law; at the exponent edge the series still
    # diverges, so extinction is N*alpha <= 1 at L=1 and 2*N*alpha <= 1 at L=2
    for alpha in (0.1, 0.125, 0.25, 1 / 3, 0.5, 0.9):
        spec = single(PowerLaw(c=1, alpha=alpha, offset=1))
        for N in range(1, 9):
            for L, factor in ((1, 1), (2, 2)):
                e = factor * N * alpha
                want = Outcome.DIES_AS if e <= 1 + 1e-9 else Outcome.SURVIVES_WPP
                got, _ = series_test(spec, N, L)
                assert got is want, (alpha, N, L, e, got)
                agree += 1
    report(6, f"{agree} closed-form points, 100% agreement")


def test_c07_mc_classifier_consistency():
    t0 = time.monotonic()
    trials, seed = 10**4, 123
    horizons = (100, 400, 1600)
    dies = [
        (single(PowerLaw(c=1, alpha=1, offset=1)), 1, 1),
        (single(PowerLaw(c=1, alpha=0.95, offset=20)), 1, 1),
        (spec_mod2_soft(), 1, 2),
    ]
    survives = [
        (spec_sqrt(), 1, 3),
        (spec_inv_square(), 1, 1),
        (spec_mod2(), 2, 2),
    ]
    for spec, N, L in dies:
        assert classify(ProcessParams(N, L, spec)).outcome is Outcome.DIES_AS
        results = [estimate_survival(SimConfig(
            params=ProcessParams(N, L, spec), horizon=M, trials=trials,
            seed=seed)) for M in horizons]
        for shorter, longer in zip(results, results[1:]):
            assert longer.ci_high < shorter.ci_low, (
                "extinction estimate did not decrease beyond CI overlap",
                shorter.p_hat, longer.p_hat)
    for spec, N, L in survives:
        assert classify(ProcessParams(N, L, spec)).outcome is Outcome.SURVIVES_WPP
        p = {M: estimate_survival(SimConfig(
            params=ProcessParams(N, L, spec), horizon=M, trials=trials,
            seed=seed)).p_hat for M in horizons}
        assert p[1600] >= 0.8 * p[100], p
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s over budget"
    report(7, f"3 extinction + 3 survival configs consistent in {elapsed:.1f}s")


def test_c08_coupled_monotonicity():
    spec, M, seed = spec_sqrt(), 60, 77
    violations = 0
    for t in range(1000):
        base = simulate_trial(ProcessParams(1, 2, spec), M, t, seed)[1]
        more_n = simulate_trial(ProcessParams(2, 2, spec), M, t, seed)[1]
        more_l = simulate_trial(ProcessParams(1, 3, spec), M, t, seed)[1]
        if not (base <= more_n and base <= more_l):
            violations += 1
    assert violations == 0
    report(8, "1000 coupled trials, activated sets nested, zero violations")


def test_c09_thread_determinism(tmp_path):
    import json
    from frogz.cli import main
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "N": 2, "L": 2, "spec": spec_mod2().to_dict(),
        "horizon": 50, "trials": 2000, "seed": 42}))
    a, b_ = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["simulate", "--config", str(cfg), "--out", str(a), "--threads", "1"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(b_), "--threads", "3"]) == 0
    assert a.read_bytes() == b_.read_bytes()
    report(9, "1- and 3-thread runs byte-identical")


def test_c10_activation_profile():
    configs = [
        (spec_inv_square(), 1, 1, 120),
        (spec_sqrt(), 1, 3, 80),
        (spec_mod2(), 2, 2, 80),
    ]
    for spec, N, L, M in configs:
        cfg = SimConfig(params=ProcessParams(N, L, spec), horizon=M,
                        trials=5000, seed=31)
        prof = estimate_activation_profile(cfg)
        slack = 3 * prof.ci_half
        for i in range(1, M):
            assert prof.p_hat[i] <= prof.p_hat[i - 1] + slack[i] + 1e-12
        # for L = 1 the anchored telescoping curve is an equality, so
        # dominance is checked with the same statistical slack as above
        mask = ~np.isnan(prof.lower_curve)
        assert np.all(prof.p_hat[mask] >= prof.lower_curve[mask] - slack[mask] - 1e-12)
    report(10, "profiles nonincreasing and above the product lower bound")
