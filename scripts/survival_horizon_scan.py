#!/usr/bin/env python3
"""Estimate survival-to-horizon across growing horizons and compare with the
classifier verdict: extinction should show decaying estimates, survival a
plateau.

Example:
    python3 scripts/survival_horizon_scan.py configs/mod2_interleave.json \
        --n 1 --l 2 --trials 5000 --horizons 100 400 1600
"""

import argparse
import json
import sys

from frogz.classify import ProcessParams, classify
from frogz.mc import SimConfig, estimate_survival, wilson_interval
from frogz.sequences import SequenceSpec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("config", help="JSON file with a 'spec' object")
    ap.add_argument("--n", type=int, default=1)
    ap.add_argument("--l", type=int, default=2)
    ap.add_argument("--trials", type=int, default=5000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--horizons", type=int, nargs="+", default=[100, 400, 1600])
    args = ap.parse_args()

    with open(args.config, encoding="utf-8") as fh:
        spec = SequenceSpec.from_dict(json.load(fh)["spec"])
    params = ProcessParams(N=args.n, L=args.l, spec=spec)

    verdict = classify(params)
    print(f"classifier: {verdict.outcome.value} via {verdict.trace[0].rule} "
          f"(m={verdict.m}, b={verdict.b}, L0={verdict.L0}, L1={verdict.L1})")

    # one run at the largest horizon serves every horizon: a trial's frontier at
    # horizon M is its frontier h here capped at M + L, so it survives to M iff h >= M
    cfgs = [SimConfig(params=params, horizon=M, trials=args.trials, seed=args.seed)
            for M in args.horizons]
    counts = estimate_survival(max(cfgs, key=lambda cfg: cfg.horizon)).site_counts
    for cfg in cfgs:
        survived = counts[cfg.horizon - 1]
        lo, hi = wilson_interval(survived, cfg.trials, cfg.ci_level)
        print(f"M={cfg.horizon:6d}  p_hat={survived / cfg.trials:.4f}  "
              f"CI=[{lo:.4f}, {hi:.4f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
