"""Command-line entry point: classify, exact, simulate, sweep, verify.

Configs are JSON, outputs are CSV/JSONL.  Exit codes: 0 success, 1 malformed
config, 2 invalid spec or guard refusal, 4 verification violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from datetime import datetime, timezone

from . import __version__
from .classify import ProcessParams, classify, min_alignment_exponent
from .errors import (
    BoundViolationError, FrogzError, InvalidSpecError, MalformedConfigError,
    TooLargeError,
)
from .exact import (
    ENUMERATION_MAX_STEPS, WalkLaw, bound_reports, brute_force_reach,
    build_reach_table, reach_prob,
)
from .mc import ActivationProfile, SimConfig, activation_profile, estimate_survival
from .sequences import INF, ConstantForm, SequenceSpec, config_number, single

EXIT_OK = 0
EXIT_BAD_CONFIG = 1
EXIT_INVALID_SPEC = 2
EXIT_VIOLATION = 4


def _load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise MalformedConfigError(f"config must be a JSON object, got {type(config).__name__}")
    return config


def _config_num(cfg: dict, key: str, default=None, kind=int):
    """cfg[key] (or the default when given and the key is absent) as a number."""
    return config_number(key, cfg[key] if default is None else cfg.get(key, default), kind)


def _config_grid(cfg: dict, key: str, default: list, kind) -> list:
    """cfg[key] (or the default) as a list, each entry converted like _config_num."""
    grid = cfg.get(key, default)
    if not isinstance(grid, list):
        raise MalformedConfigError(f"config key {key!r} must be a list, got {grid!r}")
    return [config_number(key, value, kind) for value in grid]


def _params_from_config(cfg: dict) -> ProcessParams:
    if not isinstance(cfg, dict):
        raise MalformedConfigError(f"params must be a JSON object, got {type(cfg).__name__}")
    try:
        spec = SequenceSpec.from_dict(cfg["spec"])
        return ProcessParams(N=_config_num(cfg, "N"), L=_config_num(cfg, "L"), spec=spec)
    except KeyError as exc:
        raise KeyError(f"missing config key {exc}") from exc


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _append_record(store: str | None, subcommand: str, config: dict,
                   result, **extra) -> None:
    if not store:
        return
    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "subcommand": subcommand,
        "config": config,
        "result": result,
        "version": __version__,
        **extra,
    }
    with open(store, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def cmd_classify(args) -> int:
    config = _load_config(args.config)
    params = _params_from_config(config)
    verdict = classify(params)
    payload = json.dumps(verdict.to_dict(), sort_keys=True) + "\n"
    _write_out(payload, args.out)
    _append_record(args.store, "classify", config, verdict.to_dict())
    return EXIT_OK


def cmd_exact(args) -> int:
    config = _load_config(args.config)
    spec = SequenceSpec.from_dict(config["spec"])
    N, L = _config_num(config, "N"), _config_num(config, "L")
    n_max = _config_num(config, "n_max", 50)
    rows = build_reach_table(spec, N, L, n_max)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "a_n", "lower", "upper", "partial_product"])
    for row in rows:
        writer.writerow([row.n, repr(row.a_n), repr(row.lower), repr(row.upper),
                         repr(row.partial_product)])
    _write_out(buf.getvalue(), args.out)
    _append_record(args.store, "exact", config, {"rows": len(rows)})
    return EXIT_OK


def _write_profile(profile: ActivationProfile, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["site", "p_hat_Ei", "ci_half", "lower_bound_curve"])
        for i in range(len(profile.sites)):
            lb = profile.lower_curve[i]
            writer.writerow([
                int(profile.sites[i]), repr(float(profile.p_hat[i])),
                repr(float(profile.ci_half[i])),
                "" if math.isnan(lb) else repr(float(lb)),
            ])


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    params = _params_from_config(config.get("params", config))
    horizon = args.horizon if args.horizon is not None else _config_num(config, "horizon", 0)
    trials = args.trials if args.trials is not None else _config_num(config, "trials", 0)
    seed = args.seed if args.seed is not None else _config_num(config, "seed", 0)
    cfg = SimConfig(
        params=params, horizon=horizon, trials=trials, seed=seed,
        ci_level=_config_num(config, "ci_level", 0.95, float),
    )
    result = estimate_survival(cfg, threads=args.threads)
    _write_out(result.to_jsonl(), args.out)
    if args.profile:
        _write_profile(activation_profile(result), args.profile)
    _append_record(args.store, "simulate", cfg.to_dict(),
                   result.aggregate_dict()["result"], seed=seed, work=result.work)
    return EXIT_OK


def _parse_range(text: str) -> range:
    """--n-range/--l-range: "lo:hi", inclusive, with 1 <= lo <= hi."""
    lo, _, hi = text.partition(":")
    try:
        bounds = range(int(lo), int(hi) + 1)
    except ValueError:
        bounds = range(0)
    if not bounds or bounds.start < 1:
        raise argparse.ArgumentTypeError(f"expected lo:hi with 1 <= lo <= hi, got {text!r}")
    return bounds


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    spec = SequenceSpec.from_dict(config["spec"])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["N", "L", "outcome", "m", "b", "L0", "L1", "min_E", "min_F"])
    for N in args.n_range:
        for L in args.l_range:
            verdict = classify(ProcessParams(N=N, L=L, spec=spec))
            if spec.has_overrides:
                min_e = min_f = ""
            else:
                _, best = min_alignment_exponent(spec, N, L)
                min_e, min_f = repr(best.power_exp), best.log_exp
            writer.writerow([
                N, L, verdict.outcome.value,
                "inf" if verdict.m == INF else verdict.m, verdict.b,
                "inf" if verdict.L0 == INF else int(verdict.L0),
                "inf" if verdict.L1 == INF else int(verdict.L1),
                min_e, min_f,
            ])
    _write_out(buf.getvalue(), args.out)
    _append_record(args.store, "sweep", config,
                   {"rows": len(args.n_range) * len(args.l_range)})
    return EXIT_OK


def cmd_verify(args) -> int:
    config = _load_config(args.config) if args.config else {}
    l_max = _config_num(config, "l_max", 8)
    if l_max > ENUMERATION_MAX_STEPS:
        sys.stderr.write(f"refusing oracle mode with L > {ENUMERATION_MAX_STEPS}\n")
        return EXIT_INVALID_SPEC
    p_grid = _config_grid(config, "p_grid", [round(0.1 * i, 1) for i in range(1, 10)], float)
    q_grid = _config_grid(config, "q_grid", [0.1, 0.3, 0.5, 0.7, 0.9], float)
    n_grid = _config_grid(config, "N_grid", [1, 2, 3], int)
    checked = 0
    failures = []
    for L in range(1, l_max + 1):
        for p in p_grid:
            law = WalkLaw(p_right=p, steps=L)
            for d in range(1, L + 1):
                dp = reach_prob(law, d)
                oracle = brute_force_reach(law, d)
                checked += 1
                if abs(dp - oracle) > 1e-12:
                    failures.append(("reach", p, L, d, dp, oracle))
    # one batched DP per (N, L, position) serves every q; it runs at its first
    # use, so outcomes and errors come in the (q, N, L) order of single checks
    specs = [single(ConstantForm(q=qv)) for qv in q_grid]
    grid = {}
    for i, qv in enumerate(q_grid):
        for N in n_grid:
            for L in range(1, l_max + 1):
                if (N, L) not in grid:
                    grid[N, L] = bound_reports(specs, N, L, 0)
                outcome = grid[N, L][i]
                if isinstance(outcome, BoundViolationError):
                    failures.append(("bound", qv, N, L, str(outcome)))
                elif isinstance(outcome, Exception):
                    raise outcome
                else:
                    checked += L
    report = {"checked": checked, "failures": failures}
    _write_out(json.dumps(report, sort_keys=True) + "\n", args.out)
    _append_record(args.store, "verify", config, report)
    if failures:
        sys.stderr.write(f"{len(failures)} violations, first: {failures[0]}\n")
        return EXIT_VIOLATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frogz",
        description="finite-lifetime random-walk system analysis and simulation",
    )
    parser.add_argument("--version", action="version", version=f"frogz {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, needs_config in [
        ("classify", cmd_classify, True),
        ("exact", cmd_exact, True),
        ("simulate", cmd_simulate, True),
        ("sweep", cmd_sweep, True),
        ("verify", cmd_verify, False),
    ]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config)
        p.add_argument("--out", default=None)
        p.add_argument("--store", default=None)
        p.set_defaults(fn=fn)
    sub.choices["simulate"].add_argument("--seed", type=int, default=None)
    sub.choices["simulate"].add_argument("--threads", type=int, default=1)
    sub.choices["simulate"].add_argument("--trials", type=int, default=None)
    sub.choices["simulate"].add_argument("--horizon", type=int, default=None)
    sub.choices["simulate"].add_argument("--profile", default=None)
    sub.choices["sweep"].add_argument("--n-range", type=_parse_range, required=True)
    sub.choices["sweep"].add_argument("--l-range", type=_parse_range, required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (json.JSONDecodeError, KeyError, FileNotFoundError,
            MalformedConfigError) as exc:
        sys.stderr.write(f"bad config: {exc}\n")
        return EXIT_BAD_CONFIG
    except TooLargeError as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return EXIT_INVALID_SPEC
    except (InvalidSpecError, FrogzError, ValueError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INVALID_SPEC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
