"""Command-line entry point: classify, exact, simulate, sweep, verify.

Configs are JSON, outputs are CSV/JSONL; only `main` reads --config and writes
--out, --store and --profile.  Exit codes: 0 success, 1 malformed config or an
output that cannot be opened or written, 2 invalid spec or guard refusal, 4
verification violation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import os
import sys

# numpy's OpenBLAS reads this on import: frogz calls no BLAS routine (its only
# @ products are int64), so it needs no worker thread.  A user's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np

from . import __version__
from .classify import (
    ProcessParams, check_sweep, classify, min_alignment_exponent, num, weakest_alignment,
)
from .errors import (
    BoundViolationError, FrogzError, MalformedConfigError, OutOfRangeError, TooLargeError,
)
from .exact import (
    WalkLaw, _reach_sums, bound_reports, brute_force_reach, build_reach_table, check_enumeration,
)
from .mc import ActivationProfile, SimConfig, activation_profile, check_profile, estimate_survival
from .sequences import ConstantForm, SequenceSpec, config_number, single

EXIT_OK = 0
EXIT_BAD_CONFIG = 1
EXIT_INVALID_SPEC = 2
EXIT_VIOLATION = 4


def _config_num(cfg: dict, key: str, default=None, kind=int):
    """cfg[key] (or the default when given and the key is absent) as a number."""
    return config_number(key, cfg[key] if default is None else cfg.get(key, default), kind)


def _config_grid(cfg: dict, key: str, default: list, kind) -> list:
    """cfg[key] (or the default) as a list, each entry converted like _config_num."""
    grid = cfg.get(key, default)
    if not isinstance(grid, list):
        raise MalformedConfigError(f"config key {key!r} must be a list, got {grid!r}")
    if not grid:
        raise OutOfRangeError(f"need a nonempty {key}")
    return [config_number(key, value, kind) for value in grid]


def _params_from_config(cfg: dict) -> ProcessParams:
    spec = SequenceSpec.from_dict(cfg["spec"])
    return ProcessParams(N=_config_num(cfg, "N"), L=_config_num(cfg, "L"), spec=spec)


def _csv(fh, header: list, rows):
    """Write a header and rows to fh as CSV, each line ending in "\\n"; returns fh."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return fh


# each cmd_* returns (stdout text, store record fields, exit code, --profile data or None)
def cmd_classify(config: dict, args) -> tuple[str, dict, int, None]:
    verdict = classify(_params_from_config(config)).to_dict()
    return json.dumps(verdict, sort_keys=True) + "\n", {"result": verdict}, EXIT_OK, None


def cmd_exact(config: dict, args) -> tuple[str, dict, int, None]:
    spec = SequenceSpec.from_dict(config["spec"])
    N, L = _config_num(config, "N"), _config_num(config, "L")
    n_max = _config_num(config, "n_max", 50)
    rows = build_reach_table(spec, N, L, n_max)
    text = _csv(io.StringIO(), ["n", "a_n", "lower", "upper", "partial_product"], (
        [row.n, repr(row.a_n), repr(row.lower), repr(row.upper), repr(row.partial_product)]
        for row in rows)).getvalue()
    return text, {"result": {"rows": len(rows)}}, EXIT_OK, None


def _write_profile(profile: ActivationProfile, fh) -> None:
    columns = (profile.sites, profile.p_hat, profile.ci_half, profile.lower_curve)
    step = 2 ** 14                      # rows turned into Python numbers at a time
    _csv(fh, ["site", "p_hat_Ei", "ci_half", "lower_bound_curve"], (
        [i, repr(p), repr(h), "" if math.isnan(lb) else repr(lb)]
        for k in range(0, len(profile.sites), step)
        for i, p, h, lb in zip(*(column[k:k + step].tolist() for column in columns))))


def cmd_simulate(config: dict, args) -> tuple[str, dict, int, ActivationProfile | None]:
    params = _params_from_config(config)
    # a flag, when given, overrides its config key; the keys are read in this order
    flags = {key: getattr(args, key) for key in ("horizon", "trials", "seed")}
    chosen = {key: _config_num(config, key, 0) if flag is None else flag
              for key, flag in flags.items()}
    cfg = SimConfig(
        params=params, **chosen, ci_level=_config_num(config, "ci_level", 0.95, float),
    )
    if args.profile:
        check_profile(cfg)
    result = estimate_survival(cfg)
    profile = activation_profile(result) if args.profile else None
    summary = result.aggregate_dict()
    return (json.dumps(summary, sort_keys=True) + "\n",
            {**summary, "seed": cfg.seed, "work": result.work}, EXIT_OK, profile)


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


def _positive_int(text: str) -> int:
    """--threads: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def cmd_sweep(config: dict, args) -> tuple[str, dict, int, None]:
    spec = SequenceSpec.from_dict(config["spec"])
    if not spec.overrides:
        check_sweep(spec, args.n_range, args.l_range)
    rows = []
    for N in args.n_range:
        for L in args.l_range:
            verdict = classify(ProcessParams(N=N, L=L, spec=spec))
            if spec.overrides:
                min_e = min_f = ""
            else:
                # where R7 decided, the verdict carries the exponents already
                exps = verdict.exponents or min_alignment_exponent(spec, N, L)
                best = weakest_alignment(exps)
                min_e, min_f = repr(best.power_exp), best.log_exp
            rows.append([
                N, L, verdict.outcome.value, num(verdict.m), verdict.b,
                num(verdict.L0), num(verdict.L1), min_e, min_f,
            ])
    header = ["N", "L", "outcome", "m", "b", "L0", "L1", "min_E", "min_F"]
    text = _csv(io.StringIO(), header, rows).getvalue()
    return text, {"result": {"rows": len(rows)}}, EXIT_OK, None


def cmd_verify(config: dict, args) -> tuple[str, dict, int, None]:
    l_max = _config_num(config, "l_max", 8)
    if l_max < 1:
        raise OutOfRangeError(f"need l_max >= 1, got {l_max}")
    check_enumeration(l_max)
    p_grid = _config_grid(config, "p_grid", [round(0.1 * i, 1) for i in range(1, 10)], float)
    q_grid = _config_grid(config, "q_grid", [0.1, 0.3, 0.5, 0.7, 0.9], float)
    n_grid = _config_grid(config, "N_grid", [1, 2, 3], int)
    checked = 0
    failures = []
    for L in range(1, l_max + 1):
        laws = [WalkLaw(p_right=p, steps=L) for p in p_grid]
        # one first-passage table per L: its columns are computed
        # elementwise, so each holds reach_prob's values for its p
        sums = _reach_sums(np.array([1 - float(law.p_right) for law in laws]), L).T.tolist()
        for law, row in zip(laws, sums):
            for d in range(1, L + 1):
                reach = row[d - 1]
                oracle = brute_force_reach(law, d)
                checked += 1
                if abs(reach - oracle) > 1e-12:
                    failures.append(("reach", law.p_right, L, d, reach, oracle))
    # one reach table per (N, L, position) serves every q; it is computed at its
    # first use, so outcomes and errors come in the (q, N, L) order of single checks
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
    if failures:
        sys.stderr.write(f"{len(failures)} violations, first: {failures[0]}\n")
    return (json.dumps(report, sort_keys=True) + "\n", {"result": report},
            EXIT_VIOLATION if failures else EXIT_OK, None)


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
    # accepted and validated, but the scan runs in one thread whatever the value
    sub.choices["simulate"].add_argument("--threads", type=_positive_int, default=1)
    sub.choices["simulate"].add_argument("--trials", type=int, default=None)
    sub.choices["simulate"].add_argument("--horizon", type=int, default=None)
    sub.choices["simulate"].add_argument("--profile", default=None)
    sub.choices["sweep"].add_argument("--n-range", type=_parse_range, required=True)
    sub.choices["sweep"].add_argument("--l-range", type=_parse_range, required=True)
    return parser


def main(argv=None) -> int:
    target, made = "stdout", []  # the output being written, and the files this run made
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:  # argparse printed --version, --help or a usage error
            sys.stdout.flush()  # a closed stdout fails here and is reported below
            raise
        config = {}
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                try:
                    config = json.load(fh)
                except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or nesting
                    raise MalformedConfigError(str(exc)) from exc
            if not isinstance(config, dict):
                raise MalformedConfigError(
                    f"config must be a JSON object, got {type(config).__name__}")
        text, fields, code, profile = args.fn(config, args)
        paths = (args.store, args.out, getattr(args, "profile", None))
        made = [p for p in paths if p and not os.path.lexists(p)]
        with contextlib.ExitStack() as files:
            # every output is opened before any is written
            store, out, prof = [p and files.enter_context(open(p, "a", encoding="utf-8",
                                                               newline="")) for p in paths]
            if not out:  # stdout first: a failure there finds every file as it was
                sys.stdout.write(text)
                sys.stdout.flush()
            for fh in (out, prof):
                if fh:
                    target = fh.name
                    if os.path.isfile(fh.name):  # as mode "w" would; a device or pipe stays
                        fh.truncate(0)
                    if fh is prof:
                        _write_profile(profile, fh)
                    else:
                        fh.write(text)
                    fh.flush()
            if store:  # last, so an output that fails writes no record
                from datetime import datetime, timezone
                target = store.name
                record = {"timestamp": datetime.now(timezone.utc).isoformat(),
                          "subcommand": args.command, "config": config, "version": __version__,
                          **fields}
                store.write(json.dumps(record, sort_keys=True) + "\n")
                store.flush()
        return code
    except KeyError as exc:
        sys.stderr.write(f"bad config: missing config key {exc}\n")
        return EXIT_BAD_CONFIG
    except MalformedConfigError as exc:
        sys.stderr.write(f"bad config: {exc}\n")
        return EXIT_BAD_CONFIG
    except OSError as exc:  # an open or a write failed: remove what this run made
        for p in made:
            if os.path.lexists(p):
                os.remove(p)
        where = f"open {exc.filename}" if exc.filename else f"write {target}"
        sys.stderr.write(f"cannot {where}: {exc.strerror}\n")
        return EXIT_BAD_CONFIG
    except TooLargeError as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return EXIT_INVALID_SPEC
    except (FrogzError, ValueError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_INVALID_SPEC


def entry() -> None:
    """The console script and `python -m frogz.cli`: one command per process."""
    # the import-time heap lives until exit, so no collection, during the
    # command or at exit, needs to rescan it
    gc.freeze()
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # main reported the closed or full stdout; what it left buffered goes
        # nowhere, so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
