"""The benchmark's workloads: the frogz CLI calls each one makes, and the checks
that decide whether a call's outputs are correct.

Every op is one `frogz` subcommand.  Inputs come from the workload seed (the
MC `--seed`, the generated sequence specs and the rows sampled for the
enumeration cross-check) and from the specs shipped in `configs/`.  Checks
import frogz from the checkout under test; they run after an op's timer stops.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

# relative slack the exact layer itself grants the sandwich q^(N f(j)) <= ... <= 2^(NL) q^(N f(j))
SANDWICH_SLACK = 1e-12
BRUTE_FORCE_MAX_L = 14
BRUTE_FORCE_ROWS = 3
REACH_ATOL = 1e-12  # |reach_prob - brute_force_reach|, as acceptance check c02 pins it
MC_Z_LIMIT = 5.0

ALPHAS = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0)


@dataclass(frozen=True)
class Op:
    key: str                     # unique within a workload; names the output files
    argv: tuple[str, ...]        # frogz CLI arguments
    outputs: tuple[str, ...]     # files the op writes, compared across repeats
    check: Callable[[list[str]], list[str]]  # output paths -> problems found
    kind: str                    # the frogz subcommand
    work: int                    # trials, verdict cells or table rows produced
    known_defect: str = ""       # stderr text of a recorded failure, kept visible


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    throughput: str              # name of the work-per-second metric


# -- seed-generated sequence specs -------------------------------------------


def _power(rng: random.Random) -> dict:
    return {"kind": "power", "c": 1, "alpha": rng.choice(ALPHAS), "offset": rng.randint(1, 3)}


def _loginv(rng: random.Random) -> dict:
    return {"kind": "loginv", "c": 1, "offset": rng.randint(2, 4)}


def _periodic(rng: random.Random, modulus: int, n_power: int) -> dict:
    power = set(rng.sample(range(modulus), n_power))
    return {
        "modulus": modulus,
        "residues": [
            {"r": r, "form": _power(rng) if r in power else _loginv(rng)}
            for r in range(modulus)
        ],
        "overrides": [],
    }


def generate_specs(seed: int) -> dict[str, dict]:
    """Three classifier inputs drawn from the seed.

    `mod12` has 10 power-law residues, so L0_L1 enumerates 2^10 subsets;
    `mod12_override` adds a power-law family on n = 3 * 2^j, which moves the
    verdict off the series test (R8); `mod13` has 11 power-law residues.
    """
    rng = random.Random(seed)
    mod12 = _periodic(rng, 12, 10)
    override = {"a": 3, "b": 2, "j0": 1, "form": _power(rng)}
    return {
        "mod12": mod12,
        "mod12_override": dict(mod12, overrides=[override]),
        "mod13": _periodic(rng, 13, 11),
    }


# -- checks -------------------------------------------------------------------


def _frogz():
    # import_module: the package rebinds the name `frogz.classify` to the function
    return tuple(importlib.import_module(f"frogz.{m}") for m in ("classify", "exact", "sequences"))


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_simulate(cfg: dict, profile: bool, closed_form: bool) -> Callable[[list[str]], list[str]]:
    M, trials = cfg["horizon"], cfg["trials"]

    def check(paths):
        problems = []
        with open(paths[0], encoding="utf-8") as fh:
            res = json.loads(fh.read())["result"]
        p = res["p_hat"]
        if res["trials"] != trials:
            problems.append(f"trials {res['trials']} != {trials}")
        if not res["ci_low"] <= p <= res["ci_high"]:
            problems.append(f"p_hat {p} outside [{res['ci_low']}, {res['ci_high']}]")
        if closed_form:
            # q_n = 1/(n+1)^2, N = L = 1: survival to M is (M+1)/(2M)
            exact_p = (M + 1) / (2 * M)
            se = math.sqrt(exact_p * (1 - exact_p) / trials)
            if abs(p - exact_p) > MC_Z_LIMIT * se:
                problems.append(f"p_hat {p} more than {MC_Z_LIMIT} SE from {exact_p}")
        if profile:
            rows = _read_csv(paths[1])
            if [int(r["site"]) for r in rows] != list(range(1, M + 1)):
                problems.append(f"profile has {len(rows)} rows, want sites 1..{M}")
            ps = [float(r["p_hat_Ei"]) for r in rows]
            if any(b > a for a, b in zip(ps, ps[1:])):
                problems.append("profile p_hat_Ei increases")
        return problems

    return check


def _rules_problems(cell: str, params, outcome: str) -> list[str]:
    classify_mod = _frogz()[0]
    fired = classify_mod.applicable_rules(params)
    verdicts = {o.value for o in fired.values()}
    if len(verdicts) > 1:
        return [f"{cell}: applicable rules disagree: {fired}"]
    if verdicts and verdicts != {outcome}:
        return [f"{cell}: outcome {outcome} but rules give {verdicts}"]
    return []


def check_sweep(spec_dict: dict, n_hi: int, l_hi: int) -> Callable[[list[str]], list[str]]:
    def check(paths):
        classify_mod, _, sequences = _frogz()
        rows = _read_csv(paths[0])
        if len(rows) != n_hi * l_hi:
            return [f"{len(rows)} rows, want {n_hi * l_hi}"]
        spec = sequences.SequenceSpec.from_dict(spec_dict)
        problems = []
        outcome = {(int(r["N"]), int(r["L"])): r["outcome"] for r in rows}
        for (N, L), o in outcome.items():
            problems += _rules_problems(f"N={N} L={L}", classify_mod.ProcessParams(N, L, spec), o)
            if o == "SurvivesWPP":
                # survival is monotone in N and L: no extinction above-right
                problems += [
                    f"DiesAS at N={n} L={l} above-right of SurvivesWPP at N={N} L={L}"
                    for (n, l), o2 in outcome.items()
                    if n >= N and l >= L and o2 == "DiesAS"
                ]
        return problems

    return check


def check_classify(cfg: dict) -> Callable[[list[str]], list[str]]:
    def check(paths):
        classify_mod, _, sequences = _frogz()
        with open(paths[0], encoding="utf-8") as fh:
            verdict = json.load(fh)
        params = classify_mod.ProcessParams(
            cfg["N"], cfg["L"], sequences.SequenceSpec.from_dict(cfg["spec"]))
        return _rules_problems("classify", params, verdict["outcome"])

    return check


def check_exact(cfg: dict, sample_seed: int) -> Callable[[list[str]], list[str]]:
    N, L, n_max = cfg["N"], cfg["L"], cfg["n_max"]

    def check(paths):
        _, exact, sequences = _frogz()
        rows = _read_csv(paths[0])
        if [int(r["n"]) for r in rows] != list(range(n_max + 1)):
            return [f"{len(rows)} rows, want n = 0..{n_max}"]
        problems = []
        for r in rows:
            lo, a, hi = float(r["lower"]), float(r["a_n"]), float(r["upper"])
            if not (lo <= a * (1 + SANDWICH_SLACK) and a <= hi * (1 + SANDWICH_SLACK)):
                problems.append(f"n={r['n']}: a_n {a} outside [{lo}, {hi}]")
        if L <= BRUTE_FORCE_MAX_L:
            spec = sequences.SequenceSpec.from_dict(cfg["spec"])
            for n in random.Random(sample_seed).sample(range(n_max + 1), BRUTE_FORCE_ROWS):
                # a_n = prod_i (1 - reach_i)^N; each reach carries the exact
                # layer's absolute tolerance, which (1 - reach) turns relative
                want, rel_tol = 1.0, 0.0
                for i in range(n + 1, n + L + 1):
                    law = exact.WalkLaw(1 - spec.value(i), L)
                    miss = 1 - exact.brute_force_reach(law, n + L + 1 - i)
                    want *= miss ** N
                    rel_tol += N * REACH_ATOL / miss
                got = float(rows[n]["a_n"])
                if not math.isclose(got, want, rel_tol=rel_tol, abs_tol=0.0):
                    problems.append(f"n={n}: a_n {got} != enumeration {want} (rel tol {rel_tol:.3g})")
        return problems

    return check


def check_verify(paths: list[str]) -> list[str]:
    with open(paths[0], encoding="utf-8") as fh:
        report = json.load(fh)
    if report["failures"] or report["checked"] < 1:
        return [f"verify: {len(report['failures'])} failures of {report['checked']}"]
    return []


# -- workload definitions -----------------------------------------------------

def _shipped_spec(root: str, name: str) -> dict:
    with open(os.path.join(root, "configs", f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)["spec"]


def _write_config(workdir: str, key: str, cfg: dict) -> str:
    path = os.path.join(workdir, f"{key}.config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, sort_keys=True)
    return path


def _out(workdir: str, key: str, suffix: str) -> str:
    return os.path.join(workdir, f"{key}.{suffix}")


def _simulate_ops(root, workdir, seed, threads, profile, runs, tiny):
    ops = []
    for name, N, L, horizon, trials in runs:
        if tiny:
            horizon, trials = horizon // 20, trials // 50
        key = f"simulate_{name}"
        cfg = {"spec": _shipped_spec(root, name), "N": N, "L": L,
               "horizon": horizon, "trials": trials}
        outputs = [_out(workdir, key, "jsonl")]
        argv = ["simulate", "--config", _write_config(workdir, key, cfg),
                "--seed", str(seed), "--threads", str(threads), "--out", outputs[0]]
        if profile:
            outputs.append(_out(workdir, key, "profile.csv"))
            argv += ["--profile", outputs[1]]
        closed_form = name == "inv_square" and N == L == 1
        ops.append(Op(key, tuple(argv), tuple(outputs),
                      check_simulate(cfg, profile, closed_form), "simulate", trials))
    return tuple(ops)


def _classify_ops(root, workdir, seed, tiny):
    specs = generate_specs(seed)
    hi = 2 if tiny else 8
    sweep_cfg = {"spec": specs["mod12"]}
    out = _out(workdir, "sweep", "csv")
    ops = [Op("sweep", ("sweep", "--config", _write_config(workdir, "sweep", sweep_cfg),
                        "--n-range", f"1:{hi}", "--l-range", f"1:{hi}", "--out", out),
              (out,), check_sweep(specs["mod12"], hi, hi), "sweep", hi * hi)]
    rng = random.Random(seed)
    for name, spec in specs.items():
        # L >= 3 keeps the override spec decisive: its L0 is at most 3
        cfg = {"spec": spec, "N": rng.randint(1, 4), "L": rng.randint(3, 6)}
        key = f"classify_{name}"
        out = _out(workdir, key, "json")
        ops.append(Op(key, ("classify", "--config", _write_config(workdir, key, cfg),
                            "--out", out), (out,), check_classify(cfg), "classify", 1))
    return tuple(ops)


def _exact_ops(root, workdir, seed, tiny):
    runs = [
        # Two ops exit 2 on one recorded defect: a_n is computed through
        # 1 - reach, which cancels.  On inv_square (N = L = 1) a_n = q comes out
        # as 1 - (1 - q), below the lower bound q at n = 150; on mod2_interleave
        # (N = 2, L = 14) 1 - reach rounds to 0 and a_n = 0.0 at n = 842.
        ("inv_square", 1, 1, 2000, "sandwich violated at n=150:"),
        ("sqrt_decay", 1, 16, 2000, ""),
        ("mod2_interleave", 2, 14, 2000, "sandwich violated at n=842:"),
        ("dyadic_override", 1, 12, 2000, ""),
        ("log_decay", 3, 8, 2000, ""),
    ]
    ops = []
    for i, (name, N, L, n_max, defect) in enumerate(runs):
        if tiny:
            n_max //= 20
        key = f"exact_{name}"
        cfg = {"spec": _shipped_spec(root, name), "N": N, "L": L, "n_max": n_max}
        out = _out(workdir, key, "csv")
        ops.append(Op(key, ("exact", "--config", _write_config(workdir, key, cfg), "--out", out),
                      (out,), check_exact(cfg, seed * 31 + i), "exact", n_max + 1, defect))
    l_max = 6 if tiny else 14
    out = _out(workdir, "verify", "json")
    ops.append(Op("verify", ("verify", "--config",
                             _write_config(workdir, "verify", {"l_max": l_max}), "--out", out),
                  (out,), check_verify, "verify", 0))
    return tuple(ops)


def _mc_extinct(root, workdir, seed, tiny):
    # the frontier dies within a few sites: under 1% of evaluated draws are useful
    return _simulate_ops(root, workdir, seed, 1, False,
                         [("log_decay", 1, 3, 1600, 10_000),
                          ("dyadic_override", 1, 4, 1600, 10_000)], tiny)


def _mc_survive(root, workdir, seed, tiny):
    # 40-50% of draws are useful; --profile runs the MC a second time
    return _simulate_ops(root, workdir, seed, 2, True,
                         [("inv_square", 1, 1, 2000, 20_000),
                          ("sqrt_decay", 2, 3, 800, 10_000)], tiny)


WORKLOADS = {
    "mc_extinct": (_mc_extinct, "trials_per_s"),
    "mc_survive": (_mc_survive, "trials_per_s"),
    "classify_sweep": (_classify_ops, "verdicts_per_s"),
    "exact_tables": (_exact_ops, "rows_per_s"),
}


def build(name: str, root: str, workdir: str, seed: int, tiny: bool = False) -> Workload:
    """Write the workload's configs into `workdir` and return its op list.

    `tiny` shrinks every size for the benchmark's own smoke test.
    """
    make_ops, throughput = WORKLOADS[name]
    return Workload(make_ops(root, workdir, seed, tiny), throughput)
