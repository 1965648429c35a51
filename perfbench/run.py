"""frogz benchmark: real CLI calls in fresh processes, run in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a frogz checkout.  One client runs one op (a `frogz`
subcommand in a fresh child process) at a time and repeats the workload's op
list in whole passes for about S seconds, stopping before a pass that would
end past them (at least two passes).  Each op's outputs are checked after its
timer stops.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced pass,
then traced passes (see tracer.py), and prints the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 7
MIN_PASSES = 2
TAIL_BEYOND = 10  # a tail percentile needs this many ops beyond it

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "peak_rss_mb": "MiB",
}

# metric -> unit; a name ending in .s / .self_s / .calls is a per-pass total of
# the span it names, the others are computed in layer_metrics()
PER_LAYER = {
    "mc.run_trials.s": "s",
    "mc.run_trials.calls": "count",
    "mc.ns_per_element": "ns",
    "mc.useful_ratio": "ratio",
    "mc.passes_per_op": "count",
    "mc.estimate_activation_profile.self_s": "s",
    "mc.run_trials.traced_peak_mb": "MiB",
    "exact.reach_prob.s": "s",
    "exact.reach_prob.calls": "count",
    "exact.a_n.self_s": "s",
    "exact.a_n.calls": "count",
    "exact.build_reach_table.self_s": "s",
    "exact.brute_force_reach.s": "s",
    "exact.errors": "count",
    "classify.classify.self_s": "s",
    "classify.classify.calls": "count",
    "classify.series_test.s": "s",
    "classify.min_alignment_exponent.s": "s",
    "sequences.L0_L1.s": "s",
    "sequences.L0_L1.calls": "count",
    "sequences.L0_L1.candidates": "count",
    "sequences.is_in_D1.s": "s",
    "sequences.is_in_D1.hit_ratio": "ratio",
    "sequences.SequenceSpec.from_dict.s": "s",
    "sequences.SequenceSpec.value.calls": "count",
    "sequences.SequenceSpec.values.s": "s",
    "cli.main.self_s": "s",
    "trace_overhead": "ratio",
}


@dataclass
class OpResult:
    op: workloads.Op
    seconds: float
    rss_kib: int
    failed: bool
    work: int = 0
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)


class Runner:
    """Runs ops one at a time and checks their outputs."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.digests: dict[str, str] = {}
        self.check_results: dict[str, list[str]] = {}
        self.problems: list[str] = []
        self.known_failures: list[str] = []

    def spawn(self, argv: list[str], name: str) -> tuple[float, int, int]:
        """(wall seconds, exit code, peak RSS in KiB) of one child process."""
        out_path = os.path.join(self.workdir, f"{name}.stdout")
        err_path = os.path.join(self.workdir, f"{name}.stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return seconds, proc.returncode, usage.ru_maxrss

    def setup_seconds(self, repeats: int) -> float:
        """Median wall time of `frogz --version`: interpreter, numpy and frogz imports."""
        times = []
        for _ in range(repeats):
            seconds, rc, _ = self.spawn([sys.executable, "-m", "frogz.cli", "--version"], "version")
            if rc != 0:
                self.problems.append(f"frogz --version exited {rc}")
            times.append(seconds)
        return statistics.median(times)

    def run(self, op: workloads.Op, traced: bool) -> OpResult:
        if traced:
            spans_path = os.path.join(self.workdir, f"{op.key}.spans.json")
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans_path, "--"]
        else:
            argv = [sys.executable, "-m", "frogz.cli"]
        seconds, rc, rss = self.spawn(argv + list(op.argv), op.key)
        result = OpResult(op, seconds, rss, failed=True)
        if traced:
            try:
                result.spans, result.counters = tracer.load(spans_path)
            except (OSError, ValueError) as exc:
                self.problems.append(f"{op.key}: no spans: {exc}")
        if rc != 0:
            with open(os.path.join(self.workdir, f"{op.key}.stderr"), encoding="utf-8") as fh:
                err = fh.read().strip()
            if op.known_defect and rc == 2 and op.known_defect in err:
                self.known_failures.append(f"{op.key}: {err.splitlines()[-1][:120]}")
            else:
                self.problems.append(f"{op.key}: exit {rc}: {err[-300:]}")
            return result
        digest = hashlib.sha256()
        for path in op.outputs:
            with open(path, "rb") as fh:
                digest.update(fh.read())
        first = self.digests.setdefault(op.key, digest.hexdigest())
        if first != digest.hexdigest():
            problems = ["output differs from the op's first run"]
            self.problems.append(f"{op.key}: {problems[0]}")
        elif op.key in self.check_results:
            problems = self.check_results[op.key]
        else:
            problems = self.check_results[op.key] = op.check(list(op.outputs))
            self.problems += [f"{op.key}: {p}" for p in problems[:5]]
        result.failed = bool(problems)
        result.work = 0 if problems else op.work
        return result

    def passes(self, ops, seconds: float, traced: bool, min_passes: int) -> list[list[OpResult]]:
        """Closed loop: whole passes over `ops` for about `seconds`."""
        out = []
        start = time.perf_counter()
        while True:
            out.append([self.run(op, traced) for op in ops])
            elapsed = time.perf_counter() - start
            # stop before a pass that would end past the deadline
            if len(out) >= min_passes and elapsed * (len(out) + 1) / len(out) > seconds:
                return out


def pass_wall(results: list[OpResult]) -> float:
    return sum(r.seconds for r in results)


def end_to_end_metrics(wl, passes, setup_s) -> tuple[dict, list[str]]:
    """The gated metrics, and report lines for the ungated ones."""
    results = [r for p in passes for r in p]
    times = sorted(r.seconds for r in results)
    walls = [pass_wall(p) for p in passes]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        # per-pass medians first: pooled, the middle ops would be the slowest
        # and fastest copies of two op kinds, which doubles the noise
        "op_p50_s": statistics.median(statistics.median(r.seconds for r in p) for p in passes),
        "peak_rss_mb": max(r.rss_kib for r in results) / 1024,
    }
    work = sum(r.work for r in results)
    failed = sum(r.failed for r in results)
    extra = [
        f"{wl.throughput} {work / sum(walls)!r} 1/s",
        f"fail_ratio {failed / len(results)!r} ratio ({failed} of {len(results)} ops)",
    ]
    by_key = defaultdict(list)
    for r in results:
        by_key[r.op.key].append(r.seconds)
    extra += [f"op {key} median {statistics.median(t)!r} s over {len(t)}" for key, t in by_key.items()]
    extra.append("pass walls s " + " ".join(f"{w:.4f}" for w in walls))
    n = len(times)
    if n > TAIL_BEYOND:
        level = 100 * (n - TAIL_BEYOND) / n
        extra.append(f"op_tail_s {times[n - TAIL_BEYOND - 1]!r} s "
                     f"(p{level:.1f}, {TAIL_BEYOND} of {n} ops beyond it)")
    else:
        extra.append(f"op_tail_s n/a ({n} ops; a tail needs more than {TAIL_BEYOND})")
    return metrics, extra


def layer_metrics(traced_passes, untraced_wall: float) -> dict:
    n_passes = len(traced_passes)
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    counters = defaultdict(float)
    errors = 0
    simulate_ops = 0
    for result in (r for p in traced_passes for r in p):
        simulate_ops += result.op.kind == "simulate"
        selfs = tracer.self_times(result.spans)
        by_id = {s.id: s for s in result.spans}
        for s in result.spans:
            total[s.name] += s.end - s.start
            self_total[s.name] += selfs[s.id]
            calls[s.name] += 1
            parent = by_id.get(s.parent)
            # an error counts once, where it leaves the exact layer
            if (s.raised and s.name.startswith("exact.")
                    and not (parent and parent.name.startswith("exact."))):
                errors += 1
        for key, value in result.counters.items():
            if key == "mc.run_trials.traced_peak_bytes":
                counters[key] = max(counters[key], value)
            else:
                counters[key] += value

    def ratio(num, den):
        return num / den if den else 0.0

    d1_lookups = counters["sequences.is_in_D1.cache_hits"] + counters["sequences.is_in_D1.cache_misses"]
    traced_wall = statistics.median(pass_wall(p) for p in traced_passes)
    computed = {
        "mc.ns_per_element": 1e9 * ratio(total["mc.run_trials"], counters["mc.run_trials.elements"]),
        "mc.useful_ratio": ratio(counters["mc.run_trials.useful_sites"], counters["mc.run_trials.sites"]),
        "mc.passes_per_op": ratio(calls["mc.run_trials"], simulate_ops),
        "mc.run_trials.traced_peak_mb": counters["mc.run_trials.traced_peak_bytes"] / 2**20,
        "exact.errors": errors / n_passes,
        "sequences.L0_L1.candidates": ratio(counters["sequences.L0_L1.candidates"],
                                            calls["sequences.L0_L1"]),
        "sequences.is_in_D1.hit_ratio": ratio(counters["sequences.is_in_D1.cache_hits"], d1_lookups),
        "sequences.SequenceSpec.value.calls": counters["sequences.SequenceSpec.value"] / n_passes,
        "trace_overhead": traced_wall / untraced_wall - 1,
    }
    out = {}
    for name in PER_LAYER:
        if name in computed:
            out[name] = computed[name]
            continue
        span, _, stat = name.rpartition(".")
        table = {"s": total, "self_s": self_total, "calls": calls}[stat]
        out[name] = table[span] / n_passes
    return out


def run_context(seed: int) -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = os.path.join(ROOT, "src", "frogz")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    return {
        "cores": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "seed": seed,
        "src_frogz_lines": lines,
    }


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every size (the benchmark's own smoke test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "frogz", "cli.py")) or \
            not os.path.isdir(os.path.join(ROOT, "configs")):
        sys.stderr.write(f"{ROOT} is not a frogz checkout: src/frogz or configs/ is missing\n")
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))  # the checks import frogz
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.build(args.workload, ROOT, workdir, args.seed, tiny=args.tiny)
        runner = Runner(workdir)
        print("context " + json.dumps(run_context(args.seed), sort_keys=True))
        if args.trace:
            start = time.perf_counter()
            base = runner.passes(wl.ops, 0, traced=False, min_passes=1)
            traced = runner.passes(wl.ops, args.seconds - (time.perf_counter() - start),
                                   traced=True, min_passes=1)
            results = [r for p in base + traced for r in p]
            metrics = layer_metrics(traced, pass_wall(base[0]))
            units = PER_LAYER
        else:
            setup_s = runner.setup_seconds(2 if args.tiny else SETUP_REPEATS)
            passes = runner.passes(wl.ops, args.seconds, traced=False, min_passes=MIN_PASSES)
            results = [r for p in passes for r in p]
            metrics, extra = end_to_end_metrics(wl, passes, setup_s)
            units = END_TO_END
            for line in extra:
                print(line)
        for name, value in metrics.items():
            print(f"{name} {value!r} {units[name]}")
        for line in dict.fromkeys(runner.known_failures):
            print(f"known defect, counted as failed: {line}")
        for line in runner.problems:
            print(f"PROBLEM {line}")
        print(json.dumps({
            "correct": not runner.problems,
            "attempted": len(results),
            "failed": sum(r.failed for r in results),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
