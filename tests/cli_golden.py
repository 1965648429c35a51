"""The golden CLI corpus: run `python tests/cli_golden.py` to rewrite
tests/data/cli_golden.json from the code as it stands.

Each case runs through `frogz.cli.main` in-process, and the file records its
argv, its exit code and the sha256 of its stdout, its stderr and each --out,
--profile and --store file (a --store line without its `timestamp`).  In argv,
"{repo}" stands for the repository root and "{tmp}" for a fresh directory that
holds the case's input files; both are written back in place of the real paths
before stdout and stderr are hashed.  tests/test_cli_golden.py compares the
code against the file.  Rewrite it only for a deliberate output change, and
name every case whose digests moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "data" / "cli_golden.json"
OUTPUT_FLAGS = ("--out", "--profile", "--store")
ABOUT = (
    "sha256 digests of every output of each case, recorded with the numpy release "
    "named in `numpy`. Under that release a mismatch is an output change: a "
    "deliberate one reruns tests/cli_golden.py and names the moved cases in "
    "CHANGES.md, any other is a bug. Under another numpy release only exit codes "
    "are compared, because float bits that pass through numpy's power or log may "
    "differ between releases."
)


def _cases() -> list[dict]:
    """(id, argv, input files) for every case, in the order the file keeps them."""
    cases = []
    for config in sorted(p.stem for p in (REPO / "configs").glob("*.json")):
        cfg = ["--config", f"{{repo}}/configs/{config}.json"]
        for name, argv in [
            ("classify", ["classify", *cfg]),
            ("exact", ["exact", *cfg]),
            ("simulate", ["simulate", *cfg]),
            ("simulate_profile_store", ["simulate", *cfg, "--profile", "{tmp}/profile.csv",
                                        "--store", "{tmp}/runs.jsonl"]),
            ("simulate_seed7", ["simulate", *cfg, "--trials", "20000", "--horizon", "300",
                                "--seed", "7", "--out", "{tmp}/sim.jsonl"]),
            ("sweep", ["sweep", *cfg, "--n-range", "1:6", "--l-range", "1:6"]),
        ]:
            cases.append({"id": f"{name}-{config}", "argv": argv})
    sqrt = ["--config", "{repo}/configs/sqrt_decay.json"]
    cases += [
        {"id": "verify", "argv": ["verify"]},
        {"id": "missing_config", "argv": ["classify", "--config", "{tmp}/missing.json"]},
        {"id": "bad_json", "argv": ["classify", "--config", "{tmp}/bad.json"],
         "inputs": {"bad.json": "{not json"}},
        {"id": "guard_refusal", "argv": ["verify", "--config", "{tmp}/verify25.json"],
         "inputs": {"verify25.json": '{"l_max": 25}'}},
        {"id": "threads_0", "argv": ["simulate", *sqrt, "--threads", "0"]},
        {"id": "simulate_m1e5", "argv": ["simulate", "--config",
                                         "{repo}/configs/inv_square.json",
                                         "--trials", "4", "--horizon", "100000"]},
    ]
    return cases


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(flag: str, path: Path) -> str | None:
    if not path.exists():
        return None
    if flag != "--store":
        return _sha(path.read_bytes())
    lines = [{k: v for k, v in json.loads(line).items() if k != "timestamp"}
             for line in path.read_text(encoding="utf-8").splitlines()]
    return _sha("".join(json.dumps(rec, sort_keys=True) + "\n" for rec in lines).encode())


def run_case(case: dict) -> dict:
    """Run one case through main; its record: exit code and digests."""
    from frogz.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        for name, text in case.get("inputs", {}).items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        argv = [a.replace("{repo}", str(REPO)).replace("{tmp}", tmp) for a in case["argv"]]
        out, err = io.StringIO(), io.StringIO()
        # argparse wraps its usage text to the terminal's width
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.dict(os.environ, COLUMNS="80"):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: a usage error
                code = exc.code

        def text_sha(stream: io.StringIO) -> str:
            text = stream.getvalue().replace(tmp, "{tmp}").replace(str(REPO), "{repo}")
            return _sha(text.encode())

        record = {"exit": code, "stdout": text_sha(out), "stderr": text_sha(err)}
        for flag in OUTPUT_FLAGS:
            if flag in argv:
                record[flag] = _file_digest(flag, Path(argv[argv.index(flag) + 1]))
    return record


def main() -> None:
    cases = [{**case, **run_case(case)} for case in _cases()]
    GOLDEN.write_text(json.dumps({"about": ABOUT, "numpy": np.__version__, "cases": cases},
                                 indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    sys.path.insert(0, str(REPO / "src"))
    main()
