#!/usr/bin/env python3
"""Sweep the (N, L) grid for a spec and print/save the verdict table.

Example:
    python3 scripts/phase_diagram.py configs/mod2_interleave.json --n-max 8 --l-max 8
"""

import argparse
import csv
import json
import sys

from frogz.classify import ProcessParams, check_sweep, classify
from frogz.errors import TooLargeError
from frogz.sequences import SequenceSpec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("config", help="JSON file with a 'spec' object")
    ap.add_argument("--n-max", type=int, default=8)
    ap.add_argument("--l-max", type=int, default=8)
    ap.add_argument("--out", default=None, help="write CSV here instead of a text grid")
    args = ap.parse_args()

    with open(args.config, encoding="utf-8") as fh:
        spec = SequenceSpec.from_dict(json.load(fh)["spec"])

    n_range, l_range = range(1, args.n_max + 1), range(1, args.l_max + 1)
    if not spec.overrides:              # the guard of `frogz sweep`
        try:
            check_sweep(spec, n_range, l_range)
        except TooLargeError as exc:
            print(f"refused: {exc}", file=sys.stderr)
            return 2
    verdicts = {}
    for N in n_range:
        for L in l_range:
            verdicts[N, L] = classify(ProcessParams(N=N, L=L, spec=spec))

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["N", "L", "outcome", "rule"])
            for (N, L), v in sorted(verdicts.items()):
                writer.writerow([N, L, v.outcome.value, v.trace[0].rule])
        return 0

    glyph = {"DiesAS": ".", "SurvivesWPP": "#", "SurvivesForLargeN": "+"}
    print(f"rows N=1..{args.n_max}, cols L=1..{args.l_max}"
          "  (. dies, # survives wpp, + survives for large N)")
    for N in n_range:
        row = "".join(glyph[verdicts[N, L].outcome.value] for L in l_range)
        print(f"N={N:2d}  {row}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
