"""Regression pin on the classifier: every verdict and every fired-rule set in
tests/data/verdicts_golden.json must be reproduced exactly.

The file holds its own specs (the shipped configs, mod3_spec(0.3) and a
modulus-10 spec with a sparse override), so it does not drift with configs/.
"""

import json
from pathlib import Path

import pytest

from frogz.classify import ProcessParams, applicable_rules, classify, min_alignment_exponent
from frogz.sequences import SequenceSpec

GOLDEN = json.loads((Path(__file__).parent / "data" / "verdicts_golden.json").read_text())
SPECS = {name: SequenceSpec.from_dict(d) for name, d in GOLDEN["specs"].items()}


def test_golden_covers_every_rule():
    rules = {c["verdict"]["trace"][0]["rule"] for c in GOLDEN["cells"]}
    assert rules == {f"R{i}" for i in range(1, 9)}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_verdicts_match_golden(name):
    spec = SPECS[name]
    cells = [c for c in GOLDEN["cells"] if c["spec"] == name]
    assert len(cells) == 64
    for cell in cells:
        params = ProcessParams(N=cell["N"], L=cell["L"], spec=spec)
        where = f"{name} N={cell['N']} L={cell['L']}"
        # a JSON round trip turns the trace's exponent tuples into lists
        assert json.loads(json.dumps(classify(params).to_dict())) == cell["verdict"], where
        fired = [(rule, o.value) for rule, o in applicable_rules(params).items()]
        assert fired == list(cell["applicable_rules"].items()), where


def test_r7_window_is_the_only_disagreement_with_the_full_range_criterion():
    # the full-range criterion: DiesAS iff some alignment's E_r series diverges.
    # R7's complete-period window overrules it on exactly these four cells
    # (ROADMAP item 9); any other rule or refactor that disagrees fails here
    disagree = set()
    for cell in GOLDEN["cells"]:
        spec = SPECS[cell["spec"]]
        if spec.overrides:
            continue
        exps = min_alignment_exponent(spec, cell["N"], cell["L"])
        full_dies = any(e.diverges for e in exps)
        if full_dies != (cell["verdict"]["outcome"] == "DiesAS"):
            disagree.add((cell["spec"], cell["N"], cell["L"]))
    assert disagree == {("mod3_alpha0.3", 1, 7), ("mod3_alpha0.3", 1, 8),
                        ("mod3_alpha0.3", 2, 5), ("mod3_alpha0.3", 3, 5)}
