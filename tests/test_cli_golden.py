"""Every success-path and error-path output of the CLI, byte for byte: each case
of tests/data/cli_golden.json (see tests/cli_golden.py) runs through `main`.
"""

import json

import numpy as np
import pytest

from cli_golden import GOLDEN, run_case

CORPUS = json.loads(GOLDEN.read_text(encoding="utf-8"))
SAME_NUMPY = np.__version__ == CORPUS["numpy"]


@pytest.mark.parametrize("case", CORPUS["cases"], ids=[c["id"] for c in CORPUS["cases"]])
def test_cli_output_matches_golden(case):
    expected = {key: value for key, value in case.items() if key not in ("id", "argv", "inputs")}
    got = run_case(case)
    if not SAME_NUMPY:  # see the file's `about`
        expected, got = expected["exit"], got["exit"]
    assert got == expected
