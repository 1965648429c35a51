import csv
import gc
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frogz
from frogz.classify import ProcessParams, classify
from frogz.cli import (
    EXIT_BAD_CONFIG,
    EXIT_INVALID_SPEC,
    EXIT_OK,
    EXIT_VIOLATION,
    main,
)
from frogz.sequences import SequenceSpec


MOD2_SPEC = {
    "modulus": 2,
    "residues": [
        {"r": 0, "form": {"kind": "power", "c": 1, "alpha": 1, "offset": 1}},
        {"r": 1, "form": {"kind": "loginv", "c": 1, "offset": 2}},
    ],
}


CONST_SPEC = {"modulus": 1, "residues": [{"r": 0, "form": {"kind": "const", "q": 0.5}}]}

# no structural rule fires at any L: classify falls back to the series test (R7)
R7_SPEC = {"modulus": 2, "residues": [
    {"r": 0, "form": {"kind": "power", "c": 0.5, "alpha": 1e-20, "offset": 1}},
    {"r": 1, "form": {"kind": "power", "c": 0.4, "alpha": 1e-20, "offset": 1}},
]}


def _form_spec(form):
    """A modulus-1 spec of one form."""
    return {"modulus": 1, "residues": [{"r": 0, "form": form}]}


def _sim(**keys):
    """A small simulate config with some keys replaced."""
    return dict({"N": 1, "L": 2, "spec": CONST_SPEC, "horizon": 20, "trials": 10}, **keys)


def _with_override(**keys):
    """CONST_SPEC with one override, some of its keys replaced."""
    return dict(CONST_SPEC, overrides=[dict({"a": 1, "b": 2, "form": {"kind": "const", "q": 0.25}},
                                            **keys)])


# (command, the config with value v at the key, the key, a good value) for
# every integer config key and spec field
_INT_KEYS = [
    pytest.param("classify", lambda v: {"N": v, "L": 2, "spec": CONST_SPEC}, "N", 1, id="N"),
    pytest.param("classify", lambda v: {"N": 1, "L": v, "spec": CONST_SPEC}, "L", 2, id="L"),
    pytest.param("exact", lambda v: {"N": 1, "L": 2, "n_max": v, "spec": CONST_SPEC}, "n_max", 2,
                 id="n_max"),
    pytest.param("simulate", lambda v: _sim(horizon=v), "horizon", 20, id="horizon"),
    pytest.param("simulate", lambda v: _sim(trials=v), "trials", 10, id="trials"),
    pytest.param("simulate", lambda v: _sim(seed=v), "seed", 1, id="seed"),
    pytest.param("verify", lambda v: {"l_max": v}, "l_max", 2, id="l_max"),
    pytest.param("verify", lambda v: {"l_max": 2, "N_grid": [1, v]}, "N_grid", 1, id="N_grid"),
    pytest.param("classify", lambda v: {"N": 1, "L": 2, "spec": dict(CONST_SPEC, modulus=v)},
                 "modulus", 1, id="modulus"),
    pytest.param("classify", lambda v: {"N": 1, "L": 2, "spec": {"modulus": 1, "residues": [
        {"r": v, "form": {"kind": "const", "q": 0.5}}]}}, "r", 0, id="r"),
    pytest.param("classify", lambda v: {"N": 1, "L": 2, "spec": _form_spec(
        {"kind": "power", "c": 0.5, "alpha": 2, "offset": v})}, "offset", 1, id="power_offset"),
    pytest.param("classify", lambda v: {"N": 1, "L": 2, "spec": _form_spec(
        {"kind": "loginv", "c": 0.5, "offset": v})}, "offset", 2, id="loginv_offset"),
    pytest.param("classify", lambda v: {"N": 1, "L": 2, "spec": _with_override(a=v)}, "a", 1,
                 id="override_a"),
    pytest.param("classify", lambda v: {"N": 1, "L": 2, "spec": _with_override(b=v)}, "b", 2,
                 id="override_b"),
    pytest.param("classify", lambda v: {"N": 1, "L": 2, "spec": _with_override(j0=v)}, "j0", 1,
                 id="override_j0"),
]
# the same for every float config key and spec field
_FLOAT_KEYS = [
    pytest.param("simulate", lambda v: _sim(ci_level=v), "ci_level", 0.9, id="ci_level"),
    pytest.param("verify", lambda v: {"l_max": 2, "p_grid": [v]}, "p_grid", 0.5, id="p_grid"),
    pytest.param("verify", lambda v: {"l_max": 2, "q_grid": [0.5, v]}, "q_grid", 0.5,
                 id="q_grid"),
    pytest.param("classify", lambda v: {"N": 1, "L": 2, "spec": _form_spec(
        {"kind": "power", "c": v, "alpha": 2, "offset": 1})}, "c", 0.5, id="power_c"),
    pytest.param("classify", lambda v: {"N": 1, "L": 2, "spec": _form_spec(
        {"kind": "power", "c": 0.5, "alpha": v, "offset": 1})}, "alpha", 2, id="power_alpha"),
    pytest.param("classify", lambda v: {"N": 1, "L": 2, "spec": _form_spec(
        {"kind": "loginv", "c": v, "offset": 2})}, "c", 0.5, id="loginv_c"),
    pytest.param("classify", lambda v: {"N": 1, "L": 2, "spec": _form_spec(
        {"kind": "const", "q": v})}, "q", 0.5, id="const_q"),
]


GOLDEN = json.loads((Path(__file__).parent / "data" / "verdicts_golden.json").read_text())


@pytest.fixture
def config_file(tmp_path):
    def write(payload, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)
    return write


class TestClassifyCommand:
    def test_survives(self, config_file, tmp_path, capsys):
        cfg = config_file({"N": 2, "L": 2, "spec": MOD2_SPEC})
        out = tmp_path / "verdict.json"
        assert main(["classify", "--config", cfg, "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["outcome"] == "SurvivesWPP"
        assert payload["values"]["L0"] == 2 and payload["values"]["L1"] == 4

    def test_stdout_default(self, config_file, capsys):
        cfg = config_file({"N": 1, "L": 1, "spec": MOD2_SPEC})
        assert main(["classify", "--config", cfg]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == "DiesAS"

    def test_values_keys(self, config_file, capsys):
        cfg = config_file({"N": 2, "L": 2, "spec": MOD2_SPEC})
        assert main(["classify", "--config", cfg]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload["values"]) == ["L0", "L1", "b", "exponents", "m"]

    def test_series_test_refused(self, config_file, capsys, monkeypatch):
        # L = 10^8 ran for over a minute; f raises here, so a missing guard fails at once
        import frogz.classify as classify_mod

        def reached(*args):
            raise AssertionError("the series test ran")

        monkeypatch.setattr(classify_mod, "f", reached)
        cfg = config_file({"N": 1, "L": 10**9, "spec": R7_SPEC})
        assert main(["classify", "--config", cfg]) == EXIT_INVALID_SPEC
        assert capsys.readouterr().err == (
            "refused: series test at modulus 2, L=1000000000: modulus*L = 2000000000 "
            "exceeds 100000000\n")

    def test_threads_is_a_usage_error(self, config_file, capsys):
        # only simulate runs threads; the other subcommands reject the flag
        cfg = config_file({"N": 1, "L": 1, "spec": MOD2_SPEC})
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--config", cfg, "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["classify"], ["exact"], ["sweep", "--n-range", "1:2", "--l-range", "1:2"], ["verify"]])
    def test_seed_is_a_usage_error(self, config_file, capsys, command):
        # only simulate draws random numbers; the other subcommands reject the flag
        cfg = config_file({"N": 1, "L": 1, "spec": MOD2_SPEC})
        with pytest.raises(SystemExit) as exc:
            main(command + ["--config", cfg, "--seed", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


class TestErrorExits:
    def test_missing_file(self):
        assert main(["classify", "--config", "/nonexistent.json"]) == EXIT_BAD_CONFIG

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["classify", "--config", str(bad)]) == EXIT_BAD_CONFIG

    @pytest.mark.parametrize("content, message", [
        (b"\xff\xfe{}", "bad config: 'utf-8' codec can't decode byte 0xff in position 0"),
        (b"[" * 200_000, "bad config: maximum recursion depth exceeded"),
    ], ids=["not_utf8", "deep_nesting"])
    def test_undecodable_config_is_config_error(self, tmp_path, capsys, content, message):
        # used to exit 2 with "invalid input: ...", and deep nesting with a RecursionError
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["classify", "--config", str(bad)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert "Traceback" not in err

    def test_missing_key(self, config_file):
        cfg = config_file({"N": 1, "spec": MOD2_SPEC})
        assert main(["classify", "--config", cfg]) == EXIT_BAD_CONFIG

    @pytest.mark.parametrize("command, payload, key", [
        (["classify"], {"L": 1, "spec": MOD2_SPEC}, "N"),
        (["exact"], {"N": 1, "spec": MOD2_SPEC}, "L"),
        (["simulate"], {k: v for k, v in _sim().items() if k != "N"}, "N"),
        (["classify"], {"N": 1, "L": 1}, "spec"),
        (["exact"], {"N": 1, "L": 1}, "spec"),
        (["simulate"], {"N": 1, "L": 1, "horizon": 20, "trials": 10}, "spec"),
        (["sweep", "--n-range", "1:1", "--l-range", "1:1"], {"N": 1, "L": 1}, "spec"),
    ], ids=["classify_N", "exact_L", "simulate_N", "classify_spec", "exact_spec", "simulate_spec",
            "sweep_spec"])
    def test_missing_key_message(self, config_file, capsys, command, payload, key):
        cfg = config_file(payload)
        assert main(command + ["--config", cfg]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == f"bad config: missing config key {key!r}\n"

    @pytest.mark.parametrize("flag", ["--config", "--out", "--store"])
    def test_directory_is_a_file_error(self, config_file, tmp_path, capsys, flag):
        # a directory where a file is named: used to end in an IsADirectoryError traceback;
        # a new --store used to be left behind, empty, when --out could not be opened
        files = {"--out": tmp_path / "verdict.json", "--store": tmp_path / "runs.jsonl"}
        args = {"--config": config_file({"N": 1, "L": 1, "spec": MOD2_SPEC}),
                **{key: str(path) for key, path in files.items()}, flag: str(tmp_path)}
        argv = ["classify", *[x for pair in args.items() for x in pair]]
        for existing in (False, True):
            if existing:
                for path in files.values():
                    path.write_bytes(b"kept\n")
            assert main(argv) == EXIT_BAD_CONFIG
            err = capsys.readouterr().err
            assert err.startswith(f"cannot open {tmp_path}: ") and "Traceback" not in err
            for key, path in files.items():
                if key != flag:
                    # an existing file is left byte for byte as it was
                    assert path.read_bytes() == b"kept\n" if existing else not path.exists()

    def test_schema_error_is_config_error(self, config_file):
        cfg = config_file({"N": 1, "L": 1, "spec": {"modulus": 0, "residues": []}})
        assert main(["classify", "--config", cfg]) == EXIT_BAD_CONFIG

    def test_value_error_is_spec_error(self, config_file):
        bad_spec = {"modulus": 1, "residues": [
            {"r": 0, "form": {"kind": "const", "q": 1.5}}]}
        cfg = config_file({"N": 1, "L": 1, "spec": bad_spec})
        assert main(["classify", "--config", cfg]) == EXIT_INVALID_SPEC

    def test_bad_params_is_spec_error(self, config_file):
        cfg = config_file({"N": 0, "L": 1, "spec": MOD2_SPEC})
        assert main(["classify", "--config", cfg]) == EXIT_INVALID_SPEC

    @pytest.mark.parametrize("override", [
        # 0.5 * 0^(-1) at j = 0: used to escape as a ZeroDivisionError
        {"a": 3, "b": 2, "j0": 0, "form": {"kind": "power", "c": 0.5, "alpha": 1, "offset": 0}},
        # 1 / log 2 = 1.44 at n = 5000, past the numeric prefix scan: used to pass
        {"a": 5000, "b": 2, "j0": 0, "form": {"kind": "loginv", "c": 1}},
    ], ids=["power_pole", "loginv_above_one"])
    def test_override_bad_at_j0_is_spec_error(self, config_file, capsys, override):
        cfg = config_file({"N": 1, "L": 2, "spec": dict(MOD2_SPEC, overrides=[override])})
        assert main(["classify", "--config", cfg]) == EXIT_INVALID_SPEC
        assert capsys.readouterr().err.startswith("invalid input: override form")

    @pytest.mark.parametrize("text, message", [
        ('{"N": 1e400, "L": 1, "spec": %s}', "config key 'N' must be a number, got inf"),
        ('{"N": [1], "L": 1, "spec": %s}', "config key 'N' must be a number, got [1]"),
        ('[{"N": 1, "L": 1, "spec": %s}]', "config must be a JSON object, got list"),
        ('{"N": 1, "L": 1, "spec": {"modulus": 1, "residues": [{"r": 0, "form": "x"}]}}',
         "a form must be a JSON object, got 'x'"),
    ], ids=["overflow", "list_N", "top_level_list", "form_string"])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "config.json"
        path.write_text(text.replace("%s", json.dumps(MOD2_SPEC)))
        assert main(["classify", "--config", str(path)]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == f"bad config: {message}\n"

    @pytest.mark.parametrize("command, payload, code", [
        # offset 10^400 cannot become a float: used to end in an OverflowError
        ("classify", {"N": 1, "L": 1, "spec": {"modulus": 1, "residues": [{"r": 0, "form": {
            "kind": "power", "c": 0.5, "alpha": 1, "offset": 10**400}}]}}, EXIT_INVALID_SPEC),
        # the family starts at 3^(10^20): used to hang forming that number
        ("classify", {"N": 1, "L": 1, "spec": dict(CONST_SPEC, overrides=[
            {"a": 1, "b": 3, "j0": 10**20, "form": {"kind": "loginv", "c": 0.5}}])}, EXIT_OK),
        # the series test (R7) forms N * alpha: used to end in an OverflowError
        ("classify", {"N": 10**400, "L": 3, "spec": MOD2_SPEC}, EXIT_INVALID_SPEC),
        # the sandwich forms q^(N f(j)) and N*L: used to end in an OverflowError
        ("exact", {"N": 10**400, "L": 2, "n_max": 2, "spec": CONST_SPEC}, EXIT_INVALID_SPEC),
        ("verify", {"N_grid": [2, 10**400], "l_max": 2}, EXIT_INVALID_SPEC),
    ], ids=["offset", "j0", "N_in_series_test", "N_in_exact", "N_in_verify"])
    def test_huge_integers(self, config_file, capsys, command, payload, code):
        assert main([command, "--config", config_file(payload), "--out", "/dev/null"]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if command != "classify":
            assert err == "invalid input: N*L is too large for float bounds\n"

    @pytest.mark.parametrize("grids, code, message", [
        ({"N_grid": ["a"]}, EXIT_INVALID_SPEC,
         "invalid input: invalid literal for int() with base 10: 'a'"),
        ({"p_grid": 5}, EXIT_BAD_CONFIG, "bad config: config key 'p_grid' must be a list, got 5"),
        ({"q_grid": [0.5, "x"]}, EXIT_INVALID_SPEC,
         "invalid input: could not convert string to float: 'x'"),
        ({"N_grid": [1.5]}, EXIT_BAD_CONFIG,
         "bad config: config key 'N_grid' must be an integer, got 1.5"),
        ({"N_grid": [None]}, EXIT_BAD_CONFIG,
         "bad config: config key 'N_grid' must be a number, got None"),
        ({"q_grid": [[0.5]]}, EXIT_BAD_CONFIG,
         "bad config: config key 'q_grid' must be a number, got [0.5]"),
        ({"q_grid": {"q": 0.5}}, EXIT_BAD_CONFIG,
         "bad config: config key 'q_grid' must be a list, got {'q': 0.5}"),
        # out of range: the messages of the checks downstream
        ({"N_grid": [0]}, EXIT_INVALID_SPEC, "invalid input: need N >= 1, got 0"),
        ({"p_grid": [1.5]}, EXIT_INVALID_SPEC, "invalid input: p_right must be in (0,1), got 1.5"),
        ({"q_grid": [1e-20]}, EXIT_INVALID_SPEC,
         "invalid input: p_right must be in (0,1), got 1.0"),
        ({"q_grid": [0.5, 1.5]}, EXIT_INVALID_SPEC,
         "invalid input: constant form must lie in (0,1), got 1.5"),
        # two errors: the first in (q, N, L) order is reported
        ({"q_grid": [1e-20], "N_grid": [1, 0]}, EXIT_INVALID_SPEC,
         "invalid input: p_right must be in (0,1), got 1.0"),
        ({"q_grid": [0.5, 1e-20], "N_grid": [1, 0]}, EXIT_INVALID_SPEC,
         "invalid input: need N >= 1, got 0"),
        # an empty grid is refused, as l_max < 1 is: it used to report success,
        # so the N = 0 that no check reached went unreported
        ({"q_grid": [], "N_grid": [0]}, EXIT_INVALID_SPEC,
         "invalid input: need a nonempty q_grid"),
        ({"p_grid": []}, EXIT_INVALID_SPEC, "invalid input: need a nonempty p_grid"),
        ({"N_grid": []}, EXIT_INVALID_SPEC, "invalid input: need a nonempty N_grid"),
        ({"p_grid": [], "q_grid": [], "N_grid": []}, EXIT_INVALID_SPEC,
         "invalid input: need a nonempty p_grid"),
    ], ids=["string_N", "scalar_p_grid", "string_q", "fractional_N", "null_N", "nested_q",
            "object_q_grid", "zero_N", "p_above_one", "p_rounds_to_one", "q_above_one",
            "walk_before_N", "N_before_walk", "N_unused", "empty_p_grid", "empty_N_grid",
            "every_grid_empty"])
    def test_verify_grids(self, config_file, capsys, grids, code, message):
        # entries convert like scalar keys: a string is parsed as "N": "a" is,
        # and 1.5 is rejected as "N": 1.5 is
        cfg = config_file(dict(grids, l_max=2))
        assert main(["verify", "--config", cfg, "--out", "/dev/null"]) == code
        assert capsys.readouterr().err == (message + "\n" if message else "")

    @pytest.mark.parametrize("command, payload, key, good", _INT_KEYS)
    def test_fractional_integer_is_config_error(self, config_file, capsys, command, payload,
                                                key, good):
        # used to truncate: {"N": 1.9, "L": 2.7} printed the verdict of N = 1, L = 2
        def run(value):
            return main([command, "--config", config_file(payload(value)), "--out", "/dev/null"])

        assert run(good + 0.5) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err == f"bad config: config key {key!r} must be an integer, got {good + 0.5!r}\n"
        for integral in (float(good), str(good)):
            assert run(integral) == EXIT_OK

    @pytest.mark.parametrize("command, payload, key, good", _INT_KEYS + _FLOAT_KEYS)
    def test_boolean_is_config_error(self, config_file, capsys, command, payload, key, good):
        # int(True) is 1: {"N": true} used to print the verdict of N = 1
        def run(value):
            return main([command, "--config", config_file(payload(value)), "--out", "/dev/null"])

        for value in (True, False):
            assert run(value) == EXIT_BAD_CONFIG
            err = capsys.readouterr().err
            assert err == f"bad config: config key {key!r} must be a number, got {value!r}\n"
        assert run(good) == EXIT_OK

    def test_tiny_alpha_is_spec_error(self, config_file, capsys):
        # 1/alpha overflows, so m = floor(1/alpha) + 1 cannot be formed
        spec = {"modulus": 1, "residues": [
            {"r": 0, "form": {"kind": "power", "c": 0.5, "alpha": 1e-320, "offset": 1}}]}
        cfg = config_file({"N": 1, "L": 1, "spec": spec})
        assert main(["classify", "--config", cfg]) == EXIT_INVALID_SPEC
        err = capsys.readouterr().err
        assert err.startswith("invalid input: power-law alpha")
        assert "Traceback" not in err


class TestExactCommand:
    def test_table_csv(self, config_file, tmp_path):
        cfg = config_file({"N": 1, "L": 2, "n_max": 10, "spec": MOD2_SPEC})
        out = tmp_path / "table.csv"
        assert main(["exact", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 11
        assert rows[0]["n"] == "0"
        for row in rows:
            assert 0.0 <= float(row["lower"]) <= float(row["upper"]) <= 1.0

    def test_table_when_2_to_the_NL_overflows(self, config_file, tmp_path):
        # N*L = 1024: the float 2^(NL) of the upper bound overflows
        cfg = config_file({"N": 128, "L": 8, "n_max": 5, "spec": CONST_SPEC})
        out = tmp_path / "table.csv"
        assert main(["exact", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 6
        assert all(row["upper"] == "1.0" for row in rows)


    def test_size_guard(self, config_file, capsys, monkeypatch):
        # "L": 10**9 used to build 10^9 q values and was still running minutes later;
        # a request for more q than the validity scan's raises here, before
        # any value is formed, so a missing guard fails at once
        from frogz.sequences import VALIDITY_SCAN_PREFIX, SequenceSpec

        class Reached(Exception):
            pass

        values = SequenceSpec.values

        def reached(self, start, stop):
            if stop - start > VALIDITY_SCAN_PREFIX:
                raise Reached
            return values(self, start, stop)

        monkeypatch.setattr(SequenceSpec, "values", reached)

        def run(L, n_max):
            cfg = config_file({"N": 1, "L": L, "n_max": n_max, "spec": CONST_SPEC})
            return main(["exact", "--config", cfg, "--out", "/dev/null"])

        for L, n_max in [(10**9, 0), (1000, 4)]:
            assert run(L, n_max) == EXIT_INVALID_SPEC
            work = (n_max + 1) * L**3
            assert capsys.readouterr().err == (
                f"refused: {n_max + 1} blocks at L={L}: blocks*L^3 = {work} exceeds 4000000000\n")
        # 4 blocks at L = 1000 is the limit itself: the table starts
        with pytest.raises(Reached):
            run(1000, 3)

    def test_negative_n_max_is_rejected(self, config_file, tmp_path, capsys):
        # used to write a header-only table with exit 0
        cfg = config_file({"N": 1, "L": 1, "n_max": -5, "spec": CONST_SPEC})
        out = tmp_path / "table.csv"
        assert main(["exact", "--config", cfg, "--out", str(out)]) == EXIT_INVALID_SPEC
        assert capsys.readouterr().err == "invalid input: need n_max >= 0, got -5\n"
        assert not out.exists()

    def test_zero_lifetime_is_rejected(self, config_file, tmp_path, capsys):
        cfg = config_file({"N": 1, "L": 0, "n_max": 2, "spec": CONST_SPEC})
        out = tmp_path / "table.csv"
        assert main(["exact", "--config", cfg, "--out", str(out)]) == EXIT_INVALID_SPEC
        assert capsys.readouterr().err == "invalid input: need N >= 1 and L >= 1, got N=1, L=0\n"
        assert not out.exists()

    def test_left_step_below_half_an_ulp_is_refused(self, config_file, tmp_path, capsys):
        # q_n = 1e-17/(n+1) <= 2**-54: the walk's right-step probability 1 - q
        # rounds to 1, which the exact layer refuses
        spec = _form_spec({"kind": "power", "c": 1e-17, "alpha": 1, "offset": 1})
        cfg = config_file({"N": 1, "L": 2, "spec": spec})
        out = tmp_path / "table.csv"
        assert main(["exact", "--config", cfg, "--out", str(out)]) == EXIT_INVALID_SPEC
        assert capsys.readouterr().err == "invalid input: p_right must be in (0,1), got 1.0\n"
        assert not out.exists()


class TestSimulateCommand:
    @pytest.mark.parametrize("threads", ["0", "-1", "x"])
    def test_threads_below_one_is_a_usage_error(self, config_file, capsys, threads):
        cfg = config_file(_sim())
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", cfg, "--threads", threads])
        assert exc.value.code == 2
        assert f"expected an integer >= 1, got {threads!r}" in capsys.readouterr().err

    def test_basic_run(self, config_file, tmp_path):
        cfg = config_file({"N": 1, "L": 2, "spec": MOD2_SPEC,
                           "horizon": 20, "trials": 200, "seed": 9})
        out = tmp_path / "sim.jsonl"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["result"]["trials"] == 200
        assert payload["config"]["seed"] == 9

    def test_flags_override_config(self, config_file, tmp_path):
        keys = {"horizon": 20, "trials": 200, "seed": 9}
        cfg = config_file({"N": 1, "L": 2, "spec": MOD2_SPEC, **keys})
        out = tmp_path / "sim.jsonl"
        # all three flags, then each flag alone: a given flag overrides its key only
        for flags in [{"trials": 50, "horizon": 15, "seed": 4},
                      {"horizon": 15}, {"trials": 50}, {"seed": 4}]:
            argv = [arg for key, value in flags.items() for arg in (f"--{key}", str(value))]
            assert main(["simulate", "--config", cfg, "--out", str(out), *argv]) == EXIT_OK
            payload = json.loads(out.read_text())
            assert {k: payload["config"][k] for k in keys} == {**keys, **flags}
            assert payload["result"]["trials"] == flags.get("trials", keys["trials"])

    def test_keys_are_read_horizon_trials_seed(self, config_file, capsys):
        # every key is bad; each flag given hides its key, so the next key is reported
        cfg = config_file(_sim(horizon=1.5, trials=2.5, seed=3.5))
        flags = ["--horizon", "20", "--trials", "10", "--seed", "1"]
        for given, key, got in [(0, "horizon", 1.5), (2, "trials", 2.5), (4, "seed", 3.5)]:
            rc = main(["simulate", "--config", cfg, "--out", "/dev/null", *flags[:given]])
            assert (rc, capsys.readouterr().err) == (
                EXIT_BAD_CONFIG, f"bad config: config key {key!r} must be an integer, got {got}\n")
        assert main(["simulate", "--config", cfg, "--out", "/dev/null", *flags]) == EXIT_OK

    def test_thread_determinism(self, config_file, tmp_path):
        cfg = config_file({"N": 2, "L": 2, "spec": MOD2_SPEC,
                           "horizon": 25, "trials": 400, "seed": 17})
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["simulate", "--config", cfg, "--out", str(a), "--threads", "1"]) == EXIT_OK
        assert main(["simulate", "--config", cfg, "--out", str(b), "--threads", "3"]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range(self, config_file, seed):
        cfg = config_file({"N": 1, "L": 2, "spec": MOD2_SPEC,
                           "horizon": 20, "trials": 50})
        rc = main(["simulate", "--config", cfg, "--out", "/dev/null", "--seed", seed])
        assert rc == EXIT_INVALID_SPEC

    @pytest.mark.parametrize("flag", ["--trials", "--horizon"])
    def test_explicit_zero_is_rejected(self, config_file, flag):
        cfg = config_file({"N": 1, "L": 2, "spec": MOD2_SPEC,
                           "horizon": 20, "trials": 50, "seed": 9})
        rc = main(["simulate", "--config", cfg, "--out", "/dev/null", flag, "0"])
        assert rc == EXIT_INVALID_SPEC

    def test_profile_is_one_mc_pass(self, config_file, tmp_path, monkeypatch):
        import frogz.cli as cli_mod
        import frogz.mc as mc_mod
        payload = {"N": 2, "L": 2, "spec": MOD2_SPEC, "horizon": 40, "trials": 300, "seed": 3}
        cfg = config_file(payload)
        calls = []
        run_trials = mc_mod.run_trials

        def counting(*args, **kwargs):
            calls.append(args)
            return run_trials(*args, **kwargs)

        monkeypatch.setattr(mc_mod, "run_trials", counting)
        prof = tmp_path / "profile.csv"
        rc = main(["simulate", "--config", cfg, "--out", "/dev/null",
                   "--threads", "2", "--profile", str(prof)])
        assert rc == EXIT_OK
        assert len(calls) == 1
        sim = mc_mod.SimConfig(
            params=cli_mod._params_from_config(payload),
            horizon=40, trials=300, seed=3)
        ref = tmp_path / "reference.csv"
        with open(ref, "w", encoding="utf-8", newline="") as fh:
            cli_mod._write_profile(mc_mod.estimate_activation_profile(sim), fh)
        assert prof.read_bytes() == ref.read_bytes()

    def test_profile_guard_refuses_before_the_mc(self, config_file, tmp_path, capsys,
                                                 monkeypatch):
        # horizon 10^6 at L = 100 used to run the MC for seconds, write the JSONL
        # and only then refuse the profile's exact curve
        import frogz.mc as mc_mod

        class Reached(Exception):
            pass

        calls = []

        def reached(*args, **kwargs):
            calls.append(args)
            raise Reached

        monkeypatch.setattr(mc_mod, "run_trials", reached)
        out, prof, store = tmp_path / "sim.jsonl", tmp_path / "profile.csv", tmp_path / "runs"

        def run(horizon):
            cfg = config_file({"N": 1, "L": 100, "spec": CONST_SPEC, "horizon": horizon,
                               "trials": 1})
            return main(["simulate", "--config", cfg, "--out", str(out), "--profile", str(prof),
                         "--store", str(store)])

        # the curve covers blocks 1..M-L-1: 4000 blocks * 100^3 is the limit itself
        for horizon in (10**6, 4102):
            assert run(horizon) == EXIT_INVALID_SPEC
            blocks = horizon - 101
            assert capsys.readouterr().err == (f"refused: {blocks} blocks at L=100: blocks*L^3 = "
                                               f"{blocks * 100**3} exceeds 4000000000\n")
        assert calls == []
        assert not out.exists() and not prof.exists() and not store.exists()
        with pytest.raises(Reached):
            run(4101)
        assert len(calls) == 1

    def _refused(self, config_file, tmp_path, capsys, keys, work):
        cfg = config_file(_sim(**keys))
        out = tmp_path / "sim.jsonl"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_INVALID_SPEC
        assert capsys.readouterr().err == (
            f"refused: sites*L*max(trials, N, L) = {work} exceeds the work budget 4000000000\n")
        assert not out.exists()

    def test_budget_refusal(self, config_file, tmp_path, capsys):
        # hashing: sites * L * trials, at N = 1 the old trials*sites*N*L
        self._refused(config_file, tmp_path, capsys, {"horizon": 10**6, "trials": 10**4},
                      (10**6 + 2) * 2 * 10**4)

    def test_budget_counts_threshold_terms(self, config_file, tmp_path, capsys):
        # L > max(trials, N): the first-passage terms, sites * L * L, decide
        self._refused(config_file, tmp_path, capsys, {"L": 1000, "horizon": 5000, "trials": 1},
                      6000 * 1000 * 1000)

    def test_large_N_admitted(self, config_file, tmp_path):
        # the scan hashes trials * sites whatever N is: N = 10^4 at 1000 trials
        # was refused at 501 * 1 * 1000 * 10^4 = 5.01e9
        cfg = config_file(_sim(N=10**4, L=1, horizon=500, trials=1000))
        out = tmp_path / "sim.jsonl"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["result"]["trials"] == 1000

    def test_left_step_below_half_an_ulp(self, config_file, tmp_path):
        # q_n = 1e-17/(n+1) <= 2**-54: 1 - q rounds to 1, every walk reaches L
        spec = _form_spec({"kind": "power", "c": 1e-17, "alpha": 1, "offset": 1})
        out = tmp_path / "sim.jsonl"
        cfg = config_file(_sim(spec=spec, horizon=50, trials=100))
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["result"]["p_hat"] == 1.0

    def test_profile_left_step_below_half_an_ulp_is_refused(self, config_file, tmp_path, capsys):
        # the sampler takes q as given, but the profile's exact curve refuses
        # the right-step probability 1 - q = 1.0, as `exact` does
        spec = _form_spec({"kind": "power", "c": 1e-17, "alpha": 1, "offset": 1})
        out, prof = tmp_path / "sim.jsonl", tmp_path / "profile.csv"
        cfg = config_file(_sim(spec=spec, horizon=50, trials=100))
        rc = main(["simulate", "--config", cfg, "--out", str(out), "--profile", str(prof)])
        assert rc == EXIT_INVALID_SPEC
        assert capsys.readouterr().err == "invalid input: p_right must be in (0,1), got 1.0\n"
        assert not out.exists() and not prof.exists()

    def test_profile_into_missing_directory_writes_nothing(self, config_file, tmp_path, capsys):
        # the JSONL used to be written before the profile failed
        out, store = tmp_path / "sim.jsonl", tmp_path / "runs.jsonl"
        prof = tmp_path / "missing" / "profile.csv"
        rc = main(["simulate", "--config", config_file(_sim()), "--out", str(out),
                   "--profile", str(prof), "--store", str(store)])
        assert rc == EXIT_BAD_CONFIG
        assert capsys.readouterr().err.startswith(f"cannot open {prof}: No such file")
        assert not out.exists() and not store.exists()

    def test_out_into_missing_directory_writes_no_profile(self, config_file, tmp_path, capsys):
        # the profile used to be written before --out failed to open
        out, prof = tmp_path / "missing" / "sim.jsonl", tmp_path / "profile.csv"
        rc = main(["simulate", "--config", config_file(_sim()), "--out", str(out),
                   "--profile", str(prof)])
        assert rc == EXIT_BAD_CONFIG
        assert capsys.readouterr().err.startswith(f"cannot open {out}: No such file")
        assert not prof.exists()

    def test_profile_csv(self, config_file, tmp_path):
        cfg = config_file({"N": 1, "L": 1, "spec": {
            "modulus": 1,
            "residues": [{"r": 0, "form": {"kind": "power", "c": 1, "alpha": 2, "offset": 1}}],
        }, "horizon": 30, "trials": 500, "seed": 2})
        prof = tmp_path / "profile.csv"
        rc = main(["simulate", "--config", cfg, "--out", "/dev/null",
                   "--profile", str(prof)])
        assert rc == EXIT_OK
        rows = list(csv.DictReader(prof.read_text().splitlines()))
        assert len(rows) == 30
        p = [float(r["p_hat_Ei"]) for r in rows]
        assert p[0] == 1.0
        assert all(x >= y for x, y in zip(p, p[1:]))

    @pytest.mark.parametrize("payload", [
        # the exact table of this spec fails its sandwich check at n=150;
        # the profile does not check the sandwich and runs past it
        {"N": 1, "L": 1, "horizon": 200, "trials": 300, "seed": 4, "spec": {
            "modulus": 1,
            "residues": [{"r": 0, "form": {"kind": "power", "c": 1, "alpha": 2, "offset": 1}}],
        }},
        {"N": 2, "L": 3, "horizon": 60, "trials": 300, "seed": 5, "spec": MOD2_SPEC},
    ], ids=["inv_square", "mod2"])
    def test_profile_matches_per_block_a_n(self, config_file, tmp_path, payload):
        import math

        import exact_oracle
        import frogz.cli as cli_mod
        import frogz.mc as mc_mod
        prof = tmp_path / "profile.csv"
        rc = main(["simulate", "--config", config_file(payload), "--out", "/dev/null",
                   "--threads", "2", "--profile", str(prof)])
        assert rc == EXIT_OK
        sim = mc_mod.SimConfig(params=cli_mod._params_from_config(payload),
                               horizon=payload["horizon"], trials=payload["trials"],
                               seed=payload["seed"])
        profile = mc_mod.estimate_activation_profile(sim)
        # the lower curve block by block, one scalar a_n at a time
        M, L = sim.horizon, sim.params.L
        profile.lower_curve[:] = math.nan
        prod = 1.0
        for n in range(1, M - L):
            prod *= 1.0 - exact_oracle.a_n(sim.params.spec, sim.params.N, L, n)
            profile.lower_curve[n + L] = profile.p_hat[L] * prod
        ref = tmp_path / "reference.csv"
        with open(ref, "w", encoding="utf-8", newline="") as fh:
            cli_mod._write_profile(profile, fh)
        assert prof.read_bytes() == ref.read_bytes()

    def test_profile_when_2_to_the_NL_overflows(self, config_file, tmp_path):
        # N*L = 1024: the profile uses a_n, which must stay finite here
        cfg = config_file({"N": 128, "L": 8, "spec": MOD2_SPEC,
                           "horizon": 12, "trials": 2, "seed": 1})
        prof = tmp_path / "profile.csv"
        store = tmp_path / "runs.jsonl"
        rc = main(["simulate", "--config", cfg, "--out", "/dev/null",
                   "--profile", str(prof), "--store", str(store)])
        assert rc == EXIT_OK
        assert len(list(csv.DictReader(prof.read_text().splitlines()))) == 12
        assert len(store.read_text().splitlines()) == 1


class TestSweepCommand:
    def test_grid(self, config_file, tmp_path):
        cfg = config_file({"spec": MOD2_SPEC})
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--config", cfg, "--out", str(out),
                   "--n-range", "1:2", "--l-range", "1:4"])
        assert rc == EXIT_OK
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 8
        verdicts = {(r["N"], r["L"]): r["outcome"] for r in rows}
        assert verdicts[("1", "1")] == "DiesAS"
        assert verdicts[("1", "2")] == "DiesAS"
        assert verdicts[("2", "2")] == "SurvivesWPP"
        assert verdicts[("1", "4")] == "SurvivesWPP"

    @pytest.mark.parametrize("flag", ["--n-range", "--l-range"])
    @pytest.mark.parametrize("text", ["bogus", "5", "3:1", "0:2", ":2", "1:x"])
    def test_bad_range_is_a_usage_error(self, config_file, tmp_path, capsys, text, flag):
        # used to write a header-only CSV with exit 0 (or reach N = 0 and exit 2)
        cfg = config_file({"spec": MOD2_SPEC})
        out = tmp_path / "sweep.csv"
        ranges = {"--n-range": "1:2", "--l-range": "1:2", flag: text}
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfg, "--out", str(out),
                  "--n-range", ranges["--n-range"], "--l-range", ranges["--l-range"]])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected lo:hi with 1 <= lo <= hi, got {text!r}" in err
        assert not out.exists()

    def test_series_test_refused_before_the_first_cell(self, config_file, tmp_path, capsys,
                                                       monkeypatch):
        def reached(*args):
            raise AssertionError("a sweep cell ran")

        monkeypatch.setattr("frogz.cli.classify", reached)
        cfg = config_file({"spec": R7_SPEC})
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--config", cfg, "--out", str(out),
                   "--n-range", "1:2", "--l-range", "1:1000000000"])
        assert rc == EXIT_INVALID_SPEC
        assert capsys.readouterr().err == (
            "refused: series test at modulus 2, L=1000000000: modulus*L = 2000000000 "
            "exceeds 100000000\n")
        assert not out.exists()

    def test_series_test_limit(self, config_file, tmp_path, capsys, monkeypatch):
        import frogz.classify as classify_mod

        def run(spec, n_range, l_range):
            return main(["sweep", "--config", config_file({"spec": spec}), "--out",
                         str(tmp_path / "sweep.csv"), "--n-range", n_range, "--l-range", l_range])

        # the largest cell: modulus 2 * L
        monkeypatch.setattr(classify_mod, "ALIGNMENT_WORK_MAX", 2 * 5)
        assert run(R7_SPEC, "1:1", "5:5") == EXIT_OK
        assert run(R7_SPEC, "1:1", "6:6") == EXIT_INVALID_SPEC
        assert capsys.readouterr().err.startswith("refused: series test at modulus 2, L=6:")
        # the grid total: 2 values of N * modulus 2 * (1 + ... + 5)
        monkeypatch.setattr(classify_mod, "ALIGNMENT_WORK_MAX", 2 * 2 * 15)
        assert run(R7_SPEC, "1:2", "1:5") == EXIT_OK
        assert run(R7_SPEC, "1:2", "1:6") == EXIT_INVALID_SPEC
        assert capsys.readouterr().err == (
            "refused: sweep of 2 x 6 series tests at modulus 2: modulus*L summed over the "
            "cells = 84 exceeds 60\n")
        # with overrides no cell runs the series test, and nothing is refused
        dyadic = dict(R7_SPEC, overrides=[{"a": 1, "b": 2, "form": {"kind": "const", "q": 0.5}}])
        assert run(dyadic, "1:2", "1:6") == EXIT_OK

    def test_grid_total_refused_at_once(self, config_file, tmp_path, capsys, monkeypatch):
        # every cell is within the limit, but the 8 * 100000 cells together
        # would run for hours
        def reached(*args):
            raise AssertionError("a sweep cell ran")

        monkeypatch.setattr("frogz.cli.classify", reached)
        out = tmp_path / "sweep.csv"
        start = time.perf_counter()
        rc = main(["sweep", "--config", config_file({"spec": R7_SPEC}), "--out", str(out),
                   "--n-range", "1:8", "--l-range", "1:100000"])
        assert time.perf_counter() - start < 1.0
        assert rc == EXIT_INVALID_SPEC
        assert capsys.readouterr().err == (
            "refused: sweep of 8 x 100000 series tests at modulus 2: modulus*L summed over the "
            "cells = 80000800000 exceeds 100000000\n")
        assert not out.exists()

    def test_r7_cells_reuse_the_verdict_exponents(self, config_file, tmp_path, monkeypatch):
        cfg = config_file({"spec": R7_SPEC})

        def sweep(name):
            out = tmp_path / name
            rc = main(["sweep", "--config", cfg, "--out", str(out),
                       "--n-range", "1:3", "--l-range", "1:5"])
            assert rc == EXIT_OK
            return out.read_text()

        spec = SequenceSpec.from_dict(R7_SPEC)
        assert {classify(ProcessParams(N=N, L=L, spec=spec)).trace[0].rule
                for N in range(1, 4) for L in range(1, 6)} == {"R7"}
        baseline = sweep("baseline.csv")

        def second_call(*args):
            raise AssertionError("min_alignment_exponent ran again for an R7 cell")

        monkeypatch.setattr("frogz.cli.min_alignment_exponent", second_call)
        assert sweep("reused.csv") == baseline

    def test_values_print_as_classify_prints_them(self, config_file, tmp_path):
        out, keys, cells = tmp_path / "sweep.csv", ("m", "b", "L0", "L1"), []
        for name, spec_dict in GOLDEN["specs"].items():
            rc = main(["sweep", "--config", config_file({"spec": spec_dict}), "--out", str(out),
                       "--n-range", "1:8", "--l-range", "1:8"])
            assert rc == EXIT_OK
            spec = SequenceSpec.from_dict(spec_dict)
            for row in csv.DictReader(out.read_text().splitlines()):
                params = ProcessParams(N=int(row["N"]), L=int(row["L"]), spec=spec)
                values = json.loads(json.dumps(classify(params).to_dict()))["values"]
                cells.append({k: row[k] for k in keys})
                assert cells[-1] == {k: str(values[k]) for k in keys}, (name, row["N"], row["L"])
        assert len(cells) == 64 * len(GOLDEN["specs"])
        assert {k for cell in cells for k in keys if cell[k] == "inf"} == {"m", "L0", "L1"}

    def test_spec_analysed_once(self, config_file, tmp_path):
        from frogz.sequences import L0_L1
        L0_L1.cache_clear()
        cfg = config_file({"spec": MOD2_SPEC})
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep.csv"),
                   "--n-range", "1:3", "--l-range", "1:4"])
        assert rc == EXIT_OK
        info = L0_L1.cache_info()
        assert (info.misses, info.hits) == (1, 11)


class TestVerifyCommand:
    def test_default_grid_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["failures"] == []
        assert report["checked"] > 100

    def test_grid_when_2_to_the_NL_overflows(self, config_file, tmp_path):
        # N = 128 with L up to 8 reaches N*L = 1024, and 0.1^(128*3) underflows
        out = tmp_path / "report.json"
        rc = main(["verify", "--config", config_file({"N_grid": [128]}), "--out", str(out)])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["failures"] == []

    @pytest.mark.parametrize("q_grid", [[0.5], [0.1, 0.3, 0.5, 0.7, 0.9]])
    def test_sandwich_grid_evaluates_each_cell_once(self, config_file, monkeypatch, q_grid):
        # per (N, L), one grid of L rows (displacements) by one column per q:
        # its len(q_grid) * L walks are evaluated once, in one first-passage call,
        # after the reach checks' one table per L (one column, for p = 0.5)
        import frogz.exact as exact_mod
        sums, calls = exact_mod._first_passage, []

        def counting(term, pq):
            calls.append(pq.tolist())
            return sums(term, pq)

        monkeypatch.setattr(exact_mod, "_first_passage", counting)
        cfg = config_file({"l_max": 4, "p_grid": [0.5], "q_grid": q_grid, "N_grid": [1, 2, 3]})
        assert main(["verify", "--config", cfg, "--out", "/dev/null"]) == EXIT_OK
        want = [[[0.25]] * L for L in range(1, 5)]
        want += [[[(1 - q) * q for q in q_grid]] * L for N in (1, 2, 3) for L in range(1, 5)]
        assert calls == want

    def test_violations_in_q_N_L_order(self, config_file, tmp_path, capsys, monkeypatch):
        import frogz.exact as exact_mod
        from frogz.exact import BoundReport
        sums = exact_mod._first_passage

        def too_likely(term, pq):
            # the walks of q = 0.7 and q = 0.3 miss with probability 2, so N walks 2^N
            reach = sums(term, pq)
            reach[np.isin(pq, ((1 - 0.7) * 0.7, (1 - 0.3) * 0.3))] = -1.0
            return reach

        monkeypatch.setattr(exact_mod, "_first_passage", too_likely)
        cfg = config_file({"l_max": 3, "p_grid": [0.5], "q_grid": [0.7, 0.1, 0.3, 0.9],
                           "N_grid": [1, 2]})
        out = tmp_path / "verify.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_VIOLATION
        want = []
        for q in (0.7, 0.3):
            for N in (1, 2):
                for L in (1, 2, 3):
                    rep = BoundReport(1, q, q ** N, 2.0 ** N, min(1.0, 2 ** (N * L) * q ** N))
                    want.append(["bound", q, N, L, f"sandwich violated: {rep}"])
        report = json.loads(out.read_text())
        assert report["failures"] == want
        # the reach checks of p = 0.5, then the bound checks of q = 0.1 and q = 0.9 pass
        assert report["checked"] == (1 + 2 + 3) + 2 * 2 * (1 + 2 + 3)
        assert capsys.readouterr().err.startswith(f"12 violations, first: {tuple(want[0])}")

    def test_oracle_guard_refused(self, config_file, tmp_path, capsys):
        cfg = config_file({"l_max": 25})
        out = tmp_path / "verify.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_INVALID_SPEC
        assert capsys.readouterr().err == "refused: enumeration guarded at L <= 20, got 25\n"
        assert not out.exists()

    @pytest.mark.parametrize("grids", [{}, {"p_grid": 5}], ids=["grids_ok", "bad_grid"])
    def test_zero_l_max_is_rejected(self, config_file, tmp_path, capsys, grids):
        # used to print {"checked": 0, "failures": []} with exit 0; the l_max error
        # comes before the grid error (exit 1)
        cfg = config_file(dict(grids, l_max=0))
        out = tmp_path / "verify.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_INVALID_SPEC
        assert capsys.readouterr().err == "invalid input: need l_max >= 1, got 0\n"
        assert not out.exists()

    def test_violation_exit(self, config_file, tmp_path, monkeypatch):
        import frogz.cli as cli_mod
        # verify reads every reach of one L from one batched first-passage table
        monkeypatch.setattr(cli_mod, "_reach_sums", lambda q, L: np.zeros((L, q.size)))
        cfg = config_file({"l_max": 2, "p_grid": [0.5], "q_grid": [0.5], "N_grid": [1]})
        out = tmp_path / "verify.json"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_VIOLATION
        assert json.loads(out.read_text())["failures"]


class TestStore:
    def test_appends_records(self, config_file, tmp_path):
        cfg = config_file({"N": 1, "L": 2, "spec": MOD2_SPEC})
        store = tmp_path / "runs.jsonl"
        for _ in range(2):
            main(["classify", "--config", cfg, "--out", "/dev/null",
                  "--store", str(store)])
        lines = store.read_text().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert rec["subcommand"] == "classify"
        assert rec["result"]["outcome"] == "DiesAS"
        assert "timestamp" in rec and "version" in rec

    def test_seed_recorded_by_simulate_only(self, config_file, tmp_path):
        cfg = config_file({"N": 1, "L": 2, "n_max": 2, "spec": MOD2_SPEC,
                           "horizon": 5, "trials": 4})
        store = tmp_path / "runs.jsonl"
        for command in (["classify"], ["exact"], ["sweep", "--n-range", "1:1", "--l-range", "1:1"],
                        ["verify"], ["simulate", "--seed", "6"]):
            rc = main(command + ["--config", cfg, "--out", "/dev/null", "--store", str(store)])
            assert rc == EXIT_OK
        records = [json.loads(line) for line in store.read_text().splitlines()]
        assert [("seed" in rec) for rec in records] == [False] * 4 + [True]
        assert records[-1]["seed"] == 6

    def test_record_keys(self, config_file, tmp_path):
        cfg = config_file({"N": 1, "L": 2, "n_max": 2, "spec": MOD2_SPEC,
                           "horizon": 5, "trials": 4, "l_max": 2})
        store = tmp_path / "runs.jsonl"
        commands = {"classify": [], "exact": [], "simulate": [],
                    "sweep": ["--n-range", "1:1", "--l-range", "1:1"], "verify": []}
        for name, flags in commands.items():
            rc = main([name, *flags, "--config", cfg, "--out", "/dev/null", "--store", str(store)])
            assert rc == EXIT_OK
        records = {rec["subcommand"]: rec
                   for rec in map(json.loads, store.read_text().splitlines())}
        assert list(records) == list(commands)
        keys = ["config", "result", "subcommand", "timestamp", "version"]
        assert {name: sorted(rec) for name, rec in records.items()} == dict(
            {name: keys for name in commands}, simulate=sorted(keys + ["seed", "work"]))
        assert {name: sorted(rec["result"]) for name, rec in records.items()} == {
            "classify": ["outcome", "trace", "values"],
            "exact": ["rows"],
            "simulate": ["ci_high", "ci_low", "max_site_max", "max_site_mean", "p_hat",
                         "survival_count", "trials"],
            "sweep": ["rows"],
            "verify": ["checked", "failures"],
        }
        # simulate records its resolved config, the others the file they read
        assert sorted(records["simulate"]["config"]) == [
            "ci_level", "horizon", "params", "seed", "trials"]
        assert records["classify"]["config"] == json.loads(Path(cfg).read_text())

    def test_record_config(self, config_file, tmp_path, capsys):
        # every record but simulate's holds the config file's object; a
        # simulate record holds the run configuration that stdout prints,
        # with the flags applied
        payload = {"N": 1, "L": 2, "spec": MOD2_SPEC, "horizon": 30, "trials": 10, "seed": 3}
        cfg = config_file(payload)
        store = tmp_path / "runs.jsonl"
        assert main(["classify", "--config", cfg, "--out", "/dev/null",
                     "--store", str(store)]) == EXIT_OK
        capsys.readouterr()
        assert main(["simulate", "--config", cfg, "--seed", "7", "--trials", "20",
                     "--horizon", "40", "--store", str(store)]) == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        classified, simulated = map(json.loads, store.read_text().splitlines())
        assert classified["config"] == payload
        assert simulated["config"] == printed["config"]
        spec = SequenceSpec.from_dict(MOD2_SPEC).to_dict()
        assert simulated["config"] == {"params": {"N": 1, "L": 2, "spec": spec},
                                       "horizon": 40, "trials": 20, "seed": 7, "ci_level": 0.95}
        assert simulated["seed"] == 7
        assert simulated["work"]["budgeted"] == 20 * 42

    def test_simulate_records_work(self, config_file, tmp_path):
        # q = 0.95 everywhere: most frontiers are site 1.  A trial counts the
        # sites it hashed, up to the end of its frontier's scan block
        dying = {"modulus": 1, "residues": [{"r": 0, "form": {"kind": "const", "q": 0.95}}]}
        cases = {"dying": ({"N": 1, "L": 2, "spec": dying}, 300, 500),
                 "mod2": ({"N": 2, "L": 2, "spec": MOD2_SPEC}, 150, 400)}
        works = {}
        for name, (payload, horizon, trials) in cases.items():
            cfg = config_file(dict(payload, horizon=horizon, trials=trials, seed=8),
                              name=f"{name}.json")
            plain = tmp_path / f"{name}.jsonl"
            assert main(["simulate", "--config", cfg, "--out", str(plain)]) == EXIT_OK
            for threads in ("1", "3"):
                store, out = tmp_path / f"{name}{threads}.runs", tmp_path / f"{name}{threads}.jsonl"
                rc = main(["simulate", "--config", cfg, "--out", str(out),
                           "--threads", threads, "--store", str(store)])
                assert rc == EXIT_OK
                assert out.read_bytes() == plain.read_bytes()
                works.setdefault(name, []).append(json.loads(store.read_text())["work"])
        # 467 frontiers at site 1 (block [1, 1]), 32 at sites 2 and 3 (block
        # [2, 3]) and one at site 4 (block [4, 7])
        assert works["dying"] == [{"budgeted": 500 * 302,
                                   "evaluated": 467 * 1 + 32 * 3 + 1 * 7}] * 2
        assert works["mod2"] == [{"budgeted": 400 * 152, "evaluated": 4569}] * 2

    def test_no_store_no_file(self, config_file, tmp_path):
        cfg = config_file({"N": 1, "L": 2, "spec": MOD2_SPEC})
        main(["classify", "--config", cfg, "--out", "/dev/null"])
        assert not (tmp_path / "runs.jsonl").exists()


# -- any JSON config: a documented exit code, never an exception ---------------

_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.sampled_from([0, 1, 2, 3, -1, 0.5, 10**400, "power", "loginv", "const"]),
)
_json = st.recursive(
    _leaf,
    lambda kids: st.one_of(st.lists(kids, max_size=3),
                           st.dictionaries(st.text(max_size=3), kids, max_size=3)),
    max_leaves=8,
)


def _mostly(good):
    """`good` about seven times in eight, any JSON value otherwise: plausible
    configs get past the first checks and reach the classifier."""
    return st.integers(0, 7).flatmap(lambda i: good if i < 7 else _json)


_int = _mostly(st.one_of(st.integers(-1, 4), st.sampled_from([10**20, 10**400])))
_number = _mostly(st.sampled_from([0.2, 0.3, 0.5, 0.7, 1, 2]))
_form = _mostly(st.one_of(
    st.fixed_dictionaries({"kind": st.just("power"), "c": _number, "alpha": _number},
                          optional={"offset": _int}),
    st.fixed_dictionaries({"kind": st.just("loginv"), "c": _number}, optional={"offset": _int}),
    st.fixed_dictionaries({"kind": _mostly(st.just("const")), "q": _number}),
))
_override = _mostly(st.fixed_dictionaries(
    {"a": _int, "b": _int, "form": _form}, optional={"j0": _int}))


@st.composite
def _spec(draw):
    k = draw(st.integers(1, 3))
    residues = [{"r": r, "form": draw(_form)} for r in range(k)]
    return draw(_mostly(st.fixed_dictionaries({
        "modulus": _mostly(st.just(k)),
        "residues": _mostly(st.just(residues)),
        "overrides": st.one_of(st.just([]), st.lists(_override, max_size=2)),
    })))


_config = _mostly(st.fixed_dictionaries({"N": _int, "L": _int, "spec": _spec()}))


_DOCUMENTED = {EXIT_OK, EXIT_BAD_CONFIG, EXIT_INVALID_SPEC, EXIT_VIOLATION}


def _exit_code(argv, config, profile=False):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        if profile:
            argv = argv + ["--profile", str(Path(tmp) / "profile.csv")]
        return main(argv + ["--config", str(path), "--out", str(Path(tmp) / "out")])


# the keys that set the size of a job, with the largest value an example keeps
_CAPS = {"L": 6, "n_max": 6, "l_max": 6, "trials": 50, "horizon": 40}


def _small_job(config):
    """A large job is valid input: above its cap, a size key is halved to its
    cap, so that every example stays small."""
    if isinstance(config, dict):
        for key, cap in _CAPS.items():
            try:
                if int(config[key]) > cap:
                    config[key] = cap // 2
            except (KeyError, TypeError, ValueError, OverflowError):
                pass
    return config


class TestAnyConfig:
    @given(config=_config, sweep=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_documented_exit_code(self, config, sweep):
        argv = ["sweep", "--n-range", "1:2", "--l-range", "1:2"] if sweep else ["classify"]
        assert _exit_code(argv, config) in _DOCUMENTED

    @given(config=_mostly(st.fixed_dictionaries(
        {"N": _int, "L": _int, "n_max": _int, "spec": _spec()})))
    @settings(max_examples=100, deadline=None)
    def test_documented_exit_code_exact(self, config):
        assert _exit_code(["exact"], _small_job(config)) in _DOCUMENTED

    @given(config=_mostly(st.fixed_dictionaries({}, optional={
        "l_max": _int,
        "p_grid": _mostly(st.lists(_number, max_size=3)),
        "q_grid": _mostly(st.lists(_number, max_size=3)),
        "N_grid": _mostly(st.lists(_int, max_size=3)),
    })))
    @settings(max_examples=100, deadline=None)
    def test_documented_exit_code_verify(self, config):
        assert _exit_code(["verify"], _small_job(config)) in _DOCUMENTED

    @given(config=_mostly(st.fixed_dictionaries(
        {"N": _int, "L": _int, "spec": _spec(),
         "horizon": _mostly(st.integers(1, 60)), "trials": _mostly(st.integers(1, 80))},
        optional={"seed": _mostly(st.integers(0, 2**64 - 1)),
                  "ci_level": _mostly(st.floats(0.5, 0.99))})), profile=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_documented_exit_code_simulate(self, config, profile):
        assert _exit_code(["simulate"], _small_job(config), profile) in _DOCUMENTED


# -- the console script: `entry`, one command per process -----------------------

_SQRT = str(Path(__file__).resolve().parent.parent / "configs" / "sqrt_decay.json")


def _python(*argv, stdout=subprocess.PIPE, timeout=None, **env):
    """Run `python argv...` in a child process that imports this frogz."""
    env = dict(os.environ, PYTHONPATH=str(Path(frogz.__file__).parent.parent), **env)
    return subprocess.run([sys.executable, *argv], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=env, timeout=timeout)


_CLOSED_STDOUT = (EXIT_BAD_CONFIG, "cannot write stdout: Broken pipe\n")

# argparse before 3.11.x lets a failed print raise out of parse_args, where
# newer releases drop it; frogz's parser writes its own output, so this child,
# which patches the older behaviour into argparse, must report the same
_RAISING_ARGPARSE = (
    "import argparse, sys\n"
    "argparse.ArgumentParser._print_message = "
    "lambda self, message, file=None: (file or sys.stderr).write(message)\n"
    "import frogz.cli\n"
    "frogz.cli.entry()\n")


class TestEntry:
    def test_entry_freezes_the_heap(self):
        run = _python("-c", "import gc, frogz.cli as cli\n"
                            "cli.main = lambda argv=None: print(gc.get_freeze_count() > 0) or 0\n"
                            "print(gc.get_freeze_count() > 0)\n"
                            "cli.entry()\n")
        assert (run.returncode, run.stdout, run.stderr) == (0, "False\nTrue\n", "")

    def test_main_leaves_the_gc_alone(self, config_file, capsys):
        frozen, enabled = gc.get_freeze_count(), gc.isenabled()
        assert main(["classify", "--config", config_file({"N": 1, "L": 2, "spec": MOD2_SPEC})]) \
            == EXIT_OK
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)

    @pytest.mark.parametrize("args", [
        ["classify", "--config", _SQRT],
        ["exact", "--config", _SQRT],
        ["simulate", "--config", _SQRT, "--trials", "200", "--horizon", "60"],
        ["sweep", "--config", _SQRT, "--n-range", "1:2", "--l-range", "1:3"],
        ["verify"],
        ["--version"],
        ["classify", "--config", _SQRT, "--threads", "2"],
    ], ids=["classify", "exact", "simulate", "sweep", "verify", "version", "usage_error"])
    def test_module_matches_main(self, args, capsys):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse: --version and usage errors
            code = exc.code
        out, err = capsys.readouterr()
        run = _python("-m", "frogz.cli", *args)
        assert (run.returncode, run.stdout, run.stderr) == (code, out, err)

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["classify", "exact"])
    def test_closed_stdout(self, command, unbuffered, config_file, tmp_path):
        # at n_max 2000 the exact table outgrows stdout's buffer: the write fails, not the flush
        cfg = config_file(dict(json.loads(Path(_SQRT).read_text()), L=16, n_max=2000))
        store = tmp_path / "runs.jsonl"
        read, write = os.pipe()
        os.close(read)
        with os.fdopen(write, "wb") as closed:
            run = _python("-m", "frogz.cli", command, "--config", cfg, "--store", str(store),
                          stdout=closed, PYTHONUNBUFFERED=unbuffered)
        assert (run.returncode, run.stderr) == (EXIT_BAD_CONFIG,
                                                "cannot write stdout: Broken pipe\n")
        assert not store.exists()  # opened before the write, and removed with no record

    @pytest.mark.parametrize("unbuffered, child", [
        ("", ["-m", "frogz.cli"]),
        # argparse's own write fails at once, and is reported whatever the release
        ("1", ["-m", "frogz.cli"]),
        ("1", ["-c", _RAISING_ARGPARSE]),
    ], ids=["buffered", "unbuffered", "unbuffered_raising_argparse"])
    @pytest.mark.parametrize("flag", ["--version", "--help"])
    def test_closed_stdout_argparse_output(self, flag, unbuffered, child):
        read, write = os.pipe()
        os.close(read)
        with os.fdopen(write, "wb") as closed:
            run = _python(*child, flag, stdout=closed, PYTHONUNBUFFERED=unbuffered)
        assert (run.returncode, run.stderr) == _CLOSED_STDOUT


# -- one output rule: any open or write that fails removes the files the run made --------

_OUTPUTS = {"--out": "sim.jsonl", "--profile": "profile.csv", "--store": "runs.jsonl"}


class TestOutputFailure:
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    def test_full_stdout(self, unbuffered, config_file, tmp_path):
        # used to print `cannot open None: No space left on device`, to leave a new
        # --store behind and to write the --profile before stdout failed
        files = {flag: tmp_path / _OUTPUTS[flag] for flag in ("--profile", "--store")}
        argv = ["-m", "frogz.cli", "simulate", "--config", config_file(_sim()),
                *[x for flag, path in files.items() for x in (flag, str(path))]]
        for existing in (False, True):
            if existing:
                for path in files.values():
                    path.write_bytes(b"kept\n")
            with open("/dev/full", "wb") as full:
                run = _python(*argv, stdout=full, PYTHONUNBUFFERED=unbuffered)
            assert (run.returncode, run.stderr) == (
                EXIT_BAD_CONFIG, "cannot write stdout: No space left on device\n")
            for path in files.values():
                # stdout is written first: an existing file is left byte for byte as it was
                assert path.read_bytes() == b"kept\n" if existing else not path.exists()

    def test_full_stdout_argparse_output(self):
        # --version and --help under this interpreter's argparse and under one
        # that lets its failed print raise: where argparse drops a failed write,
        # an unbuffered stdout used to exit 0 with nothing on stderr
        for child in (["-m", "frogz.cli"], ["-c", _RAISING_ARGPARSE]):
            for flag in ("--version", "--help"):
                for unbuffered in ("", "1"):
                    with open("/dev/full", "wb") as full:
                        run = _python(*child, flag, stdout=full, PYTHONUNBUFFERED=unbuffered)
                    assert (run.returncode, run.stderr) == (
                        EXIT_BAD_CONFIG, "cannot write stdout: No space left on device\n"), \
                        (child[0], flag, unbuffered)

    @pytest.mark.parametrize("flag", list(_OUTPUTS))
    def test_full_file(self, flag, config_file, tmp_path, capsys):
        # used to print `cannot open None: No space left on device` and to leave
        # the other new files behind
        files = {key: tmp_path / name for key, name in _OUTPUTS.items()}
        argv = ["simulate", "--config", config_file(_sim()),
                *[x for key, path in files.items()
                  for x in (key, "/dev/full" if key == flag else str(path))]]
        assert main(argv) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == "cannot write /dev/full: No space left on device\n"
        assert not any(path.exists() for path in files.values())


# -- the experiment scripts ---------------------------------------------------------------

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_phase_diagram_refuses_what_sweep_refuses(config_file):
    # the modulus-2 spec of the guard-limit classify: 10 x 10^4 series tests sum
    # to 1.0001e9 block positions, which `frogz sweep` refuses at once
    spec = {"modulus": 2, "residues": [
        {"r": 0, "form": {"kind": "power", "c": 0.5, "alpha": 1e-20, "offset": 1}},
        {"r": 1, "form": {"kind": "power", "c": 0.4, "alpha": 1e-20, "offset": 1}}]}
    cfg = config_file({"N": 1, "L": 2, "spec": spec})
    run = _python(str(_SCRIPTS / "phase_diagram.py"), cfg, "--n-max", "10", "--l-max", "10000",
                  timeout=20)
    assert run.returncode == EXIT_INVALID_SPEC
    assert run.stdout == ""
    assert run.stderr.startswith("refused: ") and run.stderr.count("\n") == 1
    assert "= 1000100000 exceeds 100000000" in run.stderr
