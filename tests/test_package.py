"""The package namespace, and the frogz names the benchmark in perfbench/ looks up."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
import types
from pathlib import Path

import frogz

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# workloads.py reads these names off the modules its _frogz() returns
WORKLOAD_HANDLES = {"classify_mod": "classify", "exact": "exact", "sequences": "sequences"}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workload_names() -> set[tuple[str, str]]:
    """(layer, dotted name) for every attribute chain workloads.py reads off a frogz module."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in WORKLOAD_HANDLES:
            found.add((WORKLOAD_HANDLES[node.id], ".".join(chain)))
    return found


def test_submodule_import_yields_the_module():
    import frogz.classify as m

    assert isinstance(m, types.ModuleType) and m.__name__ == "frogz.classify"


def test_package_namespace_holds_only_the_version():
    public = {name for name, value in vars(frogz).items()
              if not name.startswith("__") and not isinstance(value, types.ModuleType)}
    assert public == set()
    assert frogz.__version__ == "0.1.0"


def test_benchmark_names_resolve():
    # the tracer wraps SPANNED and COUNTED by name, and the workload checks
    # call frogz directly: a rename here breaks the benchmark, not the tests
    tracer = _tracer()
    names = {(layer, name) for table in (tracer.SPANNED, tracer.COUNTED)
             for layer, names in table.items() for name in names}
    from_workloads = _workload_names()
    assert {layer for layer, _ in from_workloads} == set(WORKLOAD_HANDLES.values())
    for layer, name in names | from_workloads:
        owner = importlib.import_module(f"frogz.{layer}")
        *path, attr = name.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"frogz.{layer}.{name}"
        assert callable(getattr(owner, attr)), f"frogz.{layer}.{name}"
    # Tracer.dump reads the hit counts off the lru_cache under its wrapper
    assert callable(importlib.import_module("frogz.sequences").is_in_D1.cache_info)


def test_cli_import_loads_every_traced_layer():
    # Tracer.install imports frogz.cli, then looks each layer up in sys.modules
    code = "import sys, frogz.cli; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(frogz.__file__).parent.parent))
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True).stdout.split()
    tracer = _tracer()
    assert {f"frogz.{layer}" for layer in {**tracer.SPANNED, **tracer.COUNTED}} <= set(loaded)
