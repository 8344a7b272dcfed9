"""The benchmark tracer's contract with the library.

`perfbench/tracing.py` wraps each layer's `__all__` functions that the
layer defines, minus UNWRAPPED, plus EXTRA_FUNCTIONS, and the METHODS.
A traced pass fails when a wrapped function has no REACH entry, so a
renamed or new public function must come with one, and when a function
REACH lists for the workload records no call, so a public function no
command calls must leave `__all__`. The tracer is loaded by path and not
changed; its install and the traced passes run in child processes,
because it replaces functions in every `arcgen` module.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import arcgen

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

INSTALL = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import arcgen, tracing
modules = {name: getattr(arcgen, name) for name in tracing.LAYERS}
print(json.dumps(tracing.Tracer().install(modules)))
"""


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_function_the_tracer_wraps_has_a_reach_entry(tracing):
    src = str(Path(arcgen.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", INSTALL, str(PERFBENCH), src],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    wrapped = json.loads(out.stdout)
    methods = {f"{layer}.{cls}.{meth}" for layer, cls, meth in tracing.METHODS}
    functions = [name for name in wrapped if name not in methods]
    assert functions and [name for name in functions if name not in tracing.REACH] == []


def test_every_method_the_tracer_wraps_exists(tracing):
    for layer, cls_name, meth in tracing.METHODS:
        cls = getattr(importlib.import_module(f"arcgen.{layer}"), cls_name)
        assert callable(getattr(cls, meth, None)), f"{layer}.{cls_name}.{meth}"


@pytest.mark.parametrize("workload", ["t1-decided", "t1-capped", "t2-roundtrip"])
def test_a_traced_pass_reaches_every_listed_function(workload, tmp_path):
    # a traced run ends `incorrect` when a wrapped function that REACH
    # lists for the workload records no call, or when a certificate
    # differs from the expected one
    out = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), "--mode", "trace",
         "--workload", workload, "--seed", "1", "--work", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    record = json.loads(out.stdout.splitlines()[-1])
    assert record["reach_errors"] == []
    certs = record["setup_certs"] + record["certs"]
    assert certs and [(c["case"], c["errors"]) for c in certs if c["errors"]] == []
