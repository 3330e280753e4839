"""The library surface that the benchmark under perfbench/ relies on.

The benchmark reaches the library through its modules' public names and wraps
them for its traced run; a rename or a changed signature breaks the benchmark
without breaking any other test.  These checks build every workload, run each
workload's warm-up task against its tolerance, and check that the tracer
restores everything it wraps.
"""

import importlib
import sys
from pathlib import Path

import pytest

from supercurves.grassmann import GrassmannScalar

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

tracing = importlib.import_module("tracing")
workloads = importlib.import_module("workloads")


@pytest.mark.parametrize("workload", sorted(workloads.CELLS))
def test_workload_builds_and_warmup_passes(workload):
    tasks = workloads.make_pass(workload, 0, 0)
    assert tasks
    warmup = workloads.make_warmup(workload, 0)
    residual = warmup.run()
    assert residual <= warmup.tol, f"{warmup.cell}: residual {residual} > {warmup.tol}"


def test_tracer_uninstall_restores_bindings():
    namespaces = [importlib.import_module(name) for name in tracing._NAMESPACES]
    before = dict(vars(GrassmannScalar))
    before_ns = [dict(vars(ns)) for ns in namespaces]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert vars(GrassmannScalar)["__mul__"] is not before["__mul__"]
    finally:
        tracer.uninstall()
    assert dict(vars(GrassmannScalar)) == before
    assert [dict(vars(ns)) for ns in namespaces] == before_ns
