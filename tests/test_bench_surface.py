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


def _rr_request():
    return ["rr", "--degL", "3", "--g", "2", "--degN", "1"], ""


def _ber_request():
    import json

    import numpy as np

    from supercurves import supermatrix as sm

    A = sm.random_even_matrix(np.random.default_rng(5), (2, 1), 4)
    return ["ber"], json.dumps({"matrix": A.to_json()})


@pytest.mark.parametrize("request_", [_rr_request, _ber_request], ids=["rr", "ber"])
def test_traced_first_cli_call_leaves_the_shared_parser_untraced(request_):
    cli = workloads.cli
    argv, stdin = request_()
    want = workloads.call_cli(argv, stdin)
    assert want[0] == 0
    cli._parser.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert workloads.call_cli(argv, stdin) == want  # builds the shared parser
    finally:
        tracer.uninstall()
    assert "cli.main" in {s[2] for s in tracer.spans}
    assert "parse_args" not in vars(cli._parser())
    recorded = len(tracer.spans)
    assert workloads.call_cli(argv, stdin) == want
    assert len(tracer.spans) == recorded  # no wrapper outlives uninstall
