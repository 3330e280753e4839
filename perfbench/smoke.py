"""Smoke test of the benchmark on a tiny task list per workload.

    python3 perfbench/smoke.py

For every workload it checks that each metric named in BENCHMARK.json is
emitted with its unit, that no task fails its check, and that two traced runs
with the same seed give identical counts.  Exits 1 on the first failure.
"""

import json
import sys

import run

TASKS = 6
SEED = 3


def _counts(metrics: dict) -> dict:
    """The traced metrics that are counts or ratios of counts, not timings."""
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] not in ("ms", "us") and name != "trace.overhead_frac"}


def check_workload(workload: str, spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run.measure(workload, SEED, 0, trace, limit=TASKS)["result"]
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, f"{workload} trace={trace}: metrics {got} != {want}"
        assert result["attempted"] >= TASKS, f"{workload}: {result['attempted']} tasks"
        assert result["failed"] == 0, f"{workload}: {result['failed']} tasks failed"
        if trace:
            again = run.measure(workload, SEED, 0, 1, limit=TASKS)["result"]
            first, second = _counts(result["metrics"]), _counts(again["metrics"])
            assert first == second, f"{workload}: traced counts differ {first} {second}"


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    assert sorted(names) == sorted(run.WORKLOADS), names
    for workload in names:
        try:
            check_workload(workload, spec)
        except AssertionError as exc:
            print(f"FAIL {exc}")
            return 1
        print(f"ok {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
