"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 perfbench/run.py --workload superlinalg --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run executes whole passes of the workload's seeded task
list until ``--seconds`` of task time have been measured, checks every task
against its paired independent check, and reports the end-to-end metrics.
With ``--trace 1`` it runs pass 0 once untraced and once traced (identical
inputs), and reports the per-layer metrics; ``--seconds`` is not used.

Workloads run single-threaded in one process with one client in a closed
loop; the BLAS thread count is pinned before numpy loads.  The provenance of
the run is printed before the result line and written, with the result, under
``perfbench/out/``.
"""

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("superlinalg", "theta", "sgr_window", "cli_mix")
SETUP_SAMPLES = 5


def _load_library():
    """Import supercurves from this checkout's src/, never from anywhere else."""
    if not (SRC / "supercurves" / "__init__.py").is_file():
        raise SystemExit(f"error: no supercurves sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import supercurves
    if SRC.resolve() not in Path(supercurves.__file__).resolve().parents:
        raise SystemExit(f"error: supercurves was imported from {supercurves.__file__}")


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "supercurves").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload: str, seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"workload": workload, "seed": seed, "git_commit": _git_commit(),
            "src_sha256": _src_digest(), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": BLAS_THREADS, "loadavg_before": os.getloadavg()}


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of import time plus one warm-up task."""
    samples = []
    for i in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                               "--workload", workload, "--seed", str(seed + i)],
                              cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if not sample["ok"]:
            raise SystemExit("error: the warm-up task failed its check")
        samples.append(sample["import_s"] + sample["warmup_s"])
    return statistics.median(samples)


class Outcome:
    """Latencies and check results of the tasks of a run."""

    def __init__(self):
        self.latencies = []
        self.failed = 0

    def record(self, task, tracer=None):
        """Run one task, inside a root span when traced, and check it.  A task
        that raises or fails its check is counted; it never stops the run."""
        start = time.perf_counter()
        try:
            residual = tracer.call("bench.task", task.run) if tracer else task.run()
        except Exception:  # noqa: BLE001 - counted as failed, the run goes on
            residual = None
            traceback.print_exc(file=sys.stderr)
        self.latencies.append(time.perf_counter() - start)
        if residual is None or not residual <= task.tol:
            self.failed += 1
            print(f"check failed: {task.cell} residual {residual} > {task.tol}",
                  file=sys.stderr)

    @property
    def seconds(self) -> float:
        return sum(self.latencies)


def end_to_end(workload, seed, seconds, limit=None) -> tuple:
    """Whole passes until ``seconds`` of task time are measured (at least one)."""
    import numpy as np
    import workloads
    outcome = Outcome()
    passes = 0
    while passes == 0 or outcome.seconds < seconds:
        for task in workloads.make_pass(workload, seed, passes)[:limit]:
            outcome.record(task)
        passes += 1
    lat = np.array(outcome.latencies)
    pct = workloads.TAIL_PERCENTILE[workload]
    metrics = {
        "tasks_per_s": ((len(lat) - outcome.failed) / outcome.seconds, "1/s"),
        "latency_p50_ms": (float(np.percentile(lat, 50)) * 1e3, "ms"),
        "latency_tail_ms": (float(np.percentile(lat, pct)) * 1e3, "ms"),
    }
    info = {"passes": passes, "tasks": len(lat), "measured_s": outcome.seconds,
            "tail_percentile": pct}
    return outcome, metrics, info


def per_layer(workload, seed, limit=None) -> tuple:
    """Pass 0 untraced, then the same inputs again traced."""
    import tracing
    import workloads
    outcome = Outcome()
    for task in workloads.make_pass(workload, seed, 0)[:limit]:
        outcome.record(task)
    plain_s = outcome.seconds
    tasks = workloads.make_pass(workload, seed, 0)[:limit]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for task in tasks:
            outcome.record(task, tracer)
    finally:
        tracer.uninstall()
    values = tracer.metrics()
    values["trace.overhead_frac"] = (outcome.seconds - 2 * plain_s) / plain_s
    values.update(tracing.kernel_probe(seed))
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload}-seed{seed}-spans.jsonl", "w") as fh:
        for row in tracer.span_rows():
            fh.write(json.dumps(row) + "\n")
    metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    return outcome, metrics, {"spans": len(tracer.spans), "tasks": len(tasks)}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if ".dense_mul_us." in name:
        return "us"
    if name.startswith("cli.bytes_"):
        return "bytes"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_per_cramer") or name.endswith("_per_evaluate"):
        return "ratio"
    return "count"


def measure(workload, seed, seconds, trace, limit=None) -> dict:
    """One run; returns the result object and its provenance."""
    _load_library()
    prov = provenance(workload, seed)
    import workloads
    workloads.make_warmup(workload, seed).run()
    if trace:
        outcome, metrics, info = per_layer(workload, seed, limit)
    else:
        setup_s = setup_seconds(workload, seed)
        outcome, metrics, info = end_to_end(workload, seed, seconds, limit)
        metrics["setup_s"] = (setup_s, "s")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = (peak, "MB")
    prov.update(info)
    prov["loadavg_after"] = os.getloadavg()
    result = {"correct": outcome.failed == 0, "attempted": len(outcome.latencies),
              "failed": outcome.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return {"result": result, "provenance": prov}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run = measure(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(run, fh, indent=1)
    print("provenance " + json.dumps(run["provenance"]))
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
