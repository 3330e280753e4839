"""One set-up sample, in a fresh interpreter: import supercurves, then run the
workload's warm-up task.  Input generation is not timed.  Prints one JSON line.

    python3 perfbench/setup_probe.py --workload theta --seed 1

``run.py`` starts several of these and reports the median as ``setup_s``.
"""

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import supercurves.cli  # noqa: F401  (the package and its command-line entry point)
    import_s = time.perf_counter() - start

    import workloads
    task = workloads.make_warmup(args.workload, args.seed)
    start = time.perf_counter()
    residual = task.run()
    warmup_s = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "warmup_s": warmup_s,
                      "ok": bool(residual <= task.tol)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
