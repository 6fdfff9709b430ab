"""trialmatch benchmark: one run of one workload.

    python3 bench/run.py --workload sweep-classifiers --seed 1 --seconds 30 --trace 0

Workloads: ``sweep-classifiers`` (task1) and ``sweep-xtrial`` (task6); see
``workloads.py``. With ``--trace 0`` a run reports the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run, whose shims are
described in ``tracing.py``. The run prints its environment and samples, then
as its last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

Exit codes: 0 when every output check passed, 1 when one failed (the result
line is still printed, with ``"correct": false``), 2 when the program under
``src/`` cannot be imported (nothing is printed on stdout).

BLAS is held to one thread unless the environment already sets it, so each
run uses one core, like the ``--threads 1`` feature pass it measures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a name from BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    src = ROOT / "src"
    if not (src / "trialmatch" / "__init__.py").is_file():
        print(f"bench: no trialmatch package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        import workloads
    except ImportError as exc:
        print(f"bench: cannot import trialmatch from {src}: {exc}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, details = workloads.run(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    print("env " + json.dumps(workloads.environment(args.workload, args.seed, args.seconds, args.trace)))
    print("details " + json.dumps(details))
    for problem in details["problems"]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
