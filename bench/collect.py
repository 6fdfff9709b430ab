"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/collect.py --workloads sweep-xtrial --seeds 1-5
    python3 bench/collect.py --seeds 1-10 --traced-seed 1 --stopping-epochs --out bench/baseline.json

Runs are sequential, one ``bench/run.py`` process at a time, with the
``run_seconds`` of BENCHMARK.json. For every metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound.
``--stopping-epochs`` also runs each workload's sweep once per seed, untimed,
with the program's default training (early stopping), and records how many
epochs its MLP fits trained: the measurement the benchmark's fixed epoch
count is taken from.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_TIMEOUT_S = 900


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def bench_run(workload: str, seed: int, trace: int) -> tuple[dict, dict, dict]:
    """(environment, details, result object) of one benchmark run."""
    cmd = [
        sys.executable,
        str(BENCH / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    details = next(json.loads(line[8:]) for line in lines if line.startswith("details "))
    return env, details, json.loads(lines[-1])


def stopping_epochs(workload: str, seed: int) -> dict:
    """MLP fits and their summed ``stopped_epoch`` for one sweep of
    ``workload`` under the default TrainConfig."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    for path in (str(BENCH), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import tracing
    import workloads

    work = ROOT / ".bench_work" / f"epochs-{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        argv = workloads.set_up(workloads.WORKLOADS[workload], seed, work)
        config = json.loads((work / "config.json").read_text(encoding="utf-8"))
        config["variants"] = [{}]
        (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
        with tracing.Tracer() as tracer:
            invocation = workloads.invoke(argv, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    if invocation.code:
        raise SystemExit(f"{workload} seed {seed}: cli.main returned {invocation.code}")
    return {
        "seed": seed,
        "fits": int(tracer.count["classifiers.mlp_fits"]),
        "epochs": int(tracer.count["classifiers.mlp_epochs"]),
    }


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--traced-seed", type=int, default=None, help="also make one traced run")
    parser.add_argument(
        "--stopping-epochs", action="store_true", help="also count epochs under early stopping"
    )
    parser.add_argument("--out", default=None, help="write every result and summary here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report: dict = {"run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in _seeds(args.seeds):
            env, details, result = bench_run(workload, seed, 0)
            runs.append({"seed": seed, "env": env, "details": details, "result": result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            samples = [round(w, 3) for w in details["wall_s_samples"]]
            print(f"{workload} seed={seed} {json.dumps(values)} wall_s samples {samples}", flush=True)
        summary = summarise([r["result"] for r in runs])
        entry = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            print(f"  {name:14s} median={s['median']:.4f} q1={s['q1']:.4f} q3={s['q3']:.4f} "
                  f"spread={s['spread']:.3f} bound={bounds[name]}", flush=True)
        if args.traced_seed is not None:
            env, details, result = bench_run(workload, args.traced_seed, 1)
            entry["traced"] = {
                "seed": args.traced_seed, "env": env, "details": details, "result": result
            }
        if args.stopping_epochs:
            counts = [stopping_epochs(workload, seed) for seed in _seeds(args.seeds)]
            epochs = [c["epochs"] for c in counts]
            print(f"  default early stopping: epochs per seed {epochs}, "
                  f"median {statistics.median(epochs)} over {counts[0]['fits']} fits", flush=True)
            entry["default_stopping_epochs"] = counts
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
