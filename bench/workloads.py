"""Workloads, measurement loop and output checks of the trialmatch benchmark.

Both workloads drive the user entry point ``trialmatch.cli.main(["run", ...])``
in this process, one invocation at a time: a closed loop with one client and
``--threads 1``. Each invocation is preceded by set-ups, each of which
generates the seed's corpus and writes it as JSONL plus a config JSON; they
are timed as ``setup_s`` and kept out of ``wall_s``.

The corpus is the "hard" synthetic corpus (``signal_strength=0.15``): at the
default 0.9 most cells reach AUROC 1.0 and a quality regression cannot show.

Sweeps train the MLP for a fixed 40 epochs (``patience`` equal to
``max_epochs``, so early stopping never cuts a fit short; the best-validation
snapshot is still kept). Under the default early stopping the 25 fits of
``sweep-xtrial`` stopped after 878 to 1111 epochs in all over seeds 1-10
(median 997, so 40 a fit), and the run's wall time moves with that count from
seed to seed. ``python3 bench/collect.py --stopping-epochs`` measures it again.

``wall_s`` is the fastest invocation of the run and ``setup_s`` the fastest
set-up; their medians and every sample are printed beside them. On the shared 2-CPU x86_64 host the benchmark was
written on, the speed of a core drifts by up to 1.6x over tens of seconds to
minutes as neighbours load the machine, and that noise only ever adds time.
Over 25 s windows of back-to-back ``retrieve`` invocations the spread between
windows (quartile distance over median) was 0.06 for the minimum and 0.19 for
the median, which follows whichever phase held most of the window.

Every run also calls ``trialmatch retrieve`` once, untimed, on its corpus with
the sweep's retrieval settings and checks the selected chunks against an
independent numpy reference (``reference.py``).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from trialmatch import cli
from trialmatch.corpus import SyntheticConfig, generate_synthetic, write_dataset

import reference
import tracing

ROOT = Path(__file__).resolve().parents[1]

HARD_CORPUS = SyntheticConfig(n_trials=5, patients_per_trial=100, signal_strength=0.15)
SWEEP_TRAIN = {"max_epochs": 40, "patience": 40}
EXCLUSIONS = (1.0, 0.8, 0.6, 0.4, 0.2)
TASK1_CELLS = 8  # forest/tree/svm/mlp, each with and without compression
# The retrieval settings of the sweeps' default pipeline, spelled out.
RETRIEVE = {"k": 4, "chunk_size": 256, "overlap": 32, "dim": 128, "seed": 0}

# Three samples at least: outputs are compared across repetitions.
MIN_INVOCATIONS = 3
# Set-ups timed before each invocation; setup_s is the fastest of them. A
# set-up takes about 0.4 s, and host load makes one take up to twice that.
SETUPS_PER_INVOCATION = 5

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Unit of every metric BENCHMARK.json declares, end-to-end and per-layer.
UNITS = {m["name"]: m["unit"] for part in ("end_to_end", "per_layer") for m in SPEC[part]}


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: SyntheticConfig
    task: str  # harness task design

    @property
    def cells(self) -> int:
        """results.csv rows the task design produces."""
        if self.task == "task1":
            return TASK1_CELLS
        return self.corpus.n_trials * len(EXCLUSIONS)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-classifiers", HARD_CORPUS, "task1"),
        Workload("sweep-xtrial", HARD_CORPUS, "task6"),
    )
}


@dataclass
class Invocation:
    wall_s: float
    code: int
    results_csv: bytes


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    try:
        blas_info = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas_info['name']} {blas_info.get('version', '')}".strip()
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_settings": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Set-up and invocation
# ---------------------------------------------------------------------------


def set_up(workload: Workload, seed: int, work: Path) -> list[str]:
    """Write the seed's corpus and the sweep config; return the cli argv."""
    patients, trials = work / "patients.jsonl", work / "trials.jsonl"
    write_dataset(generate_synthetic(workload.corpus, seed), patients, trials)
    config = {
        "task": workload.task,
        "dataset": {"name": "hard", "patients_path": str(patients), "trials_path": str(trials)},
        "variants": [{"train": SWEEP_TRAIN}],
        "exclusions": list(EXCLUSIONS),
        "output_dir": str(work / "out"),
        "threads": 1,
    }
    path = work / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return ["run", "--config", str(path), "--threads", "1", "--json"]


def _input_digest(work: Path) -> str:
    digest = hashlib.sha256()
    for name in ("patients.jsonl", "trials.jsonl", "config.json"):
        digest.update((work / name).read_bytes())
    return digest.hexdigest()


def _main(argv: list[str]) -> tuple[int, str]:
    """cli.main with its stdout captured, as (exit code, stdout)."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    return code, stdout.getvalue()


def invoke(argv: list[str], work: Path) -> Invocation:
    results = work / "out" / "results.csv"
    results.unlink(missing_ok=True)
    start = time.perf_counter()
    code, _ = _main(argv)
    wall_s = time.perf_counter() - start
    return Invocation(wall_s, code, results.read_bytes() if results.exists() else b"")


def repeat(fn: Callable, seconds: float, at_least: int) -> list:
    """Call ``fn`` back to back until ``seconds`` have passed and it ran
    ``at_least`` times."""
    out = []
    start = time.perf_counter()
    while len(out) < at_least or time.perf_counter() - start < seconds:
        out.append(fn())
    return out


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB.

    Read from ``VmHWM``, which starts afresh when the process is exec'd:
    ``getrusage``'s ``ru_maxrss`` also keeps the peak of the process that
    launched the benchmark, because Linux carries it across exec.
    """
    for line in Path("/proc/self/status").read_text(encoding="utf-8").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


# ---------------------------------------------------------------------------
# Output checks and quality metrics
# ---------------------------------------------------------------------------


def _rows(results_csv: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(results_csv.decode("utf-8"))))


def check_sweep(workload: Workload, runs: list[Invocation], work: Path) -> list[str]:
    """Problems with one run's sweep outputs (empty when correct)."""
    problems = [f"invocation {i}: cli.main returned {r.code}" for i, r in enumerate(runs) if r.code]
    if problems:
        return problems
    if any(r.results_csv != runs[0].results_csv for r in runs[1:]):
        problems.append("results.csv differs between repetitions of one run")
    rows = _rows(runs[0].results_csv)
    if len(rows) != workload.cells:
        problems.append(f"results.csv has {len(rows)} cells, the task design has {workload.cells}")
    for row in rows:
        if row["auroc"] and not 0.0 <= float(row["auroc"]) <= 1.0:
            problems.append(f"{row['variant']}: AUROC {row['auroc']} outside [0, 1]")
    manifest = json.loads((work / "out" / "manifest.json").read_text(encoding="utf-8"))
    if len(manifest["runs"]) != len(rows):
        problems.append(f"manifest.json lists {len(manifest['runs'])} runs, results.csv {len(rows)}")
    return problems


def retrieve(work: Path) -> tuple[int, dict]:
    """``trialmatch retrieve --json`` on the run's corpus: (exit code, payload)."""
    argv = ["retrieve", "--patients", str(work / "patients.jsonl")]
    argv += ["--trials", str(work / "trials.jsonl"), "--json"]
    for key, value in RETRIEVE.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    code, stdout = _main(argv)
    return code, json.loads(stdout) if code == 0 else {}


def check_retrieval(work: Path) -> list[str]:
    """Compare the top-k chunks and scores of ``retrieve`` with the reference."""
    code, payload = retrieve(work)
    if code:
        return [f"retrieve returned {code}"]
    expected = reference.reference_selection(
        work / "patients.jsonl", work / "trials.jsonl", **RETRIEVE
    )
    return reference.check_selection(payload, expected)


def count_cells(workload: Workload, runs: list[Invocation]) -> tuple[int, int]:
    """(attempted, failed) cells; a cell fails if its invocation failed or
    its AUROC is absent."""
    present = sum(
        min(workload.cells, sum(1 for row in _rows(r.results_csv) if row["auroc"]))
        for r in runs
        if r.code == 0
    )
    attempted = workload.cells * len(runs)
    return attempted, attempted - present


def quality(results_csv: bytes) -> tuple[float, float]:
    """(mean AUROC, mean macro-F1) over the cells of results.csv."""
    rows = _rows(results_csv)
    aurocs = [float(row["auroc"]) for row in rows if row["auroc"]]
    mean_auroc = statistics.mean(aurocs) if aurocs else 0.0
    return mean_auroc, statistics.mean(float(row["macro_f1"]) for row in rows)


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------


def run(
    workload: Workload, seed: int, seconds: float, trace: bool, work: Path
) -> tuple[dict, dict]:
    """Measure one workload; returns (result object, details for the log)."""
    work.mkdir(parents=True, exist_ok=True)
    details: dict = {}
    if trace:
        argv = set_up(workload, seed, work)
        original = tracing.bindings()

        def untraced_then_traced() -> tuple[Invocation, Invocation, dict]:
            # Alternating the two keeps host drift out of their difference.
            plain = invoke(argv, work)
            with tracing.Tracer() as tracer:
                traced = invoke(argv, work)
            return plain, traced, tracer.metrics(traced.wall_s)

        pairs = repeat(untraced_then_traced, seconds, 1)
        runs = [r for plain, traced, _ in pairs for r in (plain, traced)]
        problems = check_sweep(workload, runs, work)
        if tracing.bindings() != original:
            problems.append("a traced run left a wrapped function in place")
        metrics = {name: statistics.median(m[name] for *_, m in pairs) for name in pairs[0][2]}
        metrics["trace.overhead_s"] = min(t.wall_s for _, t, _ in pairs) - min(
            p.wall_s for p, _, _ in pairs
        )
        details["wall_s_untraced"] = [p.wall_s for p, _, _ in pairs]
        details["wall_s_traced"] = [t.wall_s for _, t, _ in pairs]
    else:
        setups, digests = [], set()

        def set_up_and_invoke() -> Invocation:
            for _ in range(SETUPS_PER_INVOCATION):
                start = time.perf_counter()
                argv = set_up(workload, seed, work)
                setups.append(time.perf_counter() - start)
                digests.add(_input_digest(work))
            return invoke(argv, work)

        runs = repeat(set_up_and_invoke, seconds, MIN_INVOCATIONS)
        problems = check_sweep(workload, runs, work)
        if len(digests) != 1:
            problems.append("set-up wrote different inputs for one seed")
        walls = sorted(r.wall_s for r in runs)
        mean_auroc, mean_macro_f1 = quality(runs[0].results_csv) if not problems else (0.0, 0.0)
        metrics = {
            "wall_s": walls[0],
            "setup_s": min(setups),
            "peak_rss_mb": peak_rss_mb(),
            "mean_auroc": mean_auroc,
            "mean_macro_f1": mean_macro_f1,
        }
        details["wall_s_median"] = statistics.median(walls)
        details["wall_s_samples"] = walls
        details["setup_s_median"] = statistics.median(setups)
        details["setup_s_samples"] = setups
    problems += check_retrieval(work)
    attempted, failed = count_cells(workload, runs)
    details["invocations"] = len(runs)
    details["problems"] = problems
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    return result, details
