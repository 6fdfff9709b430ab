"""Self-tests of the benchmark: metric names, shim restoration, tiny runs and
the retrieval reference check.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = workloads.SPEC


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def tiny(name: str) -> workloads.Workload:
    """A seconds-long version of a workload."""
    workload = workloads.WORKLOADS[name]
    return replace(workload, corpus=replace(workload.corpus, n_trials=2, patients_per_trial=30))


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_passes_its_checks_and_reports_every_metric(name, trace, tmp_path):
    workload = tiny(name)
    start = time.perf_counter()
    result, details = workloads.run(workload, seed=3, seconds=0, trace=trace, work=tmp_path)
    assert time.perf_counter() - start < 30
    assert result["correct"], details["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared(section)


def test_traced_invocation_restores_every_wrapped_function(tmp_path):
    originals = tracing.bindings()
    workload = tiny("sweep-classifiers")
    argv = workloads.set_up(workload, 3, tmp_path)
    with tracing.Tracer() as tracer:
        assert all(tracing.bindings()[key] is not originals[key] for key in originals)
        invocation = workloads.invoke(argv, tmp_path)
    assert invocation.code == 0
    assert all(tracing.bindings()[key] is originals[key] for key in originals)
    assert tracer.count["classifiers.mlp_fits"] == 2
    assert tracer.count["representation.dimred_calls"] == 4 * 60


def test_tracer_restores_bindings_when_the_invocation_raises():
    originals = tracing.bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("invocation failed")
    assert all(tracing.bindings()[key] is originals[key] for key in originals)


def test_reference_check_rejects_a_changed_selection(tmp_path):
    workloads.set_up(tiny("sweep-classifiers"), 3, tmp_path)
    code, payload = workloads.retrieve(tmp_path)
    assert code == 0
    expected = reference.reference_selection(
        tmp_path / "patients.jsonl", tmp_path / "trials.jsonl", **workloads.RETRIEVE
    )
    assert reference.check_selection(payload, expected) == []

    selected = payload["patients"][0]["selected"]
    selected[0]["score"] += 1e-6
    assert len(reference.check_selection(payload, expected)) == 1
    selected[0], selected[1] = selected[1], selected[0]
    assert len(reference.check_selection(payload, expected)) == 1
