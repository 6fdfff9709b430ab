"""The benchmark's traced counts, checked against counts derived from the
run's own settings. The benchmark's per-layer metrics read what
``score_chunks`` and ``select_top_k`` take and return and what the harness's
``train_mlp`` binding returns; a change that skews ``retrieval.pairs``,
``retrieval.selected_ratio`` or the MLP counts fails here.
"""

import json
import sys
from pathlib import Path

from conftest import tiny_patient
from trialmatch import cli
from trialmatch.corpus import (
    DEFAULT_CHUNK_OVERLAP,
    DEFAULT_CHUNK_SIZE,
    Dataset,
    SyntheticConfig,
    build_chunks,
    generate_synthetic,
    write_dataset,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402

K = 4


def test_retrieval_counts_match_the_chunks(tmp_path, capsys):
    # Synthetic patients have 6 chunks each, more than k; the short one has 3.
    synthetic = generate_synthetic(SyntheticConfig(n_trials=2, patients_per_trial=20), 5)
    short = tiny_patient("SHORT", trial_id=synthetic.trials[0].trial_id, label=0)
    dataset = Dataset(patients=[*synthetic.patients, short], trials=synthetic.trials)
    patients, trials = tmp_path / "patients.jsonl", tmp_path / "trials.jsonl"
    write_dataset(dataset, patients, trials)
    config = {
        "task": "task1",
        "dataset": {"name": "tiny", "patients_path": str(patients), "trials_path": str(trials)},
        "variants": [{"k_retrieve": K, "train": {"max_epochs": 2}}],
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")

    with tracing.Tracer() as tracer:
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_OK
    capsys.readouterr()

    n_chunks = [
        len(build_chunks(p, DEFAULT_CHUNK_SIZE, DEFAULT_CHUNK_OVERLAP, "mixed"))
        for p in dataset.patients
    ]
    n_criteria = [len(dataset.trial(p.trial_id).criteria) for p in dataset.patients]
    assert sorted(set(n_chunks)) == [3, 6]
    count = tracer.count
    assert count["corpus.chunks"] == count["retrieval.scored"] == sum(n_chunks)
    assert count["retrieval.pairs"] == sum(n * c for n, c in zip(n_chunks, n_criteria))
    assert count["retrieval.selected"] == sum(min(K, n) for n in n_chunks)


def test_mlp_counts_match_the_cells(tmp_path, capsys):
    # task6 fits one MLP per (trial, exclusion) cell; patience equal to
    # max_epochs runs every fit to the last epoch.
    config = {
        "task": "task6",
        "dataset": {"name": "tiny", "synthetic": {"n_trials": 3, "patients_per_trial": 20}},
        "exclusions": [1.0, 0.6],
        "variants": [{"train": {"max_epochs": 3, "patience": 3}}],
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")

    with tracing.Tracer() as tracer:
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_OK
    capsys.readouterr()

    assert tracer.count["classifiers.mlp_fits"] == 3 * 2
    assert tracer.count["classifiers.mlp_epochs"] == 3 * 2 * 3
