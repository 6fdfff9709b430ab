"""The benchmark's traced counts, checked against counts derived from the
run's own settings. The benchmark's per-layer metrics read what
``score_chunks`` and ``select_top_k`` take and return and what the harness's
``train_mlp`` binding returns; a change that skews ``retrieval.pairs``,
``retrieval.selected_ratio`` or the MLP counts fails here. A sweep over k
chunks, embeds and scores once, and encodes once per k.
"""

import json
import sys
from pathlib import Path

from conftest import K_SWEEP_CORPUS, k_sweep_config, tiny_patient
from trialmatch import cli, harness
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


def test_k_sweep_scores_once_and_encodes_once_per_k(tmp_path, capsys):
    obj = k_sweep_config()
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**obj, "output_dir": str(tmp_path / "out")}), encoding="utf-8")
    with tracing.Tracer() as sweep:
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_OK
    capsys.readouterr()

    dataset = generate_synthetic(SyntheticConfig(**K_SWEEP_CORPUS), obj["datasets"][0]["seed"])
    n_chunks = [
        len(build_chunks(p, DEFAULT_CHUNK_SIZE, DEFAULT_CHUNK_OVERLAP, "mixed"))
        for p in dataset.patients
    ]
    n_criteria = [len(dataset.trial(p.trial_id).criteria) for p in dataset.patients]
    count = sweep.count
    assert count["corpus.chunks"] == sum(n_chunks)
    assert count["retrieval.pairs"] == sum(n * c for n, c in zip(n_chunks, n_criteria))
    assert count["embedding.texts"] == sum(n_chunks) + sum(len(t.criteria) for t in dataset.trials)

    # Encoding and compression: what one pass per distinct k counts.
    specs = harness._variants(harness.ExperimentConfig.from_dict(obj))
    per_k = {"embedding.prompt_tokens": 0.0, "representation.dimred_calls": 0.0}
    for k in sorted({spec.k_retrieve for spec in specs}):
        with tracing.Tracer() as single:
            harness._feature_pass(
                [spec for spec in specs if spec.k_retrieve == k], dataset, "mixed"
            )
        for name in per_k:
            per_k[name] += single.count[name]
    assert per_k["representation.dimred_calls"] == len(dataset.patients)
    assert {name: count[name] for name in per_k} == per_k


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
