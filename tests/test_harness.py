import hashlib
import json
import logging
from dataclasses import asdict

import pytest

from conftest import tiny_patient, tiny_trial
from trialmatch import cli, harness
from trialmatch.classifiers import TrainConfig
from trialmatch.corpus import (
    Dataset,
    EligibilityLabel,
    PatientRecord,
    SyntheticConfig,
    generate_synthetic,
    write_dataset,
)
from trialmatch.errors import ConfigError
from trialmatch.harness import (
    ExperimentConfig,
    FeatureSet,
    PipelineSpec,
    ProviderSpec,
    _compute_features_multi,
    config_hash,
    run_task,
    write_outputs,
)
from trialmatch.representation import DimRedConfig


class TestConfigLoading:
    def test_round_trip(self):
        config = ExperimentConfig.from_dict(
            {
                "task": "task6",
                "dataset": {"name": "s", "synthetic": {"n_trials": 3}, "seed": 4},
                "variants": [{"dimred": {"axis": "hidden"}, "train": {"max_epochs": 5}}],
                "split": {"test_fraction": 0.3},
                "providers": [{"kind": "mock", "dim": 64}],
            }
        )
        assert ExperimentConfig.from_dict(json.loads(json.dumps(asdict(config)))) == config
        assert config.variants[0].train.max_epochs == 5
        assert config.variants[0].dimred == DimRedConfig(axis="hidden")

    @pytest.mark.parametrize(
        "obj, key",
        [
            ({"task": "task1", "variants": [{"clasifier": "svm"}]}, "clasifier"),
            ({"task": "task1", "variants": [{"train": {"max_epoch": 5}}]}, "max_epoch"),
            ({"task": "task1", "variants": [{"dimred": {"axes": "hidden"}}]}, "axes"),
            ({"task": "task1", "variants": [{"provider": {"dims": 8}}]}, "dims"),
            ({"task": "task1", "dataset": {"synthetic": {"n_trial": 2}}}, "n_trial"),
            ({"task": "task1", "dataset": {"patient_path": "p"}}, "patient_path"),
            ({"task": "task1", "split": {"seeds": 1}}, "seeds"),
            ({"task": "task1", "thread": 2}, "thread"),
        ],
    )
    def test_unknown_key_is_named(self, obj, key):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            ExperimentConfig.from_dict(obj)

    def test_missing_task_is_named(self):
        with pytest.raises(ConfigError, match="missing required key 'task'"):
            ExperimentConfig.from_dict({"variants": [{}]})

    def test_wrong_value_type_is_a_config_error(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"task": "task1", "threads": "two"})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"task": "task1", "variants": [[]]})

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"task": "task1", "threads": True}, "key 'threads' in config must be int"),
            ({"task": "task1", "variants": [[]]}, "variants[0] must be a JSON object"),
            (
                {"task": "task1", "variants": [{"provider": {"dim": "128"}}]},
                "key 'dim' in provider must be int",
            ),
            (
                {"task": "task1", "variants": [{"mlp_hidden": [64, "x"]}]},
                "key 'mlp_hidden[1]' in variants[0] must be int",
            ),
            (
                {"task": "task6", "exclusions": 1.0},
                "key 'exclusions' in config must be a JSON array",
            ),
        ],
    )
    def test_wrong_value_type_names_the_key(self, obj, message):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict(obj)
        assert message in str(info.value)

    def test_int_is_read_as_float(self):
        config = ExperimentConfig.from_dict(
            {"task": "task6", "variants": [{"svm_lambda": 1}], "exclusions": [1, 0.5]}
        )
        assert type(config.variants[0].svm_lambda) is float
        assert config.variants[0].svm_lambda == 1.0
        assert [type(e) for e in config.exclusions] == [float, float]

    @pytest.mark.parametrize(
        "spec, digest",
        [
            (PipelineSpec(), "889363a4c787bd66"),
            (
                PipelineSpec(
                    dimred=DimRedConfig(axis="hidden", n_components=16),
                    train=TrainConfig(max_epochs=7, learning_rate=0.01),
                    mlp_hidden=(32, 8),
                ),
                "2ab755a55f67a424",
            ),
        ],
    )
    def test_spec_hash_is_unchanged(self, spec, digest):
        # These hashes fill the config_hash column of results.csv.
        assert config_hash(asdict(spec)) == digest


class TestFallbackWarning:
    def test_one_warning_per_variant_with_counts(self, tiny_dataset, caplog):
        # The tiny prompts have fewer than 129 tokens, so 128 hidden-axis
        # components are out of range for every patient.
        specs = [
            PipelineSpec(
                provider=ProviderSpec(dim=128),
                dimred=DimRedConfig(axis="hidden", n_components=128),
                name=name,
            )
            for name in ("first", "second")
        ]
        with caplog.at_level(logging.WARNING, logger="trialmatch.harness"):
            feature_sets = _compute_features_multi(specs, tiny_dataset, "mixed")
        assert [f.fallbacks for f in feature_sets] == [2, 2]
        warnings = [r.getMessage() for r in caplog.records if "fell back" in r.getMessage()]
        assert len(warnings) == 2
        assert warnings[0].startswith(
            "variant first: compression fell back to mean pooling for 2 patients "
            "(ConfigError: 2); first: n_components=128 out of range"
        )
        assert warnings[1].startswith("variant second:")


TINY_CORPUS = {"n_trials": 2, "patients_per_trial": 20, "signal_strength": 0.5}


def tiny_task1(tmp_path, threads: int) -> ExperimentConfig:
    return ExperimentConfig.from_dict(
        {
            "task": "task1",
            "dataset": {"name": "tiny", "synthetic": TINY_CORPUS, "seed": 5},
            "variants": [{"train": {"max_epochs": 5}}],
            "output_dir": str(tmp_path / f"out-{threads}"),
            "threads": threads,
        }
    )


def run_and_write(config: ExperimentConfig, out) -> tuple[bytes, dict]:
    results, _ = run_task(config)
    manifest = write_outputs(results, out, config)
    return (out / "results.csv").read_bytes(), manifest


def feature_pass_dataset() -> Dataset:
    """The tiny corpus plus a patient with no notes, which an unstructured
    pass skips as ``no_chunks``, and one with a short prompt, which falls
    back from hidden-axis compression (a ``feature_dim_mismatch`` skip at
    64 components, a counted fallback at 128)."""
    synthetic = generate_synthetic(SyntheticConfig(**TINY_CORPUS), 5)
    no_notes = PatientRecord(
        "NO-NOTES",
        synthetic.trials[0].trial_id,
        (),
        tiny_patient("X").structured_rows,
        EligibilityLabel(0, None),
    )
    return Dataset(
        patients=[*synthetic.patients, no_notes, tiny_patient("SHORT", text="fever")],
        trials=[*synthetic.trials, tiny_trial()],
    )


def feature_set_digest(features: FeatureSet) -> str:
    h = hashlib.sha256(features.X.tobytes())
    h.update(features.y.tobytes())
    h.update(
        json.dumps(
            [
                features.ids,
                features.X.shape,
                features.X.dtype.str,
                features.skipped,
                features.fallbacks,
            ]
        ).encode()
    )
    return h.hexdigest()[:16]


class TestFeaturePass:
    # Recorded before the pass wrote its rows in place, under one BLAS
    # thread (the root conftest.py holds the session to one).
    DIGESTS = {
        "task1": ["3cc6025382e0b1a0", "4fa86f50cdcb7075"] * 4,
        "task3": [
            "4fa86f50cdcb7075",
            "c76aa8cb00fa94eb",
            "5c89cb72259d90f0",
            "3168b7f436981a95",
            "93f479f8027e848a",
            "e5d2fdf3c3876f07",
            "b1ff69c0456c8bbb",
        ],
    }

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("task", sorted(DIGESTS))
    def test_feature_sets_match_recorded_digests(self, task, threads):
        variants = {"task1": harness._task1_variants, "task3": harness._task3_variants}[task]
        feature_sets = _compute_features_multi(
            variants(PipelineSpec()), feature_pass_dataset(), "unstructured", threads
        )
        assert [feature_set_digest(f) for f in feature_sets] == self.DIGESTS[task]

    def test_skips_and_fallbacks_are_exercised(self):
        specs = harness._task3_variants(PipelineSpec())
        feature_sets = _compute_features_multi(specs, feature_pass_dataset(), "unstructured")
        by_name = {spec.name: f for spec, f in zip(specs, feature_sets)}
        assert by_name["hidden-64"].skipped == [
            ("NO-NOTES", "no_chunks"),
            ("SHORT", "feature_dim_mismatch"),
        ]
        assert by_name["hidden-128"].fallbacks == 1
        assert by_name["hidden-64"].X.shape == (40, 64)


class TestTask1Outputs:
    def test_results_csv_is_byte_identical_across_threads_and_reruns(self, tmp_path):
        serial = tiny_task1(tmp_path, threads=1)
        first, _ = run_and_write(serial, tmp_path / "a")
        rerun, _ = run_and_write(serial, tmp_path / "b")
        threaded, _ = run_and_write(tiny_task1(tmp_path, threads=2), tmp_path / "c")
        assert first == rerun == threaded
        assert len(first.decode().splitlines()) == 1 + 8

    def test_wall_seconds_include_the_shared_feature_pass(self, tmp_path):
        csv_bytes, manifest = run_and_write(tiny_task1(tmp_path, threads=1), tmp_path)
        runs = manifest["runs"]
        on_disk = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert on_disk["runs"] == runs
        # All eight variants share one feature pass and repeat its time.
        assert len({r["feature_seconds"] for r in runs}) == 1
        assert runs[0]["feature_seconds"] > 0.0
        assert all(r["wall_seconds"] > r["feature_seconds"] for r in runs)
        assert b"seconds" not in csv_bytes


class TestClassifierDtypes:
    TRAINERS = ("train_mlp", "train_with_adapter", "train_tree", "train_forest", "train_svm")

    @pytest.mark.parametrize(
        "task, expected",
        [
            (
                "task1",
                {
                    "train_mlp": {"float32"},
                    "train_tree": {"float64"},
                    "train_forest": {"float64"},
                    "train_svm": {"float64"},
                },
            ),
            ("task4", {"train_mlp": {"float32"}, "train_with_adapter": {"float32"}}),
        ],
    )
    def test_only_the_mlp_is_handed_float32(self, tmp_path, monkeypatch, task, expected):
        seen: dict[str, set[str]] = {}

        def recording(name, train):
            def wrapper(features, labels, *args, **kwargs):
                dtypes = seen.setdefault(name, set())
                dtypes.add(features.dtype.name)
                if kwargs.get("validation") is not None:
                    dtypes.add(kwargs["validation"][0].dtype.name)
                return train(features, labels, *args, **kwargs)

            return wrapper

        for name in self.TRAINERS:
            monkeypatch.setattr(harness, name, recording(name, getattr(harness, name)))
        run_task(ExperimentConfig.from_dict(tiny_config(task, tmp_path)))
        assert seen == expected


def write_tiny_datasets(tmp_path) -> list[dict]:
    sources = []
    for seed in (5, 6):
        patients, trials = tmp_path / f"p{seed}.jsonl", tmp_path / f"t{seed}.jsonl"
        write_dataset(generate_synthetic(SyntheticConfig(**TINY_CORPUS), seed), patients, trials)
        sources.append(
            {"name": f"tiny-{seed}", "patients_path": str(patients), "trials_path": str(trials)}
        )
    return sources


def tiny_config(task: str, tmp_path) -> dict:
    obj = {"task": task, "variants": [{"train": {"max_epochs": 5}}]}
    if task == "task5":
        obj["datasets"] = write_tiny_datasets(tmp_path)
    else:
        obj["dataset"] = {"name": "tiny", "synthetic": TINY_CORPUS, "seed": 5}
    return obj


def run_cli(obj: dict, out, capsys) -> tuple[int, bytes]:
    path = out.parent / f"{out.name}.json"
    path.write_text(json.dumps({**obj, "output_dir": str(out)}), encoding="utf-8")
    code = cli.main(["run", "--config", str(path)])
    capsys.readouterr()
    return code, (out / "results.csv").read_bytes()


class TestOtherTasks:
    """task2 (three default mock backbones), task4 (frozen and adapter MLPs,
    with and without compression) and task5 (two datasets, one variant)."""

    CELLS = {"task2": 3, "task4": 4, "task5": 2}

    @pytest.mark.parametrize("task", sorted(CELLS))
    def test_tiny_run(self, tmp_path, capsys, task):
        code, csv_bytes = run_cli(tiny_config(task, tmp_path), tmp_path / "out", capsys)
        assert code == cli.EXIT_OK
        rows = csv_bytes.decode().splitlines()
        header = rows[0].split(",")
        assert len(rows) == 1 + self.CELLS[task]
        aurocs = [float(row.split(",")[header.index("auroc")]) for row in rows[1:]]
        assert all(0.0 <= a <= 1.0 for a in aurocs)
        assert {row.split(",")[0] for row in rows[1:]} == {task}

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        for task in sorted(self.CELLS):
            obj = tiny_config(task, tmp_path)
            _, first = run_cli(obj, tmp_path / f"{task}-a", capsys)
            _, rerun = run_cli(obj, tmp_path / f"{task}-b", capsys)
            assert first == rerun
