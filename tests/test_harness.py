import json
import logging
from dataclasses import asdict

import pytest

from trialmatch.classifiers import TrainConfig
from trialmatch.errors import ConfigError
from trialmatch.harness import (
    ExperimentConfig,
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


def tiny_task1(tmp_path, threads: int) -> ExperimentConfig:
    return ExperimentConfig.from_dict(
        {
            "task": "task1",
            "dataset": {
                "name": "tiny",
                "synthetic": {"n_trials": 2, "patients_per_trial": 20, "signal_strength": 0.5},
                "seed": 5,
            },
            "variants": [{"train": {"max_epochs": 5}}],
            "output_dir": str(tmp_path / f"out-{threads}"),
            "threads": threads,
        }
    )


def run_and_write(config: ExperimentConfig, out) -> tuple[bytes, dict]:
    results, _ = run_task(config)
    manifest = write_outputs(results, out, config)
    return (out / "results.csv").read_bytes(), manifest


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
