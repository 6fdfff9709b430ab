import logging

import pytest

from trialmatch.errors import ConfigError
from trialmatch.harness import (
    ExperimentConfig,
    PipelineSpec,
    ProviderSpec,
    _compute_features_multi,
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
        assert ExperimentConfig.from_dict(config.to_dict()) == config
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
