import json

import pytest

from trialmatch import cli


def run_cli(argv, capsys) -> tuple[int, str]:
    code = cli.main(argv)
    return code, capsys.readouterr().err


def write_config(tmp_path, obj) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


class TestExitCodes:
    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"variants": [{"train": {"max_epochs": 5}}]}, "missing required key 'task'"),
            (
                {"task": "task1", "variants": [{"train": {"max_epoch": 5}}]},
                "unknown key 'max_epoch' in train",
            ),
            (
                {"task": "task1", "variants": [{"clasifier": "svm"}]},
                "unknown key 'clasifier' in variant",
            ),
            ({"task": "task9"}, "unknown task 'task9'"),
        ],
    )
    def test_bad_config_exits_1(self, tmp_path, capsys, obj, message):
        code, err = run_cli(["run", "--config", write_config(tmp_path, obj)], capsys)
        assert code == cli.EXIT_USAGE
        assert err.startswith("error: ") and message in err

    def test_unreadable_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{not json", encoding="utf-8")
        code, err = run_cli(["run", "--config", str(path)], capsys)
        assert code == cli.EXIT_USAGE
        assert "invalid JSON" in err

    def test_unknown_flag_exits_1(self, capsys):
        code, _ = run_cli(["run", "--no-such-flag"], capsys)
        assert code == cli.EXIT_USAGE

    def test_data_error_exits_2(self, tmp_path, capsys, dataset_files):
        patients, trials = dataset_files
        obj = {
            "task": "task6",
            "dataset": {"patients_path": str(patients), "trials_path": str(trials)},
            "output_dir": str(tmp_path / "out"),
        }
        code, err = run_cli(["run", "--config", write_config(tmp_path, obj)], capsys)
        assert code == cli.EXIT_DATA
        assert err.startswith("data error: ") and "at least 2 trials" in err

    def test_eval_length_mismatch_exits_2(self, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        scores = tmp_path / "scores.txt"
        labels.write_text("1\n0\n1\n", encoding="utf-8")
        scores.write_text("0.9\n0.1\n", encoding="utf-8")
        code, err = run_cli(
            ["eval", "--labels", str(labels), "--scores", str(scores)], capsys
        )
        assert code == cli.EXIT_DATA
        assert "length mismatch" in err
