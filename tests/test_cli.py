import hashlib
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

    def test_zero_threads_exits_1(self, tmp_path, capsys):
        path = write_config(tmp_path, {"task": "task1"})
        code, err = run_cli(["run", "--config", path, "--threads", "0"], capsys)
        assert code == cli.EXIT_USAGE
        assert err == "error: threads must be at least 1\n"

    def test_retrieve_zero_k_exits_1(self, capsys, dataset_files):
        patients, trials = dataset_files
        argv = ["retrieve", "--patients", str(patients), "--trials", str(trials), "--k", "0"]
        code, err = run_cli(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert err == "error: k_retrieve must be at least 1\n"

    def test_provider_failure_exits_3(self, capsys, monkeypatch, dataset_files, embed_server):
        monkeypatch.delenv("TRIALMATCH_EMBED_ENDPOINT", raising=False)
        embed_server.behavior["mode"] = "bad_status"
        patients, trials = dataset_files
        argv = ["retrieve", "--patients", str(patients), "--trials", str(trials)]
        argv += ["--provider", "http", "--endpoint", embed_server.url, "--dim", "4"]
        code, err = run_cli(argv, capsys)
        assert code == cli.EXIT_RUNTIME
        assert err.startswith("provider error: ") and "status 500" in err

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


class TestRetrieve:
    def test_outputs_match_recorded_digests(self, tmp_path, capsys, dataset_files):
        patients, trials = dataset_files
        audit = tmp_path / "audit.csv"
        argv = ["retrieve", "--patients", str(patients), "--trials", str(trials)]
        argv += ["--chunk-size", "4", "--overlap", "1", "--k", "2"]
        assert cli.main(argv + ["--json", "--audit", str(audit)]) == cli.EXIT_OK
        stdout = capsys.readouterr().out
        payload = json.loads(stdout)
        assert [len(p["selected"]) for p in payload["patients"]] == [2, 2]
        assert payload["audit_rows"] == 24
        # Digests of a known-good run: chunking, scoring, selection and the
        # output format all feed them.
        assert hashlib.sha256(stdout.encode()).hexdigest() == (
            "b3486c657c7e782927f1924b70d4c2e9ba87a65e9a702ce125226de30047304b"
        )
        assert hashlib.sha256(audit.read_bytes()).hexdigest() == (
            "3b8671dc778978715785fd4b430c85ff931d9ce3ed8cdccc80955f8f87839e5d"
        )
