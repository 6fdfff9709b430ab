import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trialmatch
from conftest import NESTED_JSON
from trialmatch import cli, harness
from trialmatch.corpus import load_dataset


def run_cli(argv, capsys) -> tuple[int, str]:
    code = cli.main(argv)
    return code, capsys.readouterr().err


TINY_DATASET = {"synthetic": {"n_trials": 2, "patients_per_trial": 20}, "seed": 5}


def write_config(tmp_path, obj) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def feature_passes(monkeypatch) -> list:
    """The arguments of each feature pass that ``harness`` runs."""
    passes = []
    feature_pass = harness._feature_pass

    def counting(*args):
        passes.append(args)
        return feature_pass(*args)

    monkeypatch.setattr(harness, "_feature_pass", counting)
    return passes


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

    # The retrieve cases pass through the corpus reader's own read error.
    @pytest.mark.parametrize(
        "command, flag, exit_code",
        [
            ("run", "--config", cli.EXIT_USAGE),
            ("eval", "--labels", cli.EXIT_DATA),
            ("eval", "--scores", cli.EXIT_DATA),
            ("retrieve", "--patients", cli.EXIT_DATA),
            ("retrieve", "--trials", cli.EXIT_DATA),
        ],
    )
    def test_a_file_argument_that_is_a_directory_exits_with_one_line(
        self, tmp_path, capsys, dataset_files, command, flag, exit_code
    ):
        (tmp_path / "labels").write_text("1\n0\n", encoding="utf-8")
        (tmp_path / "scores").write_text("0.9\n0.1\n", encoding="utf-8")
        patients, trials = dataset_files
        files = {
            "run": {"--config": write_config(tmp_path, {"task": "task1"})},
            "eval": {"--labels": tmp_path / "labels", "--scores": tmp_path / "scores"},
            "retrieve": {"--patients": patients, "--trials": trials},
        }
        directory = tmp_path / "a directory"
        directory.mkdir()
        argv = [command]
        for name, path in files[command].items():
            argv += [name, str(directory if name == flag else path)]
        code, err = run_cli(argv, capsys)
        assert code == exit_code
        assert err.count("\n") == 1 and str(directory) in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "data, message",
        [
            (b'{"task": "task1\xff"}', "not valid UTF-8"),
            (b'{"task": "task1", "seed": %s}' % (b"7" * 5001), "Exceeds the limit (4300 digits)"),
        ],
        ids=["not-utf8", "5001-digit-integer"],
    )
    def test_config_that_cannot_be_read_exits_1(self, tmp_path, capsys, data, message):
        path = tmp_path / "config.json"
        path.write_bytes(data)
        code, err = run_cli(["run", "--config", str(path)], capsys)
        assert code == cli.EXIT_USAGE
        assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1

    def test_unknown_flag_exits_1(self, capsys):
        code, _ = run_cli(["run", "--no-such-flag"], capsys)
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("threads", ["0", "2"])
    def test_threads_other_than_1_exits_1(self, tmp_path, capsys, threads):
        path = write_config(tmp_path, {"task": "task1", "dataset": TINY_DATASET})
        code, err = run_cli(["run", "--config", path, "--threads", threads], capsys)
        assert code == cli.EXIT_USAGE
        assert err == "error: threads must be 1: feature construction runs on one thread\n"

    @pytest.mark.parametrize(
        "task, key, value",
        [
            ("task1", "mlp_hidden", []),
            ("task1", "mlp_hidden", [0]),
            ("task1", "mlp_hidden", [8, 0]),
            ("task4", "adapter_dim", 0),
            ("task4", "adapter_dim", -2),
            ("task4", "adapter_dim", 8),
            ("task1", "forest_trees", 0),
            ("task1", "tree_max_depth", 0),
            ("task1", "tree_min_leaf", 0),
            ("task1", "svm_epochs", 0),
            ("task1", "svm_lr", 0.0),
            ("task1", "svm_lambda", -0.5),
        ],
    )
    def test_bad_model_setting_exits_1_before_the_feature_pass(
        self, tmp_path, capsys, feature_passes, task, key, value
    ):
        obj = {
            "task": task,
            "dataset": TINY_DATASET,
            "variants": [{"train": {"max_epochs": 5}, key: value}],
            "output_dir": str(tmp_path / "out"),
        }
        code, err = run_cli(["run", "--config", write_config(tmp_path, obj)], capsys)
        assert code == cli.EXIT_USAGE
        assert err.startswith("error: ") and repr(key) in err
        assert feature_passes == []

    # The MLP's step settings are keyword defaults of train_mlp; the epoch
    # schedule is all that a config sets.
    @pytest.mark.parametrize(
        "key, value", [("learning_rate", 0.01), ("batch_size", 16), ("seed", 3)]
    )
    def test_removed_train_key_exits_1_before_the_feature_pass(
        self, tmp_path, capsys, feature_passes, key, value
    ):
        obj = {
            "task": "task4",
            "dataset": TINY_DATASET,
            "variants": [{"train": {"max_epochs": 5, key: value}}],
            "output_dir": str(tmp_path / "out"),
        }
        code, err = run_cli(["run", "--config", write_config(tmp_path, obj)], capsys)
        assert code == cli.EXIT_USAGE
        assert err.startswith(f"error: unknown key {key!r} in train; expected one of ")
        assert feature_passes == [] and not (tmp_path / "out").exists()

    def test_rejected_rerun_leaves_the_previous_log(self, tmp_path, capsys):
        obj = {
            "task": "task1",
            "dataset": {"synthetic": {"n_trials": 2, "patients_per_trial": 20}, "seed": 5},
            "variants": [{"train": {"max_epochs": 5}}],
            "output_dir": str(tmp_path / "out"),
        }
        code, _ = run_cli(["run", "--config", write_config(tmp_path, obj)], capsys)
        assert code == cli.EXIT_OK
        log = (tmp_path / "out" / "run.log").read_bytes()
        assert b"macro_f1=" in log
        obj["variants"][0]["adapter_dim"] = 8
        code, err = run_cli(["run", "--config", write_config(tmp_path, obj)], capsys)
        assert code == cli.EXIT_USAGE and "'adapter_dim'" in err
        assert (tmp_path / "out" / "run.log").read_bytes() == log

    def test_retrieve_zero_k_exits_1(self, capsys, dataset_files):
        patients, trials = dataset_files
        argv = ["retrieve", "--patients", str(patients), "--trials", str(trials), "--k", "0"]
        code, err = run_cli(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert err == "error: k_retrieve must be at least 1\n"

    def test_retrieve_one_dimensional_mock_exits_1(self, capsys, dataset_files):
        patients, trials = dataset_files
        argv = ["retrieve", "--patients", str(patients), "--trials", str(trials), "--dim", "1"]
        code, err = run_cli(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert err == "error: mock embedding dim must be at least 2\n"

    # Every malformed answer of the embedding service is a provider error,
    # vectors of the wrong length included.
    @pytest.mark.parametrize(
        "mode, dim, message",
        [
            ("bad_status", "4", "status 500"),
            ("bad_json", "4", "malformed JSON"),
            ("short_vector", "4", "embedding 0 has 3 entries, declared dim is 4"),
            ("string_row", "4", "embedding 0 is not a list of JSON numbers"),
            ("ok", "7", "service reports dim 4, provider declared 7"),
        ],
        ids=["bad_status", "bad_json", "short_vector", "string_row", "declared_dim_7"],
    )
    def test_provider_failure_exits_3(
        self, capsys, monkeypatch, dataset_files, embed_server, mode, dim, message
    ):
        monkeypatch.delenv("TRIALMATCH_EMBED_ENDPOINT", raising=False)
        embed_server.behavior["mode"] = mode
        patients, trials = dataset_files
        argv = ["retrieve", "--patients", str(patients), "--trials", str(trials)]
        argv += ["--provider", "http", "--endpoint", embed_server.url, "--dim", dim]
        code, err = run_cli(argv, capsys)
        assert code == cli.EXIT_RUNTIME
        assert err.startswith("provider error: ") and message in err

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

    def test_an_empty_split_exits_2_before_the_feature_pass(self, tmp_path, capsys, monkeypatch):
        # Excluding 1% of a 20-patient trial rounds to no test patient.
        passes = []
        monkeypatch.setattr(harness, "_feature_pass", lambda *args: passes.append(args))
        obj = {
            "task": "task6",
            "dataset": TINY_DATASET,
            "variants": [{"train": {"max_epochs": 5}}],
            "exclusions": [1.0, 0.01],
            "output_dir": str(tmp_path / "out"),
        }
        code, err = run_cli(["run", "--config", write_config(tmp_path, obj)], capsys)
        assert code == cli.EXIT_DATA
        assert err == "data error: split leaves an empty side (train=40, test=0)\n"
        assert passes == []

    @pytest.mark.parametrize("command", ["run", "synth", "retrieve"])
    def test_output_path_under_a_file_exits_2(self, tmp_path, capsys, dataset_files, command):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file\n", encoding="utf-8")
        target = blocker / "out"
        if command == "run":
            obj = {"task": "task1", "dataset": TINY_DATASET, "output_dir": str(target)}
            argv = ["run", "--config", write_config(tmp_path, obj)]
        elif command == "synth":
            argv = ["synth", "--out", str(target)]
        else:
            argv = [*retrieve_argv(*dataset_files), "--audit", str(target / "audit.csv")]
        code, err = run_cli(argv, capsys)
        assert code == cli.EXIT_DATA
        assert err.startswith(f"data error: cannot create output directory {target}: ")
        assert blocker.read_text(encoding="utf-8") == "a regular file\n"

    @pytest.mark.parametrize("command", ["run", "synth", "retrieve"])
    def test_output_file_that_is_a_directory_exits_2(
        self, tmp_path, capsys, dataset_files, command
    ):
        out = tmp_path / "out"
        if command == "run":
            target = out / "results.csv"
            obj = {"task": "task1", "dataset": TINY_DATASET, "output_dir": str(out)}
            obj["variants"] = [{"train": {"max_epochs": 2}}]
            argv = ["run", "--config", write_config(tmp_path, obj)]
        elif command == "synth":
            target = out / "patients.jsonl"
            argv = ["synth", "--out", str(out), "--trials", "2", "--patients", "10"]
        else:
            target = out
            argv = [*retrieve_argv(*dataset_files), "--audit", str(target)]
        target.mkdir(parents=True)
        code, err = run_cli(argv, capsys)
        assert code == cli.EXIT_DATA
        assert err.startswith(f"data error: cannot write {target}: ")
        assert list(target.iterdir()) == []

    # Scores are probabilities: outside [0, 1] every row lands on one side.
    @pytest.mark.parametrize("threshold", ["7", "-0.5"])
    def test_eval_threshold_outside_the_unit_interval_exits_1(self, tmp_path, capsys, threshold):
        (tmp_path / "labels").write_text("1\n0\n1\n", encoding="utf-8")
        (tmp_path / "scores").write_text("0.9\n0.2\n0.4\n", encoding="utf-8")
        argv = ["eval", "--labels", str(tmp_path / "labels")]
        argv += ["--scores", str(tmp_path / "scores"), f"--threshold={threshold}"]
        code, err = run_cli(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert err == "error: threshold must lie in [0, 1]\n"

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


def retrieve_argv(patients, trials) -> list[str]:
    return ["retrieve", "--patients", str(patients), "--trials", str(trials)]


def rewrite_first_record(path, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    obj = json.loads(lines[0])
    edit(obj)
    lines[0] = json.dumps(obj) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def write_first_record_value(path, where, key, value: str) -> None:
    """Set ``where(obj)[key]`` of the first record to the JSON text
    ``value``, written as given (``json.dumps`` would refuse a long number
    or a deep nesting)."""
    rewrite_first_record(path, lambda obj: where(obj).update({key: "@value@"}))
    text = path.read_text(encoding="utf-8").replace('"@value@"', value, 1)
    path.write_text(text, encoding="utf-8")


# An integer in a text field is read as written, as a float is.
@pytest.mark.parametrize("number", ["-0", "9" * 5001], ids=["minus-zero", "5001-digits"])
def test_an_integer_in_a_text_field_loads_as_written(dataset_files, number):
    patients, trials = dataset_files
    write_first_record_value(patients, lambda obj: obj["structured"][0], "value", number)
    assert load_dataset(patients, trials).patients[0].structured[0].value == number


def test_an_empty_output_dir_records_the_log_it_writes(tmp_path, capsys, monkeypatch):
    # An empty output_dir is the working directory, where run.log goes too.
    monkeypatch.chdir(tmp_path)
    obj = {
        "task": "task1",
        "dataset": TINY_DATASET,
        "variants": [{"train": {"max_epochs": 5}}],
        "output_dir": "",
    }
    code, _ = run_cli(["run", "--config", write_config(tmp_path, obj)], capsys)
    assert code == cli.EXIT_OK
    assert b"macro_f1=" in (tmp_path / "run.log").read_bytes()
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert {run["log_path"] for run in manifest["runs"]} == {"run.log"}


class TestMalformedInput:
    """Each malformed input ends in a data error naming the file (and, for
    JSONL, the line), never in a traceback or a silent coercion."""

    def test_jsonl_that_is_not_utf8_exits_2(self, capsys, dataset_files):
        patients, trials = dataset_files
        data = bytearray(patients.read_bytes())
        data[data.index(b"\n") + 10] = 0xFF  # inside line 2
        patients.write_bytes(bytes(data))
        code, err = run_cli(retrieve_argv(patients, trials), capsys)
        assert code == cli.EXIT_DATA
        assert err == f"data error: {patients}:2: not valid UTF-8\n"

    @pytest.mark.parametrize("which", ["labels", "scores"])
    def test_eval_file_that_is_not_utf8_exits_2(self, tmp_path, capsys, which):
        files = {"labels": b"1\n0\n", "scores": b"0.9\n0.1\n"}
        files[which] = files[which] + b"\xff\n"
        argv = ["eval"]
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
            argv += [f"--{name}", str(tmp_path / name)]
        code, err = run_cli(argv, capsys)
        assert code == cli.EXIT_DATA
        assert err == f"data error: {tmp_path / which}:3: not valid UTF-8\n"

    @pytest.mark.parametrize("value", ["yes", 1.7, 1.0, True, 2])
    def test_label_value_that_is_not_0_or_1_exits_2(self, capsys, dataset_files, value):
        patients, trials = dataset_files
        rewrite_first_record(patients, lambda obj: obj["label"].update(value=value))
        code, err = run_cli(retrieve_argv(patients, trials), capsys)
        assert code == cli.EXIT_DATA
        assert err == (
            f"data error: {patients}:1: label value must be the integer 0 or 1, "
            f"got {value!r}\n"
        )

    @pytest.mark.parametrize("label", [1, "value", [{"value": 1}]])
    def test_label_that_is_not_an_object_exits_2(self, capsys, dataset_files, label):
        patients, trials = dataset_files
        rewrite_first_record(patients, lambda obj: obj.update(label=label))
        code, err = run_cli(retrieve_argv(patients, trials), capsys)
        assert code == cli.EXIT_DATA
        assert err == f"data error: {patients}:1: 'label' must be a JSON object\n"

    @pytest.mark.parametrize("key", ["notes", "structured", "criteria"])
    @pytest.mark.parametrize("value", [[5], "fever", {"note_id": "n"}])
    def test_record_list_that_is_not_objects_exits_2(self, capsys, dataset_files, key, value):
        patients, trials = dataset_files
        path = trials if key == "criteria" else patients
        rewrite_first_record(path, lambda obj: obj.update({key: value}))
        code, err = run_cli(retrieve_argv(patients, trials), capsys)
        assert code == cli.EXIT_DATA
        assert err == f"data error: {path}:1: {key!r} must be a list of JSON objects\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda obj: obj.update(patient_id=None),
                "'patient_id' must be a string or a number, got null",
            ),
            (
                lambda obj: obj["notes"][0].update(text=None),
                "'text' must be a string or a number, got null",
            ),
            (
                lambda obj: obj["notes"][0].update(note_id=["x"], text={"a": 1}),
                "'note_id' must be a string or a number, got an array",
            ),
            (
                lambda obj: obj["notes"][0].update(text={"a": 1}),
                "'text' must be a string or a number, got an object",
            ),
            (
                lambda obj: obj["structured"][0].update(value=True),
                "'value' must be a string or a number, got a boolean",
            ),
            (
                lambda obj: obj["notes"][0].update(date=["2023"]),
                "'date' must be a string, a number or null, got an array",
            ),
            (
                lambda obj: obj["structured"][1].update(timestamp={}),
                "'timestamp' must be a string, a number or null, got an object",
            ),
            (
                lambda obj: obj["label"].update(raw_class=False),
                "'raw_class' must be a string, a number or null, got a boolean",
            ),
            (
                lambda obj: obj["notes"][0].pop("note_id"),
                "missing required field 'note_id'",
            ),
            (
                lambda obj: obj["notes"][0].update(note_id=""),
                "note_id must be non-empty",
            ),
            (
                lambda obj: obj.update(notes=[], structured=[]),
                "patient 'P1' has neither notes nor structured rows",
            ),
        ],
        ids=[
            "null-id",
            "null-text",
            "array-id",
            "object-text",
            "boolean-value",
            "array-date",
            "object-timestamp",
            "boolean-raw-class",
            "missing-note-id",
            "empty-note-id",
            "no-notes-or-rows",
        ],
    )
    def test_patient_that_breaks_its_record_exits_2(self, capsys, dataset_files, edit, message):
        patients, trials = dataset_files
        rewrite_first_record(patients, edit)
        code, err = run_cli(retrieve_argv(patients, trials), capsys)
        assert code == cli.EXIT_DATA
        assert err == f"data error: {patients}:1: {message}\n"

    def test_criterion_of_unknown_kind_exits_2(self, capsys, dataset_files):
        patients, trials = dataset_files
        rewrite_first_record(trials, lambda obj: obj["criteria"][1].update(kind="maybe"))
        code, err = run_cli(retrieve_argv(patients, trials), capsys)
        assert code == cli.EXIT_DATA
        assert err == (
            f"data error: {trials}:1: criterion kind must be inclusion/exclusion, got 'maybe'\n"
        )

    def test_criterion_of_whitespace_text_exits_2(self, capsys, dataset_files):
        patients, trials = dataset_files
        rewrite_first_record(trials, lambda obj: obj["criteria"][1].update(text=" \t "))
        code, err = run_cli(retrieve_argv(patients, trials), capsys)
        assert code == cli.EXIT_DATA
        assert err == f"data error: {trials}:1: criterion 'NCT001-E1' has empty text\n"

    def test_criterion_of_empty_id_exits_2(self, capsys, dataset_files):
        patients, trials = dataset_files
        rewrite_first_record(trials, lambda obj: obj["criteria"][1].update(criterion_id=""))
        code, err = run_cli(retrieve_argv(patients, trials), capsys)
        assert code == cli.EXIT_DATA
        assert err == f"data error: {trials}:1: criterion_id must be non-empty\n"

    def test_criterion_of_repeated_id_exits_2(self, capsys, dataset_files):
        # A repeated id would repeat the (patient, chunk, criterion) keys of
        # an audit.
        patients, trials = dataset_files
        rewrite_first_record(trials, lambda obj: obj["criteria"][1].update(criterion_id="NCT001-I1"))
        code, err = run_cli(retrieve_argv(patients, trials), capsys)
        assert code == cli.EXIT_DATA
        assert err == (
            f"data error: {trials}:1: trial 'NCT001' has duplicate criterion_id 'NCT001-I1'\n"
        )

    def test_trial_of_empty_id_exits_2(self, capsys, dataset_files):
        # No patient names the second trial, so only its id is wrong.
        patients, trials = dataset_files
        first = json.loads(trials.read_text(encoding="utf-8").splitlines()[0])
        with trials.open("a", encoding="utf-8") as f:
            f.write(json.dumps({**first, "trial_id": ""}) + "\n")
        code, err = run_cli(retrieve_argv(patients, trials), capsys)
        assert code == cli.EXIT_DATA
        assert err == f"data error: {trials}:2: trial_id must be non-empty\n"

    def test_label_past_the_digit_limit_exits_2(self, capsys, dataset_files):
        patients, trials = dataset_files
        write_first_record_value(patients, lambda obj: obj["label"], "value", "1" * 5001)
        code, err = run_cli(retrieve_argv(patients, trials), capsys)
        assert code == cli.EXIT_DATA
        assert err == (
            f"data error: {patients}:1: label value must be the integer 0 or 1, got inf\n"
        )

    def test_eval_non_finite_score_exits_2(self, tmp_path, capsys):
        (tmp_path / "labels").write_text("1\n0\n1\n", encoding="utf-8")
        (tmp_path / "scores").write_text("0.9\nnan\n0.4\n", encoding="utf-8")
        argv = ["eval", "--labels", str(tmp_path / "labels")]
        code, err = run_cli(argv + ["--scores", str(tmp_path / "scores")], capsys)
        assert code == cli.EXIT_DATA
        assert err == "data error: scores must be finite\n"


class TestOverNestedJson:
    """JSON nested past the recursion limit is malformed input at each of
    the three readers: one error line with the reader's exit code."""

    def test_a_corpus_line_exits_2_naming_its_line(self, capsys, dataset_files):
        patients, trials = dataset_files
        write_first_record_value(patients, lambda obj: obj, "patient_id", NESTED_JSON)
        code, err = run_cli(retrieve_argv(patients, trials), capsys)
        assert code == cli.EXIT_DATA
        assert err == f"data error: {patients}:1: invalid JSON: nested too deeply\n"

    def test_a_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"task": %s}' % NESTED_JSON, encoding="utf-8")
        code, err = run_cli(["run", "--config", str(path)], capsys)
        assert code == cli.EXIT_USAGE
        assert err == f"error: {path}: invalid JSON: nested too deeply\n"

    def test_an_embedding_service_answer_exits_3(
        self, capsys, monkeypatch, dataset_files, embed_server
    ):
        monkeypatch.delenv("TRIALMATCH_EMBED_ENDPOINT", raising=False)
        embed_server.behavior["mode"] = "nested_json"
        argv = retrieve_argv(*dataset_files)
        argv += ["--provider", "http", "--endpoint", embed_server.url, "--dim", "4"]
        code, err = run_cli(argv, capsys)
        assert code == cli.EXIT_RUNTIME
        assert err == (
            f"provider error: malformed JSON from {embed_server.url}/embed: nested too deeply\n"
        )


class TestRunStdout:
    """``trialmatch run`` reports what it wrote: the ``--json`` payload, or
    one human line per ``results.csv`` row."""

    def run(self, tmp_path, capsys, name: str, flags: list[str]):
        out = tmp_path / name
        obj = {
            "task": "task1",
            "dataset": TINY_DATASET,
            "variants": [{"train": {"max_epochs": 5}}],
            "output_dir": str(out),
        }
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert cli.main(["run", "--config", str(path), *flags]) == cli.EXIT_OK
        with (out / "results.csv").open(encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        return capsys.readouterr().out, rows, manifest

    def test_json_payload_matches_the_written_files(self, tmp_path, capsys):
        stdout, rows, manifest = self.run(tmp_path, capsys, "json", ["--json"])
        payload = json.loads(stdout)
        assert payload["runs"] == len(rows) == 8
        assert payload["config_hash"] == manifest["config_hash"]
        for entry, row in zip(payload["table"], rows, strict=True):
            assert entry["variant"] == row["variant"]
            assert entry["macro_f1"] == float(row["macro_f1"])
            assert entry["auroc"] == float(row["auroc"])

    def test_human_lines_match_the_written_files(self, tmp_path, capsys):
        stdout, rows, manifest = self.run(tmp_path, capsys, "human", [])
        head, wrote, *lines = stdout.splitlines()
        assert head.endswith(f" config_hash={manifest['config_hash']}")
        assert wrote == f"wrote {len(rows)} runs to {tmp_path / 'human'}"
        assert lines == [
            f"  {row['variant']}: macro_f1={float(row['macro_f1']):.4f} "
            f"auroc={float(row['auroc']):.4f}"
            for row in rows
        ]


class TestRemovedCommands:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["embed-cache", "inspect", "--cache", "c.bin"], "invalid choice: 'embed-cache'"),
            (["run", "--config", "c.json", "--plots"], "unrecognized arguments: --plots"),
        ],
    )
    def test_usage_error(self, capsys, argv, message):
        code, err = run_cli(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert message in err


class TestSynth:
    def test_json_output_loads_back_and_reruns_byte_identical(self, tmp_path, capsys):
        argv = ["synth", "--trials", "3", "--patients", "10", "--positive-frac", "0.25"]
        argv += ["--seed", "4", "--json"]
        assert cli.main(argv + ["--out", str(tmp_path / "a")]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        dataset = load_dataset(tmp_path / "a" / "patients.jsonl", tmp_path / "a" / "trials.jsonl")
        # round(0.25 * 10) positives per trial, rounding half up.
        positives = sum(p.label.value for p in dataset.patients)
        assert (len(dataset.trials), len(dataset.patients), positives) == (3, 30, 9)
        assert payload == {
            "seed": 4,
            "config_hash": payload["config_hash"],
            "trials": 3,
            "patients": 30,
            "positives": 9,
            "out": str(tmp_path / "a"),
        }
        assert cli.main(argv + ["--out", str(tmp_path / "b")]) == cli.EXIT_OK
        rerun = json.loads(capsys.readouterr().out)
        assert rerun == dict(payload, out=str(tmp_path / "b"))
        for name in ("patients.jsonl", "trials.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("fraction, positives", [("0.1", 0), ("0.9", 3)])
    def test_one_class_trial_is_a_usage_error(self, tmp_path, capsys, fraction, positives):
        argv = ["synth", "--trials", "1", "--patients", "3", "--positive-frac", fraction]
        code, err = run_cli(argv + ["--out", str(tmp_path / "out")], capsys)
        assert code == cli.EXIT_USAGE
        assert f"rounds to {positives} positives" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("vocab", ["0"])
    def test_one_word_vocabulary_is_a_usage_error(self, tmp_path, capsys, vocab):
        argv = ["synth", "--vocab", vocab, "--out", str(tmp_path / "out")]
        code, err = run_cli(argv, capsys)
        assert (code, err) == (cli.EXIT_USAGE, "error: vocabulary_size must be positive\n")
        assert not (tmp_path / "out").exists()

    def test_a_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        argv = ["synth", "--seed", "-1", "--out", str(tmp_path / "out")]
        code, err = run_cli(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert err == "error: dataset seed must be non-negative, got -1\n"
        assert not (tmp_path / "out").exists()


class TestEval:
    def test_json_report_matches_hand_computed_metrics(self, tmp_path, capsys):
        # Predicted positive at >= 0.5: 0.9, 0.7, 0.6, so tp 2, fp 1, tn 1, fn 0.
        # F1: positive 2 (2/3)(1) / (5/3) = 4/5, negative 2 (1)(1/2) / (3/2) = 2/3.
        # AUROC: 3 of the 4 (positive, negative) pairs are ordered right.
        # AUPRC: precision 1/1 and 2/3 at the two positives' ranks.
        (tmp_path / "labels").write_text("1\n0\n1\n0\n", encoding="utf-8")
        (tmp_path / "scores").write_text("0.9\n0.7\n0.6\n0.2\n", encoding="utf-8")
        argv = ["eval", "--labels", str(tmp_path / "labels")]
        argv += ["--scores", str(tmp_path / "scores"), "--json"]
        assert cli.main(argv) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)["report"]
        assert (report["n"], report["n_pos"], report["threshold"]) == (4, 2, 0.5)
        assert report["f1_pos"] == pytest.approx(4 / 5, rel=1e-12)
        assert report["f1_neg"] == pytest.approx(2 / 3, rel=1e-12)
        assert report["macro_f1"] == pytest.approx(11 / 15, rel=1e-12)
        assert report["auroc"] == 0.75
        assert report["auprc"] == pytest.approx(5 / 6, rel=1e-12)

    @pytest.mark.parametrize("label", ["0", "1"])
    def test_single_class_labels_report_undefined_metrics_as_null(
        self, tmp_path, capsys, label
    ):
        (tmp_path / "labels").write_text(f"{label}\n{label}\n{label}\n", encoding="utf-8")
        (tmp_path / "scores").write_text("0.9\n0.2\n0.4\n", encoding="utf-8")
        argv = ["eval", "--labels", str(tmp_path / "labels")]
        assert cli.main(argv + ["--scores", str(tmp_path / "scores"), "--json"]) == cli.EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: some metrics are undefined for single-class input and "
            "reported as absent\n"
        )
        report = json.loads(captured.out)["report"]
        assert report["auroc"] is None
        # Average precision needs a positive only.
        assert (report["auprc"] is None) == (label == "0")

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_is_a_usage_error(self, tmp_path, capsys, threshold):
        (tmp_path / "labels").write_text("1\n0\n1\n", encoding="utf-8")
        (tmp_path / "scores").write_text("0.9\n0.2\n0.4\n", encoding="utf-8")
        argv = ["eval", "--labels", str(tmp_path / "labels")]
        # The "=" form keeps argparse from reading "-inf" as an option.
        argv += ["--scores", str(tmp_path / "scores"), f"--threshold={threshold}"]
        code, err = run_cli(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert err == "error: threshold must be finite\n"


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
            "22462902a976801928cef84c2cf9d9f58180fedf55480154fdaebb52a828590a"
        )
        assert hashlib.sha256(audit.read_bytes()).hexdigest() == (
            "f9e3421386e43adb8fbf84021f69aa64ba73221024c1c52250fb2c83c44e527a"
        )

    def test_http_outputs_match_recorded_digest(
        self, capsys, monkeypatch, dataset_files, embed_server
    ):
        monkeypatch.delenv("TRIALMATCH_EMBED_ENDPOINT", raising=False)
        patients, trials = dataset_files
        argv = ["retrieve", "--patients", str(patients), "--trials", str(trials)]
        argv += ["--provider", "http", "--endpoint", embed_server.url, "--dim", "4"]
        argv += ["--chunk-size", "4", "--overlap", "1", "--k", "2"]
        assert cli.main(argv + ["--json"]) == cli.EXIT_OK
        stdout = capsys.readouterr().out
        payload = json.loads(stdout)
        assert payload["provider"] == "default"
        # The provider name and dim feed the config hash; the service's
        # vectors feed the scores and the selection.
        assert hashlib.sha256(stdout.encode()).hexdigest() == (
            "a20f3cb6e414d857bf3e7e2c9a24516beb927a654ca6dedcf617557a0fee58c3"
        )
        assert cli.main(argv) == cli.EXIT_OK
        header = capsys.readouterr().out.splitlines()[0]
        assert header == f"k=2 provider=default dim=4 seed=0 config_hash={payload['config_hash']}"


class TestRetrieveFlags:
    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--endpoint", "http://localhost:1"], "--endpoint"),
            (["--model", "foo"], "--model"),
            (["--provider", "http", "--model", "foo", "--seed", "0"], "--seed"),
        ],
    )
    def test_a_flag_the_provider_does_not_read_exits_1(self, capsys, dataset_files, flags, named):
        patients, trials = dataset_files
        argv = ["retrieve", "--patients", str(patients), "--trials", str(trials)]
        code, err = run_cli(argv + flags, capsys)
        assert code == cli.EXIT_USAGE
        assert f"{named} is read by no" in err

    def test_mock_seed_feeds_the_header(self, capsys, dataset_files):
        patients, trials = dataset_files
        argv = ["retrieve", "--patients", str(patients), "--trials", str(trials)]
        headers = []
        for seed in ([], ["--seed", "0"], ["--seed", "3"]):
            assert cli.main(argv + seed) == cli.EXIT_OK
            headers.append(capsys.readouterr().out.splitlines()[0])
        assert headers[0] == headers[1] != headers[2]
        assert "seed=3 " in headers[2]


class _GoneReader:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd=None):
        if fd is not None:
            self.fileno = lambda: fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


class TestClosedStdout:
    @pytest.mark.parametrize("with_descriptor", [True, False])
    def test_exits_2_with_one_line(
        self, tmp_path, capsys, monkeypatch, dataset_files, with_descriptor
    ):
        patients, trials = dataset_files
        sink = tmp_path / "stdout"
        fd = os.open(sink, os.O_WRONLY | os.O_CREAT)
        monkeypatch.setattr(sys, "stdout", _GoneReader(fd if with_descriptor else None))
        try:
            code = cli.main(["retrieve", "--patients", str(patients), "--trials", str(trials)])
            # Output written after the failure is discarded.
            print("more output")
            if with_descriptor:
                os.write(fd, b"more output")
        finally:
            sys.stdout.close()
            os.close(fd)
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            "error: stdout was closed before the output was written\n"
        )
        assert sink.read_bytes() == b""

    def test_a_closed_pipe_exits_2_without_traceback(self, tmp_path):
        read_end, write_end = os.pipe()
        os.close(read_end)
        with os.fdopen(write_end, "wb") as stdout:
            done = subprocess.run(
                [sys.executable, "-m", "trialmatch.cli", "synth", "--out", str(tmp_path / "d")],
                stdout=stdout,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": str(Path(trialmatch.__file__).parents[1])},
            )
        assert done.returncode == cli.EXIT_DATA
        assert done.stderr == "error: stdout was closed before the output was written\n"


def test_the_docstring_lists_the_parser_commands():
    block = cli.__doc__.split("Subcommands:\n\n", 1)[1].split("\n\n", 1)[0]
    (commands,) = [
        action.choices
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert [line.split()[0] for line in block.splitlines()] == list(commands)


class TestImportFootprint:
    """A mock run never loads the HTTP client; the HTTP provider loads it on
    first use (its tests run against a local server)."""

    SCRIPT = """
import json, sys
import trialmatch.cli
http = ("urllib.request", "http.client")
on_import = [m for m in http if m in sys.modules]
code = trialmatch.cli.main(["run", "--config", sys.argv[1]])
print(json.dumps([code, on_import, [m for m in http if m in sys.modules]]))
"""

    def test_mock_run_never_imports_the_http_client(self, tmp_path):
        config = {
            "task": "task1",
            "dataset": {
                "name": "tiny",
                "synthetic": {"n_trials": 2, "patients_per_trial": 20},
                "seed": 5,
            },
            "variants": [{"train": {"max_epochs": 2}}],
            "output_dir": str(tmp_path / "out"),
        }
        src = str(Path(trialmatch.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, write_config(tmp_path, config)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, on_import, after_run = json.loads(proc.stdout.splitlines()[-1])
        assert (code, on_import, after_run) == (cli.EXIT_OK, [], [])
