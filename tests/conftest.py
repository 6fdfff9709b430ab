import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest

from trialmatch.corpus import (
    ClinicalNote,
    Criterion,
    Dataset,
    EligibilityLabel,
    PatientRecord,
    StructuredRow,
    Trial,
)


def tiny_trial(trial_id: str = "NCT001") -> Trial:
    return Trial(
        trial_id=trial_id,
        criteria=(
            Criterion(f"{trial_id}-I1", "inclusion", "history of fever or chills"),
            Criterion(f"{trial_id}-E1", "exclusion", "prior enrollment elsewhere"),
        ),
    )


def tiny_patient(
    patient_id: str,
    trial_id: str = "NCT001",
    text: str = "patient reports fever and chills overnight",
    label: int = 1,
) -> PatientRecord:
    return PatientRecord(
        patient_id=patient_id,
        trial_id=trial_id,
        notes=(ClinicalNote(f"{patient_id}-n0", text, "2023-04-01"),),
        structured_rows=(
            StructuredRow("demographic", "age", "61", None),
            StructuredRow("diagnosis", "condition", "fever disorder", "2023-03-30"),
        ),
        label=EligibilityLabel(label, "eligible" if label else "ineligible"),
    )


@pytest.fixture
def tiny_dataset() -> Dataset:
    return Dataset(
        patients=[
            tiny_patient("P1", label=1),
            tiny_patient("P2", text="routine visit no complaints noted today", label=0),
        ],
        trials=[tiny_trial()],
    )


@pytest.fixture
def dataset_files(tmp_path: Path, tiny_dataset: Dataset) -> tuple[Path, Path]:
    from trialmatch.corpus import write_dataset

    patients = tmp_path / "patients.jsonl"
    trials = tmp_path / "trials.jsonl"
    write_dataset(tiny_dataset, patients, trials)
    return patients, trials


def write_jsonl(path: Path, objects: list[dict]) -> Path:
    path.write_text(
        "".join(json.dumps(o, ensure_ascii=False) + "\n" for o in objects),
        encoding="utf-8",
    )
    return path


class _EmbedHandler(BaseHTTPRequestHandler):
    """A stand-in embedding service; its server's ``state`` picks the reply."""

    def log_message(self, *args):  # silence test output
        pass

    def do_POST(self):
        state = self.server.state
        state.calls["count"] += 1
        cfg = state.behavior
        if cfg["delay"]:
            time.sleep(cfg["delay"])
        if cfg["mode"] == "fail_then_ok" and state.calls["count"] <= cfg["fail_times"]:
            # Simulated transport failure: slam the connection shut.
            self.connection.close()
            return
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        texts = body["texts"]
        dim = cfg["dim"]
        if cfg["mode"] == "bad_status":
            self.send_response(500)
            self.end_headers()
            return
        if cfg["mode"] == "bad_json":
            payload = b"this is not json"
        else:
            rows = [[float(i + j) for j in range(dim)] for i in range(len(texts))]
            if cfg["mode"] == "short_vector":
                rows = [row[:-1] for row in rows]
            payload = json.dumps({"dim": dim, "embeddings": rows}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)


@pytest.fixture
def embed_server():
    """A local embedding service: ``url``, plus the ``behavior`` a test may
    change and the ``calls`` it has served."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _EmbedHandler)
    server.state = SimpleNamespace(
        url=f"http://127.0.0.1:{server.server_address[1]}",
        behavior={"mode": "ok", "dim": 4, "fail_times": 0, "delay": 0.0},
        calls={"count": 0},
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.state
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
