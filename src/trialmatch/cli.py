"""Command-line interface.

Subcommands:

  synth     write a synthetic dataset as patients.jsonl and trials.jsonl
  retrieve  chunk, embed, score and select the top k chunks per patient
  run       run an experiment task from a JSON config
  eval      compute metrics from a label file and a score file

Exit codes: 0 success, 1 usage/config error, 2 data error (an output path
that cannot be written, or a stdout closed by its reader, among them), 3
runtime/provider error. An input file that cannot be read or parsed, JSON
nested past Python's recursion limit included, is a config error (1) if it
is the config and a data error (2) if it holds data. A config error comes
from building the config, so ``run`` rejects a bad config before it creates
the output directory or reads a dataset; ``run_task`` raises only data
errors and the few config errors that need the data (see ``harness``). A
flag that ``retrieve``'s provider does not read is a config error too. A
malformed answer from an embedding service (a bad status, bad or
over-nested JSON, or vectors of the wrong length) is a provider error.

Every subcommand prints its config hash, and the seeded ones their resolved
seed, so runs can be replayed byte-for-byte; pass --json for machine-readable
stdout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .corpus import (
    DEFAULT_CHUNK_OVERLAP,
    DEFAULT_CHUNK_SIZE,
    MODALITIES,
    SyntheticConfig,
    generate_synthetic,
    load_dataset,
    write_dataset,
    write_file,
)
from .embedding import DEFAULT_MOCK_DIM, ENDPOINT_ENV_VAR
from .errors import ConfigError, DataError, ProviderError, TrialMatchError
from .harness import (
    ExperimentConfig,
    PatientEncoder,
    PipelineSpec,
    ProviderSpec,
    config_hash,
    make_output_dir,
    run_task,
    write_outputs,
)
from .metrics import compute_report
from .retrieval import DEFAULT_K_RETRIEVE, select_top_k

logger = logging.getLogger("trialmatch.cli")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    """Argparse reports usage problems with exit code 1, not its default 2."""

    def error(self, message: str):  # noqa: D401 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_json_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON on stdout"
    )


def _emit(args, human_lines: list[str], payload: dict) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        for line in human_lines:
            print(line)


def _provider_from_args(args) -> ProviderSpec:
    """The provider that ``retrieve`` names; a flag that it does not read is
    a ConfigError naming the flag."""
    unread = ("endpoint", "model") if args.provider == "mock" else ("seed",)
    for flag in unread:
        if getattr(args, flag) is not None:
            raise ConfigError(f"--{flag} is read by no {args.provider} provider")
    if args.provider == "mock":
        return ProviderSpec(kind="mock", dim=args.dim, seed=0 if args.seed is None else args.seed)
    return ProviderSpec(
        kind="http",
        dim=args.dim,
        endpoint=args.endpoint,
        model=args.model or "default",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="trialmatch",
        description="Retrieval-augmented patient-trial matching toolkit",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"trialmatch {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help: str) -> argparse.ArgumentParser:
        """The subcommand ``name``, which ``main`` runs as ``handler(args)``."""
        p = sub.add_parser(name, help=help, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(handler=handler)
        return p

    p_synth = command("synth", _cmd_synth, "generate a synthetic dataset")
    synthetic = SyntheticConfig()
    p_synth.add_argument("--out", required=True, help="output directory for the JSONL files")
    p_synth.add_argument("--trials", type=int, default=synthetic.n_trials, help="number of trials")
    p_synth.add_argument("--patients", type=int, default=synthetic.patients_per_trial, help="patients per trial")
    p_synth.add_argument("--positive-frac", type=float, default=synthetic.positive_fraction, help="positive label fraction")
    p_synth.add_argument("--signal", type=float, default=synthetic.signal_strength, help="signal strength in [0, 1]")
    p_synth.add_argument("--trial-shift", type=float, default=synthetic.trial_shift, help="trial vocabulary shift in [0, 1]")
    p_synth.add_argument("--vocab", type=int, default=synthetic.vocabulary_size, help="shared vocabulary size, positive")
    p_synth.add_argument("--seed", type=int, default=0, help="generation seed")
    _add_json_flag(p_synth)

    p_retr = command(
        "retrieve", _cmd_retrieve, "run chunking, embedding, scoring, and top-k selection only"
    )
    p_retr.add_argument("--patients", required=True, help="patients.jsonl path")
    p_retr.add_argument("--trials", required=True, help="trials.jsonl path")
    p_retr.add_argument("--provider", choices=("mock", "http"), default="mock", help="embedding provider")
    p_retr.add_argument("--dim", type=int, default=DEFAULT_MOCK_DIM, help="embedding dimension")
    p_retr.add_argument("--seed", type=int, default=None, help="mock provider seed; 0 if not given")
    p_retr.add_argument("--endpoint", default=None, help=f"http endpoint (or {ENDPOINT_ENV_VAR})")
    p_retr.add_argument("--model", default=None, help="model name for the http provider")
    p_retr.add_argument("--k", type=int, default=DEFAULT_K_RETRIEVE, help="chunks to select per patient")
    p_retr.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE, help="chunk size in tokens")
    p_retr.add_argument("--overlap", type=int, default=DEFAULT_CHUNK_OVERLAP, help="chunk overlap in tokens")
    p_retr.add_argument("--modality", choices=MODALITIES, default="mixed", help="which record parts to chunk")
    p_retr.add_argument("--audit", default=None, metavar="FILE", help="write the per-(chunk, criterion) audit CSV here")
    _add_json_flag(p_retr)

    p_run = command("run", _cmd_run, "run an experiment task from a JSON config")
    p_run.add_argument("--config", required=True, help="experiment config JSON file")
    p_run.add_argument("--out", default=None, help="output directory (overrides config)")
    p_run.add_argument("--threads", type=int, default=None, help="feature-construction threads; only 1 is accepted")
    _add_json_flag(p_run)

    p_eval = command(
        "eval", _cmd_eval, "compute metrics from label and score files (one value per line)"
    )
    p_eval.add_argument("--labels", required=True, help="file with one 0/1 label per line")
    p_eval.add_argument("--scores", required=True, help="file with one probability per line")
    p_eval.add_argument(
        "--threshold", type=float, default=0.5, help="decision threshold in [0, 1] (inclusive)"
    )
    _add_json_flag(p_eval)

    return parser


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    config = SyntheticConfig(
        n_trials=args.trials,
        patients_per_trial=args.patients,
        positive_fraction=args.positive_frac,
        signal_strength=args.signal,
        trial_shift=args.trial_shift,
        vocabulary_size=args.vocab,
    )
    dataset = generate_synthetic(config, args.seed)
    out = make_output_dir(args.out)
    write_dataset(dataset, out / "patients.jsonl", out / "trials.jsonl")
    resolved = {"synthetic": dict(config.__dict__), "seed": args.seed}
    digest = config_hash(resolved)
    n_pos = sum(p.label.value for p in dataset.patients)
    payload = {
        "seed": args.seed,
        "config_hash": digest,
        "trials": len(dataset.trials),
        "patients": len(dataset.patients),
        "positives": n_pos,
        "out": str(out),
    }
    _emit(
        args,
        [
            f"seed={args.seed} config_hash={digest}",
            f"wrote {len(dataset.patients)} patients ({n_pos} positive) across "
            f"{len(dataset.trials)} trials to {out}",
        ],
        payload,
    )
    return EXIT_OK


def _cmd_retrieve(args) -> int:
    provider = _provider_from_args(args)
    # Built only for its checks, so a bad k or chunking fails before any read.
    PipelineSpec(
        provider=provider,
        k_retrieve=args.k,
        chunk_size=args.chunk_size,
        chunk_overlap=args.overlap,
    )
    encoder = PatientEncoder(provider, load_dataset(args.patients, args.trials), args.modality)

    resolved = {
        "provider": provider.resolved_name,
        "dim": provider.dim,
        "k": args.k,
        "chunk_size": args.chunk_size,
        "overlap": args.overlap,
        "modality": args.modality,
        "seed": provider.seed,
    }
    digest = config_hash(resolved)

    audit: list[list[str]] = []
    patients_payload: list[dict] = []
    lines = [
        f"k={args.k} provider={provider.resolved_name} dim={provider.dim} "
        f"seed={provider.seed} config_hash={digest}"
    ]

    for patient in encoder.dataset.patients:
        found = encoder.retrieve(patient, args.chunk_size, args.overlap)
        if found is None:
            lines.append(f"{patient.patient_id}: no retrievable text, skipped")
            patients_payload.append(
                {"patient_id": patient.patient_id, "selected": [], "skipped": True}
            )
            continue
        chunks, scores = found.chunks, found.cosines.sum(axis=1).tolist()
        ranked = select_top_k(found.cosines, args.k)
        if args.audit:
            selected = set(ranked.tolist())
            for i, row in enumerate(found.cosines.tolist()):
                flag = "true" if i in selected else "false"
                for criterion, cosine in zip(found.criteria, row):
                    audit.append(
                        [
                            patient.patient_id,
                            chunks[i].chunk_id,
                            criterion.criterion_id,
                            repr(cosine),
                            repr(scores[i]),
                            flag,
                        ]
                    )
        listing = [
            {"chunk_id": chunks[i].chunk_id, "ordinal": int(i), "score": scores[i]}
            for i in ranked
        ]
        patients_payload.append(
            {"patient_id": patient.patient_id, "selected": listing, "skipped": False}
        )
        shown = ", ".join(f"{s['chunk_id']}({s['score']:.4f})" for s in listing)
        lines.append(f"{patient.patient_id}: {shown}")

    if args.audit:
        audit_path = Path(args.audit)
        make_output_dir(audit_path.parent)
        table = io.StringIO()
        writer = csv.writer(table, lineterminator="\n")
        writer.writerow(
            ["patient_id", "chunk_id", "criterion_id", "cosine", "aggregate", "selected"]
        )
        writer.writerows(audit)
        write_file(audit_path, table.getvalue())
        lines.append(f"audit written to {audit_path} ({len(audit)} rows)")

    payload = {
        "seed": provider.seed,
        "config_hash": digest,
        "k": args.k,
        "provider": provider.resolved_name,
        "patients": patients_payload,
        "audit_rows": len(audit) if args.audit else None,
    }
    _emit(args, lines, payload)
    return EXIT_OK


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_json_file(args.config)
    if args.out is not None:
        config = replace(config, output_dir=args.out)
    if args.threads is not None:
        config = replace(config, threads=args.threads)

    out_dir = make_output_dir(config.output_dir)
    # Opened at the first record: a run rejected before it logs anything
    # leaves the previous run's log as it was.
    handler = logging.FileHandler(out_dir / "run.log", mode="w", encoding="utf-8", delay=True)
    handler.setFormatter(
        logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s")
    )
    root = logging.getLogger("trialmatch")
    previous_level = root.level
    root.addHandler(handler)
    root.setLevel(logging.INFO)
    try:
        results = run_task(config)
        manifest = write_outputs(results, config.output_dir, config)
    finally:
        root.removeHandler(handler)
        root.setLevel(previous_level)
        handler.close()

    digest = manifest["config_hash"]
    seeds = sorted({r.seed for r in results})
    lines = [f"seed={seeds} config_hash={digest}", f"wrote {len(results)} runs to {config.output_dir}"]
    for r in results:
        auroc = "absent" if r.report.auroc is None else f"{r.report.auroc:.4f}"
        tag = r.variant
        if r.trial:
            tag += f" trial={r.trial} excl={r.exclusion:g}"
        if r.dataset and r.dataset != "dataset":
            tag += f" dataset={r.dataset}"
        lines.append(f"  {tag}: macro_f1={r.report.macro_f1:.4f} auroc={auroc}")
    payload = {
        "seed": seeds,
        "config_hash": digest,
        "output_dir": str(config.output_dir),
        "runs": len(results),
        "table": [
            {
                "task": r.task,
                "variant": r.variant,
                "dataset": r.dataset,
                "trial": r.trial,
                "exclusion": r.exclusion,
                "macro_f1": r.report.macro_f1,
                "auroc": r.report.auroc,
                "auprc": r.report.auprc,
                "n": r.report.n,
            }
            for r in results
        ],
    }
    _emit(args, lines, payload)
    return EXIT_OK


def _read_column(path: str, what: str) -> list[float]:
    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {what} file {p}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{p}:{lineno}: not valid UTF-8") from None
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError as exc:
            raise DataError(f"{p}:{lineno}: not a number: {line!r}") from exc
    if not values:
        raise DataError(f"{p}: no values")
    return values


def _cmd_eval(args) -> int:
    if not math.isfinite(args.threshold):
        raise ConfigError("threshold must be finite")
    if not 0.0 <= args.threshold <= 1.0:
        raise ConfigError("threshold must lie in [0, 1]")
    labels = _read_column(args.labels, "labels")
    scores = _read_column(args.scores, "scores")
    if len(labels) != len(scores):
        raise DataError(
            f"length mismatch: {len(labels)} labels vs {len(scores)} scores"
        )
    report = compute_report(labels, scores, threshold=args.threshold)
    resolved = {"threshold": args.threshold, "n": report.n}
    digest = config_hash(resolved)
    if report.auroc is None or report.auprc is None:
        print(
            "warning: some metrics are undefined for single-class input and "
            "reported as absent",
            file=sys.stderr,
        )
    payload = {"config_hash": digest, "report": asdict(report)}
    lines = [f"config_hash={digest} threshold={args.threshold}", json.dumps(payload["report"])]
    _emit(args, lines, payload)
    return EXIT_OK


def _discard_stdout() -> None:
    """Point stdout at the null device, so that the flush at exit cannot
    fail again on a reader that has gone."""
    devnull = open(os.devnull, "w", encoding="utf-8")
    try:
        # What is still buffered in the old stream goes there too.
        os.dup2(devnull.fileno(), sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):
        pass  # a stream with no descriptor of its own
    sys.stdout = devnull


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.handler(args)
        # Inside the try, so that a reader that has gone is met here.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _discard_stdout()
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return EXIT_DATA
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ProviderError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrialMatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
