"""Per-layer timing shims for a traced benchmark run.

The shims replace the layer functions *as bound* in ``trialmatch.harness``
(the names it imported from the layer modules), so a traced run needs no
change to the program. Each shim records a span: its self time (duration
minus the time of shims it called) is charged to the layer metric named in
``LAYERS``, and an optional counter records the work the call did. Counting
runs outside the spans and is timed separately, so it shows up in the
traced-minus-untraced overhead but not in any layer's or the harness's self
time.
"""

from __future__ import annotations

import functools
import hashlib
import time
from collections import defaultdict
from typing import Callable, Optional

from trialmatch import harness

# ---------------------------------------------------------------------------
# Counters: (tracer, args, kwargs, result, error) -> None, run after each call;
# ``error`` is the exception the call raised (then ``result`` is None).
# ---------------------------------------------------------------------------


def _count_dimred(tracer: "Tracer", args, kwargs, result, error) -> None:
    tracer.count["representation.dimred_calls"] += 1
    if error is not None:
        # The harness catches compression errors and mean-pools instead.
        tracer.count["representation.fallbacks"] += 1
    matrix, cfg = args[0], args[1] if len(args) > 1 else kwargs["cfg"]
    # The harness hands one matrix object to every variant in turn; holding
    # the last one keeps its id from being reused, so its digest can be too.
    if matrix is not tracer.last_matrix:
        tracer.last_matrix = matrix
        tracer.last_digest = hashlib.blake2b(matrix.tobytes(), digest_size=16).digest()
    tracer.distinct["representation.dimred"].add((tracer.last_digest, matrix.shape, repr(cfg)))


def _count_mlp(tracer: "Tracer", args, kwargs, result, error) -> None:
    if error is not None:
        return
    tracer.count["classifiers.mlp_fits"] += 1
    tracer.count["classifiers.mlp_epochs"] += result[1].stopped_epoch


def _count_texts(tracer: "Tracer", args, kwargs, result, error) -> None:
    texts = args[1] if len(args) > 1 else kwargs["texts"]
    tracer.count["embedding.texts"] += len(texts)
    tracer.count["embedding.text_tokens"] += sum(len(t.split()) for t in texts)
    tracer.distinct["embedding.texts"].update(texts)


def _count_tokens(tracer: "Tracer", args, kwargs, result, error) -> None:
    if error is not None:
        return
    tracer.count["embedding.prompt_tokens"] += result.shape[0]


def _count_pairs(tracer: "Tracer", args, kwargs, result, error) -> None:
    chunks, criteria = args[0], args[2]
    tracer.count["retrieval.pairs"] += len(chunks) * len(criteria)


def _count_select(tracer: "Tracer", args, kwargs, result, error) -> None:
    if error is not None:
        return
    tracer.count["retrieval.scored"] += len(args[0])
    tracer.count["retrieval.selected"] += len(result)


def _count_chunks(tracer: "Tracer", args, kwargs, result, error) -> None:
    if error is not None:
        return
    tracer.count["corpus.chunks"] += len(result)


# Bound name in trialmatch.harness -> (time metric, counter or None). The
# `run` command reaches every layer through these names.
LAYERS: dict[str, tuple[str, Optional[Callable]]] = {
    "apply_dimred": ("representation.dimred_s", _count_dimred),
    "pca_fit": ("representation.dimred_s", None),
    "pca_project": ("representation.dimred_s", None),
    "mean_pool": ("representation.pool_s", None),
    "select_last_token": ("representation.pool_s", None),
    "hybrid_concat": ("representation.pool_s", None),
    "pool_pca_mean": ("representation.pool_s", None),
    "train_mlp": ("classifiers.mlp_train_s", _count_mlp),
    "train_with_adapter": ("classifiers.mlp_train_s", _count_mlp),
    "train_forest": ("classifiers.forest_train_s", None),
    "train_tree": ("classifiers.tree_train_s", None),
    "train_svm": ("classifiers.svm_train_s", None),
    "predict_proba": ("classifiers.predict_s", None),
    "embed_texts": ("embedding.texts_s", _count_texts),
    "embed_tokens": ("embedding.tokens_s", _count_tokens),
    "score_chunks": ("retrieval.score_s", _count_pairs),
    "select_top_k": ("retrieval.select_s", _count_select),
    "assemble_prompt": ("retrieval.prompt_s", None),
    "load_dataset": ("corpus.load_s", None),
    "build_chunks": ("corpus.chunk_s", _count_chunks),
    "make_split": ("corpus.split_s", None),
    "compute_report": ("metrics.report_s", None),
}

TIME_METRICS = sorted({metric for metric, _ in LAYERS.values()})


def bindings() -> dict[str, Callable]:
    """The functions ``trialmatch.harness`` currently binds to the names in
    ``LAYERS``."""
    return {name: getattr(harness, name) for name in LAYERS}


def _ratio(num: float, den: float) -> float:
    """A ratio whose base is zero (the layer never ran) reads as 0."""
    return num / den if den else 0.0


class Tracer:
    """Spans and counts for one traced invocation.

    Use as a context manager: entering installs the shims, leaving restores
    every original binding, also when the invocation raises.
    """

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.count: defaultdict[str, float] = defaultdict(float)
        self.distinct: defaultdict[str, set] = defaultdict(set)
        self.top_s = 0.0  # summed duration of spans with no enclosing span
        self.counting_s = 0.0  # time spent in counters, outside every span
        self.last_matrix = self.last_digest = None
        self._open: list[float] = []  # child time of each open span
        self._saved: list[tuple[str, Callable]] = []

    def __enter__(self) -> "Tracer":
        try:
            for name, (metric, counter) in LAYERS.items():
                original = getattr(harness, name)
                self._saved.append((name, original))
                setattr(harness, name, self._shim(original, metric, counter))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            name, original = self._saved.pop()
            setattr(harness, name, original)

    def _shim(self, original: Callable, metric: str, counter: Optional[Callable]) -> Callable:
        @functools.wraps(original)
        def shim(*args, **kwargs):
            self._open.append(0.0)
            result = error = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                error = exc
            elapsed = time.perf_counter() - start
            children = self._open.pop()
            self.self_s[metric] += elapsed - children
            if self._open:
                self._open[-1] += elapsed
            else:
                self.top_s += elapsed
            if counter is not None:
                count_start = time.perf_counter()
                counter(self, args, kwargs, result, error)
                self.counting_s += time.perf_counter() - count_start
            if error is not None:
                raise error
            return result

        return shim

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer values for one traced invocation of ``wall_s`` seconds
        (``trace.overhead_s`` is filled in by the caller). The names and
        units are declared under ``per_layer`` in BENCHMARK.json."""
        out = {name: self.self_s[name] for name in TIME_METRICS}
        c = self.count
        out.update(
            {
                "representation.dimred_calls": c["representation.dimred_calls"],
                "representation.dimred_unique_ratio": _ratio(
                    len(self.distinct["representation.dimred"]),
                    c["representation.dimred_calls"],
                ),
                "representation.fallbacks": c["representation.fallbacks"],
                "classifiers.mlp_fits": c["classifiers.mlp_fits"],
                "classifiers.mlp_epochs": c["classifiers.mlp_epochs"],
                "classifiers.mlp_epoch_ms": 1000.0
                * _ratio(self.self_s["classifiers.mlp_train_s"], c["classifiers.mlp_epochs"]),
                "embedding.texts": c["embedding.texts"],
                "embedding.text_tokens": c["embedding.text_tokens"],
                "embedding.distinct_text_ratio": _ratio(
                    len(self.distinct["embedding.texts"]), c["embedding.texts"]
                ),
                "embedding.prompt_tokens": c["embedding.prompt_tokens"],
                "retrieval.pairs": c["retrieval.pairs"],
                "retrieval.selected_ratio": _ratio(
                    c["retrieval.selected"], c["retrieval.scored"]
                ),
                "corpus.chunks": c["corpus.chunks"],
                "harness.self_s": wall_s - self.top_s - self.counting_s,
            }
        )
        return out
