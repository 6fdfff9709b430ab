"""Static checks on the package source."""

import ast
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

import pytest

from trialmatch.harness import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "trialmatch"
SOURCES = sorted(PACKAGE.glob("*.py"))
TEST_SOURCES = sorted((ROOT / "tests").glob("*.py")) + [ROOT / "conftest.py"]


def _annotation_names(tree: ast.Module) -> set[str]:
    """Names inside quoted annotations such as ``-> "Dataset"``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in annotations:
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            parsed = ast.parse(annotation.value, mode="eval")
            names.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return names


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never references, in import order."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _annotation_names(tree)
    return [name for name in imported if name not in used]


def test_sources_are_found():
    assert {"harness.py", "representation.py", "cli.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize(
    "path",
    SOURCES + TEST_SOURCES,
    ids=lambda p: p.name if p.parent == PACKAGE else str(p.relative_to(ROOT)),
)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert unused_imports(tree) == []


def test_an_unused_import_is_caught():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .errors import DataError, InsufficientTokensError\n"
        "def f(x: 'np.ndarray') -> None:\n"
        "    raise DataError(os.path.sep)\n"
    )
    assert unused_imports(ast.parse(source)) == ["InsufficientTokensError"]


def outside_imports(tree: ast.Module) -> list[str]:
    """Top-level modules that ``tree`` imports from outside the standard
    library, numpy and the package itself, in import order."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    allowed = {"numpy", "trialmatch"}
    return [n for n in names if n not in allowed and n not in sys.stdlib_module_names]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_numpy_is_the_only_outside_import(path):
    # numpy is the one runtime dependency pyproject.toml lists.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert outside_imports(tree) == []


def test_an_outside_import_is_caught():
    source = (
        "from __future__ import annotations\n"
        "import json, urllib.request\n"
        "import numpy as np\n"
        "from . import corpus\n"
        "from .errors import DataError\n"
        "from trialmatch.harness import run_task\n"
        "def post():\n"
        "    import requests\n"
        "    from urllib3.util import Retry\n"
    )
    assert outside_imports(ast.parse(source)) == ["requests", "urllib3"]


def uncaught_classes(defining: ast.Module, catching: list[ast.Module]) -> list[str]:
    """Classes that ``defining`` defines and no ``except`` clause of
    ``catching`` names, bare or as an attribute, in source order."""
    caught = set()
    for tree in catching:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                for n in ast.walk(node.type):
                    if isinstance(n, ast.Name):
                        caught.add(n.id)
                    elif isinstance(n, ast.Attribute):
                        caught.add(n.attr)
    return [
        node.name
        for node in defining.body
        if isinstance(node, ast.ClassDef) and node.name not in caught
    ]


def test_every_error_type_is_caught():
    # One type per exit code (cli.main's except chain), plus the subclasses
    # that code catches to recover. Any other case is told apart by message.
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    assert uncaught_classes(errors, trees) == []


def test_an_uncaught_error_type_is_caught():
    defining = (
        "class AppError(Exception): pass\n"
        "class UsageError(AppError): pass\n"
        "class NoRowsError(AppError): pass\n"
        "class WidthError(AppError): pass\n"
    )
    catching = (
        "try:\n"
        "    run()\n"
        "except (UsageError, errors.AppError):\n"
        "    pass\n"
        "except ValueError:\n"
        "    raise NoRowsError('no rows')\n"
    )
    found = uncaught_classes(ast.parse(defining), [ast.parse(catching)])
    assert found == ["NoRowsError", "WidthError"]


def test_no_module_reads_a_bit_generator():
    # Random values come from public Generator calls only: the raw words and
    # state of numpy's bit generators are internals that no release promises.
    found = [
        (path.name, word)
        for path in SOURCES
        for word in ("bit_generator", "random_raw")
        if word in path.read_text(encoding="utf-8")
    ]
    assert found == []


def float32_outsiders(sources: dict[str, str]) -> list[str]:
    """Modules, by file name, other than ``classifiers.py`` whose source
    names float32, in the order given."""
    return [
        name for name, text in sources.items() if name != "classifiers.py" and "float32" in text
    ]


def test_only_classifiers_names_float32():
    # The MLP's training dtype has one owner: every other module hands the
    # classifiers float64 and leaves the cast to them.
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert float32_outsiders(sources) == []


def test_a_float32_outside_classifiers_is_caught():
    sources = {
        "classifiers.py": "X32 = X.astype(np.float32)\n",
        "harness.py": "# the MLP trains in float32\ncore_x = Xtr.astype('float32')\n",
        "metrics.py": "y = np.asarray(labels, dtype=np.float64)\n",
        "representation.py": "m = m.astype(np.float32)\n",
    }
    assert float32_outsiders(sources) == ["harness.py", "representation.py"]


def sites(sources: dict[str, str], needle: str) -> list[str]:
    """Each line of ``sources`` (file name -> text) that holds ``needle``,
    as ``file:function``, naming the innermost function around it, or
    ``file:<module>``, in order."""
    found = []
    for name, text in sources.items():
        functions = [
            node
            for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for lineno, line in enumerate(text.splitlines(), start=1):
            if needle in line:
                around = [f for f in functions if f.lineno <= lineno <= f.end_lineno]
                inner = max(around, key=lambda f: f.lineno).name if around else "<module>"
                found.append(f"{name}:{inner}")
    return found


def default_comparisons(sources: dict[str, str]) -> list[str]:
    """Each ``!= getattr(`` of ``sources``, as ``sites`` names it."""
    return sites(sources, "!= getattr(")


def test_only_reject_unread_compares_with_a_class_default():
    # The rule "a key that no run reads is a ConfigError" has one owner, so
    # a new key cannot bring back a loop of its own.
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert default_comparisons(sources) == ["errors.py:reject_unread"]


def test_a_default_comparison_outside_reject_unread_is_caught():
    sources = {
        "errors.py": (
            "def reject_unread(obj, keys, reader):\n"
            "    for key in keys:\n"
            "        if getattr(obj, key) != getattr(type(obj), key):\n"
            "            raise ConfigError(key)\n"
        ),
        "corpus.py": (
            "class SplitSpec:\n"
            "    def __post_init__(self):\n"
            "        def unread(key):\n"
            "            return getattr(self, key) != getattr(SplitSpec, key)\n"
            "        return unread('seed')\n"
            "FLAG = x != getattr(y, 'z')\n"
        ),
    }
    assert default_comparisons(sources) == [
        "errors.py:reject_unread",
        "corpus.py:unread",
        "corpus.py:<module>",
    ]


def test_only_as_labels_checks_labels():
    # "Labels are 0 or 1" has one owner, as_labels, so no module keeps a
    # copy of the rule that can drift from it.
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert sites(sources, "isin(") == ["errors.py:as_labels"]


def test_a_label_check_outside_as_labels_is_caught():
    sources = {
        "errors.py": (
            "def as_labels(labels, n):\n"
            "    if not np.all(np.isin(labels, (0.0, 1.0))):\n"
            "        raise DataError('labels must be 0 or 1')\n"
        ),
        "metrics.py": (
            "def _check_pair(labels, scores):\n"
            "    return np.isin(labels, (0, 1)).all()\n"
            "KNOWN = numpy.isin(CODES, (0, 1))\n"
        ),
        "harness.py": "def rows(ids):\n    return isinstance(ids, list) and np.isinf(ids).any()\n",
    }
    assert sites(sources, "isin(") == [
        "errors.py:as_labels",
        "metrics.py:_check_pair",
        "metrics.py:<module>",
    ]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module) -> list[str]:
    """A module's top-level functions, classes and constants, and its
    classes' methods, in source order; dunder names are left out."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    names = []
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [m.name for m in node.body if isinstance(m, functions)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not _is_dunder(name)]


def references(tree: ast.Module) -> set[str]:
    """Names a module reads, as a bare name or an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def test_every_definition_is_referenced():
    # Tests do not count: a definition only a test reads is dead code.
    readers = [
        path
        for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
        if "tests" not in path.relative_to(ROOT).parts
    ]
    read = set().union(*(references(ast.parse(p.read_text(encoding="utf-8"))) for p in readers))
    unread = [
        f"{path.name}: {name}"
        for path in SOURCES
        for name in definitions(ast.parse(path.read_text(encoding="utf-8")))
        if name not in read
    ]
    assert unread == []


def test_an_unreferenced_definition_is_caught():
    source = (
        "LIMIT = 3\n"
        "UNUSED = 4\n"
        "class Box:\n"
        "    def __init__(self): self.size = LIMIT\n"
        "    def grow(self): return helper(self.size)\n"
        "    def shrink(self): pass\n"
        "def helper(x): return x\n"
        "Box().grow()\n"
    )
    tree = ast.parse(source)
    assert [name for name in definitions(tree) if name not in references(tree)] == [
        "UNUSED",
        "shrink",
    ]


def traced_layers() -> list[str]:
    """The keys of ``LAYERS`` in bench/tracing.py: the names a traced run
    rebinds in ``trialmatch.harness``."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "LAYERS":
            return [key.value for key in node.value.keys]
    raise AssertionError("bench/tracing.py defines no LAYERS")


def called_names(tree: ast.Module) -> set[str]:
    """Names a module calls as a bare name, ``f(...)``."""
    return {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def test_every_traced_layer_is_called_by_name_in_harness():
    # A call made anywhere else escapes the tracer's rebinding, and its layer
    # metric then reads 0.
    layers = traced_layers()
    assert "score_chunks" in layers
    called = called_names(ast.parse((PACKAGE / "harness.py").read_text(encoding="utf-8")))
    assert [name for name in layers if name not in called] == []


def test_a_layer_called_through_its_module_is_caught():
    source = (
        "from . import retrieval\n"
        "from .retrieval import score_chunks\n"
        "score_chunks(a)\n"
        "retrieval.select_top_k(b)\n"
    )
    assert called_names(ast.parse(source)) == {"score_chunks"}


def config_keys(cls, prefix: str = "") -> list[str]:
    """Every key path below the dataclass ``cls`` that
    ``ExperimentConfig.from_dict`` accepts, in field order; ``[]`` marks
    the items of a JSON array. Walks the types as the loader does: an
    Optional is its inner type, a tuple its item type, and a dataclass
    field is an object of keys."""
    keys = []
    hints = get_type_hints(cls)
    for f in fields(cls):
        tp, path = hints[f.name], prefix + f.name
        if get_origin(tp) is Union:
            (tp,) = [arg for arg in get_args(tp) if arg is not type(None)]
        if get_origin(tp) is tuple:
            tp, path = get_args(tp)[0], path + "[]"
        keys += config_keys(tp, path + ".") if is_dataclass(tp) else [path]
    return keys


# The settings a config can set, by object. A new setting is an edit here.
PROVIDER_KEYS = ["kind", "name", "dim", "seed", "endpoint", "model"]
SYNTHETIC_KEYS = [
    "n_trials",
    "patients_per_trial",
    "positive_fraction",
    "signal_strength",
    "trial_shift",
    "vocabulary_size",
    "notes_per_patient",
    "note_tokens",
]
SOURCE_KEYS = [
    "name",
    "patients_path",
    "trials_path",
    *(f"synthetic.{key}" for key in SYNTHETIC_KEYS),
    "seed",
]
VARIANT_KEYS = [
    *(f"provider.{key}" for key in PROVIDER_KEYS),
    "k_retrieve",
    "pooling",
    "pooling_components",
    "dimred.axis",
    "dimred.n_components",
    "classifier",
    "adapter_mode",
    "train.max_epochs",
    "train.patience",
    "seed",
    "chunk_size",
    "chunk_overlap",
    "name",
]
SPLIT_KEYS = ["mode", "test_fraction", "target_trial", "exclusion_fraction", "seed"]


def test_every_config_key_is_listed():
    assert config_keys(ExperimentConfig) == [
        "task",
        *(f"dataset.{key}" for key in SOURCE_KEYS),
        "modality",
        *(f"variants[].{key}" for key in VARIANT_KEYS),
        *(f"split.{key}" for key in SPLIT_KEYS),
        "output_dir",
        "exclusions[]",
        *(f"datasets[].{key}" for key in SOURCE_KEYS),
        *(f"providers[].{key}" for key in PROVIDER_KEYS),
        "threads",
    ]
