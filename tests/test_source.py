"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

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
