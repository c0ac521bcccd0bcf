"""Every lrmt name the benchmark uses still exists.

Tier-1 never runs ``benchmarks/``, so a deleted or renamed lrmt function
would only show up as failed benchmark operations. This reads the
benchmark's source with ``ast`` (including the set-up snippet that
``run.py`` runs in fresh interpreters) and resolves each reference.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _setup_code(tree: ast.Module) -> ast.Module:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_SETUP_CODE" for t in node.targets
        ):
            return ast.parse(ast.literal_eval(node.value).format(src=""))
    raise AssertionError("run.py defines no _SETUP_CODE")


def _dotted(node: ast.expr) -> str | None:
    """``lrmt.a.b`` for an attribute chain rooted at the name ``lrmt``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "lrmt":
        return ".".join(["lrmt", *reversed(parts)])
    return None


def lrmt_references(tree: ast.Module) -> set[str]:
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lrmt":
            refs.update(f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            refs.update(a.name for a in node.names if a.name.split(".")[0] == "lrmt")
        elif isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted is not None:
                refs.add(dotted)
    return refs


def resolve(dotted: str) -> object:
    """Walk ``lrmt.a.b`` by attribute, importing a submodule where the
    attribute is not yet bound."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=1):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[: i + 1]))
        obj = getattr(obj, part)
    return obj


def _all_references() -> set[str]:
    refs = set()
    for name in ("workloads.py", "run.py"):
        tree = ast.parse((BENCHMARKS / name).read_text(encoding="utf-8"))
        refs |= lrmt_references(tree)
        if name == "run.py":
            refs |= lrmt_references(_setup_code(tree))
    return refs


REFERENCES = sorted(_all_references())


def test_references_found():
    # the scan itself works: names the benchmark is known to call are seen
    for expected in ("lrmt.corpus.ingest", "lrmt.corpus.write", "lrmt.metrics.levenshtein"):
        assert expected in REFERENCES


@pytest.mark.parametrize("dotted", REFERENCES)
def test_reference_resolves(dotted):
    resolve(dotted)


def test_resolve_rejects_missing_name():
    with pytest.raises((AttributeError, ImportError)):
        resolve("lrmt.corpus.no_such_reader")
