"""Every lrmt name the benchmark uses still exists and takes its calls.

Tier-1 never runs ``benchmarks/``, so a deleted or renamed lrmt function,
attribute or parameter would only show up as failed benchmark operations.
This reads the benchmark's source with ``ast`` (including the set-up snippet
that ``run.py`` runs in fresh interpreters), resolves each reference, and
binds each call's positional count and keyword names to the callee's
signature. It sees names imported from lrmt, ``lrmt.a.b`` chains and
``Name.attr`` reads on an imported name; it cannot see attributes read off
returned objects, such as ``band.label`` or ``overlap.passed``, nor check
calls that unpack ``*args`` or ``**kwargs``.
"""

import ast
import importlib
import inspect
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


def _imported(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted lrmt name, for every ``from lrmt... import``."""
    return {
        alias.asname or alias.name: f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lrmt"
        for alias in node.names
    }


def _target(node: ast.expr, imported: dict[str, str]) -> str | None:
    """The dotted lrmt name an expression names: an imported name, an
    ``lrmt.a.b`` chain, or an attribute of an imported name."""
    if isinstance(node, ast.Name):
        return imported.get(node.id)
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id in imported:
            return f"{imported[node.value.id]}.{node.attr}"
        return _dotted(node)
    return None


def lrmt_references(tree: ast.Module) -> set[str]:
    imported = _imported(tree)
    refs = set(imported.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            refs.update(a.name for a in node.names if a.name.split(".")[0] == "lrmt")
        elif isinstance(node, ast.Attribute):
            dotted = _target(node, imported)
            if dotted is not None:
                refs.add(dotted)
    return refs


def lrmt_calls(tree: ast.Module) -> list[tuple[int, str, int, tuple[str, ...]]]:
    """(line, callee, positional count, keyword names) of each lrmt call."""
    imported = _imported(tree)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = _target(node.func, imported)
        unpacks = any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        )
        if callee is not None and not unpacks:
            calls.append((node.lineno, callee, len(node.args), tuple(k.arg for k in node.keywords)))
    return calls


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


def _trees() -> list[tuple[str, ast.Module]]:
    trees = []
    for name in ("workloads.py", "run.py"):
        tree = ast.parse((BENCHMARKS / name).read_text(encoding="utf-8"))
        trees.append((name, tree))
        if name == "run.py":
            trees.append(("run.py _SETUP_CODE", _setup_code(tree)))
    return trees


REFERENCES = sorted(set().union(*(lrmt_references(tree) for _, tree in _trees())))
CALLS = [(where, *call) for where, tree in _trees() for call in lrmt_calls(tree)]


def test_references_found():
    # the scan itself works: names the benchmark is known to call are seen
    expected_refs = ("lrmt.corpus.ingest", "lrmt.metrics.levenshtein", "lrmt.metrics.BleuStats.zero")
    for expected in expected_refs:
        assert expected in REFERENCES


@pytest.mark.parametrize("dotted", REFERENCES)
def test_reference_resolves(dotted):
    resolve(dotted)


def test_calls_found():
    seen = {(callee, keywords) for _, _, callee, _, keywords in CALLS}
    assert ("lrmt.pipeline.concat", ("name",)) in seen
    assert ("lrmt.metrics.BleuStats.zero", ()) in seen
    assert ("lrmt.pipeline.load_stopwords", ()) in seen  # from _SETUP_CODE


def test_calls_bind():
    unbound = []
    for where, line, callee, npos, keywords in CALLS:
        try:
            inspect.signature(resolve(callee)).bind(*[None] * npos, **dict.fromkeys(keywords))
        except (TypeError, AttributeError, ImportError) as exc:
            unbound.append(f"{where}:{line} {callee}: {exc}")
    assert not unbound


def test_resolve_rejects_missing_name():
    with pytest.raises((AttributeError, ImportError)):
        resolve("lrmt.corpus.no_such_reader")
