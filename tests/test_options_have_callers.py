"""Every option and every public name lrmt declares has a real caller, or is
kept for a reason.

An option only tests set is dead configuration: it doubles the cases a reader
must consider and no workload needs the other value. This reads ``src/lrmt``
with ``ast`` and lists each defaulted parameter of a public module-level
function, a public class's ``__init__`` and a public method (nested functions
are left out). A parameter counts as set when some call in ``src/`` or
``benchmarks/`` whose callee has the same bare name (the class name for
``__init__``) passes it by keyword or by position; a call that unpacks
``*args`` or ``**kwargs`` counts as setting every parameter. Calls in tests do
not count. An option no such call sets must be listed in ``KEPT`` with the
reason it stays.

A public name nothing reads is a dangling declaration, by the same reasoning.
The second scan lists each public module-level function, class and assigned
name, and each public method or property of a public class. A name counts as
used when a ``Name`` load or an ``Attribute`` with the same bare name appears
in ``src/`` or ``benchmarks/`` outside the name's own definition; imports and
the packages' re-exports are not uses. Bare names cannot tell two methods of
the same name apart (``OverlapReport.to_json`` and ``MetricReport.to_json``),
so a use of either counts for both. A name with no use must be listed in
``KEPT_NAMES`` with the reason it stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "benchmarks")

KEPT = {
    ("ingest", "header"): "describes an outside file; without it a header row becomes a pair",
    ("evaluate_corpus", "embedding_scores"): "the data behind MetricReport.cos_sim",
    ("evaluate_corpus", "comet_scores"): "the data behind MetricReport.comet",
    ("EmbeddingClient", "timeout"): "a deployment setting",
    ("EmbeddingClient", "sleep"): "the seam tests use to substitute a fake",
}

KEPT_NAMES = {
    "SplitSpec.from_json_file": "the only reader of split-spec files, outside input a build recipe is to reuse",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _defaulted(fn: ast.FunctionDef, callee: str, skip_first: bool):
    """(callee, parameter, position as the call sees it or None) per default."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first_default = len(positional) - len(a.defaults)
    for i, arg in enumerate(positional[first_default:], start=first_default):
        yield callee, arg.arg, i - skip_first
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield callee, arg.arg, None


def declared_options() -> list[tuple[str, str, int | None]]:
    options = []
    for path in sorted((ROOT / "src" / "lrmt").rglob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                options.extend(_defaulted(node, node.name, skip_first=False))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for fn in node.body:
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                    if fn.name == "__init__":
                        options.extend(_defaulted(fn, node.name, skip_first=True))
                    elif not fn.name.startswith("_"):
                        options.extend(_defaulted(fn, fn.name, skip_first=not static))
    return options


def calls() -> list[ast.Call]:
    return [
        node
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Call)
    ]


def _bare_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def sets(call: ast.Call, param: str, position: int | None) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    if any(k.arg == param for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


OPTIONS = declared_options()
CALLS = calls()


def test_scan_sees_options_and_calls():
    # the scan itself works: options that callers are known to set are found
    names = {(callee, param) for callee, param, _ in OPTIONS}
    assert {("dedup", "key"), ("EmbeddingClient", "timeout"), ("analysis_report", "histogram_path")} <= names
    assert any(_bare_name(c.func) == "score_pairs" for c in CALLS)


def test_every_option_has_a_caller():
    by_name: dict[str, list[ast.Call]] = {}
    for call in CALLS:
        by_name.setdefault(_bare_name(call.func), []).append(call)
    unset = {
        (callee, param)
        for callee, param, position in OPTIONS
        if not any(sets(call, param, position) for call in by_name.get(callee, ()))
    }
    unkept = sorted(f"{callee}({param})" for callee, param in unset - KEPT.keys())
    assert not unkept, f"options no caller sets: {', '.join(unkept)}"
    # an entry whose option is gone or has gained a caller goes too
    stale = sorted(f"{callee}({param})" for callee, param in KEPT.keys() - unset)
    assert not stale, f"KEPT entries that need no reason: {', '.join(stale)}"


def _public(name: str) -> bool:
    return not name.startswith("_")


def _assigned(node: ast.stmt) -> list[str]:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [
        t.id
        for target in targets
        for t in ast.walk(target)
        if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)
    ]


def declared_names() -> list[tuple[str, str, Path, int, int]]:
    """(qualified name, bare name, file, first line, last line) per public
    declaration; the lines span the definition, whose own body is no use."""
    names = []
    for path in sorted((ROOT / "src" / "lrmt").rglob("*.py")):
        for node in _parse(path).body:
            span = (path, node.lineno, node.end_lineno)
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                names.extend((name, name, *span) for name in _assigned(node) if _public(name))
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
                names.append((node.name, node.name, *span))
            if isinstance(node, ast.ClassDef) and _public(node.name):
                names.extend(
                    (f"{node.name}.{fn.name}", fn.name, path, fn.lineno, fn.end_lineno)
                    for fn in node.body
                    if isinstance(fn, ast.FunctionDef) and _public(fn.name)
                )
    return names


def uses() -> dict[str, list[tuple[Path, int]]]:
    """Bare name -> (file, line) of each Name load or Attribute in src/ and
    benchmarks/."""
    found: dict[str, list[tuple[Path, int]]] = {}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    found.setdefault(node.id, []).append((path, node.lineno))
                elif isinstance(node, ast.Attribute):
                    found.setdefault(node.attr, []).append((path, node.lineno))
    return found


NAMES = declared_names()
USES = uses()


def test_name_scan_sees_declarations_and_uses():
    names = {qualified for qualified, *_ in NAMES}
    assert {"ingest", "Corpus", "Corpus.ids", "MAX_ORDER", "SplitSpec.from_json_file"} <= names
    assert "Corpus.__len__" not in names and "_best_shift" not in names
    assert "evaluate_corpus" in USES


def test_every_public_name_has_a_caller():
    unused = {
        qualified
        for qualified, bare, path, first, last in NAMES
        if all(p == path and first <= line <= last for p, line in USES.get(bare, ()))
    }
    unkept = sorted(unused - KEPT_NAMES.keys())
    assert not unkept, f"public names nothing in src/ or benchmarks/ uses: {', '.join(unkept)}"
    # an entry whose name is gone or has gained a use goes too
    stale = sorted(KEPT_NAMES.keys() - unused)
    assert not stale, f"KEPT_NAMES entries that need no reason: {', '.join(stale)}"
