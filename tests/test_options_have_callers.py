"""Every option lrmt declares is set by a real caller, or is kept for a reason.

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
