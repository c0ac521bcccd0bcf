"""The number rule and the container rule are each stated once, in ``corpus.py``.

``check_number`` and ``check_count`` decide what counts as a number and as a
count; every numeric argument calls one of them. ``check_items`` decides what
counts as a container of items (a list or tuple); every container argument
calls it. A hand-written copy elsewhere drifts: before these rules existed,
nine number checks disagreed about bools, NaN and infinities, and nine
container checks about strings, sets and iterators. This reads ``src/lrmt``
with ``ast`` and fails on the marks of such a copy outside ``corpus.py``: an
``isinstance`` test against ``bool`` (alone or in a tuple), any use of
``math.isnan``, and an ``isinstance`` test whose type tuple names both
``list`` and ``tuple``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lrmt"
RULE_HOME = "corpus.py"


def _names(node: ast.expr) -> list[str]:
    items = node.elts if isinstance(node, ast.Tuple) else [node]
    return [n.id for n in items if isinstance(n, ast.Name)]


def _isinstance_names(node: ast.AST) -> list[str]:
    """The type names an ``isinstance`` call tests against; [] for any other node."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
        return _names(node.args[1])
    return []


def _copies(src: Path, is_copy) -> list[str]:
    """``file:line`` of each node under `src` that `is_copy` marks, outside
    the rules' home."""
    found = []
    for path in sorted(src.rglob("*.py")):
        if path.relative_to(src).as_posix() == RULE_HOME:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if is_copy(node):
                found.append(f"{path.relative_to(src).as_posix()}:{node.lineno}")
    return found


def _number_check(node: ast.AST) -> bool:
    isnan = (isinstance(node, ast.Attribute) and node.attr == "isnan") or (
        isinstance(node, ast.ImportFrom) and any(a.name == "isnan" for a in node.names)
    )
    return isnan or "bool" in _isinstance_names(node)


def _container_check(node: ast.AST) -> bool:
    return {"list", "tuple"} <= set(_isinstance_names(node))


def number_rule_copies(src: Path) -> list[str]:
    """``file:line`` of each bool isinstance test or ``math.isnan`` outside
    the rule's home."""
    return _copies(src, _number_check)


def container_rule_copies(src: Path) -> list[str]:
    """``file:line`` of each isinstance test against list and tuple outside
    the rule's home."""
    return _copies(src, _container_check)


def test_scan_sees_the_rule_home():
    # the scan itself works: the rule's own bool test is the one it skips
    assert (SRC / RULE_HOME).is_file()
    copies = number_rule_copies(SRC.parent)  # rooted one level up, corpus.py is not skipped
    assert any(c.startswith("lrmt/corpus.py:") for c in copies)


def test_container_scan_sees_the_rule_home():
    copies = container_rule_copies(SRC.parent)
    assert any(c.startswith("lrmt/corpus.py:") for c in copies)


def test_container_scan_finds_a_copy(tmp_path):
    (tmp_path / "copy.py").write_text(
        "def f(x):\n"
        "    return isinstance(x, (tuple, str, list))\n"
        "def g(x):\n"
        "    return isinstance(x, list) or isinstance(x, (str, bytes))\n",
        encoding="utf-8",
    )
    assert container_rule_copies(tmp_path) == ["copy.py:2"]


def test_number_rule_is_stated_once():
    copies = number_rule_copies(SRC)
    assert not copies, f"number checks outside {RULE_HOME}; call check_number or check_count: {', '.join(copies)}"


def test_container_rule_is_stated_once():
    copies = container_rule_copies(SRC)
    assert not copies, f"list/tuple checks outside {RULE_HOME}; call check_items: {', '.join(copies)}"
