"""The number rule is stated once, in ``corpus.py``.

``check_number`` and ``check_count`` decide what counts as a number and as a
count; every numeric argument calls one of them. A hand-written copy
elsewhere drifts: before they existed, nine copies disagreed about bools, NaN
and infinities. This reads ``src/lrmt`` with ``ast`` and fails on the two
marks of such a copy outside ``corpus.py``: an ``isinstance`` test against
``bool`` (alone or in a tuple) and any use of ``math.isnan``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lrmt"
RULE_HOME = "corpus.py"


def _names(node: ast.expr) -> list[str]:
    items = node.elts if isinstance(node, ast.Tuple) else [node]
    return [n.id for n in items if isinstance(n, ast.Name)]


def number_rule_copies(src: Path) -> list[str]:
    """``file:line`` of each bool isinstance test or ``math.isnan`` outside
    the rule's home."""
    found = []
    for path in sorted(src.rglob("*.py")):
        if path.relative_to(src).as_posix() == RULE_HOME:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            bool_test = (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2
                and "bool" in _names(node.args[1])
            )
            isnan = (isinstance(node, ast.Attribute) and node.attr == "isnan") or (
                isinstance(node, ast.ImportFrom) and any(a.name == "isnan" for a in node.names)
            )
            if bool_test or isnan:
                found.append(f"{path.relative_to(src).as_posix()}:{node.lineno}")
    return found


def test_scan_sees_the_rule_home():
    # the scan itself works: the rule's own bool test is the one it skips
    assert (SRC / RULE_HOME).is_file()
    copies = number_rule_copies(SRC.parent)  # rooted one level up, corpus.py is not skipped
    assert any(c.startswith("lrmt/corpus.py:") for c in copies)


def test_number_rule_is_stated_once():
    copies = number_rule_copies(SRC)
    assert not copies, f"number checks outside {RULE_HOME}; call check_number or check_count: {', '.join(copies)}"
