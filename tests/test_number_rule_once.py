"""The number rule, the container rule and the type rule are each stated
once, in ``corpus.py``.

``check_number`` and ``check_count`` decide what counts as a number and as a
count; every numeric argument calls one of them. ``check_items`` decides what
counts as a container of items (a list or tuple); every container argument
calls it. ``check_type`` decides whether a value is of one type; every typed
argument calls it. A hand-written copy elsewhere drifts: before these rules
existed, nine number checks disagreed about bools, NaN and infinities, nine
container checks about strings, sets and iterators, and sixteen type checks
used a dozen message shapes, most of which could not show an int of 5,000
digits. This reads ``src/lrmt`` with ``ast`` and fails on the marks of such a
copy outside ``corpus.py``: an ``isinstance`` test against ``bool`` (alone or
in a tuple), any use of ``math.isnan``, and an ``isinstance`` test whose type
tuple names both ``list`` and ``tuple``. It fails on the third rule's mark,
an ``if`` whose test calls ``isinstance`` and whose body raises
``ValidationError``, anywhere but inside ``corpus.py``'s ``check_*`` rules,
so it also covers the domain types in ``corpus.py``.
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


def _whole_home(rel: str, tree: ast.Module) -> set[int]:
    return set(map(id, ast.walk(tree))) if rel == RULE_HOME else set()


def _home_rules(rel: str, tree: ast.Module) -> set[int]:
    """The nodes of the rule home's ``check_*`` functions."""
    if rel != RULE_HOME:
        return set()
    rules = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("check_")]
    return {id(node) for f in rules for node in ast.walk(f)}


def _copies(src: Path, is_copy, exempt=_whole_home) -> list[str]:
    """``file:line`` of each node under `src` that `is_copy` marks, outside
    the nodes `exempt` returns for a file (by default all of the rules' home)."""
    found = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        skipped = exempt(rel, tree)
        found.extend(f"{rel}:{node.lineno}" for node in ast.walk(tree) if id(node) not in skipped and is_copy(node))
    return found


def _number_check(node: ast.AST) -> bool:
    isnan = (isinstance(node, ast.Attribute) and node.attr == "isnan") or (
        isinstance(node, ast.ImportFrom) and any(a.name == "isnan" for a in node.names)
    )
    return isnan or "bool" in _isinstance_names(node)


def _container_check(node: ast.AST) -> bool:
    return {"list", "tuple"} <= set(_isinstance_names(node))


def _raises_validation_error(node: ast.AST) -> bool:
    exc = node.exc if isinstance(node, ast.Raise) else None
    return isinstance(exc, ast.Call) and getattr(exc.func, "id", None) == "ValidationError"


def _type_check(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.If)
        and any(getattr(getattr(n, "func", None), "id", None) == "isinstance" for n in ast.walk(node.test))
        and any(_raises_validation_error(n) for stmt in node.body for n in ast.walk(stmt))
    )


def number_rule_copies(src: Path) -> list[str]:
    """``file:line`` of each bool isinstance test or ``math.isnan`` outside
    the rule's home."""
    return _copies(src, _number_check)


def container_rule_copies(src: Path) -> list[str]:
    """``file:line`` of each isinstance test against list and tuple outside
    the rule's home."""
    return _copies(src, _container_check)


def type_rule_copies(src: Path) -> list[str]:
    """``file:line`` of each ``if isinstance(...)`` that raises ValidationError,
    outside the rule home's ``check_*`` rules."""
    return _copies(src, _type_check, _home_rules)


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


def test_type_scan_sees_the_rule_home():
    copies = type_rule_copies(SRC.parent)
    assert any(c.startswith("lrmt/corpus.py:") for c in copies)


def test_type_scan_finds_a_copy(tmp_path):
    (tmp_path / "copy.py").write_text(
        "def f(x):\n"
        "    if not isinstance(x, str):\n"
        "        raise ValidationError(f'{x!r} is not a string')\n"
        "    if isinstance(x, str) and x:\n"
        "        raise ProviderError('no reply')\n"
        "    if x is None:\n"
        "        raise ValidationError('none')\n"
        "def check_g(x):\n"
        "    if not (isinstance(x, int) or x):\n"
        "        if x != 0:\n"
        "            raise ValidationError('x')\n",
        encoding="utf-8",
    )
    # only corpus.py's check_* rules are exempt; its domain types are scanned
    (tmp_path / "corpus.py").write_text(
        "def check_h(x):\n"
        "    if not isinstance(x, str):\n"
        "        raise ValidationError('x')\n"
        "class Tag:\n"
        "    def __post_init__(self):\n"
        "        if not isinstance(self.code, str):\n"
        "            raise ValidationError('code')\n",
        encoding="utf-8",
    )
    assert type_rule_copies(tmp_path) == ["copy.py:2", "copy.py:9", "corpus.py:6"]


def test_type_rule_is_stated_once():
    copies = type_rule_copies(SRC)
    assert not copies, f"type checks outside {RULE_HOME}'s rules; call check_type: {', '.join(copies)}"
