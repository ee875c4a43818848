"""No module under ``src/repro`` imports a name it never uses.

A stdlib-``ast`` scan: every name an ``import`` binds must be read
somewhere in its module, counting names inside string annotations
(``"QuerySpec"`` behind ``TYPE_CHECKING``).  Exempt are package
``__init__.py`` files and names listed in a module's ``__all__`` (both
re-export on purpose), and imports marked ``# noqa: F401``, which are
kept for their side effect.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _annotation_names(node):
    """Names read by an annotation, including quoted ones."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value,
                                                     mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source):
    """``(line, name)`` of every imported name ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    used = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) \
                    and node.module == "__future__":
                continue
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound != "*":
                    imported.append((node.lineno, bound))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) \
                and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            used |= _annotation_names(node.returns)
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            exported |= {element.value for element in node.value.elts}
    return [(line, name) for line, name in imported
            if name not in used and name not in exported]


def test_checker_flags_an_unused_import():
    source = ("from typing import List, Optional\n"
              "import os\n\n"
              "def f(x: 'Optional[int]') -> List[int]:\n"
              "    return [x]\n")
    assert unused_imports(source) == [(2, "os")]


def test_checker_exempts_all_and_noqa():
    source = ("import os\n"
              "import sys  # noqa: F401\n"
              "__all__ = ['os']\n")
    assert unused_imports(source) == []


def test_no_unused_imports_under_src():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path.read_text()):
            found.append("{}:{}: {}".format(
                path.relative_to(SRC.parent), line, name))
    assert not found, "unused imports:\n" + "\n".join(found)
