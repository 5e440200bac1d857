"""Rule: a public ``src/repro`` name has a reader outside its tests.

A top-level ``def`` / ``class`` whose name only its own tests mention is
code that nobody can name: it is kept compiling, tested and documented
for no caller.  Deleting such names by hand does not last — the next one
grows back — so this rule looks each public top-level name up in a word
index of every non-test file under ``src/``, ``tools/``, ``benchmarks/``,
``examples/`` and ``docs/`` plus ``README.md``.  A hit in prose counts:
a name the docs teach is library API.  What does not count:

* the name's own definition (its ``def`` / ``class`` statement and
  body, so recursion and self-construction are not readers);
* ``__init__.py`` re-exports — its imports and ``__all__`` publish a
  name, they do not use it;
* anything under ``tests/`` or named ``test_*.py`` / ``conftest.py``.

A registration decorator (``@register_scenario``, ``@register_backend``
— any decorator whose name starts with ``register``) is a reader: the
registry finds the definition by name at run time.

The index is a word count, so a name that collides with a common word
(``run``, ``load``) always passes — the rule errs towards silence.  It
is built once per run (per rule instance and repository root), not once
per checked file.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from collections.abc import Iterator
from pathlib import Path

from tools.reprolint.engine import Finding, ModuleContext, Rule

#: where a reader may live, relative to the repository root
CORPUS_DIRS = ("src", "tools", "benchmarks", "examples", "docs")
CORPUS_FILES = ("README.md",)
CORPUS_SUFFIXES = frozenset({".py", ".md"})

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _is_test_file(path: Path) -> bool:
    return ("tests" in path.parts or path.name == "conftest.py"
            or path.name.startswith("test_"))


def _reexport_lines(tree: ast.Module) -> set[int]:
    """Line numbers of an ``__init__.py``'s imports and ``__all__``."""
    lines: set[int] = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
                and "__all__" in {t.id for t in ast.walk(node)
                                  if isinstance(t, ast.Name)}):
            lines.update(range(node.lineno, (node.end_lineno or node.lineno) + 1))
    return lines


def _file_words(path: Path) -> Counter:
    text = path.read_text(errors="replace")
    if path.name == "__init__.py":
        try:
            skip = _reexport_lines(ast.parse(text))
        except SyntaxError:
            skip = set()
        text = "\n".join(line for i, line in enumerate(text.splitlines(), 1)
                         if i not in skip)
    return Counter(_WORD_RE.findall(text))


def build_word_index(root: Path) -> Counter:
    """Word → occurrences over every reader file under *root*."""
    files = [root / name for name in CORPUS_FILES if (root / name).is_file()]
    for d in CORPUS_DIRS:
        if (root / d).is_dir():
            files.extend(sorted(
                f for f in (root / d).rglob("*")
                if f.suffix in CORPUS_SUFFIXES and f.is_file()
                and "__pycache__" not in f.parts
                and not _is_test_file(f.relative_to(root))))
    index: Counter = Counter()
    for f in files:
        index.update(_file_words(f))
    return index


def _is_registration(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = (target.attr if isinstance(target, ast.Attribute)
            else getattr(target, "id", ""))
    return name.startswith("register")


class UnreferencedPublicNameRule(Rule):
    id = "unreferenced-public-name"
    hint = ("delete it (and the tests that test only it); library API "
            "that users call goes into tools/reprolint/baseline.json with "
            "the reason it stays")
    description = ("a public top-level def/class under src/repro must be "
                   "named outside its own definition, tests and re-exports")

    def __init__(self) -> None:
        self._indexes: dict[Path, Counter] = {}

    def _index(self, root: Path) -> Counter:
        root = Path(root).resolve()
        if root not in self._indexes:
            self._indexes[root] = build_word_index(root)
        return self._indexes[root]

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_dir("src/repro"):
            return
        index = self._index(ctx.config.root)
        for node in ctx.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("_") or any(
                    _is_registration(d) for d in node.decorator_list):
                continue
            own = "\n".join(ctx.lines[node.lineno - 1:node.end_lineno])
            own_count = sum(1 for w in _WORD_RE.findall(own) if w == node.name)
            if index[node.name] > own_count:
                continue
            kind = "class" if isinstance(node, ast.ClassDef) else "function"
            yield self.finding(
                ctx, node,
                f"public {kind} {node.name} is named nowhere outside its "
                f"definition, tests and re-exports")
