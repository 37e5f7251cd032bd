"""Every field of a dataclass in `src/` is read somewhere in `src/`, and
every top-level function and class in `src/` is named somewhere else.

A field that no code reads is a setting that has no effect: a caller can
set it and nothing changes.  The check is done with `ast`: a field counts
as read when some attribute load in `src/` has its name.

A top-level function or class that nothing names is code nothing runs.  It
counts as named when a name, attribute, import or string constant in
`src/`, `tests/` or `perfbench/` spells it outside its own definition;
strings count because `perfbench/spans.py` looks functions up by name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def dead_fields(trees) -> list[str]:
    fields, read = [], set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and is_dataclass(node):
                fields += [(node.name, stmt.target.id) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{cls}.{name}" for cls, name in fields if name not in read]


def test_dead_fields_detected():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "import dataclasses\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    used: int\n"
        "    unused: int = 0\n"
        "@dataclasses.dataclass\n"
        "class B:\n"
        "    written: int\n"
        "class Plain:\n"
        "    ignored: int\n"
        "def f(a, b):\n"
        "    b.written = a.used\n")
    assert dead_fields([tree]) == ["A.unused", "B.written"]


def test_no_dataclass_field_is_unread():
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(ROOT.glob("src/**/*.py"))]
    assert not dead_fields(trees), "dataclass fields no code reads: " + ", ".join(dead_fields(trees))


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def spelled_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def unnamed_definitions(defining: dict, others) -> list[str]:
    """Top-level defs of the `defining` trees (label -> tree) that no tree names.

    A definition's own body does not count, so recursion is not a use.
    """
    named, defined = set(), []
    for label, tree in defining.items():
        for stmt in tree.body:
            own = stmt.name if isinstance(stmt, DEFINITIONS) else None
            if own is not None:
                defined.append((label, own))
            named |= spelled_names(stmt) - {own}
    for tree in others:
        named |= spelled_names(tree)
    return [f"{label}:{name}" for label, name in defined if name not in named]


def test_unnamed_definitions_detected():
    lib = ast.parse(
        "class Used:\n"
        "    pass\n"
        "class Orphan:\n"
        "    def method(self):\n"
        "        return Orphan()\n"
        "def helper():\n"
        "    return Used()\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def by_string():\n"
        "    pass\n"
        "def imported():\n"
        "    pass\n")
    caller = ast.parse(
        "from lib import imported\n"
        "import lib\n"
        "lib.helper()\n"
        "getattr(lib, 'by_string')\n")
    assert unnamed_definitions({"lib": lib}, [caller]) == ["lib:Orphan", "lib:recursive"]


def test_every_top_level_definition_is_named():
    def parse(paths):
        return {str(p.relative_to(ROOT)): ast.parse(p.read_text(), filename=str(p))
                for p in sorted(paths)}

    src = parse(ROOT.glob("src/**/*.py"))
    others = parse([*ROOT.glob("tests/**/*.py"), *ROOT.glob("perfbench/**/*.py")])
    dead = unnamed_definitions(src, others.values())
    assert not dead, "top-level definitions nothing names: " + ", ".join(dead)
