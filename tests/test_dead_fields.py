"""Every field of a dataclass in `src/` is read somewhere in `src/`.

A field that no code reads is a setting that has no effect: a caller can
set it and nothing changes.  The check is done with `ast`: a field counts
as read when some attribute load in `src/` has its name.
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
