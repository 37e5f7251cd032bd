"""No function or class is defined twice in one module or class body.

A second `def` of the same name silently replaces the first, so a test class
can lose a test without any failure.  This is pyflakes' F811 check, done with
`ast` over every source and test file.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def redefinitions(tree: ast.Module) -> list[str]:
    found = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
        first_line: dict[str, int] = {}
        for stmt in scope.body:
            if not isinstance(stmt, DEFINITIONS):
                continue
            if stmt.name in first_line:
                found.append(f"{stmt.name} (lines {first_line[stmt.name]} and {stmt.lineno})")
            else:
                first_line[stmt.name] = stmt.lineno
    return found


def test_redefinitions_detected():
    tree = ast.parse("def f(): pass\nclass C:\n    def g(self): pass\n    def g(self): pass\n"
                     "def f(): pass\n")
    assert redefinitions(tree) == ["f (lines 1 and 5)", "g (lines 3 and 4)"]


def test_no_name_defined_twice():
    problems = []
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")]):
        for found in redefinitions(ast.parse(path.read_text(), filename=str(path))):
            problems.append(f"{path.relative_to(ROOT)}: {found}")
    assert not problems, "defined twice:\n" + "\n".join(problems)
