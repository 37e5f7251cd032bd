"""No package module reads another package module's underscore name.

A leading underscore marks a name as private to its module, so a read such
as `ad._make` from another module couples it to internals that its owner may
change freely.  The check runs `ast` over every module under `src/`: it
flags `from .mod import _name` and `mod._name` where `mod` is bound by an
import of a `cassi_ssm` module.  Dunder names such as `__name__` are public.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "cassi_ssm"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(expr) -> str | None:
    """`a.b.c` for a chain of names and attributes, else None."""
    parts = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if not isinstance(expr, ast.Name):
        return None
    return ".".join([expr.id, *reversed(parts)])


def private_reach_ins(tree: ast.Module) -> list[str]:
    modules = set()       # local names bound to package modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == PACKAGE:
                    modules.add(alias.asname or PACKAGE)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != PACKAGE:
                continue
            from_package = node.module in (None, PACKAGE)
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name}")
                elif from_package:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            owner = _dotted(node.value)
            if owner is not None and (owner in modules or owner.startswith(PACKAGE + ".")):
                found.append(f"line {node.lineno}: reads {owner}.{node.attr}")
    return found


def test_reach_ins_detected():
    tree = ast.parse(
        "import numpy as np\n"
        "from . import autodiff as ad, scans\n"
        "from .denoiser import _init_block, UNetConfig\n"
        "import cassi_ssm.cassi\n"
        "from other import _fine\n"
        "def f(x, obj):\n"
        "    y = ad._make(x, (), None)\n"
        "    z = scans._cache, ad.__name__, np._private, obj._slot, ad.Node\n"
        "    return cassi_ssm.cassi._detector_sum\n")
    assert sorted(private_reach_ins(tree)) == [
        "line 3: imports _init_block",
        "line 7: reads ad._make",
        "line 8: reads scans._cache",
        "line 9: reads cassi_ssm.cassi._detector_sum",
    ]


def test_no_private_reach_ins():
    problems = []
    for path in sorted(ROOT.glob(f"src/{PACKAGE}/**/*.py")):
        for found in private_reach_ins(ast.parse(path.read_text(), filename=str(path))):
            problems.append(f"{path.relative_to(ROOT)} {found}")
    assert not problems, "private names read across modules:\n" + "\n".join(problems)
