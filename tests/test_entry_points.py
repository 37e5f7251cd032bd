"""`as_node` is called only where arrays and floats really enter the graph.

Tape ops take `Node`s.  Arrays and floats enter through `constant`,
`parameter`, or one `as_node` call in an entry point that receives them:
`denoise` (the cube), `embed_with_mask` (`sigma`), `selective_scan` (its
six inputs) and `data_step_node` (`mu`).  The check runs `ast` over every
module under `src/` and counts the `as_node` calls in each function, so a
coercion added where only `Node`s arrive fails here.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "cassi_ssm"
ENTRY_POINTS = {
    "denoiser.denoise": 1,
    "denoiser.embed_with_mask": 1,
    "ssm.selective_scan": 1,
    "unfolding.data_step_node": 1,
}


def as_node_calls(tree: ast.Module, module: str) -> Counter:
    """Calls of `as_node` or `<x>.as_node`, counted by enclosing `module.def`."""
    found = Counter()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "as_node":
                    found[owner] += 1
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
            else:
                visit(child, owner)

    visit(tree, module)
    return found


def test_calls_counted_per_function():
    tree = ast.parse(
        "from . import autodiff as ad\n"
        "from .autodiff import as_node\n"
        "ZERO = ad.as_node(0.0)\n"
        "def f(x, y):\n"
        "    return ad.as_node(x), as_node(y), ad.constant(x)\n"
        "class C:\n"
        "    def apply(self, v):\n"
        "        return [ad.as_node(t) for t in v]\n"
        "def g(x):\n"
        "    def inner(v):\n"
        "        return ad.as_node(v)\n"
        "    return inner(x)\n")
    assert as_node_calls(tree, "m") == {"m": 1, "m.f": 2, "m.C.apply": 1, "m.g.inner": 1}


def test_as_node_only_at_entry_points():
    found = Counter()
    for path in sorted(PACKAGE_DIR.glob("**/*.py")):
        module = ".".join(path.relative_to(PACKAGE_DIR).with_suffix("").parts)
        found += as_node_calls(ast.parse(path.read_text(), filename=str(path)), module)
    assert dict(found) == ENTRY_POINTS
