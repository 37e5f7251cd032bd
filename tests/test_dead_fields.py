"""Every field of a dataclass in `src/` is read somewhere in `src/`, and
every top-level function, class and constant, and every method and
property of a class, in `src/` is named by the code that runs the package.

A field that no code reads is a setting that has no effect: a caller can
set it and nothing changes.  The check is done with `ast`: a field counts
as read when some attribute load in `src/` has its name.

A top-level name that nothing names is code nothing runs.  It counts as
named when a name, attribute, import or string constant in `src/` or
`perfbench/` spells it outside its own definition; strings count because
`perfbench/spans.py` looks functions up by name.  `tests/` does not count:
a function only tests call is a test helper, and its home is
`tests/oracles.py`.  Dunder names such as `__version__` are read by
tooling, not by code, and are not checked.

A method or property counts as named when some `src/` or `perfbench/` code
spells it outside its own definition, by the same rule; dunder methods are
called by Python itself and are not checked.
"""

import ast
from collections import Counter
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
USERS = ("src", "perfbench")


def defined_names(stmt: ast.stmt) -> set[str]:
    """Names a top-level statement binds: a def, a class or a plain constant."""
    if isinstance(stmt, DEFINITIONS):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")}


def spellings(node: ast.AST):
    """Each name a name, attribute, import or string constant under `node` spells, once per use."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def spelled_names(node: ast.AST) -> set[str]:
    return set(spellings(node))


def unnamed_definitions(trees: dict) -> list[str]:
    """Top-level names of `src/` trees that no live `src/` or `perfbench/` statement names.

    `trees` maps repo-relative paths to modules.  A definition's own
    statement does not count, so recursion is not a use.  Nor does a
    statement all of whose names are already flagged, so a name that only
    dead code names is dead too; the flags grow until they stop changing.
    """
    stmts = []
    for path, tree in trees.items():
        top = path.split("/", 1)[0]
        if top not in USERS:
            continue
        for stmt in tree.body:
            own = {(path, name) for name in defined_names(stmt)} if top == "src" else set()
            stmts.append((own, spelled_names(stmt) - {name for _, name in own}))
    defined = [pair for own, _ in stmts for pair in sorted(own)]
    dead, flagged = None, set()
    while flagged != dead:
        dead = flagged
        named = set().union(*(spelled for own, spelled in stmts if not own or not own <= dead))
        flagged = {pair for pair in defined if pair[1] not in named}
    return [f"{path}:{name}" for path, name in defined if (path, name) in dead]


def test_unnamed_definitions_detected():
    lib = ast.parse(
        "__version__ = '1'\n"
        "LIMIT = 4\n"
        "UNUSED = 5\n"
        "BENCH_ONLY: int = 6\n"
        "class Used:\n"
        "    pass\n"
        "class Orphan:\n"
        "    def method(self):\n"
        "        return Orphan()\n"
        "def helper():\n"
        "    return Used(LIMIT)\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def by_string():\n"
        "    pass\n"
        "def imported():\n"
        "    pass\n"
        "def tested_only():\n"
        "    pass\n"
        "def chain_head():\n"
        "    return chain_link()\n"
        "def chain_link():\n"
        "    return CHAIN_END\n"
        "CHAIN_END = 7\n")
    bench = ast.parse(
        "from lib import imported\n"
        "import lib\n"
        "lib.helper(lib.BENCH_ONLY)\n"
        "getattr(lib, 'by_string')\n")
    test = ast.parse(
        "import lib\n"
        "lib.tested_only(lib.UNUSED, lib.Orphan, lib.recursive)\n")
    trees = {"src/lib.py": lib, "perfbench/bench.py": bench, "tests/test_lib.py": test}
    assert unnamed_definitions(trees) == [
        "src/lib.py:UNUSED", "src/lib.py:Orphan", "src/lib.py:recursive", "src/lib.py:tested_only",
        "src/lib.py:chain_head", "src/lib.py:chain_link", "src/lib.py:CHAIN_END"]


def user_trees() -> dict:
    """Each module of `src/` and `perfbench/`, keyed by its repo-relative path."""
    paths = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("perfbench/**/*.py")])
    return {p.relative_to(ROOT).as_posix(): ast.parse(p.read_text(), filename=str(p))
            for p in paths}


def test_every_top_level_definition_is_named():
    dead = unnamed_definitions(user_trees())
    assert not dead, "top-level names only tests or nothing name: " + ", ".join(dead)


def unnamed_members(trees: dict) -> list[str]:
    """Methods and properties of `src/` classes that no `src/` or `perfbench/` code names.

    `trees` maps repo-relative paths to modules.  A member's own definition
    does not count, so recursion is not a use; `tests/` does not count either.
    """
    users = {path: tree for path, tree in trees.items() if path.split("/", 1)[0] in USERS}
    spelled = Counter(name for tree in users.values() for name in spellings(tree))
    dead = []
    for path, tree in users.items():
        if not path.startswith("src/"):
            continue
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for member in cls.body:
                if (not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        or member.name.startswith("__") and member.name.endswith("__")):
                    continue
                if spelled[member.name] <= Counter(spellings(member))[member.name]:
                    dead.append(f"{path}:{cls.name}.{member.name}")
    return dead


def test_unnamed_members_detected():
    lib = ast.parse(
        "class Store:\n"
        "    def __init__(self):\n"
        "        self.data = {}\n"
        "    def __len__(self):\n"
        "        return len(self.data)\n"
        "    def get(self, key):\n"
        "        return self.data[key]\n"
        "    @property\n"
        "    def size(self):\n"
        "        return len(self)\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls()\n"
        "    def by_string(self):\n"
        "        pass\n"
        "    def recursive(self, n):\n"
        "        return self.recursive(n - 1) if n else 0\n"
        "    def tested_only(self):\n"
        "        pass\n"
        "    def unused(self):\n"
        "        pass\n"
        "def lookup(store):\n"
        "    return store.get(1)\n")
    bench = ast.parse(
        "import lib\n"
        "store = lib.Store.make()\n"
        "print(store.size)\n"
        "getattr(store, 'by_string')()\n")
    test = ast.parse(
        "import lib\n"
        "lib.Store().tested_only()\n"
        "lib.Store().recursive(2)\n")
    trees = {"src/lib.py": lib, "perfbench/bench.py": bench, "tests/test_lib.py": test}
    assert unnamed_members(trees) == [
        "src/lib.py:Store.recursive", "src/lib.py:Store.tested_only", "src/lib.py:Store.unused"]


def test_every_method_and_property_is_named():
    dead = unnamed_members(user_trees())
    assert not dead, "methods and properties only tests or nothing name: " + ", ".join(dead)
