"""No module of the package imports a name it never uses, no private
module-level name or method goes unread by the package, no module
assigns a guest node's fields, mediation imports nothing from the trap
layer, ``mediate`` and ``apply_verdict`` have one call site, one trapped
call runs trap -> mediation -> guest once each, and in one place, and
nothing writes the SACL after load.

No linter ships with the toolchain, so this walks each module's syntax tree
with the standard library's ``ast``.  ``__init__.py`` is skipped by the
import check: its imports are the package's exports.
"""

import ast
from collections.abc import Iterator

import pytest

from conftest import REPO_ROOT

PACKAGE = sorted((REPO_ROOT / "src" / "hvguard").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_sees_an_unused_name():
    assert unused_imports("import os\nfrom x import a, b as c\nprint(a)\n") == ["line 1: os", "line 2: c"]


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


# Read by the standard library, not by name: a named tuple's ``_replace``
# builds its result through ``self._make``, which ``SyscallEvent`` overrides
# so that a replaced field is validated too.
READ_BY_THE_RUNTIME = {"_make"}


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """The private module-level functions, classes and assigned names, and
    the private methods of module-level classes (``_x``, not dunders), of
    the named sources that none of them reads, by name, as an attribute or
    through an import."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods = [item for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
                defined += [(module, item.lineno, item.name) for item in methods
                            if item.name.startswith("_") and not item.name.startswith("__")]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__") and name != "_"]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [f"{module} line {line}: {name}" for module, line, name in defined
            if name not in read and name not in READ_BY_THE_RUNTIME]


def test_checker_sees_an_unread_private_name():
    sources = {
        "a.py": "_A = 1\n_B: int = 2\n_c, _d = 3, 4\ndef _f(): pass\nclass _C: pass\n__all__ = []\nprint(_B, _d)\n",
        "b.py": "import a\nfrom a import _f\na._c\n",
    }
    assert unused_private_names(sources) == ["a.py line 1: _A", "a.py line 5: _C"]


def test_checker_sees_an_uncalled_private_method():
    # A handler that execute_syscall no longer calls is flagged; one it
    # still calls, a dunder and _make are not.
    sources = {
        "guest.py": "class Guest:\n"
        "    def __init__(self): pass\n"
        "    def execute_syscall(self): return self._node()\n"
        "    def _node(self): pass\n"
        "    def _do_open(self): pass\n"
        "    def _make(cls): pass\n",
    }
    assert unused_private_names(sources) == ["guest.py line 5: _do_open"]


def test_package_reads_every_private_name_it_defines():
    assert unused_private_names({p.name: p.read_text(encoding="utf-8") for p in PACKAGE}) == []


# A guest node is a plain slotted object, so nothing at run time stops a
# store to its fields: hard links share one node, and a store through one
# name would change the file under every name.  The guard is this check.
NODE_FIELDS = {"owner_uid", "owner_gid", "perms", "is_directory"}


def node_field_stores(source: str) -> list[str]:
    """Every store to a node field: an attribute assignment, augmented
    assignment or ``del``, and a ``setattr`` or ``object.__setattr__`` call
    naming the field."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            name = node.attr
        elif (
            isinstance(node, ast.Call)
            and (
                (isinstance(node.func, ast.Name) and node.func.id == "setattr")
                or (isinstance(node.func, ast.Attribute) and node.func.attr == "__setattr__")
            )
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            name = node.args[1].value
        else:
            continue
        if name in NODE_FIELDS:
            found.append(f"line {node.lineno}: {name}")
    return found


def test_checker_sees_a_node_field_store():
    source = (
        "node.perms = p\n"
        "a.b.owner_uid += 1\n"
        "del node.is_directory\n"
        "setattr(node, 'owner_gid', 0)\n"
        "object.__setattr__(node, 'perms', p)\n"
        "node.claimed_uid = 0\n"
        "setattr(node, name, 0)\n"
        "x = node.perms\n"
    )
    assert node_field_stores(source) == [
        "line 1: perms", "line 2: owner_uid", "line 3: is_directory", "line 4: owner_gid", "line 5: perms"
    ]


@pytest.mark.parametrize("module", PACKAGE, ids=lambda path: path.name)
def test_no_module_assigns_a_node_field(module):
    assert node_field_stores(module.read_text(encoding="utf-8")) == []


# The SACL is written only while it is built, and never after load, so a
# verdict's deciding check can be worked out again from it: each path's
# decision is check_access(sacl.entries.get(path), uid, gid, bits).
SACL_BUILDERS = {"Sacl.__init__", "parse_sacl", "generate_full_sacl"}
DICT_MUTATORS = {"__setitem__", "__delitem__", "__ior__", "clear", "pop", "popitem", "setdefault", "update"}


def nodes_by_scope(source: str) -> Iterator[tuple[ast.AST, str]]:
    """Each node of a source, with its scope: the dotted names of the class
    and function definitions around it, or ``<module>`` at top level."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            yield child, scope or "<module>"
            yield from visit(child, scope)

    return visit(ast.parse(source), "")


def entries_writes(source: str) -> list[str]:
    """Each write to an ``entries`` dict, as ``line N in Scope``: a store or
    ``del`` of an item or of the attribute itself, an augmented assignment,
    and a call of a mutating dict method.  The dict is ``x.entries`` or a
    name that the same scope, or one around it, binds to ``x.entries``."""
    nodes = list(nodes_by_scope(source))
    bound = {
        (scope, target.id)
        for node, scope in nodes
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Attribute) and node.value.attr == "entries"
        for target in node.targets if isinstance(target, ast.Name)
    }

    def is_alias(node, scope):
        if not isinstance(node, ast.Name):
            return False
        parts = scope.split(".")
        scopes = ["<module>"] + [".".join(parts[:i]) for i in range(1, len(parts) + 1)]
        return any((outer, node.id) in bound for outer in scopes)

    def is_entries(node, scope):
        return (isinstance(node, ast.Attribute) and node.attr == "entries") or is_alias(node, scope)

    return [
        f"line {node.lineno} in {scope}"
        for node, scope in nodes
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
            and is_entries(node.value, scope))
        or (isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)) and node.attr == "entries")
        or (isinstance(node, ast.AugAssign) and is_alias(node.target, scope))
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in DICT_MUTATORS and is_entries(node.func.value, scope))
    ]


def test_checker_sees_every_write_to_the_entries():
    source = (
        "class Sacl:\n"
        "    def __init__(self):\n"
        "        self.entries = {}\n"
        "def parse_sacl(text):\n"
        "    entries = Sacl().entries\n"
        "    entries['/a'] = 1\n"
        "def mediate(sacl, p, entries):\n"
        "    get = sacl.entries.get\n"
        "    x = get(p), sacl.entries[p], entries.pop(p)\n"
        "    sacl.entries[p] = None\n"
        "    del sacl.entries[p]\n"
        "    sacl.entries.update({})\n"
        "    sacl.entries |= {}\n"
        "    table = sacl.entries\n"
        "    def inner():\n"
        "        table.setdefault(p, None)\n"
        "        table |= {}\n"
        "    sacl.entries = {}\n"
    )
    assert entries_writes(source) == [
        "line 3 in Sacl.__init__",
        "line 6 in parse_sacl",
        "line 10 in mediate",
        "line 11 in mediate",
        "line 12 in mediate",
        "line 13 in mediate",
        "line 16 in mediate.inner",
        "line 17 in mediate.inner",
        "line 18 in mediate",
    ]


def test_nothing_writes_the_sacl_after_load():
    writes = [
        f"{module.name}: {write}"
        for module in PACKAGE
        for write in entries_writes(module.read_text(encoding="utf-8"))
        if write.partition(" in ")[2] not in SACL_BUILDERS
    ]
    assert writes == []


def package_imports(source: str) -> set[str]:
    """The package modules a source imports from, by bare name: ``from .trap
    import x``, ``from . import trap``, ``from hvguard.trap import x``,
    ``from hvguard import trap`` and ``import hvguard.trap`` each give
    ``trap``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("hvguard" if node.level else None, node.module)))
            names = [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("hvguard."))
    return found


def test_checker_sees_every_spelling_of_a_package_import():
    source = (
        "from .trap import A\n"
        "from . import sacl\n"
        "from hvguard.guest import B\n"
        "import hvguard.engine\n"
        "from hvguard import cli\n"
        "import os, hvguard\n"
        "from typing import C\n"
    )
    assert package_imports(source) == {"trap", "sacl", "guest", "engine", "cli"}


def test_mediator_imports_nothing_from_the_trap_layer():
    # Mediation is the policy; how a call is trapped, and in which mode, is
    # the mechanism, which only the Simulation wires to it.
    source = (REPO_ROOT / "src" / "hvguard" / "mediator.py").read_text(encoding="utf-8")
    assert "trap" not in package_imports(source)


def calls_by_scope(source: str, names: set[str]) -> list[str]:
    """Each call of one of the named functions, by bare name or as an
    attribute (``engine.mediate(...)``), as ``name in Scope`` (see
    ``nodes_by_scope``)."""
    found = []
    for node, scope in nodes_by_scope(source):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                found.append(f"{name} in {scope}")
    return found


def test_checker_sees_a_call_in_every_scope():
    source = (
        "f(1)\n"
        "class A:\n"
        "    def g(self):\n"
        "        return m.f(lambda: f(2))\n"
        "def h():\n"
        "    def inner(): f\n"
        "    return inner\n"
    )
    assert calls_by_scope(source, {"f"}) == ["f in <module>", "f in A.g", "f in A.g"]


def test_mediation_has_one_call_site_that_the_bench_times():
    # One trap -> mediate -> guest path for the engine and the benchmark:
    # Simulation._decide is the only caller of mediate and apply_verdict,
    # and the benchmark's timed subclass overrides that step and no other.
    sites = [
        f"{module.name}: {site}"
        for module in PACKAGE
        for site in calls_by_scope(module.read_text(encoding="utf-8"), {"mediate", "apply_verdict"})
    ]
    assert sites == ["engine.py: mediate in Simulation._decide", "engine.py: apply_verdict in Simulation._decide"]
    bench = ast.parse((REPO_ROOT / "src" / "hvguard" / "bench.py").read_text(encoding="utf-8"))
    (timed,) = [node for node in bench.body if isinstance(node, ast.ClassDef) and node.name == "_TimedSimulation"]
    assert [node.name for node in timed.body if isinstance(node, ast.FunctionDef)] == ["_decide"]


def event_builds(source: str) -> list[str]:
    """Each place a source builds a ``SyscallEvent``, as ``line N in Scope``
    (see ``nodes_by_scope``): a call of the class or of one of its
    attributes (``SyscallEvent._make``), a call given the class first
    (``tuple.__new__(SyscallEvent, ...)``), and a ``_replace`` call.  The
    class's own ``nulled`` builds through ``type(self)``, so it is not one."""
    found = []
    for node, scope in nodes_by_scope(source):
        if isinstance(node, ast.Call):
            func = node.func
            named = [func, getattr(func, "value", None), *node.args[:1]]
            if getattr(func, "attr", None) == "_replace" or any(
                isinstance(name, ast.Name) and name.id == "SyscallEvent" for name in named
            ):
                found.append(f"line {node.lineno} in {scope}")
    return found


def test_checker_sees_every_way_to_build_an_event():
    source = (
        "def a(): return SyscallEvent(1, 2, 'open')\n"
        "def b(e): return SyscallEvent._make(e), e._replace(path=None)\n"
        "def c(e): return tuple.__new__(SyscallEvent, e), _tuple_new(SyscallEvent, e)\n"
        "def d(e: SyscallEvent): return e.nulled(), isinstance(e, SyscallEvent), _tuple_new(type(e), e)\n"
    )
    assert event_builds(source) == [
        "line 1 in a", "line 2 in b", "line 2 in b", "line 3 in c", "line 3 in c"
    ]


def test_one_trapped_call_runs_trap_then_mediation_then_guest():
    # Simulation.syscall is the only caller of handle_trap and of
    # execute_syscall, and the only place that builds a SyscallEvent other
    # than through nulled(); it runs handle_trap, self._decide and
    # guest.execute_syscall once each, in that order: the trap returns only
    # its record, and the call is decided and executed in the engine's own
    # frame.
    sources = {module.name: module.read_text(encoding="utf-8") for module in PACKAGE}
    sites = [
        f"{name}: {site}"
        for name, source in sources.items()
        for site in calls_by_scope(source, {"handle_trap", "execute_syscall"})
    ]
    assert sites == [
        "engine.py: handle_trap in Simulation.syscall", "engine.py: execute_syscall in Simulation.syscall"
    ]
    builds = [
        f"{name}: {build.partition(' in ')[2]}" for name, source in sources.items() for build in event_builds(source)
    ]
    assert builds == ["engine.py: Simulation.syscall"]
    steps = sorted(
        (node.lineno, node.col_offset, ast.unparse(node.func))
        for node, scope in nodes_by_scope(sources["engine.py"])
        if scope == "Simulation.syscall" and isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in {"handle_trap", "_decide", "execute_syscall"}
    )
    assert [func for _, _, func in steps] == ["handle_trap", "self._decide", "guest.execute_syscall"]
