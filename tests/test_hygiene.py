"""Source hygiene of the mcsip package, checked on its syntax trees."""

import ast
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mcsip"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads: no Name node refers to them
    and no string in its __all__ exports them."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_import_scan_sees_an_unused_name():
    src = "import os\nimport re\nfrom typing import Callable, Sequence\n" \
          "x: Sequence = re.compile('a')\n"
    assert unused_imports(src) == ["Callable (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# module-level definitions no other mcsip code refers to, kept on purpose
UNREFERENCED_OK = {
    "solve_mip": "the acceptance gate imports it",
    "verify_farkas": "the acceptance gate imports it",
    "max_violation": "the tests' feasibility reference",
    "expand_aggregated_solution": "pins the paper's semantics of an aggregated solution",
    "evaluate_policy_extensive": "pins the paper's semantics of an extracted LDR policy",
}


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions and classes that no Name or Attribute node
    outside their own definition refers to, in any of the modules, and that
    the package's __init__ does not import."""
    defs: list[tuple[str, str]] = []                  # (module, name)
    users: dict[str, set[tuple[str, str | None]]] = {}  # name -> (module, top-level def)
    exported: set[str] = set()
    for mod, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                defs.append((mod, owner))
            if mod == "__init__" and isinstance(stmt, ast.ImportFrom):
                exported.update(alias.asname or alias.name for alias in stmt.names)
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else \
                    node.attr if isinstance(node, ast.Attribute) else None
                if name is not None:
                    users.setdefault(name, set()).add((mod, owner))
    return sorted(f"{mod}.{name}" for mod, name in defs
                  if name not in exported and not users.get(name, set()) - {(mod, name)})


def test_unreferenced_definition_scan_sees_dead_code():
    sources = {
        "__init__": "from .a import api\n",
        "a": "def api():\n    return 1\n\n"
             "def helper():\n    return 2\n\n"
             "def dead(n):\n    return dead(n - 1)\n\n"
             "class Box:\n    pass\n",
        "b": "from . import a\n\n"
             "def use(x: 'Box') -> None:\n    a.helper()\n\n"
             "class Orphan:\n    def method(self):\n        return Orphan\n\n"
             "use(None)\n",
    }
    # a string annotation, a recursive call and a self-reference do not count
    assert unreferenced_definitions(sources) == ["a.Box", "a.dead", "b.Orphan"]


def test_no_unreferenced_definitions():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    found = unreferenced_definitions(sources)
    assert [d for d in found if d.split(".")[1] not in UNREFERENCED_OK] == []
    # an exception that is referenced again leaves the list
    assert {d.split(".")[1] for d in found} >= set(UNREFERENCED_OK)


def unread_members(sources: dict[str, str], readers: list[str]) -> list[str]:
    """Methods, properties and annotated fields of the classes in sources
    that no Attribute node (other than an assignment target) reads, in
    sources or readers.  Dunders are skipped, and so are NamedTuple
    classes, whose fields are read by unpacking."""
    read = set()
    for source in [*sources.values(), *readers]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                read.add(node.attr)
    found = []
    for mod, source in sources.items():
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef) or any(
                    getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple"
                    for base in cls.bases):
                continue
            for stmt in cls.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = stmt.name
                elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    name = stmt.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")) and name not in read:
                    found.append(f"{mod}.{cls.name}.{name}")
    return sorted(found)


def test_unread_member_scan_sees_dead_members():
    sources = {
        "a": "from typing import NamedTuple\n\n"
             "class Box:\n    size: int\n    spare: int\n    label = 'box'\n\n"
             "    def __len__(self):\n        return self.size\n\n"
             "    @property\n    def area(self):\n        return 0\n\n"
             "    def unused(self):\n        self.spare = 1\n\n"
             "class Pair(NamedTuple):\n    left: int\n    right: int\n",
    }
    readers = ["from a import Box\nprint(Box().area)\n"]
    # a store is no read; a dunder, an unannotated attribute and a
    # NamedTuple field are not scanned
    assert unread_members(sources, readers) == ["a.Box.spare", "a.Box.unused"]


def test_every_class_member_is_read():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    readers = [p.read_text() for d in ("tests", "perfbench")
               for p in sorted((ROOT / d).glob("*.py"))]
    assert unread_members(sources, readers) == []


def stray_tolerances(source: str) -> list[int]:
    """Lines holding a float literal strictly between 0 and 1e-3: a
    tolerance written in place instead of named in mcsip.tolerances.  A
    negative literal is a minus applied to a positive one, so it counts."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and type(node.value) is float
                  and 0.0 < node.value < 1e-3)


def test_stray_tolerance_scan_sees_small_floats():
    src = "a = x < 1e-6\nb = y - -5e-4\nc = 1e-3 + 0.0 + 2 + 0.5\nd = 'ab' * 1\n" \
          "e = abs(z) <= 1E-9 and True\nf = 1e-12j\n"
    # 1e-3 itself, zero, ints, bools and complex literals are not flagged
    assert stray_tolerances(src) == [1, 2, 5]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "tolerances.py"], ids=lambda p: p.name)
def test_every_tolerance_is_named_in_the_tolerances_module(path):
    assert stray_tolerances(path.read_text()) == []


# the modules that may read time.monotonic, and what for; every other stop
# decision reads the Deadline
CLOCK_READERS = {"lp_engine": "the Deadline", "cli": "a record's wall_time"}


def clock_reads(source: str) -> list[int]:
    """Lines that read time.monotonic, as an attribute of time or imported
    from it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "monotonic" and \
                isinstance(node.value, ast.Name) and node.value.id == "time":
            lines.append(node.lineno)
        if isinstance(node, ast.ImportFrom) and node.module == "time" and \
                any(alias.name == "monotonic" for alias in node.names):
            lines.append(node.lineno)
    return sorted(lines)


def test_clock_read_scan_sees_both_forms():
    src = "import time\nfrom time import monotonic, sleep\nt = time.monotonic()\n" \
          "u = time.perf_counter()\n"
    assert clock_reads(src) == [2, 3]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.stem not in CLOCK_READERS], ids=lambda p: p.name)
def test_only_the_deadline_and_wall_time_read_the_clock(path):
    assert clock_reads(path.read_text()) == []


HIGHS = "scipy.optimize._highspy._core"
STARTUP_CHECKS = {
    "mcsip first": f"""
import mcsip.cli
heavy = [m for m in ("scipy.optimize", "scipy.linalg", "scipy.special", "scipy.sparse",
                    "scipy._lib._array_api") if m in sys.modules]
assert heavy == [], heavy
from scipy.optimize import linprog
res = linprog([1.0], bounds=[(2.0, 3.0)])
assert res.status == 0 and res.x[0] == 2.0, res
from scipy.optimize._highspy import _core
assert _core is sys.modules["{HIGHS}"] is mcsip.lp_engine.highs
""",
    "scipy.optimize first": f"""
import scipy.optimize
before = sys.modules["{HIGHS}"]
import mcsip.cli
assert mcsip.lp_engine.highs is before is scipy.optimize._highspy._core
""",
}


@pytest.mark.parametrize("order", sorted(STARTUP_CHECKS))
def test_mcsip_loads_highs_without_scipy_optimize(order):
    """Importing mcsip runs no scipy.optimize package init and loads no
    scipy.sparse (nor its array-API layer), and mcsip and scipy.optimize
    share one HiGHS module in either import order."""
    code = f"import sys\nsys.path.insert(0, {str(SRC.parent)!r})\n" + STARTUP_CHECKS[order]
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr


def unset_defaults(sources: dict[str, str], callers: list[str]) -> list[str]:
    """Defaulted parameters of the functions and methods in sources that no
    call in sources or callers sets, by keyword or by position.  Calls are
    matched by name, an __init__ by its class's name; a call with *args or
    **kw sets every parameter."""
    positional: dict[str, int] = {}  # name -> most positional arguments of a call
    keywords: dict[str, set[str]] = {}
    starred: set[str] = set()
    for source in [*sources.values(), *callers]:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if any(isinstance(a, ast.Starred) for a in node.args) or \
                    any(k.arg is None for k in node.keywords):
                starred.add(name)
            positional[name] = max(positional.get(name, 0), len(node.args))
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
    found = []
    for mod, source in sources.items():
        tree = ast.parse(source)
        owner = {id(fn): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = owner.get(id(fn))
            params = [*fn.args.posonlyargs, *fn.args.args]
            if cls is not None and not any(getattr(d, "id", None) == "staticmethod"
                                           for d in fn.decorator_list):
                params = params[1:]  # self or cls
            call = cls.name if cls is not None and fn.name == "__init__" else fn.name
            defaulted = [(i, a.arg) for i, a in enumerate(params)
                         if i >= len(params) - len(fn.args.defaults)]
            # a keyword-only parameter, at position inf, is set by keyword only
            defaulted += [(float("inf"), a.arg) for a, d in zip(fn.args.kwonlyargs,
                                                                fn.args.kw_defaults)
                          if d is not None]
            label = f"{mod}.{cls.name}.{fn.name}" if cls is not None else f"{mod}.{fn.name}"
            found += [f"{label} {arg}" for i, arg in defaulted if call not in starred
                      and positional.get(call, 0) <= i and arg not in keywords.get(call, ())]
    return sorted(found)


def test_unset_default_scan_sees_knobs_no_caller_turns():
    sources = {
        "a": "class Box:\n    def __init__(self, size, label='box', *, spare=0):\n"
             "        self.size = size\n\n"
             "    def grow(self, by=1, again=False):\n        return self\n\n"
             "    @staticmethod\n    def make(n=0):\n        return Box(n)\n\n"
             "def pack(box, tight=True, *, loose=False):\n    return box\n\n"
             "def wrap(box, paper=None):\n    return box\n",
    }
    callers = ["from a import Box, pack, wrap\nBox(1, 'crate').grow(2)\nBox.make(3)\n"
               "pack(*[Box(2)])\nwrap(Box(3), **{})\n"]
    # a keyword-only parameter is set by keyword only; a star call sets all
    assert unset_defaults(sources, callers) == ["a.Box.__init__ spare", "a.Box.grow again"]


def test_every_default_is_set_by_some_caller():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    callers = [(ROOT / "tests" / "test_acceptance.py").read_text()]
    callers += [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))
                if not p.name.startswith("test_")]
    assert unset_defaults(sources, callers) == []
