"""Every import in the package and its tests is used, so is every function,
class, method and module-level name the package defines, the package stays
exact (no floating point, complex numbers or true division), it imports no
module kept out of its start-up, nothing outside the standard library and
no module-level cache, each command loads only the layers it runs, it
raises only the three errors of its exit-code contract, only the command
line and the matrix group read the kind-D scalars, and the README names
only what the package has and its library example runs."""
from __future__ import annotations

import ast
import builtins
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mckay import errors

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))
FILES = SOURCES + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, except `from __future__`
    and the names a module lists in `__all__`."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_scan_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport sys\nprint(sys.argv)\n"
    assert unused_imports(source) == ["os (line 2)"]
    assert unused_imports("from .m import f\n__all__ = ['f']\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module):
    """(name, qualified name, line) of each top-level function, class and
    assigned name and of each method of those classes, dunders aside."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*defs, ast.ClassDef)):
            yield node.name, node.name, node.lineno
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not _is_dunder(name.id):
                        yield name.id, name.id, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not _is_dunder(item.name):
                    yield item.name, f"{node.name}.{item.name}", item.lineno


def _reads(tree: ast.Module) -> set[str]:
    """Names and attribute names the module reads."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def unused_definitions(package: dict[str, str], readers: list[str]) -> list[str]:
    """The top-level functions, classes, methods and assigned names of the
    package's modules (path -> source) that no reader source reads as a name
    or an attribute; a listing in `__all__` is not a read."""
    read: set[str] = set()
    for source in readers:
        read |= _reads(ast.parse(source))
    return [
        f"{path}: {qualified} (line {line})"
        for path, source in package.items()
        for name, qualified, line in _definitions(ast.parse(source))
        if name not in read
    ]


def test_the_scan_sees_an_unused_definition():
    module = (
        "__all__ = ['Kept', 'dropped']\n"
        "class Kept:\n    def __init__(self):\n        self.spare = 1\n"
        "    def used(self):\n        return 1\n    def spare(self):\n        return 2\n"
        "def dropped():\n    return Kept().used()\n"
        "def _helper():\n    return 0\n"
    )
    caller = "from m import Kept\nprint(Kept, _helper())\n"
    assert unused_definitions({"m.py": module}, [module, caller]) == [
        "m.py: Kept.spare (line 7)",
        "m.py: dropped (line 9)",
    ]


def test_the_scan_sees_an_unused_module_name():
    # A constant that only a deleted method read, as ARROW_TYPES was once
    # arrows were indices, is flagged; one read in an annotation is not.
    module = (
        "__all__ = ['STEPS', 'TYPES']\n__version__ = '1'\n"
        "STEPS = {1: (1, 0)}\nTYPES = (1, 2, 3)\n_SPARE, _USED = 1, 2\n"
        "Key = tuple[int, int]\n_IDENTITY: Key = (0, 0)\n"
        "def step(t):\n    return STEPS[t], _IDENTITY, _USED\n"
    )
    assert unused_definitions({"m.py": module}, [module, "from m import step\nstep(1)\n"]) == [
        "m.py: TYPES (line 4)",
        "m.py: _SPARE (line 5)",
    ]


def test_every_definition_in_the_package_is_used():
    package = {str(p.relative_to(ROOT)): p.read_text() for p in SOURCES}
    assert unused_definitions(package, [p.read_text() for p in FILES]) == []


# No skew multiplicity depends on the kind-D scalars, so only the command
# line, which validates and prints them, and the matrix group read them.
SCALAR_NAMES = {"scalars", "root_order", "involution_scalars"}
SCALAR_READERS = {"cli.py", "monomial_group.py"}


def scalar_reads(source: str) -> list[str]:
    """The scalar names a module reads as a name or an attribute, takes as
    a parameter or passes as a keyword."""
    tree = ast.parse(source)
    names = _reads(tree) | {
        node.arg for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.keyword))
    }
    return sorted(names & SCALAR_NAMES)


def test_the_scan_sees_a_scalar_read():
    source = (
        "def k_action(q, kind, scalars=None):\n    return involution_scalars(2, scalars)\n"
        "m = group.root_order\ndoc = {'scalars': m}\n"
    )
    assert scalar_reads(source) == ["involution_scalars", "root_order", "scalars"]
    assert scalar_reads("build(q, root_order=2, **kw)\n") == ["root_order"]
    assert scalar_reads("Action = namedtuple('Action', 'quiver kind scalars')\n") == []


def test_only_the_command_line_and_the_group_read_the_scalars():
    found = {
        p.name: scalar_reads(p.read_text())
        for p in sorted((ROOT / "src" / "mckay").glob("*.py"))
        if p.name not in SCALAR_READERS
    }
    assert {name: names for name, names in found.items() if names} == {}


INEXACT_CALLS = {"float", "complex", "round"}
INEXACT_MODULES = {"cmath", "numpy", "fractions", "decimal", "statistics"}


def inexact_constructs(source: str) -> list[str]:
    """Float and complex literals, true division (`/`, `/=`), calls of
    float, complex and round, and imports of inexact-arithmetic modules."""
    found: list[tuple[int, str]] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in INEXACT_CALLS
        ):
            found.append((node.lineno, f"call of {node.func.id}"))
        else:
            for module in _imported_modules(node):
                if module.split(".")[0] in INEXACT_MODULES:
                    found.append((node.lineno, f"import of {module}"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def _imported_modules(node: ast.AST) -> list[str]:
    """The absolute modules an import statement names; [] for anything else."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module]
    return []


def test_the_scan_sees_inexact_arithmetic():
    source = (
        "import cmath\nfrom numpy.linalg import det\nx = 1.5 + 2j\n"
        "y = a / b\ny /= 2\nz = round(x) + float(y)\nw = a // b\n"
        "from .fractions import f\n"
    )
    assert inexact_constructs(source) == [
        "import of cmath (line 1)",
        "import of numpy.linalg (line 2)",
        "literal 1.5 (line 3)",
        "literal 2j (line 3)",
        "true division (line 4)",
        "true division (line 5)",
        "call of float (line 6)",
        "call of round (line 6)",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_the_package_is_exact(path):
    assert inexact_constructs(path.read_text()) == []


# Importing dataclasses pulls inspect, ast, dis and tokenize into every
# CLI start; the package's records are namedtuple subclasses instead.
START_UP_MODULES = {"dataclasses"}


def start_up_imports(source: str) -> list[str]:
    """Imports of modules the package keeps out of its start-up."""
    return [
        f"import of {module} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        for module in _imported_modules(node)
        if module.split(".")[0] in START_UP_MODULES
    ]


def test_the_scan_sees_a_start_up_import():
    source = (
        "import collections\nimport dataclasses\n"
        "from dataclasses import dataclass, replace\nfrom .dataclasses import f\n"
    )
    assert start_up_imports(source) == [
        "import of dataclasses (line 2)",
        "import of dataclasses (line 3)",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_the_package_starts_without_dataclasses(path):
    assert start_up_imports(path.read_text()) == []


# Every memo is per object or per call, so a one-shot CLI call runs as fast
# as a warm one, and the runtime is standard library only.
CACHE_DECORATORS = {"lru_cache", "cache"}


def import_breaches(source: str) -> list[str]:
    """Imports of functools' module-level caches, by name or as an
    attribute of functools, and absolute imports of modules outside the
    standard library."""
    found: list[tuple[int, str]] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [
                (node.lineno, f"cache functools.{alias.name}")
                for alias in node.names
                if alias.name in CACHE_DECORATORS
            ]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
            and node.attr in CACHE_DECORATORS
        ):
            found.append((node.lineno, f"cache functools.{node.attr}"))
        for module in _imported_modules(node):
            if module.split(".")[0] not in sys.stdlib_module_names:
                found.append((node.lineno, f"non-stdlib import of {module}"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_the_scan_sees_a_cache_and_a_non_stdlib_import():
    source = (
        "from __future__ import annotations\n"
        "from functools import cached_property, lru_cache, reduce\n"
        "import functools\n@functools.cache\ndef f():\n    return 1\n"
        "import numpy as np\nfrom hypothesis.strategies import integers\n"
        "import collections.abc\nfrom .cyclotomic import reduce_mod_cyclotomic\n"
    )
    assert import_breaches(source) == [
        "cache functools.lru_cache (line 2)",
        "cache functools.cache (line 4)",
        "non-stdlib import of numpy (line 7)",
        "non-stdlib import of hypothesis.strategies (line 8)",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_cache_and_only_the_standard_library(path):
    assert import_breaches(path.read_text()) == []


# The command line imports each layer inside the commands that run it, so
# --help and a usage error load none, and a command loads its own layers.
_CUT_LAYERS = {"lattice", "mckay_quiver", "cuts"}
_SKEW_LAYERS = _CUT_LAYERS | {"skew", "graphiso"}
LAYERS_LOADED = [
    (["--help"], 0, set()),
    (["frobnicate"], 2, set()),
    (["quiver"], 2, set()),
    (["quiver", "--basis", "3,0;0,3"], 0, {"lattice", "mckay_quiver"}),
    (["cut-exists", "--basis", "3,0;0,3", "--gamma", "3,3,3"], 0, {"lattice", "cuts"}),
    (["group-info", "--basis", "3,0;0,3", "--kind", "D"], 0, {"lattice", "monomial_group"}),
    (["cut-build", "--basis", "3,2;0,1", "--gamma", "1,1,1"], 0, _CUT_LAYERS),
    (["cut-validate", "--basis", "3,2;0,1", "--arrow-ids", "6,7,8"], 0, _CUT_LAYERS),
    (["cut-enumerate", "--basis", "3,2;0,1"], 0, _CUT_LAYERS),
    (["oracle-compare", "--max-det", "4"], 0, _CUT_LAYERS),
    (["unskew-roundtrip", "--basis", "3,0;0,3"], 0, _SKEW_LAYERS),
    (["skew", "--basis", "3,0;0,3", "--kind", "C"], 0, _SKEW_LAYERS | {"monomial_group"}),
    (["classify", "--basis", "2,0;0,2", "--kind", "D"], 0, _SKEW_LAYERS | {"monomial_group"}),
]
_MAIN_IN_A_FRESH_PROCESS = (
    "import io, json, sys\n"
    "from mckay import cli\n"
    "sys.stdout = sys.stderr = io.StringIO()\n"
    "code = cli.main(json.loads(sys.argv[1]))\n"
    "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'mckay')\n"
    "print(json.dumps([code, loaded]), file=sys.__stdout__)\n"
)


@pytest.mark.parametrize("argv, code, layers", LAYERS_LOADED, ids=[" ".join(a) for a, _, _ in LAYERS_LOADED])
def test_a_command_loads_only_its_layers(argv, code, layers):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _MAIN_IN_A_FRESH_PROCESS, json.dumps(argv)],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    expected = sorted({"mckay", "mckay.cli", "mckay.errors"} | {f"mckay.{m}" for m in layers})
    assert json.loads(done.stdout) == [code, expected]


ALLOWED_RAISES = {"ValueError", "PreconditionFailed", "InternalInvariantViolation"}
EXCEPTION_NAMES = {
    name for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
} | set(errors.__all__)


def _name(node: ast.expr) -> str:
    """The last dotted component of a Name or Attribute, else ''."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def error_contract_breaches(source: str, defines_errors: bool = False) -> list[str]:
    """Exception classes defined outside the errors module, and raises of
    anything but ValueError, PreconditionFailed or InternalInvariantViolation
    (a bare re-raise included)."""
    found: list[tuple[int, str]] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and not defines_errors:
            bases = [_name(b) for b in node.bases]
            if any(b in EXCEPTION_NAMES for b in bases):
                found.append((node.lineno, f"exception class {node.name}"))
        elif isinstance(node, ast.Raise):
            exc = node.exc
            raised = _name(exc.func if isinstance(exc, ast.Call) else exc) if exc else ""
            if raised not in ALLOWED_RAISES:
                found.append((node.lineno, f"raise of {raised or 'the caught error'}"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_the_scan_sees_the_error_contract_broken():
    source = (
        "class Oops(ValueError):\n    pass\n"
        "class Fine:\n    pass\n"
        "raise ValueError('x')\nraise errors.PreconditionFailed('y') from None\n"
        "raise KeyError('z')\nraise TypeError\ntry:\n    f()\nexcept KeyError:\n    raise\n"
        "class Later(errors.McKayError):\n    pass\n"
    )
    assert error_contract_breaches(source) == [
        "exception class Oops (line 1)",
        "raise of KeyError (line 7)",
        "raise of TypeError (line 8)",
        "raise of the caught error (line 12)",
        "exception class Later (line 13)",
    ]
    assert error_contract_breaches("class E(Exception):\n    pass\n", defines_errors=True) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_one_exception_per_exit_code(path):
    assert error_contract_breaches(path.read_text(), defines_errors=path.name == "errors.py") == []


def readme_tokens(text: str) -> list[str]:
    """The distinct backticked tokens of a Markdown text that look like a
    dotted identifier, such as `mckay.skew`, `cli.main` or `_replace`."""
    found = re.findall(r"`([^`\n]+)`", text)
    return sorted({t for t in found if re.fullmatch(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*", t)})


def _imports_and_resolves(path: str) -> bool:
    """Whether the dotted path is a module, or attributes of one."""
    parts = path.split(".")
    for k in range(len(parts), 0, -1):
        try:
            value = importlib.import_module(".".join(parts[:k]))
        except ImportError:
            continue
        for attr in parts[k:]:
            if not hasattr(value, attr):
                return False
            value = getattr(value, attr)
        return True
    return False


def package_words(sources: dict[str, str]) -> set[str]:
    """The names, attribute names, string literals and module names of the
    package's modules (module name -> source)."""
    words = {"mckay", *sources}
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                words.add(node.id)
            elif isinstance(node, ast.Attribute):
                words.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                words.add(node.value)
    return words


def unresolved_tokens(text: str, words: set[str]) -> list[str]:
    """The README tokens that name nothing: a `mckay` path that does not
    import, or another token with a dotted part outside the words."""
    return [
        token
        for token in readme_tokens(text)
        if not (
            _imports_and_resolves(token)
            if token == "mckay" or token.startswith("mckay.")
            else all(part in words for part in token.split("."))
        )
    ]


def test_the_scan_sees_a_stale_readme_token():
    text = (
        "`mckay.skew` and `mckay.skew._demonet` run `_TwistCarrier`, "
        "`skew_quiver(action)`, `cli.main` and `mckay.skew.dual_twist_action`.\n"
    )
    words = package_words({"cli": "def main():\n    return main\n"})
    assert readme_tokens(text) == [
        "_TwistCarrier", "cli.main", "mckay.skew", "mckay.skew._demonet",
        "mckay.skew.dual_twist_action",
    ]
    assert unresolved_tokens(text, words) == ["_TwistCarrier", "mckay.skew.dual_twist_action"]


def test_the_readme_names_only_what_exists():
    sources = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "mckay").glob("*.py"))}
    text = (ROOT / "README.md").read_text()
    assert len(readme_tokens(text)) >= 30
    assert unresolved_tokens(text, package_words(sources)) == []


def test_the_readme_library_example_runs():
    text = (ROOT / "README.md").read_text()
    (example,) = [
        block for block in re.findall(r"```python\n(.*?)```", text, re.S)
        if "transport_cut(skew_quiver(action)" in block
    ]
    namespace: dict = {}
    exec(compile(example, "README.md", "exec"), namespace)
    s = namespace["s"]
    # 3I of kind C: the invariant cut's degrees on every block of Q_N * C3
    assert len(s.vertices) == 11 and s.group_size == 27
    assert s.degrees is not None and s.degrees.keys() == s.mult.keys()
    assert set(s.degrees.values()) == {0, 1}
