"""Every import in the package and its tests is used, and the package
stays exact: no floating point, complex numbers or true division."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


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
        elif isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.level == 0
        ):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                modules = [node.module]
            for module in modules:
                if module.split(".")[0] in INEXACT_MODULES:
                    found.append((node.lineno, f"import of {module}"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


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


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "src").rglob("*.py")),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_the_package_is_exact(path):
    assert inexact_constructs(path.read_text()) == []
