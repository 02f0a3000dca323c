"""Packaging: every third-party module the package imports is declared.

An AST scan of ``src/repro`` collects the top-level module of every
absolute import; modules outside ``sys.stdlib_module_names`` must name
a requirement in ``pyproject.toml``'s ``[project] dependencies``.
Imports inside a ``try`` whose handler catches ``ImportError`` (or
``ModuleNotFoundError``) are optional and exempt.  The CI test matrix
starts at the ``requires-python`` floor, so the oldest interpreter the
package claims is the oldest one tested.
"""

import ast
import pathlib
import re
import sys
import tomllib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
OPTIONAL_GUARDS = {"ImportError", "ModuleNotFoundError"}


def _guards_import(handler: ast.ExceptHandler) -> bool:
    caught = handler.type
    names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return any(isinstance(n, ast.Name) and n.id in OPTIONAL_GUARDS for n in names)


def _optional_imports(tree: ast.AST) -> set:
    """ids of import nodes guarded by ``try/except ImportError``."""
    guarded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(map(_guards_import, node.handlers)):
            for stmt in node.body:
                guarded.update(id(n) for n in ast.walk(stmt))
    return guarded


def third_party_imports() -> dict:
    """Top-level module → files importing it unconditionally."""
    found: dict = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        optional = _optional_imports(tree)
        for node in ast.walk(tree):
            if id(node) in optional:
                continue
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top == "repro" or top in sys.stdlib_module_names:
                    continue
                found.setdefault(top, []).append(str(path.relative_to(ROOT)))
    return found


def declared_requirements() -> set:
    """Normalized names of ``[project] dependencies``."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    return {
        re.split(r"[\s<>=!~;\[(]", req, maxsplit=1)[0].lower().replace("-", "_")
        for req in project.get("dependencies", [])
    }


def test_scan_sees_the_numeric_stack():
    assert "numpy" in third_party_imports()


def test_every_third_party_import_is_declared():
    declared = declared_requirements()
    missing = {
        module: files
        for module, files in third_party_imports().items()
        if module.lower() not in declared
    }
    assert not missing, f"imported but not in pyproject dependencies: {missing}"


def _version_key(version: str) -> tuple:
    return tuple(int(part) for part in version.split("."))


def test_ci_test_matrix_starts_at_the_python_floor():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=([\d.]+)"', pyproject, re.M)
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    matrix = re.search(r"^\s*python-version: \[([^\]]*)\]", ci, re.M)
    assert floor and matrix, "requires-python or the CI test matrix not found"
    versions = re.findall(r'"([\d.]+)"', matrix.group(1))
    assert min(versions, key=_version_key) == floor.group(1)
