"""The package has no runtime dependencies: it imports only the standard
library and itself, and it parses under the oldest Python it declares."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "lexalign").glob("*.py"))
OLDEST_PYTHON = (3, 10)


def _absolute_imports(tree: ast.AST) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_sources_are_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "cli.py", "dictstore.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library_and_the_package(path):
    tree = ast.parse(path.read_text("utf-8"), filename=str(path))
    foreign = [
        name
        for name in _absolute_imports(tree)
        if name.partition(".")[0] not in sys.stdlib_module_names | {"lexalign"}
    ]
    assert not foreign, f"{path.name} imports {foreign}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_parses_as_the_oldest_python_declared(path):
    assert 'requires-python = ">=%d.%d"' % OLDEST_PYTHON in (ROOT / "pyproject.toml").read_text("utf-8")
    ast.parse(path.read_text("utf-8"), filename=str(path), feature_version=OLDEST_PYTHON)


def test_only_errors_py_decides_how_an_input_file_is_read():
    # one encoding and one line rule: each reader calls errors.read_text and splits at "\n"
    forks = [
        f"{path.name}:{line_no}"
        for path in SOURCES
        if path.name != "errors.py"
        for line_no, line in enumerate(path.read_text("utf-8").split("\n"), start=1)
        if "splitlines(" in line or '"utf-8-sig"' in line
    ]
    assert not forks, f"read input files through errors.read_text: {forks}"
    assert '"utf-8-sig"' in (ROOT / "src" / "lexalign" / "errors.py").read_text("utf-8")


def test_only_ontomodel_py_orders_entities():
    # load_ontology lists entities, subclasses and properties in IRI order; no reader re-sorts them
    forks = [
        f"{path.name}:{line_no}"
        for path in SOURCES
        for line_no, line in enumerate(path.read_text("utf-8").split("\n"), start=1)
        if "lambda e: e.iri" in line
    ]
    assert not forks, f"read entities in the order load_ontology gives them: {forks}"
