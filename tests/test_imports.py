"""Every name a module of the package imports is used by that module, only
``source`` percent-encodes or decodes URI path segments, and one module owns
each file-system primitive of the file layer."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sitemapsync"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never references.

    A name counts as used when it is loaded anywhere in the module (an
    attribute chain such as ``os.path.join`` uses ``os``) or listed in
    ``__all__``. ``from __future__`` imports are skipped.
    """
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
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detects_unused_and_spares_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from json import dumps, loads as load_json\n"
        "from re import compile\n"
        "__all__ = ['compile']\n"
        "print(os.path.join('a', 'b'), dumps({}))\n"
    )
    assert unused_imports(source) == [(3, "sys"), (4, "load_json")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_source_quotes_uri_segments(path):
    """One URI<->path mapping: ``source`` owns ``quote`` and ``unquote``."""
    names = {
        alias.name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "urllib.parse"
        for alias in node.names
    }
    if path.name != "source.py":
        assert not names & {"quote", "unquote"}


# One file layer: which module alone may use each file-system primitive.
FILE_LAYER_OWNERS = {
    "tempfile": "atomic.py",
    "os.fsync": "atomic.py",
    "os.replace": "atomic.py",
    "os.scandir": "source.py",
    "os.walk": "source.py",
}


def file_layer_uses(source: str) -> set[str]:
    """Which of ``FILE_LAYER_OWNERS`` a module imports or references."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found.add(f"{node.value.id}.{node.attr}")
    return found & FILE_LAYER_OWNERS.keys()


def test_finds_file_layer_uses():
    source = (
        "import os, tempfile\n"
        "from os import walk\n"
        "os.replace('a', 'b')\n"
        "f = os.fsync\n"
        "os.path.join('a')\n"
    )
    assert file_layer_uses(source) == {"tempfile", "os.walk", "os.replace", "os.fsync"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_one_file_layer(path):
    """Only ``atomic`` makes files durable, and only ``source`` walks a tree."""
    uses = file_layer_uses(path.read_text(encoding="utf-8"))
    assert {name for name in uses if FILE_LAYER_OWNERS[name] != path.name} == set()


def check_entry_callers(source: str) -> set[str]:
    """Names of the functions in a module that call ``_check_entry``."""
    callers = set()
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) == "_check_entry"
                    or getattr(node.func, "attr", None) == "_check_entry"
                ):
                    callers.add(func.name)
    return callers


def test_finds_check_entry_callers():
    source = (
        "def a(entry):\n    _check_entry(entry)\n"
        "def b(entry):\n    codec._check_entry(entry)\n"
        "def c(entry):\n    return entry\n"
    )
    assert check_entry_callers(source) == {"a", "b"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_parse_document_validates_documents(path):
    """Documents are checked where they enter: each entry as a destination parses it.

    The source builds its documents from data checked where it entered
    (``ChangeLog.append``, ``Inventory.validate``) and does not check them again.
    """
    expected = {"parse_document"} if path.name == "codec.py" else set()
    assert check_entry_callers(path.read_text(encoding="utf-8")) == expected
