"""Design guards: no helper without a caller, no field without a reader.

Every function, method and class defined in ``src/acdol`` must be named at
least twice, as a whole word, across ``src/acdol``, ``perfbench`` and
``benchmarks``: its definition and one use.  Every field of a dataclass
defined there must be read as ``.field`` somewhere in those directories.
Tests do not count as a use.  The checks are by name, so they are only a
floor: a name shared by two definitions, or mentioned in a docstring,
passes.  Special methods (``__add__`` and the like) are called by the
interpreter, not by name, and are left out.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
USE_DIRS = ("src/acdol", "perfbench", "benchmarks")


def _source_nodes():
    for path in sorted((ROOT / "src" / "acdol").glob("*.py")):
        yield from ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def _use_text():
    return "\n".join(path.read_text(encoding="utf-8")
                     for d in USE_DIRS
                     for path in sorted((ROOT / d).rglob("*.py")))


def _defined_names():
    names = set()
    for node in _source_nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if not (node.name.startswith("__")
                    and node.name.endswith("__")):
                names.add(node.name)
    return names


def _dataclass_fields():
    """{"Class.field"} for every field of every dataclass in src/acdol."""
    fields = set()
    for node in _source_nodes():
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(dec)
                for dec in node.decorator_list):
            fields.update("%s.%s" % (node.name, stmt.target.id)
                          for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign))
    return fields


def test_every_definition_has_a_use():
    text = _use_text()
    unused = sorted(name for name in _defined_names()
                    if len(re.findall(r"\b%s\b" % re.escape(name), text)) < 2)
    assert unused == []


def test_every_dataclass_field_is_read():
    text = _use_text()
    unread = sorted(
        field for field in _dataclass_fields()
        if not re.search(r"\.%s\b" % re.escape(field.split(".")[1]), text))
    assert unread == []
