"""Design guards: no helper without a caller.

Every function, method and class defined in ``src/acdol`` must be named at
least twice, as a whole word, across ``src/acdol``, ``perfbench`` and
``benchmarks``: its definition and one use.  Tests do not count as a use.
The check is by name, so it is only a floor: a name shared by two
definitions, or mentioned in a docstring, passes.  Special methods
(``__add__`` and the like) are called by the interpreter, not by name, and
are left out.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
USE_DIRS = ("src/acdol", "perfbench", "benchmarks")


def _defined_names():
    names = set()
    for path in sorted((ROOT / "src" / "acdol").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    names.add(node.name)
    return names


def test_every_definition_has_a_use():
    text = "\n".join(path.read_text(encoding="utf-8")
                     for d in USE_DIRS
                     for path in sorted((ROOT / d).rglob("*.py")))
    unused = sorted(name for name in _defined_names()
                    if len(re.findall(r"\b%s\b" % re.escape(name), text)) < 2)
    assert unused == []
