"""Design guards: no helper without a caller, no field without a reader.

Every function, method and class defined in ``src/acdol`` must be used in
``src/acdol``, ``perfbench`` or ``benchmarks``, and every field of a
dataclass defined there must be read as ``.field`` there.  Uses are read
from the syntax tree: a name, an attribute, an imported name, or a word of
a string that is not a docstring (``perfbench/tracing.py`` names the
functions it times by string).  A method counts as used only when it is
read as an attribute (``.name``), so a local variable of the same spelling
does not keep it.  Docstrings and comments are not uses, and tests do not
count.  The checks are by name, so they are only a floor: a name shared by
two definitions passes.  So the names defined more than once are pinned in
``SHARED_NAMES``, and a new one fails until it is reviewed.
Special methods (``__add__`` and the like) are called by the interpreter,
not by name, and are left out.  Every name a module imports must be used
in that module, read off its syntax tree the same way.  The star formula
``harmonic.star_adjoint`` is pinned to its one reader,
``adjointness_checks``, so that no second adjoint route comes back;
``forms.build_differential`` to ``pipeline.analyze``, so that the harmonic
layer gets no differential of its own; and ``Matrix.inverse`` to its two
readers, ``liealg.complexify`` and the K = H^{-1} of
``HermitianStructure.__init__``, so that no slot inverse comes back:
delbar_mub solves with the compressions instead.  ``Matrix.solve`` is
pinned to its two readers, ``harmonic.delb_mub`` and the witnesses of
``spectral.dolbeault_delta1``, so that no solve for class coordinates
comes back: the cohomology tables keep no basis of the classes, and the
induced maps are read as ranks.  The mubar decomposition's
certificate ``harmonic.mub_decomposition`` is pinned to its two readers,
``layer_checks``, the input layer's certificate that the battery and the
``harmonic`` command share, and the metric probe, which certifies its own
layer, so that the layer's construction does not run it again.
``HermitianStructure`` is pinned to ``build_hermitian``, so that every
layer comes from one constructor and no second object holds a metric, and
``HermitianStructure.anticommutator`` to ``nearly_kahler_checks`` and
``mixed_laplacian_fit``, the nearly Kahler identities, so that no method
assembles the slot Laplacians of every tag again.
``Matrix.from_blocks`` is pinned to ``forms.assemble``, which places every
block between two slot lists, and to the two-block ``nijenhuis_operator``,
so that no block dict indexed by hand comes back; ``forms.verify_relations``
is pinned to ``pipeline.relations_check``, so that the d^2 = 0 identities
run as a check of the command that prints them, not as a stage of
``analyze``.
"""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
USE_DIRS = ("src/acdol", "perfbench", "benchmarks")

# A negative control: the guards must flag the helpers named only in a
# docstring or a comment, the method whose name is read only as a local
# variable and the field named only in a docstring, and nothing else.
SYNTHETIC = '''
"""Mentions helper_in_docstring."""
import dataclasses


@dataclasses.dataclass
class Record:
    """Its field ``rec.unread`` is named only here."""
    read: int
    unread: int


def used(rec):
    return rec.read


def helper_in_docstring():
    pass  # helper_in_comment


def helper_in_comment():
    pass


def timed_by_string():
    pass


class Shape:
    def area(self):
        pass


def measured(shape):
    area = 2
    return shape, area


TIMED = {"module.timed_s": ("module.timed_by_string",)}
print(used(Record(1, 2)), measured(Shape()))
'''


# Names defined more than once in src/acdol, reviewed: methods of several
# types (conj, dim, from_columns, m, zero), and a kernel function and a
# method of the same name (rref).
SHARED_NAMES = {"conj", "dim", "from_columns", "m", "rref", "zero"}

# A negative control for the pin: "twin" is defined twice, once per class.
SHARED_SYNTHETIC = '''
class First:
    def twin(self):
        pass

    def __eq__(self, other):
        pass


class Second:
    def twin(self):
        pass

    def __eq__(self, other):
        pass


def single():
    pass
'''


def _trees(dirs):
    return [ast.parse(path.read_text(encoding="utf-8"))
            for d in dirs for path in sorted((ROOT / d).rglob("*.py"))]


def _docstrings(tree):
    """The string nodes of ``tree`` that are docstrings."""
    return {node.body[0].value for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def _uses(trees):
    """(names, attributes) used in ``trees``: each name, imported name and
    word of a string that is not a docstring, and each attribute."""
    names, attrs = set(), set()
    for tree in trees:
        docs = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and node not in docs):
                names.update(re.findall(r"\w+", node.value))
    return names, attrs


def _definitions(trees):
    """(name, is_method) of each function, method and class defined in
    ``trees``, once per definition, special methods left out."""
    out = []
    for tree in trees:
        methods = {stmt for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) for stmt in node.body
                   if isinstance(stmt, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))}
        out.extend((node.name, node in methods) for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.ClassDef))
                   and not (node.name.startswith("__")
                            and node.name.endswith("__")))
    return out


def _shared_names(trees):
    return {name for name, count in Counter(
        name for name, _ in _definitions(trees)).items() if count > 1}


def _dataclass_fields(trees):
    """{"Class.field"} for every field of every dataclass in ``trees``."""
    fields = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(dec)
                    for dec in node.decorator_list):
                fields.update("%s.%s" % (node.name, stmt.target.id)
                              for stmt in node.body
                              if isinstance(stmt, ast.AnnAssign))
    return fields


def _unused(defining, using):
    """The names defined in ``defining`` that ``using`` never uses: a
    method is used only as an attribute, a function or class also as a
    name."""
    names, attrs = _uses(using)
    return sorted({name for name, method in _definitions(defining)
                   if name not in attrs and (method or name not in names)})


def _unread(defining, using):
    _, attrs = _uses(using)
    return sorted(field for field in _dataclass_fields(defining)
                  if field.split(".")[1] not in attrs)


def _readers(trees, name):
    """The outermost function (``Class.method`` for a method) around each
    read of ``name``, as a name or an attribute, in ``trees``; a read
    outside every function is labelled by its module or class body."""
    found = []
    for tree in trees:
        for top in tree.body:
            units = ([("%s.%s" % (top.name, getattr(node, "name", "<body>")),
                       node) for node in top.body]
                     if isinstance(top, ast.ClassDef)
                     else [(getattr(top, "name", "<module>"), top)])
            found.extend(label for label, unit in units
                         for node in ast.walk(unit)
                         if getattr(node, "id", None) == name
                         or (isinstance(node, ast.Attribute)
                             and node.attr == name))
    return found


# A negative control for the reader guard: "oracle" is read by a function,
# through an attribute by a method and by the module body.
READER_SYNTHETIC = '''
def oracle():
    pass


def first():
    return [oracle() for _ in range(2)]


class Holder:
    def second(self):
        return self.oracle


ALIAS = oracle
'''


def test_star_formula_is_only_the_adjointness_oracle():
    # the one adjoint is the Gram adjoint; the star formula -⋆ δ̄ ⋆ is read
    # only where the battery compares it with that adjoint
    assert _readers(_trees(["src/acdol"]), "star_adjoint") == [
        "adjointness_checks"]


def test_one_differential_per_analysis():
    # the harmonic layer and the metric probe run on the analysis's cm
    assert _readers(_trees(["src/acdol"]), "build_differential") == [
        "analyze"]


def test_no_slot_inverse():
    # the one inverse of the Gram data is the m x m K = H^{-1}; the other
    # is complexify's change of frame
    assert _readers(_trees(["src/acdol"]), "inverse") == [
        "HermitianStructure.__init__", "complexify"]


def test_no_class_solve():
    # the quotients are read through ranks, so the only solves are the
    # witnesses of delta_1 and delbar_mub from the compressions
    assert _readers(_trees(["src/acdol"]), "solve") == [
        "delb_mub", "dolbeault_delta1"]


def test_mubar_certificate_runs_once_per_layer():
    # delb_mub only computes; each layer's decomposition is certified by
    # layer_checks, which the battery and the harmonic command read (the
    # input's), or by the probe (its own)
    assert _readers(_trees(["src/acdol"]), "mub_decomposition") == [
        "layer_checks", "metric_independence_probe"]


def test_one_handle_on_a_metric():
    # every Hermitian layer comes from build_hermitian, and no other
    # object (a dataclass field, say) names the layer's type
    assert _readers(_trees(["src/acdol"]), "HermitianStructure") == [
        "build_hermitian"]


def test_anticommutators_only_for_the_nearly_kahler_identities():
    # the slot Laplacians are anticommutator(tag, tag + "*"), read by the
    # nearly Kahler battery alone; the fit reads [partial, delbar]
    assert _readers(_trees(["src/acdol"]), "anticommutator") == [
        "nearly_kahler_checks", "mixed_laplacian_fit"]


def test_every_block_matrix_is_assembled_between_slot_lists():
    # the total differential, d* and the witness systems are each one
    # assemble call; the Nijenhuis operator joins two blocks of degree one
    assert _readers(_trees(["src/acdol"]), "from_blocks") == [
        "assemble", "nijenhuis_operator"]


def test_relations_run_only_as_a_check():
    # analyze computes no d^2 = 0 report: the battery and the pages and
    # harmonic certificates read it through relations_check
    assert _readers(_trees(["src/acdol"]), "verify_relations") == [
        "relations_check"]


def test_reader_guard_flags_every_reader():
    assert _readers([ast.parse(READER_SYNTHETIC)], "oracle") == [
        "first", "Holder.second", "<module>"]


def test_every_definition_has_a_use():
    assert _unused(_trees(["src/acdol"]), _trees(USE_DIRS)) == []


def test_every_dataclass_field_is_read():
    assert _unread(_trees(["src/acdol"]), _trees(USE_DIRS)) == []


def test_guards_do_not_count_docstrings_and_comments():
    trees = [ast.parse(SYNTHETIC)]
    assert _unused(trees, trees) == ["area", "helper_in_comment",
                                     "helper_in_docstring"]
    assert _unread(trees, trees) == ["Record.unread"]


def test_names_defined_more_than_once_are_pinned():
    assert _shared_names(_trees(["src/acdol"])) == SHARED_NAMES


def test_shared_name_guard_flags_a_second_definition():
    assert _shared_names([ast.parse(SHARED_SYNTHETIC)]) == {"twin"}


# A negative control for the import guard: "unused" and "spare" are
# imported and never read; "used" is read in a call, "path" through an
# attribute.
IMPORT_SYNTHETIC = '''
from __future__ import annotations

import os.path
from module import used, unused as spare


def reader():
    return used(os.path.sep)
'''


def _unused_imports(tree):
    """The names ``tree`` binds by import and never reads as a name."""
    bound = {alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_every_imported_name_is_used():
    paths = sorted((ROOT / "src/acdol").rglob("*.py"))
    assert {path.name: _unused_imports(ast.parse(path.read_text(
        encoding="utf-8"))) for path in paths} == {path.name: []
                                                  for path in paths}


def test_import_guard_flags_an_unused_import():
    assert _unused_imports(ast.parse(IMPORT_SYNTHETIC)) == ["spare"]
