"""Command line behaviour: outputs, exit codes, determinism, golden files."""

import difflib
import io
import json
import os
import sys

import pytest

from acdol import catalog, docio, forms, harmonic, liealg, pipeline, spectral
from acdol.cli import main
from acdol.forms import MAX_M, MUBAR, RELATIONS
from acdol.harmonic import HermitianStructure
from acdol.kernel import ONE, Scalar
from acdol.linalg import Matrix, Subspace
from conftest import GOLDEN_INPUTS, golden_dir, input_path, named_analysis
from test_harmonic import _count_laplacians
from test_liealg import break_conjugation, pairs_J


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    old_out, old_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stderr = old_out, old_err
    return code, out.getvalue(), err.getvalue()


def test_list():
    code, out, _ = run_cli(["list"])
    assert code == 0
    assert out.split() == catalog.builtin_names()


def test_example_dump_parses_back():
    code, out, _ = run_cli(["example", "kt-J"])
    assert code == 0
    doc = docio.parse_document(out)
    assert doc["name"] == "kt-J"


def test_example_unknown():
    code, out, err = run_cli(["example", "nope"])
    assert code == 1
    assert "available" in err
    assert out == ""


def test_analyze_filiform_text():
    code, out, err = run_cli(["analyze", "--example", "filiform-J"])
    assert code == 0
    assert "degeneration_page: 2" in out
    lines = out.splitlines()
    idx = lines.index("h_dol:")
    assert lines[idx + 1].split() == ["0", "1", "1"]


def test_analyze_kt_jprime():
    code, out, _ = run_cli(["analyze", "--example", "kt-Jprime"])
    assert code == 0
    assert "degeneration_page: 1" in out
    assert "classification: integrable" in out


def test_analyze_abelian_binomial_grid():
    code, out, _ = run_cli(["analyze", "--example", "abelian-m2"])
    assert code == 0
    lines = out.splitlines()
    idx = lines.index("h_dol:")
    assert lines[idx + 1].split() == ["1", "2", "1"]
    assert lines[idx + 2].split() == ["2", "4", "2"]


def test_analyze_requires_exactly_one_source(tmp_path):
    code, _, err = run_cli(["analyze"])
    assert code == 1 and "exactly one" in err
    path = tmp_path / "x.json"
    path.write_text(docio.document_to_json(catalog.builtin("kt-J")))
    code, _, err = run_cli(["analyze", str(path), "--example", "kt-J"])
    assert code == 1 and "exactly one" in err


def test_analyze_from_file(tmp_path):
    path = tmp_path / "kt.json"
    path.write_text(docio.document_to_json(catalog.builtin("kt-J")))
    code, out, _ = run_cli(["analyze", str(path), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["name"] == "kt-J"
    assert doc["degeneration_page"] == 1


def test_missing_file():
    code, _, err = run_cli(["analyze", "/nonexistent/file.json"])
    assert code == 1
    assert "error" in err


def test_verify_su2su2_reports_informational_failures():
    code, out, err = run_cli(["verify", "--example", "su2su2-nk"])
    assert code == 0  # informational failures do not flip the exit code
    assert "INFO-FAIL nk_commutator [mu*, delbar] = 0" in out
    assert "PASS first_page_equals_dolbeault" in out
    assert "0 hard failures" in err


def test_verify_filiform_skips_nearly_kahler():
    code, out, _ = run_cli(["verify", "--example", "filiform-J"])
    assert code == 0
    assert "SKIP nearly_kahler_identities" in out
    assert "FAIL" not in out.replace("INFO-FAIL", "")


def test_verify_jacobi_violation_exit_1(tmp_path):
    doc = catalog.builtin("filiform-J")
    doc["brackets"].append({"i": 2, "j": 3, "coeffs": {"2": "1"}})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["verify", str(path)])
    assert code == 1
    assert "Jacobi" in err and "X2" in err
    assert out == ""


@pytest.mark.parametrize("command", ["pages", "harmonic", "analyze",
                                     "verify"])
def test_every_subcommand_validates_its_file_once(tmp_path, monkeypatch,
                                                  command):
    # the input once, by analyze: neither parsing nor to_spec validates;
    # the battery's metric probe validates each probed metric, a spec with
    # another metric, once more
    specs = []
    validate = liealg.validate_spec

    def counted(spec):
        specs.append(spec)
        return validate(spec)

    monkeypatch.setattr(liealg, "validate_spec", counted)
    path = tmp_path / "kt.json"
    path.write_text(json.dumps(catalog.builtin("kt-J")))
    code, _, _ = run_cli([command, str(path), "--format", "json"])
    assert code == 0
    probed = 1 if command in ("analyze", "verify") else 0
    assert [s.name for s in specs] == ["kt-J"] * (1 + probed)
    assert [s.metric == specs[0].metric for s in specs] == (
        [True] + [False] * probed)


@pytest.mark.parametrize("command", ["pages", "harmonic", "analyze",
                                     "verify"])
def test_jacobi_violation_exits_1_naming_the_triple(tmp_path, command):
    doc = catalog.builtin("filiform-J")
    doc["brackets"].append({"i": 2, "j": 3, "coeffs": {"2": "1"}})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli([command, str(path)])
    assert code == 1
    assert err == "error: Jacobi identity fails on triple (X1, X2, X3)\n"
    assert out == ""


def test_pages_averaged_metric_repairs_the_file(tmp_path):
    doc = catalog.builtin("kt-J")
    doc["metric"] = [["2", "0", "0", "0"],
                     ["0", "1", "0", "0"],
                     ["0", "0", "1", "0"],
                     ["0", "0", "0", "1"]]
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["pages", str(path)])
    assert code == 1 and "J-compatible" in err
    code, out, _ = run_cli(["pages", str(path), "--averaged-metric",
                            "--format", "json"])
    assert code == 0
    assert json.loads(out)["pages"] == json.loads(
        run_cli(["pages", "--example", "kt-J", "--format", "json"])[1])["pages"]


def _drop_one_mubar_harmonic(monkeypatch):
    # drop one vector of H_mubar(1, 1) on su2su2-nk: the three parts of
    # the slot's decomposition no longer span it
    spaces = HermitianStructure.harmonic

    def one_short(hs, tag):
        out = spaces(hs, tag)
        if tag != MUBAR:
            return out
        h = out[(1, 1)]
        basis = Matrix(h.ambient_dim, h.dim - 1,
                       [row[1:] for row in h.basis.entries])
        return {**out, (1, 1): Subspace(h.ambient_dim, basis)}

    monkeypatch.setattr(HermitianStructure, "harmonic", one_short)


def _changed_lines(before, after):
    """(removed, added): the lines of ``before`` that ``after`` drops and
    the lines it adds, by ``difflib.ndiff``."""
    diff = list(difflib.ndiff(before.splitlines(), after.splitlines()))
    return ([line[2:] for line in diff if line.startswith("- ")],
            [line[2:] for line in diff if line.startswith("+ ")])


MUBAR_FAILURE = "mubar_decomposition_1_1 (dims 0 + 7 + 1 vs slot 9)"


def test_failed_mubar_decomposition_exit_2_names_the_slot(monkeypatch):
    # the harmonic layer only computes: analyze prints the document of the
    # tampered layer, whose H_mubar(1, 1) is one vector short, with the
    # checks that read it failed, and exits 2
    argv = ["analyze", "--example", "su2su2-nk"]
    expected = run_cli(argv)
    _drop_one_mubar_harmonic(monkeypatch)
    code, out, err = run_cli(argv)
    assert code == 2
    assert ("FAILED CHECK: mubar_hodge_decomposition %s" % MUBAR_FAILURE
            in err.splitlines())
    assert _changed_lines(expected[1], out) == (
        ["3 8 6 0", "checks: 59 run, 10 failed"],
        ["3 7 6 0", "checks: 59 run, 13 failed",
         "  FAIL mubar_hodge_decomposition: %s" % MUBAR_FAILURE,
         "  FAIL serre_bar_star_mubar_harmonics: fails on slot (1, 1)",
         "  FAIL metric_independent_harmonic_dims: 2 metrics probed; "
         "metric 2: %s" % MUBAR_FAILURE])
    assert expected[0] == 0


@pytest.mark.parametrize("command", ["verify", "harmonic"])
def test_failed_mubar_decomposition_fails_every_reader(command, monkeypatch):
    # the commands that read the harmonic layer exit 2 as analyze does,
    # after printing what they print: verify its check lines, harmonic its
    # tables, whose H_mubar(1, 1) entry reads the tampered layer
    argv = [command, "--example", "su2su2-nk"]
    expected = run_cli(argv)
    _drop_one_mubar_harmonic(monkeypatch)
    code, out, err = run_cli(argv)
    assert code == 2
    assert ("FAILED CHECK: mubar_hodge_decomposition %s" % MUBAR_FAILURE
            in err.splitlines())
    if command == "verify":
        changed = (
            ["PASS mubar_hodge_decomposition",
             "PASS serre_bar_star_mubar_harmonics",
             "PASS metric_independent_harmonic_dims  (2 metrics probed)"],
            ["FAIL mubar_hodge_decomposition  (%s)" % MUBAR_FAILURE,
             "FAIL serre_bar_star_mubar_harmonics  (fails on slot (1, 1))",
             "FAIL metric_independent_harmonic_dims  (2 metrics probed; "
             "metric 2: %s)" % MUBAR_FAILURE])
    else:
        changed = (["3 8 6 0"], ["3 7 6 0"])
    assert _changed_lines(expected[1], out) == changed
    assert expected[0] == 0


def test_harmonic_certifies_the_mubar_adjoint(monkeypatch):
    # doubling one nonzero mubar* block leaves every printed kernel and
    # image where it was; only the adjointness check in the certificate
    # sees it
    argv = ["harmonic", "--example", "filiform-J"]
    expected = run_cli(argv)
    adjoint_block = HermitianStructure.adjoint_block

    def doubled(hs, tag, p, q):
        blk = adjoint_block(hs, tag, p, q)
        return blk + blk if (tag, p, q) == (MUBAR, 0, 2) else blk

    monkeypatch.setattr(HermitianStructure, "adjoint_block", doubled)
    code, out, err = run_cli(argv)
    assert (code, out) == (2, expected[1])
    assert "FAILED CHECK: mubar_adjoint_is_metric_adjoint" in err
    assert expected[0] == 0


def test_harmonic_certifies_the_star(monkeypatch):
    # ⋆ on slot (0, 0) doubled: no printed table reads ⋆, so the output is
    # unchanged, and the certificate's star entry names the slot
    argv = ["harmonic", "--example", "filiform-J"]
    expected = run_cli(argv)
    star = HermitianStructure.star
    monkeypatch.setattr(HermitianStructure, "star", lambda hs, p, q: (
        star(hs, p, q).scale(Scalar(2)) if (p, q) == (0, 0)
        else star(hs, p, q)))
    code, out, err = run_cli(argv)
    assert (code, out) == (2, expected[1])
    assert [line for line in err.splitlines()
            if line.startswith("FAILED CHECK: ")] == [
        "FAILED CHECK: star_defining_and_isometry ⋆1 is not the volume form "
        "on slot (0, 0); ⋆⋆ != (-1)^degree on slot (0, 0); ⋆ defining "
        "property fails on slot (0, 0); ⋆ isometry fails on slot (0, 0)"]
    assert expected[0] == 0


def test_harmonic_fits_the_nk_scalar_without_laplacians(monkeypatch):
    # harmonic prints nk_scalar from the Lefschetz fit alone, so on the
    # nearly Kahler S^3 x S^3 it builds no Laplacian
    # anticommutator(tag, tag + "*"); analyze, whose battery builds them,
    # prints the same constant
    built = _count_laplacians(monkeypatch)
    printed = {}
    for command in ("harmonic", "analyze"):
        code, out, err = run_cli([command, input_path("s3s3-nk"),
                                  "--format", "json"])
        assert (code, err) == (0, "")
        printed[command] = (json.loads(out)["harmonic"]["nk_scalar"],
                            len(built))
    assert printed["harmonic"] == ("8/9", 0)
    assert printed["analyze"][0] == "8/9" and printed["analyze"][1] > 0


def test_pages_never_reads_the_mubar_decomposition(monkeypatch):
    expected = run_cli(["pages", "--example", "su2su2-nk"])
    _drop_one_mubar_harmonic(monkeypatch)
    assert run_cli(["pages", "--example", "su2su2-nk"]) == expected
    assert expected[0] == 0


@pytest.mark.parametrize("command", ["analyze", "verify", "pages",
                                     "harmonic"])
def test_non_unimodular_input_exits_0(command, tmp_path):
    # aff(1): [X1, X2] = X2, on which the star formula is not the adjoint
    # of delbar; only the checks that read ⋆ as that adjoint are skipped
    path = tmp_path / "aff1.json"
    path.write_text(json.dumps({
        "name": "aff1", "dim": 2, "basis": ["X1", "X2"],
        "brackets": [{"i": 1, "j": 2, "coeffs": {"2": "1"}}],
        "J": [["0", "-1"], ["1", "0"]]}))
    code, out, err = run_cli([command, str(path)])
    assert code == 0, err
    if command == "verify":
        assert "PASS harmonic_inclusion_bound" in out
        assert "SKIP serre_bar_star_delbar_mub_harmonics" in out
        assert "0 hard failures" in err


def test_averaged_metric_flag(tmp_path):
    doc = catalog.builtin("abelian-m2")
    doc["metric"] = [["2", "0", "0", "0"],
                     ["0", "1", "0", "0"],
                     ["0", "0", "1", "0"],
                     ["0", "0", "0", "1"]]
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(["analyze", str(path)])
    assert code == 1 and "J-compatible" in err
    code, out, _ = run_cli(["analyze", str(path), "--averaged-metric"])
    assert code == 0


def test_page_cap_option_is_gone(capsys):
    # every page comes from one reduction: there is no cap to set
    with pytest.raises(SystemExit) as exc:
        main(["pages", "--example", "su2su2-nk", "--max-page", "1"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --max-page" in capsys.readouterr().err


def test_unknown_subcommand_exits_1(capsys):
    # a usage error is invalid input (1), not an internal failure (2)
    with pytest.raises(SystemExit) as exc:
        main(["page", "--example", "su2su2-nk"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: acdol ")
    assert "acdol: error: argument command: invalid choice: 'page'" in err


@pytest.mark.parametrize("argv, usage, error", [
    (["list", "--all"], "acdol", "unrecognized arguments: --all"),
    (["analyze", "--example", "su2su2-nk", "--format", "yaml"],
     "acdol analyze", "argument --format: invalid choice: 'yaml'")],
    ids=["unknown-flag", "subcommand-flag-value"])
def test_unknown_flag_exits_1(argv, usage, error, capsys):
    # the subcommand parsers, which reject a bad value of their own
    # options, inherit the exit code of usage errors
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: %s " % usage)
    assert "%s: error: %s" % (usage, error) in err


def test_broken_complexified_table_exits_2(monkeypatch):
    # negative control: a broken conjugation symmetry is an internal
    # error, not invalid input, and stops the run before any output
    break_conjugation(monkeypatch)
    code, out, err = run_cli(["pages", "--example", "filiform-J"])
    assert (code, out) == (2, "")
    assert err == ("internal consistency failure: internal error: "
                   "conjugation symmetry broken in complexified brackets\n")


def _corrupt_mubar_block(monkeypatch):
    """Raise entry (0, 0) of the mubar block of slot (1, 0) by one in every
    differential built: d^2 = 0 fails there, and every stage still runs."""
    build = forms.build_differential

    def corrupted(csc, basis):
        cm = build(csc, basis)
        bad = cm.block(MUBAR, 1, 0)
        data = [list(row) for row in bad.entries]
        data[0][0] = data[0][0] + ONE
        cm._blocks[(MUBAR, 1, 0)] = Matrix(bad.rows, bad.cols, data)
        return cm

    monkeypatch.setattr(forms, "build_differential", corrupted)


@pytest.mark.parametrize("command", ["pages", "harmonic", "verify",
                                     "analyze"])
def test_failed_relations_print_the_output_and_exit_2(command, monkeypatch):
    # the d^2 = 0 identities are a check of every command, not a stage of
    # analyze: a corrupted block prints the output, then names the first
    # failing identity and its slot, and exits 2
    _corrupt_mubar_block(monkeypatch)
    code, out, err = run_cli([command, "--example", "filiform-J"])
    failed = [line for line in err.splitlines()
              if line.startswith("FAILED CHECK: ")]
    assert code == 2 and out
    assert failed[0] == ("FAILED CHECK: component_relations %s fails on "
                         "slot (1, 0)" % RELATIONS[3])


def test_oversize_input_exits_1(tmp_path):
    n = 2 * MAX_M + 2
    path = tmp_path / "abelian-m13.json"
    path.write_text(json.dumps({
        "name": "abelian-m13", "dim": n,
        "basis": ["e%d" % (i + 1) for i in range(n)], "brackets": [],
        "J": pairs_J(MAX_M + 1)}))
    code, out, err = run_cli(["pages", str(path)])
    assert (code, out) == (1, "")
    assert err == "error: m = 13 exceeds the limit forms.MAX_M = 12\n"


def test_pages_and_harmonic_subcommands():
    code, out, _ = run_cli(["pages", "--example", "filiform-J"])
    assert code == 0
    assert "E_1:" in out and "E_2:" in out and "h_mub_harmonic" not in out
    code, out, _ = run_cli(["harmonic", "--example", "filiform-J"])
    assert code == 0
    assert "h_delb_mub:" in out and "E_1:" not in out


def test_pages_and_harmonic_compute_only_what_they_print(monkeypatch):
    """pages builds neither the battery nor the harmonic layer, harmonic
    not the battery; their output is what it was with both."""
    argv = {cmd: [cmd, "--example", "su2su2-nk", "--format", "json"]
            for cmd in ("pages", "harmonic")}
    expected = {cmd: run_cli(args) for cmd, args in argv.items()}

    def refuse(*args):
        raise AssertionError("computed something it does not print")

    monkeypatch.setattr(pipeline, "verification_checks", refuse)
    assert run_cli(argv["harmonic"]) == expected["harmonic"]
    monkeypatch.setattr(harmonic, "delb_mub", refuse)
    assert run_cli(argv["pages"]) == expected["pages"]
    assert expected["pages"][0] == expected["harmonic"][0] == 0


@pytest.mark.parametrize("command", ["pages", "harmonic"])
def test_tampered_reduction_fails_the_certificate(command, monkeypatch):
    # an unpaired degree-1 generator made to die on E_2: only the pages'
    # certificate sees that E_2 is no longer E_1 minus its pairs
    frolicher_all = spectral.frolicher_all

    def tampered(cm):
        pages = frolicher_all(cm)
        gaps = pages.gap[1]
        gaps[gaps.index(None)] = 1
        return pages

    monkeypatch.setattr(spectral, "frolicher_all", tampered)
    code, _, err = run_cli([command, "--example", "filiform-J"])
    assert code == 2
    assert "FAILED CHECK: page_differentials_consistent" in err


def test_output_deterministic():
    runs = [run_cli(["analyze", "--example", "su2su2-nk", "--format", "json"])
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_latex_output():
    code, out, _ = run_cli(["analyze", "--example", "su2su2-nk",
                            "--format", "latex"])
    assert code == 0
    assert "\\begin{array}{|c|c|c|c|}" in out
    assert "\\mathbb{C} & 0 & 0 & 0 \\\\" in out


# the builtins and the input documents with golden result documents
GOLDEN_NAMES = catalog.builtin_names() + list(GOLDEN_INPUTS)


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_result_documents(name):
    path = os.path.join(golden_dir(), "%s.json" % name)
    with open(path, "rb") as fh:
        golden = json.load(fh)
    an = named_analysis(name)
    assert pipeline.result_document(
        an, pipeline.verification_checks(an)) == golden


SECTION_KEYS = ("name", "m", "classification", "betti", "degeneration_page",
                "pages", "h_mub", "h_dol", "harmonic", "checks")


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_cli_json_bytes_match_golden(name):
    """analyze prints the golden file's bytes; pages and harmonic print its
    tables and their own section, the other section and the checks
    empty."""
    with open(os.path.join(golden_dir(), "%s.json" % name), "rb") as fh:
        raw = fh.read()
    golden = json.loads(raw)
    source = ([input_path(name)] if name in GOLDEN_INPUTS
              else ["--example", name])
    argv = source + ["--format", "json"]
    assert run_cli(["analyze"] + argv) == (0, raw.decode(), "")
    for command, blank in (("pages", "harmonic"), ("harmonic", "pages")):
        doc = {key: golden[key] for key in SECTION_KEYS}
        doc[blank] = {}
        doc["checks"] = []
        assert run_cli([command] + argv) == (
            0, json.dumps(doc, indent=2) + "\n", "")
