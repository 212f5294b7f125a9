"""Input parsing, result documents, and the three render formats."""

import json

import pytest

from acdol import catalog, docio, pipeline
from acdol.docio import (DocumentError, document_to_json, parse_document,
                         parse_rational, render,
                         result_to_json, table_from_json, table_to_json)
from acdol.liealg import LieAlgebraError, validate_spec
from conftest import builtin_analysis


def test_parse_rational_forms():
    from fractions import Fraction
    assert parse_rational(3, "x") == 3
    assert parse_rational("3", "x") == 3
    assert parse_rational("-4/6", "x") == Fraction(-2, 3)
    with pytest.raises(DocumentError, match="zero denominator"):
        parse_rational("1/0", "x")
    with pytest.raises(DocumentError, match="floating point"):
        parse_rational(0.5, "x")
    with pytest.raises(DocumentError, match="malformed"):
        parse_rational("2/3/4", "x")
    with pytest.raises(DocumentError):
        parse_rational(True, "x")


def test_builtin_documents_round_trip():
    for name in catalog.builtin_names():
        doc = catalog.builtin(name)
        text = document_to_json(doc)
        parsed = parse_document(text)
        assert parsed["dim"] == doc["dim"]
        assert parsed["name"] == name
        validate_spec(docio.to_spec(parsed))


def test_parse_rejects_unknown_field():
    doc = catalog.builtin("filiform-J")
    doc["extra"] = 1
    with pytest.raises(DocumentError, match="unknown field"):
        parse_document(json.dumps(doc))


def test_parse_rejects_odd_J():
    doc = catalog.builtin("filiform-J")
    doc["J"] = [row[:3] for row in doc["J"][:3]]
    with pytest.raises(DocumentError, match="matrix"):
        parse_document(json.dumps(doc))


def test_parse_rejects_bad_coeff_with_position():
    doc = catalog.builtin("filiform-J")
    doc["brackets"][0]["coeffs"]["3"] = "1/0"
    with pytest.raises(DocumentError, match=r"brackets\[0\].coeffs.3"):
        parse_document(json.dumps(doc))


def test_parse_rejects_floats():
    doc = catalog.builtin("filiform-J")
    doc["J"][0][1] = -1.0
    with pytest.raises(DocumentError, match="floating point"):
        parse_document(json.dumps(doc))


def test_parse_syntax_error_has_position():
    with pytest.raises(DocumentError, match="line 1 column"):
        parse_document("{not json")


def test_to_spec_converts_and_analyze_validates():
    doc = catalog.builtin("filiform-J")
    doc["brackets"].append({"i": 2, "j": 3, "coeffs": {"2": "1"}})
    spec = docio.to_spec(doc)
    with pytest.raises(LieAlgebraError, match="Jacobi"):
        pipeline.analyze(spec)


def test_parse_rejects_duplicate_bracket():
    doc = catalog.builtin("filiform-J")
    doc["brackets"].append({"i": 2, "j": 1, "coeffs": {"3": "-1"}})
    with pytest.raises(DocumentError, match="duplicate"):
        docio.to_spec(parse_document(json.dumps(doc)))


def test_unknown_builtin():
    with pytest.raises(catalog.UnknownExampleError, match="filiform-J"):
        catalog.builtin("nope")


def test_result_document_json_round_trip():
    an = builtin_analysis("filiform-J")
    result = pipeline.result_document(an, pipeline.verification_checks(an))
    text = result_to_json(result)
    back = json.loads(text)
    assert back == result
    assert result_to_json(back) == text


def test_result_document_internal_consistency():
    an = builtin_analysis("filiform-J")
    result = pipeline.result_document(an, pipeline.verification_checks(an))
    assert result["h_dol"] == result["pages"]["1"]
    inf = table_from_json(result["pages"][str(result["degeneration_page"])])
    for n in range(2 * an.m + 1):
        total = sum(inf.get((p, n - p), 0) for p in range(n + 1))
        assert total == result["betti"][n]


def test_table_json_round_trip():
    dims = {(0, 0): 1, (1, 1): 4, (2, 1): 2}
    assert table_from_json(table_to_json(dims, 2)) == dims


def test_render_text_filiform():
    an = builtin_analysis("filiform-J")
    result = pipeline.result_document(an, pipeline.verification_checks(an))
    text = render(result, "text")
    lines = text.splitlines()
    idx = lines.index("h_dol:")
    assert lines[idx + 1].split() == ["0", "1", "1"]   # q = 2 on top
    assert lines[idx + 2].split() == ["2", "4", "2"]
    assert lines[idx + 3].split() == ["1", "1", "0"]
    assert "degeneration_page: 2" in text
    assert "classification: maximally_non_integrable" in text


def test_render_latex_su2su2():
    an = builtin_analysis("su2su2-nk")
    result = pipeline.result_document(an, pipeline.verification_checks(an))
    tex = render(result, "latex")
    block = tex.split("% h_dol\n")[1].split("\\end{array}")[0]
    rows = [line for line in block.splitlines() if line.endswith("\\\\")]
    assert rows[-1] == "\\mathbb{C} & 0 & 0 & 0 \\\\"   # bottom row q = 0
    assert rows[0] == "0 & 0 & 0 & \\mathbb{C} \\\\"
    assert "\\mathbb{C}^{3}" in block


def test_render_json_matches_result():
    an = builtin_analysis("abelian-m2")
    result = pipeline.result_document(an, pipeline.verification_checks(an))
    assert render(result, "json") == result_to_json(result)
    with pytest.raises(ValueError):
        render(result, "html")
