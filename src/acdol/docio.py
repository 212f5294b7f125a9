"""Input document parsing and result rendering.

Input documents are strict JSON with every rational written exactly as an
integer or a "p/q" string; floats are rejected so no rounding can enter the
pipeline.  Result documents are plain dictionaries with a stable key order,
dimension tables keyed "p,q", and render to aligned text grids, JSON, or
LaTeX arrays (rows ordered with q = m at the top, matching the usual Hodge
diamond layout).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .liealg import LieAlgebraError, averaged_metric, make_spec


class DocumentError(ValueError):
    """Malformed input document (syntax, schema, or validation failure)."""


_TOP_FIELDS = {"name", "dim", "basis", "brackets", "J", "metric", "frame_seeds"}
_BRACKET_FIELDS = {"i", "j", "coeffs"}


def parse_rational(value, where):
    """Exact rational from a JSON int or 'p/q' string."""
    if isinstance(value, bool):
        raise DocumentError("%s: expected a rational, got a boolean" % where)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise DocumentError(
            "%s: floating point numbers are not accepted; write '%r' as a "
            "'p/q' string" % (where, value))
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            try:
                n = int(num)
                d = int(den)
            except ValueError:
                raise DocumentError("%s: malformed rational %r" % (where, value)) \
                    from None
            if d == 0:
                raise DocumentError("%s: zero denominator in %r" % (where, value))
            return Fraction(n, d)
        try:
            return Fraction(int(text))
        except ValueError:
            raise DocumentError("%s: malformed rational %r" % (where, value)) \
                from None
    raise DocumentError("%s: expected a rational, got %s" % (where, type(value).__name__))


def _parse_matrix(rows, n, where):
    if not isinstance(rows, list) or len(rows) != n or any(
            not isinstance(r, list) or len(r) != n for r in rows):
        raise DocumentError("%s: expected a %d x %d matrix" % (where, n, n))
    return [[parse_rational(rows[i][j], "%s[%d][%d]" % (where, i + 1, j + 1))
             for j in range(n)] for i in range(n)]


def parse_document(text):
    """Parse bytes or str into an input document (a plain dict).

    Syntax errors carry line/column from the JSON parser; schema errors name
    the offending path.  The algebra is not validated here: ``to_spec``
    converts the document and ``pipeline.analyze`` validates the spec, after
    any metric repair, as its first stage.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("JSON syntax error at line %d column %d: %s"
                            % (exc.lineno, exc.colno, exc.msg)) from None
    if not isinstance(raw, dict):
        raise DocumentError("top-level value must be an object")
    unknown = set(raw) - _TOP_FIELDS
    if unknown:
        raise DocumentError("unknown field(s): %s" % ", ".join(sorted(unknown)))
    for field in ("dim", "basis", "brackets", "J"):
        if field not in raw:
            raise DocumentError("missing required field %r" % field)
    dim = raw["dim"]
    if not isinstance(dim, int) or dim < 2:
        raise DocumentError("dim must be an integer >= 2")
    basis = raw["basis"]
    if not isinstance(basis, list) or len(basis) != dim or any(
            not isinstance(b, str) for b in basis):
        raise DocumentError("basis must list %d names" % dim)
    if not isinstance(raw["brackets"], list):
        raise DocumentError("brackets must be a list")
    doc = {
        "name": raw.get("name", ""),
        "dim": dim,
        "basis": list(basis),
        "brackets": [],
        "J": raw["J"],
    }
    if not isinstance(doc["name"], str):
        raise DocumentError("name must be a string")
    for idx, entry in enumerate(raw["brackets"]):
        where = "brackets[%d]" % idx
        if not isinstance(entry, dict):
            raise DocumentError("%s: expected an object" % where)
        unknown = set(entry) - _BRACKET_FIELDS
        if unknown:
            raise DocumentError("%s: unknown field(s): %s"
                                % (where, ", ".join(sorted(unknown))))
        try:
            i = entry["i"]
            j = entry["j"]
            coeffs = entry["coeffs"]
        except KeyError as exc:
            raise DocumentError("%s: missing field %s" % (where, exc)) from None
        if not (isinstance(i, int) and isinstance(j, int)
                and 1 <= i <= dim and 1 <= j <= dim and i != j):
            raise DocumentError("%s: indices must be distinct and in 1..%d"
                                % (where, dim))
        if not isinstance(coeffs, dict) or not coeffs:
            raise DocumentError("%s: coeffs must be a non-empty object" % where)
        parsed = {}
        for key, val in coeffs.items():
            try:
                k = int(key)
            except (TypeError, ValueError):
                raise DocumentError("%s.coeffs: bad index %r" % (where, key)) \
                    from None
            if not 1 <= k <= dim:
                raise DocumentError("%s.coeffs: index %d out of 1..%d"
                                    % (where, k, dim))
            parsed[k] = parse_rational(val, "%s.coeffs.%s" % (where, key))
        doc["brackets"].append({"i": i, "j": j, "coeffs": parsed})
    doc["J"] = _parse_matrix(raw["J"], dim, "J")
    if "metric" in raw:
        doc["metric"] = _parse_matrix(raw["metric"], dim, "metric")
    if "frame_seeds" in raw:
        seeds = raw["frame_seeds"]
        if not isinstance(seeds, list) or any(
                not isinstance(s, int) or not 1 <= s <= dim for s in seeds):
            raise DocumentError("frame_seeds must list indices in 1..%d" % dim)
        doc["frame_seeds"] = list(seeds)
    return doc


def document_to_json(doc):
    """Render an input document back to JSON text (rationals as strings)."""

    def enc(x):
        if isinstance(x, Fraction):
            return str(x)
        if isinstance(x, list):
            return [enc(v) for v in x]
        if isinstance(x, dict):
            return {str(k): enc(v) for k, v in x.items()}
        return x

    return json.dumps(enc(doc), indent=2) + "\n"


def to_spec(doc, average_metric=False):
    """Input document -> LieAlgebraSpec, converted but not validated:
    ``pipeline.analyze`` validates it as its first stage.

    With ``average_metric`` the metric is replaced by (g + J^t g J)/2.
    """
    brackets = {}
    for entry in doc["brackets"]:
        i = entry["i"] - 1
        j = entry["j"] - 1
        coeffs = {int(k) - 1: parse_rational(v, "coeffs")
                  for k, v in entry["coeffs"].items()}
        key = (i, j) if i < j else (j, i)
        if i > j:
            coeffs = {k: -c for k, c in coeffs.items()}
        if key in brackets:
            raise DocumentError("duplicate bracket entry for (%d, %d)"
                                % (key[0] + 1, key[1] + 1))
        brackets[key] = coeffs
    seeds = None
    if doc.get("frame_seeds") is not None:
        seeds = tuple(s - 1 for s in doc["frame_seeds"])
    try:
        spec = make_spec(
            doc["dim"],
            basis_names=doc["basis"],
            brackets=brackets,
            J=[[parse_rational(v, "J") for v in row] for row in doc["J"]],
            metric=[[parse_rational(v, "metric") for v in row]
                    for row in doc["metric"]] if doc.get("metric") else None,
            frame_seeds=seeds,
            name=doc.get("name", ""),
        )
        if average_metric:
            spec = averaged_metric(spec)
        return spec
    except LieAlgebraError as exc:
        raise DocumentError(str(exc)) from None


# -- result documents ------------------------------------------------------


def table_to_json(dims, m):
    """Dimension map {(p, q): n} -> {"p,q": n} with zero entries dropped."""
    out = {}
    for q in range(m + 1):
        for p in range(m + 1):
            v = dims.get((p, q), 0)
            if v:
                out["%d,%d" % (p, q)] = v
    return out


def table_from_json(obj):
    out = {}
    for key, v in obj.items():
        p, _, q = key.partition(",")
        out[(int(p), int(q))] = v
    return out


def result_to_json(result):
    return json.dumps(result, indent=2) + "\n"


def _grid(dims_json, m):
    dims = table_from_json(dims_json)
    return [[dims.get((p, q), 0) for p in range(m + 1)] for q in range(m + 1)]


def _text_grid(rows_bottom_up):
    """Aligned grid, last list rendered first (q = m on top)."""
    cells = [[str(v) for v in row] for row in rows_bottom_up]
    width = max(len(c) for row in cells for c in row)
    lines = []
    for row in reversed(cells):
        lines.append(" ".join(c.rjust(width) for c in row))
    return "\n".join(lines)


def _latex_grid(rows_bottom_up):
    m1 = len(rows_bottom_up[0])
    body = []
    for row in reversed(rows_bottom_up):
        cells = []
        for v in row:
            if v == 0:
                cells.append("0")
            elif v == 1:
                cells.append("\\mathbb{C}")
            else:
                cells.append("\\mathbb{C}^{%d}" % v)
        body.append(" & ".join(cells) + " \\\\")
    head = "\\begin{array}{|" + "c|" * m1 + "}"
    lines = [head, "\\hline"]
    for b in body:
        lines.append(b)
        lines.append("\\hline")
    lines.append("\\end{array}")
    return "\n".join(lines)


def render(result, fmt):
    """Render a result document as 'text', 'json', or 'latex'."""
    if fmt == "json":
        return result_to_json(result)
    m = result["m"]
    sections = [("h_mub", result["h_mub"]), ("h_dol", result["h_dol"])]
    for r in sorted(result["pages"], key=int):
        sections.append(("E_%s" % r, result["pages"][r]))
    harm = result.get("harmonic") or {}
    for key in ("h_mub_harmonic", "h_delb_mub", "h_d"):
        if key in harm:
            sections.append((key, harm[key]))
    if fmt == "text":
        out = []
        if result.get("name"):
            out.append("algebra: %s" % result["name"])
        out.append("m: %d" % m)
        out.append("classification: %s" % result["classification"])
        out.append("betti: %s" % " ".join(str(b) for b in result["betti"]))
        out.append("degeneration_page: %d" % result["degeneration_page"])
        if "unimodular" in harm:
            out.append("unimodular: %s" % ("yes" if harm["unimodular"] else "no"))
        if harm.get("nk_scalar") is not None:
            out.append("nk_scalar: %s" % harm["nk_scalar"])
        for title, dims_json in sections:
            out.append("")
            out.append("%s:" % title)
            out.append(_text_grid(_grid(dims_json, m)))
        checks = result.get("checks", [])
        if checks:
            failed = [c for c in checks
                      if not c["passed"] and not c.get("skipped")]
            out.append("")
            out.append("checks: %d run, %d failed" % (len(checks), len(failed)))
            for c in failed:
                out.append("  FAIL %s%s" % (c["name"],
                                            ": " + c["detail"] if c["detail"] else ""))
        return "\n".join(out) + "\n"
    if fmt == "latex":
        out = []
        for title, dims_json in sections:
            out.append("%% %s" % title)
            out.append(_latex_grid(_grid(dims_json, m)))
        return "\n".join(out) + "\n"
    raise ValueError("unknown format %r" % fmt)
