"""Command line front end.

Subcommands; each computes only what it prints, with its own checks:

    analyze   the result document, with the full property battery
    verify    the full property battery, one PASS/FAIL/SKIP line per check
    pages     spectral-sequence pages only, certified by the d^2 = 0
              identities, the Frolicher, Euler and Serre checks and the
              reduction certificate; it never builds the harmonic layer
    harmonic  harmonic dimension tables only, certified by the checks of
              pages and the harmonic layer's: the star identities, the
              adjointness checks, the mubar Hodge decomposition and the
              delbar_mub checks
    example   print a built-in input document as JSON
    list      list built-in example names

An input is converted by ``docio.to_spec`` and validated once, by
``pipeline.analyze`` as its first stage, after any metric repair.

Exit codes: 0 success, 1 invalid input or a usage error (an unknown
subcommand or option), 2 internal consistency failure (a
failed check of the command, reported on stderr after the output as
FAILED CHECK with its detail, or an exact identity that stops the run
before any output).  The d^2 = 0 identities of the differential
(``component_relations``) and the identities of the harmonic layer are
checks, not stages, so a failure there still prints the output.
Diagnostics go to stderr; stdout carries only the rendered data.
"""

from __future__ import annotations

import argparse
import sys

from . import catalog, cohomology, docio, harmonic, pipeline
from .catalog import UnknownExampleError
from .cohomology import ConsistencyError
from .docio import DocumentError
from .liealg import LieAlgebraError


def _add_input_options(sub):
    sub.add_argument("input", nargs="?", default=None,
                     help="path to an input document (JSON)")
    sub.add_argument("--example", default=None,
                     help="name of a built-in example (see `list`)")
    sub.add_argument("--format", choices=("text", "json", "latex"),
                     default="text")
    sub.add_argument("--averaged-metric", action="store_true",
                     help="replace the metric by its J-average (g + J^t g J)/2")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, as invalid input
    does, not argparse's 2; the subcommand parsers are of its class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def build_parser():
    parser = _Parser(
        prog="acdol",
        description="Exact Dolbeault cohomology, Frolicher spectral "
                    "sequences and harmonic theory for almost complex "
                    "structures on Lie algebras.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "verify", "pages", "harmonic"):
        _add_input_options(subs.add_parser(name))
    ex = subs.add_parser("example")
    ex.add_argument("name")
    subs.add_parser("list")
    return parser


def _load_spec(args):
    if (args.input is None) == (args.example is None):
        raise DocumentError("exactly one input source is required: either a "
                            "file path or --example NAME")
    if args.example is not None:
        doc = catalog.builtin(args.example)
    else:
        with open(args.input, "rb") as fh:
            doc = docio.parse_document(fh.read())
    return docio.to_spec(doc, average_metric=args.averaged_metric)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (DocumentError, LieAlgebraError, UnknownExampleError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print("internal consistency failure: %s" % exc, file=sys.stderr)
        return 2


def _section_document(an, command):
    """The tables and the section of ``command``, the other section and
    the checks empty, in the key order ``pages`` and ``harmonic`` print."""
    doc = pipeline.document(
        an, pipeline.pages_section(an) if command == "pages" else {},
        pipeline.harmonic_section(an) if command == "harmonic" else {}, [])
    return {key: doc[key] for key in (
        "name", "m", "classification", "betti", "degeneration_page",
        "pages", "h_mub", "h_dol", "harmonic", "checks")}


def _certificate(an, command):
    """The checks behind what ``command`` prints; the witness delta_1 of
    the reduction certificate is an oracle of the battery only."""
    if command in ("analyze", "verify"):
        return pipeline.verification_checks(an)
    checks = [pipeline.relations_check(an.cm)]
    checks += cohomology.consistency_report(an.h_dol, an.betti, an.m)
    checks.append(pipeline.reduction_certificate(an.pages, {}))
    if command == "harmonic":
        checks += harmonic.layer_checks(an.hs, an.h_dol)
    return checks


def _dispatch(args):
    if args.command == "list":
        for name in catalog.builtin_names():
            print(name)
        return 0
    if args.command == "example":
        doc = catalog.builtin(args.name)
        sys.stdout.write(docio.document_to_json(doc))
        return 0

    spec = _load_spec(args)
    an = pipeline.analyze(spec)
    checks = _certificate(an, args.command)
    failures = pipeline.hard_failures(checks)

    if args.command == "analyze":
        result = pipeline.result_document(an, checks)
        sys.stdout.write(docio.render(result, args.format))
    elif args.command == "verify":
        for c in checks:
            if c.skipped:
                status = "SKIP"
            elif c.passed:
                status = "PASS"
            else:
                status = "FAIL" if not c.informational else "INFO-FAIL"
            line = "%s %s" % (status, c.name)
            if c.detail:
                line += "  (%s)" % c.detail
            print(line)
        summary = "%d checks: %d hard failures" % (len(checks), len(failures))
        print(summary, file=sys.stderr)
    elif args.command in ("pages", "harmonic"):
        sys.stdout.write(docio.render(_section_document(an, args.command),
                                      args.format))
    if failures:
        for c in failures:
            print("FAILED CHECK: %s %s" % (c.name, c.detail), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
