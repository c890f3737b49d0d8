"""Command-line front end.

Subcommands:

    encode      print a code matrix and its gate results
    formulate   run the general pipeline on a cdc problem document
    pwl         formulate a piecewise-linear epigraph document
    annulus     emit a closed-form ring relaxation straight from flags
    verify      re-check an emitted formulation against its problem

Formulation documents go to stdout (or --out); human-readable progress and
check results go to stderr, so piping the document stays clean. Exit codes:
0 success, 1 malformed input, 2 a construction precondition failed (the
instance is valid but has no ideal formulation on this route), 3 a
requested verification failed, 4 a resource cap was hit.
"""

from __future__ import annotations

import argparse
import copy
import functools
import sys
import warnings
from dataclasses import replace
from pathlib import Path

from .annulus import AnnulusSpec
from .documents import (
    CHECK_LEVELS,
    OUTPUT_FORMATS,
    AnnulusProblem,
    CdcProblem,
    ProblemDocument,
    ProblemOptions,
    PwlProblem,
    document_text,
    emit_structured,
    formulation_from_document,
    load_json,
    parse_problem,
    verification_summary,
)
from .encoding import (EncodingKind, check_order, is_hole_free, is_in_convex_position,
                       make_encoding)
from .errors import IdealformError, InputError
from .lp_format import emit_lp_text
from .verify import DEFAULT_ENUM_CAP, check_ideal, check_validity_only

EXIT_OK = 0
EXIT_CHECK_FAILED = 3
_FAMILY_NAMES = [kind.value for kind in EncodingKind]


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems on exit code 1, not 2."""

    commands: dict[str, argparse.ArgumentParser] = {}

    def error(self, message):
        raise InputError(message)

    def parse_known_args(self, args=None, namespace=None):
        # Straight to the subcommand's parser, into a fresh namespace as under the full tree.
        parser = self.commands.get(args[0]) if args else None
        if parser is None:
            return super().parse_known_args(args, namespace)
        parsed, extras = parser.parse_known_args(args[1:], argparse.Namespace(command=args[0]))
        if namespace is None:
            return parsed, extras
        vars(namespace).update(vars(parsed))
        return namespace, extras


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(f"cannot read {path}: {err}") from err


def _write_payload(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as err:
        raise InputError(f"cannot write {out}: {err}") from err


def _say(line: str) -> None:
    print(line, file=sys.stderr)


def _enum_cap(text: str) -> int:
    """The --max-enum value: a vertex budget of at least 1."""
    try:
        cap = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if cap < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {cap}")
    return cap


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=OUTPUT_FORMATS, default=None,
                   help="output format (default: json, or the document's option)")
    p.add_argument("--check", choices=CHECK_LEVELS, default=None,
                   help="verification to run before emitting")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the document here instead of stdout")
    p.add_argument("--max-enum", type=_enum_cap, default=None, metavar="N",
                   help="vertex budget for exact enumeration "
                        f"(default {DEFAULT_ENUM_CAP})")


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser: a shallow copy of one tree built per process.

    Attributes set on the copy stay off the shared tree; its subparsers and
    actions are shared and read-only once built.
    """
    return copy.copy(_parser_tree())


@functools.cache
def _parser_tree() -> argparse.ArgumentParser:
    parser = _Parser(prog="idealform",
                     description="ideal formulations for disjunctions with "
                                 "few integer variables")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="print a code matrix and its gate results")
    p.add_argument("--kind", choices=_FAMILY_NAMES, required=True)
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--s", type=int, help="recursion order: full 2**s row matrix")
    size.add_argument("--d", type=int, help="row count: the d-row prefix")
    p.add_argument("--out", default=None, metavar="PATH")

    p = sub.add_parser("formulate", help="formulate a cdc problem document")
    p.add_argument("document", help="problem document path, or - for stdin")
    p.add_argument("--encoding", choices=_FAMILY_NAMES, default=None,
                   help="override the document's encoding choice")
    _add_output_flags(p)

    p = sub.add_parser("pwl", help="formulate a piecewise-linear epigraph document")
    p.add_argument("document", help="problem document path, or - for stdin")
    p.add_argument("--encoding", choices=_FAMILY_NAMES, default=None)
    _add_output_flags(p)

    p = sub.add_parser("annulus", help="emit a closed-form ring relaxation")
    p.add_argument("--d", type=int, required=True, help="number of pieces, a power of two")
    p.add_argument("--encoding", choices=_FAMILY_NAMES, default=EncodingKind.GRAY.value)
    p.add_argument("--inner", type=float, default=None, metavar="L")
    p.add_argument("--outer", type=float, default=None, metavar="U")
    _add_output_flags(p)

    p = sub.add_parser("verify", help="re-check an emitted formulation")
    p.add_argument("problem", help="problem document path, or - for stdin")
    p.add_argument("formulation", help="formulation document path")
    p.add_argument("--check", choices=["validity", "ideal"], default="ideal")
    p.add_argument("--max-enum", type=_enum_cap, default=None, metavar="N")

    parser.commands = sub.choices
    return parser


def _run_check(level: str, c, e, f, max_enum: int | None):
    """Returns (ideal report or None, passed)."""
    if level == "validity":
        ok = check_validity_only(c, e, f)
        if ok:
            _say("validity: PASS (every embedding extreme point satisfies the rows)")
        else:
            _say("validity: FAIL (an embedding extreme point violates a row)")
        return None, ok
    cap = DEFAULT_ENUM_CAP if max_enum is None else max_enum
    report = check_ideal(c, e, f, max_vertices=cap)
    expected, found = report.counts
    if report.passed:
        _say(f"ideal: PASS ({expected} vertices expected, {found} found, exact match)")
    else:
        _say(f"ideal: FAIL ({expected} vertices expected, {found} found; "
             f"{len(report.missing)} missing, {len(report.extra)} extra)")
        for p in report.missing[:5]:
            _say(f"  missing: {tuple(str(x) for x in p)}")
        for p in report.extra[:5]:
            _say(f"  extra:   {tuple(str(x) for x in p)}")
    return report, report.passed


def _document_command(args, doc: ProblemDocument) -> int:
    f, recovery, provenance = doc.formulate()
    level = args.check if args.check is not None else doc.options.check
    report, passed = (None, True)
    if level != "none":
        report, passed = _run_check(level, doc.disjunction(), doc.encoding(), f,
                                    args.max_enum)
    fmt = args.format if args.format is not None else doc.options.output_format
    if fmt == "lp":
        text = emit_lp_text(f)
    else:
        text = document_text(emit_structured(f, recovery, provenance=provenance,
                                             verification=report))
    _write_payload(text, args.out)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_encode(args) -> int:
    if args.s is not None:
        check_order(args.s, f"--s {args.s}")
    d = 2 ** args.s if args.s is not None else args.d
    e = make_encoding(d, EncodingKind(args.kind))
    # Both verdicts first, so a gate that hits its cap leaves no output.
    convex, hole_free = is_in_convex_position(e), is_hole_free(e)
    text = "\n".join(" ".join(str(x) for x in row) for row in e.rows) + "\n"
    _write_payload(text, args.out)
    _say(f"convex position: {'yes' if convex else 'no'}")
    _say(f"hole-free: {'yes' if hole_free else 'no'}")
    return EXIT_OK


_DOCUMENT_KINDS = {"formulate": CdcProblem, "pwl": PwlProblem}


def _cmd_document(args) -> int:
    doc = parse_problem(_read_text(args.document))
    expected = _DOCUMENT_KINDS[args.command]
    if not isinstance(doc, expected):
        raise InputError(f"{args.command} expects a {expected.kind} document, "
                         f"got kind {doc.kind!r}")
    if args.encoding is not None:
        doc = replace(doc, codes=EncodingKind(args.encoding))
    return _document_command(args, doc)


def _cmd_annulus(args) -> int:
    if (args.inner is None) != (args.outer is None):
        raise InputError("give both --inner and --outer or neither")
    spec = None
    if args.inner is not None:
        spec = AnnulusSpec(args.inner, args.outer, args.d)
    doc = AnnulusProblem(args.d, spec, EncodingKind(args.encoding), ProblemOptions())
    with warnings.catch_warnings():
        warnings.simplefilter("always", RuntimeWarning)
        # One line with no source path, so stderr stays byte-stable.
        warnings.showwarning = lambda message, *_: _say(f"warning: {message}")
        return _document_command(args, doc)


def _cmd_verify(args) -> int:
    doc = parse_problem(_read_text(args.problem))
    raw = load_json(_read_text(args.formulation), "formulation document is ")
    f, _ = formulation_from_document(raw)
    report, passed = _run_check(args.check, doc.disjunction(), doc.encoding(), f,
                                args.max_enum)
    summary = (verification_summary(report) if report is not None
               else {"passed": passed, "level": "validity"})
    sys.stdout.write(document_text(summary))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


_COMMANDS = {
    "encode": _cmd_encode,
    "formulate": _cmd_document,
    "pwl": _cmd_document,
    "annulus": _cmd_annulus,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except IdealformError as err:
        _say(f"error: {err}")
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
