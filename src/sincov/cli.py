"""Command-line front end.

Subcommands wire the library together over JSON documents:

    check        verify the transition-relation laws of a system
    solve        construct a generating atlas (optionally group-case --gamma)
    reconstruct  rebuild the system an atlas generates
    iso          find the carrier bijection between two atlases
    axioms       set-level atlas axiom report
    flow-gen     sample a closed-form flow into a system

Exit codes: 0 success / all laws hold; 1 laws violated, axiom failure, or
not isomorphic (the payload carries witnesses); 2 malformed input (non-UTF-8
bytes and integer literals past Python's digit limit included), bad
invocation, or a closed standard stream (stdout, or stdin read as "-");
141 (128 + SIGPIPE, what a shell reports for a process that signal
killed) when the reader closes stdout early, with nothing on stderr.
Payloads go to stdout in canonical JSON (sorted keys, compact separators,
one trailing newline) so identical inputs produce byte-identical outputs;
diagnostics go to stderr.  Every file argument accepts "-" for stdin,
which is decoded as strict UTF-8 under every locale, as files are.  Stdin
is read at most once, so repeated "-" arguments name the same document:
``sincov iso - -`` compares the atlas on stdin with itself.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from . import jsonio
# Not called here since reconstruct validates; bench/tracing.py spans this reference.
from .atlas import check_at_axioms, find_isomorphism, validate_atlas  # noqa: F401
from .errors import (
    EqualityCaseViolated,
    FormatError,
    IndexMismatch,
    InvalidAtlas,
    KindMismatch,
    NotIsomorphic,
    PreconditionViolated,
    UnknownIndex,
)
from .flows import build_system
from .systems import (
    ALL_LAWS,
    Law,
    check_sincov,
    reconstruct,
    solve_atlas,
    solve_via_fixed_index,
)


def _load(path):
    try:  # ValueError: bad JSON, non-UTF-8 bytes, integers past the digit limit
        if path == "-":
            if sys.stdin is None:  # fd 0 was closed when the interpreter started
                raise OSError("-: standard input is closed")
            # Strict UTF-8 whatever the locale, untranslated as sys.stdin reads
            # on POSIX; an in-process caller's StringIO holds text already.
            buffer = getattr(sys.stdin, "buffer", None)
            text = sys.stdin.read() if buffer is None else buffer.read().decode("utf-8")
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: {exc}") from None


def _parse_laws(text):
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise argparse.ArgumentTypeError("--laws needs at least one law name")
    laws = []
    for name in names:
        try:
            laws.append(Law(name))
        except ValueError:
            choices = ", ".join(law.value for law in ALL_LAWS)
            raise argparse.ArgumentTypeError(
                f"unknown law {name!r}; choose from {choices}"
            ) from None
    return laws


def _violations_payload(reports):
    return {"violations": [jsonio.violation_to_obj(r) for r in reports]}


def _cmd_check(args):
    system = jsonio.system_from_obj(_load(args.file))
    reports = check_sincov(system, args.laws)
    return _violations_payload(reports), 0 if not reports else 1


def _cmd_solve(args):
    system = jsonio.system_from_obj(_load(args.file))
    try:
        if args.gamma is None:
            atlas = solve_atlas(system)
        else:
            atlas = solve_via_fixed_index(system, args.gamma)
    except PreconditionViolated as exc:
        return _violations_payload(exc.reports), 1
    except EqualityCaseViolated as exc:
        return {"error": "equality-case-violated", "witness": list(exc.witness)}, 1
    return jsonio.atlas_to_obj(atlas), 0


def _cmd_reconstruct(args):
    atlas = jsonio.atlas_from_obj(_load(args.file))
    try:  # serialized here, so the system is freed before the JSON text is built
        return jsonio.system_to_obj(reconstruct(atlas)), 0
    except InvalidAtlas as exc:
        return {"chart_violations": [jsonio.chart_violation_to_obj(v) for v in exc.violations]}, 1


def _cmd_iso(args):
    a1 = jsonio.atlas_from_obj(_load(args.first))
    # Stdin is read once: every "-" names that one document, as in ``diff - -``.
    a2 = a1 if args.first == args.second == "-" else jsonio.atlas_from_obj(_load(args.second))
    try:
        return jsonio.isomorphism_to_obj(find_isomorphism(a1, a2)), 0
    except IndexMismatch as exc:
        payload = {
            "error": "index-mismatch",
            "only_in_first": sorted(exc.only_in_first),
            "only_in_second": sorted(exc.only_in_second),
        }
    except InvalidAtlas as exc:
        payload = {"error": "invalid-atlas", **jsonio.chart_violation_to_obj(exc)}
    except NotIsomorphic as exc:
        payload = {
            "error": "not-isomorphic",
            "reason": exc.reason,
            "indices": list(exc.indices),
            "pair": list(exc.pair),
            "present_in": exc.present_in,
        }
    return payload, 1


def _cmd_axioms(args):
    atlas = jsonio.atlas_from_obj(_load(args.file))
    report = check_at_axioms(atlas)
    return report, 0 if all(section["pass"] for section in report.values()) else 1


def _cmd_flow_gen(args):
    spec, grid, seeds = jsonio.flow_from_obj(_load(args.file))
    try:
        system = build_system(spec, grid, seeds)
    except (KindMismatch, ValueError) as exc:
        raise FormatError(str(exc)) from None
    return jsonio.system_to_obj(system), 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sincov",
        description="Solve and verify Sincov-type transition-relation systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name, handler, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument(
            "--pretty",
            action="store_true",
            help="indented output instead of canonical one-line JSON",
        )
        p.set_defaults(handler=handler)
        return p

    p = command("check", _cmd_check, "verify the transition-relation laws of a system")
    p.add_argument("file", help="system JSON path, or - for stdin")
    p.add_argument(
        "--laws",
        type=_parse_laws,
        default=None,
        metavar="LIST",
        help="comma-separated subset of: transitivity,symmetry,identity",
    )

    p = command("solve", _cmd_solve, "construct a generating atlas for a system")
    p.add_argument("file", help="system JSON path, or - for stdin")
    p.add_argument(
        "--gamma",
        default=None,
        metavar="INDEX",
        help="group-case path: charts are the system's column at this index",
    )

    p = command("reconstruct", _cmd_reconstruct, "rebuild the system an atlas generates")
    p.add_argument("file", help="atlas JSON path, or - for stdin")

    p = command("iso", _cmd_iso, "find the carrier bijection between two atlases")
    p.add_argument("first", help="atlas JSON path, or - for stdin")
    p.add_argument("second", help="atlas JSON path, or - for stdin")

    p = command("axioms", _cmd_axioms, "set-level atlas axiom report")
    p.add_argument("file", help="atlas JSON path, or - for stdin")

    p = command("flow-gen", _cmd_flow_gen, "sample a closed-form flow into a system")
    p.add_argument("file", help="flow descriptor JSON path, or - for stdin")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # sincov builds no reference cycles in bulk, so the cyclic collector
    # would only re-scan its growing heap; the caller's state comes back.
    collecting = gc.isenabled()
    gc.disable()
    try:
        if sys.stdout is None:  # fd 1 was closed when the interpreter started
            raise OSError("standard output is closed")
        payload, code = args.handler(args)
        dumps = jsonio.pretty_dumps if args.pretty else jsonio.canonical_dumps
        # Flushed here, so a closed pipe fails inside main, not at interpreter exit.
        print(dumps(payload), flush=True)
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the flush at interpreter exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (FormatError, UnknownIndex, OSError) as exc:
        print(f"sincov: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
