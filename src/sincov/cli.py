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
invocation, or a closed or unusable standard stream (stdout, or stdin
read as "-"); 141 (128 + SIGPIPE, what a shell reports for a process
that signal killed) when the reader closes stdout early, with nothing on
stderr.  A closed or unwritable stderr changes neither the exit code nor
stdout: the diagnostics are dropped.
Payloads go to stdout in canonical JSON (sorted keys, compact separators,
one trailing newline) so identical inputs produce byte-identical outputs;
diagnostics go to stderr.  Every file argument accepts "-" for stdin,
which is decoded as strict UTF-8 under every locale, as files are.  Stdin
is read at most once, so repeated "-" arguments name the same document:
``sincov iso - -`` compares the atlas on stdin with itself.

A child loads only the layers its subcommand runs (the package docstring
lists them): the ``atlas`` and ``systems`` functions bound below import
their module at their first call.  ``reconstruct`` and ``build_system``
are bound although no subcommand calls them (``sincov reconstruct`` and
``sincov flow-gen`` write the transition rows from the charts), because
bench/tracing.py patches these names.

A child on a well-formed command line loads no argparse: ``main`` reads a
command, its positionals (each ``-`` or a token not starting with ``-``),
``--pretty`` and the command's ``--gamma`` or ``--laws`` at most once each
into the namespace argparse would make.  The value comes as ``--laws=V``
or, when V does not start with ``-``, as the next token: ``--laws V``.  It
hands anything else (``-h``, abbreviations, ``--gamma -V``, ``--``, bad
law lists, wrong counts) to argparse, the one source of help, usage and
error text.  A positional that argparse leaves as anything but a string
(``iso FILE -- --`` gives ``second=[]`` on Python 3.11) is a usage error,
exit 2.  A child ends in ``os._exit`` once ``run`` has flushed stdout and
stderr, skipping interpreter teardown.  So ``python -m cProfile -m sincov
...`` prints no profile; profile ``cli.main`` in-process instead.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from importlib import import_module
from types import SimpleNamespace

from . import jsonio
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


def _bound_at_first_call(module, name):
    """A stand-in for ``sincov.<module>.<name>`` that imports it when first
    called and rebinds this module's global ``name`` to it, so a child
    loads ``systems``, ``atlas`` or ``flows`` only when its subcommand runs
    them.  A stand-in that someone has replaced (bench/tracing.py wraps
    these names) leaves the replacement in place."""

    def stand_in(*args):
        function = getattr(import_module(f".{module}", __package__), name)
        if globals()[name] is stand_in:
            globals()[name] = function
        return function(*args)

    stand_in.__name__ = stand_in.__qualname__ = name
    return stand_in


validate_atlas = _bound_at_first_call("atlas", "validate_atlas")
find_isomorphism = _bound_at_first_call("atlas", "find_isomorphism")
check_at_axioms = _bound_at_first_call("atlas", "check_at_axioms")
check_sincov = _bound_at_first_call("systems", "check_sincov")
solve_atlas = _bound_at_first_call("systems", "solve_atlas")
solve_via_fixed_index = _bound_at_first_call("systems", "solve_via_fixed_index")
reconstruct = _bound_at_first_call("systems", "reconstruct")
build_system = _bound_at_first_call("flows", "build_system")


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
    """``--laws``' value: the laws that the comma-separated ``text`` names,
    in order.  A list that names none or an unknown law raises ValueError
    with the message that argparse prints for it."""
    from .systems import ALL_LAWS

    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise ValueError("--laws needs at least one law name")
    by_value = {law.value: law for law in ALL_LAWS}
    for name in names:
        if name not in by_value:
            raise ValueError(f"unknown law {name!r}; choose from {', '.join(by_value)}")
    return [by_value[name] for name in names]


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
    # The system the atlas generates, which main's dumps writes from the
    # charts; no SincovSystem is built, and the bytes equal
    # system_to_obj(reconstruct()).
    atlas = jsonio.atlas_from_obj(_load(args.file))
    violations = validate_atlas(atlas)
    if violations:
        return {"chart_violations": [jsonio.chart_violation_to_obj(v) for v in violations]}, 1
    return jsonio.GeneratedSystem(atlas), 0


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
    # The system the trajectory atlas generates, written from its charts as
    # _cmd_reconstruct's is: build_system's bytes, with no SincovSystem.
    from .flows import _trajectory_atlas

    spec, grid, seeds = jsonio.flow_from_obj(_load(args.file))
    try:
        atlas = _trajectory_atlas(spec, grid, seeds)
    except (KindMismatch, ValueError) as exc:
        raise FormatError(str(exc)) from None
    return jsonio.GeneratedSystem(atlas), 0


# name: (handler, help text, its positionals and the documents they name,
# its one valued option).  Both argv readers are built from this table.
_COMMANDS = {
    "check": (
        _cmd_check, "verify the transition-relation laws of a system", {"file": "system"}, "laws"
    ),
    "solve": (_cmd_solve, "construct a generating atlas for a system", {"file": "system"}, "gamma"),
    "reconstruct": (
        _cmd_reconstruct, "rebuild the system an atlas generates", {"file": "atlas"}, None
    ),
    "iso": (
        _cmd_iso,
        "find the carrier bijection between two atlases",
        {"first": "atlas", "second": "atlas"},
        None,
    ),
    "axioms": (_cmd_axioms, "set-level atlas axiom report", {"file": "atlas"}, None),
    "flow-gen": (
        _cmd_flow_gen, "sample a closed-form flow into a system", {"file": "flow descriptor"}, None
    ),
}


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="sincov",
        description="Solve and verify Sincov-type transition-relation systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (handler, help_text, positionals, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument(
            "--pretty",
            action="store_true",
            help="indented output instead of canonical one-line JSON",
        )
        p.set_defaults(handler=handler)
        for dest, document in positionals.items():
            p.add_argument(dest, help=f"{document} JSON path, or - for stdin")

    def laws(text):  # argparse prints an ArgumentTypeError's message as it is
        try:
            return _parse_laws(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    sub.choices["check"].add_argument(
        "--laws",
        type=laws,
        default=None,
        metavar="LIST",
        help="comma-separated subset of: transitivity,symmetry,identity",
    )
    sub.choices["solve"].add_argument(
        "--gamma",
        default=None,
        metavar="INDEX",
        help="group-case path: charts are the system's column at this index",
    )
    return parser


def _read_argv(argv):
    """The namespace that argparse makes of ``argv`` when ``argv`` has the
    shape real invocations use (see the module docstring), else None."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, _, positionals, option = _COMMANDS[argv[0]]
    values = {"command": argv[0], "pretty": False, "handler": handler}
    if option:
        values[option] = None  # a given value is never None
    prefix = f"--{option}="
    tokens = iter(argv[1:])
    given = []
    for token in tokens:
        if token == "--pretty" and not values["pretty"]:
            values["pretty"] = True
        elif option and token.startswith(prefix) and values[option] is None:
            values[option] = token[len(prefix) :]
        elif option and token == prefix[:-1] and values[option] is None:
            values[option] = next(tokens, "-")
            if values[option].startswith("-"):  # none, or one argparse reads its own way
                return None
        elif token == "-" or not token.startswith("-"):
            given.append(token)
        else:
            return None
    if len(given) != len(positionals):
        return None
    if option == "laws" and values["laws"] is not None:
        try:
            values["laws"] = _parse_laws(values["laws"])
        except ValueError:  # argparse reports it
            return None
    values.update(zip(positionals, given))
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        parser = _build_parser()
        args = parser.parse_args(argv)
        # argparse reads "iso FILE -- --" as second=[] (Python 3.11).
        for name in _COMMANDS[args.command][2]:
            if not isinstance(getattr(args, name), str):
                parser.error(f"argument {name}: expected one argument")
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
        # Point stdout at devnull so later flushes (run's, or at interpreter exit) stay quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (FormatError, UnknownIndex, OSError) as exc:
        try:
            print(f"sincov: error: {exc}", file=sys.stderr)
        except OSError:  # an unwritable stderr loses the text, not the exit code
            pass
        return 2
    finally:
        if collecting:
            gc.enable()


def run():
    """Process entry point (``python -m sincov``, the ``sincov`` script):
    ``main`` on ``sys.argv``, then stdout and stderr flushed and the process
    ended by ``os._exit`` with ``main``'s code, or argparse's for its help
    and usage errors, skipping interpreter teardown (atexit handlers,
    module and heap cleanup).  A well-formed argv loads no argparse.  An
    exception that escapes ``main`` takes the normal exit.

    A stderr closed at startup is bound to devnull, so no diagnostic falls
    back to stdout.  A failed flush is dropped: it held a diagnostic, or a
    payload whose failed write ``main`` has already made exit 2."""
    if sys.stderr is None:  # fd 2 was closed at startup
        sys.stderr = open(os.devnull, "w")
    try:
        code = main()
    except SystemExit as exc:  # argparse's; the exit's own flush would fail as 120
        code = exc.code
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # stdout is None when fd 1 was closed at startup
            try:
                stream.flush()
            except OSError:
                pass
    os._exit(code)


if __name__ == "__main__":
    run()
