import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sincov.atlas
import sincov.cli
import sincov.systems
from corpus import run_child, run_main
from genutil import atlases_st, corrupted_atlases_st, raw_atlases_st
from sincov import Atlas, InvalidAtlas, Relation, jsonio, reconstruct

GOLDEN = Path(__file__).parent / "golden"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"

PAIR_SYSTEM = GOLDEN / "pair_system.json"
PAIR_ATLAS = GOLDEN / "pair_system.atlas.json"
BLOWUP_FLOW = GOLDEN / "blowup_flow.json"
BLOWUP_SYSTEM = GOLDEN / "blowup_flow.system.json"
AXIOMS_FAIL_ATLAS = GOLDEN / "axioms_fail.atlas.json"
AXIOMS_FAIL_REPORT = GOLDEN / "axioms_fail.report.json"

BROKEN_SYMMETRY = '{"indices":["a","b"],"relations":{"a|b":[["1","0"]]}}'


class TestCheck:
    def test_valid_system(self):
        code, out, _ = run_main(["check", "-"], PAIR_SYSTEM.read_bytes())
        assert code == 0
        assert json.loads(out) == {"violations": []}

    def test_broken_symmetry(self):
        code, out, _ = run_main(["check", "-"], BROKEN_SYMMETRY.encode())
        assert code == 1
        assert json.loads(out) == {
            "violations": [
                {"law": "symmetry", "indices": ["a", "b"], "pair": ["0", "1"]}
            ]
        }

    def test_laws_filter_passes_other_laws(self):
        argv = ["check", "-", "--laws", "identity,transitivity"]
        code, out, _ = run_main(argv, BROKEN_SYMMETRY.encode())
        assert code == 0
        assert json.loads(out) == {"violations": []}

    def test_deeply_nested_json(self):
        code, out, err = run_child(["check", "-"], b"[" * 100000 + b"]" * 100000)
        assert code == 2
        assert out == b""
        assert err.startswith(b"sincov: error: ")
        assert b"Traceback" not in err

    @pytest.mark.parametrize(
        "raw",
        [b'{"indices": [' + b"9" * 5000 + b"]}", b"\xff\xfe{}"],
        ids=["5000-digit-integer", "non-utf-8"],
    )
    @pytest.mark.parametrize("source", ["path", "stdin"])
    def test_undecodable_input_is_malformed(self, tmp_path, raw, source):
        # Written as raw bytes, since json.dumps refuses such an integer.
        path = tmp_path / "doc.json"
        path.write_bytes(raw)
        if source == "path":
            code, out, err = run_main(["check", str(path)], b"")
        else:
            code, out, err = run_main(["check", "-"], raw)
        assert code == 2
        assert out == ""
        assert err.startswith("sincov: error: ")
        assert err.count("\n") == 1

    def test_non_utf8_stdin_is_malformed_under_the_c_locale(self):
        # The C locale gives sys.stdin surrogateescape, which would let the
        # byte through as the id "\udcff" with exit 0.
        data = b'{"indices":["\xff"],"relations":{}}'
        code, out, err = run_child(["solve", "-"], data, {"LC_ALL": "C"})
        assert code == 2
        assert out == b""
        assert err.startswith(b"sincov: error: -: ")
        assert err.count(b"\n") == 1

    def test_missing_file(self, tmp_path):
        code, _, err = run_main(["check", str(tmp_path / "nope.json")], b"")
        assert code == 2
        assert "error" in err

    def test_stdin_text_stream(self):
        # An in-process caller may hand over decoded text with no bytes under it.
        code, out, _ = run_main(["check", "-"], PAIR_SYSTEM.read_text())
        assert (code, json.loads(out)) == (0, {"violations": []})


class TestSolve:
    def test_all_empty_system(self):
        code, out, _ = run_main(["solve", "-"], b'{"indices":["a"],"relations":{}}')
        assert code == 0
        assert out == '{"charts":{"a":[]}}\n'

    def test_violating_system_reports(self):
        data = BROKEN_SYMMETRY.encode()
        check_code, check_out, _ = run_main(["check", "-"], data)
        assert check_code == 1
        assert json.loads(check_out)["violations"]
        for extra in ([], ["--gamma", "a"]):
            code, out, _ = run_main(["solve", "-", *extra], data)
            assert code == 1
            assert out == check_out

    def test_unknown_gamma_wins_over_violations(self):
        code, out, err = run_main(["solve", "-", "--gamma", "zz"], BROKEN_SYMMETRY.encode())
        assert code == 2
        assert out == ""
        assert "unknown index" in err

    def test_gamma_group_case(self):
        swap = (
            b'{"indices":["a","b"],"relations":{'
            b'"a|a":[["0","0"],["1","1"]],"b|b":[["0","0"],["1","1"]],'
            b'"a|b":[["0","1"],["1","0"]],"b|a":[["0","1"],["1","0"]]}}'
        )
        code, out, _ = run_main(["solve", "-", "--gamma", "a"], swap)
        assert code == 0
        assert json.loads(out) == {
            "charts": {
                "a": [["0", "0"], ["1", "1"]],
                "b": [["0", "1"], ["1", "0"]],
            }
        }

    def test_gamma_strict_containment(self):
        strict = b'{"indices":["a","b"],"relations":{"a|a":[["0","0"],["1","1"]]}}'
        code, out, _ = run_main(["solve", "-", "--gamma", "b"], strict)
        assert code == 1
        assert json.loads(out) == {
            "error": "equality-case-violated",
            "witness": ["a", "b", "a"],
        }


class TestReconstruct:
    def test_invalid_atlas(self):
        code, out, _ = run_main(["reconstruct", "-"], b'{"charts":{"a":[["z","0"],["z","1"]]}}')
        assert code == 1
        assert json.loads(out) == {
            "chart_violations": [
                {"index": "a", "predicate": "co-injectivity", "pair": ["z", "0"]}
            ]
        }

    @pytest.mark.parametrize(
        "text, expected",
        [
            ('{"charts":{"a":[["z","0"]],"b":[["z","1"]]}}', 0),
            ('{"charts":{"a":[["z","0"],["z","1"]],"b":[["w","2"],["v","2"]]}}', 1),
        ],
        ids=["valid", "invalid"],
    )
    def test_validates_atlas_once(self, monkeypatch, text, expected):
        calls = []
        validate_atlas = sincov.atlas.validate_atlas

        def counted(atlas):
            calls.append(atlas)
            return validate_atlas(atlas)

        for module in (sincov.atlas, sincov.systems, sincov.cli):
            monkeypatch.setattr(module, "validate_atlas", counted)
        code, out, _ = run_main(["reconstruct", "-"], text.encode())
        assert (code, len(calls)) == (expected, 1)
        if expected:
            assert len(json.loads(out)["chart_violations"]) == 2

    @given(st.one_of(atlases_st(), corrupted_atlases_st(), raw_atlases_st()))
    @example(  # identifiers that JSON escapes, in every position
        Atlas(
            {
                '"q': Relation([('z"', "\\"), ("\x01", "é")]),
                "\\": Relation([('z"', "\U0001f600"), ("\x01", '"')]),
                "\x07ü\U0001f600": Relation([("\x01", "\n")]),
            }
        )
    )
    @example(  # "a|…" keys sort after "a!|…" keys, (a, …) tuples before (a!, …)
        Atlas({"a": Relation([("z", "0"), ("w", "1")]), "a!": Relation([("z", "2"), ("w", "3")])})
    )
    @example(  # charts with no point and with one point
        Atlas({"a": Relation(), "b": Relation([("z", "0")]), "c": Relation([("z", "1"), ("w", "2")])})
    )
    @example(Atlas({"a": Relation()}))
    @example(Atlas({}))
    @settings(max_examples=150, deadline=None)
    def test_rows_give_the_library_bytes(self, atlas):
        # The handler writes transition rows; the library path builds the
        # system, or raises with every chart violation.
        try:
            payload, expected = jsonio.system_to_obj(reconstruct(atlas)), 0
        except InvalidAtlas as exc:
            violations = [jsonio.chart_violation_to_obj(v) for v in exc.violations]
            payload, expected = {"chart_violations": violations}, 1
        text = jsonio.canonical_dumps(jsonio.atlas_to_obj(atlas))
        for flags, dumps in (([], jsonio.canonical_dumps), (["--pretty"], jsonio.pretty_dumps)):
            result = run_main(["reconstruct", "-", *flags], text.encode())
            assert result == (expected, dumps(payload) + "\n", "")


class TestIso:
    def test_self_is_identity(self):
        code, out, _ = run_main(["iso", "-", str(PAIR_ATLAS)], PAIR_ATLAS.read_bytes())
        assert code == 0
        assert json.loads(out) == {"omega": [["cls:a:0", "cls:a:0"]]}

    def test_repeated_dash_names_one_document(self):
        # Stdin is read once per call, and every "-" is that document.
        documents = ((PAIR_ATLAS.read_bytes(), "cls:a:0"), (b'{"charts":{"a":[["z","0"]]}}', "z"))
        for data, point in documents:
            code, out, err = run_main(["iso", "-", "-"], data)
            assert (code, json.loads(out), err) == (0, {"omega": [[point, point]]}, "")

    def test_not_isomorphic(self):
        code, out, _ = run_main(["iso", str(PAIR_ATLAS), "-"], b'{"charts":{"a":[],"b":[]}}')
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "not-isomorphic"
        assert payload["reason"] == "missing_counterpart"
        assert payload["present_in"] == 1

    def test_index_mismatch(self):
        code, out, _ = run_main(["iso", str(PAIR_ATLAS), "-"], b'{"charts":{"q":[]}}')
        assert code == 1
        assert json.loads(out) == {
            "error": "index-mismatch",
            "only_in_first": ["a", "b"],
            "only_in_second": ["q"],
        }

    def test_invalid_atlas(self):
        bad = b'{"charts":{"a":[["z","0"],["w","0"]],"b":[]}}'
        code, out, _ = run_main(["iso", "-", str(PAIR_ATLAS)], bad)
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "invalid-atlas"
        assert payload["predicate"] == "injectivity"


class TestAxioms:
    def test_failing_atlas(self):
        code, out, _ = run_main(["axioms", "-"], b'{"charts":{"a":[["z","0"],["z","1"]]}}')
        assert code == 1
        report = json.loads(out)
        assert report["at2"]["pass"] is False

    def test_failing_golden(self):
        # Valid charts sharing points with a non-injective and a
        # non-co-injective chart: at3 fails exactly in the bad rows/columns.
        code, out, _ = run_main(["axioms", "-"], AXIOMS_FAIL_ATLAS.read_bytes())
        assert code == 1
        assert out == AXIOMS_FAIL_REPORT.read_text()


class TestFlowGen:
    @pytest.mark.parametrize("kind", [[], {}, None, 3])
    def test_non_string_kind(self, kind):
        flow = json.dumps({"kind": kind, "grid": ["0"], "seeds": []})
        code, out, err = run_main(["flow-gen", "-"], flow.encode())
        assert code == 2
        assert out == ""
        assert err.startswith("sincov: error: kind must be one of [")


def _field_paths(doc, prefix=()):
    """Every path of keys and list positions below the document root."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return copy


PERMUTATION_FLOW = {
    "kind": "permutation",
    "grid": ["0", "1", "2"],
    "permutation": {"p": "q", "q": "p"},
    "seeds": [{"t": "0", "x": "p"}],
}
FUZZ_DOCUMENTS = [
    (["check", "-"], json.loads(PAIR_SYSTEM.read_text())),
    (["solve", "-"], json.loads(PAIR_SYSTEM.read_text())),
    (["solve", "--gamma", "a", "-"], json.loads(PAIR_SYSTEM.read_text())),
    (["reconstruct", "-"], json.loads(PAIR_ATLAS.read_text())),
    (["iso", "-", str(PAIR_ATLAS)], json.loads(PAIR_ATLAS.read_text())),
    (["axioms", "-"], json.loads(PAIR_ATLAS.read_text())),
    (["flow-gen", "-"], json.loads(BLOWUP_FLOW.read_text())),
    (["flow-gen", "-"], PERMUTATION_FLOW),
]
FUZZ_FIELDS = [(argv, doc, path) for argv, doc in FUZZ_DOCUMENTS for path in _field_paths(doc)]
FLOW_KIND = next(f for f in FUZZ_FIELDS if f[0][0] == "flow-gen" and f[2] == ("kind",))
json_scalars = st.none() | st.booleans() | st.integers() | st.text()


def json_containers(inner):
    return st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4)


json_values = st.recursive(
    json_scalars | st.floats(allow_nan=False, allow_infinity=False), json_containers, max_leaves=12
)


class TestFuzz:
    @given(field=st.sampled_from(FUZZ_FIELDS), value=json_values)
    @example(field=FLOW_KIND, value=[])
    @example(field=FLOW_KIND, value={})
    @settings(max_examples=400, deadline=None)
    def test_one_field_replaced(self, field, value):
        # Any one field of a valid document replaced by any JSON value: a
        # payload and exit 0 or 1, or exit 2 with one error line and no payload.
        argv, doc, path = field
        code, out, err = run_main(argv, json.dumps(_replaced(doc, path, value)).encode())
        assert code in (0, 1, 2)
        if code == 2:
            assert out == ""
            assert err.startswith("sincov: error: ")
            assert err.count("\n") == 1 and err.endswith("\n")
        else:
            json.loads(out)
            assert err == ""


class TestCollector:
    def test_off_while_the_handler_runs(self, monkeypatch):
        seen = []

        def recording(atlas):
            seen.append(gc.isenabled())
            return sincov.atlas.validate_atlas(atlas)

        monkeypatch.setattr(sincov.cli, "validate_atlas", recording)
        assert gc.isenabled()
        code, out, _ = run_main(["reconstruct", "-"], PAIR_ATLAS.read_bytes())
        assert (code, seen) == (0, [False])
        assert out == PAIR_SYSTEM.read_text()

    def test_main_freezes_nothing(self):
        # main, the in-process API, leaves the caller's heap unfrozen.
        frozen = gc.get_freeze_count()
        assert run_main(["check", "-"], PAIR_SYSTEM.read_bytes())[0] == 0
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "argv, data, expected",
        [
            (["check", "-"], PAIR_SYSTEM.read_bytes(), 0),
            (["check", "-"], b"{", 2),
            (["axioms", "-"], AXIOMS_FAIL_ATLAS.read_bytes(), 1),
        ],
        ids=["success", "exit-2", "exit-1"],
    )
    def test_caller_state_comes_back(self, argv, data, expected, enabled):
        (gc.enable if enabled else gc.disable)()
        try:
            code = run_main(argv, data)[0]
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert code == expected


STAND_INS = [
    ("check_sincov", ["check", "-"]),
    ("solve_atlas", ["solve", "-"]),
    ("solve_via_fixed_index", ["solve", "--gamma=a", "-"]),
]


class TestStandIns:
    # bench/tracing.py spans both cli's and systems' name for a function.
    # A stand-in that forwarded on every call would nest the one span in
    # the other, and count each call twice.
    @pytest.mark.parametrize("name, argv", STAND_INS, ids=[n for n, _ in STAND_INS])
    def test_first_call_binds_the_systems_function(self, name, argv):
        assert run_main(argv, PAIR_SYSTEM.read_bytes())[0] == 0
        assert getattr(sincov.cli, name) is getattr(sincov.systems, name)

    @pytest.mark.parametrize("name, argv", STAND_INS, ids=[n for n, _ in STAND_INS])
    def test_replacement_bound_before_the_first_call_stays(self, monkeypatch, name, argv):
        stand_in, calls = sincov.cli._bound_at_first_call("systems", name), []

        def replacement(*args):
            calls.append(name)
            return stand_in(*args)

        monkeypatch.setattr(sincov.cli, name, replacement)
        for _ in range(2):
            assert run_main(argv, PAIR_SYSTEM.read_bytes())[0] == 0
        assert getattr(sincov.cli, name) is replacement
        assert calls == [name, name]


class TestOutputModes:
    def test_pretty_same_payload(self):
        _, canonical, _ = run_main(["solve", "-"], PAIR_SYSTEM.read_bytes())
        _, pretty, _ = run_main(["solve", "-", "--pretty"], PAIR_SYSTEM.read_bytes())
        assert pretty != canonical
        assert "\n  " in pretty
        assert json.loads(pretty) == json.loads(canonical)


def main_via(read_argv, argv, text):
    """``run_main(argv, text)`` with ``cli._read_argv`` replaced by ``read_argv``."""
    with mock.patch.object(sincov.cli, "_read_argv", read_argv):
        return run_main(argv, text.encode())


PARSER = sincov.cli._build_parser()


def argparse_namespace(argv):
    """``vars()`` of argparse's namespace for ``argv``, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


LAW_LISTS = ["identity,symmetry", "transitivity", "symmetry, identity", "nope"]
POSITIONAL_TOKENS = [
    *sincov.cli._COMMANDS, "-", str(PAIR_SYSTEM), str(PAIR_ATLAS), "missing.json", "", "x", "x=y",
    *LAW_LISTS,
]
OPTION_TOKENS = [
    "--pretty", "--pre", "--gamma=a", "--gamma= a ", "--gamma=", "--gamma=-1", "--gamma", "--laws",
    "--laws=identity", "--laws=symmetry, transitivity", "--laws=nope", "--laws=", "--laws= ,",
    "-h", "--", "-1",
]


@st.composite
def argv_st(draw):
    """Token lists that mostly start with a command, then hold a few
    positional-looking and option-looking tokens in any order, half of
    them a two-token ``--laws L`` (after check) or ``--gamma V``."""
    head = draw(st.sampled_from([*sincov.cli._COMMANDS, "x", "--pretty", "-h"]))
    groups = [[draw(st.sampled_from(POSITIONAL_TOKENS))] for _ in range(draw(st.integers(0, 2)))]
    groups += [[token] for token in draw(st.lists(st.sampled_from(OPTION_TOKENS), max_size=2))]
    if draw(st.booleans()):
        flag, values = ("--laws", LAW_LISTS) if head == "check" else ("--gamma", POSITIONAL_TOKENS)
        groups.append([flag, draw(st.sampled_from(values))])
    return [head, *(token for group in draw(st.permutations(groups)) for token in group)]


STDIN_DOCUMENTS = [PAIR_SYSTEM.read_text(), PAIR_ATLAS.read_text()]


class TestArgvReader:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "-"],
            ["check", "--pretty", "-", "--laws=identity,symmetry"],
            ["solve", "-", "--gamma=0"],
            ["solve", "--gamma", "", "-"],
            ["check", "-", "--laws", "identity,symmetry"],
            ["solve", "--gamma=", "x=y"],
            ["solve", "--gamma= a ", "-"],
            ["reconstruct", ""],
            ["iso", "-", "-", "--pretty"],
            ["axioms", "check"],
            ["flow-gen", "-"],
        ],
    )
    def test_reads_the_shape_real_invocations_use(self, argv):
        namespace = sincov.cli._read_argv(argv)
        assert namespace is not None
        assert vars(namespace) == argparse_namespace(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["check", "-h"],
            ["check", "--pre", "-"],
            ["check", "-", "--pretty", "--pretty"],
            ["solve", "--gamma", "-x", "-"],
            ["solve", "-", "--gamma"],
            ["solve", "--gamma", "a", "--gamma=b", "-"],
            ["check", "--laws", "nope", "-"],
            ["solve", "--gamma=a", "--gamma=b", "-"],
            ["solve", "--", "-"],
            ["solve", "-1"],
            ["check", "--laws=nope", "-"],
            ["check", "--laws=", "-"],
            ["check", "--gamma=a", "-"],
            ["iso", "-"],
            ["axioms", "-", "-"],
            ["frobnicate", "-"],
        ],
    )
    def test_hands_every_other_argv_to_argparse(self, argv):
        assert sincov.cli._read_argv(argv) is None

    @given(argv=argv_st())
    @settings(max_examples=2000, deadline=None)
    def test_namespace_agrees_with_argparse(self, argv):
        namespace = sincov.cli._read_argv(argv)
        if namespace is not None:
            assert vars(namespace) == argparse_namespace(argv)

    @given(argv=argv_st(), text=st.sampled_from(STDIN_DOCUMENTS))
    @example(argv=[], text=STDIN_DOCUMENTS[0])
    @example(argv=["check", "--laws=identity", "-"], text=STDIN_DOCUMENTS[0])
    @example(argv=["solve", "--gamma=a", "-", "--pretty"], text=STDIN_DOCUMENTS[0])
    @example(argv=["iso", "-", str(PAIR_ATLAS)], text=STDIN_DOCUMENTS[1])
    @example(argv=["iso", str(PAIR_ATLAS), "--", "--"], text=STDIN_DOCUMENTS[1])
    @settings(max_examples=300, deadline=None)
    def test_output_agrees_with_argparse(self, argv, text):
        # Exit code, stdout and stderr, argparse's help and usage text included.
        expected = main_via(lambda argv: None, argv, text)
        assert main_via(sincov.cli._read_argv, argv, text) == expected


# name: (argv, stdin bytes), one per outcome of a run whose streams are open.
STREAM_DOCUMENTS = {
    "lawful": (["check", "-"], PAIR_SYSTEM.read_bytes()),
    "unlawful": (["check", "-"], BROKEN_SYMMETRY.encode()),
    "malformed": (["check", "-"], b"{"),
    "usage-error": (["check", "--laws=nope", "-"], b"{}"),
}


class TestSubprocessEntryPoints:
    def test_module_invocation(self):
        code, out, _ = run_child(["check", str(PAIR_SYSTEM)])
        assert code == 0
        assert json.loads(out) == {"violations": []}

    @pytest.mark.parametrize("entry", ["module", "script"])
    def test_entry_point_exits_with_mains_code_after_flushing(self, entry):
        # A stand-in main leaves text in both streams' buffers and registers
        # an atexit handler: run flushes the one and skips the other.
        if entry == "module":
            call = "import runpy; runpy.run_module('sincov', run_name='__main__')"
        else:
            target = re.search(r'^sincov = "(.+)"$', PYPROJECT.read_text(), re.MULTILINE)[1]
            module, _, name = target.partition(":")
            call = f"import {module}; {module}.{name}()"
        stand_in = (
            "def main():\n"
            "    atexit.register(print, 'teardown ran')\n"
            "    sys.stdout.write('out'); sys.stderr.write('err')\n"
            "    return 3\n"
            "sincov.cli.main = main\n"
        )
        script = f"import atexit, sys, sincov.cli\n{stand_in}{call}"
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"},
        )
        assert (result.returncode, result.stdout, result.stderr) == (3, "out", "err")

    def test_exception_in_main_takes_the_normal_exit(self):
        script = (
            "import sincov.cli\n"
            "def main():\n"
            "    raise RuntimeError('boom')\n"
            "sincov.cli.main = main\n"
            "sincov.cli.run()"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.startswith("Traceback (most recent call last):\n")
        assert result.stderr.endswith("RuntimeError: boom\n")

    def test_help_exits_0_with_argparse_text(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
        code, out, err = run_child(["-h"])
        assert (code, err) == (0, b"")
        assert out.decode() == sincov.cli._build_parser().format_help()

    @pytest.mark.parametrize(
        "argv, text, code",
        [
            (["check", "-"], BROKEN_SYMMETRY, 1),
            (["axioms", str(AXIOMS_FAIL_ATLAS), "--pretty"], "", 1),
            (["check", "-"], "{", 2),
            (["solve", "--gamma=q", "-"], PAIR_SYSTEM.read_text(), 2),
            (["check", "--laws=nope", "-"], "{}", 2),
            (["iso", str(PAIR_ATLAS), "--", "--"], "", 2),
        ],
        ids=[
            "violations", "axioms-pretty", "malformed", "unknown-gamma", "argparse-error",
            "iso-dashes",
        ],
    )
    def test_exit_codes_1_and_2_keep_their_output(self, monkeypatch, argv, text, code):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
        status, out, err = run_child(argv, text.encode())
        got = (status, out.decode(), err.decode())
        assert got == main_via(sincov.cli._read_argv, argv, text)
        assert got[0] == code
        if code == 1:  # the payload alone
            assert got[1] and got[2] == ""
        else:  # the error text alone
            assert ": error: " in got[2] and got[1] == ""

    def test_large_output_reaches_the_pipe_whole(self):
        # A 1 000-point atlas whose generated system is 2.6 MB of text, far more
        # than a pipe holds, so the child writes while the parent reads.
        charts = {
            f"c{k:02d}": [[f"z{n}", f"{k}.{n}"] for n in range(1000)] for k in range(12)
        }
        data = json.dumps({"charts": charts}).encode()
        code, out, err = run_main(["reconstruct", "-"], data)
        assert (code, err) == (0, "") and len(out) > 2_000_000
        assert run_child(["reconstruct", "-"], data) == (0, out.encode(), b"")

    @pytest.mark.parametrize("hash_seed", ["0", "1"])
    def test_shell_pipeline(self, hash_seed):
        env = {"PYTHONHASHSEED": hash_seed}
        code, generated, _ = run_child(["flow-gen", str(BLOWUP_FLOW)], env=env)
        assert code == 0
        code, solved, _ = run_child(["solve", "-"], generated, env)
        assert code == 0
        code, rebuilt, _ = run_child(["reconstruct", "-"], solved, env)
        assert code == 0
        assert rebuilt == generated == BLOWUP_SYSTEM.read_bytes()

    @pytest.mark.parametrize("document", sorted(STREAM_DOCUMENTS))
    @pytest.mark.parametrize("fd", [0, 1, 2], ids=["stdin", "stdout", "stderr"])
    @pytest.mark.parametrize("broken", ["closed", "wrong-way"])
    def test_standard_stream_matrix(self, monkeypatch, broken, fd, document):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
        argv, data = STREAM_DOCUMENTS[document]

        def break_stream():  # in the child, before Python sets up its streams
            if broken == "closed":  # Python sets that stream to None
                os.close(fd)
            else:  # stdin opened for writing, stdout or stderr for reading
                os.dup2(os.open(os.devnull, os.O_WRONLY if fd == 0 else os.O_RDONLY), fd)

        code, out, err = run_child(argv, data, preexec_fn=break_stream)
        open_code, open_out, open_err = run_main(argv, data)
        # Only stderr may fail without failing the run: input is unread, or
        # the payload unwritten, otherwise.
        assert code == (open_code if fd == 2 else 2)
        assert out == (open_out.encode() if fd == 2 else b"")
        if fd == 2:
            assert err == b""
        elif document == "usage-error":
            assert err.decode() == open_err
        else:
            lines = err.decode().splitlines()
            assert len(lines) == 1 and lines[0].startswith("sincov: error: ")

    def test_broken_pipe_exits_quietly(self, tmp_path):
        # About 115 KiB of output, more than a pipe and a read buffer hold, so
        # the writer is still writing when the reader goes away.
        flow = {
            "kind": "blowup",
            "grid": [f"{i}/4" for i in range(30)],
            "seeds": [{"t": "0", "x": f"{k}/7"} for k in range(-5, 6)],
        }
        path = tmp_path / "flow.json"
        path.write_text(json.dumps(flow))
        with open(tmp_path / "stderr", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "sincov", "flow-gen", str(path)],
                stdout=subprocess.PIPE,
                stderr=err,
            )
            assert proc.stdout.read(10) == b'{"indices"'
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
        assert (tmp_path / "stderr").read_bytes() == b""
