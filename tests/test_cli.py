import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sincov.atlas
import sincov.cli
import sincov.systems
from sincov.cli import main

GOLDEN = Path(__file__).parent / "golden"

PAIR_SYSTEM = GOLDEN / "pair_system.json"
PAIR_ATLAS = GOLDEN / "pair_system.atlas.json"
BLOWUP_FLOW = GOLDEN / "blowup_flow.json"
BLOWUP_SYSTEM = GOLDEN / "blowup_flow.system.json"
AXIOMS_REPORT = GOLDEN / "axioms_pass.report.json"

BROKEN_SYMMETRY = '{"indices":["a","b"],"relations":{"a|b":[["1","0"]]}}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestCheck:
    def test_valid_system(self, capsys):
        code, out, _ = run_cli(capsys, "check", str(PAIR_SYSTEM))
        assert code == 0
        assert json.loads(out) == {"violations": []}

    def test_broken_symmetry(self, capsys, tmp_path):
        path = write(tmp_path, "bad.json", BROKEN_SYMMETRY)
        code, out, _ = run_cli(capsys, "check", path)
        assert code == 1
        assert json.loads(out) == {
            "violations": [
                {"law": "symmetry", "indices": ["a", "b"], "pair": ["0", "1"]}
            ]
        }

    def test_laws_filter_passes_other_laws(self, capsys, tmp_path):
        path = write(tmp_path, "bad.json", BROKEN_SYMMETRY)
        code, out, _ = run_cli(capsys, "check", path, "--laws", "identity,transitivity")
        assert code == 0
        assert json.loads(out) == {"violations": []}

    def test_unknown_law_is_usage_error(self, capsys, tmp_path):
        path = write(tmp_path, "bad.json", BROKEN_SYMMETRY)
        with pytest.raises(SystemExit) as excinfo:
            main(["check", path, "--laws", "gravity"])
        assert excinfo.value.code == 2

    def test_malformed_json(self, capsys, tmp_path):
        path = write(tmp_path, "broken.json", "{")
        code, out, err = run_cli(capsys, "check", path)
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_deeply_nested_json(self):
        result = subprocess.run(
            [sys.executable, "-m", "sincov", "check", "-"],
            input="[" * 100000 + "]" * 100000,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("sincov: error: ")
        assert "Traceback" not in result.stderr

    def test_wrong_shape(self, capsys, tmp_path):
        path = write(tmp_path, "shape.json", '{"indices":["a"],"relations":{"a":[]}}')
        code, _, err = run_cli(capsys, "check", path)
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "check", str(tmp_path / "nope.json"))
        assert code == 2
        assert "error" in err

    def test_stdin_dash(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(PAIR_SYSTEM.read_text()))
        code, out, _ = run_cli(capsys, "check", "-")
        assert code == 0
        assert json.loads(out) == {"violations": []}


class TestSolve:
    def test_golden_atlas(self, capsys):
        code, out, _ = run_cli(capsys, "solve", str(PAIR_SYSTEM))
        assert code == 0
        assert out == PAIR_ATLAS.read_text()

    def test_all_empty_system(self, capsys, tmp_path):
        path = write(tmp_path, "empty.json", '{"indices":["a"],"relations":{}}')
        code, out, _ = run_cli(capsys, "solve", path)
        assert code == 0
        assert out == '{"charts":{"a":[]}}\n'

    def test_violating_system_reports(self, capsys, tmp_path):
        path = write(tmp_path, "bad.json", BROKEN_SYMMETRY)
        check_code, check_out, _ = run_cli(capsys, "check", path)
        assert check_code == 1
        assert json.loads(check_out)["violations"]
        for extra in ([], ["--gamma", "a"]):
            code, out, _ = run_cli(capsys, "solve", path, *extra)
            assert code == 1
            assert out == check_out

    def test_unknown_gamma_wins_over_violations(self, capsys, tmp_path):
        path = write(tmp_path, "bad.json", BROKEN_SYMMETRY)
        code, out, err = run_cli(capsys, "solve", path, "--gamma", "zz")
        assert code == 2
        assert out == ""
        assert "unknown index" in err

    def test_gamma_group_case(self, capsys, tmp_path):
        swap = (
            '{"indices":["a","b"],"relations":{'
            '"a|a":[["0","0"],["1","1"]],"b|b":[["0","0"],["1","1"]],'
            '"a|b":[["0","1"],["1","0"]],"b|a":[["0","1"],["1","0"]]}}'
        )
        path = write(tmp_path, "swap.json", swap)
        code, out, _ = run_cli(capsys, "solve", path, "--gamma", "a")
        assert code == 0
        assert json.loads(out) == {
            "charts": {
                "a": [["0", "0"], ["1", "1"]],
                "b": [["0", "1"], ["1", "0"]],
            }
        }

    def test_gamma_strict_containment(self, capsys, tmp_path):
        strict = '{"indices":["a","b"],"relations":{"a|a":[["0","0"],["1","1"]]}}'
        path = write(tmp_path, "strict.json", strict)
        code, out, _ = run_cli(capsys, "solve", path, "--gamma", "b")
        assert code == 1
        assert json.loads(out) == {
            "error": "equality-case-violated",
            "witness": ["a", "b", "a"],
        }

    def test_gamma_unknown_index(self, capsys):
        code, out, err = run_cli(capsys, "solve", str(PAIR_SYSTEM), "--gamma", "zz")
        assert code == 2
        assert out == ""
        assert "unknown index" in err


class TestReconstruct:
    def test_round_trip_with_solve(self, capsys):
        code, out, _ = run_cli(capsys, "reconstruct", str(PAIR_ATLAS))
        assert code == 0
        assert out == PAIR_SYSTEM.read_text()

    def test_invalid_atlas(self, capsys, tmp_path):
        path = write(tmp_path, "bad.json", '{"charts":{"a":[["z","0"],["z","1"]]}}')
        code, out, _ = run_cli(capsys, "reconstruct", path)
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
    def test_validates_atlas_once(self, capsys, monkeypatch, tmp_path, text, expected):
        calls = []
        validate_atlas = sincov.atlas.validate_atlas

        def counted(atlas):
            calls.append(atlas)
            return validate_atlas(atlas)

        for module in (sincov.atlas, sincov.systems, sincov.cli):
            monkeypatch.setattr(module, "validate_atlas", counted)
        code, out, _ = run_cli(capsys, "reconstruct", write(tmp_path, "atlas.json", text))
        assert (code, len(calls)) == (expected, 1)
        if expected:
            assert len(json.loads(out)["chart_violations"]) == 2


class TestIso:
    def test_self_is_identity(self, capsys):
        code, out, _ = run_cli(capsys, "iso", str(PAIR_ATLAS), str(PAIR_ATLAS))
        assert code == 0
        assert json.loads(out) == {"omega": [["cls:a:0", "cls:a:0"]]}

    def test_not_isomorphic(self, capsys, tmp_path):
        other = write(tmp_path, "other.json", '{"charts":{"a":[],"b":[]}}')
        code, out, _ = run_cli(capsys, "iso", str(PAIR_ATLAS), other)
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "not-isomorphic"
        assert payload["reason"] == "missing_counterpart"
        assert payload["present_in"] == 1

    def test_index_mismatch(self, capsys, tmp_path):
        other = write(tmp_path, "other.json", '{"charts":{"q":[]}}')
        code, out, _ = run_cli(capsys, "iso", str(PAIR_ATLAS), other)
        assert code == 1
        assert json.loads(out) == {
            "error": "index-mismatch",
            "only_in_first": ["a", "b"],
            "only_in_second": ["q"],
        }

    def test_invalid_atlas(self, capsys, tmp_path):
        bad = write(tmp_path, "bad.json", '{"charts":{"a":[["z","0"],["w","0"]],"b":[]}}')
        code, out, _ = run_cli(capsys, "iso", bad, str(PAIR_ATLAS))
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "invalid-atlas"
        assert payload["predicate"] == "injectivity"


class TestAxioms:
    def test_solver_output_passes(self, capsys):
        code, out, _ = run_cli(capsys, "axioms", str(PAIR_ATLAS))
        assert code == 0
        assert out == AXIOMS_REPORT.read_text()

    def test_failing_atlas(self, capsys, tmp_path):
        path = write(tmp_path, "bad.json", '{"charts":{"a":[["z","0"],["z","1"]]}}')
        code, out, _ = run_cli(capsys, "axioms", path)
        assert code == 1
        report = json.loads(out)
        assert report["at2"]["pass"] is False


class TestFlowGen:
    def test_blowup_golden(self, capsys):
        code, out, _ = run_cli(capsys, "flow-gen", str(BLOWUP_FLOW))
        assert code == 0
        assert out == BLOWUP_SYSTEM.read_text()

    def test_fractional_time_for_doubling(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "flow.json",
            '{"kind":"doubling","grid":["0","1/2"],"seeds":[]}',
        )
        code, out, err = run_cli(capsys, "flow-gen", path)
        assert code == 2
        assert "integer times" in err

    def test_seed_off_grid(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "flow.json",
            '{"kind":"translation","grid":["0"],"seeds":[{"t":"1","x":"0"}]}',
        )
        code, _, err = run_cli(capsys, "flow-gen", path)
        assert code == 2
        assert "grid" in err

    @pytest.mark.parametrize("kind", [[], {}, None, 3])
    def test_non_string_kind(self, capsys, tmp_path, kind):
        flow = json.dumps({"kind": kind, "grid": ["0"], "seeds": []})
        code, out, err = run_cli(capsys, "flow-gen", write(tmp_path, "flow.json", flow))
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
json_values = st.recursive(
    json_scalars | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
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
        out, err, saved_stdin = io.StringIO(), io.StringIO(), sys.stdin
        sys.stdin = io.StringIO(json.dumps(_replaced(doc, path, value)))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            sys.stdin = saved_stdin
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("sincov: error: ")
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        else:
            json.loads(out.getvalue())
            assert err.getvalue() == ""


class TestOutputModes:
    def test_pretty_same_payload(self, capsys):
        _, canonical, _ = run_cli(capsys, "solve", str(PAIR_SYSTEM))
        _, pretty, _ = run_cli(capsys, "solve", str(PAIR_SYSTEM), "--pretty")
        assert pretty != canonical
        assert "\n  " in pretty
        assert json.loads(pretty) == json.loads(canonical)

    def test_byte_identical_across_runs(self, capsys):
        first = run_cli(capsys, "flow-gen", str(BLOWUP_FLOW))
        second = run_cli(capsys, "flow-gen", str(BLOWUP_FLOW))
        assert first == second


class TestPipeline:
    KINDS = {
        "translation": '{"kind":"translation","grid":["0","1","5/2"],'
        '"seeds":[{"t":"0","x":"0"},{"t":"1","x":"7/3"}]}',
        "blowup": '{"kind":"blowup","grid":["0","1/2","1"],'
        '"seeds":[{"t":"0","x":"1"},{"t":"0","x":"-2"}]}',
        "doubling": '{"kind":"doubling","grid":["-1","0","2"],'
        '"seeds":[{"t":"0","x":"3"},{"t":"-1","x":"1/5"}]}',
        "permutation": '{"kind":"permutation","permutation":'
        '{"0":"1","1":"2","2":"0","9":"9"},"grid":["0","1","2","3"],'
        '"seeds":[{"t":"0","x":"0"},{"t":"2","x":"9"}]}',
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_flow_solve_reconstruct_identity(self, kind, capsys, monkeypatch, tmp_path):
        path = write(tmp_path, "flow.json", self.KINDS[kind])
        code, generated, _ = run_cli(capsys, "flow-gen", path)
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(generated))
        code, atlas_out, _ = run_cli(capsys, "solve", "-")
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(atlas_out))
        code, rebuilt, _ = run_cli(capsys, "reconstruct", "-")
        assert code == 0
        assert rebuilt == generated


class TestSubprocessEntryPoints:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "sincov", "check", str(PAIR_SYSTEM)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout) == {"violations": []}

    def test_shell_pipeline(self):
        generated = subprocess.run(
            [sys.executable, "-m", "sincov", "flow-gen", str(BLOWUP_FLOW)],
            capture_output=True,
            check=True,
        ).stdout
        solved = subprocess.run(
            [sys.executable, "-m", "sincov", "solve", "-"],
            input=generated,
            capture_output=True,
            check=True,
        ).stdout
        rebuilt = subprocess.run(
            [sys.executable, "-m", "sincov", "reconstruct", "-"],
            input=solved,
            capture_output=True,
            check=True,
        ).stdout
        assert rebuilt == generated == BLOWUP_SYSTEM.read_bytes()

    def test_broken_pipe_exits_quietly(self, tmp_path):
        # About 115 KiB of output, more than a pipe and a read buffer hold, so
        # the writer is still writing when the reader goes away.
        flow = {
            "kind": "blowup",
            "grid": [f"{i}/4" for i in range(30)],
            "seeds": [{"t": "0", "x": f"{k}/7"} for k in range(-5, 6)],
        }
        path = write(tmp_path, "flow.json", json.dumps(flow))
        with open(tmp_path / "stderr", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "sincov", "flow-gen", path],
                stdout=subprocess.PIPE,
                stderr=err,
            )
            assert proc.stdout.read(10) == b'{"indices"'
            proc.stdout.close()
            assert proc.wait(timeout=60) == 141
        assert (tmp_path / "stderr").read_bytes() == b""
