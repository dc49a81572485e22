"""The package imports nothing outside the standard library, keeps its
startup import set lean, computes exactly, and its records keep their
construction, equality, hash, immutability and repr."""

import ast
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sincov
from sincov import Relation
from sincov.atlas import ChartViolation, Isomorphism
from sincov.flows import FlowKind, FlowSpec, Seed
from sincov.systems import Law, ViolationReport

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sincov"
GOLDEN = Path(__file__).resolve().parent / "golden"


def parsed_sources():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    return [(path, ast.parse(path.read_text(encoding="utf-8"), str(path))) for path in sources]


def absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_runtime_dependencies_stay_at_zero():
    imported = {
        (path.name, name.partition(".")[0])
        for path, tree in parsed_sources()
        for name in absolute_imports(tree)
    }
    assert imported
    assert [item for item in sorted(imported) if item[1] not in sys.stdlib_module_names] == []


def test_arithmetic_stays_exact():
    # Fraction division is allowed; floats, complex numbers and math are not.
    inexact = []
    for path, tree in parsed_sources():
        inexact += [
            (path.name, name)
            for name in absolute_imports(tree)
            if name.partition(".")[0] in ("math", "cmath")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                inexact.append((path.name, node.lineno, node.value))
            elif isinstance(node, ast.Name) and node.id == "float":
                inexact.append((path.name, node.lineno, "float"))
    assert inexact == []


def child_output(code):
    """What ``code`` prints in a fresh ``python -S`` child importing sincov from src."""
    prelude = f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
    result = subprocess.run(
        [sys.executable, "-S", "-c", prelude + code], capture_output=True, text=True, check=True
    )
    return result.stdout


def test_cli_import_loads_no_dataclasses_or_inspect():
    code = "import sincov.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    assert child_output(code) == "[]\n"


LATE = {"fractions", "decimal", "numbers", "sincov.flows", "sincov.systems"}


def test_cli_import_loads_only_the_atlas_layer():
    modules = ast.literal_eval(child_output("import sincov.cli; print(sorted(sys.modules))"))
    assert LATE.isdisjoint(modules)
    assert len(modules) < 72  # the ROADMAP's startup bar


ATLAS = str(GOLDEN / "pair_system.atlas.json")
SYSTEM = str(GOLDEN / "pair_system.json")


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["reconstruct", ATLAS], set()),
        (["axioms", ATLAS], set()),
        (["iso", ATLAS, ATLAS], set()),
        (["check", SYSTEM], {"sincov.systems"}),
        (["solve", SYSTEM], {"sincov.systems"}),
        (["flow-gen", str(GOLDEN / "blowup_flow.json")], LATE),
    ],
    ids=["reconstruct", "axioms", "iso", "check", "solve", "flow-gen"],
)
def test_subcommand_loads_only_what_it_runs(argv, loaded):
    code = (
        "import contextlib, io; from sincov.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()): main({argv!r})\n"
        "print(sorted(sys.modules))"
    )
    assert LATE & set(ast.literal_eval(child_output(code))) == loaded


def test_star_import_and_dir_see_every_public_name():
    code = (
        "import sincov; listed = dir(sincov); from sincov import *\n"
        "print([n for n in sincov.__all__ if n not in listed or n not in globals()])"
    )
    assert child_output(code) == "[]\n"


PUBLIC_NAMES = [
    "ALL_LAWS", "Atlas", "ChartViolation", "CoinjectivityViolated", "DomainExceeded", "EMPTY",
    "EqualityCaseViolated", "FlowKind", "FlowSpec", "FormatError", "IndexMismatch",
    "InvalidAtlas", "Isomorphism", "KindMismatch", "Law", "NotIsomorphic",
    "PreconditionViolated", "Relation", "Seed", "SincovError", "SincovSystem", "UnknownIndex",
    "ViolationReport", "build_system", "carrier", "check_at_axioms", "check_sincov",
    "find_isomorphism", "flow_eval", "reconstruct", "solve_atlas", "solve_via_fixed_index",
    "transition", "validate_atlas", "vector_field_residual", "verify_isomorphism",
]


def test_public_names_stay_the_same():
    assert sincov.__all__ == PUBLIC_NAMES


RECORDS = [
    (
        ViolationReport,
        {"law": Law.SYMMETRY, "indices": ("a", "b"), "pair": ("0", "1")},
        "ViolationReport(law=<Law.SYMMETRY: 'symmetry'>, indices=('a', 'b'), pair=('0', '1'))",
    ),
    (
        Isomorphism,
        {"omega": Relation([("z", "w")])},
        "Isomorphism(omega=Relation([('z', 'w')]))",
    ),
    (
        ChartViolation,
        {"index": "a", "predicate": "injectivity", "pair": ("z", "1")},
        "ChartViolation(index='a', predicate='injectivity', pair=('z', '1'))",
    ),
    (
        FlowSpec,
        {"kind": FlowKind.TRANSLATION, "permutation": None},
        "FlowSpec(kind=<FlowKind.TRANSLATION: 'translation'>, permutation=None)",
    ),
    (
        FlowSpec,
        {"kind": FlowKind.PERMUTATION, "permutation": (("x", "y"), ("y", "x"))},
        "FlowSpec(kind=<FlowKind.PERMUTATION: 'permutation'>, "
        "permutation=(('x', 'y'), ('y', 'x')))",
    ),
    (
        Seed,
        {"time": Fraction(1, 2), "value": Fraction(-3, 7)},
        "Seed(time=Fraction(1, 2), value=Fraction(-3, 7))",
    ),
]


@pytest.mark.parametrize(
    "cls, fields, text",
    RECORDS,
    ids=["ViolationReport", "Isomorphism", "ChartViolation", "FlowSpec", "FlowSpec-table", "Seed"],
)
def test_record_contract(cls, fields, text):
    record = cls(*fields.values())
    assert record == cls(**fields)
    assert record != cls(*(None for _ in fields))
    assert [getattr(record, name) for name in fields] == list(fields.values())
    assert hash(record) == hash(cls(**fields)) == hash(tuple(fields.values()))
    assert repr(record) == text
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
