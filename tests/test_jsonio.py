import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

from genutil import (
    Label,
    atlases_st,
    oracle_relation_from_obj,
    relation_objs_st,
    valid_systems_st,
)
from sincov import Atlas, FlowKind, FormatError, Isomorphism, Relation, SincovSystem, reconstruct
from sincov.jsonio import (
    GeneratedSystem,
    atlas_from_obj,
    atlas_to_obj,
    canonical_dumps,
    flow_from_obj,
    isomorphism_from_obj,
    isomorphism_to_obj,
    pretty_dumps,
    relation_from_obj,
    relation_to_obj,
    system_from_obj,
    system_to_obj,
)

SEPARATOR = "index ids must not contain '|'"
RELATION = "relation must be an array of pairs"


def malformed_cases(*cases):
    """Parametrize ``test_malformed`` over (document, message) cases, named
    bad0, bad1, ... in order."""
    ids = [f"bad{i}" for i in range(len(cases))]
    return pytest.mark.parametrize("bad, message", cases, ids=ids)


class TestRelationFormat:
    def test_round_trip(self):
        rel = Relation([("1", "2"), ("0", "9")])
        assert relation_from_obj(relation_to_obj(rel)) == rel

    def test_sorted_output(self):
        assert relation_to_obj(Relation([("3", "1"), ("0", "9")])) == [
            ["0", "9"],
            ["3", "1"],
        ]
        # Tuple order, not the order of the serialized entries: '"' sorts
        # after '!', yet ["a","b"] comes first.
        assert relation_to_obj(Relation([("a!", "b"), ("a", "b")])) == [
            ["a", "b"],
            ["a!", "b"],
        ]

    def test_duplicates_collapse(self):
        assert relation_from_obj([["0", "1"], ["0", "1"]]) == Relation([("0", "1")])

    @pytest.mark.parametrize(
        "bad",
        [
            {"0": "1"},
            [["0", "1", "2"]],
            [["0"]],
            [[0, "1"]],
            [["0", 1]],
            ["01"],
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(FormatError):
            relation_from_obj(bad)

    ENTRY = "relation entries must be 2-element arrays"
    PAIR = "relation pair entries must be strings"

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"0": "1"}, "relation must be an array of pairs"),
            ([["a", "b"], [0, "1"], ["a"]], PAIR),
            ([["a", "b"], ["a"], [0, "1"]], ENTRY),
            ([["01"], [["0", "1", "2"]]], ENTRY),
            ([["0", "1"], "01", [["0", "1", "2"]]], ENTRY),
            ([["0", "1"], ["0", ["1"]], ["0", "1", "2"]], PAIR),
            ([["0", "1"], ["0", None]], PAIR),
            ([["0", "1"], [], ["x", "y"]], ENTRY),
            ([["0", "1"], {"0": "1"}], ENTRY),
            ([[True, "1"], ["0"]], PAIR),
        ],
    )
    def test_first_bad_entry_is_named(self, bad, message):
        with pytest.raises(FormatError) as excinfo:
            relation_from_obj(bad)
        assert str(excinfo.value) == message

    @given(relation_objs_st)
    @settings(max_examples=300)
    def test_matches_the_entry_loop(self, obj):
        try:
            expected = oracle_relation_from_obj(obj)
        except FormatError as exc:
            with pytest.raises(FormatError) as excinfo:
                relation_from_obj(obj)
            assert str(excinfo.value) == str(exc)
        else:
            assert relation_from_obj(obj) == expected


    @given(relation_objs_st)
    @settings(max_examples=300)
    def test_pairs_are_exact_strings(self, obj):
        try:
            rel = relation_from_obj(obj)
        except FormatError:
            return
        assert all(type(pair) is tuple and len(pair) == 2 for pair in rel.pairs)
        assert all(type(x) is str for pair in rel.pairs for x in pair)
        assert rel == Relation(map(tuple, obj))

    def test_str_subclass_is_stored_as_str(self):
        rel = relation_from_obj([[Label("a"), "b"], ["c", "d"]])
        assert rel.pairs == {("a", "b"), ("c", "d")}
        assert [type(x) for pair in sorted(rel.pairs) for x in pair] == [str] * 4


class TestSystemFormat:
    def test_round_trip(self):
        system = SincovSystem(
            ["a", "b"],
            {("a", "b"): Relation([("1", "0")]), ("b", "a"): Relation([("0", "1")])},
        )
        assert system_from_obj(system_to_obj(system)) == system

    def test_missing_keys_mean_empty(self):
        system = system_from_obj({"indices": ["a", "b"], "relations": {}})
        assert system.get("a", "b") == Relation()

    def test_relations_key_optional(self):
        assert system_from_obj({"indices": ["a"]}) == SincovSystem(["a"])

    def test_empty_entries_dropped_on_write(self):
        system = SincovSystem(["a"], {("a", "a"): Relation()})
        assert system_to_obj(system) == {"indices": ["a"], "relations": {}}

    UNKNOWN_Q = "relation key uses unknown index 'q'"

    @malformed_cases(
        ([], "system must be an object"),
        ({"relations": {}}, "system object needs an 'indices' array"),
        ({"indices": ["a"], "relations": {}, "extra": 1}, "unknown keys in system object"),
        ({"indices": "ab"}, "indices must be an array"),
        ({"indices": [1]}, "indices entries must be strings"),
        ({"indices": ["a|b"]}, SEPARATOR),
        ({"indices": ["a"], "relations": []}, "'relations' must be an object"),
        ({"indices": ["a"], "relations": {"a": []}}, "relation key 'a' must be '<alpha>|<beta>'"),
        (
            {"indices": ["a"], "relations": {"a|b|c": []}},
            "relation key 'a|b|c' must be '<alpha>|<beta>'",
        ),
        ({"indices": ["a"], "relations": {"a|q": []}}, UNKNOWN_Q),
        ({"indices": ["a"], "relations": {"q|a": []}}, UNKNOWN_Q),
        ({"indices": ["a"], "relations": {1: []}}, "relation keys must be strings"),
        # Precedence: the entries are checked key by key, each key before
        # its relation, and the id list whole before any id.
        ({"indices": ["a"], "relations": {"a|q": 5, "a|a": [["0"]]}}, UNKNOWN_Q),
        ({"indices": ["a"], "relations": {"a|a": 5, "a|q": []}}, RELATION),
        ({"indices": ["a|b", 5]}, "indices entries must be strings"),
    )
    def test_malformed(self, bad, message):
        with pytest.raises(FormatError) as excinfo:
            system_from_obj(bad)
        assert str(excinfo.value) == message

    def test_messages_are_built_only_when_raised(self):
        class Unprintable(str):
            def __repr__(self):
                raise AssertionError("a message was built for a check that passed")

        obj = {"indices": ["a"], "relations": {Unprintable("a|a"): [["0", "0"]]}}
        system = system_from_obj(obj)
        assert system == SincovSystem(["a"], {("a", "a"): Relation([("0", "0")])})

    @given(valid_systems_st)
    @settings(max_examples=60)
    def test_round_trip_property(self, system):
        assert system_from_obj(json.loads(canonical_dumps(system_to_obj(system)))) == system


class TestAtlasFormat:
    def test_round_trip(self):
        atlas = Atlas({"a": Relation([("z", "0")]), "b": Relation()})
        assert atlas_from_obj(atlas_to_obj(atlas)) == atlas

    def test_empty_charts_survive(self):
        obj = atlas_to_obj(Atlas({"a": Relation()}))
        assert obj == {"charts": {"a": []}}
        assert atlas_from_obj(obj).indices == frozenset({"a"})

    NEEDS_CHARTS = "atlas object needs exactly a 'charts' key"

    @malformed_cases(
        ([], "atlas must be an object"),
        ({}, NEEDS_CHARTS),
        ({"charts": {}, "extra": 1}, NEEDS_CHARTS),
        ({"charts": []}, "'charts' must be an object"),
        ({"charts": {"a|b": []}}, SEPARATOR),
        ({"charts": {"a": {"z": "0"}}}, RELATION),
        ({"charts": {1: []}}, "index ids must be strings"),
        ({"charts": {"a": [], 1: []}}, "index ids must be strings"),
        # Precedence: chart by chart, each id before its relation.
        ({"charts": {"a": 5, "b|c": []}}, RELATION),
        ({"charts": {"a|b": 5}}, SEPARATOR),
    )
    def test_malformed(self, bad, message):
        with pytest.raises(FormatError) as excinfo:
            atlas_from_obj(bad)
        assert str(excinfo.value) == message

    @given(atlases_st())
    @settings(max_examples=60)
    def test_round_trip_property(self, atlas):
        assert atlas_from_obj(json.loads(canonical_dumps(atlas_to_obj(atlas)))) == atlas


class TestIsomorphismFormat:
    def test_round_trip(self):
        iso = Isomorphism(Relation([("z", "w")]))
        assert isomorphism_from_obj(isomorphism_to_obj(iso)) == iso

    def test_shape(self):
        assert isomorphism_to_obj(Isomorphism(Relation([("z", "w")]))) == {
            "omega": [["z", "w"]]
        }

    def test_malformed(self):
        with pytest.raises(FormatError) as excinfo:
            isomorphism_from_obj({"omega": [["z", "w"]], "extra": 1})
        assert str(excinfo.value) == "isomorphism object needs exactly an 'omega' key"


class TestFlowFormat:
    def test_blowup_descriptor(self):
        spec, grid, seeds = flow_from_obj(
            {"kind": "blowup", "grid": ["0", "1/2", "1"], "seeds": [{"t": "0", "x": "1"}]}
        )
        assert spec.kind is FlowKind.BLOWUP
        assert grid == [Fraction(0), Fraction(1, 2), Fraction(1)]
        assert seeds[0].time == 0 and seeds[0].value == 1

    def test_permutation_descriptor(self):
        spec, grid, seeds = flow_from_obj(
            {
                "kind": "permutation",
                "permutation": {"0": "1", "1": "0"},
                "grid": ["0", "1"],
                "seeds": [{"t": "0", "x": "0"}],
            }
        )
        assert spec.mapping == {"0": "1", "1": "0"}
        assert seeds[0].value == "0"

    def test_negative_and_reduced_rationals(self):
        _, grid, _ = flow_from_obj({"kind": "translation", "grid": ["-3/6", "2"]})
        assert grid == [Fraction(-1, 2), Fraction(2)]

    KIND = "kind must be one of ['blowup', 'doubling', 'permutation', 'translation']"
    NEEDS_GRID = "flow descriptor needs a non-empty 'grid'"
    SEED_SHAPE = "each seed must be an object with keys 't' and 'x'"
    NEEDS_TABLE = "permutation kind needs a 'permutation' table"
    TABLE_STRINGS = "permutation table entries must be strings"
    SEED_X = "seed value is not a valid rational: 'x'"

    @malformed_cases(
        ([], "flow descriptor must be an object"),
        ({"kind": "exponential", "grid": ["0"]}, KIND),
        ({"kind": "blowup"}, NEEDS_GRID),
        ({"kind": "blowup", "grid": []}, NEEDS_GRID),
        ({"kind": "blowup", "grid": ["0"], "bogus": 1}, "unknown keys in flow descriptor"),
        ({"kind": "blowup", "grid": ["1/0"]}, "grid time is not a valid rational: '1/0'"),
        ({"kind": "blowup", "grid": ["zap"]}, "grid time is not a valid rational: 'zap'"),
        ({"kind": "blowup", "grid": [0.5]}, "grid entries must be strings"),
        ({"kind": "blowup", "grid": ["0"], "seeds": [{"t": "0"}]}, SEED_SHAPE),
        ({"kind": "blowup", "grid": ["0"], "seeds": [{"t": "0", "x": "1", "y": "2"}]}, SEED_SHAPE),
        (
            {"kind": "blowup", "grid": ["0"], "permutation": {"0": "0"}},
            "'permutation' is only valid for kind 'permutation'",
        ),
        ({"kind": "permutation", "grid": ["0"]}, NEEDS_TABLE),
        (
            {"kind": "permutation", "permutation": {"0": "1", "1": "1"}, "grid": ["0"]},
            "permutation table must be a bijection of its carrier",
        ),
        ({"kind": "permutation", "permutation": {"0": 1}, "grid": ["0"]}, TABLE_STRINGS),
        ({"kind": 5, "grid": ["0"]}, KIND),
        ({"kind": "blowup", "grid": "0"}, "grid must be an array"),
        ({"kind": "blowup", "grid": ["x", 5]}, "grid entries must be strings"),
        ({"kind": "blowup", "grid": ["0"], "seeds": {}}, "'seeds' must be an array"),
        (
            {"kind": "blowup", "grid": ["0"], "seeds": [{"t": 0, "x": "1"}]},
            "seed time must be a rational string like '1/2'",
        ),
        ({"kind": "blowup", "grid": ["0"], "seeds": [{"t": "0", "x": "x"}]}, SEED_X),
        ({"kind": "blowup", "grid": ["0"], "seeds": [{"t": "0", "x": "x"}, {"t": 0}]}, SEED_X),
        ({"kind": "permutation", "permutation": {}, "grid": ["0"]}, NEEDS_TABLE),
        ({"kind": "permutation", "permutation": {0: "0"}, "grid": ["0"]}, TABLE_STRINGS),
        (
            {
                "kind": "permutation",
                "permutation": {"0": "0"},
                "grid": ["0"],
                "seeds": [{"t": "0", "x": 0}],
            },
            "permutation seed values must be strings",
        ),
        # Python 3.11's Fraction reads "1_0" as 10, and 3.12's "1 / 2" as 1/2.
        ({"kind": "translation", "grid": ["1_0"]}, "grid time is not a valid rational: '1_0'"),
        (
            {"kind": "translation", "grid": ["0"], "seeds": [{"t": "0", "x": "1 / 2"}]},
            "seed value is not a valid rational: '1 / 2'",
        ),
    )
    def test_malformed(self, bad, message):
        with pytest.raises(FormatError) as excinfo:
            flow_from_obj(bad)
        assert str(excinfo.value) == message


class TestCanonical:
    def test_compact_and_sorted(self):
        assert canonical_dumps({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_deterministic_for_equal_values(self):
        one = system_to_obj(SincovSystem(["b", "a"], {("a", "b"): Relation([("1", "0")])}))
        two = system_to_obj(SincovSystem(["a", "b"], {("a", "b"): Relation([("1", "0")])}))
        assert canonical_dumps(one) == canonical_dumps(two)

    @pytest.mark.parametrize(
        "charts",
        [
            {"a|b": Relation([("z", "0")]), "c": Relation([("z", "1")])},  # key "a|b|c"
            {"a|b": Relation()},  # no row at all
        ],
    )
    def test_generated_system_refuses_separator_ids(self, charts):
        # The writer checks the ids before it reads a row, as the library
        # path does when it writes the reconstructed system.
        atlas = Atlas(charts)
        for write in (
            lambda: canonical_dumps(GeneratedSystem(atlas)),
            lambda: pretty_dumps(GeneratedSystem(atlas)),
            lambda: system_to_obj(reconstruct(atlas)),
        ):
            with pytest.raises(FormatError, match=r"must not contain '\|'"):
                write()
