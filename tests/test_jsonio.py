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

    @pytest.mark.parametrize(
        "bad",
        [
            [],
            {"relations": {}},
            {"indices": ["a"], "relations": {}, "extra": 1},
            {"indices": "ab"},
            {"indices": [1]},
            {"indices": ["a|b"]},
            {"indices": ["a"], "relations": []},
            {"indices": ["a"], "relations": {"a": []}},
            {"indices": ["a"], "relations": {"a|b|c": []}},
            {"indices": ["a"], "relations": {"a|q": []}},
            {"indices": ["a"], "relations": {"q|a": []}},
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(FormatError):
            system_from_obj(bad)

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

    @pytest.mark.parametrize(
        "bad",
        [
            [],
            {},
            {"charts": {}, "extra": 1},
            {"charts": []},
            {"charts": {"a|b": []}},
            {"charts": {"a": {"z": "0"}}},
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(FormatError):
            atlas_from_obj(bad)

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
        with pytest.raises(FormatError):
            isomorphism_from_obj({"omega": [["z", "w"]], "extra": 1})


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

    @pytest.mark.parametrize(
        "bad",
        [
            [],
            {"kind": "exponential", "grid": ["0"]},
            {"kind": "blowup"},
            {"kind": "blowup", "grid": []},
            {"kind": "blowup", "grid": ["0"], "bogus": 1},
            {"kind": "blowup", "grid": ["1/0"]},
            {"kind": "blowup", "grid": ["zap"]},
            {"kind": "blowup", "grid": [0.5]},
            {"kind": "blowup", "grid": ["0"], "seeds": [{"t": "0"}]},
            {"kind": "blowup", "grid": ["0"], "seeds": [{"t": "0", "x": "1", "y": "2"}]},
            {"kind": "blowup", "grid": ["0"], "permutation": {"0": "0"}},
            {"kind": "permutation", "grid": ["0"]},
            {"kind": "permutation", "permutation": {"0": "1", "1": "1"}, "grid": ["0"]},
            {"kind": "permutation", "permutation": {"0": 1}, "grid": ["0"]},
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(FormatError):
            flow_from_obj(bad)


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
