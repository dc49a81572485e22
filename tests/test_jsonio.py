import copy
import enum
import json
import pickle
import sys
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genutil import (
    Label,
    atlases_st,
    mutated_systems_st,
    oracle_relation_from_obj,
    relation_objs_st,
    valid_systems_st,
)
from sincov import (
    Atlas,
    FlowKind,
    FormatError,
    Isomorphism,
    PreconditionViolated,
    Relation,
    SincovSystem,
    UnknownIndex,
    check_sincov,
    reconstruct,
    solve_atlas,
)
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

    @pytest.mark.parametrize("key", ["a|b", Label("a|b")], ids=["checked-whole", "entry-loop"])
    def test_index_ids_read_as_exact_str(self, key):
        # Each id passes through ``str`` once, as the constructor's do, before
        # either path reads it; a ``Label`` key sends the read entry by entry.
        class K(str, enum.Enum):
            A = "a"

        system = system_from_obj({"indices": [Label("a"), "b"], "relations": {key: [["x", "y"]]}})
        keys = [column[:2] for column in system._columns] + list(system.relations)
        assert [type(x) for x in [*system.indices, *chain(*keys)]] == [str] * 6
        assert system == SincovSystem(["a", "b"], {("a", "b"): Relation([("x", "y")])})
        with pytest.raises(FormatError) as excinfo:
            system_from_obj({"indices": [K.A, "b"], "relations": {key: [["x", "y"]]}})
        assert str(excinfo.value) == "relation key uses unknown index 'a'"
        with pytest.raises(UnknownIndex):
            SincovSystem([K.A, "b"], {("a", "b"): Relation([("x", "y")])})

    @given(valid_systems_st)
    @settings(max_examples=60)
    def test_round_trip_property(self, system):
        assert system_from_obj(json.loads(canonical_dumps(system_to_obj(system)))) == system

    @given(
        st.dictionaries(
            st.sampled_from(["a|a", "a|b", "b|a", "b|b", "a|q", "ab"]), relation_objs_st, max_size=4
        )
    )
    # Collapsed, Phi[a, b]'s pair is one edge of a two-node class that
    # lacks its reverse; counted three times, the class would look full.
    @example({"a|b": [["0", "1"], ["0", "1"], ["0", "1"]], "a|a": [["1", "1"]]})
    @settings(max_examples=300)
    def test_matches_the_entry_loop(self, relations):
        # Each key, then its relation, in document order, as the loop reads them.
        doc = {"indices": ["a", "b"], "relations": relations}
        try:
            expected = {}
            for key, value in relations.items():
                parts = key.split("|")
                if len(parts) != 2:
                    raise FormatError(f"relation key {key!r} must be '<alpha>|<beta>'")
                for index in parts:
                    if index not in doc["indices"]:
                        raise FormatError(f"relation key uses unknown index {index!r}")
                expected[tuple(parts)] = oracle_relation_from_obj(value)
        except FormatError as exc:
            with pytest.raises(FormatError) as excinfo:
                system_from_obj(doc)
            assert str(excinfo.value) == str(exc)
        else:
            twin = SincovSystem(doc["indices"], expected)
            read = system_from_obj(doc)
            assert check_sincov(read) == check_sincov(twin)  # off the columns
            assert read == twin

    @given(st.one_of(valid_systems_st, mutated_systems_st()))
    @settings(max_examples=60)
    def test_read_system_acts_as_its_twin(self, system):
        # Each read on a fresh document-built system, whose relations it
        # builds, against the constructed system it was written from.
        def roundtrip(copied):
            return lambda s: (repr(copied(s)), copied(s) == system, check_sincov(copied(s)))

        def quotient_after_relations(s):
            relations = dict(s.relations)
            try:
                solved = solve_atlas(s)
            except PreconditionViolated as exc:
                solved = exc.reports
            return relations, check_sincov(s), solved, s.relations

        indices = sorted(system.indices)
        reads = [
            lambda s: (s == system, system == s),
            repr,
            lambda s: [s.get(alpha, beta) for alpha in indices for beta in indices],
            lambda s: s.relations,
            roundtrip(lambda s: pickle.loads(pickle.dumps(s))),
            roundtrip(copy.deepcopy),
            quotient_after_relations,
        ]
        doc = system_to_obj(system)
        for read in reads:
            assert read(system_from_obj(doc)) == read(system)


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

    # Python 3.10's grammar over ASCII, with no "_" and no inner whitespace;
    # exponents stay far below the bound that the digit limit sets.
    @given(
        st.from_regex(
            r"[\t-\r\x1c- ]*[-+]?[0-9]*(/[0-9]*|(\.[0-9]*)?([eE][-+]?[0-9]{0,3})?)[\t-\r\x1c- ]*",
            fullmatch=True,
        )
    )
    @settings(max_examples=300)
    def test_ascii_rationals_read_as_fraction(self, text):
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(FormatError):
                flow_from_obj({"kind": "translation", "grid": [text]})
        else:
            assert flow_from_obj({"kind": "translation", "grid": [text]})[1] == [expected]

    def test_zero_mantissa_reads_as_zero_at_any_exponent(self):
        # No power of ten is computed: 10**99999999 alone takes seconds.
        _, grid, _ = flow_from_obj({"kind": "translation", "grid": ["0e99999999"]})
        assert grid == [Fraction(0)]
        with pytest.raises(FormatError):  # an exponent over the digit limit, as in Fraction
            flow_from_obj({"kind": "translation", "grid": ["0e" + "9" * 5000]})

    KIND = "kind must be one of ['blowup', 'doubling', 'permutation', 'translation']"
    NEEDS_GRID = "flow descriptor needs a non-empty 'grid'"
    SEED_SHAPE = "each seed must be an object with keys 't' and 'x'"
    NEEDS_TABLE = "permutation kind needs a 'permutation' table"
    TABLE_STRINGS = "permutation table entries must be strings"
    SEED_X = "seed value is not a valid rational: 'x'"
    GRID = "grid time is not a valid rational:"

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
        # Fraction reads any Unicode digit and whitespace: these were 1/2 and 1.
        ({"kind": "translation", "grid": ["\u0661/\u0662"]}, f"{GRID} '\u0661/\u0662'"),
        ({"kind": "translation", "grid": ["\u00a01"]}, f"{GRID} '\\xa01'"),
        # |exponent| >= 4 x the digit limit (4300): too many digits to print.
        ({"kind": "translation", "grid": ["1e17200"]}, f"{GRID} '1e17200'"),
        (
            {"kind": "translation", "grid": ["0"], "seeds": [{"t": "0", "x": "-2.5e-99999"}]},
            "seed value is not a valid rational: '-2.5e-99999'",
        ),
        # Over the digit limit but under 4 x it: refused when read, not when printed.
        (
            {"kind": "translation", "grid": ["0"], "seeds": [{"t": "1e5000", "x": "0"}]},
            "seed time is not a valid rational: '1e5000'",
        ),
        ({"kind": "translation", "grid": ["1e4300"]}, f"{GRID} '1e4300'"),
        (
            {"kind": "translation", "grid": ["0"], "seeds": [{"t": "0", "x": "-2.5e-4400"}]},
            "seed value is not a valid rational: '-2.5e-4400'",
        ),
    )
    def test_malformed(self, bad, message):
        with pytest.raises(FormatError) as excinfo:
            flow_from_obj(bad)
        assert str(excinfo.value) == message

    def test_the_digit_limit_bounds_numerator_and_denominator(self):
        limit = sys.get_int_max_str_digits()
        _, grid, _ = flow_from_obj({"kind": "translation", "grid": [f"1e{limit - 1}"]})
        assert grid == [10 ** (limit - 1)]
        for text in (f"1e{limit}", f"1e-{limit}"):
            with pytest.raises(FormatError):
                flow_from_obj({"kind": "translation", "grid": [text]})


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
