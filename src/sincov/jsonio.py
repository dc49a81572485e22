"""JSON wire formats and canonical serialization.

All documents use plain strings for identifiers.  Canonical output sorts
object keys, emits identifier arrays in Python string order and pair
arrays in ``(first, second)`` tuple order (so ``["a","b"]`` precedes
``["a!","b"]``, although its serialization sorts after), and uses compact
separators, so identical values serialize to identical bytes.

Formats:

* relation:   ``[[b, a], ...]`` (input first, output second; duplicates in
  input are accepted and collapse).
* system:     ``{"indices": [...], "relations": {"<alpha>|<beta>":
  [[b, a], ...]}}``; missing keys are empty relations; index ids must not
  contain ``"|"``.  Each reader and writer checks its ids as one list:
  all strings, then no ``"|"`` in their join.  A system's ids are made exact
  ``str`` and its pairs read into columns, loading no ``atlas`` or ``relations``.
* atlas:      ``{"charts": {"<alpha>": [[class, element], ...]}}`` with
  empty charts kept.
* isomorphism: ``{"omega": [[z, zbar], ...]}``.
* flow descriptor: ``{"kind": "...", "grid": [...], "seeds": [{"t": ...,
  "x": ...}], "permutation": {...}?}`` with rationals written "p/q".  A
  rational reads as a sign and digits, then ``/digits`` or a decimal part
  and exponent (``"-3/6"``, ``"1.5e3"``), each part optional as Python
  3.10's Fraction has it: ASCII digits only, and no ``_`` and no whitespace
  inside, on any version.  Under the integer digit limit L that
  ``PYTHONINTMAXSTRDIGITS`` sets, one whose numerator or denominator has
  over L digits is refused, before it is built if it has a non-zero digit
  and |exponent| >= 4L; all-zero digits read 0.
"""

from __future__ import annotations

import json
import re
import sys
from importlib import import_module
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

from .errors import FormatError

KEY_SEPARATOR = "|"
# Python 3.10's Fraction grammar, read with re.ASCII; compiled by the first rational read.
_RATIONAL = (
    r"[\t-\r\x1c- ]*[-+]?(?=\.?\d)(?P<num>\d*)"
    r"(?:/\d+|(?:\.(?P<decimal>\d*))?(?:[eE](?P<exp>[-+]?\d+))?)[\t-\r\x1c- ]*"
)


def __getattr__(name):  # PEP 562: re-exported with the other formats, loaded when first read
    if name not in ("Atlas", "Isomorphism", "chart_violation_to_obj"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(".atlas", __package__), name)


class GeneratedSystem:
    """The system a valid atlas generates, as a payload: ``canonical_dumps``
    writes it straight from the charts, with the bytes and the FormatError
    of ``system_to_obj(reconstruct(atlas))``, and ``pretty_dumps`` indents
    that text, as it does every payload's."""

    __slots__ = ("atlas",)

    def __init__(self, atlas: Atlas):
        self.atlas = atlas


# Payloads are trees that sincov builds, so a cycle scan could never fire.
def canonical_dumps(payload) -> str:
    if type(payload) is GeneratedSystem:
        return _generated_text(payload.atlas)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), check_circular=False)


def pretty_dumps(payload) -> str:
    """``canonical_dumps``' text, indented: that writer decides every byte."""
    return json.dumps(json.loads(canonical_dumps(payload)), indent=2)


def _require(condition, message, *args):
    """Raise FormatError unless ``condition``; only then is ``message`` formatted."""
    if not condition:
        raise FormatError(message.format(*args))


def _string_items(values, what):
    _require(isinstance(values, list), "{} must be an array", what)
    _require(all(map(isinstance, values, repeat(str))), "{} entries must be strings", what)
    return values


def _check_index_ids(ids):
    _require(all(map(isinstance, ids, repeat(str))), "index ids must be strings")
    # The separator is one character, so an id holds it iff their join does.
    _require(KEY_SEPARATOR not in "".join(ids), "index ids must not contain {!r}", KEY_SEPARATOR)
    return ids


# ---------------------------------------------------------------- relations


def relation_to_obj(rel: Relation) -> list:
    return list(map(list, sorted(rel.pairs)))


def _exact_pairs(relations) -> bool:
    """True iff each relation is a list of 2-element lists of exact str."""
    lists = set(map(type, relations)) <= {list}
    entries = lists and set(map(type, chain.from_iterable(relations))) <= {list}
    pairs = entries and set(map(len, chain.from_iterable(relations))) <= {2}
    return pairs and set(map(type, chain.from_iterable(chain.from_iterable(relations)))) <= {str}


def relation_from_obj(obj) -> Relation:
    from .relations import Relation

    _require(isinstance(obj, list), "relation must be an array of pairs")
    # Only when the C-level check fails does the loop run, to name the first bad entry.
    if _exact_pairs((obj,)):
        return Relation._of(frozenset(map(tuple, obj)))
    for entry in obj:
        _require(
            isinstance(entry, list) and len(entry) == 2,
            "relation entries must be 2-element arrays",
        )
        _string_items(entry, "relation pair")
    return Relation(obj)


# ------------------------------------------------------------------ systems


def system_to_obj(system: SincovSystem) -> dict:
    return {
        "indices": sorted(_check_index_ids(system.indices)),
        "relations": {
            f"{alpha}{KEY_SEPARATOR}{beta}": relation_to_obj(rel)
            for (alpha, beta), rel in system.relations.items()
        },
    }


def system_from_obj(obj) -> SincovSystem:
    from .systems import SincovSystem

    _require(isinstance(obj, dict), "system must be an object")
    _require(set(obj) <= {"indices", "relations"}, "unknown keys in system object")
    _require("indices" in obj, "system object needs an 'indices' array")
    indices = _check_index_ids(set(map(str, _string_items(obj["indices"], "indices"))))
    raw = obj.get("relations", {})
    _require(isinstance(raw, dict), "'relations' must be an object")
    # The whole document checked at C speed; key ids read as ``indices`` holds them.
    paired = set(map(type, raw)) <= {str} and set(map(str.count, raw, repeat(KEY_SEPARATOR))) <= {1}
    held = dict(zip(indices, indices)).get
    ids = list(map(held, KEY_SEPARATOR.join(raw).split(KEY_SEPARATOR))) if paired else [None]
    if None not in ids and _exact_pairs(raw.values()):
        ends = iter(ids)  # alpha, beta, alpha, ...
        return SincovSystem._of(indices, zip(ends, ends, raw.values()))
    relations = {}  # else entry by entry, to name the first bad key or pair
    for key, value in raw.items():
        _require(isinstance(key, str), "relation keys must be strings")
        parts = key.split(KEY_SEPARATOR)
        _require(len(parts) == 2, "relation key {!r} must be '<alpha>{}<beta>'", key, KEY_SEPARATOR)
        alpha, beta = parts
        _require(alpha in indices, "relation key uses unknown index {!r}", alpha)
        _require(beta in indices, "relation key uses unknown index {!r}", beta)
        relations[(alpha, beta)] = relation_from_obj(value)
    return SincovSystem(indices, relations)


def _generated_text(atlas: Atlas) -> str:
    """``canonical_dumps(system_to_obj(reconstruct(atlas)))``, written from
    the charts of an atlas that ``validate_atlas`` passes.

    ``atlas._rows`` reads each transition's pairs off the charts, each as
    its encoded "[b," head and "a]" tail, with json's own escaping; every
    chart is a partial bijection, so b's element order is the pairs' sorted
    order.  The encoder sorts the keys as ``"alpha|beta"`` strings, and no
    id holds "|", so ``_rows`` is handed the charts by ``alpha + "|"`` and
    yields the rows in key order, each joined as it comes.
    """
    from .atlas import Atlas, _rows

    encode = encode_basestring_ascii
    _check_index_ids(atlas.charts)
    alphas = sorted(atlas.charts, key=lambda alpha: alpha + KEY_SEPARATOR)
    charts = Atlas({alpha: atlas.charts[alpha] for alpha in alphas})
    rows = _rows(charts, lambda b: f"[{encode(b)},", lambda a: f"{encode(a)}]")
    relations = ",".join(f"{encode(a + KEY_SEPARATOR + b)}:[{','.join(r)}]" for a, b, r in rows)
    indices = ",".join(map(encode, sorted(alphas)))
    return f'{{"indices":[{indices}],"relations":{{{relations}}}}}'


def violation_to_obj(report) -> dict:
    return {
        "law": report.law.value,
        "indices": list(report.indices),
        "pair": list(report.pair),
    }


# ------------------------------------------------------------------ atlases


def atlas_to_obj(atlas: Atlas) -> dict:
    _check_index_ids(atlas.charts)
    return {"charts": {index: relation_to_obj(rel) for index, rel in atlas.charts.items()}}


def atlas_from_obj(obj) -> Atlas:
    from .atlas import Atlas
    from .relations import Relation

    _require(isinstance(obj, dict), "atlas must be an object")
    _require(set(obj) == {"charts"}, "atlas object needs exactly a 'charts' key")
    charts = obj["charts"]
    _require(isinstance(charts, dict), "'charts' must be an object")
    plain_ids = set(map(type, charts)) <= {str} and KEY_SEPARATOR not in "".join(charts)
    if plain_ids and _exact_pairs(charts.values()):  # as in system_from_obj
        return Atlas({i: Relation._of(frozenset(map(tuple, v))) for i, v in charts.items()})
    parsed = {}
    for index, value in charts.items():
        _check_index_ids((index,))
        parsed[index] = relation_from_obj(value)
    return Atlas(parsed)


def isomorphism_to_obj(iso: Isomorphism) -> dict:
    return {"omega": relation_to_obj(iso.omega)}


def isomorphism_from_obj(obj) -> Isomorphism:
    from .atlas import Isomorphism

    _require(isinstance(obj, dict), "isomorphism must be an object")
    _require(set(obj) == {"omega"}, "isomorphism object needs exactly an 'omega' key")
    return Isomorphism(relation_from_obj(obj["omega"]))


# -------------------------------------------------------------------- flows


def _rational(text, what) -> Fraction:
    from fractions import Fraction

    _require(isinstance(text, str), "{} must be a rational string like '1/2'", what)
    try:
        # Fraction also takes Unicode digits and spaces, 3.11's "1_0" and 3.12's "1 / 2".
        match = re.fullmatch(_RATIONAL, text, re.ASCII)
        if match is None:
            raise ValueError
        limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
        if limit and match["exp"]:
            exp = int(match["exp"])  # each int() refuses over L digits, as Fraction's do
            if not (int(match["num"] or 0) or int(match["decimal"] or 0)):
                return Fraction(0)  # with no power of ten computed
            if abs(exp) >= 4 * limit:  # a numerator or denominator over L digits
                raise ValueError
        value = Fraction(text)
        str(value)  # under the limit, a part over L digits cannot print: ValueError
        return value
    except (ValueError, ZeroDivisionError):
        raise FormatError(f"{what} is not a valid rational: {text!r}") from None


def flow_from_obj(obj):
    """Parse a flow descriptor into (FlowSpec, grid times, seeds)."""
    from .flows import FlowKind, FlowSpec, Seed

    _require(isinstance(obj, dict), "flow descriptor must be an object")
    _require(
        set(obj) <= {"kind", "grid", "seeds", "permutation"},
        "unknown keys in flow descriptor",
    )
    kinds = {kind.value: kind for kind in FlowKind}
    kind_name = obj.get("kind")
    kind = kinds.get(kind_name) if isinstance(kind_name, str) else None
    _require(kind is not None, "kind must be one of {}", sorted(kinds))

    if kind is FlowKind.PERMUTATION:
        table = obj.get("permutation")
        _require(isinstance(table, dict) and table, "permutation kind needs a 'permutation' table")
        strings = all(map(isinstance, chain(table, table.values()), repeat(str)))
        _require(strings, "permutation table entries must be strings")
        try:
            spec = FlowSpec.of_permutation(table)
        except ValueError as exc:
            raise FormatError(str(exc)) from None
    else:
        _require("permutation" not in obj, "'permutation' is only valid for kind 'permutation'")
        spec = FlowSpec(kind)

    grid = [_rational(t, "grid time") for t in _string_items(obj.get("grid", []), "grid")]
    _require(grid, "flow descriptor needs a non-empty 'grid'")

    seeds = []
    raw_seeds = obj.get("seeds", [])
    _require(isinstance(raw_seeds, list), "'seeds' must be an array")
    for entry in raw_seeds:
        _require(
            isinstance(entry, dict) and set(entry) == {"t", "x"},
            "each seed must be an object with keys 't' and 'x'",
        )
        t = _rational(entry["t"], "seed time")
        if kind is FlowKind.PERMUTATION:
            _require(isinstance(entry["x"], str), "permutation seed values must be strings")
            x = entry["x"]
        else:
            x = _rational(entry["x"], "seed value")
        seeds.append(Seed(t, x))
    return spec, grid, seeds
