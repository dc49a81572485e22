"""A fixed corpus of sincov invocations, and the sha256 of what each prints.

Every case is one subcommand run in-process through ``cli.main``,
canonical and ``--pretty``, on a seeded input document read from stdin:
valid, thinned and mutated systems and atlases, disjoint one-point charts,
a hub atlas, one bad chart beside a one-point chart on each of its points,
dense faulty classes, a class that fails only identity, relations that
repeat pairs, escaped and look-alike ids, empty charts, all four flow
kinds (merged seeds and trajectories cut short included) and malformed
documents, each under every subcommand it admits.  A
case's hash covers both runs' exit codes and stdout, and their stderr
only where sincov writes all of that text: the messages of ``json``,
``argparse``, codecs and int conversion differ across Python versions,
so those cases leave stderr out.

The inputs are built here from ``random.Random`` seeds and the definition
Phi[alpha, beta] = chart_alpha o chart_beta^-1, without sincov, so a
change to the program cannot also change what it is fed.  Only the
standard library and sincov (from ``src``) are needed, so any supported
interpreter runs it:

    python tests/corpus.py --check     # compare with tests/golden/corpus.sha256
    python tests/corpus.py --rewrite   # write the manifest from this tree

``tests/test_corpus.py`` runs the check under pytest.  A change that means
to alter output bytes rewrites the manifest and shows its diff.

The two ways the tests run sincov live here too: ``run_main`` calls
``cli.main`` in-process, and ``run_child`` starts ``python -m sincov`` on
this tree's src.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MANIFEST = Path(__file__).resolve().parent / "golden" / "corpus.sha256"
PARTNER = "<partner>"  # argv slot for the second atlas file of an iso case

SYSTEM_RUNS = (["check", "-"], ["check", "-", "--laws", "identity,symmetry"], ["solve", "-"])
LAW_RUNS = (["check", "-", "--laws", "transitivity"], ["check", "-", "--laws", "identity"])
ATLAS_RUNS = (["reconstruct", "-"], ["axioms", "-"], ["iso", "-", "-"])
FLOW_RUNS = (["flow-gen", "-"],)
# Ids that json escapes, or that encode to more than one UTF-16 unit.
ESCAPED = ['"', "\\", "\x00\x1f", "\n\t", "é", "ß→", "€", "中文", "\U0001f600", "\U0001d11e"]
ESCAPED += [" ", "/"]


def _dumps(obj) -> bytes:
    return json.dumps(obj).encode("ascii")


# ---------------------------------------------------------------- atlases


def random_charts(rng, indices, points, elements) -> dict:
    """{index: [(point, element), ...]}, each chart a partial bijection."""
    charts = {}
    for alpha in indices:
        size = rng.randint(0, min(len(points), len(elements)))
        charts[alpha] = list(zip(rng.sample(points, size), rng.sample(elements, size)))
    return charts


def thinned(rng, charts, keep=0.7) -> dict:
    return {alpha: [p for p in chart if rng.random() < keep] for alpha, chart in charts.items()}


def corrupted(rng, charts) -> dict:
    """One chart made not a partial bijection: a point sent to a second
    element, or a second point sent to an element."""
    charts = dict(charts)
    alpha = rng.choice(sorted(charts))
    chart = list(charts[alpha])
    if chart and rng.random() < 0.5:
        z, a = rng.choice(chart)
        chart.append((z, a + "~"))
    elif chart:
        z, a = rng.choice(chart)
        chart.append((z + "~", a))
    else:
        chart = [("p", "0"), ("p", "1")]
    charts[alpha] = chart
    return charts


def renamed(rng, charts) -> dict:
    """The same charts over freshly named carrier points."""
    points = sorted({z for chart in charts.values() for z, _ in chart})
    names = [f"w{k}" for k in range(len(points))]
    rng.shuffle(names)
    omega = dict(zip(points, names))
    return {alpha: [(omega[z], a) for z, a in chart] for alpha, chart in charts.items()}


def broken_partner(rng, charts) -> dict:
    """``renamed`` with one pair dropped, one point split off, or one pair
    grafted on, so no carrier bijection relates it to ``charts``."""
    charts = renamed(rng, charts)
    nonempty = [alpha for alpha in sorted(charts) if charts[alpha]]
    choice = rng.randrange(3) if nonempty else 2
    alpha = rng.choice(nonempty) if nonempty else sorted(charts)[0]
    chart = list(charts[alpha])
    if choice == 0:
        chart.pop(rng.randrange(len(chart)))
    elif choice == 1:
        k = rng.randrange(len(chart))
        chart[k] = (chart[k][0] + "~", chart[k][1])
    else:
        chart.append(("fresh", "extra"))
    charts[alpha] = chart
    return charts


def atlas_doc(charts) -> bytes:
    return _dumps({"charts": {alpha: [list(p) for p in chart] for alpha, chart in charts.items()}})


# ---------------------------------------------------------------- systems


def generated(charts) -> dict:
    """The system the charts generate, by the definition."""
    relations = {}
    for alpha, chart in charts.items():
        for beta, other in charts.items():
            pairs = sorted({(b, a) for z, a in chart for w, b in other if z == w})
            if pairs:
                relations[f"{alpha}|{beta}"] = pairs
    return {"indices": sorted(charts), "relations": relations}


def mutated(rng, system) -> dict:
    """One to three pairs dropped or added."""
    relations = {key: list(pairs) for key, pairs in system["relations"].items()}
    elements = sorted({x for pairs in relations.values() for pair in pairs for x in pair} | {"0"})
    for _ in range(rng.randint(1, 3)):
        keys = sorted(key for key in relations if relations[key])
        if keys and rng.random() < 0.5:
            key = rng.choice(keys)
            relations[key].pop(rng.randrange(len(relations[key])))
        else:
            key = f"{rng.choice(system['indices'])}|{rng.choice(system['indices'])}"
            relations.setdefault(key, []).append((rng.choice(elements), rng.choice(elements)))
    return {"indices": system["indices"], "relations": relations}


def system_doc(system) -> bytes:
    relations = {key: [list(pair) for pair in pairs] for key, pairs in system["relations"].items()}
    return _dumps({**system, "relations": relations})


# ------------------------------------------------------------------ cases


def documents():
    """(name, stdin bytes, own stderr, argv lists, iso partner bytes or None)."""
    docs = []

    def atlas(name, charts, partner=None):
        runs = [*ATLAS_RUNS, *([["iso", "-", PARTNER]] if partner is not None else [])]
        docs.append((f"atlas/{name}", atlas_doc(charts), True, runs, partner))

    def system(name, system_obj, gammas=(), extra=()):
        runs = [*SYSTEM_RUNS, *extra, *(["solve", "-", "--gamma", gamma] for gamma in gammas)]
        docs.append((f"system/{name}", system_doc(system_obj), True, runs, None))

    def raw(name, kind, data, own=True):
        runs = {"system": SYSTEM_RUNS, "atlas": ATLAS_RUNS, "flow": FLOW_RUNS}[kind]
        docs.append((f"{kind}/{name}", data, own, runs, None))

    indices, points = list("abcdef"), [f"z{k}" for k in range(7)]
    elements = [str(k) for k in range(12)]
    for seed in range(6):
        rng = random.Random(seed)
        charts = random_charts(rng, indices[: rng.randint(1, 6)], points, elements)
        thin = thinned(rng, charts)
        atlas(f"random{seed}", charts, atlas_doc(renamed(rng, charts)))
        atlas(f"thinned{seed}", thin, atlas_doc(broken_partner(rng, thin)))
        atlas(f"corrupted{seed}", corrupted(rng, charts), atlas_doc(charts))
        system(f"valid{seed}", generated(charts), sorted(charts)[:1])
        system(f"thinned{seed}", generated(thin))
        system(f"mutated{seed}", mutated(rng, generated(charts)))

    rng = random.Random(6)
    wide_points, wide_elements = [f"z{k}" for k in range(40)], [str(k) for k in range(48)]
    wide = random_charts(rng, [f"i{k:02d}" for k in range(12)], wide_points, wide_elements)
    atlas("wide", wide, atlas_doc(renamed(rng, wide)))
    system("wide", generated(wide), ["i03"])

    disjoint = {f"i{k:03d}": [(f"z{k:03d}", f"e{k:03d}")] for k in range(320)}
    atlas("disjoint-one-point", disjoint, atlas_doc(renamed(random.Random(7), disjoint)))
    hub = {
        f"h{k:02d}": [("hub", f"{k}.hub")] + [(f"own{k}.{n}", f"{k}.{n}") for n in range(3)]
        for k in range(40)
    }
    atlas("hub", hub, atlas_doc(broken_partner(random.Random(8), hub)))
    system("hub", generated({k: hub[k] for k in sorted(hub)[:8]}))
    total = {alpha: list(zip(points[:4], random.Random(9).sample(elements, 4))) for alpha in "pqrs"}
    system("group-case", generated(total), ["r", "zz"])

    escaped_charts = {
        f"x{name}": [(f"p{k}", value) for k, value in enumerate(ESCAPED[i:] + ESCAPED[:i])]
        for i, name in enumerate(ESCAPED)
    }
    atlas("escaped", escaped_charts, atlas_doc(renamed(random.Random(10), escaped_charts)))
    system("escaped", generated({k: escaped_charts[k] for k in sorted(escaped_charts)[:4]}))
    lookalike = {"a": [("z", "a"), ("w", "a!")], "a!": [("z", "a!"), ("v", "a")], "b": []}
    atlas("lookalike", lookalike, atlas_doc(renamed(random.Random(11), lookalike)))
    system("lookalike", generated(lookalike), ["a!"])
    shared_bad = {  # at3 witnesses from bad charts p, q, r sharing points with s, t
        "p": [("z0", "0"), ("z1", "0"), ("z2", "1")],
        "q": [("z1", "2"), ("z1", "3"), ("z3", "4")],
        "r": [("z2", "5"), ("z3", "5"), ("z3", "6")],
        "s": [("z0", "7"), ("z3", "8")],
        "t": [("z2", "9"), ("w", "10")],
        "u": [("v", "11")],
    }
    atlas("bad-charts-sharing-points", shared_bad)
    big_bad = {f"p{k}": [(f"z{k}", f"p.{k}")] for k in range(6)}  # at3 read through shared points
    big_bad["big"] = [(f"z{k}", str(k)) for k in range(6)] + [("z0", "x")]
    atlas("big-bad-chart", big_bad)
    dense = {"indices": list("abc"), "relations": {}}
    for alpha in dense["indices"]:  # one faulty class: every Phi the full 4 x 4 relation
        for beta in dense["indices"]:
            dense["relations"][f"{alpha}|{beta}"] = [(b, a) for b in "0123" for a in "0123"]
    system("dense", dense, ["a"], LAW_RUNS)
    rng = random.Random(12)
    dropped = {k: [p for p in ps if rng.random() < 0.8] for k, ps in dense["relations"].items()}
    system("dense-dropped", {**dense, "relations": dropped}, extra=LAW_RUNS)
    twice = {"a|a": [(b, a) for b in "01" for a in "01"], "a|b": [("0", "0"), ("0", "1")]}
    twice.update({"b|a": [("0", "0"), ("1", "0")], "b|b": [("0", "0")]})
    system("identity-only", {"indices": ["a", "b"], "relations": twice}, ["b"], LAW_RUNS)
    repeated = generated({alpha: wide[alpha] for alpha in sorted(wide)[:3]})
    repeated["relations"] = {k: pairs + pairs[::2] for k, pairs in repeated["relations"].items()}
    system("repeated-pairs", repeated, ["i01"], LAW_RUNS)
    system("repeated-pairs-mutated", mutated(random.Random(13), repeated), extra=LAW_RUNS)
    atlas("empty-and-one-point", {"a": [], "b": [("z", "0")], "c": [("z", "1"), ("w", "2")]})
    atlas("one-empty-chart", {"a": []})
    atlas("no-charts", {})
    system("no-indices", {"indices": [], "relations": {}})

    def flow(name, kind, grid, seeds=None, **table):
        obj = {"kind": kind, "grid": grid.split(), **table}
        if seeds is not None:  # "t:x" each
            obj["seeds"] = [dict(zip("tx", seed.split(":"))) for seed in seeds]
        raw(name, "flow", _dumps(obj))

    flow("translation", "translation", "0 1/2 1 3", ["0:0", "1:-1/3"])
    flow("blowup", "blowup", "-1 0 1/2 1 2", ["0:1", "0:-1", "0:0", "0:1/3"])
    flow("doubling", "doubling", "-2 0 1 3", ["0:3/5", "1:0"])
    cycle = {"a": "b", "b": "c", "c": "a", "d": "d"}
    flow("permutation", "permutation", "0 1 2 5", ["0:a", "2:d"], permutation=cycle)
    flow("merged-seeds", "translation", "0 1 2", ["0:0", "1:1", "2:5"])
    swap = {"a": "b", "b": "a"}
    flow("merged-permutation", "permutation", "0 1", ["0:a", "1:b"], permutation=swap)
    flow("merged-blowup", "blowup", "-1 0 1/2 1 2", ["0:1", "1/2:2"])
    flow("merged-doubling", "doubling", "-1 0 1 2", ["0:3", "1:6"])
    flow("blowup-cut-short", "blowup", "0 1 2", ["0:1"])
    labels = ["é", '"', " ", "\\", "\U0001d11e", "a!"]
    shift = dict(zip(labels, labels[1:] + labels[:1]))
    flow("escaped-permutation", "permutation", "0 1 3", ["0:é", "1:a!"], permutation=shift)
    merged = ["0: ", "2:\U0001d11e"]
    flow("merged-escaped-permutation", "permutation", "0 2", merged, permutation=shift)
    flow("merged-translation", "translation", "0 1 2 3", ["0:0", "1:1", "3:3"])
    flow("no-seeds", "blowup", "0 1")
    flow("off-grid-seed", "translation", "0", ["1:0"])
    flow("fractional-discrete", "doubling", "0 1/2", [])
    flow("outside-permutation", "permutation", "0", ["0:q"], permutation={"a": "a"})
    flow("bad-rational", "translation", "x", [])
    flow("underscore-rational", "translation", "1_0", [])  # 10 on Python 3.11 and later
    flow("spaced-slash", "translation", "0", ["0:1 / 2"])  # 1/2 on Python 3.12 and later
    flow("unicode-digits", "translation", "\u0661/\u0662")  # 1/2 by Fraction's grammar
    flow("huge-exponent", "translation", "1e10000000")  # refused before 10**10000000 is built
    flow("over-limit-seed-time", "translation", "0", ["1e5000:0"])  # over L digits, under 4L
    flow("unknown-kind", "spiral", "0")
    flow("non-bijective-table", "permutation", "0", permutation={"a": "b"})

    for kind in ("system", "atlas", "flow"):
        raw("bad-json", kind, b'{"indices": [', own=False)
        raw("not-utf8", kind, b'{"charts": {"\xff": []}}', own=False)
        raw("huge-int", kind, b"[" + b"9" * 5000 + b"]", own=False)
        raw("deep-nesting", kind, b"[" * 100000, own=False)
        raw("array", kind, b"[]")
    for name, obj in {
        "unknown-key": {"indices": [], "extra": 1},
        "no-indices-key": {"relations": {}},
        "bar-in-index": {"indices": ["a|b"]},
        "bad-key": {"indices": ["a"], "relations": {"a": []}},
        "unknown-key-index": {"indices": ["a"], "relations": {"a|q": []}},
        "short-pair": {"indices": ["a"], "relations": {"a|a": [["0"]]}},
        "number-pair": {"indices": ["a"], "relations": {"a|a": [["0", 1]]}},
        "relations-array": {"indices": ["a"], "relations": []},
    }.items():
        raw(name, "system", _dumps(obj))
    for name, obj in {
        "extra-key": {"charts": {}, "x": 1},
        "charts-array": {"charts": []},
        "bar-in-index": {"charts": {"a|b": []}},
        "chart-not-array": {"charts": {"a": {"z": "0"}}},
        "long-pair": {"charts": {"a": [["z", "0", "1"]]}},
    }.items():
        raw(name, "atlas", _dumps(obj))
    return docs


def cases():
    """(name, argv, stdin bytes, own stderr, iso partner bytes or None), in
    manifest order; argv may hold PARTNER."""
    out = []
    for name, data, own, runs, partner in documents():
        out += ((" ".join([name, *argv]), argv, data, own, partner) for argv in runs)
    for argv in (["check", "--laws", "nope", "-"], ["frobnicate"], ["solve"], ["iso", "-"]):
        out.append((" ".join(["argparse", *argv]), argv, b"{}", False, None))
    return out


def run_main(argv, data):
    """``cli.main(argv)`` in-process with ``data`` bytes on a strict-UTF-8
    stdin, or ``data`` text on an ``io.StringIO`` with no bytes under it:
    (exit code, stdout, stderr), argparse's exits taken as codes."""
    from sincov.cli import main

    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    if isinstance(data, str):
        sys.stdin = io.StringIO(data)
    else:
        sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def run_child(argv, data=b"", env=None, preexec_fn=None):
    """``python -m sincov argv`` from this tree's src, with ``data`` on stdin:
    (exit code, stdout bytes, stderr bytes).  ``env`` adds to this process's
    environment, whose PYTHONUNBUFFERED is dropped so the child's streams
    hold what it writes until ``run`` flushes them; ``preexec_fn`` runs in
    the child before Python starts."""
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    result = subprocess.run(
        [sys.executable, "-m", "sincov", *argv],
        input=data,
        capture_output=True,
        env=env,
        preexec_fn=preexec_fn,
    )
    return result.returncode, result.stdout, result.stderr


def run_case(argv, data, own_stderr, partner, workdir, runner=run_main) -> str:
    """The sha256 of (exit code, stdout[, stderr]) of ``main(argv)`` and of
    ``main(argv + ["--pretty"])``, each with ``data`` on stdin; ``runner(argv,
    data)`` gives the code and the two strings, in-process by default."""
    if partner is not None:  # one file per distinct partner document
        path = os.path.join(workdir, hashlib.sha256(partner).hexdigest() + ".json")
        if not os.path.exists(path):
            with open(path, "wb") as fh:
                fh.write(partner)
        argv = [path if arg == PARTNER else arg for arg in argv]
    fields = []
    for flags in ([], ["--pretty"]):
        code, out, err = runner([*argv, *flags], data)
        fields += [str(code), out, err] if own_stderr else [str(code), out]
    return hashlib.sha256("\0".join(fields).encode("utf-8", "backslashreplace")).hexdigest()


def digests() -> dict:
    """{case name: sha256} over the whole corpus."""
    found = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, argv, data, own, partner in cases():
            assert name not in found, name
            found[name] = run_case(argv, data, own, partner, workdir)
    return found


def read_manifest() -> dict:
    lines = MANIFEST.read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, _, name in (line.partition("  ") for line in lines)}


def differences(found: dict, expected: dict) -> list:
    """Names of the cases whose digest differs, is missing or is new."""
    return [name for name in {**expected, **found} if found.get(name) != expected.get(name)]


def main(argv) -> int:
    if argv == ["--rewrite"]:
        MANIFEST.write_text("".join(f"{d}  {n}\n" for n, d in digests().items()), encoding="utf-8")
        return 0
    if argv == ["--check"]:
        bad = differences(digests(), read_manifest())
        for name in bad:
            print(f"corpus case differs: {name}", file=sys.stderr)
        return 1 if bad else 0
    print("usage: corpus.py --check | --rewrite", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.path.insert(0, str(SRC))
    sys.exit(main(sys.argv[1:]))
