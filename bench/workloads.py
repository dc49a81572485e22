"""Inputs, jobs and expected outputs for the three benchmark workloads.

Nothing here imports sincov.  Every lawful system comes from the bench's
own random partial bijections, every planted defect comes with the witness
the checker must report, and every expected reconstruction and carrier
renaming is derived here, so a wrong answer from the program cannot also
hide in its expected value.

A job is a list of CLI stages run one after another; a stage whose stdin is
None reads the previous stage's stdout.  ``Job.check(codes, outs)`` returns
None when the job's outputs are correct and a short problem text otherwise.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Stated input sizes.  They fix the work per job, so they stay the same
# for every seed; only the values inside the documents depend on it.
FLOW_POINTS = 28  # grid times, i.e. indices, of a lawful-roundtrip system
FLOW_SEEDS = 11  # trajectories per flow
PERMUTATION_LABELS = 32
UNLAWFUL = dict(indices=24, points=40, per_point=17)  # ~70 % coverage
ATLAS = dict(indices=24, points=1000, per_point=10)  # ~40 % coverage

WORKLOADS = ("lawful-roundtrip", "unlawful-check", "atlas-ops")
VARIANTS = {
    "lawful-roundtrip": ("blowup", "translation", "doubling", "permutation"),
    "unlawful-check": ("dropped-pair", "diagonal-pair", "cross-pair"),
    "atlas-ops": ("iso", "iso", "iso-missing-pair"),
}


@dataclass
class Stage:
    argv: list
    stdin: bytes | None  # None: the previous stage's stdout


@dataclass
class Job:
    variant: str
    stages: list
    check: Callable
    indices: int  # n, the index count of the system the job handles
    pairs: int  # P, its pair count
    doc_bytes: int  # bytes of the input documents the bench wrote


def canonical(obj) -> bytes:
    """The CLI's canonical output form: sorted keys, compact, newline."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def _parse(out: bytes):
    try:
        return json.loads(out)
    except ValueError:
        return None


# ------------------------------------------------------ partial bijections


def random_charts(rng, indices, points, per_point) -> dict:
    """{index: {point: element}}: every point lies in exactly ``per_point``
    charts, and each chart sends its points to distinct elements."""
    names = [f"i{k:02d}" for k in range(indices)]
    charts = {alpha: {} for alpha in names}
    for z in range(points):
        for alpha in rng.sample(names, per_point):
            charts[alpha][f"z{z:04d}"] = None
    for chart in charts.values():
        labels = rng.sample(range(points), len(chart))
        for z, label in zip(list(chart), labels):
            chart[z] = f"e{label:04d}"
    return charts


def generated_system(charts) -> dict:
    """{(alpha, beta): {(b, a)}} with Phi[alpha, beta] = chart_alpha o chart_beta^-1."""
    trajectories = {}
    for alpha, chart in charts.items():
        for z, a in chart.items():
            trajectories.setdefault(z, []).append((alpha, a))
    relations = {}
    for nodes in trajectories.values():
        for alpha, a in nodes:
            for beta, b in nodes:
                relations.setdefault((alpha, beta), set()).add((b, a))
    return relations


def system_obj(indices, relations) -> dict:
    return {
        "indices": sorted(indices),
        "relations": {
            f"{alpha}|{beta}": sorted([b, a] for b, a in pairs)
            for (alpha, beta), pairs in relations.items()
            if pairs
        },
    }


def atlas_obj(charts) -> dict:
    return {"charts": {alpha: sorted([z, a] for z, a in c.items()) for alpha, c in charts.items()}}


# ------------------------------------------------------------------- flows


def flow_descriptor(rng, kind) -> tuple:
    """(descriptor, pair count) for a flow with FLOW_SEEDS distinct trajectories.

    Trajectories never meet, so Phi[alpha, beta] holds one pair per
    trajectory defined at both times.  Total flows give P = k n^2.  Blow-up
    trajectory i is defined on exactly 6 + 2i consecutive grid points at
    one end of the grid, so its P does not depend on the seed either, and
    no trajectory spans the whole grid: some entries are empty.
    """
    n, k = FLOW_POINTS, FLOW_SEEDS
    if kind in ("blowup", "translation"):
        step, start = Fraction(1, 4), Fraction(rng.randint(-8, 8), 4)
    else:
        step, start = Fraction(1), Fraction(rng.randint(-5, 5))
    grid = [start + j * step for j in range(n)]
    doc = {"kind": kind, "grid": [str(t) for t in grid]}
    seeds = []
    if kind == "blowup":
        # x = 1/(T - t): forward branch defined for t < T, backward for t > T.
        pairs = 0
        for i in range(k):
            m = 6 + 2 * i
            u = Fraction(rng.randint(1, 6), 7) * step
            if rng.random() < 0.5:
                blowup, defined = grid[m - 1] + u, grid[:m]
            else:
                blowup, defined = grid[n - m] - u, grid[n - m :]
            t = rng.choice(defined)
            seeds.append((t, 1 / (blowup - t)))
            pairs += m * m
    elif kind == "permutation":
        pairs = k * n * n
        labels = [f"s{j:02d}" for j in range(PERMUTATION_LABELS)]
        image = rng.sample(labels, len(labels))
        table = dict(zip(labels, image))
        doc["permutation"] = table
        for label in rng.sample(labels, k):  # the trajectory's value at time 0
            orbit = [label]
            while table[orbit[-1]] != label:
                orbit.append(table[orbit[-1]])
            t = rng.choice(grid)
            seeds.append((t, orbit[int(t) % len(orbit)]))
    else:
        # Trajectory c is x = c + t (translation) or x = c 2^t (doubling).
        pairs = k * n * n
        ids = set()
        while len(ids) < k:
            ids.add(Fraction(rng.randint(-400, 400), rng.randint(1, 9)))
        for c in sorted(ids):
            t = rng.choice(grid)
            seeds.append((t, c + t if kind == "translation" else c * Fraction(2) ** int(t)))
    doc["seeds"] = [{"t": str(t), "x": str(x)} for t, x in seeds]
    return doc, pairs


# -------------------------------------------------------------------- jobs


def lawful_roundtrip_job(rng, variant, path) -> Job:
    """flow-gen | solve | reconstruct must give back flow-gen's bytes."""
    doc, pairs = flow_descriptor(rng, variant)
    text = canonical(doc)
    solve = ["solve", "-"]
    if variant in ("doubling", "permutation"):
        solve.append(f"--gamma={doc['grid'][0]}")
    indices = sorted(doc["grid"])

    def check(codes, outs):
        if codes != [0, 0, 0]:
            return f"exit codes {codes}, expected [0, 0, 0]"
        if outs[2] != outs[0]:
            return "reconstruct output differs from flow-gen output"
        system = _parse(outs[0])
        got = (system["indices"], sum(len(r) for r in system["relations"].values()))
        if got != (indices, pairs):
            return f"flow-gen gave {len(got[0])} indices and {got[1]} pairs, expected {len(indices)} and {pairs}"
        return None

    stages = [Stage(["flow-gen", "-"], text), Stage(solve, None), Stage(["reconstruct", "-"], None)]
    return Job(variant, stages, check, len(indices), pairs, len(text))


def unlawful_check_job(rng, variant, path) -> Job:
    """A lawful system with one planted defect; check and solve must both
    exit 1, print the same report, and name the predicted witness."""
    charts = random_charts(rng, **UNLAWFUL)
    relations = generated_system(charts)
    names = sorted(charts)
    if variant == "dropped-pair":
        alpha, beta = rng.sample(names, 2)
        while not relations.get((alpha, beta)):
            alpha, beta = rng.sample(names, 2)
        b, a = rng.choice(sorted(relations[(alpha, beta)]))
        relations[(alpha, beta)].remove((b, a))
        witness = {"law": "symmetry", "indices": [beta, alpha], "pair": [b, a]}
    elif variant == "diagonal-pair":
        alpha = rng.choice([x for x in names if len(charts[x]) >= 2])
        b, a = rng.sample(sorted(charts[alpha].values()), 2)
        relations.setdefault((alpha, alpha), set()).add((b, a))
        witness = {"law": "identity", "indices": [alpha], "pair": [b, a]}
    else:  # cross-pair: joins two different trajectories
        alpha, beta = rng.sample(names, 2)
        z1 = rng.choice(sorted(charts[beta]))
        z2 = rng.choice(sorted(set(charts[alpha]) - {z1}))
        b, a = charts[beta][z1], charts[alpha][z2]
        relations.setdefault((alpha, beta), set()).add((b, a))
        witness = {"law": "symmetry", "indices": [alpha, beta], "pair": [a, b]}
    text = canonical(system_obj(names, relations))

    def check(codes, outs):
        if codes != [1, 1]:
            return f"exit codes {codes}, expected [1, 1]"
        if outs[1] != outs[0]:
            return "solve output differs from check output"
        if witness not in _parse(outs[0])["violations"]:
            return f"predicted witness {witness} not reported"
        return None

    stages = [Stage(["check", "-"], text), Stage(["solve", "-"], text)]
    pairs = sum(len(p) for p in relations.values())
    return Job(variant, stages, check, len(names), pairs, len(text))


def atlas_ops_job(rng, variant, path) -> Job:
    """reconstruct, axioms and iso on an atlas A and a carrier-renamed copy
    B written to ``path``; B loses one chart pair in the missing-pair variant."""
    charts = random_charts(rng, **ATLAS)
    points = sorted({z for chart in charts.values() for z in chart})
    renaming = dict(zip(points, (f"w{k:04d}" for k in rng.sample(range(len(points)), len(points)))))
    copy = {alpha: {renaming[z]: a for z, a in chart.items()} for alpha, chart in charts.items()}
    missing = variant == "iso-missing-pair"
    if missing:
        alpha = rng.choice([x for x in sorted(copy) if copy[x]])
        del copy[alpha][rng.choice(sorted(copy[alpha]))]
    first = canonical(atlas_obj(charts))
    second = canonical(atlas_obj(copy))
    path.write_bytes(second)
    relations = generated_system(charts)
    system = canonical(system_obj(charts, relations))
    passed = canonical({f"at{k}": {"pass": True, "witnesses": []} for k in (1, 2, 3)})
    omega = {"omega": sorted([z, w] for z, w in renaming.items())}

    def check(codes, outs):
        expected = [0, 0, 1 if missing else 0]
        if codes != expected:
            return f"exit codes {codes}, expected {expected}"
        if canonical(_parse(outs[0])) != system:
            return "reconstruct output is not the system the atlas generates"
        if outs[1] != passed:
            return "axioms report is not a pass"
        iso = _parse(outs[2])
        if missing and iso["error"] != "not-isomorphic":
            return f"iso gave error {iso['error']!r}, expected 'not-isomorphic'"
        if not missing and iso != omega:
            return "iso omega is not the renaming the bench applied"
        return None

    stages = [
        Stage(["reconstruct", "-"], first),
        Stage(["axioms", "-"], first),
        Stage(["iso", "-", str(path)], first),
    ]
    pairs = sum(len(p) for p in relations.values())
    return Job(variant, stages, check, len(charts), pairs, len(first) + len(second))


BUILDERS = {
    "lawful-roundtrip": lawful_roundtrip_job,
    "unlawful-check": unlawful_check_job,
    "atlas-ops": atlas_ops_job,
}


def make_jobs(workload, seed, workdir: Path, rounds=2) -> list:
    """``rounds`` rounds of jobs, each round one job per variant, in order.
    The same workload and seed always give the same documents."""
    rng = random.Random(f"{workload}:{seed}")
    variants = VARIANTS[workload] * rounds
    return [
        BUILDERS[workload](rng, variant, workdir / f"{workload}-{j}.json")
        for j, variant in enumerate(variants)
    ]
