"""Traced in-process replay of benchmark jobs: the per-layer metrics.

The replay calls ``sincov.cli.main(argv)`` for every stage of a job, so
the handlers' real call sequence is kept, including the second
``check_sincov`` that ``solve`` runs on unlawful input.  For the traced
pass the bench replaces public names of sincov's modules with wrappers
that record a span (name, start, end, parent, job) around each call, and
puts the originals back afterwards; nothing under ``src/`` knows about it.

``SincovSystem.get`` and ``Relation.compose`` run tens of thousands of
times per job, so they are counted (and compose is timed) rather than
given spans.  Their time stays inside the span of whoever called them.

A span's self time is its duration minus the durations of its child
spans.  Layer times are self times except ``systems.check_sincov_s``,
which is inclusive.  Every metric is a mean per replayed job.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from collections import Counter

# (sincov module, public name, span name).  A function appears once per
# module that looks it up, because each module holds its own reference.
SPANNED = (
    ("jsonio", "system_from_obj", "jsonio.parse"),
    ("jsonio", "atlas_from_obj", "jsonio.parse"),
    ("jsonio", "flow_from_obj", "jsonio.parse"),
    ("jsonio", "system_to_obj", "jsonio.serialize"),
    ("jsonio", "atlas_to_obj", "jsonio.serialize"),
    ("jsonio", "isomorphism_to_obj", "jsonio.serialize"),
    ("jsonio", "violation_to_obj", "jsonio.serialize"),
    ("jsonio", "chart_violation_to_obj", "jsonio.serialize"),
    ("jsonio", "canonical_dumps", "jsonio.serialize"),
    ("cli", "build_system", "flows.build_system"),
    ("cli", "check_sincov", "systems.check_sincov"),
    ("systems", "check_sincov", "systems.check_sincov"),
    ("cli", "solve_atlas", "systems.solve_atlas"),
    ("cli", "solve_via_fixed_index", "systems.solve_via_fixed_index"),
    ("cli", "reconstruct", "systems.reconstruct"),
    ("cli", "validate_atlas", "atlas.validate_atlas"),
    ("systems", "validate_atlas", "atlas.validate_atlas"),
    ("atlas", "validate_atlas", "atlas.validate_atlas"),
    ("cli", "find_isomorphism", "atlas.find_isomorphism"),
    ("cli", "check_at_axioms", "atlas.check_at_axioms"),
)
INCLUSIVE = {"systems.check_sincov"}
LAYERS = (
    "jsonio.parse",
    "jsonio.serialize",
    "flows.build_system",
    "systems.check_sincov",
    "systems.solve_atlas",
    "systems.solve_via_fixed_index",
    "systems.reconstruct",
    "atlas.validate_atlas",
    "atlas.find_isomorphism",
    "atlas.check_at_axioms",
)


def _count_result(counts, name, result):
    if name == "systems.check_sincov":
        counts["systems.check_sincov.violations"] += len(result)
    elif name == "flows.build_system":
        counts["flows.pairs_out"] += sum(len(r.pairs) for r in result.relations.values())
    elif name == "jsonio.serialize" and isinstance(result, str):
        counts["jsonio.serialize_bytes"] += len(result.encode())


class Tracer:
    """Spans and counters of one traced replay, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent span index, job id]
        self.stack = []
        self.counts = Counter()
        self.job = None

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = [name, time.perf_counter(), None, parent, self.job]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            _count_result(self.counts, name, result)
            return result

        return traced

    def counted_get(self, get):
        counts = self.counts

        def traced_get(system, alpha, beta):
            rel = get(system, alpha, beta)
            counts["systems.get.calls"] += 1
            if not rel.pairs:
                counts["systems.get.empty"] += 1
            return rel

        return traced_get

    def timed_compose(self, compose):
        counts = self.counts

        def traced_compose(rel, other):
            start = time.perf_counter()
            out = compose(rel, other)
            counts["relations.compose_s"] += time.perf_counter() - start
            counts["relations.compose.calls"] += 1
            if out.pairs:
                counts["relations.compose.nonempty"] += 1
            return out

        return traced_compose

    def parsing_json(self, json_module):
        """Stands in for the ``json`` module inside ``sincov.cli``, so the
        text parse in the CLI's loader is a ``jsonio.parse`` span."""
        loads = self.wrap("jsonio.parse", json_module.loads)
        counts = self.counts

        class ParsingJson:
            def __getattr__(self, attr):
                return getattr(json_module, attr)

            @staticmethod
            def loads(text, *args, **kwargs):
                counts["jsonio.parse_bytes"] += len(text.encode() if isinstance(text, str) else text)
                return loads(text, *args, **kwargs)

        return ParsingJson()

    def self_times(self) -> Counter:
        """Seconds per span name: self time, or inclusive for INCLUSIVE names."""
        covered = Counter()
        for _name, start, end, parent, _job in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = Counter()
        for index, (name, start, end, _parent, _job) in enumerate(self.spans):
            own = 0.0 if name in INCLUSIVE else covered[index]
            out[name] += end - start - own
        return out

    def dump(self, path):
        """Write every span once, with times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": name, "start": start - origin, "end": end - origin, "parent": parent, "job": job}
            for name, start, end, parent, job in self.spans
        ]
        path.write_text(json.dumps(rows, separators=(",", ":")) + "\n")


@contextlib.contextmanager
def patched(tracer, sincov):
    """Install the tracer's wrappers in sincov's modules; restore on exit."""
    modules = {name: getattr(sincov, name) for name in ("cli", "jsonio", "systems", "atlas")}
    targets = [(modules[m], attr, tracer.wrap(span, getattr(modules[m], attr))) for m, attr, span in SPANNED]
    targets.append((modules["cli"], "json", tracer.parsing_json(modules["cli"].json)))
    targets.append((sincov.SincovSystem, "get", tracer.counted_get(sincov.SincovSystem.get)))
    targets.append((sincov.Relation, "compose", tracer.timed_compose(sincov.Relation.compose)))
    saved = []
    try:
        for owner, attr, replacement in targets:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def run_in_process(job, main):
    """Run a job's stages through ``main(argv)``; (exit codes, stdout bytes)."""
    codes, outs, prev = [], [], b""
    for stage in job.stages:
        data = prev if stage.stdin is None else stage.stdin
        out, saved_stdin = io.StringIO(), sys.stdin
        sys.stdin = io.StringIO(data.decode())
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(stage.argv)
        finally:
            sys.stdin = saved_stdin
        prev = out.getvalue().encode()
        codes.append(code)
        outs.append(prev)
    return codes, outs


def replay(jobs, sincov, check):
    """Replay ``jobs`` untraced, then traced; (per-layer metrics, tracer).

    ``check(job, codes, outs)`` judges each replayed job's outputs.  Metric
    values are (value, unit, samples) with samples the replayed job count.
    """
    main = sincov.cli.main
    untraced = 0.0
    for job in jobs:
        start = time.perf_counter()
        result = run_in_process(job, main)
        untraced += time.perf_counter() - start
        check(job, *result)

    tracer = Tracer()
    traced = 0.0
    with patched(tracer, sincov):
        for number, job in enumerate(jobs):
            tracer.job = number

            def traced_main(argv):
                return tracer.wrap(f"cli.{argv[0]}", main)(argv)

            start = time.perf_counter()
            result = tracer.wrap("job", run_in_process)(job, traced_main)
            traced += time.perf_counter() - start
            check(job, *result)

    n = len(jobs)
    times = tracer.self_times()
    counts = tracer.counts
    calls = Counter(name for name, *_ in tracer.spans)

    def ratio(part, whole):
        return counts[part] / counts[whole] if counts[whole] else 0.0

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}_s"] = (times[layer] / n, "s")
    metrics.update(
        {
            "jsonio.parse_bytes": (counts["jsonio.parse_bytes"] / n, "bytes"),
            "jsonio.serialize_bytes": (counts["jsonio.serialize_bytes"] / n, "bytes"),
            "flows.pairs_out": (counts["flows.pairs_out"] / n, "count"),
            "systems.check_sincov.calls": (calls["systems.check_sincov"] / n, "count"),
            "systems.check_sincov.violations": (counts["systems.check_sincov.violations"] / n, "count"),
            "systems.get.calls": (counts["systems.get.calls"] / n, "count"),
            "systems.get.empty_ratio": (ratio("systems.get.empty", "systems.get.calls"), "ratio"),
            "relations.compose.calls": (counts["relations.compose.calls"] / n, "count"),
            "relations.compose_s": (counts["relations.compose_s"] / n, "s"),
            "relations.compose.nonempty_ratio": (
                ratio("relations.compose.nonempty", "relations.compose.calls"),
                "ratio",
            ),
            "input.indices": (sum(job.indices for job in jobs) / n, "count"),
            "input.pairs": (sum(job.pairs for job in jobs) / n, "count"),
            "trace.overhead_ratio": (traced / untraced, "ratio"),
        }
    )
    return {name: (value, unit, n) for name, (value, unit) in metrics.items()}, tracer
