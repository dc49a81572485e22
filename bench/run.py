#!/usr/bin/env python3
"""Benchmark of the sincov command line, end to end and layer by layer.

    python3 bench/run.py --workload lawful-roundtrip --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 1

Run from any directory of a checkout; the program under test is the
checkout's own ``src/sincov``, run as ``python -m sincov`` child processes,
one at a time (a closed loop with one client).  Each job's stages run in
order, and a stage's stdout bytes become the next stage's stdin.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics: the median wall time of each CLI subcommand's child from
the same untraced loop, then an untraced and a traced in-process replay of
one round of jobs (see tracing.py).  Spans and per-job samples are written
to ``bench/out/`` once, at the end of the run.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_RUNS = 3  # warm-up jobs; setup_s is their median
STARTUP_RUNS = 5  # import-only children behind cli.startup_s
CHILD_TIMEOUT = 120  # seconds; subprocess.run kills a child that takes longer
COMMANDS = ("flow-gen", "solve", "reconstruct", "check", "iso", "axioms")


@dataclass
class Sample:
    variant: str
    wall: float  # seconds from the first child's start to the last one's exit
    stage_walls: list  # [subcommand, seconds] per child
    pairs: int
    problem: str | None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(job, env):
    """Run a job's stages as child processes; (exit codes, stdouts, walls, stderrs)."""
    codes, outs, walls, errs, prev = [], [], [], [], b""
    for stage in job.stages:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "sincov", *stage.argv],
            input=prev if stage.stdin is None else stage.stdin,
            capture_output=True,
            env=env,
            timeout=CHILD_TIMEOUT,
            check=False,
        )
        walls.append(time.perf_counter() - start)
        codes.append(proc.returncode)
        outs.append(proc.stdout)
        errs.append(proc.stderr)
        prev = proc.stdout
    return codes, outs, walls, errs


def judge(job, codes, outs, errs=()):
    """The job's problem text, or None when its outputs are correct."""
    try:
        problem = job.check(codes, outs)
    except (KeyError, TypeError, AttributeError) as exc:
        problem = f"malformed output ({exc!r})"
    if problem:
        tail = b"".join(errs)[-400:].decode(errors="replace")
        print(f"bench: {job.variant} job failed: {problem} {tail}", file=sys.stderr)
    return problem


def attempt(job, runner) -> Sample:
    start = time.perf_counter()
    codes, outs, walls, errs = runner(job)
    wall = time.perf_counter() - start
    stages = [[stage.argv[0], w] for stage, w in zip(job.stages, walls)]
    return Sample(job.variant, wall, stages, job.pairs, judge(job, codes, outs, errs))


def measure(jobs, per_round, seconds, max_jobs, runner) -> list:
    """Run jobs in rotation until ``seconds`` have passed at a round's end,
    at least one round; or exactly ``max_jobs`` jobs when that is given."""
    samples = []
    start = time.perf_counter()
    while True:
        done = len(samples)
        if max_jobs is not None:
            if done >= max_jobs:
                break
        elif done and done % per_round == 0 and time.perf_counter() - start >= seconds:
            break
        samples.append(attempt(jobs[done % len(jobs)], runner))
    return samples


def end_to_end(setup, samples) -> dict:
    """(value, unit, samples) per end-to-end metric."""
    walls = [s.wall for s in samples]
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    jobs = setup + samples
    return {
        "job_s.p50": (statistics.median(walls), "s", len(walls)),
        "pairs_per_s": (sum(s.pairs for s in samples) / sum(walls), "pairs/s", len(walls)),
        "peak_rss_mb": (children.ru_maxrss / 1024, "MiB", len(jobs)),
        "error_rate": (sum(s.problem is not None for s in jobs) / len(jobs), "ratio", len(jobs)),
        "setup_s": (statistics.median(s.wall for s in setup), "s", len(setup)),
    }


def cli_layers(samples, env) -> dict:
    """Median child wall per subcommand, and of a child that only imports the CLI."""
    walls = {command: [] for command in COMMANDS}
    for sample in samples:
        for command, wall in sample.stage_walls:
            walls[command].append(wall)
    startup = []
    for _ in range(STARTUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sincov.cli"], env=env, timeout=CHILD_TIMEOUT, check=True)
        startup.append(time.perf_counter() - start)
    metrics = {"cli.startup_s": (statistics.median(startup), "s", len(startup))}
    for command, values in walls.items():
        metrics[f"cli.{command}_s"] = (statistics.median(values) if values else 0.0, "s", len(values))
    return metrics


def import_sincov():
    sys.path.insert(0, str(SRC))
    import sincov
    import sincov.cli

    if SRC not in Path(sincov.__file__).resolve().parents:
        sys.exit(f"bench: imported sincov from {sincov.__file__}, not from {SRC}")
    return sincov


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_workload(args) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        jobs = workloads.make_jobs(args.workload, args.seed, workdir)
        per_round = len(workloads.VARIANTS[args.workload])
        env = child_env()

        def runner(job):
            return run_cli(job, env)

        setup = [attempt(jobs[0], runner) for _ in range(SETUP_RUNS)]
        samples = measure(jobs, per_round, args.seconds, args.jobs, runner)
        problems = [s.problem for s in setup + samples]
        if args.trace:

            def check(job, codes, outs):
                problems.append(judge(job, codes, outs))

            metrics = cli_layers(samples, env)
            layers, tracer = tracing.replay(jobs[:per_round], import_sincov(), check)
            metrics.update(layers)
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            metrics = end_to_end(setup, samples)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "nproc": os.cpu_count(),
        "inputs": {
            job.variant: {"n": job.indices, "P": job.pairs, "doc_bytes": job.doc_bytes}
            for job in jobs[:per_round]
        },
    }
    print(f"meta {json.dumps(meta)}")
    for name, (value, unit, count) in metrics.items():
        print(f"{args.workload:<17} {name:<34} {value:>14.6g} {unit:<8} n={count}")
    record = {
        "meta": meta,
        "metrics": {name: {"value": v, "unit": u, "samples": c} for name, (v, u, c) in metrics.items()},
        "jobs": [vars(s) for s in samples],
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    # error_rate is printed above; the result carries it as failed / attempted.
    metrics.pop("error_rate", None)
    failed = sum(p is not None for p in problems)
    return {
        "correct": failed == 0,
        "attempted": len(problems),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process, so peak_rss_mb sees only its children."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.jobs is not None:
            argv += ["--jobs", str(args.jobs)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"bench: workload {workload} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{workload}/{name}": m for name, m in result["metrics"].items()})
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=None, help="run exactly this many timed jobs instead")
    args = parser.parse_args(argv)
    if not (SRC / "sincov" / "cli.py").is_file():
        sys.exit(f"bench: no sincov source at {SRC}; run the bench inside a checkout")
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
