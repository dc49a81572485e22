"""Tests of the benchmark itself.  Run them with ``python -m pytest bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def bench(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True,
        text=True,
        cwd=cwd or BENCH.parent,
        timeout=600,
        check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_one_job_per_workload(trace):
    proc = bench("--workload", "all", "--seed", "1", "--seconds", "0", "--trace", str(trace), "--jobs", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr

    named = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    expected = {f"{workload}/{name}" for workload in workloads.WORKLOADS for name in named}
    assert set(result["metrics"]) == expected
    for workload in workloads.WORKLOADS:
        printed = {}
        for line in lines[:-1]:
            fields = line.split()
            if fields[0] == workload:
                printed[fields[1]] = (float(fields[2]), fields[3], fields[4])
        for name, unit in named.items():
            assert printed[name][1] == unit
            assert printed[name][2].startswith("n=")
            assert result["metrics"][f"{workload}/{name}"]["unit"] == unit
        if not trace:
            assert printed["error_rate"][:2] == (0.0, "ratio")

    if trace:
        value = {name: m["value"] for name, m in result["metrics"].items()}
        assert value["atlas-ops/systems.check_sincov.calls"] == 0
        assert value["atlas-ops/atlas.check_at_axioms_s"] > 0
        assert value["lawful-roundtrip/atlas.check_at_axioms_s"] == 0
        assert value["unlawful-check/atlas.check_at_axioms_s"] == 0


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One real CLI run of the first job of every workload: (job, outputs)."""
    workdir = tmp_path_factory.mktemp("work")
    env = run.child_env()
    out = []
    for workload in workloads.WORKLOADS:
        job = workloads.make_jobs(workload, 7, workdir, rounds=1)[0]
        codes, outs, walls, _errs = run.run_cli(job, env)
        assert run.judge(job, codes, outs) is None
        out.append((job, codes, outs, walls))
    return out


def flip_last_output(codes, outs):
    last = bytearray(outs[-1])
    last[len(last) // 2] ^= 1
    return codes, outs[:-1] + [bytes(last)]


def wrong_last_exit_code(codes, outs):
    return codes[:-1] + [codes[-1] ^ 1], outs


@pytest.mark.parametrize("corrupt", [flip_last_output, wrong_last_exit_code])
def test_corrupted_child_output_counts_in_error_rate(recorded, corrupt):
    for job, codes, outs, walls in recorded:
        bad_codes, bad_outs = corrupt(list(codes), list(outs))
        assert run.judge(job, bad_codes, bad_outs) is not None

        clean, bad = (codes, outs, walls, []), (bad_codes, bad_outs, walls, [])
        results = iter([clean, clean, bad, clean, clean])  # one warm-up, four timed

        def runner(_job):
            return next(results)

        setup = [run.attempt(job, runner)]
        samples = run.measure([job], 1, 0, 4, runner)
        assert [s.problem is None for s in samples] == [True, False, True, True]
        assert run.end_to_end(setup, samples)["error_rate"][0] == 1 / 5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "atlas-ops", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
