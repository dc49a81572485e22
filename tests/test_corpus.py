"""The byte corpus: every case prints what ``tests/golden/corpus.sha256``
pins, under every hash seed.  ``python tests/corpus.py --rewrite`` rewrites
the manifest when a change means to alter output bytes."""

import os
import subprocess
import sys

import corpus


def test_every_case_prints_its_manifest_bytes():
    assert corpus.differences(corpus.digests(), corpus.read_manifest()) == []


def test_manifest_stays_small():
    assert len(corpus.read_manifest()) > 250
    assert corpus.MANIFEST.stat().st_size < 50_000


def test_manifest_holds_under_hash_seeds_0_and_1():
    children = [
        subprocess.Popen(
            [sys.executable, corpus.__file__, "--check"],
            env={**os.environ, "PYTHONHASHSEED": seed},
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in ("0", "1")
    ]
    assert [(child.communicate()[1], child.returncode) for child in children] == [("", 0)] * 2
