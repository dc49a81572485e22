"""The byte corpus: every case prints what ``tests/golden/corpus.sha256``
pins, under every hash seed, and a sample of cases prints it through
``python -m sincov`` children too.  ``python tests/corpus.py --rewrite``
rewrites the manifest when a change means to alter output bytes."""

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


def decoded_child(argv, data):
    """``corpus.run_child`` with its streams decoded as the child wrote them."""
    code, out, err = corpus.run_child(argv, data, {"PYTHONIOENCODING": "utf-8"})
    return code, out.decode(), err.decode()


def test_children_print_the_manifest_bytes(tmp_path):
    # Every 16th case, canonical and --pretty: the bytes written through
    # cli.run, whose process ends in os._exit, not only main's in-process text.
    expected = corpus.read_manifest()
    sample = corpus.cases()[::16]
    found = {
        name: corpus.run_case(argv, data, own, partner, str(tmp_path), decoded_child)
        for name, argv, data, own, partner in sample
    }
    assert found == {name: expected[name] for name in found}
