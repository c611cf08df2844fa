"""The pinned digests of tools/identity.py over the default suite, greedy's
episodes on it, top's covers, tocp's kept certificates, the infeasibility
proofs and bench's rows.

The DP digest takes about 9 s, so only tools/identity.py itself prints it.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "identity.py")


@pytest.fixture(scope="module")
def identity():
    spec = importlib.util.spec_from_file_location("identity", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def default_suite(identity):
    with identity.default_suite() as (root, paths, _):
        yield root, paths


def test_the_default_suite_digest_is_pinned(identity, default_suite):
    root, paths = default_suite
    assert (len(paths), identity.suite_digest(root, paths)) == (
        600, "2a049c27643c9480cde34e9d044f35b1b898b649a2f95ba9b9ae08ada0b66988")


def test_the_greedy_digest_is_pinned(identity, default_suite):
    digest, rounds, _ = identity.greedy_digest(*default_suite)
    assert (rounds, digest) == (
        3600, "fe36b3546617d6d20d7f36f442c1ea14d205dd9bdd6ff681572ae84721080eae")


def test_the_cover_digest_is_pinned(identity):
    digest, certified, times, _ = identity.certificate_digest("top")
    assert (len(times), certified, digest) == (
        240, 140, "105d6c392ea6500d09b2049160933745f8614329207c874f37a91223a42d6498")


def test_the_kept_certificate_digest_is_pinned(identity):
    digest, certified, times, _ = identity.certificate_digest("tocp")
    assert (len(times), certified, digest) == (
        240, 189, "4a15e528081e5816dba9408845bca3dd6cd94a7fcd6f7a8fbb31221a80a6cfb5")


def test_the_proof_digest_is_pinned(identity):
    digest, calls, proven, _ = identity.proof_digest()
    assert (calls, proven, digest) == (
        4320, 183, "1c525a08454810bd499e4b6c37e3280680ee116bb49b324540f29d4b049b2839")


def test_the_bench_digest_is_pinned(identity):
    digest, rows, _ = identity.bench_digest()
    assert (rows, digest) == (
        150, "11b55e7aba0017a81afbde258c870a45ac4f31e46a1215f6cc6aae0e62725569")
