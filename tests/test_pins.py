"""Fixed-seed outputs pinned to sha256 digests.

Protocol transcripts and sweep CSVs must stay identical byte for byte
across refactors of the engine.  Comparing two runs in one process cannot
catch a change in the order of random draws or in the arithmetic; these
digests can.  Protocol B at d = 5, protocol A and the d = 7 sweep are the
benchmark workloads' default calls (``bench/workloads.py``); protocol B at
d = 3 is the smallest all-approve batch, and protocol B at d = 4 with a
declining validator draws each round's outcome from several.  Protocol B
at d = 5 with its first validator declining leaves up to five outcomes per
key, so its diagnostics are computed for many (key, outcome) pairs at once.  Protocol A
with five parties draws every one of its 512 keys, and protocol A at d = 5
with a declining validator leaves several outcomes per key after its door
openings.  The long batches (protocol B at d = 5 over 1000 rounds, protocol
A over 10^4 rounds) cover every distinct (bits, switches) choice many times
over and span several chunks of rounds; protocol B at d = 5 meets new keys
in more than one chunk, so it runs several batched evolutions of keys.  Each pinned batch is also
run again in the same process, where it finds its keys in the branch table
kept from the first run, and must write the same bytes.
"""

import hashlib
from dataclasses import replace

from conftest import load_script, record_evolutions

from qmonty import protocols
from qmonty.cli import main
from qmonty.protocols import (
    ProtocolConfig,
    run_batch,
    serialize_transcripts,
    write_transcripts,
)

REPRODUCE_PINS = {
    "classical_mixed_d3_m1.csv": "f7ce70048cffd06ef09f0082a6766b2a5849403dc5862e46276a2bd2b511b7ff",
    "displacement_d6_m3_k0.csv": "99b07cc288a5397852fa5444bf16ed22079535a3a3241ea466e380ed2a4cbe25",
    "displacement_d6_m3_k1.csv": "41568fa609c04eb8f456dcd8450129439134879aedba548e056ec4b6ac316b22",
    "displacement_d6_m3_k2.csv": "8ae59aa82d6beb3d6d4cfeb7c464d470845d9f6a1e9524b541c965f56e9a84be",
    "displacement_d6_m3_k3.csv": "5ac7a077e4ed39daa68feebfab0da702c9386abee4382b486ac1896d2aa8ada0",
    "displacement_d6_m3_k4.csv": "ccd1d464934eae7d908b35ae9f3ea84c59ac956ce17d6898f19dcd7bff6b9813",
    "displacement_d6_m3_k5.csv": "737c466fdc8c42fd2d64fbc532f5336275e9b1778b3cc6c8f11f5c9de5bddff1",
    "entangled_qft_d3_m1.csv": "88a7fd02b0ec09f9230a7a348a7ffde376a2849cc9d5afe2dbce1f0837f0d0bd",
    "qft_player_d3_m1.csv": "d092e6b25aa81655beadb823ba804f37eb24dec4fb4689baa79aa5c58a1093b7",
    "superposition_family_d5_m1_doors1.csv": "8e23feb5615538a81b71f391767c058f411107fe6ba4a6dd5f6e24e364edcd6f",
    "superposition_family_d5_m1_doors2.csv": "f9133c5bae40514dfb32f5a556f066b2c2e84dfd6c2c6b507868df1bc013cc10",
    "superposition_family_d5_m1_doors3.csv": "38bf543f913cdfe116b83ce58ee87fb1331c158bfa73964fb1428e5896a2286f",
    "superposition_family_d5_m1_doors4.csv": "e5595f3cdaeee84295905542a9cb89299ade3f66d7010d6a8aa49778cab0c80a",
    "superposition_family_d5_m1_qft.csv": "e5c5760f0009219da6bd2e1341532e718d7e23ff5c614defb7d4cc026723c0c4",
}


def _sha256(*paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def _batch(tmp_path, protocol, name, **fields):
    report = run_batch(ProtocolConfig(**fields), protocol)
    path = tmp_path / name
    write_transcripts(path, report.transcripts)
    return path


def test_protocol_b_transcripts(tmp_path):
    path = _batch(
        tmp_path, "b", "b.jsonl",
        d=5, n=4, m=3, approvals=(True, True, True), seed=9090, rounds=200,
    )
    assert _sha256(path) == (
        "9e157d58fa519e3ffce2b47e4654989919a9dcff296a96a058511d1a96c7b65b"
    )


def test_protocol_b_transcripts_1000_rounds(tmp_path, monkeypatch):
    batches = record_evolutions(monkeypatch)
    path = _batch(
        tmp_path, "b", "b1000.jsonl",
        d=5, n=4, m=3, approvals=(True, True, True), seed=9090, rounds=1000,
    )
    assert _sha256(path) == (
        "6c018a726019dc0927045606f93b5bae94a94d3fff142259c6ce40b39b25a807"
    )
    assert len(batches) > 1


def test_protocol_b_transcripts_d3(tmp_path):
    path = _batch(
        tmp_path, "b", "b3.jsonl",
        d=3, n=2, m=1, approvals=(True,), seed=9090, rounds=1000,
    )
    assert _sha256(path) == (
        "cbb09141663c93f4475e0a1b2103d081a732edcaa48f1bdac84e2e773ad81a4d"
    )


def test_protocol_b_transcripts_declining_first_validator(tmp_path):
    path = _batch(
        tmp_path, "b", "b5-011.jsonl",
        d=5, n=4, m=3, approvals=(False, True, True), seed=9090, rounds=1000,
    )
    assert _sha256(path) == (
        "8759912746e523c653c253e08e17e5ff6e4462f49fc363a926c8ce4f150b004d"
    )


def test_protocol_b_transcripts_declining_validator(tmp_path):
    path = _batch(
        tmp_path, "b", "b4.jsonl",
        d=4, n=3, m=2, approvals=(True, False), seed=9090, rounds=500,
    )
    assert _sha256(path) == (
        "d4d0be4774809a1106959b488f41fe4954fdbe4386c58601d028825372618fe8"
    )


def test_protocol_a_transcripts(tmp_path):
    paths = [
        _batch(
            tmp_path, "a", f"a{i}.jsonl",
            d=4, n=2, m=2, approvals=approvals, seed=7, rounds=250,
        )
        for i, approvals in enumerate([(True, True), (True, False)])
    ]
    assert _sha256(*paths) == (
        "5536cf14ae333c602e7db6f6e8b551886a7fb8418c9a072e198f876cdb57fd06"
    )


def test_protocol_a_transcripts_10000_rounds(tmp_path, monkeypatch):
    batches = record_evolutions(monkeypatch)
    path = _batch(
        tmp_path, "a", "a10000.jsonl",
        d=4, n=2, m=2, approvals=(True, True), seed=7, rounds=10_000,
    )
    assert _sha256(path) == (
        "10197c553e3ff2aca4b79a5d1044f00135fc2d3a9610516d07f492cc63c2d0ee"
    )
    # All 2^3 keys fall in the first chunk; each is evolved exactly once.
    evolved = [key for batch in batches for key in batch]
    assert len(evolved) == len(set(evolved)) == 8


def test_protocol_a_transcripts_five_parties(tmp_path, monkeypatch):
    batches = record_evolutions(monkeypatch)
    path = _batch(
        tmp_path, "a", "a5.jsonl",
        d=4, n=5, m=2, approvals=(True, True), seed=2024, rounds=4000,
    )
    assert _sha256(path) == (
        "b9c113b3481a23b71a0e96aa0eefc63cff2254347f2f4835ee07e8fb707153ac"
    )
    # Every one of the 2^9 keys, over several chunks, each evolution
    # holding up to 1024 of them: the batch budget of 2^14 amplitudes over
    # a key's bound of 4^2, one factor d per door opening.
    assert sum(map(len, batches)) == 512 and len(batches) > 2
    config = ProtocolConfig(d=4, n=5, m=2, approvals=(True, True), seed=2024)
    assert protocols._batch_capacity("a", config) == 1024


def test_protocol_a_transcripts_declining_validator(tmp_path):
    path = _batch(
        tmp_path, "a", "a3.jsonl",
        d=5, n=3, m=3, approvals=(True, False, True), seed=2024, rounds=600,
    )
    assert _sha256(path) == (
        "105f3a66ba9bc26fb89583cfb93088af56d7fc6effdf6cf491eaaecf62bc5ecb"
    )


# The protocol batches pinned above, as (protocol, config fields).
PINNED_BATCHES = [
    ("b", dict(d=5, n=4, m=3, approvals=(True, True, True), seed=9090, rounds=200)),
    ("b", dict(d=5, n=4, m=3, approvals=(True, True, True), seed=9090, rounds=1000)),
    ("b", dict(d=5, n=4, m=3, approvals=(False, True, True), seed=9090, rounds=1000)),
    ("b", dict(d=3, n=2, m=1, approvals=(True,), seed=9090, rounds=1000)),
    ("b", dict(d=4, n=3, m=2, approvals=(True, False), seed=9090, rounds=500)),
    ("a", dict(d=4, n=2, m=2, approvals=(True, True), seed=7, rounds=250)),
    ("a", dict(d=4, n=2, m=2, approvals=(True, False), seed=7, rounds=250)),
    ("a", dict(d=4, n=2, m=2, approvals=(True, True), seed=7, rounds=10_000)),
    ("a", dict(d=4, n=5, m=2, approvals=(True, True), seed=2024, rounds=4000)),
    ("a", dict(d=5, n=3, m=3, approvals=(True, False, True), seed=2024, rounds=600)),
]


def test_pinned_batches_serialize_the_same_warm(monkeypatch):
    # A batch that finds its keys in the branch table kept from a batch of
    # another seed, and one that finds all of them kept from itself, must
    # write what a cold batch writes.
    batches = record_evolutions(monkeypatch)
    for protocol, fields in PINNED_BATCHES:
        config = ProtocolConfig(**fields)
        protocols._branch_table.cache_clear()
        cold = serialize_transcripts(run_batch(config, protocol).transcripts)
        protocols._branch_table.cache_clear()
        run_batch(replace(config, seed=config.seed + 1), protocol)
        for _ in range(2):
            batches.clear()
            assert serialize_transcripts(run_batch(config, protocol).transcripts) == cold
        assert batches == []


def test_sweep_entangled_qft_d7_m5(tmp_path):
    path = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--scenario", "entangled-qft", "--d", "7", "--m", "5",
        "--with-simulation", "--grid", "101", "--out", str(path),
    ])
    assert code == 0
    assert _sha256(path) == (
        "35361577e4afd8985d47d55790622c9832f86e75fbdf0e45cd2bd9c3c68dcd6e"
    )


def test_reproduce_payoff_curves(tmp_path):
    load_script("reproduce_payoff_curves").run(tmp_path)
    written = {path.name: _sha256(path) for path in tmp_path.glob("*.csv")}
    assert written == REPRODUCE_PINS
