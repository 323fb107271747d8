"""Cache integrity: stamping, verification, quarantine, recompute.

Also covers the provenance-side equivalence helpers
(:func:`repro.provenance.payload_fingerprint` and friends) the chaos
harness uses to compare faulty runs against fault-free baselines.
"""

import json

import pytest

from repro.exec.integrity import (
    QUARANTINE_DIRNAME,
    atomic_write_json,
    load_verified_json,
    payload_checksum,
    stamp_integrity,
    verify_payload,
)
from repro.provenance import (
    payload_fingerprint,
    payloads_equivalent,
    strip_volatile,
)
from repro.schema import PROVENANCE


def test_stamp_verify_round_trip(tmp_path):
    payload = stamp_integrity({"result": {"x": [1.5, 2.25]}, "name": "fig8"})
    assert verify_payload(payload) == "ok"
    # Survives the indent=2 write → json.load round-trip byte-for-byte.
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    loaded, status = load_verified_json(path, tmp_path)
    assert status == "ok"
    assert loaded == payload


def test_atomic_write_json_bytes(tmp_path):
    """Indented, key-sorted JSON without a trailing newline."""
    payload = {"b": [1.5, None], "a": {"z": 1, "y": "s"}}
    path = tmp_path / "sub" / "entry.json"
    atomic_write_json(path, payload)
    assert path.read_text() == json.dumps(payload, indent=2, sort_keys=True)
    assert [p.name for p in path.parent.iterdir()] == ["entry.json"]


def test_atomic_write_json_failure_keeps_old_file(tmp_path):
    """A payload that fails to serialize leaves the old file and no temp."""
    path = tmp_path / "entry.json"
    atomic_write_json(path, {"version": 1})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        atomic_write_json(path, {"version": 2, "bad": object()})
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []
    assert [p.name for p in tmp_path.iterdir()] == ["entry.json"]


def test_legacy_entries_without_stamp_are_accepted(tmp_path):
    path = tmp_path / "legacy.json"
    path.write_text(json.dumps({"result": 1}))
    loaded, status = load_verified_json(path, tmp_path)
    assert status == "legacy"
    assert loaded == {"result": 1}


def test_tampered_entry_is_quarantined_not_served(tmp_path):
    payload = stamp_integrity({"result": {"detections": 9}})
    payload["result"]["detections"] = 0  # silent bit-flip equivalent
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(payload))
    loaded, status = load_verified_json(path, tmp_path)
    assert loaded is None
    assert status == "quarantined-mismatch"
    assert not path.exists()
    assert (tmp_path / QUARANTINE_DIRNAME / "tampered.json").exists()


def test_undecodable_entry_is_quarantined(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_bytes(b'{"result": \xdf\xdf broken')
    loaded, status = load_verified_json(path, tmp_path)
    assert loaded is None
    assert status == "quarantined-undecodable"
    assert (tmp_path / QUARANTINE_DIRNAME / "garbage.json").exists()


def test_quarantine_keeps_evidence_on_name_collision(tmp_path):
    for _ in range(2):
        path = tmp_path / "dup.json"
        path.write_bytes(b"not json at all")
        load_verified_json(path, tmp_path)
    qdir = tmp_path / QUARANTINE_DIRNAME
    assert (qdir / "dup.json").exists()
    assert (qdir / "dup.json.1").exists()  # evidence is never overwritten


def test_checksum_ignores_its_own_block():
    body = {"a": 1, "b": [2.5, "x"]}
    assert payload_checksum(dict(body)) == payload_checksum(
        stamp_integrity(dict(body))
    )


def test_corrupted_cache_entry_recomputes_transparently(tmp_path):
    """End-to-end: corrupt a real cache entry; the runner quarantines it
    and recomputes an equivalent result instead of serving garbage."""
    from repro.analysis.runner import run_experiment

    first = run_experiment(
        "fig10", overrides={"shots": 120}, cache_dir=tmp_path
    )
    entries = [
        p
        for p in tmp_path.glob("fig10-*.json")
        if QUARANTINE_DIRNAME not in p.parts
    ]
    assert len(entries) == 1
    blob = bytearray(entries[0].read_bytes())
    mid = len(blob) // 2
    blob[mid : mid + 8] = bytes(b ^ 0xFF for b in blob[mid : mid + 8])
    entries[0].write_bytes(bytes(blob))

    second = run_experiment(
        "fig10", overrides={"shots": 120}, cache_dir=tmp_path
    )
    assert not second.cache_hit  # corrupted entry was not served
    assert (tmp_path / QUARANTINE_DIRNAME / entries[0].name).exists()
    assert payloads_equivalent(first.payload, second.payload)
    # And the rewritten entry is clean again.
    third = run_experiment(
        "fig10", overrides={"shots": 120}, cache_dir=tmp_path
    )
    assert third.cache_hit


def test_strip_volatile_removes_nested_noise():
    payload = {
        "result": {"x": 1, "elapsed_seconds": 9.9},
        "provenance": {"git_sha": "abc"},
        "integrity": {"payload_sha256": "ff"},
        "rows": [{"created_unix": 1.0, "y": 2}],
    }
    assert strip_volatile(payload) == {
        "result": {"x": 1},
        "rows": [{"y": 2}],
    }


def test_payload_fingerprint_ignores_provenance_only_diffs():
    a = {"result": {"v": [1, 2.5]}, "provenance": {"git_sha": "aaa"}}
    b = {"result": {"v": [1, 2.5]}, "provenance": {"git_sha": "bbb"}}
    c = {"result": {"v": [1, 2.6]}, "provenance": {"git_sha": "aaa"}}
    assert payload_fingerprint(a) == payload_fingerprint(b)
    assert payloads_equivalent(a, b)
    assert payload_fingerprint(a) != payload_fingerprint(c)
    assert not payloads_equivalent(a, c)


def test_provenance_rule_flags_each_field():
    def problems(block):
        found = []
        PROVENANCE(block, "provenance", found)
        return found

    assert problems(None)
    assert problems({"repro_version": ""})
    good = {
        "repro_version": "1.8.0",
        "git_sha": None,
        "python": "3.11.0",
        "numpy": "1.26.0",
    }
    assert problems(good) == []
