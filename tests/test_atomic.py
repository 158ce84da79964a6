"""The shared atomic writer: publish, failure cleanup, torn writes."""

import os

import pytest

from repro import atomic
from repro.atomic import atomic_write
from repro.flow.checkpoint import FlowCheckpointer


def test_publishes_and_leaves_no_tmp(tmp_path):
    target = tmp_path / "sub" / "record.json"
    atomic_write(target, b"first")
    atomic_write(target, b"second")
    assert target.read_bytes() == b"second"
    assert sorted(p.name for p in target.parent.iterdir()) == ["record.json"]


def test_failed_write_unlinks_its_tmp(tmp_path):
    target = tmp_path / "occupied"
    target.mkdir()  # os.replace of a file onto a directory fails
    with pytest.raises(OSError):
        atomic_write(target, b"payload")
    assert target.is_dir()
    assert list(tmp_path.iterdir()) == [target]


def test_torn_write_leaves_truncated_tmp_and_published_file(tmp_path):
    target = tmp_path / "record.json"
    atomic_write(target, b"0123456789")
    with pytest.raises(OSError, match="torn write"):
        atomic_write(target, b"abcdefghij", torn=True)
    assert target.read_bytes() == b"0123456789"
    (torn,) = tmp_path.glob(".record.json.*.tmp")
    assert torn.read_bytes() == b"abcde"


@pytest.fixture
def renamed(monkeypatch):
    """The tmp path of every rename ``atomic_write`` makes."""
    seen = []
    real_replace = os.replace

    def recording_replace(src, dst):
        seen.append(os.fspath(src))
        real_replace(src, dst)

    monkeypatch.setattr(atomic.os, "replace", recording_replace)
    return seen


def test_tmp_names_are_unique_per_write(tmp_path, renamed):
    for _ in range(3):
        atomic_write(tmp_path / "same.pkl", b"x")
    assert len(set(renamed)) == 3
    assert all(f".same.pkl.{os.getpid()}." in name for name in renamed)


def test_checkpointer_writes_through_unique_tmp_names(tmp_path, renamed):
    """Checkpoint writes use writer-unique tmp names, never a shared
    ``<name>.tmp`` that two writers could truncate under each other."""
    checkpointer = FlowCheckpointer(tmp_path / "ckpt", key="k")
    checkpointer.save_stage("parse", {"a": 1}, 1.0, "parsed")
    checkpointer.save_job("synth_rt0", [1, 2])
    assert len(renamed) == 3  # stage payload, manifest, job payload
    assert not any(name.endswith((".pkl.tmp", ".json.tmp")) for name in renamed)
    assert checkpointer.load_stage("parse")[0] == {"a": 1}
    assert not list((tmp_path / "ckpt").rglob("*.tmp"))
