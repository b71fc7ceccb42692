import hashlib
import os
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from sitemapsync.model import (
    CapabilityKind,
    ChangeKind,
    Inventory,
    ResourceEntry,
    ResourceMetadata,
)
from sitemapsync.source import (
    ChangeLog,
    SourceConfig,
    changelist_window_name,
    diff_inventories,
    emit_changelists,
    generate_resource_list,
    publish_changelists,
    scan,
)
from sitemapsync.codec import parse_document

from conftest import read_tree, write_tree

UTC = timezone.utc
BASE = "http://example.com/"

# Frozen oracle values computed with coreutils md5sum.
MD5_HI = "49f68a5c8493ec2c0bf489821c21fc3b"
MD5_BYTES_012 = "b95f67f61ebb03619622d798f45fc2d3"
SHA256_HI = "8f434346648f6b96df89dda901c5176b10a6d83961dd3c1ac88b59b2dc327aa4"


def _config(root, **kwargs):
    return SourceConfig(root_dir=Path(root), base_uri=BASE, **kwargs)


class TestScan:
    def test_empty_directory(self, tmp_path):
        inv = scan(_config(tmp_path))
        assert inv.items == {}

    def test_two_files_with_frozen_digests(self, tmp_path):
        write_tree(tmp_path, {"a.txt": b"hi", "sub/b.bin": b"\x00\x01\x02"})
        inv = scan(_config(tmp_path))
        assert sorted(inv.items) == [BASE + "a.txt", BASE + "sub/b.bin"]
        a = inv.items[BASE + "a.txt"]
        b = inv.items[BASE + "sub/b.bin"]
        assert a.metadata.length == 2 and b.metadata.length == 3
        assert a.metadata.digests["md5"] == MD5_HI
        assert b.metadata.digests["md5"] == MD5_BYTES_012
        assert a.metadata.mime_type == "text/plain"
        assert b.metadata.mime_type == "application/octet-stream"
        assert a.lastmod is not None

    def test_multiple_digest_algorithms(self, tmp_path):
        write_tree(tmp_path, {"a.txt": b"hi"})
        inv = scan(_config(tmp_path, digest_algorithms=("md5", "sha-256")))
        digests = inv.items[BASE + "a.txt"].metadata.digests
        assert digests == {"md5": MD5_HI, "sha-256": SHA256_HI}

    def test_unicode_names_percent_encoded(self, tmp_path):
        write_tree(tmp_path, {"rés umé.txt": b"x"})
        inv = scan(_config(tmp_path))
        assert list(inv.items) == [BASE + "r%C3%A9s%20um%C3%A9.txt"]

    def test_exclude_patterns(self, tmp_path):
        write_tree(tmp_path, {"keep.txt": b"k", "skip.tmp": b"s", "sub/other.tmp": b"o"})
        inv = scan(_config(tmp_path, exclude_patterns=("*.tmp",)))
        assert list(inv.items) == [BASE + "keep.txt"]

    def test_deterministic_up_to_taken_at(self, tmp_path):
        write_tree(tmp_path, {"a": b"1", "b/c": b"2", "b/d": b"3"})
        t = datetime(2013, 1, 1, tzinfo=UTC)
        assert scan(_config(tmp_path), taken_at=t) == scan(_config(tmp_path), taken_at=t)

    def test_base_uri_must_end_with_slash(self, tmp_path):
        with pytest.raises(ValueError):
            scan(SourceConfig(root_dir=tmp_path, base_uri="http://example.com"))

    def test_missing_root(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            scan(_config(tmp_path / "nope"))


def _synthetic_inventory(n: int) -> Inventory:
    t = datetime(2013, 1, 1, tzinfo=UTC)
    items = {}
    for i in range(n):
        uri = f"{BASE}r{i:07d}"
        items[uri] = ResourceEntry(
            uri, t, ResourceMetadata(digests={"md5": "%032x" % i}, length=i)
        )
    return Inventory(base_uri=BASE, items=items, taken_at=t)


class TestGenerateResourceList:
    def test_small_inventory_single_document(self, tmp_path):
        write_tree(tmp_path, {"res1": b"one", "res2": b"two"})
        inv = scan(_config(tmp_path))
        modified = datetime(2013, 1, 3, 9, tzinfo=UTC)
        docs = generate_resource_list(inv, modified)
        assert len(docs) == 1
        doc = docs[0]
        assert doc.capability == CapabilityKind.RESOURCELIST
        assert doc.modified == modified
        assert [e.uri for e in doc.entries] == [BASE + "res1", BASE + "res2"]
        assert all(e.metadata.digests for e in doc.entries)

    def test_empty_inventory(self):
        docs = generate_resource_list(
            _synthetic_inventory(0), datetime(2013, 1, 3, 9, tzinfo=UTC)
        )
        assert len(docs) == 1 and docs[0].entries == []

    def test_partitioning_120001(self):
        # ceiling(120001 / 50000) == 3 members plus one index
        inv = _synthetic_inventory(120_001)
        docs = generate_resource_list(inv, datetime(2013, 1, 3, 9, tzinfo=UTC))
        members, index = docs[:-1], docs[-1]
        assert len(members) == 3
        assert index.capability == CapabilityKind.RESOURCELIST_INDEX
        assert [len(m.entries) for m in members] == [50_000, 50_000, 20_001]
        concatenated = [e.uri for m in members for e in m.entries]
        assert concatenated == sorted(inv.items)
        assert [e.uri for e in index.entries] == [
            BASE + f"resourcelist-{i}.xml" for i in (1, 2, 3)
        ]


def _brute_force_diff(old_root: Path, new_root: Path):
    """Independent oracle: compare trees via raw os.walk + hashlib."""

    def digest_map(root):
        out = {}
        for dirpath, _, filenames in os.walk(root):
            for name in filenames:
                p = Path(dirpath) / name
                out[p.relative_to(root).as_posix()] = hashlib.md5(p.read_bytes()).hexdigest()
        return out

    old, new = digest_map(old_root), digest_map(new_root)
    created = sorted(set(new) - set(old))
    deleted = sorted(set(old) - set(new))
    updated = sorted(rel for rel in set(old) & set(new) if old[rel] != new[rel])
    return created, updated, deleted


def _apply_changelist_to_tree(doc, target_root: Path, source_root: Path, base_uri: str):
    """Independent applecart: create/overwrite/delete per entry against raw files."""
    for entry in doc.entries:
        rel = entry.uri[len(base_uri):]
        dest = target_root / rel
        if entry.metadata.change == ChangeKind.DELETED:
            dest.unlink()
        else:
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_bytes((source_root / rel).read_bytes())


class TestDiffInventories:
    def test_identity_diff_is_empty(self, tmp_path):
        write_tree(tmp_path, {"a": b"1", "b": b"2"})
        inv = scan(_config(tmp_path))
        doc = diff_inventories(inv, inv)
        assert doc.capability == CapabilityKind.CHANGELIST
        assert doc.entries == []

    def test_three_way_example(self, tmp_path):
        old_root, new_root = tmp_path / "old", tmp_path / "new"
        write_tree(old_root, {"res1": b"gone", "res2": b"before"})
        write_tree(new_root, {"res2": b"after!", "res3": b"fresh"})
        old = scan(_config(old_root), taken_at=datetime(2013, 1, 2, tzinfo=UTC))
        new = scan(_config(new_root), taken_at=datetime(2013, 1, 3, tzinfo=UTC))
        doc = diff_inventories(old, new)
        by_kind = {
            kind: sorted(e.uri for e in doc.entries if e.metadata.change == kind)
            for kind in ChangeKind
        }
        created, updated, deleted = _brute_force_diff(old_root, new_root)
        assert by_kind[ChangeKind.CREATED] == [BASE + rel for rel in created]
        assert by_kind[ChangeKind.UPDATED] == [BASE + rel for rel in updated]
        assert by_kind[ChangeKind.DELETED] == [BASE + rel for rel in deleted]
        deleted_entry = next(e for e in doc.entries if e.metadata.change == ChangeKind.DELETED)
        assert deleted_entry.lastmod == new.taken_at

    def test_base_uri_mismatch(self, tmp_path):
        write_tree(tmp_path, {"a": b"1"})
        inv = scan(_config(tmp_path))
        other = scan(
            SourceConfig(root_dir=tmp_path, base_uri="http://other.example.com/")
        )
        with pytest.raises(ValueError):
            diff_inventories(inv, other)

    def _random_tree(self, rng, root: Path, n_max=25):
        files = {}
        for i in range(rng.randrange(0, n_max)):
            rel = rng.choice(["", "sub/", "sub/deep/"]) + f"f{i}.dat"
            files[rel] = rng.randbytes(rng.randrange(0, 512))
        write_tree(root, files)
        root.mkdir(exist_ok=True)
        return files

    def test_diff_apply_round_trip_random_trees(self, tmp_path):
        rng = random.Random(2024)
        for trial in range(15):
            a_root = tmp_path / f"a{trial}"
            b_root = tmp_path / f"b{trial}"
            a_files = self._random_tree(rng, a_root)
            # b evolves from a: drop some, mutate some, add some
            b_files = {
                rel: body for rel, body in a_files.items() if rng.random() > 0.3
            }
            for rel in list(b_files):
                if rng.random() < 0.4:
                    b_files[rel] = rng.randbytes(rng.randrange(0, 512))
            for i in range(rng.randrange(0, 6)):
                b_files[f"new{i}.dat"] = rng.randbytes(rng.randrange(0, 512))
            write_tree(b_root, b_files)
            b_root.mkdir(exist_ok=True)

            t0 = datetime(2013, 1, 1, tzinfo=UTC)
            doc = diff_inventories(
                scan(_config(a_root), taken_at=t0),
                scan(_config(b_root), taken_at=t0 + timedelta(hours=1)),
            )
            _apply_changelist_to_tree(doc, a_root, b_root, BASE)
            assert read_tree(a_root) == read_tree(b_root), f"trial {trial} diverged"

    def test_antisymmetry_of_created_and_deleted(self, tmp_path):
        rng = random.Random(7)
        a_root, b_root = tmp_path / "a", tmp_path / "b"
        self._random_tree(rng, a_root)
        self._random_tree(rng, b_root)
        t = datetime(2013, 1, 1, tzinfo=UTC)
        inv_a = scan(_config(a_root), taken_at=t)
        inv_b = scan(_config(b_root), taken_at=t)
        ab = diff_inventories(inv_a, inv_b)
        ba = diff_inventories(inv_b, inv_a)
        created_ab = {e.uri for e in ab.entries if e.metadata.change == ChangeKind.CREATED}
        deleted_ba = {e.uri for e in ba.entries if e.metadata.change == ChangeKind.DELETED}
        assert created_ab == deleted_ba


class TestChangeLog:
    def _meta(self):
        return ResourceMetadata(digests={"md5": "0" * 32}, length=1)

    def test_out_of_order_append_rejected(self):
        log = ChangeLog()
        t = datetime(2013, 1, 1, 12, tzinfo=UTC)
        log.append(t, BASE + "a", ChangeKind.CREATED, self._meta())
        with pytest.raises(ValueError):
            log.append(t - timedelta(seconds=1), BASE + "b", ChangeKind.CREATED, self._meta())

    def test_save_load_round_trip(self, tmp_path):
        log = ChangeLog()
        t = datetime(2013, 1, 1, 12, tzinfo=UTC)
        log.append(t, BASE + "a", ChangeKind.CREATED, self._meta())
        log.append(t + timedelta(seconds=5), BASE + "b%20c", ChangeKind.DELETED)
        path = tmp_path / "log.tsv"
        log.save(path)
        loaded = ChangeLog.load(path)
        assert [(r.instant, r.uri, r.change) for r in loaded.records] == [
            (r.instant, r.uri, r.change) for r in log.records
        ]
        assert loaded.records[0].metadata.digests == {"md5": "0" * 32}
        assert loaded.records[1].metadata.digests == {}

    def test_digest_without_label_rejected_on_load(self, tmp_path):
        path = tmp_path / "log.tsv"
        path.write_text(f"2013-01-01T12:00:07Z\tupdated\t{BASE}a\tmd5\t1\n")
        with pytest.raises(ValueError):
            ChangeLog.load(path)

    def test_line_format(self, tmp_path):
        log = ChangeLog()
        log.append(
            datetime(2013, 1, 1, 12, 0, 7, tzinfo=UTC), BASE + "a", ChangeKind.UPDATED, self._meta()
        )
        path = tmp_path / "log.tsv"
        log.save(path)
        line = path.read_text().rstrip("\n")
        assert line == f"2013-01-01T12:00:07Z\tupdated\t{BASE}a\tmd5:{'0' * 32}\t1"


class TestEmitChangelists:
    def _event(self, log, day, hour, name, kind=ChangeKind.UPDATED):
        log.append(
            datetime(2013, 1, day, hour, tzinfo=UTC),
            BASE + name,
            kind,
            ResourceMetadata(digests={"md5": "0" * 32}, length=0),
        )

    def test_empty_log(self):
        assert emit_changelists(ChangeLog(), 86_400) == []

    def test_daily_bucketing(self):
        log = ChangeLog()
        for hour, name in ((1, "a"), (5, "b"), (9, "c")):
            self._event(log, 1, hour, name)
        for hour, name in ((2, "d"), (3, "e")):
            self._event(log, 2, hour, name)
        docs = emit_changelists(log, 86_400)
        assert [len(d.entries) for d in docs] == [3, 2]
        assert docs[0].modified == datetime(2013, 1, 1, 23, 59, 59, tzinfo=UTC)
        assert docs[1].modified == datetime(2013, 1, 2, 23, 59, 59, tzinfo=UTC)
        assert all(d.capability == CapabilityKind.CHANGELIST for d in docs)

    def test_successive_changes_to_one_uri_kept(self):
        log = ChangeLog()
        self._event(log, 1, 1, "same", ChangeKind.CREATED)
        self._event(log, 1, 2, "same", ChangeKind.UPDATED)
        (doc,) = emit_changelists(log, 86_400)
        assert [e.uri for e in doc.entries] == [BASE + "same"] * 2
        assert [e.metadata.change for e in doc.entries] == [
            ChangeKind.CREATED,
            ChangeKind.UPDATED,
        ]

    def test_window_names(self):
        assert (
            changelist_window_name(datetime(2013, 1, 2, tzinfo=UTC), 86_400)
            == "changelist-2013-01-02.xml"
        )
        assert (
            changelist_window_name(datetime(2013, 1, 2, 0, 0, 10, tzinfo=UTC), 10)
            == "changelist-20130102T000010Z.xml"
        )


class TestPublishChangelists:
    def test_only_closed_windows_published(self, tmp_path):
        log = ChangeLog()
        t0 = datetime(2013, 1, 1, tzinfo=UTC)
        meta = ResourceMetadata(digests={"md5": "0" * 32}, length=0)
        log.append(t0 + timedelta(seconds=2), BASE + "a", ChangeKind.UPDATED, meta)
        log.append(t0 + timedelta(seconds=12), BASE + "b", ChangeKind.UPDATED, meta)
        # now is inside the second window: only the first has closed
        publish_changelists(log, 10, tmp_path, now=t0 + timedelta(seconds=15))
        current = parse_document((tmp_path / "changelist.xml").read_bytes())
        assert [e.uri for e in current.entries] == [BASE + "a"]
        assert (tmp_path / "changelist-20130101T000000Z.xml").exists()
        assert not (tmp_path / "changelist-20130101T000010Z.xml").exists()

    def test_no_closed_window_yields_empty_noop_list(self, tmp_path):
        log = ChangeLog()
        t0 = datetime(2013, 1, 1, tzinfo=UTC)
        log.append(
            t0 + timedelta(seconds=2),
            BASE + "a",
            ChangeKind.UPDATED,
            ResourceMetadata(digests={"md5": "0" * 32}, length=0),
        )
        publish_changelists(log, 10, tmp_path, now=t0 + timedelta(seconds=5))
        current = parse_document((tmp_path / "changelist.xml").read_bytes())
        assert current.entries == []
        assert current.modified < t0
