import hashlib
import os
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path, PurePath

import pytest

from sitemapsync import simulator, source

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
    generate_resource_list,
    local_path_for_uri,
    mime_type_for,
    publish_changelists,
    publish_resource_list,
    scan,
    web_root_uri,
)
from sitemapsync.codec import parse_document
from sitemapsync.transport import fetch

from conftest import AWKWARD_LISTED, AWKWARD_TREE, read_tree, set_tree_mtimes, write_tree

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

    def test_symlinked_file_and_directory_not_listed(self, tmp_path):
        root, outside = tmp_path / "root", tmp_path / "outside"
        write_tree(root, {"a.txt": b"a", "sub/b.txt": b"b"})
        write_tree(outside, {"c.txt": b"c"})
        (root / "link.txt").symlink_to(root / "a.txt")
        (root / "linkdir").symlink_to(outside, target_is_directory=True)
        (root / "sub" / "loop").symlink_to(root / "sub", target_is_directory=True)
        inv = scan(_config(root))
        assert list(inv.items) == [BASE + "a.txt", BASE + "sub/b.txt"]

    def test_every_listed_uri_maps_back_and_is_served(self, tmp_path, http_server):
        """A source never lists a name the URI<->path rule rejects."""
        write_tree(tmp_path / "res", AWKWARD_TREE)
        base = http_server(tmp_path).url + "res/"
        inv = scan(SourceConfig(tmp_path / "res", base))
        rels = {uri: local_path_for_uri(uri, base) for uri in inv.items}
        assert sorted(rels.values()) == AWKWARD_LISTED
        for uri, rel in rels.items():
            assert fetch(uri).body == AWKWARD_TREE[rel]

    def test_name_that_is_not_utf8_is_skipped(self, tmp_path):
        write_tree(tmp_path, {"a.txt": b"hi"})
        for name in (b"\xff", b"d\xe9/b.txt"):
            path = os.path.join(os.fsencode(tmp_path), name)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(b"x")
        assert list(scan(_config(tmp_path)).items) == [BASE + "a.txt"]

    def test_nested_tree_sorted_with_digests_lengths_and_whole_second_lastmod(self, tmp_path):
        files = {"e": b"eeee", "a/d": b"dd", "a/b/c": b"c"}
        write_tree(tmp_path, files)
        mtime_ns = 1_357_000_000_700_000_000  # 0.7 s past a whole second
        for rel in files:
            os.utime(tmp_path / rel, ns=(mtime_ns, mtime_ns))
        inv = scan(_config(tmp_path))
        assert list(inv.items) == [BASE + "a/b/c", BASE + "a/d", BASE + "e"]
        for rel, body in files.items():
            entry = inv.items[BASE + rel]
            assert entry.metadata.digests == {"md5": hashlib.md5(body).hexdigest()}
            assert entry.metadata.length == len(body)
            assert entry.lastmod == datetime.fromtimestamp(1_357_000_000, tz=UTC)

    def test_exclude_pattern_matches_relative_posix_path(self, tmp_path):
        write_tree(tmp_path, {"e": b"1", "a/d": b"2", "a/b/c": b"3"})
        inv = scan(_config(tmp_path, exclude_patterns=("a/b/*",)))
        assert list(inv.items) == [BASE + "a/d", BASE + "e"]


class TestDigestCache:
    """``scan`` reuses, from the memo its caller keeps, the digests of settled
    files whose stat is unchanged."""

    T = datetime(2013, 1, 1, tzinfo=UTC)

    @pytest.fixture
    def hashed(self, monkeypatch):
        calls = []
        real = source.hash_file

        def counting(path, algorithms):
            calls.append(os.path.basename(path))
            return real(path, algorithms)

        monkeypatch.setattr(source, "hash_file", counting)
        return calls

    @pytest.fixture
    def settled(self, monkeypatch):
        # Every file written before a scan starts counts as settled.
        monkeypatch.setattr(source, "RACY_MARGIN_NS", 0)

    def test_settled_unchanged_tree_is_not_hashed_again(self, tmp_path, hashed, settled):
        write_tree(tmp_path, {"a.txt": b"hi", "d/b.bin": b"\x00\x01\x02"})
        memo = {}
        first = scan(_config(tmp_path), taken_at=self.T, memo=memo)
        assert sorted(hashed) == ["a.txt", "b.bin"]
        hashed.clear()
        assert scan(_config(tmp_path), taken_at=self.T, memo=memo) == first
        assert hashed == []

    def test_one_changed_file_is_hashed_once(self, tmp_path, hashed, settled):
        write_tree(tmp_path, {"a.txt": b"hi", "b.txt": b"ho", "c.txt": b"hu"})
        memo = {}
        scan(_config(tmp_path), memo=memo)
        hashed.clear()
        (tmp_path / "b.txt").write_bytes(b"hey")
        inv = scan(_config(tmp_path), memo=memo)
        assert hashed == ["b.txt"]
        assert inv.items[BASE + "b.txt"].metadata.digests["md5"] == hashlib.md5(b"hey").hexdigest()
        assert inv.items[BASE + "a.txt"].metadata.digests["md5"] == MD5_HI

    def test_same_size_rewrite_with_pinned_mtime_within_margin_is_rehashed(
        self, tmp_path, hashed, monkeypatch
    ):
        monkeypatch.setattr(source, "RACY_MARGIN_NS", 3_600 * 10**9)
        path = tmp_path / "a.txt"
        path.write_bytes(b"hi")
        set_tree_mtimes(tmp_path, self.T)
        memo = {}
        scan(_config(tmp_path), memo=memo)
        scan(_config(tmp_path), memo=memo)
        assert hashed == ["a.txt", "a.txt"]  # too recent to be memoized
        assert memo == {(os.path.realpath(tmp_path), ("md5",)): {}}
        path.write_bytes(b"ho")
        set_tree_mtimes(tmp_path, self.T)
        inv = scan(_config(tmp_path), memo=memo)
        assert len(hashed) == 3
        assert inv.items[BASE + "a.txt"].metadata.digests["md5"] == hashlib.md5(b"ho").hexdigest()

    def test_other_algorithms_miss_the_cache(self, tmp_path, hashed, settled):
        write_tree(tmp_path, {"a.txt": b"hi"})
        memo = {}
        scan(_config(tmp_path), memo=memo)
        scan(_config(tmp_path), memo=memo)
        assert hashed == ["a.txt"]
        inv = scan(_config(tmp_path, digest_algorithms=("md5", "sha-256")), memo=memo)
        assert hashed == ["a.txt", "a.txt"]
        assert inv.items[BASE + "a.txt"].metadata.digests == {"md5": MD5_HI, "sha-256": SHA256_HI}

    def test_deleted_file_is_dropped_from_the_cache(self, tmp_path, hashed, settled):
        write_tree(tmp_path, {"a.txt": b"hi", "b.txt": b"ho"})
        memo = {}
        scan(_config(tmp_path), memo=memo)
        key = (os.path.realpath(tmp_path), ("md5",))
        assert sorted(memo[key]) == ["a.txt", "b.txt"]
        (tmp_path / "b.txt").unlink()
        assert sorted(scan(_config(tmp_path), memo=memo).items) == [BASE + "a.txt"]
        assert sorted(memo[key]) == ["a.txt"]

    def test_scan_without_a_memo_hashes_every_file(self, tmp_path, hashed, settled):
        write_tree(tmp_path, {"a.txt": b"hi", "d/b.bin": b"\x00"})
        first = scan(_config(tmp_path), taken_at=self.T)
        assert scan(_config(tmp_path), taken_at=self.T) == first
        assert sorted(hashed) == ["a.txt", "a.txt", "b.bin", "b.bin"]

    def test_memo_of_another_tree_misses(self, tmp_path, hashed, settled):
        write_tree(tmp_path / "A", {"a.txt": b"hi"})
        write_tree(tmp_path / "B", {"a.txt": b"hi"})
        memo = {}
        scan(_config(tmp_path / "A"), memo=memo)
        inv = scan(_config(tmp_path / "B"), memo=memo)
        assert hashed == ["a.txt", "a.txt"]
        assert inv.items[BASE + "a.txt"].metadata.digests == {"md5": MD5_HI}
        assert list(memo) == [(os.path.realpath(tmp_path / "B"), ("md5",))]
        scan(_config(tmp_path / "A"), memo=memo)  # the memo holds only the latest tree
        assert hashed == ["a.txt"] * 3

    def test_each_log_memoizes_only_the_tree_it_publishes(self, tmp_path, hashed, settled):
        sims = [
            simulator.SourceSimulator(
                simulator.SimConfig(seed=k, n_initial=20, event_rate=2.0, duration=10.0),
                tmp_path / f"web{k}" / "res",
                BASE + "res/",
            )
            for k in (1, 2)
        ]

        def publish(sim, now):
            hashed.clear()
            simulator.publish(sim.root_dir, sim.root_dir.parent, BASE + "res/", sim.log, 10, now)
            return sorted(hashed)

        for sim in sims:
            assert len(publish(sim, self.T)) == 20
        for sim in sims:
            assert list(sim.log.digest_memo) == [(os.path.realpath(sim.root_dir), ("md5",))]
            logged = len(sim.log)
            sim.run_to_completion()
            changed = {
                rec.uri.rpartition("/")[2] for rec in sim.log.records[logged:]
                if rec.change != ChangeKind.DELETED
                and (sim.root_dir / rec.uri[len(BASE + "res/"):]).exists()
            }
            assert changed
            assert publish(sim, sim.end_time + timedelta(seconds=10)) == sorted(changed)
            assert list(sim.log.digest_memo) == [(os.path.realpath(sim.root_dir), ("md5",))]


@pytest.mark.parametrize(
    "name", ["a.txt", "A.PDF", "x.tar.gz", "noext", ".txt", "..txt", "a.", "a..png", "."]
)
def test_mime_type_follows_path_suffix(name):
    expected = source._MIME_MAP.get(PurePath(name).suffix.lower(), source._MIME_FALLBACK)
    assert mime_type_for(name) == expected


@pytest.mark.parametrize(
    "rel, base_uri, expected",
    [
        ("res", "http://e.com/site/res/", "http://e.com/site/"),
        ("", "http://e.com/site/", "http://e.com/site/"),
        ("a b/c", "http://e.com/a%20b/c/", "http://e.com/"),
        ("res", "http://e.com/xres/", None),  # suffix must start a path segment
        ("res", "http://e.com/other/", None),
        ("../res", "http://e.com/res/", None),  # resources outside the web root
    ],
)
def test_web_root_uri(tmp_path, rel, base_uri, expected):
    web = tmp_path / "web"
    assert web_root_uri(web / rel, base_uri, web) == expected


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

    def test_item_with_a_change_kind_rejected(self):
        inv = _synthetic_inventory(3)
        inv.items[BASE + "r0000001"].metadata.change = ChangeKind.UPDATED
        with pytest.raises(ValueError, match="change kind"):
            generate_resource_list(inv, datetime(2013, 1, 3, 9, tzinfo=UTC))

    def test_relative_base_uri_rejected(self):
        inv = _synthetic_inventory(0)
        inv.base_uri = "res/"
        with pytest.raises(ValueError, match="not absolute"):
            generate_resource_list(inv, datetime(2013, 1, 3, 9, tzinfo=UTC))

    @pytest.mark.parametrize(
        "list_base_uri", ["relative/", "http://example.com/lists"], ids=["relative", "no_slash"]
    )
    def test_bad_list_base_uri_rejected_before_any_write(
        self, tmp_path, monkeypatch, list_base_uri
    ):
        monkeypatch.setattr(source, "MAX_DOCUMENT_ENTRIES", 2)
        web = tmp_path / "web"
        modified = datetime(2013, 1, 3, 9, tzinfo=UTC)
        with pytest.raises(ValueError, match="list_base_uri"):
            publish_resource_list(_synthetic_inventory(5), modified, web, list_base_uri)
        assert not web.exists()


class TestPublishValidatesNothingAgain:
    """The source publishes what it built from checked data without checking it again."""

    @pytest.mark.parametrize("n_files", [3, 40])
    def test_publishing_a_settled_tree_validates_no_entry(self, tmp_path, monkeypatch, n_files):
        web = tmp_path / "web"
        res = web / "res"
        write_tree(res, {f"d{i % 4}/f{i}.dat": bytes([i]) * i for i in range(n_files)})
        monkeypatch.setattr(source, "RACY_MARGIN_NS", 0)
        t0 = datetime(2013, 1, 1, tzinfo=UTC)
        log = ChangeLog()
        for i in range(n_files):
            meta = ResourceMetadata(digests={"md5": "%032x" % i}, length=i)
            log.append(t0 + timedelta(seconds=i), BASE + f"res/f{i}", ChangeKind.UPDATED, meta)
        calls = []

        def counted(name, real):
            return lambda *args: calls.append(name) or real(*args)

        monkeypatch.setattr(ResourceEntry, "validate", counted("entry", ResourceEntry.validate))
        for k in (1, 2):
            now = t0 + timedelta(seconds=n_files + 10 * k)
            simulator.publish(res, web, BASE + "res/", log, 10, now)
        assert calls == []
        assert len(parse_document((web / "resourcelist.xml").read_bytes()).entries) == n_files


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
        assert loaded.sealed is None

    @pytest.mark.parametrize(
        "uri, digests, length",
        [
            ("a", "md5:" + "0" * 32, "1"),  # relative URI
            (BASE + "a", "md5:" + "0" * 31 + "g", "1"),  # not hex
            (BASE + "a", "md5:" + "0" * 31 + "A", "1"),  # not lowercase
            (BASE + "a", "md5:00", "1"),  # wrong length
            (BASE + "a", "-", "-1"),  # negative length
        ],
        ids=["relative_uri", "not_hex", "uppercase_hex", "short_digest", "negative_length"],
    )
    def test_invalid_event_rejected_on_load(self, tmp_path, uri, digests, length):
        path = tmp_path / "log.tsv"
        path.write_text(f"2013-01-01T12:00:07Z\tupdated\t{uri}\t{digests}\t{length}\n")
        with pytest.raises(ValueError):
            ChangeLog.load(path)

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
    """Daily windows as ``publish_changelists`` emits them once all have closed."""

    def _event(self, log, day, hour, name, kind=ChangeKind.UPDATED):
        log.append(
            datetime(2013, 1, day, hour, tzinfo=UTC),
            BASE + name,
            kind,
            ResourceMetadata(digests={"md5": "0" * 32}, length=0),
        )

    def _windows(self, log, web):
        """The window documents written, in window order."""
        publish_changelists(log, 86_400, web, now=datetime(2013, 1, 3, tzinfo=UTC))
        return [parse_document(p.read_bytes()) for p in sorted(web.glob("changelist-*.xml"))]

    def test_empty_log(self, tmp_path):
        assert self._windows(ChangeLog(), tmp_path) == []
        current = parse_document((tmp_path / "changelist.xml").read_bytes())
        assert current.entries == []
        assert current.modified == datetime(2013, 1, 2, 23, 59, 59, tzinfo=UTC)

    def test_daily_bucketing(self, tmp_path):
        log = ChangeLog()
        for hour, name in ((1, "a"), (5, "b"), (9, "c")):
            self._event(log, 1, hour, name)
        for hour, name in ((2, "d"), (3, "e")):
            self._event(log, 2, hour, name)
        docs = self._windows(log, tmp_path)
        assert [len(d.entries) for d in docs] == [3, 2]
        assert docs[0].modified == datetime(2013, 1, 1, 23, 59, 59, tzinfo=UTC)
        assert docs[1].modified == datetime(2013, 1, 2, 23, 59, 59, tzinfo=UTC)
        assert all(d.capability == CapabilityKind.CHANGELIST for d in docs)

    def test_successive_changes_to_one_uri_kept(self, tmp_path):
        log = ChangeLog()
        self._event(log, 1, 1, "same", ChangeKind.CREATED)
        self._event(log, 1, 2, "same", ChangeKind.UPDATED)
        (doc,) = self._windows(log, tmp_path)
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


class TestPublishWritesEachWindowOnce:
    """A closed window's file is written once; later events join the open window."""

    T0 = datetime(2013, 1, 1, tzinfo=UTC)

    def _append(self, log, *offsets):
        for offset in offsets:
            log.append(
                self.T0 + timedelta(seconds=offset),
                BASE + f"r{offset}",
                ChangeKind.UPDATED,
                ResourceMetadata(digests={"md5": "%032x" % offset}, length=offset),
            )

    def _publish(self, log, web, seconds):
        return publish_changelists(log, 10, web, now=self.T0 + timedelta(seconds=seconds))

    def _window(self, web, offset) -> Path:
        return web / changelist_window_name(self.T0 + timedelta(seconds=offset), 10)

    def _uris(self, path):
        return [e.uri for e in parse_document(path.read_bytes()).entries]

    def test_final_windows_keep_their_files(self, tmp_path):
        log = ChangeLog()
        self._append(log, 1, 12, 23)
        self._publish(log, tmp_path, 30)
        final = [self._window(tmp_path, s) for s in (1, 12)]
        before = [(p.stat().st_ino, p.stat().st_mtime_ns) for p in final]
        self._append(log, 34, 45)
        written = self._publish(log, tmp_path, 50)
        assert [(p.stat().st_ino, p.stat().st_mtime_ns) for p in final] == before
        assert not set(written) & set(final)
        assert self._uris(self._window(tmp_path, 45)) == [BASE + "r45"]

    def test_many_publishes_equal_one_publish_into_empty_dir(self, tmp_path):
        rng = random.Random(5)
        log = ChangeLog()
        web = tmp_path / "web"
        last = 0
        for k in range(1, 41):
            # New events may land in windows that closed before this publish.
            for _ in range(rng.randrange(0, 4)):
                last = rng.randrange(last, 10 * k)
                self._append(log, last)
            self._publish(log, web, 10 * k)
            fresh = tmp_path / f"fresh-{k}"
            self._publish(log, fresh, 10 * k)
            assert read_tree(web) == read_tree(fresh), f"publish {k} differs"

    def _kept(self, path):
        return path.stat().st_ino, path.stat().st_mtime_ns, path.read_bytes()

    def test_late_event_is_restamped_into_next_window(self, tmp_path):
        log = ChangeLog()
        self._append(log, 1, 12)
        self._publish(log, tmp_path, 20)
        assert log.sealed == self.T0 + timedelta(seconds=20)
        sealed = self._window(tmp_path, 12)
        kept = self._kept(sealed)
        self._append(log, 15)  # falls in the published 10-20 s window
        assert log.records[-1].instant == log.sealed
        self._publish(log, tmp_path, 25)
        assert self._kept(sealed) == kept
        self._publish(log, tmp_path, 30)
        assert self._kept(sealed) == kept
        for path in (self._window(tmp_path, 20), tmp_path / "changelist.xml"):
            (entry,) = parse_document(path.read_bytes()).entries
            assert (entry.uri, entry.lastmod) == (BASE + "r15", self.T0 + timedelta(seconds=20))

    def test_sealed_window_is_kept_after_a_late_event(self, tmp_path):
        log = ChangeLog()
        self._append(log, 1, 12)
        self._publish(log, tmp_path, 20)
        sealed = self._window(tmp_path, 12)
        kept = self._kept(sealed)
        # 15 s falls in the published window, 23 s in the open one.
        self._append(log, 15, 23)
        written = self._publish(log, tmp_path, 30)
        assert sealed not in written and self._kept(sealed) == kept
        expected = [BASE + "r15", BASE + "r23"]
        assert self._uris(self._window(tmp_path, 20)) == expected
        assert self._uris(tmp_path / "changelist.xml") == expected

    def test_republish_in_the_same_window_writes_nothing(self, tmp_path):
        log = ChangeLog()
        self._append(log, 1, 12)
        self._publish(log, tmp_path, 20)
        current = tmp_path / "changelist.xml"
        kept = self._kept(current)
        assert self._publish(log, tmp_path, 29) == [current]
        assert self._kept(current) == kept

    def test_publish_before_the_seal_is_rejected(self, tmp_path):
        log = ChangeLog()
        self._append(log, 1, 12)
        self._publish(log, tmp_path, 20)
        kept = self._kept(tmp_path / "changelist.xml")
        with pytest.raises(ValueError, match="sealed"):
            self._publish(log, tmp_path, 19)
        assert self._kept(tmp_path / "changelist.xml") == kept
        assert log.sealed == self.T0 + timedelta(seconds=20)

    def test_seal_is_kept_across_save_and_load(self, tmp_path):
        web = tmp_path / "web"
        log = ChangeLog()
        self._append(log, 1, 12)
        self._publish(log, web, 20)
        log.save(tmp_path / "log.tsv")
        loaded = ChangeLog.load(tmp_path / "log.tsv")
        assert loaded.sealed == self.T0 + timedelta(seconds=20)
        sealed = self._window(web, 12)
        kept = self._kept(sealed)
        self._append(loaded, 15)  # falls in the published 10-20 s window
        self._publish(loaded, web, 30)
        assert self._kept(sealed) == kept
        for path in (self._window(web, 20), web / "changelist.xml"):
            (entry,) = parse_document(path.read_bytes()).entries
            assert (entry.uri, entry.lastmod) == (BASE + "r15", self.T0 + timedelta(seconds=20))

    def test_deleted_window_file_is_written_again(self, tmp_path):
        log = ChangeLog()
        self._append(log, 1, 12, 23)
        self._publish(log, tmp_path, 30)
        first, second = self._window(tmp_path, 1), self._window(tmp_path, 12)
        original = first.read_bytes()
        kept = second.stat().st_ino, second.stat().st_mtime_ns
        first.unlink()
        written = self._publish(log, tmp_path, 30)
        assert first in written and first.read_bytes() == original
        assert (second.stat().st_ino, second.stat().st_mtime_ns) == kept
