import fcntl
import json
import os
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from sitemapsync import cli
from sitemapsync.codec import serialize_document
from sitemapsync.destination import (
    STATE_FILE_NAME,
    BaselineRequiredError,
    PathMappingError,
    StateError,
    StoreLockedError,
    SyncPolicy,
    audit,
    baseline_sync,
    common_uri_prefix,
    incremental_sync,
    load_state,
    local_path_for_uri,
    save_state,
)
from sitemapsync.model import (
    CapabilityKind,
    ChangeKind,
    DestinationState,
    ResourceEntry,
    ResourceMetadata,
    StateRecord,
    SyncDocument,
)
from sitemapsync.source import SourceConfig, publish_resource_list, scan
from sitemapsync.digests import hash_file

from conftest import FAST_BACKOFF, read_tree, set_tree_mtimes, write_tree

UTC = timezone.utc
T_BASE = datetime(2013, 1, 1, tzinfo=UTC)  # mtime of freshly written fixtures
T0 = datetime(2013, 1, 3, 9, tzinfo=UTC)


@pytest.fixture
def site(tmp_path, http_server):
    """A served source tree: returns (web_root, res_root, handle, res_base)."""
    web = tmp_path / "web"
    res = web / "res"
    res.mkdir(parents=True)
    handle = http_server(web)
    return web, res, handle, handle.url + "res/"


def publish_list(web: Path, res: Path, res_base: str, modified=T0) -> str:
    inv = scan(SourceConfig(res, res_base), taken_at=modified)
    publish_resource_list(inv, modified, web)
    return None  # list URL is <web>/resourcelist.xml; callers use handle.url


def serve_changelist(web: Path, doc: SyncDocument) -> None:
    (web / "changelist.xml").write_bytes(serialize_document(doc))


class TestStatePersistence:
    def test_fresh_path_is_empty_state(self, tmp_path):
        state = load_state(tmp_path / "state.json")
        assert state.records == {} and state.last_sync is None

    def test_save_load_round_trip(self, tmp_path):
        state = DestinationState(
            source_id="http://example.com/resourcelist.xml",
            records={
                "http://example.com/res/a": StateRecord("a", T0, "md5:" + "0" * 32),
            },
            last_sync=T0,
        )
        path = tmp_path / "state.json"
        save_state(state, path)
        assert load_state(path) == state

    def test_truncated_state_file_is_an_error(self, tmp_path):
        state = DestinationState(source_id="x://y/z", records={}, last_sync=T0)
        path = tmp_path / "state.json"
        save_state(state, path)
        raw = path.read_bytes()
        for cut in (1, len(raw) // 3, len(raw) - 2):
            path.write_bytes(raw[:cut])
            with pytest.raises(StateError):
                load_state(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"format_version": 99, "records": {}}))
        with pytest.raises(StateError):
            load_state(path)

    def test_traversal_in_state_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(
            json.dumps(
                {
                    "format_version": 1,
                    "source_id": "http://e/rl.xml",
                    "last_sync": None,
                    "records": {
                        "http://e/a": {
                            "local_path": "../a",
                            "lastmod": "2013-01-03T09:00:00Z",
                            "digest": "md5:" + "0" * 32,
                        }
                    },
                }
            )
        )
        with pytest.raises(StateError):
            load_state(path)

    def test_state_json_is_key_sorted(self, tmp_path):
        state = DestinationState(source_id="http://e/rl.xml", records={}, last_sync=None)
        path = tmp_path / "state.json"
        save_state(state, path)
        data = path.read_text()
        assert data.index('"format_version"') < data.index('"last_sync"') < data.index(
            '"records"'
        ) < data.index('"source_id"')


class TestPathMapping:
    def test_common_prefix_cut_at_segment(self):
        uris = ["http://e.com/res1", "http://e.com/res2"]
        assert common_uri_prefix(uris) == "http://e.com/"

    def test_single_uri_prefix_is_dirname(self):
        assert common_uri_prefix(["http://e.com/a/b.pdf"]) == "http://e.com/a/"

    def test_no_common_authority(self):
        with pytest.raises(PathMappingError):
            common_uri_prefix(["http://a.com/x", "http://b.org/x"])

    def test_segments_percent_decoded(self):
        rel = local_path_for_uri("http://e.com/r%C3%A9s%20um%C3%A9.txt", "http://e.com/")
        assert rel == "rés umé.txt"

    def test_encoded_traversal_rejected(self):
        with pytest.raises(PathMappingError):
            local_path_for_uri("http://e.com/%2e%2e/etc/passwd", "http://e.com/")

    def test_encoded_slash_rejected(self):
        with pytest.raises(PathMappingError):
            local_path_for_uri("http://e.com/a%2Fb", "http://e.com/")


class TestBaseline:
    def test_empty_source_empty_destination(self, site, tmp_path):
        web, res, handle, res_base = site
        publish_list(web, res, res_base)
        store = tmp_path / "store"
        state = load_state(store / "state.json")
        report = baseline_sync(
            handle.url + "resourcelist.xml", store, state, backoff=FAST_BACKOFF
        )
        assert (report.created, report.updated, report.deleted, report.failed) == (0, 0, 0, 0)

    def test_three_resources_into_empty_store(self, site, tmp_path):
        web, res, handle, res_base = site
        write_tree(res, {"a.txt": b"alpha", "b/c.bin": b"beta", "d.pdf": b"gamma"})
        publish_list(web, res, res_base)
        store = tmp_path / "store"
        state = load_state(store / "state.json")
        report = baseline_sync(
            handle.url + "resourcelist.xml", store, state, backoff=FAST_BACKOFF
        )
        assert report.created == 3 and report.failed == 0
        assert report.bytes_transferred == len(b"alpha") + len(b"beta") + len(b"gamma")
        # independent re-hash oracle: stored bytes equal origin bytes
        assert read_tree(store) == read_tree(res)
        for uri, rec in state.records.items():
            algo, hexdigest = rec.digest.split(":")
            assert hash_file(store / rec.local_path, (algo,))[algo] == hexdigest
        assert state.last_sync == T0

    def test_repeat_baseline_is_all_skips(self, site, tmp_path):
        web, res, handle, res_base = site
        write_tree(res, {"a": b"1", "b": b"2", "c": b"3"})
        publish_list(web, res, res_base)
        store = tmp_path / "store"
        state = load_state(store / "state.json")
        url = handle.url + "resourcelist.xml"
        baseline_sync(url, store, state, backoff=FAST_BACKOFF)
        before = read_tree(store)
        report = baseline_sync(url, store, state, backoff=FAST_BACKOFF)
        assert (report.created, report.updated, report.skipped) == (0, 0, 3)
        assert report.bytes_transferred == 0
        assert read_tree(store) == before

    def test_deletes_unlisted_files(self, site, tmp_path):
        web, res, handle, res_base = site
        write_tree(res, {"keep": b"k"})
        publish_list(web, res, res_base)
        store = tmp_path / "store"
        write_tree(store, {"stray.bin": b"zzz", "keep": b"k"})
        state = load_state(store / "state.json")
        report = baseline_sync(
            handle.url + "resourcelist.xml", store, state, backoff=FAST_BACKOFF
        )
        assert report.deleted == 1
        assert not (store / "stray.bin").exists()

    def test_no_delete_policy_keeps_extraneous(self, site, tmp_path):
        web, res, handle, res_base = site
        write_tree(res, {"keep": b"k"})
        publish_list(web, res, res_base)
        store = tmp_path / "store"
        write_tree(store, {"stray.bin": b"zzz"})
        state = load_state(store / "state.json")
        report = baseline_sync(
            handle.url + "resourcelist.xml",
            store,
            state,
            SyncPolicy(apply_deletes=False),
            backoff=FAST_BACKOFF,
        )
        assert report.deleted == 0
        assert (store / "stray.bin").exists()

    def test_partial_failure_keeps_successes(self, site, tmp_path):
        web, res, handle, res_base = site
        write_tree(res, {"ok.txt": b"fine"})
        inv = scan(SourceConfig(res, res_base), taken_at=T0)
        # hand-craft a list with one phantom resource the server cannot deliver
        entries = list(inv.items.values()) + [
            ResourceEntry(res_base + "phantom.bin", T0, ResourceMetadata())
        ]
        entries.sort(key=lambda e: e.uri)
        doc = SyncDocument(CapabilityKind.RESOURCELIST, T0, entries)
        (web / "resourcelist.xml").write_bytes(serialize_document(doc))
        store = tmp_path / "store"
        state = load_state(store / "state.json")
        report = baseline_sync(
            handle.url + "resourcelist.xml", store, state, backoff=FAST_BACKOFF
        )
        assert report.created == 1 and report.failed == 1
        assert (store / "ok.txt").read_bytes() == b"fine"
        assert state.last_sync is None  # not advanced on any failure
        assert res_base + "ok.txt" in state.records

    def test_baseline_via_index(self, site, tmp_path):
        web, res, handle, res_base = site
        write_tree(res, {"a": b"1", "b": b"2"})
        inv = scan(SourceConfig(res, res_base), taken_at=T0)
        entries = [inv.items[uri] for uri in sorted(inv.items)]
        for i, entry in enumerate(entries, start=1):
            member = SyncDocument(CapabilityKind.RESOURCELIST, T0, [entry])
            (web / f"resourcelist-{i}.xml").write_bytes(serialize_document(member))
        index = SyncDocument(
            CapabilityKind.RESOURCELIST_INDEX,
            T0,
            [
                ResourceEntry(handle.url + f"resourcelist-{i}.xml", T0)
                for i in (1, 2)
            ],
        )
        (web / "resourcelist-index.xml").write_bytes(serialize_document(index))
        store = tmp_path / "store"
        state = load_state(store / "state.json")
        report = baseline_sync(
            handle.url + "resourcelist-index.xml", store, state, backoff=FAST_BACKOFF
        )
        assert report.created == 2 and report.failed == 0
        assert read_tree(store) == read_tree(res)

    def test_lastmod_only_list_updates_changed_resource(self, site, tmp_path):
        """Baseline judges a local copy by the same evidence audit uses."""
        web, res, handle, res_base = site
        write_tree(res, {"a.txt": b"old"})

        def publish_lastmod_only(lastmod):
            entry = ResourceEntry(res_base + "a.txt", lastmod)
            doc = SyncDocument(CapabilityKind.RESOURCELIST, lastmod, [entry])
            (web / "resourcelist.xml").write_bytes(serialize_document(doc))

        publish_lastmod_only(T0)
        url = handle.url + "resourcelist.xml"
        store = tmp_path / "store"
        state = load_state(store / "state.json")
        baseline_sync(url, store, state, backoff=FAST_BACKOFF)
        (res / "a.txt").write_bytes(b"new!")
        publish_lastmod_only(T0 + timedelta(hours=1))
        report = baseline_sync(url, store, state, backoff=FAST_BACKOFF)
        assert (report.updated, report.skipped, report.failed) == (1, 0, 0)
        assert (store / "a.txt").read_bytes() == b"new!"
        assert audit(url, store, state, backoff=FAST_BACKOFF).clean

    def test_store_locked(self, site, tmp_path):
        web, res, handle, res_base = site
        publish_list(web, res, res_base)
        store = tmp_path / "store"
        store.mkdir()
        lock_fd = os.open(store / ".resync.lock", os.O_CREAT | os.O_RDWR)
        fcntl.flock(lock_fd, fcntl.LOCK_EX)
        try:
            state = load_state(store / "state.json")
            with pytest.raises(StoreLockedError):
                baseline_sync(
                    handle.url + "resourcelist.xml", store, state, backoff=FAST_BACKOFF
                )
        finally:
            os.close(lock_fd)


class TestIncremental:
    def _baselined(self, site, tmp_path, files):
        web, res, handle, res_base = site
        write_tree(res, files)
        set_tree_mtimes(res, T_BASE)  # records then predate the change entries
        publish_list(web, res, res_base)
        store = tmp_path / "store"
        state = load_state(store / "state.json")
        baseline_sync(handle.url + "resourcelist.xml", store, state, backoff=FAST_BACKOFF)
        return web, res, handle, res_base, store, state

    def test_baseline_required(self, site, tmp_path):
        web, res, handle, res_base = site
        state = DestinationState()
        with pytest.raises(BaselineRequiredError):
            incremental_sync(
                handle.url + "changelist.xml", tmp_path / "store", state, backoff=FAST_BACKOFF
            )

    def test_update_and_delete_applied(self, site, tmp_path):
        """Apply a change list shaped exactly like the two-entry golden one."""
        web, res, handle, res_base, store, state = self._baselined(
            site, tmp_path, {"res2.pdf": b"old body", "res3.tiff": b"tiff bytes"}
        )
        state.last_sync = datetime(2013, 1, 2, 0, 0, 0, tzinfo=UTC)
        # the source then evolves: res2.pdf updated, res3.tiff deleted
        (res / "res2.pdf").write_bytes(b"new body!")
        (res / "res3.tiff").unlink()
        t_upd = datetime(2013, 1, 2, 13, tzinfo=UTC)
        t_del = datetime(2013, 1, 2, 18, tzinfo=UTC)
        doc = SyncDocument(
            CapabilityKind.CHANGELIST,
            datetime(2013, 1, 3, 11, tzinfo=UTC),
            [
                ResourceEntry(
                    res_base + "res2.pdf", t_upd, ResourceMetadata(change=ChangeKind.UPDATED)
                ),
                ResourceEntry(
                    res_base + "res3.tiff", t_del, ResourceMetadata(change=ChangeKind.DELETED)
                ),
            ],
        )
        serve_changelist(web, doc)
        report = incremental_sync(
            handle.url + "changelist.xml", store, state, backoff=FAST_BACKOFF
        )
        assert (report.updated, report.deleted, report.failed) == (1, 1, 0)
        assert (store / "res2.pdf").read_bytes() == b"new body!"
        assert not (store / "res3.tiff").exists()
        assert state.last_sync == datetime(2013, 1, 3, 11, tzinfo=UTC)

    def test_noop_window_all_zeros(self, site, tmp_path):
        web, res, handle, res_base, store, state = self._baselined(site, tmp_path, {"a": b"1"})
        t_old = state.last_sync - timedelta(hours=1)
        doc = SyncDocument(
            CapabilityKind.CHANGELIST,
            state.last_sync,
            [ResourceEntry(res_base + "a", t_old, ResourceMetadata(change=ChangeKind.UPDATED))],
        )
        serve_changelist(web, doc)
        report = incremental_sync(
            handle.url + "changelist.xml", store, state, backoff=FAST_BACKOFF
        )
        assert report == type(report)()  # every field zero / empty

    def test_reapplying_changelist_is_noop(self, site, tmp_path):
        web, res, handle, res_base, store, state = self._baselined(
            site, tmp_path, {"a.bin": b"one", "b.bin": b"two"}
        )
        (res / "a.bin").write_bytes(b"three")
        t1 = T0 + timedelta(hours=1)
        digests = {"md5": hash_file(res / "a.bin", ("md5",))["md5"]}
        doc = SyncDocument(
            CapabilityKind.CHANGELIST,
            t1,
            [
                ResourceEntry(
                    res_base + "a.bin",
                    t1,
                    ResourceMetadata(change=ChangeKind.UPDATED, digests=digests, length=5),
                )
            ],
        )
        serve_changelist(web, doc)
        url = handle.url + "changelist.xml"
        first = incremental_sync(url, store, state, backoff=FAST_BACKOFF)
        assert first.updated == 1
        before = read_tree(store)
        second = incremental_sync(url, store, state, backoff=FAST_BACKOFF)
        assert (second.updated, second.deleted, second.created) == (0, 0, 0)
        assert second.bytes_transferred == 0
        assert read_tree(store) == before

    def test_created_entry_maps_nested_path(self, site, tmp_path):
        web, res, handle, res_base, store, state = self._baselined(
            site, tmp_path, {"a.bin": b"one"}
        )
        write_tree(res, {"deep/new file.dat": b"fresh"})
        t1 = T0 + timedelta(hours=1)
        doc = SyncDocument(
            CapabilityKind.CHANGELIST,
            t1,
            [
                ResourceEntry(
                    res_base + "deep/new%20file.dat",
                    t1,
                    ResourceMetadata(change=ChangeKind.CREATED),
                )
            ],
        )
        serve_changelist(web, doc)
        report = incremental_sync(
            handle.url + "changelist.xml", store, state, backoff=FAST_BACKOFF
        )
        assert report.created == 1
        assert (store / "deep/new file.dat").read_bytes() == b"fresh"

    def test_stale_entry_skipped_unless_stale_wins(self, site, tmp_path):
        web, res, handle, res_base, store, state = self._baselined(
            site, tmp_path, {"a.bin": b"current"}
        )
        uri = res_base + "a.bin"
        rec = state.records[uri]
        state.records[uri] = StateRecord(rec.local_path, T0 + timedelta(days=1), rec.digest)
        state.last_sync = T0 - timedelta(days=1)
        t_entry = T0  # newer than last_sync, older than the local record
        doc = SyncDocument(
            CapabilityKind.CHANGELIST,
            T0 + timedelta(days=2),
            [ResourceEntry(uri, t_entry, ResourceMetadata(change=ChangeKind.UPDATED))],
        )
        serve_changelist(web, doc)
        report = incremental_sync(
            handle.url + "changelist.xml", store, state, backoff=FAST_BACKOFF
        )
        assert report.skipped == 1 and report.updated == 0

        state.last_sync = T0 - timedelta(days=1)
        report = incremental_sync(
            handle.url + "changelist.xml",
            store,
            state,
            SyncPolicy(stale_wins=True),
            backoff=FAST_BACKOFF,
        )
        assert report.updated == 1

    def test_multiple_events_one_uri_single_download(self, site, tmp_path):
        web, res, handle, res_base, store, state = self._baselined(
            site, tmp_path, {"a.bin": b"v0"}
        )
        (res / "a.bin").write_bytes(b"v2-final")
        final_digest = hash_file(res / "a.bin", ("md5",))["md5"]
        t1, t2 = T0 + timedelta(seconds=10), T0 + timedelta(seconds=20)
        doc = SyncDocument(
            CapabilityKind.CHANGELIST,
            T0 + timedelta(minutes=1),
            [
                # the intermediate body no longer exists at the source; only
                # the final entry's digest can be satisfied
                ResourceEntry(
                    res_base + "a.bin",
                    t1,
                    ResourceMetadata(
                        change=ChangeKind.UPDATED, digests={"md5": "1" * 32}, length=2
                    ),
                ),
                ResourceEntry(
                    res_base + "a.bin",
                    t2,
                    ResourceMetadata(
                        change=ChangeKind.UPDATED,
                        digests={"md5": final_digest},
                        length=8,
                    ),
                ),
            ],
        )
        serve_changelist(web, doc)
        report = incremental_sync(
            handle.url + "changelist.xml", store, state, backoff=FAST_BACKOFF
        )
        assert report.updated == 2 and report.failed == 0
        assert (store / "a.bin").read_bytes() == b"v2-final"

    def test_digest_mismatch_retried_once_then_failed(self, site, tmp_path):
        web, res, handle, res_base, store, state = self._baselined(
            site, tmp_path, {"a.bin": b"payload"}
        )
        t1 = T0 + timedelta(hours=1)
        doc = SyncDocument(
            CapabilityKind.CHANGELIST,
            t1,
            [
                ResourceEntry(
                    res_base + "a.bin",
                    t1,
                    ResourceMetadata(change=ChangeKind.UPDATED, digests={"md5": "e" * 32}),
                )
            ],
        )
        serve_changelist(web, doc)
        old_last_sync = state.last_sync
        report = incremental_sync(
            handle.url + "changelist.xml", store, state, backoff=FAST_BACKOFF
        )
        assert report.failed == 1 and report.updated == 0
        assert "mismatch" in report.failures[0][1]
        assert state.last_sync == old_last_sync  # not advanced
        assert (store / "a.bin").read_bytes() == b"payload"  # old copy intact
        assert not list(store.glob(".resync.tmp-*"))

    def test_incremental_via_changelist_index(self, site, tmp_path):
        web, res, handle, res_base, store, state = self._baselined(
            site, tmp_path, {"a.bin": b"v0", "b.bin": b"w0"}
        )
        (res / "a.bin").write_bytes(b"v1")
        (res / "b.bin").write_bytes(b"w1")
        t1, t2 = T0 + timedelta(minutes=1), T0 + timedelta(minutes=2)
        members = [
            SyncDocument(
                CapabilityKind.CHANGELIST,
                t1,
                [ResourceEntry(res_base + "a.bin", t1, ResourceMetadata(change=ChangeKind.UPDATED))],
            ),
            SyncDocument(
                CapabilityKind.CHANGELIST,
                t2,
                [ResourceEntry(res_base + "b.bin", t2, ResourceMetadata(change=ChangeKind.UPDATED))],
            ),
        ]
        for i, member in enumerate(members, start=1):
            (web / f"changelist-{i}.xml").write_bytes(serialize_document(member))
        index = SyncDocument(
            CapabilityKind.CHANGELIST_INDEX,
            t2,
            [ResourceEntry(handle.url + f"changelist-{i}.xml", lastmod=None) for i in (1, 2)],
        )
        (web / "changelist-index.xml").write_bytes(serialize_document(index))
        report = incremental_sync(
            handle.url + "changelist-index.xml", store, state, backoff=FAST_BACKOFF
        )
        assert report.updated == 2 and report.failed == 0
        assert (store / "a.bin").read_bytes() == b"v1"
        assert (store / "b.bin").read_bytes() == b"w1"
        assert state.last_sync == t2

    def test_incremental_equivalence_with_diff(self, site, tmp_path):
        """baseline(A) + sync(diff(A,B)) must equal baseline(B) byte for byte."""
        import random as _random
        import shutil

        from sitemapsync.source import diff_inventories

        rng = _random.Random(31)
        files = {
            rng.choice(["", "p/", "p/q/"]) + f"f{i}.bin": rng.randbytes(rng.randrange(1, 1024))
            for i in range(30)
        }
        web, res, handle, res_base, store, state = self._baselined(site, tmp_path, files)
        old_copy = tmp_path / "old-copy"
        shutil.copytree(res, old_copy)
        old = scan(SourceConfig(old_copy, res_base), taken_at=T_BASE)

        # evolve the served tree in place
        current = sorted(read_tree(res))
        for rel in current:
            roll = rng.random()
            if roll < 0.25:
                (res / rel).unlink()
            elif roll < 0.55:
                (res / rel).write_bytes(rng.randbytes(rng.randrange(1, 1024)))
        for i in range(5):
            write_tree(res, {f"fresh{i}.bin": rng.randbytes(rng.randrange(1, 1024))})
        t1 = T0 + timedelta(hours=2)
        set_tree_mtimes(res, t1)
        new = scan(SourceConfig(res, res_base), taken_at=t1)

        serve_changelist(web, diff_inventories(old, new))
        report = incremental_sync(
            handle.url + "changelist.xml", store, state, backoff=FAST_BACKOFF
        )
        assert report.failed == 0, report.failures
        assert read_tree(store) == read_tree(res)

    def test_delete_prunes_emptied_directories(self, site, tmp_path):
        web, res, handle, res_base, store, state = self._baselined(
            site, tmp_path, {"keep.bin": b"k", "p/q/gone.bin": b"g"}
        )
        t1 = T0 + timedelta(hours=1)
        doc = SyncDocument(
            CapabilityKind.CHANGELIST,
            t1,
            [
                ResourceEntry(
                    res_base + "p/q/gone.bin", t1, ResourceMetadata(change=ChangeKind.DELETED)
                )
            ],
        )
        serve_changelist(web, doc)
        report = incremental_sync(
            handle.url + "changelist.xml", store, state, backoff=FAST_BACKOFF
        )
        assert report.deleted == 1
        assert not (store / "p").exists()
        assert (store / "keep.bin").read_bytes() == b"k"

    def test_created_uri_taking_a_recorded_path_is_rejected(self, site, tmp_path):
        """A later, shorter prefix must not map a new URI onto a stored file."""
        web, res, handle, res_base = site
        write_tree(res, {"d0/a.dat": b"first"})
        set_tree_mtimes(res, T_BASE)
        publish_list(web, res, res_base)
        store = tmp_path / "store"
        state_path = store / STATE_FILE_NAME
        state = load_state(state_path)
        baseline_sync(
            handle.url + "resourcelist.xml", store, state, state_path=state_path,
            backoff=FAST_BACKOFF,
        )
        assert state.records[res_base + "d0/a.dat"].local_path == "a.dat"

        write_tree(res, {"a.dat": b"second"})
        t1 = T0 + timedelta(hours=1)
        doc = SyncDocument(
            CapabilityKind.CHANGELIST,
            t1,
            [ResourceEntry(res_base + "a.dat", t1, ResourceMetadata(change=ChangeKind.CREATED))],
        )
        serve_changelist(web, doc)
        url = handle.url + "changelist.xml"
        with pytest.raises(PathMappingError):
            incremental_sync(url, store, state, state_path=state_path, backoff=FAST_BACKOFF)
        assert cli.main(["sync", "--source", url, "--store", str(store)]) == cli.EXIT_ERROR
        assert (store / "a.dat").read_bytes() == b"first"
        assert load_state(state_path).records.keys() == {res_base + "d0/a.dat"}

    def test_deletes_suppressed_by_policy(self, site, tmp_path):
        web, res, handle, res_base, store, state = self._baselined(
            site, tmp_path, {"a.bin": b"x"}
        )
        t1 = T0 + timedelta(hours=1)
        doc = SyncDocument(
            CapabilityKind.CHANGELIST,
            t1,
            [ResourceEntry(res_base + "a.bin", t1, ResourceMetadata(change=ChangeKind.DELETED))],
        )
        serve_changelist(web, doc)
        report = incremental_sync(
            handle.url + "changelist.xml",
            store,
            state,
            SyncPolicy(apply_deletes=False),
            backoff=FAST_BACKOFF,
        )
        assert report.deleted == 0 and report.skipped == 1
        assert (store / "a.bin").exists()


class TestAudit:
    def _baselined(self, site, tmp_path, files):
        web, res, handle, res_base = site
        write_tree(res, files)
        publish_list(web, res, res_base)
        store = tmp_path / "store"
        state = load_state(store / "state.json")
        baseline_sync(handle.url + "resourcelist.xml", store, state, backoff=FAST_BACKOFF)
        return web, res, handle, res_base, store, state

    def test_clean_after_baseline(self, site, tmp_path):
        web, res, handle, res_base, store, state = self._baselined(
            site, tmp_path, {"a": b"1", "b/c": b"2"}
        )
        report = audit(handle.url + "resourcelist.xml", store, state, backoff=FAST_BACKOFF)
        assert report.clean and report.in_sync == 2
        assert report.missing == [] and report.stale == [] and report.extraneous == []

    def test_single_byte_corruption_is_stale(self, site, tmp_path):
        web, res, handle, res_base, store, state = self._baselined(
            site, tmp_path, {"a": b"payload", "b": b"other"}
        )
        body = bytearray((store / "a").read_bytes())
        body[0] ^= 0xFF
        (store / "a").write_bytes(bytes(body))
        report = audit(handle.url + "resourcelist.xml", store, state, backoff=FAST_BACKOFF)
        assert report.stale == [res_base + "a"]
        assert report.missing == [] and report.extraneous == []
        assert report.in_sync == 1

    def test_single_deletion_is_missing(self, site, tmp_path):
        web, res, handle, res_base, store, state = self._baselined(
            site, tmp_path, {"a": b"payload", "b": b"other"}
        )
        (store / "b").unlink()
        report = audit(handle.url + "resourcelist.xml", store, state, backoff=FAST_BACKOFF)
        assert report.missing == [res_base + "b"]
        assert report.stale == [] and report.extraneous == []

    def test_extraneous_file_detected(self, site, tmp_path):
        web, res, handle, res_base, store, state = self._baselined(
            site, tmp_path, {"a": b"payload"}
        )
        write_tree(store, {"stray.bin": b"zzz"})
        report = audit(handle.url + "resourcelist.xml", store, state, backoff=FAST_BACKOFF)
        assert report.extraneous == [res_base + "stray.bin"]
        assert report.in_sync == 1

    def test_extraneous_record_detected(self, site, tmp_path):
        web, res, handle, res_base, store, state = self._baselined(
            site, tmp_path, {"a": b"payload"}
        )
        # a record for a URI the source no longer lists
        state.records[res_base + "ghost"] = StateRecord("ghost", T0, "md5:" + "0" * 32)
        report = audit(handle.url + "resourcelist.xml", store, state, backoff=FAST_BACKOFF)
        assert report.extraneous == [res_base + "ghost"]

    def test_partition_invariant(self, site, tmp_path):
        web, res, handle, res_base, store, state = self._baselined(
            site, tmp_path, {"a": b"1", "b": b"2", "c": b"3"}
        )
        body = bytearray((store / "a").read_bytes())
        body[0] ^= 1
        (store / "a").write_bytes(bytes(body))
        (store / "b").unlink()
        write_tree(store, {"stray": b"s"})
        report = audit(handle.url + "resourcelist.xml", store, state, backoff=FAST_BACKOFF)
        listed = 3
        assert report.in_sync + len(report.missing) + len(report.stale) == listed
        assert set(report.missing) | set(report.stale) | set(report.extraneous) == {
            res_base + "a",
            res_base + "b",
            res_base + "stray",
        }

    def test_audit_does_not_mutate(self, site, tmp_path):
        web, res, handle, res_base, store, state = self._baselined(
            site, tmp_path, {"a": b"1"}
        )
        (store / "a").unlink()
        before = read_tree(store)
        audit(handle.url + "resourcelist.xml", store, state, backoff=FAST_BACKOFF)
        assert read_tree(store) == before

    def test_length_evidence_without_digest(self, site, tmp_path):
        web, res, handle, res_base = site
        write_tree(res, {"a": b"12345"})
        # list carries only length, no digests
        doc = SyncDocument(
            CapabilityKind.RESOURCELIST,
            T0,
            [ResourceEntry(res_base + "a", T0, ResourceMetadata(length=5))],
        )
        (web / "resourcelist.xml").write_bytes(serialize_document(doc))
        store = tmp_path / "store"
        state = load_state(store / "state.json")
        baseline_sync(handle.url + "resourcelist.xml", store, state, backoff=FAST_BACKOFF)
        (store / "a").write_bytes(b"123456789")
        report = audit(handle.url + "resourcelist.xml", store, state, backoff=FAST_BACKOFF)
        assert report.stale == [res_base + "a"]
