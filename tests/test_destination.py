import fcntl
import hashlib
import json
import os
import re
import socket
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from sitemapsync import cli, simulator, source
from sitemapsync.codec import parse_document, serialize_document
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
from sitemapsync.simulator import SimConfig, SourceSimulator
from sitemapsync.source import ChangeLog, SourceConfig, publish_resource_list, scan
from sitemapsync.digests import hash_file

from conftest import (
    AWKWARD_LISTED,
    AWKWARD_TREE,
    assert_trees_equal,
    read_tree,
    set_tree_mtimes,
    write_tree,
)

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


def test_policy_is_checked_when_built():
    with pytest.raises(ValueError, match="max_parallel_transfers must be >= 1"):
        SyncPolicy(max_parallel_transfers=0)


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
        report = baseline_sync(handle.url + "resourcelist.xml", store, state)
        assert (report.created, report.updated, report.deleted, report.failed) == (0, 0, 0, 0)

    def test_three_resources_into_empty_store(self, site, tmp_path):
        web, res, handle, res_base = site
        write_tree(res, {"a.txt": b"alpha", "b/c.bin": b"beta", "d.pdf": b"gamma"})
        publish_list(web, res, res_base)
        store = tmp_path / "store"
        state = load_state(store / "state.json")
        report = baseline_sync(handle.url + "resourcelist.xml", store, state)
        assert report.created == 3 and report.failed == 0
        assert report.bytes_transferred == len(b"alpha") + len(b"beta") + len(b"gamma")
        # independent re-hash oracle: stored bytes equal origin bytes
        assert read_tree(store) == read_tree(res)
        for uri, rec in state.records.items():
            algo, hexdigest = rec.digest.split(":")
            assert hash_file(store / rec.local_path, (algo,))[algo] == hexdigest
        assert state.last_sync == T0

    def test_strongest_listed_digest_is_checked(self, site, tmp_path):
        """An entry listing a right md5 and a wrong sha-256 is judged by sha-256."""
        web, res, handle, res_base = site
        body = b"payload"
        write_tree(res, {"a": body})
        digests = {"md5": hashlib.md5(body).hexdigest(), "sha-256": "0" * 64}
        entry = ResourceEntry(res_base + "a", T0, ResourceMetadata(digests=digests))
        doc = SyncDocument(CapabilityKind.RESOURCELIST, T0, [entry])
        (web / "resourcelist.xml").write_bytes(serialize_document(doc))
        url = handle.url + "resourcelist.xml"
        store = tmp_path / "store"
        state = load_state(store / "state.json")
        report = baseline_sync(url, store, state)
        assert report.failed == 1 and [uri for uri, _ in report.failures] == [res_base + "a"]
        write_tree(store, {"a": body})  # the served bytes, which the md5 alone would pass
        report = audit(url, store, state)
        assert report.stale == [res_base + "a"] and report.in_sync == 0

    def test_repeat_baseline_is_all_skips(self, site, tmp_path):
        web, res, handle, res_base = site
        write_tree(res, {"a": b"1", "b": b"2", "c": b"3"})
        publish_list(web, res, res_base)
        store = tmp_path / "store"
        state = load_state(store / "state.json")
        url = handle.url + "resourcelist.xml"
        baseline_sync(url, store, state)
        before = read_tree(store)
        report = baseline_sync(url, store, state)
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
        report = baseline_sync(handle.url + "resourcelist.xml", store, state)
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
        )
        assert report.deleted == 0
        assert (store / "stray.bin").exists()

    def test_failed_rename_leaves_no_temp_file(self, site, tmp_path):
        web, res, handle, res_base = site
        write_tree(res, {"a.txt": b"alpha", "d0": b"a file"})
        publish_list(web, res, res_base)
        store = tmp_path / "store"
        state = load_state(store / STATE_FILE_NAME)
        url = handle.url + "resourcelist.xml"
        baseline_sync(url, store, state)
        # The file d0 becomes a directory; the kept local file d0 blocks the rename.
        (res / "d0").unlink()
        write_tree(res, {"d0/x.dat": b"under a new directory"})
        publish_list(web, res, res_base)
        for _ in range(2):
            report = baseline_sync(url, store, state, SyncPolicy(apply_deletes=False))
            assert report.failed == 1, report.failures
            assert not list(store.glob(".resync.tmp-*"))

    @pytest.mark.parametrize("server", ["refusing", "serving"])
    def test_failed_download_leaves_no_temp_file(self, site, tmp_path, server):
        """A refused connection or a 404 takes its temp file with it."""
        web, res, handle, res_base = site
        if server == "refusing":
            with socket.socket() as sock:  # a port that was just free and is now closed
                sock.bind(("127.0.0.1", 0))
                res_base = f"http://127.0.0.1:{sock.getsockname()[1]}/res/"
        entry = ResourceEntry(res_base + "phantom.bin", T0, ResourceMetadata())
        doc = SyncDocument(CapabilityKind.RESOURCELIST, T0, [entry])
        (web / "resourcelist.xml").write_bytes(serialize_document(doc))
        store = tmp_path / "store"
        state = load_state(store / STATE_FILE_NAME)
        report = baseline_sync(handle.url + "resourcelist.xml", store, state)
        assert report.failed == 1, report.failures
        assert not list(store.glob(".resync.tmp-*"))
        assert read_tree(store) == {}

    def test_awkward_names_are_all_stored(self, site, tmp_path):
        """Every file a source lists maps into the store; the names it skips
        (reserved, backslash) stop nothing."""
        web, res, handle, res_base = site
        write_tree(res, AWKWARD_TREE)
        publish_list(web, res, res_base)
        url = handle.url + "resourcelist.xml"
        store = tmp_path / "store"
        state = load_state(store / STATE_FILE_NAME)
        report = baseline_sync(url, store, state)
        assert (report.created, report.failed) == (len(AWKWARD_LISTED), 0), report.failures
        assert read_tree(store) == {rel: AWKWARD_TREE[rel] for rel in AWKWARD_LISTED}
        assert audit(url, store, state).clean

    def test_store_symlink_is_not_a_store_file(self, site, tmp_path):
        """A store is its regular files: an extraneous symlink is neither
        reported nor removed."""
        web, res, handle, res_base = site
        write_tree(res, {"a.txt": b"alpha"})
        publish_list(web, res, res_base)
        url = handle.url + "resourcelist.xml"
        store = tmp_path / "store"
        state = load_state(store / STATE_FILE_NAME)
        baseline_sync(url, store, state)
        (store / "link.txt").symlink_to(store / "a.txt")
        (store / "linkdir").symlink_to(res, target_is_directory=True)
        assert audit(url, store, state).clean
        report = baseline_sync(url, store, state)
        assert (report.deleted, report.failed) == (0, 0)
        assert (store / "link.txt").is_symlink() and (store / "linkdir").is_symlink()

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
        report = baseline_sync(handle.url + "resourcelist.xml", store, state)
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
        report = baseline_sync(handle.url + "resourcelist-index.xml", store, state)
        assert report.created == 2 and report.failed == 0
        assert read_tree(store) == read_tree(res)

    def test_partitioned_simulated_source_is_mirrored(self, site, tmp_path, monkeypatch):
        """resourcelist.xml is the index, and its members resolve under the web root."""
        monkeypatch.setattr(source, "MAX_DOCUMENT_ENTRIES", 2)
        web, res, handle, res_base = site
        sim = SourceSimulator(SimConfig(seed=1, n_initial=5, event_rate=0), res, res_base, T0)
        simulator.publish(res, web, res_base, sim.log, 10, now=T0)
        list_url = handle.url + "resourcelist.xml"
        entry = parse_document((web / "resourcelist.xml").read_bytes())
        assert entry.capability == CapabilityKind.RESOURCELIST_INDEX
        assert not (web / "resourcelist-index.xml").exists()
        store = tmp_path / "store"
        state = load_state(store / "state.json")
        report = baseline_sync(list_url, store, state)
        assert report.created == 5 and report.failed == 0
        assert audit(list_url, store, state).clean
        assert_trees_equal(res, store)

    def test_source_grown_past_cap_and_shrunk_back_is_mirrored(self, site, tmp_path, monkeypatch):
        """The entry list never goes stale when the source crosses the cap either way."""
        monkeypatch.setattr(source, "MAX_DOCUMENT_ENTRIES", 4)
        web, res, handle, res_base = site
        list_url = handle.url + "resourcelist.xml"
        store = tmp_path / "store"
        state = load_state(store / "state.json")
        for names in ("abc", "abcdef", "be"):
            for path in res.iterdir():
                path.unlink()
            write_tree(res, {n: f"{n}{len(names)}".encode() for n in names})
            simulator.publish(res, web, res_base, ChangeLog(), 10, now=T0)
            report = baseline_sync(list_url, store, state)
            assert report.failed == 0
            assert audit(list_url, store, state).clean
            assert_trees_equal(res, store)

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
        baseline_sync(url, store, state)
        (res / "a.txt").write_bytes(b"new!")
        publish_lastmod_only(T0 + timedelta(hours=1))
        report = baseline_sync(url, store, state)
        assert (report.updated, report.skipped, report.failed) == (1, 0, 0)
        assert (store / "a.txt").read_bytes() == b"new!"
        assert audit(url, store, state).clean

    @pytest.mark.parametrize("name", [STATE_FILE_NAME, ".resync.lock", "d/.resync-x/a.dat"])
    def test_reserved_names_are_rejected(self, site, tmp_path, name):
        """A listed URI must not take the place of the store's own files.

        ``scan`` never lists such a name, so the list is written by hand, as
        another source could write it."""
        web, res, handle, res_base = site
        write_tree(res, {"a.dat": b"a"})
        entries = [
            ResourceEntry(source.uri_for_relpath(res_base, rel), T0, ResourceMetadata())
            for rel in sorted(["a.dat", name])
        ]
        doc = SyncDocument(CapabilityKind.RESOURCELIST, T0, entries)
        (web / "resourcelist.xml").write_bytes(serialize_document(doc))
        url = handle.url + "resourcelist.xml"
        store = tmp_path / "store"
        state_path = store / STATE_FILE_NAME
        state = load_state(state_path)
        with pytest.raises(PathMappingError, match="unsafe path segment"):
            baseline_sync(url, store, state, state_path=state_path)
        assert read_tree(store) == {}
        assert load_state(state_path).records == {}
        report = audit(url, store, state)
        assert sorted(report.missing) == sorted([res_base + "a.dat", res_base + name])

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
                baseline_sync(handle.url + "resourcelist.xml", store, state)
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
        baseline_sync(handle.url + "resourcelist.xml", store, state)
        return web, res, handle, res_base, store, state

    def test_baseline_required(self, site, tmp_path):
        web, res, handle, res_base = site
        state = DestinationState()
        with pytest.raises(BaselineRequiredError):
            incremental_sync(handle.url + "changelist.xml", tmp_path / "store", state)

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
        report = incremental_sync(handle.url + "changelist.xml", store, state)
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
        report = incremental_sync(handle.url + "changelist.xml", store, state)
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
        first = incremental_sync(url, store, state)
        assert first.updated == 1
        before = read_tree(store)
        second = incremental_sync(url, store, state)
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
        report = incremental_sync(handle.url + "changelist.xml", store, state)
        assert report.created == 1
        assert (store / "deep/new file.dat").read_bytes() == b"fresh"

    def test_newer_dated_record_never_hides_an_update(self, site, tmp_path):
        """The source serves only the latest bytes, so an entry dated before the
        recorded lastmod is applied like any other."""
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
        report = incremental_sync(handle.url + "changelist.xml", store, state)
        assert (report.updated, report.skipped) == (1, 0)

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
        report = incremental_sync(handle.url + "changelist.xml", store, state)
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
        report = incremental_sync(handle.url + "changelist.xml", store, state)
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
        report = incremental_sync(handle.url + "changelist-index.xml", store, state)
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
        report = incremental_sync(handle.url + "changelist.xml", store, state)
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
        report = incremental_sync(handle.url + "changelist.xml", store, state)
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
        baseline_sync(handle.url + "resourcelist.xml", store, state, state_path=state_path)
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
            incremental_sync(url, store, state, state_path=state_path)
        assert cli.main(["sync", "--source", url, "--store", str(store)]) == cli.EXIT_ERROR
        assert (store / "a.dat").read_bytes() == b"first"
        assert load_state(state_path).records.keys() == {res_base + "d0/a.dat"}

    def test_created_uri_decoding_onto_a_recorded_path_is_rejected(self, site, tmp_path):
        web, res, handle, res_base, store, state = self._baselined(
            site, tmp_path, {"a.dat": b"first"}
        )
        write_tree(res, {"a.dat": b"second"})
        t1 = T0 + timedelta(hours=1)
        created = ResourceMetadata(change=ChangeKind.CREATED)
        doc = SyncDocument(
            CapabilityKind.CHANGELIST, t1, [ResourceEntry(res_base + "%61.dat", t1, created)]
        )
        serve_changelist(web, doc)
        with pytest.raises(PathMappingError, match="both map to 'a.dat'"):
            incremental_sync(handle.url + "changelist.xml", store, state)
        assert read_tree(store) == {"a.dat": b"first"}
        assert state.records.keys() == {res_base + "a.dat"}

    def test_uri_outside_the_store_root_is_rejected(self, site, tmp_path):
        """The root comes from the records, so a URI above it never shifts the layout."""
        web, res, handle, res_base = site
        write_tree(res, {"d0/a.dat": b"first"})
        set_tree_mtimes(res, T_BASE)
        publish_list(web, res, res_base)
        list_url = handle.url + "resourcelist.xml"
        store = tmp_path / "store"
        state_path = store / STATE_FILE_NAME
        state = load_state(state_path)
        baseline_sync(list_url, store, state, state_path=state_path)
        before = read_tree(store), state_path.read_bytes()

        write_tree(res, {"b.dat": b"second"})
        t1 = T0 + timedelta(hours=1)
        created = ResourceMetadata(change=ChangeKind.CREATED)
        doc = SyncDocument(
            CapabilityKind.CHANGELIST, t1, [ResourceEntry(res_base + "b.dat", t1, created)]
        )
        serve_changelist(web, doc)
        outside = re.escape(f"outside the mapping prefix {res_base + 'd0/'!r}")
        with pytest.raises(PathMappingError, match=outside):
            incremental_sync(handle.url + "changelist.xml", store, state, state_path=state_path)
        assert (read_tree(store), state_path.read_bytes()) == before
        publish_list(web, res, res_base, modified=t1)
        with pytest.raises(PathMappingError, match=outside):
            baseline_sync(list_url, store, state, state_path=state_path)
        assert (read_tree(store), state_path.read_bytes()) == before

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
        baseline_sync(handle.url + "resourcelist.xml", store, state)
        return web, res, handle, res_base, store, state

    def test_clean_after_baseline(self, site, tmp_path):
        web, res, handle, res_base, store, state = self._baselined(
            site, tmp_path, {"a": b"1", "b/c": b"2"}
        )
        report = audit(handle.url + "resourcelist.xml", store, state)
        assert report.clean and report.in_sync == 2
        assert report.missing == [] and report.stale == [] and report.extraneous == []

    def test_single_byte_corruption_is_stale(self, site, tmp_path):
        web, res, handle, res_base, store, state = self._baselined(
            site, tmp_path, {"a": b"payload", "b": b"other"}
        )
        body = bytearray((store / "a").read_bytes())
        body[0] ^= 0xFF
        (store / "a").write_bytes(bytes(body))
        report = audit(handle.url + "resourcelist.xml", store, state)
        assert report.stale == [res_base + "a"]
        assert report.missing == [] and report.extraneous == []
        assert report.in_sync == 1

    def test_single_deletion_is_missing(self, site, tmp_path):
        web, res, handle, res_base, store, state = self._baselined(
            site, tmp_path, {"a": b"payload", "b": b"other"}
        )
        (store / "b").unlink()
        report = audit(handle.url + "resourcelist.xml", store, state)
        assert report.missing == [res_base + "b"]
        assert report.stale == [] and report.extraneous == []

    def test_extraneous_file_detected(self, site, tmp_path):
        web, res, handle, res_base, store, state = self._baselined(
            site, tmp_path, {"a": b"payload"}
        )
        write_tree(store, {"stray.bin": b"zzz"})
        report = audit(handle.url + "resourcelist.xml", store, state)
        assert report.extraneous == [res_base + "stray.bin"]
        assert report.in_sync == 1

    def test_extraneous_file_named_under_the_store_root(self, site, tmp_path):
        web, res, handle, res_base, store, state = self._baselined(
            site, tmp_path, {"d0/a.dat": b"a"}
        )
        write_tree(res, {"b.dat": b"b"})
        publish_list(web, res, res_base)
        write_tree(store, {"stray.bin": b"zzz"})
        report = audit(handle.url + "resourcelist.xml", store, state)
        assert report.extraneous == [res_base + "d0/stray.bin"]
        assert report.missing == [res_base + "b.dat"]
        assert report.in_sync == 1

    def test_extraneous_record_detected(self, site, tmp_path):
        web, res, handle, res_base, store, state = self._baselined(
            site, tmp_path, {"a": b"payload"}
        )
        # a record for a URI the source no longer lists
        state.records[res_base + "ghost"] = StateRecord("ghost", T0, "md5:" + "0" * 32)
        report = audit(handle.url + "resourcelist.xml", store, state)
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
        report = audit(handle.url + "resourcelist.xml", store, state)
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
        audit(handle.url + "resourcelist.xml", store, state)
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
        baseline_sync(handle.url + "resourcelist.xml", store, state)
        (store / "a").write_bytes(b"123456789")
        report = audit(handle.url + "resourcelist.xml", store, state)
        assert report.stale == [res_base + "a"]


class TestPolledWindows:
    """A destination that polls every published window ends equal to the source."""

    PERIOD = 10

    def _baselined(self, site, tmp_path, log):
        web, res, handle, res_base = site
        simulator.publish(res, web, res_base, log, self.PERIOD, now=T_BASE)
        store = tmp_path / "store"
        state = load_state(store / STATE_FILE_NAME)
        baseline_sync(handle.url + "resourcelist.xml", store, state)
        return store, state

    def _publish_and_sync(self, site, log, store, state, seconds):
        web, res, handle, res_base = site
        now = T_BASE + timedelta(seconds=seconds)
        simulator.publish(res, web, res_base, log, self.PERIOD, now=now)
        report = incremental_sync(handle.url + "changelist.xml", store, state)
        assert report.failed == 0, report.failures
        return report

    def _assert_audit_clean(self, site, store, state):
        web, res, handle, res_base = site
        result = audit(handle.url + "resourcelist.xml", store, state)
        assert result.clean, (result.missing, result.stale, result.extraneous)
        assert_trees_equal(res, store)

    def test_event_logged_into_a_polled_window_reaches_the_store(self, site, tmp_path):
        web, res, handle, res_base = site
        write_tree(res, {"a.txt": b"a1", "b.txt": b"b1"})
        set_tree_mtimes(res, T_BASE)
        log = ChangeLog()
        store, state = self._baselined(site, tmp_path, log)

        def update(name, body, seconds):
            path = res / name
            path.write_bytes(body)
            instant = T_BASE + timedelta(seconds=seconds)
            os.utime(path, (instant.timestamp(), instant.timestamp()))
            meta = ResourceMetadata(digests=hash_file(path, ("md5",)), length=len(body))
            log.append(instant, res_base + name, ChangeKind.UPDATED, meta)

        update("a.txt", b"a2", 2)
        assert self._publish_and_sync(site, log, store, state, 10).updated == 1
        # Logged after the 0-10 s window was published and polled.
        update("b.txt", b"b2", 5)
        simulator.publish(res, web, res_base, log, self.PERIOD, now=T_BASE + timedelta(seconds=10))
        assert self._publish_and_sync(site, log, store, state, 20).updated == 1
        self._assert_audit_clean(site, store, state)

    def test_advance_to_just_before_each_publish_loses_no_event(self, site, tmp_path):
        web, res, handle, res_base = site
        config = SimConfig(seed=3, n_initial=50, duration=10.0 * self.PERIOD)
        sim = SourceSimulator(config, res, res_base, start=T_BASE)
        store, state = self._baselined(site, tmp_path, sim.log)
        for k in range(1, 11):
            now = T_BASE + timedelta(seconds=self.PERIOD * k)
            sim.advance(now - timedelta(microseconds=1))
            self._publish_and_sync(site, sim.log, store, state, self.PERIOD * k)
        self._assert_audit_clean(site, store, state)
