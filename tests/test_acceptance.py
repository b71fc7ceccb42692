"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The whole suite is sized
to finish in well under five minutes on a developer machine.
"""

import functools
import hashlib
import os
import random
import shutil
import subprocess
import sys
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from sitemapsync.codec import parse_document, serialize_document
from sitemapsync.destination import (
    STATE_FILE_NAME,
    SyncPolicy,
    audit,
    baseline_sync,
    incremental_sync,
    load_state,
)
from sitemapsync.model import (
    CapabilityKind,
    ChangeKind,
    Inventory,
    ResourceEntry,
    ResourceMetadata,
    SyncDocument,
)
from sitemapsync.simulator import SIM_EPOCH, SimConfig, SourceSimulator, publish, run
from sitemapsync.source import (
    SourceConfig,
    diff_inventories,
    generate_resource_list,
    publish_resource_list,
    scan,
)
from sitemapsync.transport import FileRequestHandler

from conftest import read_tree, set_tree_mtimes, write_tree
from docgen import random_document
from test_codec import CHANGE_LIST_XML, RESOURCE_LIST_XML

UTC = timezone.utc


def criterion(number, summary):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d}: FAIL - {summary}")
                raise
            print(f"criterion {number:2d}: PASS - {summary}")

        return wrapper

    return decorate


@criterion(1, "golden listings parse exactly and round-trip structurally")
def test_criterion_01_golden_fidelity():
    doc = parse_document(RESOURCE_LIST_XML)
    assert doc.capability.value == "resourcelist"
    assert doc.modified.strftime("%Y-%m-%dT%H:%M:%SZ") == "2013-01-03T09:00:00Z"
    assert [e.uri for e in doc.entries] == [
        "http://example.com/res1",
        "http://example.com/res2",
    ]
    assert [e.lastmod for e in doc.entries] == [None, None]
    assert parse_document(serialize_document(doc)) == doc

    doc = parse_document(CHANGE_LIST_XML)
    assert doc.capability.value == "changelist"
    assert doc.modified.strftime("%Y-%m-%dT%H:%M:%SZ") == "2013-01-03T11:00:00Z"
    assert [e.uri for e in doc.entries] == [
        "http://example.com/res2.pdf",
        "http://example.com/res3.tiff",
    ]
    assert [e.lastmod.strftime("%Y-%m-%dT%H:%M:%SZ") for e in doc.entries] == [
        "2013-01-02T13:00:00Z",
        "2013-01-02T18:00:00Z",
    ]
    assert [e.metadata.change.value for e in doc.entries] == ["updated", "deleted"]
    assert parse_document(serialize_document(doc)) == doc


@criterion(2, "1,000 randomized documents: parse(serialize(d)) == d")
def test_criterion_02_codec_round_trip():
    rng = random.Random(20130103)
    for i in range(1000):
        doc = random_document(rng)
        assert parse_document(serialize_document(doc)) == doc, f"document {i} diverged"


@criterion(3, "100 randomized tree pairs: diff/apply reproduces the target tree")
def test_criterion_03_diff_apply_oracle(tmp_path):
    base = "http://example.com/"
    rng = random.Random(777)

    def random_body():
        bucket = rng.random()
        if bucket < 0.15:
            return b""
        if bucket < 0.9:
            return rng.randbytes(rng.randrange(1, 2048))
        return rng.randbytes(rng.randrange(2048, 65_536))  # up to the 64 KB bound

    def random_tree(root: Path):
        files = {}
        for i in range(rng.randrange(0, 200)):  # up to the 200-file bound
            rel = rng.choice(["", "x/", "x/y/", "z/"]) + f"f{i}.bin"
            files[rel] = random_body()
        write_tree(root, files)
        root.mkdir(exist_ok=True)
        return files

    for trial in range(100):
        a_root = tmp_path / f"a{trial}"
        b_root = tmp_path / f"b{trial}"
        a_files = random_tree(a_root)
        b_files = {rel: body for rel, body in a_files.items() if rng.random() > 0.25}
        for rel in list(b_files):
            if rng.random() < 0.35:
                b_files[rel] = random_body()
        for i in range(rng.randrange(0, 10)):
            b_files[f"n{i}.bin"] = random_body()
        write_tree(b_root, b_files)
        b_root.mkdir(exist_ok=True)

        t0 = datetime(2013, 1, 1, tzinfo=UTC)
        old = scan(SourceConfig(a_root, base), taken_at=t0)
        new = scan(SourceConfig(b_root, base), taken_at=t0 + timedelta(hours=1))
        doc = diff_inventories(old, new)
        for entry in doc.entries:
            rel = entry.uri[len(base):]
            dest = a_root / rel
            if entry.metadata.change == ChangeKind.DELETED:
                dest.unlink()
            else:
                dest.parent.mkdir(parents=True, exist_ok=True)
                dest.write_bytes((b_root / rel).read_bytes())
        assert read_tree(a_root) == read_tree(b_root), f"trial {trial} diverged"
        shutil.rmtree(a_root)
        shutil.rmtree(b_root)


@criterion(4, "wiki-scaled end-to-end convergence: poll loop then all-empty audit")
def test_criterion_04_end_to_end_convergence(tmp_path, http_server):
    started = time.monotonic()
    web = tmp_path / "web"
    res = web / "res"
    store = tmp_path / "store"
    web.mkdir()
    handle = http_server(web)
    res_base = handle.url + "res/"

    config = SimConfig(
        seed=424242, n_initial=500, event_rate=1.4, duration=60.0, body_size_range=(32, 256)
    )
    sim = SourceSimulator(config, res, res_base, start=SIM_EPOCH)
    period = 10
    t0 = SIM_EPOCH

    publish(res, web, res_base, sim.log, period, now=t0)
    state = load_state(store / STATE_FILE_NAME)
    report = baseline_sync(handle.url + "resourcelist.xml", store, state)
    assert report.failed == 0 and report.created == 500

    # destination polls every publication period; two extra polls after quiescence
    for k in range(1, 9):
        now = t0 + timedelta(seconds=period * k)
        sim.advance(now)
        publish(res, web, res_base, sim.log, period, now=now)
        report = incremental_sync(handle.url + "changelist.xml", store, state)
        assert report.failed == 0, report.failures
    assert len(sim.log) > 0

    result = audit(handle.url + "resourcelist.xml", store, state)
    assert result.clean, (result.missing, result.stale, result.extraneous)
    elapsed = time.monotonic() - started
    assert elapsed <= 90, f"took {elapsed:.1f}s"


@criterion(5, "batch-scaled burst: one 1,800-entry change list applied in one sync")
def test_criterion_05_burst_mode(tmp_path, http_server):
    started = time.monotonic()
    web = tmp_path / "web"
    res = web / "res"
    store = tmp_path / "store"
    web.mkdir()
    handle = http_server(web)
    res_base = handle.url + "res/"

    config = SimConfig(
        seed=1800, n_initial=1200, duration=60.0, burst_size=1800, body_size_range=(16, 128)
    )
    sim = SourceSimulator(config, res, res_base, start=SIM_EPOCH)
    period = 10
    t0 = SIM_EPOCH

    publish(res, web, res_base, sim.log, period, now=t0)
    state = load_state(store / STATE_FILE_NAME)
    report = baseline_sync(handle.url + "resourcelist.xml", store, state)
    assert report.failed == 0 and report.created == 1200

    sim.run_to_completion()
    assert len(sim.log) == 1800
    publish(res, web, res_base, sim.log, period, now=t0 + timedelta(seconds=60))

    listed = parse_document((web / "changelist.xml").read_bytes())
    assert len(listed.entries) == 1800

    histogram = {kind: 0 for kind in ChangeKind}
    for rec in sim.log.records:
        histogram[rec.change] += 1

    report = incremental_sync(handle.url + "changelist.xml", store, state)
    assert report.failed == 0, report.failures[:3]
    assert report.created == histogram[ChangeKind.CREATED]
    assert report.updated == histogram[ChangeKind.UPDATED]
    assert report.deleted == histogram[ChangeKind.DELETED]

    result = audit(handle.url + "resourcelist.xml", store, state)
    assert result.clean, (result.missing[:3], result.stale[:3], result.extraneous[:3])
    elapsed = time.monotonic() - started
    assert elapsed <= 60, f"took {elapsed:.1f}s"


@criterion(6, "120,001 entries partition into 3 members plus 1 index, order preserved")
def test_criterion_06_partitioning():
    base = "http://example.com/"
    t = datetime(2013, 1, 1, tzinfo=UTC)
    items = {}
    for i in range(120_001):
        uri = f"{base}r{i:07d}"
        items[uri] = ResourceEntry(uri, t, ResourceMetadata(digests={"md5": "%032x" % i}))
    inv = Inventory(base_uri=base, items=items, taken_at=t)
    docs = generate_resource_list(inv, t)
    members, index = docs[:-1], docs[-1]
    assert len(members) == 3
    assert index.capability == CapabilityKind.RESOURCELIST_INDEX
    assert all(len(m.entries) <= 50_000 for m in members)
    assert [e.uri for m in members for e in m.entries] == sorted(items)


@criterion(7, "re-running baseline and re-applying a change list are no-ops")
def test_criterion_07_idempotence(tmp_path, http_server):
    web = tmp_path / "web"
    res = web / "res"
    store = tmp_path / "store"
    res.mkdir(parents=True)
    handle = http_server(web)
    res_base = handle.url + "res/"

    rng = random.Random(7)
    write_tree(res, {f"d{i % 3}/f{i}.bin": rng.randbytes(rng.randrange(1, 2048)) for i in range(40)})
    t0 = datetime(2013, 1, 3, 9, tzinfo=UTC)
    set_tree_mtimes(res, t0)
    inv = scan(SourceConfig(res, res_base), taken_at=t0)
    publish_resource_list(inv, t0, web)

    state = load_state(store / STATE_FILE_NAME)
    url = handle.url + "resourcelist.xml"
    first = baseline_sync(url, store, state)
    assert first.created == 40 and first.failed == 0
    before = read_tree(store)

    again = baseline_sync(url, store, state)
    assert again.created == 0 and again.updated == 0 and again.deleted == 0
    assert again.bytes_transferred == 0 and again.skipped == 40
    assert read_tree(store) == before

    # one real change, applied twice
    (res / "d0" / "f0.bin").write_bytes(b"changed body")
    digest = hashlib.md5(b"changed body").hexdigest()
    t1 = t0 + timedelta(hours=1)
    doc = SyncDocument(
        CapabilityKind.CHANGELIST,
        t1,
        [
            ResourceEntry(
                res_base + "d0/f0.bin",
                t1,
                ResourceMetadata(
                    change=ChangeKind.UPDATED, digests={"md5": digest}, length=12
                ),
            )
        ],
    )
    (web / "changelist.xml").write_bytes(serialize_document(doc))
    cl_url = handle.url + "changelist.xml"
    applied = incremental_sync(cl_url, store, state)
    assert applied.updated == 1 and applied.failed == 0
    after_first = read_tree(store)

    reapplied = incremental_sync(cl_url, store, state)
    assert reapplied.created == 0 and reapplied.updated == 0 and reapplied.deleted == 0
    assert reapplied.bytes_transferred == 0
    assert read_tree(store) == after_first


class _ThrottledHandler(FileRequestHandler):
    def do_GET(self):
        time.sleep(0.005)
        super().do_GET()


@criterion(8, "killing a sync at 10 random points never corrupts a final-path file")
def test_criterion_08_crash_safety(tmp_path, http_server):
    web = tmp_path / "web"
    res = web / "res"
    res.mkdir(parents=True)
    rng = random.Random(88)
    write_tree(
        res, {f"d{i % 4}/f{i}.bin": rng.randbytes(rng.randrange(256, 4096)) for i in range(80)}
    )
    t0 = datetime(2013, 1, 3, 9, tzinfo=UTC)
    handle = http_server(web, handler_cls=_ThrottledHandler)
    res_base = handle.url + "res/"
    inv = scan(SourceConfig(res, res_base), taken_at=t0)
    publish_resource_list(inv, t0, web)
    source_files = read_tree(res)
    url = handle.url + "resourcelist.xml"

    for trial in range(10):
        store = tmp_path / f"store{trial}"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "sitemapsync", "baseline",
                "--source", url, "--store", str(store),
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        time.sleep(rng.uniform(0.2, 1.2))
        proc.kill()
        proc.wait(timeout=10)

        # invariant: anything at a final path is complete and correct
        for rel, body in read_tree(store).items():
            assert body == source_files[rel], f"trial {trial}: corrupt file {rel}"

        state = load_state(store / STATE_FILE_NAME) if not _state_corrupt(store) else None
        assert state is not None, "state file corrupt after crash"
        report = baseline_sync(url, store, state)
        assert report.failed == 0
        result = audit(url, store, state)
        assert result.clean, f"trial {trial} failed to converge"


def _state_corrupt(store: Path) -> bool:
    try:
        load_state(store / STATE_FILE_NAME)
        return False
    except Exception:
        return True


@criterion(9, "corruption, deletion, and extraneous files land in exactly one category")
def test_criterion_09_audit_sensitivity(tmp_path, http_server):
    web = tmp_path / "web"
    res = web / "res"
    store = tmp_path / "store"
    res.mkdir(parents=True)
    handle = http_server(web)
    res_base = handle.url + "res/"
    rng = random.Random(9)
    write_tree(res, {f"f{i}.bin": rng.randbytes(128) for i in range(12)})
    t0 = datetime(2013, 1, 3, 9, tzinfo=UTC)
    publish_resource_list(scan(SourceConfig(res, res_base), taken_at=t0), t0, web)
    url = handle.url + "resourcelist.xml"
    state = load_state(store / STATE_FILE_NAME)
    baseline_sync(url, store, state)

    # single-byte corruption -> exactly one stale
    body = bytearray((store / "f3.bin").read_bytes())
    body[7] ^= 0x01
    original = (store / "f3.bin").read_bytes()
    (store / "f3.bin").write_bytes(bytes(body))
    report = audit(url, store, state)
    assert report.stale == [res_base + "f3.bin"]
    assert report.missing == [] and report.extraneous == []
    (store / "f3.bin").write_bytes(original)

    # single deletion -> exactly one missing
    (store / "f5.bin").unlink()
    report = audit(url, store, state)
    assert report.missing == [res_base + "f5.bin"]
    assert report.stale == [] and report.extraneous == []
    (store / "f5.bin").write_bytes(read_tree(res)["f5.bin"])

    # single extraneous file -> exactly one extraneous
    write_tree(store, {"uninvited.bin": b"???"})
    report = audit(url, store, state)
    assert report.extraneous == [res_base + "uninvited.bin"]
    assert report.missing == [] and report.stale == []
    (store / "uninvited.bin").unlink()

    report = audit(url, store, state)
    assert report.clean


@criterion(10, "20 seeds stay inside the Poisson band; identical seeds reproduce logs")
def test_criterion_10_simulator_statistics(tmp_path):
    base = "http://example.com/res/"
    counts = []
    for seed in range(20, 40):  # fixed contiguous seed set
        config = SimConfig(
            seed=seed, n_initial=5, event_rate=1.4, duration=60.0, body_size_range=(8, 64)
        )
        log = run(config, tmp_path / f"s{seed}", base)
        counts.append(len(log))
    # lambda = 1.4/s * 60 s = 84 expected events per run
    assert all(55 <= c <= 115 for c in counts), counts

    config = SimConfig(seed=4, n_initial=5, event_rate=1.4, duration=60.0)
    log_a = run(config, tmp_path / "rep-a", base)
    log_b = run(config, tmp_path / "rep-b", base)
    assert [log_a._to_line(r) for r in log_a.records] == [
        log_b._to_line(r) for r in log_b.records
    ]
    assert len(log_a) > 0
