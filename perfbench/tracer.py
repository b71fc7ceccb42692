"""Span tracing for the traced benchmark run, installed from outside the library.

``Tracer.install()`` replaces public functions of the library with timing
wrappers. A wrapper goes into the namespace of the *calling* module, because
``from .x import y`` binds ``y`` in the caller at import time: patching
``transport.fetch`` would miss the copy that ``destination`` calls.

A span records (id, parent id, name, start, end, error, attributes); the run
id is written with every span. A span's parent is the innermost open span
of its own thread. A span opened in a thread with nothing open is a root
span (one operation: the benchmark is a closed loop with one client), unless
a root span is open in another thread: then it is work that operation
handed to its transfer pool, and its parent is the innermost open span of
the operation's thread. Spans stay in memory until ``write()``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

from sitemapsync import codec, destination, simulator, source


def _report_counts(args, kwargs, report):
    return {
        "created": report.created,
        "updated": report.updated,
        "deleted": report.deleted,
        "skipped": report.skipped,
        "failed": report.failed,
    }


def _file_bytes(args, kwargs, result):
    return {"bytes": os.stat(args[0]).st_size}


# (namespace, attribute, span name, attributes from the call's arguments and result)
PROBES = [
    (destination, "baseline_sync", "destination.baseline_sync", _report_counts),
    (destination, "incremental_sync", "destination.incremental_sync", _report_counts),
    (destination, "audit", "destination.audit",
     lambda a, k, r: {"listed": r.in_sync + len(r.missing) + len(r.stale)}),
    (destination, "load_state", "destination.load_state",
     lambda a, k, r: {"records": len(r.records)}),
    (destination, "save_state", "destination.save_state",
     lambda a, k, r: {"records": len(a[0].records)}),
    (destination, "fetch", "transport.fetch", lambda a, k, r: {"bytes": len(r.body)}),
    (destination, "download_to", "transport.download_to",
     lambda a, k, r: {"bytes": r[0]}),
    (destination, "parse_document", "codec.parse_document",
     lambda a, k, r: {"entries": len(r.entries)}),
    (destination, "hash_file", "digests.hash_file", _file_bytes),
    (destination, "atomic_write_bytes", "atomic.atomic_write_bytes",
     lambda a, k, r: {"bytes": len(a[1])}),
    (source, "hash_file", "digests.hash_file", _file_bytes),
    (source, "serialize_document", "codec.serialize_document",
     lambda a, k, r: {"entries": len(a[0].entries), "bytes": len(r)}),
    (source, "atomic_write_bytes", "atomic.atomic_write_bytes",
     lambda a, k, r: {"bytes": len(a[1])}),
    (simulator, "publish", "simulator.publish", None),
    (simulator, "scan", "source.scan", lambda a, k, r: {"files": len(r.items)}),
    (simulator, "publish_resource_list", "source.publish_resource_list", None),
    # changelist.xml mirrors the newest window; every other path is one window.
    (simulator, "publish_changelists", "source.publish_changelists",
     lambda a, k, r: {"docs": len(r) - 1}),
    (simulator.SourceSimulator, "__init__", "simulator.build",
     lambda a, k, r: {"files": a[1].n_initial}),
    # The simulator (by its tree) and the length of its log after the call.
    (simulator.SourceSimulator, "advance", "simulator.advance",
     lambda a, k, r: {"tree": str(a[0].root_dir), "log": len(a[0].log)}),
]

# Called once per entry: counted (calls and distinct strings), not timed.
COUNTED = [(codec, "parse_w3c_datetime"), (destination, "parse_w3c_datetime")]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.datetime_calls = 0
        self.datetime_distinct: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack: list[int] | None = None  # stack of the thread with an open root span
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap_span(self, name, fn, post):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            root = tracer._root_stack
            if stack:
                parent = stack[-1]
            elif root:
                parent = root[-1]
            else:
                parent = 0
                tracer._root_stack = stack
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                tracer._pop(stack)
                tracer.spans.append((sid, parent, name, start, end, type(exc).__name__, {}))
                raise
            end = time.perf_counter()
            tracer._pop(stack)
            attrs = post(args, kwargs, result) if post else {}
            tracer.spans.append((sid, parent, name, start, end, None, attrs))
            return result

        return wrapper

    def _pop(self, stack: list[int]) -> None:
        stack.pop()
        if not stack and self._root_stack is stack:
            self._root_stack = None

    def _wrap_count(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(value, *args, **kwargs):
            tracer.datetime_calls += 1
            tracer.datetime_distinct.add(value)
            return fn(value, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        for owner, attr, name, post in PROBES:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap_span(name, original, post))
        for owner, attr in COUNTED:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap_count(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, name, start, end, error, attrs in self.spans:
                out.write(json.dumps({
                    "run": self.run_id, "id": sid, "parent": parent, "name": name,
                    "start": start, "end": end, "error": error, "attrs": attrs,
                }) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, _name, start, end, _err, _attrs in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, start, end, _err, _attrs in spans:
        clipped = [
            (max(s, start), min(e, end)) for s, e in children.get(sid, ()) if e > start and s < end
        ]
        out[sid] = (end - start) - _union_length(clipped)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pct(values: list[float], q: int) -> float:
    """q-th percentile (q in 1..99) with inclusive interpolation; 0 without samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    spans = tracer.spans
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)

    def durations(name, scale=1.0):
        return [(s[4] - s[3]) * scale for s in by_name[name]]

    def attr_sum(name, key):
        return sum(s[6].get(key, 0) for s in by_name[name])

    m: dict[str, float] = {}

    # transport
    downloads = by_name["transport.download_to"]
    dl_ms = durations("transport.download_to", 1e3)
    m["transport.download_ms_p50"] = _pct(dl_ms, 50)
    m["transport.download_ms_p90"] = _pct(dl_ms, 90)
    m["transport.downloads"] = len(downloads)
    errors = sum(1 for s in downloads if s[5] is not None)
    m["transport.download_errors"] = errors
    phases: dict[int, list[float]] = {}
    for s in downloads:
        lo_hi = phases.setdefault(s[1], [s[3], s[4]])
        lo_hi[0] = min(lo_hi[0], s[3])
        lo_hi[1] = max(lo_hi[1], s[4])
    transfer_phases_s = sum(hi - lo for lo, hi in phases.values())
    m["transport.inflight_mean"] = _ratio(sum(dl_ms) / 1e3, transfer_phases_s)
    fetch_s = durations("transport.fetch")
    m["transport.fetch_ms_p50"] = _pct([d * 1e3 for d in fetch_s], 50)
    m["transport.fetches"] = len(fetch_s)
    m["transport.fetch_mb_per_s"] = _ratio(attr_sum("transport.fetch", "bytes") / 1e6, sum(fetch_s))

    # codec
    for verb, name, counted in (
        ("parse", "codec.parse_document", "codec.entries_parsed"),
        ("serialize", "codec.serialize_document", "codec.entries_serialized"),
    ):
        total = sum(durations(name))
        entries = attr_sum(name, "entries")
        m[f"codec.{verb}_s"] = total
        m[f"codec.{verb}_us_per_entry"] = _ratio(total * 1e6, entries)
        m[counted] = entries

    # model
    m["model.datetime_parses"] = tracer.datetime_calls
    m["model.datetime_distinct_ratio"] = _ratio(
        len(tracer.datetime_distinct), tracer.datetime_calls
    )

    # digests
    hash_s = durations("digests.hash_file")
    m["digests.hash_file_calls"] = len(hash_s)
    m["digests.hash_file_s"] = sum(hash_s)
    m["digests.hash_mb_per_s"] = _ratio(attr_sum("digests.hash_file", "bytes") / 1e6, sum(hash_s))

    # source
    scan_s = sum(durations("source.scan"))
    m["source.scan_s"] = scan_s
    m["source.scan_files_per_s"] = _ratio(attr_sum("source.scan", "files"), scan_s)
    for step in ("publish_resource_list", "publish_changelists"):
        m[f"source.{step}_ms_p50"] = _pct(durations(f"source.{step}", 1e3), 50)
    m["source.changelist_docs_per_publish"] = _ratio(
        attr_sum("source.publish_changelists", "docs"), len(by_name["source.publish_changelists"])
    )

    # atomic
    writes_ms = durations("atomic.atomic_write_bytes", 1e3)
    m["atomic.writes"] = len(writes_ms)
    m["atomic.write_ms_p50"] = _pct(writes_ms, 50)
    m["atomic.bytes_written"] = attr_sum("atomic.atomic_write_bytes", "bytes")

    # destination
    own = self_times(spans)
    for op, name in (("baseline", "destination.baseline_sync"),
                     ("sync", "destination.incremental_sync"), ("audit", "destination.audit")):
        m[f"destination.{op}_self_s"] = sum(own[s[0]] for s in by_name[name])
    m["destination.state_load_ms"] = _pct(durations("destination.load_state", 1e3), 50)
    m["destination.state_save_ms"] = _pct(durations("destination.save_state", 1e3), 50)
    m["destination.state_records"] = _pct(
        [s[6].get("records", 0) for s in by_name["destination.save_state"]], 50
    )
    baselines = by_name["destination.baseline_sync"]
    listed = sum(
        s[6].get(k, 0) for s in baselines for k in ("created", "updated", "skipped", "failed")
    )
    m["destination.skip_ratio"] = _ratio(attr_sum("destination.baseline_sync", "skipped"), listed)
    sync_ids = {s[0] for s in by_name["destination.incremental_sync"]}
    sync_downloads = sum(1 for s in downloads if s[1] in sync_ids)
    changes = sum(
        attr_sum("destination.incremental_sync", k)
        for k in ("created", "updated", "deleted", "skipped")
    )
    m["destination.downloads_per_change"] = _ratio(sync_downloads, changes)
    m["destination.download_attempts_per_stored"] = _ratio(len(downloads), len(downloads) - errors)

    # simulator (the load generator): a simulator's log starts empty, so its
    # events are the log's length after its last advance
    m["simulator.build_files_per_s"] = _ratio(
        attr_sum("simulator.build", "files"), sum(durations("simulator.build"))
    )
    logs = {s[6]["tree"]: s[6]["log"] for s in sorted(by_name["simulator.advance"],
                                                      key=lambda s: s[3])}
    m["simulator.events_per_s"] = _ratio(sum(logs.values()), sum(durations("simulator.advance")))
    return m
