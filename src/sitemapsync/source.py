"""Source-side engine: tree scanning, list generation, diffing, change logging.

The source publishes its view under a web root with fixed names:
``resourcelist.xml`` (or ``resourcelist-index.xml`` plus
``resourcelist-N.xml`` members when partitioned), one
``changelist-<window>.xml`` per closed window, and ``changelist.xml``
mirroring the newest closed window.
"""

from __future__ import annotations

import fnmatch
import logging
import os
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path
from urllib.parse import quote

from .atomic import atomic_write_bytes
from .codec import serialize_document
from .digests import format_digests, hash_file, parse_digests
from .model import (
    CapabilityKind,
    ChangeKind,
    Inventory,
    MAX_DOCUMENT_ENTRIES,
    ResourceEntry,
    ResourceMetadata,
    SyncDocument,
    as_utc_instant,
    format_w3c_datetime,
    is_absolute_uri,
    parse_w3c_datetime,
)

logger = logging.getLogger(__name__)

RESOURCELIST_NAME = "resourcelist.xml"
RESOURCELIST_INDEX_NAME = "resourcelist-index.xml"
CURRENT_CHANGELIST_NAME = "changelist.xml"

DAY_SECONDS = 86_400

# Fixed extension map keeps scan output machine-independent.
_MIME_MAP = {
    ".txt": "text/plain",
    ".html": "text/html",
    ".htm": "text/html",
    ".xml": "application/xml",
    ".json": "application/json",
    ".csv": "text/csv",
    ".pdf": "application/pdf",
    ".png": "image/png",
    ".jpg": "image/jpeg",
    ".jpeg": "image/jpeg",
    ".gif": "image/gif",
    ".tiff": "image/tiff",
    ".tif": "image/tiff",
    ".gz": "application/gzip",
    ".zip": "application/zip",
}
_MIME_FALLBACK = "application/octet-stream"


@dataclass
class SourceConfig:
    root_dir: Path
    base_uri: str
    digest_algorithms: tuple[str, ...] = ("md5",)
    exclude_patterns: tuple[str, ...] = ()
    changelist_period: int = DAY_SECONDS  # seconds per change-list window

    def validate(self) -> None:
        if not is_absolute_uri(self.base_uri) or not self.base_uri.endswith("/"):
            raise ValueError(f"base_uri must be absolute and end with '/': {self.base_uri!r}")
        if not self.digest_algorithms:
            raise ValueError("at least one digest algorithm is required")
        if self.changelist_period <= 0:
            raise ValueError("changelist_period must be positive")


def uri_for_relpath(base_uri: str, relpath: str) -> str:
    """Map a slash-separated relative path to a URI, percent-encoding each segment."""
    return base_uri + "/".join(quote(seg, safe="") for seg in relpath.split("/"))


def mime_type_for(name: str) -> str:
    return _MIME_MAP.get(Path(name).suffix.lower(), _MIME_FALLBACK)


def scan(config: SourceConfig, taken_at: datetime | None = None) -> Inventory:
    """Snapshot the resource tree: one entry per regular file, sorted by URI.

    Unreadable files are logged and skipped; the partial inventory is still
    valid. ``taken_at`` defaults to the wall clock and exists so callers
    driving a virtual clock can pin the snapshot instant.
    """
    config.validate()
    root = Path(config.root_dir)
    if not root.is_dir():
        raise FileNotFoundError(f"source root is not a readable directory: {root}")
    if taken_at is None:
        taken_at = datetime.now(timezone.utc)
    taken_at = as_utc_instant(taken_at)

    entries: list[ResourceEntry] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = Path(dirpath) / name
            rel = path.relative_to(root).as_posix()
            if any(fnmatch.fnmatch(rel, pat) for pat in config.exclude_patterns):
                continue
            if path.is_symlink() or not path.is_file():
                continue
            try:
                st = path.stat()
                digest_map = hash_file(path, config.digest_algorithms)
            except OSError as exc:
                logger.warning("skipping unreadable file %s: %s", path, exc)
                continue
            entries.append(
                ResourceEntry(
                    uri=uri_for_relpath(config.base_uri, rel),
                    lastmod=datetime.fromtimestamp(int(st.st_mtime), tz=timezone.utc),
                    metadata=ResourceMetadata(
                        digests=digest_map,
                        length=st.st_size,
                        mime_type=mime_type_for(name),
                    ),
                )
            )

    entries.sort(key=lambda e: e.uri)
    inv = Inventory(
        base_uri=config.base_uri,
        items={e.uri: e for e in entries},
        taken_at=taken_at,
    )
    inv.validate()
    return inv


def generate_resource_list(
    inv: Inventory, modified: datetime, list_base_uri: str | None = None
) -> list[SyncDocument]:
    """Build the resource list for an inventory.

    Returns a single ``resourcelist`` document when the inventory fits the
    per-document cap; otherwise the member documents followed by a
    ``resourcelist-index`` (last element) whose locs are derived from
    ``list_base_uri`` (default: the inventory's base URI).
    """
    inv.validate()
    modified = as_utc_instant(modified)
    entries = [inv.items[uri] for uri in sorted(inv.items)]
    # Resource list entries never carry a change kind.
    entries = [
        ResourceEntry(uri=e.uri, lastmod=e.lastmod, metadata=_without_change(e.metadata))
        for e in entries
    ]
    if len(entries) <= MAX_DOCUMENT_ENTRIES:
        return [SyncDocument(CapabilityKind.RESOURCELIST, modified, entries)]

    if list_base_uri is None:
        list_base_uri = inv.base_uri
    members: list[SyncDocument] = []
    index_entries: list[ResourceEntry] = []
    for start in range(0, len(entries), MAX_DOCUMENT_ENTRIES):
        chunk = entries[start : start + MAX_DOCUMENT_ENTRIES]
        members.append(SyncDocument(CapabilityKind.RESOURCELIST, modified, chunk))
        member_uri = list_base_uri + member_list_name(len(members))
        index_entries.append(ResourceEntry(uri=member_uri, lastmod=modified))
    index = SyncDocument(CapabilityKind.RESOURCELIST_INDEX, modified, index_entries)
    return members + [index]


def member_list_name(ordinal: int) -> str:
    return f"resourcelist-{ordinal}.xml"


def _without_change(meta: ResourceMetadata) -> ResourceMetadata:
    return ResourceMetadata(
        digests=dict(meta.digests), length=meta.length, mime_type=meta.mime_type
    )


def _digests_differ(old: ResourceMetadata, new: ResourceMetadata,
                    old_entry: ResourceEntry, new_entry: ResourceEntry) -> bool:
    shared = set(old.digests) & set(new.digests)
    if shared:
        return any(old.digests[a] != new.digests[a] for a in shared)
    # No common algorithm: fall back to weaker evidence.
    return old.length != new.length or old_entry.lastmod != new_entry.lastmod


def diff_inventories(old: Inventory, new: Inventory) -> SyncDocument:
    """Derive the change list that turns ``old`` into ``new``.

    Additions become ``created`` entries, disappearances ``deleted`` (dated
    at the instant the deletion was observed, i.e. ``new.taken_at``), and
    digest mismatches ``updated``. Unchanged URIs are omitted.
    """
    if old.base_uri != new.base_uri:
        raise ValueError(f"base_uri mismatch: {old.base_uri!r} vs {new.base_uri!r}")
    old.validate()
    new.validate()

    entries: list[ResourceEntry] = []
    for uri, entry in new.items.items():
        prior = old.items.get(uri)
        if prior is None:
            kind = ChangeKind.CREATED
        elif _digests_differ(prior.metadata, entry.metadata, prior, entry):
            kind = ChangeKind.UPDATED
        else:
            continue
        meta = _without_change(entry.metadata)
        meta.change = kind
        entries.append(ResourceEntry(uri=uri, lastmod=entry.lastmod, metadata=meta))
    for uri in old.items:
        if uri not in new.items:
            entries.append(
                ResourceEntry(
                    uri=uri,
                    lastmod=new.taken_at,
                    metadata=ResourceMetadata(change=ChangeKind.DELETED),
                )
            )

    entries.sort(key=lambda e: (e.lastmod, e.uri))
    return SyncDocument(CapabilityKind.CHANGELIST, modified=new.taken_at, entries=entries)


@dataclass
class ChangeRecord:
    instant: datetime
    uri: str
    change: ChangeKind
    metadata: ResourceMetadata = field(default_factory=ResourceMetadata)


class ChangeLog:
    """Append-only, time-ordered event log feeding change-list generation.

    Persists as UTF-8 text, one record per line:
    ``<instant>\\t<kind>\\t<uri>\\t<algo:hex ...|->\\t<length|->``.
    """

    def __init__(self, records: list[ChangeRecord] | None = None):
        self.records: list[ChangeRecord] = []
        for rec in records or []:
            self.append(rec.instant, rec.uri, rec.change, rec.metadata)

    def append(
        self,
        instant: datetime,
        uri: str,
        change: ChangeKind,
        metadata: ResourceMetadata | None = None,
    ) -> "ChangeLog":
        instant = as_utc_instant(instant)
        if self.records and instant < self.records[-1].instant:
            raise ValueError(
                f"out-of-order append: {instant} before {self.records[-1].instant}"
            )
        self.records.append(ChangeRecord(instant, uri, change, metadata or ResourceMetadata()))
        return self

    def __len__(self) -> int:
        return len(self.records)

    @staticmethod
    def _to_line(rec: ChangeRecord) -> str:
        digests = format_digests(rec.metadata.digests) or "-"
        length = "-" if rec.metadata.length is None else str(rec.metadata.length)
        return "\t".join(
            [format_w3c_datetime(rec.instant), rec.change.value, rec.uri, digests, length]
        )

    @staticmethod
    def _from_line(line: str) -> ChangeRecord:
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 5:
            raise ValueError(f"malformed change log line: {line!r}")
        instant_s, kind_s, uri, digests_s, length_s = parts
        meta = ResourceMetadata()
        if digests_s != "-":
            meta.digests = parse_digests(digests_s)
        if length_s != "-":
            meta.length = int(length_s)
        return ChangeRecord(parse_w3c_datetime(instant_s), uri, ChangeKind(kind_s), meta)

    def save(self, path: Path) -> None:
        text = "".join(self._to_line(rec) + "\n" for rec in self.records)
        atomic_write_bytes(Path(path), text.encode("utf-8"))

    @classmethod
    def load(cls, path: Path) -> "ChangeLog":
        log = cls()
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    rec = cls._from_line(line)
                    log.append(rec.instant, rec.uri, rec.change, rec.metadata)
        return log


def _window_start(instant: datetime, period: int) -> datetime:
    ts = int(instant.timestamp())
    return datetime.fromtimestamp(ts - ts % period, tz=timezone.utc)


def emit_changelists(log: ChangeLog, period: int) -> list[SyncDocument]:
    """Bucket logged events into UTC-aligned windows, one change list each.

    A window's document is stamped ``modified`` with the window's last
    second-precision instant (window end minus one second): at the
    protocol's second granularity this is the latest lastmod the window can
    contain, which keeps the destination's ``lastmod <= last_sync`` skip
    rule from swallowing the next window's first events.
    """
    if period <= 0:
        raise ValueError("period must be positive")
    buckets: dict[datetime, list[ResourceEntry]] = {}
    for rec in log.records:
        meta = _without_change(rec.metadata)
        meta.change = rec.change
        entry = ResourceEntry(uri=rec.uri, lastmod=rec.instant, metadata=meta)
        buckets.setdefault(_window_start(rec.instant, period), []).append(entry)
    docs = []
    for start in sorted(buckets):
        modified = start + timedelta(seconds=period - 1)
        docs.append(SyncDocument(CapabilityKind.CHANGELIST, modified, buckets[start]))
    return docs


def changelist_window_name(instant: datetime, period: int) -> str:
    """File name of the change-list window of ``period`` seconds holding ``instant``."""
    window_start = _window_start(instant, period)
    if period == DAY_SECONDS:
        return f"changelist-{window_start:%Y-%m-%d}.xml"
    return f"changelist-{window_start:%Y%m%dT%H%M%SZ}.xml"


def publish_resource_list(
    inv: Inventory,
    modified: datetime,
    web_root: Path,
    list_base_uri: str | None = None,
) -> list[Path]:
    """Write the resource list (and index, when partitioned) under web_root."""
    web_root = Path(web_root)
    docs = generate_resource_list(inv, modified, list_base_uri)
    written: list[Path] = []
    if len(docs) == 1:
        target = web_root / RESOURCELIST_NAME
        atomic_write_bytes(target, serialize_document(docs[0]))
        written.append(target)
        return written
    for i, member in enumerate(docs[:-1], start=1):
        target = web_root / member_list_name(i)
        atomic_write_bytes(target, serialize_document(member))
        written.append(target)
    target = web_root / RESOURCELIST_INDEX_NAME
    atomic_write_bytes(target, serialize_document(docs[-1]))
    written.append(target)
    return written


def publish_changelists(
    log: ChangeLog, period: int, web_root: Path, now: datetime
) -> list[Path]:
    """Write one document per closed window plus ``changelist.xml``.

    Only windows that have fully closed (window end <= now) are published;
    events still accumulating in the open window are withheld so a poller
    never advances past changes it has not seen. With no closed window yet,
    ``changelist.xml`` is an empty change list dated just before the open
    window, which makes applying it a no-op.
    """
    web_root = Path(web_root)
    now = as_utc_instant(now)
    written: list[Path] = []
    closed = [
        doc
        for doc in emit_changelists(log, period)
        if _window_start(doc.modified, period) + timedelta(seconds=period) <= now
    ]
    for doc in closed:
        target = web_root / changelist_window_name(doc.modified, period)
        atomic_write_bytes(target, serialize_document(doc))
        written.append(target)
    if closed:
        current = closed[-1]
    else:
        current = SyncDocument(
            CapabilityKind.CHANGELIST,
            modified=_window_start(now, period) - timedelta(seconds=1),
            entries=[],
        )
    target = web_root / CURRENT_CHANGELIST_NAME
    atomic_write_bytes(target, serialize_document(current))
    written.append(target)
    return written
