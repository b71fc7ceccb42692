"""Source-side engine: tree scanning, list generation, diffing, change logging.

The source publishes its view under a web root with fixed names:
``resourcelist.xml`` (the list itself or, when partitioned, the index of
its ``resourcelist-N.xml`` members), one ``changelist-<window>.xml`` per
closed window, and ``changelist.xml`` mirroring the newest closed window.
``publish_resource_list`` writes the resource list through
``write_documents``; ``publish_changelists`` alone builds and writes the
change lists of a log's windows. Publishing seals the closed windows
(``ChangeLog.sealed``): an event logged later lands in the open window, so a
window's file is written once and a web root belongs to one log.
``scan`` reuses the digests that a log's memo (``ChangeLog.digest_memo``)
holds for files whose stat is unchanged, so a publish hashes about what changed.
"""

from __future__ import annotations

import fnmatch
import logging
import os
import re
import time
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from operator import attrgetter
from pathlib import Path
from urllib.parse import quote, unquote

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
CURRENT_CHANGELIST_NAME = "changelist.xml"

DAY_SECONDS = 86_400

# Names the destination's lock, state and temp files; no URI maps onto one.
RESERVED_PREFIX = ".resync"
# A name that is not valid UTF-8 decodes to lone surrogates, which no URI holds.
_SURROGATE = re.compile("[\ud800-\udfff]")

# A file whose ctime or mtime is not older than the scan's start minus this
# margin is hashed and not memoized (git's racy-index rule): a rewrite within
# the file system's clock granularity, or one pinned to the same mtime as the
# simulator does, could otherwise leave the stat unchanged.
RACY_MARGIN_NS = 1_000_000_000

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

    def validate(self) -> None:
        _require_base("base_uri", self.base_uri)
        if not self.digest_algorithms:
            raise ValueError("at least one digest algorithm is required")


def _require_base(name: str, uri: str) -> None:
    if not is_absolute_uri(uri) or not uri.endswith("/"):
        raise ValueError(f"{name} must be absolute and end with '/': {uri!r}")


class PathMappingError(ValueError):
    """URI cannot be mapped to a safe, unique local path."""


def uri_for_relpath(base_uri: str, relpath: str) -> str:
    """Map a slash-separated relative path to a URI, percent-encoding each segment."""
    return base_uri + "/".join(quote(seg, safe="") for seg in relpath.split("/"))


def _unsafe_segment(seg: str) -> bool:
    """Whether no URI maps onto a path segment: empty or dot, reserved, holding a
    separator, or not encodable as UTF-8."""
    return seg.startswith(RESERVED_PREFIX) or seg in ("", ".", "..") or (
        "/" in seg or "\\" in seg or "\x00" in seg) or (
        not seg.isascii() and _SURROGATE.search(seg) is not None)


def local_path_for_uri(uri: str, prefix: str) -> str:
    """Map a URI under ``prefix`` to a safe relative path (segments decoded).

    The inverse of ``uri_for_relpath``, for the destination's store and the
    server alike; reserved and unsafe segments are rejected."""
    if not uri.startswith(prefix) or len(uri) == len(prefix):
        raise PathMappingError(f"URI {uri!r} is outside the mapping prefix {prefix!r}")
    segments = []
    for raw in uri[len(prefix) :].split("/"):
        seg = unquote(raw)
        if _unsafe_segment(seg):
            raise PathMappingError(f"URI {uri!r} maps to an unsafe path segment {seg!r}")
        segments.append(seg)
    return "/".join(segments)


def common_uri_prefix(uris: list[str]) -> str:
    """Longest common URI prefix, truncated to a whole path segment boundary."""
    if not uris:
        raise PathMappingError("cannot derive a path mapping from an empty URI set")
    prefix = os.path.commonprefix(uris)
    prefix = prefix[: prefix.rfind("/") + 1]
    # Must keep at least scheme://authority/.
    scheme_end = prefix.find("://")
    if scheme_end < 0 or "/" not in prefix[scheme_end + 3 :]:
        raise PathMappingError(f"URIs share no common authority: {uris[0]!r} ...")
    return prefix


def web_root_uri(root_dir: Path, base_uri: str, web_root: Path) -> str | None:
    """URL of ``web_root``, derived from the URI its resources live under.

    Defined when ``root_dir`` lies inside ``web_root`` and ``base_uri`` ends
    with that relative path; otherwise None.
    """
    try:
        rel = Path(root_dir).resolve().relative_to(Path(web_root).resolve())
    except ValueError:
        return None
    suffix = "".join(quote(seg, safe="") + "/" for seg in rel.parts)
    head = base_uri[: len(base_uri) - len(suffix)]
    return head if base_uri.endswith(suffix) and head.endswith("/") else None


def mime_type_for(name: str) -> str:
    # The suffix as ``PurePath(name).suffix`` defines it, without building a path.
    dot = name.rfind(".")
    suffix = name[dot:].lower() if 0 < dot < len(name) - 1 else ""
    return _MIME_MAP.get(suffix, _MIME_FALLBACK)


def tree_files(root: str | os.PathLike):
    """Yield ``(path, relative POSIX path)`` for each regular file under ``root``.

    The one walker of source trees and destination stores, in no set order.
    A name no URI maps onto (``_unsafe_segment``), a directory that cannot be
    listed and every symlink are skipped, with all they hold.
    """
    pending = [(root, "")]
    while pending:
        dirpath, prefix = pending.pop()
        try:
            with os.scandir(dirpath) as it:
                children = list(it)
        except OSError:
            continue
        for child in children:
            if _unsafe_segment(child.name):
                continue
            if child.is_dir(follow_symlinks=False):
                pending.append((child.path, prefix + child.name + "/"))
            elif child.is_file(follow_symlinks=False):
                yield child.path, prefix + child.name


def scan(config: SourceConfig, taken_at: datetime | None = None, *,
         memo: dict | None = None) -> Inventory:
    """Snapshot the resource tree: one entry per ``tree_files`` file, sorted by URI.

    Exclude patterns are matched against each file's relative POSIX path.
    Unreadable files are logged and skipped; the inventory is valid by
    construction. ``taken_at`` defaults to the wall clock and exists so callers
    driving a virtual clock can pin the snapshot instant.

    A file's digests are reused from ``memo``, a dict the caller keeps, when its
    latest scan was of the same tree and algorithms and the file's stat (device,
    inode, size, mtime and ctime, taken before hashing) is unchanged. The scan
    then leaves in the memo only its own files whose ctime and mtime are older
    than its start minus ``RACY_MARGIN_NS``, so a rewrite that leaves the stat
    unchanged is still hashed. Without a memo every file is hashed.
    """
    config.validate()
    root = Path(config.root_dir)
    if not root.is_dir():
        raise FileNotFoundError(f"source root is not a readable directory: {root}")
    if taken_at is None:
        taken_at = datetime.now(timezone.utc)
    taken_at = as_utc_instant(taken_at)

    settled_before = time.time_ns() - RACY_MARGIN_NS
    algorithms = tuple(config.digest_algorithms)
    key = (os.path.realpath(root), algorithms)
    cached = memo.get(key, {}) if memo is not None else {}
    seen: dict[str, tuple[tuple, dict[str, str]]] = {}
    excludes = config.exclude_patterns
    entries: list[ResourceEntry] = []
    for path, rel in tree_files(root):
        if excludes and any(fnmatch.fnmatch(rel, pat) for pat in excludes):
            continue
        try:
            st = os.stat(path)
            stamp = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)
            known = cached.get(rel)
            if known is None or known[0] != stamp:
                known = (stamp, hash_file(path, algorithms))
        except OSError as exc:
            logger.warning("skipping unreadable file %s: %s", path, exc)
            continue
        if st.st_ctime_ns < settled_before and st.st_mtime_ns < settled_before:
            seen[rel] = known
        entries.append(
            ResourceEntry(
                uri=uri_for_relpath(config.base_uri, rel),
                lastmod=datetime.fromtimestamp(int(st.st_mtime), tz=timezone.utc),
                metadata=ResourceMetadata(
                    digests=dict(known[1]),
                    length=st.st_size,
                    mime_type=mime_type_for(rel.rpartition("/")[2]),
                ),
            )
        )
    if memo is not None:
        memo.clear()
        memo[key] = seen

    entries.sort(key=lambda e: e.uri)
    return Inventory(
        base_uri=config.base_uri,
        items={e.uri: e for e in entries},
        taken_at=taken_at,
    )


def generate_resource_list(
    inv: Inventory, modified: datetime, list_base_uri: str | None = None
) -> list[SyncDocument]:
    """Build the resource list for an inventory.

    Returns a single ``resourcelist`` document when the inventory fits the
    per-document cap; otherwise the member documents followed by a
    ``resourcelist-index`` (last element) whose locs are derived from
    ``list_base_uri`` (default: the inventory's base URI). The inventory is
    validated once and its entries are listed as they are.
    """
    if list_base_uri is not None:
        _require_base("list_base_uri", list_base_uri)
    inv.validate()
    modified = as_utc_instant(modified)
    entries = [inv.items[uri] for uri in sorted(inv.items)]
    if len(entries) <= MAX_DOCUMENT_ENTRIES:
        return [SyncDocument(CapabilityKind.RESOURCELIST, modified, entries)]

    members = [
        SyncDocument(CapabilityKind.RESOURCELIST, modified, entries[i : i + MAX_DOCUMENT_ENTRIES])
        for i in range(0, len(entries), MAX_DOCUMENT_ENTRIES)
    ]
    base = list_base_uri or inv.base_uri
    index = [
        ResourceEntry(base + member_list_name(n), modified) for n in range(1, len(members) + 1)
    ]
    return members + [SyncDocument(CapabilityKind.RESOURCELIST_INDEX, modified, index)]


def member_list_name(ordinal: int) -> str:
    return f"resourcelist-{ordinal}.xml"


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
        entries.append(ResourceEntry(uri, entry.lastmod, replace(entry.metadata, change=kind)))
    for uri in old.items.keys() - new.items.keys():
        deleted = ResourceMetadata(change=ChangeKind.DELETED)
        entries.append(ResourceEntry(uri, new.taken_at, deleted))

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

    ``append`` checks each event's URI and metadata, so the change lists built
    from the log need no further check. ``sealed`` is the end of the newest
    window ``publish_changelists`` has published (None before the first
    publish). An event earlier than it is re-stamped to ``sealed``, i.e. logged
    into the open window: a poller may already have applied the published
    windows, and it always fetches a resource's current bytes, so a later
    lastmod is safe.

    Persists as UTF-8 text, one record per line:
    ``<instant>\\t<kind>\\t<uri>\\t<algo:hex ...|->\\t<length|->``, and,
    once sealed, a last line ``sealed\\t<instant>``.
    """

    def __init__(self, records: list[ChangeRecord] | None = None):
        self.records: list[ChangeRecord] = []
        self.sealed: datetime | None = None
        self.digest_memo: dict = {}  # ``scan``'s memo of the tree it publishes; not saved
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
        if self.sealed is not None and instant < self.sealed:
            instant = self.sealed
        if self.records and instant < self.records[-1].instant:
            raise ValueError(
                f"out-of-order append: {instant} before {self.records[-1].instant}"
            )
        metadata = metadata or ResourceMetadata()
        ResourceEntry(uri, instant, metadata).validate()
        self.records.append(ChangeRecord(instant, uri, change, metadata))
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
        if self.sealed is not None:
            text += f"sealed\t{format_w3c_datetime(self.sealed)}\n"
        atomic_write_bytes(Path(path), text.encode("utf-8"))

    @classmethod
    def load(cls, path: Path) -> "ChangeLog":
        with open(path, encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip()]
        seal = lines.pop() if lines and lines[-1].startswith("sealed\t") else None
        log = cls([cls._from_line(line) for line in lines])  # appended, then sealed
        log.sealed = parse_w3c_datetime(seal.partition("\t")[2]) if seal else None
        return log


def _window_start(instant: datetime, period: int) -> datetime:
    ts = int(instant.timestamp())
    return datetime.fromtimestamp(ts - ts % period, tz=timezone.utc)


_INSTANT = attrgetter("instant")


def _windows(records: list[ChangeRecord], period: int, end: int):
    """Yield ``(window start, lo, hi)`` for each window holding ``records[:end]``.

    ``records[lo:hi]`` are the window's records. Records are time-ordered, so
    each window's end is found by bisection: the cost grows with the number
    of windows, not of records.
    """
    lo = 0
    while lo < end:
        start = _window_start(records[lo].instant, period)
        hi = bisect_left(records, start + timedelta(seconds=period), lo, end, key=_INSTANT)
        yield start, lo, hi
        lo = hi


def _window_document(records: list[ChangeRecord], start: datetime, period: int) -> SyncDocument:
    """The change list of one window, stamped ``modified`` with the window's last
    second-precision instant (window end minus one second): at the protocol's
    second granularity this is the latest lastmod the window can contain, which
    keeps the destination's ``lastmod <= last_sync`` skip rule from swallowing
    the next window's first events."""
    entries = [
        ResourceEntry(r.uri, r.instant, replace(r.metadata, change=r.change)) for r in records
    ]
    return SyncDocument(CapabilityKind.CHANGELIST, start + timedelta(seconds=period - 1), entries)


def changelist_window_name(instant: datetime, period: int) -> str:
    """File name of the change-list window of ``period`` seconds holding ``instant``."""
    window_start = _window_start(instant, period)
    if period == DAY_SECONDS:
        return f"changelist-{window_start:%Y-%m-%d}.xml"
    return f"changelist-{window_start:%Y%m%dT%H%M%SZ}.xml"


def write_documents(docs: list[SyncDocument], names: list[str], out_dir: Path) -> list[Path]:
    """Write each document atomically to ``out_dir / name``, in order."""
    written: list[Path] = []
    for doc, name in zip(docs, names, strict=True):
        target = Path(out_dir) / name
        atomic_write_bytes(target, serialize_document(doc))
        written.append(target)
    return written


def publish_resource_list(
    inv: Inventory,
    modified: datetime,
    web_root: Path,
    list_base_uri: str | None = None,
) -> list[Path]:
    """Write the resource list under web_root at ``resourcelist.xml``.

    A partitioned list writes its ``resourcelist-N.xml`` members first and
    then their index at ``resourcelist.xml``, so the entry URI always holds
    the current list. Members left over from a larger list stay on disk,
    unreferenced.
    """
    docs = generate_resource_list(inv, modified, list_base_uri)
    names = [member_list_name(i) for i in range(1, len(docs))] + [RESOURCELIST_NAME]
    return write_documents(docs, names, web_root)


def publish_changelists(
    log: ChangeLog, period: int, web_root: Path, now: datetime
) -> list[Path]:
    """Write the newly closed windows, then ``changelist.xml``, and seal them.

    Only windows that have fully closed (window end <= now) are published;
    events still accumulating in the open window are withheld so a poller
    never advances past changes it has not seen. With no closed window yet,
    ``changelist.xml`` is an empty change list dated just before the open
    window, which makes applying it a no-op.

    Publishing moves ``log.sealed`` to the start of the open window, so no
    event can join a published window afterwards. One listing of
    ``web_root`` shows which files exist. Written are the windows starting
    at or after the previous seal, the window files that are missing, and
    ``changelist.xml`` when the seal moved or the file is missing. A ``now``
    whose window starts before the seal is rejected with ``ValueError``.
    The newest window is serialized once, for its file and ``changelist.xml``.
    Returns the window files written, then ``changelist.xml``, which is
    always last.
    """
    if period <= 0:
        raise ValueError("period must be positive")
    now = as_utc_instant(now)
    open_start = _window_start(now, period)
    sealed = log.sealed
    if sealed is not None and open_start < sealed:
        raise ValueError(f"cannot publish at {now}: windows up to {sealed} are already sealed")
    records = log.records
    closed_end = bisect_left(records, open_start, key=_INSTANT)
    try:
        on_disk = set(os.listdir(web_root))
    except FileNotFoundError:
        on_disk = set()
    windows = [
        (changelist_window_name(start, period), start, lo, hi)
        for start, lo, hi in _windows(records, period, closed_end)
    ]
    pending = [w for w in windows if sealed is None or w[1] >= sealed or w[0] not in on_disk]
    out = {
        name: serialize_document(_window_document(records[lo:hi], start, period))
        for name, start, lo, hi in pending
    }
    if open_start != sealed or CURRENT_CHANGELIST_NAME not in on_disk:
        # With no closed window yet, the empty window just before the open one.
        newest = windows[-1] if windows else ("", open_start - timedelta(seconds=period), 0, 0)
        name, start, lo, hi = newest
        out[CURRENT_CHANGELIST_NAME] = out.get(name) or serialize_document(
            _window_document(records[lo:hi], start, period)
        )
    web_root = Path(web_root)
    for name, data in out.items():
        atomic_write_bytes(web_root / name, data)
    log.sealed = open_start
    return [web_root / name for name, *_ in pending] + [web_root / CURRENT_CHANGELIST_NAME]
