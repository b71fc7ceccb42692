"""Domain types shared by the source and destination engines.

Pure data definitions plus validation; no I/O happens here. All instants
are timezone-aware UTC datetimes truncated to second precision, and they
serialize as ``YYYY-MM-DDThh:mm:ssZ`` exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum
from urllib.parse import urlsplit

from .digests import HEX_LENGTHS

# Sitemap documents are capped at 50,000 entries; larger collections are
# partitioned into members referenced by an index document.
MAX_DOCUMENT_ENTRIES = 50_000

_HEX_RE = re.compile(r"^[0-9a-f]+$")

_DATETIME_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})"
    r"(?:T(\d{2}):(\d{2})(?::(\d{2})(?:\.\d+)?)?(Z|[+-]\d{2}:\d{2}))?$"
)


class ValidationError(ValueError):
    """A domain value violates one of its invariants.

    ``code`` names the violated invariant so callers (notably the codec)
    can map it onto their own error taxonomy.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class CapabilityKind(str, Enum):
    RESOURCELIST = "resourcelist"
    CHANGELIST = "changelist"
    RESOURCELIST_INDEX = "resourcelist-index"
    CHANGELIST_INDEX = "changelist-index"

    @property
    def is_index(self) -> bool:
        return self in (CapabilityKind.RESOURCELIST_INDEX, CapabilityKind.CHANGELIST_INDEX)


class ChangeKind(str, Enum):
    CREATED = "created"
    UPDATED = "updated"
    DELETED = "deleted"


def parse_w3c_datetime(value: str) -> datetime:
    """Parse a W3C datetime string into a UTC instant at second precision.

    Accepts date-only form, minute precision, optional fractional seconds
    (truncated) and numeric UTC offsets (normalized to UTC).
    """
    m = _DATETIME_RE.match(value.strip())
    if m is None:
        raise ValidationError("bad_datetime", f"not a W3C datetime: {value!r}")
    year, month, day = int(m.group(1)), int(m.group(2)), int(m.group(3))
    hour = int(m.group(4) or 0)
    minute = int(m.group(5) or 0)
    second = int(m.group(6) or 0)
    tz = m.group(7)
    try:
        dt = datetime(year, month, day, hour, minute, second, tzinfo=timezone.utc)
    except ValueError as exc:
        raise ValidationError("bad_datetime", f"invalid datetime {value!r}: {exc}") from None
    if tz and tz != "Z":
        sign = 1 if tz[0] == "+" else -1
        offset = timedelta(hours=int(tz[1:3]), minutes=int(tz[4:6]))
        if offset > timedelta(hours=23, minutes=59):
            raise ValidationError("bad_datetime", f"invalid offset in {value!r}")
        dt -= sign * offset
    return dt


def format_w3c_datetime(dt: datetime) -> str:
    """Format an instant as ``YYYY-MM-DDThh:mm:ssZ``."""
    dt = as_utc_instant(dt)
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


def as_utc_instant(dt: datetime) -> datetime:
    """Normalize to UTC and truncate to whole seconds."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    else:
        dt = dt.astimezone(timezone.utc)
    return dt.replace(microsecond=0)


def is_absolute_uri(uri: str) -> bool:
    parts = urlsplit(uri)
    return bool(parts.scheme) and bool(parts.netloc)


@dataclass
class ResourceMetadata:
    """Optional per-resource metadata: digests, length, media type, change kind."""

    digests: dict[str, str] = field(default_factory=dict)
    length: int | None = None
    mime_type: str | None = None
    change: ChangeKind | None = None

    def validate(self) -> None:
        for algo, hexdigest in self.digests.items():
            if not _HEX_RE.match(hexdigest):
                raise ValidationError(
                    "bad_digest", f"digest for {algo!r} is not lowercase hex: {hexdigest!r}"
                )
            expected = HEX_LENGTHS.get(algo)
            if expected is not None and len(hexdigest) != expected:
                raise ValidationError(
                    "bad_digest",
                    f"{algo} digest must be {expected} hex chars, got {len(hexdigest)}",
                )
        if self.length is not None and self.length < 0:
            raise ValidationError("bad_length", f"negative length: {self.length}")
        if self.mime_type is not None and not self.mime_type:
            raise ValidationError("bad_mime", "mime_type must be non-empty when present")


@dataclass
class ResourceEntry:
    """One synchronizable resource as carried in a list document."""

    uri: str
    lastmod: datetime | None = None
    metadata: ResourceMetadata = field(default_factory=ResourceMetadata)

    def validate(self) -> None:
        if not is_absolute_uri(self.uri):
            raise ValidationError("bad_uri", f"URI is not absolute: {self.uri!r}")
        self.metadata.validate()


@dataclass
class SyncDocument:
    """A resource list, change list, or index of either."""

    capability: CapabilityKind
    modified: datetime
    entries: list[ResourceEntry] = field(default_factory=list)


def validate_document(doc: SyncDocument) -> None:
    """Check every SyncDocument invariant; raise ValidationError on the first violation.

    Invoked by every deserialization path and again before serialization.
    """
    if not isinstance(doc.capability, CapabilityKind):
        raise ValidationError("unknown_capability", f"unknown capability: {doc.capability!r}")
    if doc.modified.tzinfo is None:
        raise ValidationError("bad_datetime", "document modified instant must be UTC-aware")

    is_index = doc.capability.is_index
    if not is_index and len(doc.entries) > MAX_DOCUMENT_ENTRIES:
        raise ValidationError(
            "oversize_document",
            f"{len(doc.entries)} entries exceed the {MAX_DOCUMENT_ENTRIES} cap",
        )

    for entry in doc.entries:
        entry.validate()
        if is_index and (entry.metadata.change is not None or entry.metadata.digests):
            raise ValidationError(
                "entry_in_index",
                f"index member {entry.uri} carries resource-level attributes",
            )

    if doc.capability == CapabilityKind.RESOURCELIST:
        for entry in doc.entries:
            if entry.metadata.change is not None:
                raise ValidationError(
                    "unexpected_change",
                    f"resource list entry {entry.uri} carries a change kind",
                )
    elif doc.capability == CapabilityKind.CHANGELIST:
        prev: datetime | None = None
        for entry in doc.entries:
            if entry.metadata.change is None:
                raise ValidationError(
                    "missing_change", f"change list entry {entry.uri} lacks a change kind"
                )
            if entry.lastmod is None:
                raise ValidationError(
                    "missing_lastmod", f"change list entry {entry.uri} lacks lastmod"
                )
            if prev is not None and entry.lastmod < prev:
                raise ValidationError(
                    "bad_order", f"change list entries out of lastmod order at {entry.uri}"
                )
            prev = entry.lastmod

    # Change lists are event streams and may repeat a URI; snapshot-like
    # documents (resource lists and indexes) may not.
    if doc.capability != CapabilityKind.CHANGELIST:
        seen: set[str] = set()
        for entry in doc.entries:
            if entry.uri in seen:
                raise ValidationError("duplicate_uri", f"duplicate URI: {entry.uri}")
            seen.add(entry.uri)


@dataclass
class Inventory:
    """Snapshot of a local resource tree keyed by canonical URI."""

    base_uri: str
    items: dict[str, ResourceEntry]
    taken_at: datetime

    def validate(self) -> None:
        for uri, entry in self.items.items():
            if not uri.startswith(self.base_uri):
                raise ValidationError(
                    "bad_uri", f"item {uri} does not start with base {self.base_uri}"
                )
            if entry.lastmod is None:
                raise ValidationError("missing_lastmod", f"inventory item {uri} lacks lastmod")
            if not entry.metadata.digests:
                raise ValidationError("bad_digest", f"inventory item {uri} lacks a digest")


@dataclass
class StateRecord:
    """What the destination holds for one URI."""

    local_path: str
    lastmod: datetime
    digest: str  # "algo:hex"


@dataclass
class DestinationState:
    """Persistent record of a destination store; single-writer."""

    source_id: str = ""
    records: dict[str, StateRecord] = field(default_factory=dict)
    last_sync: datetime | None = None

    def validate(self) -> None:
        seen_paths: set[str] = set()
        for uri, rec in self.records.items():
            if rec.local_path in seen_paths:
                raise ValidationError(
                    "duplicate_path", f"local path {rec.local_path!r} recorded twice"
                )
            seen_paths.add(rec.local_path)
            if rec.local_path.startswith("/") or ".." in rec.local_path.split("/"):
                raise ValidationError(
                    "bad_path", f"local path for {uri} is absolute or traverses: {rec.local_path!r}"
                )
            if ":" not in rec.digest:
                raise ValidationError("bad_digest", f"record digest for {uri} lacks algo label")


@dataclass
class SyncReport:
    """Outcome counts for one baseline or incremental run."""

    created: int = 0
    updated: int = 0
    deleted: int = 0
    skipped: int = 0
    failed: int = 0
    bytes_transferred: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)

    def validate(self) -> None:
        for name in ("created", "updated", "deleted", "skipped", "failed", "bytes_transferred"):
            if getattr(self, name) < 0:
                raise ValidationError("bad_count", f"{name} is negative")
        if self.failed != len(self.failures):
            raise ValidationError("bad_count", "failed count disagrees with failures list")

    def to_dict(self) -> dict:
        return {
            "format_version": 1,
            "created": self.created,
            "updated": self.updated,
            "deleted": self.deleted,
            "skipped": self.skipped,
            "failed": self.failed,
            "bytes_transferred": self.bytes_transferred,
            "failures": [[uri, reason] for uri, reason in self.failures],
        }


@dataclass
class AuditReport:
    """Read-only comparison of a destination store against a source list."""

    in_sync: int = 0
    missing: list[str] = field(default_factory=list)
    stale: list[str] = field(default_factory=list)
    extraneous: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (self.missing or self.stale or self.extraneous)

    def to_dict(self) -> dict:
        return {
            "format_version": 1,
            "in_sync": self.in_sync,
            "missing": sorted(self.missing),
            "stale": sorted(self.stale),
            "extraneous": sorted(self.extraneous),
        }
