"""Destination engine: baseline synchronization, incremental synchronization, audit.

A destination keeps a local store directory plus a JSON state file recording,
per source URI, the relative local path, lastmod, and digest it holds. Every
file is written by ``atomic.atomic_file`` (downloads through a temp file in
the store root), so a killed run never leaves a partial file at a final path.
The store is its regular files as ``source.tree_files`` lists them.
Infrastructure entries in the store (lock, state, temp files) all start with
``.resync``: no URI maps onto one, and synchronization and audit ignore them.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

from .atomic import atomic_file, atomic_write_bytes
from .codec import parse_document
from .digests import DEFAULT_ALGORITHM, _HASHLIB_NAMES, hash_file
from .model import (
    AuditReport,
    CapabilityKind,
    ChangeKind,
    DestinationState,
    ResourceEntry,
    StateRecord,
    SyncReport,
    ValidationError,
    format_w3c_datetime,
    parse_w3c_datetime,
)
from .source import (
    PathMappingError,
    common_uri_prefix,
    local_path_for_uri,
    tree_files,
    uri_for_relpath,
)
from .transport import DigestMismatchError, TransportError, download_to, fetch

logger = logging.getLogger(__name__)

LOCK_FILE_NAME = ".resync.lock"
STATE_FILE_NAME = ".resync.state.json"

STATE_FORMAT_VERSION = 1


@dataclass
class SyncPolicy:
    """Knobs governing how a destination applies source changes."""

    apply_deletes: bool = True
    max_parallel_transfers: int = 4
    # When False, a change entry older than the locally recorded lastmod is
    # skipped (last writer wins); when True the entry is applied anyway.
    stale_wins: bool = False

    def validate(self) -> None:
        if self.max_parallel_transfers < 1:
            raise ValueError("max_parallel_transfers must be >= 1")


class SyncError(Exception):
    """Destination-side operation failed."""


class BaselineRequiredError(SyncError):
    """Incremental synchronization attempted before any completed baseline."""


class StateError(SyncError):
    """State file is corrupt or structurally invalid (never silently reset)."""


class StoreLockedError(SyncError):
    """Another synchronization run holds the store lock."""


# --- state persistence -----------------------------------------------------

def load_state(path: Path) -> DestinationState:
    """Load destination state; a missing file yields a fresh empty state."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return DestinationState()
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StateError(f"corrupt state file {path}: {exc}") from None
    if not isinstance(data, dict) or data.get("format_version") != STATE_FORMAT_VERSION:
        raise StateError(f"state file {path} has unsupported format_version")
    try:
        records = {}
        for uri, rec in data["records"].items():
            records[uri] = StateRecord(
                local_path=rec["local_path"],
                lastmod=parse_w3c_datetime(rec["lastmod"]),
                digest=rec["digest"],
            )
        state = DestinationState(
            source_id=data["source_id"],
            records=records,
            last_sync=(
                parse_w3c_datetime(data["last_sync"]) if data["last_sync"] is not None else None
            ),
        )
        state.validate()
    except (KeyError, TypeError, AttributeError, ValidationError) as exc:
        raise StateError(f"state file {path} is structurally invalid: {exc}") from None
    return state


def save_state(state: DestinationState, path: Path) -> None:
    """Atomically persist state as key-sorted JSON."""
    state.validate()
    data = {
        "format_version": STATE_FORMAT_VERSION,
        "source_id": state.source_id,
        "last_sync": format_w3c_datetime(state.last_sync) if state.last_sync else None,
        "records": {
            uri: {
                "local_path": rec.local_path,
                "lastmod": format_w3c_datetime(rec.lastmod),
                "digest": rec.digest,
            }
            for uri, rec in state.records.items()
        },
    }
    atomic_write_bytes(Path(path), json.dumps(data, sort_keys=True, indent=2).encode("utf-8"))


# --- URI <-> local path mapping ---------------------------------------------

def _map_paths(
    state: DestinationState, uris: list[str]
) -> tuple[str | None, dict[str, str], dict[str, PathMappingError]]:
    """The store's root URI, and a local path per URI: its recorded one, else
    one derived under the root.

    The root is fixed by the store's records, and read from any one of them:
    its URI minus as many trailing segments as its local path has. Only a
    store with no records takes the common prefix of ``uris``. A URI outside
    the root, whose path is unsafe, or is recorded or mapped for another URI,
    gets a PathMappingError instead of a path.
    """
    root = common_uri_prefix(uris) if uris and not state.records else None
    for uri, rec in state.records.items():  # any one record
        root = uri.rsplit("/", rec.local_path.count("/") + 1)[0] + "/"
        break
    paths = {uri: state.records[uri].local_path for uri in uris if uri in state.records}
    unmapped: dict[str, PathMappingError] = {}
    fresh = [uri for uri in uris if uri not in paths]
    owners = {rec.local_path: uri for uri, rec in state.records.items()} if fresh else {}
    for uri in fresh:
        try:
            rel = local_path_for_uri(uri, root)
        except PathMappingError as exc:
            unmapped[uri] = exc
            continue
        other = owners.setdefault(rel, uri)
        if other != uri:
            unmapped[uri] = PathMappingError(f"URIs {other!r} and {uri!r} both map to {rel!r}")
        else:
            paths[uri] = rel
    return root, paths, unmapped


# --- shared helpers ----------------------------------------------------------

@contextmanager
def _sync_run(store_dir: Path, state: DestinationState, state_path: Path | None):
    """One sync run per store at a time; the flock dies with the process.

    Once the lock is held, the state is saved however the run ends.
    """
    store_dir.mkdir(parents=True, exist_ok=True)
    lock_path = store_dir / LOCK_FILE_NAME
    fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            raise StoreLockedError(f"another sync run holds {lock_path}") from None
        os.ftruncate(fd, 0)
        os.write(fd, f"{os.getpid()}\n".encode())
        try:
            yield
        finally:
            if state_path is not None:
                save_state(state, state_path)
    finally:
        os.close(fd)


def _fetch_entries(document_uri: str, expect_entry_capability: CapabilityKind) -> tuple:
    """Fetch a list document, following an index to its members if needed.

    Returns (modified, entries). For change lists, entries from multiple
    members are merged in lastmod order (stable).
    """
    root = parse_document(fetch(document_uri).body)
    if root.capability == expect_entry_capability:
        return root.modified, list(root.entries)
    expected_index = (
        CapabilityKind.RESOURCELIST_INDEX
        if expect_entry_capability == CapabilityKind.RESOURCELIST
        else CapabilityKind.CHANGELIST_INDEX
    )
    if root.capability != expected_index:
        raise SyncError(
            f"{document_uri} has capability {root.capability.value}, "
            f"expected {expect_entry_capability.value} or {expected_index.value}"
        )
    entries: list[ResourceEntry] = []
    for member in root.entries:
        doc = parse_document(fetch(member.uri).body)
        if doc.capability != expect_entry_capability:
            raise SyncError(
                f"index member {member.uri} has capability {doc.capability.value}"
            )
        entries.extend(doc.entries)
    if expect_entry_capability == CapabilityKind.RESOURCELIST:
        seen = set()
        for entry in entries:
            if entry.uri in seen:
                raise SyncError(f"URI {entry.uri} listed by more than one index member")
            seen.add(entry.uri)
    else:
        entries.sort(key=lambda e: e.lastmod)  # stable: ties keep member order
    return root.modified, entries


def _pick_listed_digest(entry: ResourceEntry) -> tuple[str, str] | None:
    """The strongest digest a list entry carries that this program can compute."""
    listed = entry.metadata.digests
    for algo in reversed(_HASHLIB_NAMES):
        if algo in listed:
            return algo, listed[algo]
    return None


def _download_resource(entry: ResourceEntry, final_path: Path, store_dir: Path) -> tuple[int, str]:
    """Download into a temp file in the store root, check the entry's listed
    digest (a mismatch is retried once) and rename the file into place."""
    listed = _pick_listed_digest(entry)
    attempts = 2 if listed else 1
    for attempt in range(attempts):
        try:
            with atomic_file(final_path, store_dir) as out:
                return download_to(entry.uri, out, listed)
        except DigestMismatchError:
            if attempt + 1 == attempts:
                raise
            logger.warning("digest mismatch for %s, retrying once", entry.uri)


# --- plan ----------------------------------------------------------------------

@dataclass
class _Plan:
    """Per-URI actions for one run: the syncs apply them, audit only reads them."""

    last_sync: datetime | None  # what the store reflects once applied without a failure
    # uri -> (local path, entry to download, lastmod to record, change kinds it counts)
    downloads: dict[str, tuple[str, ResourceEntry, datetime, list[ChangeKind]]] = field(
        default_factory=dict
    )
    # (uri whose record goes with the file, or None; local path; change kinds it counts)
    deletes: list[tuple[str | None, str, list[ChangeKind]]] = field(default_factory=list)
    # uri -> (local path, lastmod, "algo:hex" if hashed) of copies kept without transfer
    keep: dict[str, tuple[str, datetime, str | None]] = field(default_factory=dict)
    skipped: int = 0  # change entries not applied
    stale: list[str] = field(default_factory=list)  # downloads replacing a local copy
    unmapped: dict[str, PathMappingError] = field(default_factory=dict)
    root: str | None = None  # URI prefix of the store's paths, None for an empty store


def _compare(
    entry: ResourceEntry, local: Path, record: StateRecord | None
) -> tuple[str, str | None]:
    """Judge a local copy by the strongest evidence its list entry carries.

    Digest (re-hashed from the local bytes), then length, then lastmod
    against the recorded one; otherwise presence alone ("present"). Returns
    the verdict and the local "algo:hex" when the bytes were hashed.
    """
    if not local.is_file():
        return "missing", None
    listed = _pick_listed_digest(entry)
    if listed is not None:
        algo, expected_hex = listed
        actual = hash_file(local, (algo,))[algo]
        return ("same" if actual == expected_hex else "stale"), f"{algo}:{actual}"
    if entry.metadata.length is not None:
        return ("same" if local.stat().st_size == entry.metadata.length else "stale"), None
    if entry.lastmod is not None and record is not None:
        return ("same" if entry.lastmod == record.lastmod else "stale"), None
    return "present", None


def _plan_list(
    entries: list[ResourceEntry], modified: datetime, state: DestinationState, store_dir: Path
) -> _Plan:
    """Download missing and stale entries, keep the same ones, and delete the
    files and records the list does not name."""
    root, paths, unmapped = _map_paths(state, [e.uri for e in entries])
    plan = _Plan(last_sync=modified, unmapped=unmapped, root=root)
    presence_only = False
    for entry in entries:
        path = paths.get(entry.uri)
        if path is None:
            continue
        record = state.records.get(entry.uri)
        verdict, digest = _compare(entry, store_dir / path, record)
        lastmod = entry.lastmod or modified
        if verdict in ("same", "present"):
            presence_only |= verdict == "present"
            plan.keep[entry.uri] = (path, lastmod, digest)
            continue
        if verdict == "stale":
            plan.stale.append(entry.uri)
        kind = ChangeKind.CREATED if record is None else ChangeKind.UPDATED
        plan.downloads[entry.uri] = (path, entry, lastmod, [kind])
    if presence_only:
        logger.warning(
            "resource list carries no digest, length or recorded lastmod for some "
            "resources; only their presence is compared"
        )
    listed_paths = set(paths.values())
    owners = {rec.local_path: uri for uri, rec in state.records.items() if uri not in paths}
    for _, rel in tree_files(store_dir):
        if rel not in listed_paths:
            plan.deletes.append((owners.pop(rel, None), rel, [ChangeKind.DELETED]))
    plan.deletes.extend((uri, rel, []) for rel, uri in owners.items())
    return plan


def _plan_changes(
    entries: list[ResourceEntry], modified: datetime, state: DestinationState, policy: SyncPolicy
) -> _Plan:
    """Coalesce each URI's events after ``last_sync`` onto its final one."""
    groups: dict[str, list[ResourceEntry]] = {}
    for entry in entries:
        if entry.lastmod > state.last_sync:  # earlier entries are already reflected
            groups.setdefault(entry.uri, []).append(entry)
    _, paths, unmapped = _map_paths(state, list(groups))
    plan = _Plan(
        last_sync=modified if groups and modified > state.last_sync else None,
        unmapped=unmapped,
    )
    for uri, group in groups.items():
        path = paths.get(uri)
        if path is None:
            continue
        final = group[-1]
        kinds = [e.metadata.change for e in group]
        record = state.records.get(uri)
        if final.metadata.change == ChangeKind.DELETED:
            if policy.apply_deletes:
                plan.deletes.append((uri, path, kinds))
                continue
        elif record is None or final.lastmod >= record.lastmod or policy.stale_wins:
            plan.downloads[uri] = (path, final, final.lastmod, kinds)
            continue
        plan.skipped += len(group)  # delete suppressed by policy, or older than the local copy
    return plan


# --- apply ---------------------------------------------------------------------

def _apply(plan: _Plan, store_dir: Path, state: DestinationState, policy: SyncPolicy) -> SyncReport:
    """Carry out a plan: record kept copies, delete, then download in a pool.

    An unmappable URI raises before anything is touched. Each action counts
    only once it succeeded; ``last_sync`` advances only if nothing failed.
    """
    for exc in plan.unmapped.values():
        raise exc
    report = SyncReport(skipped=plan.skipped + len(plan.keep))
    counted: list[ChangeKind] = []
    for uri, (path, lastmod, digest) in plan.keep.items():
        if digest is None:  # judged without hashing: record a digest of the bytes kept
            hexdigest = hash_file(store_dir / path, (DEFAULT_ALGORITHM,))[DEFAULT_ALGORITHM]
            digest = f"{DEFAULT_ALGORITHM}:{hexdigest}"
        state.records[uri] = StateRecord(path, lastmod, digest)
    for uri, path, kinds in plan.deletes:
        if not policy.apply_deletes:  # change plans have already skipped theirs
            logger.warning("extraneous local file or record kept (no-delete policy): %s", path)
            continue
        try:
            (store_dir / path).unlink(missing_ok=True)
        except OSError as exc:
            report.failures.append((uri or path, str(exc)))
            continue
        state.records.pop(uri, None)
        counted += kinds
        try:  # the lock file keeps the store root itself from being removed
            os.removedirs((store_dir / path).parent)
        except OSError:
            pass

    # While transfers are in flight this thread only collects their results.
    with ThreadPoolExecutor(max_workers=policy.max_parallel_transfers) as pool:
        futures = {
            pool.submit(_download_resource, entry, store_dir / path, store_dir): uri
            for uri, (path, entry, _, _) in plan.downloads.items()
        }
        for future in as_completed(futures):
            uri = futures[future]
            path, _, lastmod, kinds = plan.downloads[uri]
            try:
                length, digest = future.result()
            except (TransportError, OSError) as exc:
                report.failures.append((uri, str(exc)))
                continue
            state.records[uri] = StateRecord(path, lastmod, digest)
            report.bytes_transferred += length
            counted += kinds

    report.created = counted.count(ChangeKind.CREATED)
    report.updated = counted.count(ChangeKind.UPDATED)
    report.deleted = counted.count(ChangeKind.DELETED)
    report.failed = len(report.failures)
    if report.failed == 0 and plan.last_sync is not None:
        state.last_sync = plan.last_sync
    return report


# --- operations ----------------------------------------------------------------

def baseline_sync(
    resource_list_uri: str,
    store_dir: Path,
    state: DestinationState,
    policy: SyncPolicy | None = None,
    *,
    state_path: Path | None = None,
) -> SyncReport:
    """Align the store with the source's full resource list.

    Resources already present and judged the same by the evidence the list
    carries (see ``audit``) are skipped without transfer. Local files not in
    the list are deleted when the policy says so. ``state.last_sync``
    advances to the list's modified instant only if nothing failed;
    successful transfers are recorded either way.
    """
    policy = policy or SyncPolicy()
    store_dir = Path(store_dir)
    with _sync_run(store_dir, state, state_path):
        modified, entries = _fetch_entries(resource_list_uri, CapabilityKind.RESOURCELIST)
        state.source_id = resource_list_uri
        plan = _plan_list(entries, modified, state, store_dir)
        return _apply(plan, store_dir, state, policy)


def incremental_sync(
    changelist_uri: str,
    store_dir: Path,
    state: DestinationState,
    policy: SyncPolicy | None = None,
    *,
    state_path: Path | None = None,
) -> SyncReport:
    """Apply a change list: download created/updated entries, remove deleted.

    Entries with lastmod <= last_sync are already reflected and are filtered
    out before any counting. Remaining entries are applied in lastmod order;
    within one run, multiple events for the same URI coalesce onto the final
    event (the source only serves the latest representation), while every
    entry still counts toward the report under its own change kind.
    """
    if state.last_sync is None:
        raise BaselineRequiredError("incremental sync requires a completed baseline")
    policy = policy or SyncPolicy()
    store_dir = Path(store_dir)
    with _sync_run(store_dir, state, state_path):
        modified, entries = _fetch_entries(changelist_uri, CapabilityKind.CHANGELIST)
        plan = _plan_changes(entries, modified, state, policy)
        return _apply(plan, store_dir, state, policy)


def audit(
    resource_list_uri: str,
    store_dir: Path,
    state: DestinationState,
    policy: SyncPolicy | None = None,
) -> AuditReport:
    """Read-only comparison of the store against the source's resource list.

    Per listed URI the strongest available evidence decides: digest
    (recomputed over local bytes), then length, then lastmod; a list without
    any metadata can only surface missing/extraneous. No resource bodies are
    transferred and nothing is mutated: this is baseline's plan, not applied.
    """
    store_dir = Path(store_dir)
    modified, entries = _fetch_entries(resource_list_uri, CapabilityKind.RESOURCELIST)
    plan = _plan_list(entries, modified, state, store_dir)
    stale = set(plan.stale)
    report = AuditReport(in_sync=len(plan.keep), stale=plan.stale)
    report.missing = [*plan.unmapped, *(u for u in plan.downloads if u not in stale)]
    for uri, rel, _ in plan.deletes:
        if uri is None:
            uri = uri_for_relpath(plan.root, rel) if plan.root else rel
        report.extraneous.append(uri)
    return report
