"""Sitemap-based web resource synchronization.

A source publishes resource lists and change lists for a tree of web
resources; a destination performs baseline synchronization, incremental
synchronization, and audit against them. Includes a deterministic churn
simulator and a minimal static file server for end-to-end testing.
"""

from .codec import CodecError, parse_document, serialize_document
from .destination import (
    BaselineRequiredError,
    StateError,
    StoreLockedError,
    SyncError,
    SyncPolicy,
    audit,
    baseline_sync,
    incremental_sync,
    load_state,
    save_state,
)
from .model import (
    AuditReport,
    CapabilityKind,
    ChangeKind,
    DestinationState,
    Inventory,
    ResourceEntry,
    ResourceMetadata,
    StateRecord,
    SyncDocument,
    SyncReport,
    ValidationError,
)
from .simulator import SimConfig, SourceSimulator
from .source import ChangeLog, SourceConfig, diff_inventories, generate_resource_list, scan
from .transport import DigestMismatchError, FetchResult, TransportError, download_to, fetch, serve

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "BaselineRequiredError",
    "CapabilityKind",
    "ChangeKind",
    "ChangeLog",
    "CodecError",
    "DestinationState",
    "DigestMismatchError",
    "FetchResult",
    "Inventory",
    "ResourceEntry",
    "ResourceMetadata",
    "SimConfig",
    "SourceConfig",
    "SourceSimulator",
    "StateError",
    "StateRecord",
    "StoreLockedError",
    "SyncDocument",
    "SyncError",
    "SyncPolicy",
    "SyncReport",
    "TransportError",
    "ValidationError",
    "audit",
    "baseline_sync",
    "diff_inventories",
    "download_to",
    "fetch",
    "generate_resource_list",
    "incremental_sync",
    "load_state",
    "parse_document",
    "save_state",
    "scan",
    "serialize_document",
    "serve",
    "__version__",
]
