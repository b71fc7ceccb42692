"""Single entry point exposing the source, destination, and simulator engines.

Exit codes are stable API:
  0   success (for ``audit``: fully in sync)
  1   operational error; for ``audit``: store differs from source
  2   partial failure (some transfers failed); for ``audit``: audit error
  3   ``sync`` invoked before any completed baseline
  64  usage error

Logging goes to standard error only; documents and reports go to files or
standard output, never interleaved.
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import signal
import sys
import threading
from dataclasses import fields
from datetime import datetime, timedelta, timezone
from pathlib import Path

from .codec import CodecError, serialize_document
from .destination import (
    BaselineRequiredError,
    StateError,
    SyncError,
    SyncPolicy,
    audit,
    baseline_sync,
    incremental_sync,
    load_state,
    STATE_FILE_NAME,
)
from .model import (
    AuditReport,
    CapabilityKind,
    Inventory,
    SyncReport,
    ValidationError,
)
from .simulator import SimConfig, SourceSimulator, publish as publish_simulation
from .source import (
    CURRENT_CHANGELIST_NAME,
    DAY_SECONDS,
    ChangeLog,
    PathMappingError,
    SourceConfig,
    common_uri_prefix,
    diff_inventories,
    publish_changelists,
    publish_resource_list,
    scan,
    web_root_uri,
    write_documents,
)
from .transport import TransportError, serve
from . import codec

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2
EXIT_BASELINE_REQUIRED = 3
EXIT_USAGE = 64

logger = logging.getLogger(__name__)


def _csv(value: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in value.split(",") if x.strip())


# Every config key a command reads, per INI section, with its type; any other
# is a usage error. A flag that overrides a key has the key as its dest.
CONFIG_KEYS = {
    "source": {"root": Path, "base_uri": str, "digests": _csv, "excludes": _csv, "period": int},
    "destination": {
        "apply_deletes": bool, "max_parallel_transfers": int, "stale_wins": bool, "state": Path,
    },
    "simulator": {
        "seed": int, "n_initial": int, "event_rate": float, "p_create": float, "p_update": float,
        "p_delete": float, "body_min": int, "body_max": int, "duration": float,
        "burst_size": int, "base_uri": str,
    },
}


class _UsageError(Exception):
    """The command line or config file asks for something no command reads."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        _error_line(f"usage: {message}")
        raise SystemExit(EXIT_USAGE)


def _error_line(message: str) -> None:
    print("error: " + " ".join(str(message).split()), file=sys.stderr)


def _load_ini(path: str | None) -> configparser.ConfigParser:
    # No default section: a [DEFAULT] header is checked like any other section.
    cfg = configparser.ConfigParser(default_section="")
    if path:
        with open(path, encoding="utf-8") as fh:
            cfg.read_file(fh)
    for section in cfg.sections():
        if section not in CONFIG_KEYS:
            raise _UsageError(f"unknown section [{section}] in {path}")
        for key in cfg.options(section):
            if key not in CONFIG_KEYS[section]:
                raise _UsageError(f"unknown key {key!r} in [{section}] of {path}")
    return cfg


def _settings(args, cfg: configparser.ConfigParser, section: str, *keys: str) -> dict:
    """The ``keys`` (default: all) of ``section`` that a flag, or else the config
    file, sets, cast by ``CONFIG_KEYS``; a key neither sets keeps its library default."""
    out = {}
    for key in keys or CONFIG_KEYS[section]:
        cast, value = CONFIG_KEYS[section][key], getattr(args, key, None)
        if value is None and cfg.has_option(section, key):
            value = cfg.getboolean(section, key) if cast is bool else cfg.get(section, key)
        if value is not None:
            out[key] = cast(value)
    return out


def _source_config(args, cfg, root: Path | None = None) -> SourceConfig:
    """``[source]`` scan settings, flags first; a given ``root`` is the tree to scan."""
    found = _settings(args, cfg, "source", "root", "base_uri", "digests", "excludes")
    if root is not None:
        found["root"] = root
    if "root" not in found or "base_uri" not in found:
        raise ValueError("--root and --base-uri are required (flag or [source] config)")
    names = {"root": "root_dir", "base_uri": "base_uri", "digests": "digest_algorithms",
             "excludes": "exclude_patterns"}
    config = SourceConfig(**{names[key]: value for key, value in found.items()})
    config.validate()
    return config


def _policy(args, cfg) -> SyncPolicy:
    """Flags over config file; a value failing its cast or ``validate`` is a usage error."""
    keys = [f.name for f in fields(SyncPolicy)]
    try:
        policy = SyncPolicy(**_settings(args, cfg, "destination", *keys))
        policy.validate()
    except ValueError as exc:
        raise _UsageError(f"bad sync policy: {exc}") from None
    return policy


def _state_path(args, cfg) -> Path:
    default = Path(args.store) / STATE_FILE_NAME
    return _settings(args, cfg, "destination", "state").get("state", default)


def _period(args, cfg) -> int:
    return _settings(args, cfg, "source", "period").get("period", DAY_SECONDS)


def _print_report(report: SyncReport | AuditReport, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return
    if isinstance(report, SyncReport):
        print(
            f"created: {report.created}\nupdated: {report.updated}\n"
            f"deleted: {report.deleted}\nskipped: {report.skipped}\n"
            f"failed: {report.failed}\nbytes_transferred: {report.bytes_transferred}"
        )
        for uri, reason in report.failures:
            print(f"failure: {uri}: {reason}")
    else:
        print(f"in_sync: {report.in_sync}")
        for label, uris in (
            ("missing", report.missing),
            ("stale", report.stale),
            ("extraneous", report.extraneous),
        ):
            print(f"{label}: {len(uris)}")
            for uri in sorted(uris):
                print(f"  {label}: {uri}")


# --- subcommands -------------------------------------------------------------

def cmd_list(args) -> int:
    cfg = _load_ini(args.config)
    config = _source_config(args, cfg)
    inv = scan(config)
    out_dir = Path(args.out) if args.out else Path(".")
    list_base_uri = args.list_base_uri or web_root_uri(config.root_dir, config.base_uri, out_dir)
    written = publish_resource_list(inv, datetime.now(timezone.utc), out_dir, list_base_uri)
    logger.info("wrote %s", ", ".join(str(p) for p in written))
    print(len(inv.items))
    return EXIT_OK


def _parse_resource_list(path: Path):
    doc = codec.parse_document(Path(path).read_bytes())
    if doc.capability != CapabilityKind.RESOURCELIST:
        raise ValueError(f"{path} is not a resource list document")
    return doc


def _snapshot_inventories(args, cfg) -> tuple[Inventory, Inventory]:
    """Snapshots may be directories (scanned by ``[source]``) or resource list documents."""
    old, new = Path(args.old), Path(args.new)
    if old.is_dir() != new.is_dir():
        raise ValueError("--old and --new must both be directories or both documents")
    if old.is_dir():
        return scan(_source_config(args, cfg, old)), scan(_source_config(args, cfg, new))
    docs = (_parse_resource_list(old), _parse_resource_list(new))
    # shared prefix keeps both inventories comparable
    base = common_uri_prefix([e.uri for doc in docs for e in doc.entries])
    old_inv, new_inv = (
        Inventory(base_uri=base, items={e.uri: e for e in doc.entries}, taken_at=doc.modified)
        for doc in docs
    )
    return old_inv, new_inv


def cmd_changes(args) -> int:
    cfg = _load_ini(args.config)
    if args.log:
        # Not written back, since a process appending to the file would lose
        # lines; so the seal in the file does not move.
        log = ChangeLog.load(Path(args.log))
        now = datetime.now(timezone.utc)
        written = publish_changelists(log, _period(args, cfg), Path(args.out or "."), now)
        logger.info("wrote %s", ", ".join(str(p) for p in written))
        return EXIT_OK
    if not (args.old and args.new):
        raise ValueError("either --log FILE or both --old and --new are required")
    doc = diff_inventories(*_snapshot_inventories(args, cfg))
    if args.out:
        write_documents([doc], [CURRENT_CHANGELIST_NAME], Path(args.out))
    else:
        sys.stdout.buffer.write(serialize_document(doc))
    return EXIT_OK


def _run_sync(args, operation) -> int:
    """Run ``baseline_sync`` or ``incremental_sync`` into the store and print its report."""
    cfg = _load_ini(args.config)
    policy = _policy(args, cfg)
    state_path = _state_path(args, cfg)
    state = load_state(state_path)
    report = operation(args.source, Path(args.store), state, policy, state_path=state_path)
    _print_report(report, args.format)
    return EXIT_OK if report.failed == 0 else EXIT_PARTIAL


def cmd_audit(args) -> int:
    cfg = _load_ini(args.config)
    state_path = _state_path(args, cfg)
    try:
        state = load_state(state_path)
        report = audit(args.source, Path(args.store), state)
    except (TransportError, CodecError, SyncError, PathMappingError, ValidationError, OSError) as exc:
        _error_line(f"{type(exc).__name__}: {exc}")
        return EXIT_PARTIAL
    _print_report(report, args.format)
    if args.report:
        Path(args.report).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return EXIT_OK if report.clean else EXIT_ERROR


def cmd_serve(args) -> int:
    handle = serve(Path(args.root), args.bind)
    logger.info("serving %s at %s (Ctrl-C stops)", args.root, handle.url)
    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop.set())
    stop.wait()
    handle.stop()
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_ini(args.config)
    found = _settings(args, cfg, "simulator")
    base_uri = found.pop("base_uri", None)
    if base_uri is None:
        raise ValueError("--base-uri is required (resources are published under it)")
    lo, hi = SimConfig.body_size_range
    body_size_range = (found.pop("body_min", lo), found.pop("body_max", hi))
    period = _period(args, cfg)
    out = Path(args.out)
    sim_root = out / "res"
    sim = SourceSimulator(SimConfig(body_size_range=body_size_range, **found), sim_root, base_uri)
    log = sim.run_to_completion()
    end = sim.end_time
    # Close every window for publication, but stamp the resource list with
    # the latest instant the snapshot can contain so that a follow-up
    # incremental sync never skips events recorded just after it.
    publish_simulation(
        sim_root,
        out,
        base_uri,
        log,
        period,
        now=end + timedelta(seconds=period),
        list_modified=end - timedelta(seconds=1),
    )
    log.save(out / "changelog.tsv")
    print(len(log))
    return EXIT_OK


# --- wiring ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sitemapsync", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI config file; flags override it")
    common.add_argument("--log-level", default=None, help="logging level (default WARNING)")
    common.add_argument(
        "--format", choices=("human", "json"), default="human", help="report output format"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", parents=[common], help="scan a tree and write its resource list")
    p.add_argument("--root", help="resource tree to scan")
    p.add_argument("--base-uri", dest="base_uri", help="URI prefix resources live under")
    p.add_argument("--out", help="directory for the generated document(s)")
    p.add_argument("--digests", help="comma-separated digest algorithms (default md5)")
    p.add_argument("--exclude", dest="excludes", help="comma-separated glob patterns to skip")
    p.add_argument("--list-base-uri", dest="list_base_uri",
                   help="URI prefix for partitioned list members (default: --out's URL)")
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("changes", parents=[common],
                       help="derive change lists from snapshots or a change log")
    p.add_argument("--old", help="older snapshot: directory or resource list XML")
    p.add_argument("--new", help="newer snapshot: directory or resource list XML")
    p.add_argument("--base-uri", dest="base_uri", help="URI prefix when snapshots are directories")
    p.add_argument("--log", help="change log file (one event per line)")
    p.add_argument("--period", type=int, help="window size in seconds (default 86400)")
    p.add_argument("--out", help="directory for the generated document(s)")
    p.set_defaults(func=cmd_changes)

    def add_store_args(p):
        p.add_argument("--source", required=True, help="document URL at the source")
        p.add_argument("--store", required=True, help="local store directory")
        p.add_argument("--state", help="state file path (default <store>/.resync.state.json)")

    def add_dest_args(p):
        add_store_args(p)
        p.add_argument("--parallel", dest="max_parallel_transfers", type=int,
                       help="max parallel transfers")
        p.add_argument("--no-delete", dest="apply_deletes", action="store_false", default=None,
                       help="keep local files the source no longer lists")
        p.add_argument("--stale-wins", dest="stale_wins", action="store_true", default=None,
                       help="apply change entries even when older than the local copy")

    p = sub.add_parser("baseline", parents=[common], help="full synchronization from a resource list")
    add_dest_args(p)
    p.set_defaults(func=lambda args: _run_sync(args, baseline_sync))

    p = sub.add_parser("sync", parents=[common], help="incremental synchronization from a change list")
    add_dest_args(p)
    p.set_defaults(func=lambda args: _run_sync(args, incremental_sync))

    p = sub.add_parser("audit", parents=[common], help="verify the store against a resource list")
    add_store_args(p)
    p.add_argument("--report", help="also write the report as JSON to this path")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("serve", parents=[common], help="serve a directory over HTTP until signalled")
    p.add_argument("--root", required=True, help="directory to serve")
    p.add_argument("--bind", default="127.0.0.1:8000", help="host:port (default 127.0.0.1:8000)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("simulate", parents=[common],
                       help="generate a synthetic source tree and its documents")
    p.add_argument("--out", required=True, help="output directory (resources under <out>/res)")
    p.add_argument("--base-uri", dest="base_uri", help="URI prefix the resources will be served at")
    p.add_argument("--seed", type=int, help="RNG seed")
    p.add_argument("--n-initial", dest="n_initial", type=int, help="initial resource count")
    p.add_argument("--rate", dest="event_rate", type=float, help="events per second")
    p.add_argument("--duration", type=float, help="virtual seconds to simulate")
    p.add_argument("--burst", dest="burst_size", type=int,
                   help="release exactly N events at one instant instead")
    p.add_argument("--period", type=int, help="change list window seconds (default 86400)")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, (args.log_level or "WARNING").upper(), logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except _UsageError as exc:
        _error_line(f"usage: {exc}")
        return EXIT_USAGE
    except BaselineRequiredError as exc:
        _error_line(f"BaselineRequiredError: {exc}")
        return EXIT_BASELINE_REQUIRED
    except (
        TransportError,
        CodecError,
        SyncError,
        StateError,
        ValidationError,
        ValueError,
        OSError,
    ) as exc:
        _error_line(f"{type(exc).__name__}: {exc}")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
