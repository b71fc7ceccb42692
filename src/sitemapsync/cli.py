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
from datetime import datetime, timedelta, timezone
from pathlib import Path

from .atomic import atomic_write_bytes
from .codec import CodecError, serialize_document
from .destination import (
    BaselineRequiredError,
    StateError,
    SyncError,
    SyncPolicy,
    audit,
    baseline_sync,
    common_uri_prefix,
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
    as_utc_instant,
)
from .simulator import SIM_EPOCH, SimConfig, run as run_simulation, publish as publish_simulation
from .source import (
    ChangeLog,
    SourceConfig,
    changelist_window_name,
    diff_inventories,
    emit_changelists,
    publish_resource_list,
    scan,
)
from .transport import TransportError, fetch, serve
from . import codec

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2
EXIT_BASELINE_REQUIRED = 3
EXIT_USAGE = 64

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        _error_line(f"usage: {message}")
        raise SystemExit(EXIT_USAGE)


def _error_line(message: str) -> None:
    print("error: " + " ".join(str(message).split()), file=sys.stderr)


def _load_ini(path: str | None) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    if path:
        with open(path, encoding="utf-8") as fh:
            cfg.read_file(fh)
    return cfg


def _opt(args_value, cfg: configparser.ConfigParser, section: str, option: str, default, cast):
    """flag > config file > default."""
    if args_value is not None:
        return args_value
    if cfg.has_option(section, option):
        raw = cfg.get(section, option)
        if cast is bool:
            return cfg.getboolean(section, option)
        return cast(raw)
    return default


def _source_config(args, cfg) -> SourceConfig:
    root = _opt(getattr(args, "root", None), cfg, "source", "root", None, Path)
    base_uri = _opt(getattr(args, "base_uri", None), cfg, "source", "base_uri", None, str)
    if root is None or base_uri is None:
        raise ValueError("--root and --base-uri are required (flag or [source] config)")
    digests = _opt(getattr(args, "digests", None), cfg, "source", "digests", "md5", str)
    excludes = _opt(getattr(args, "exclude", None), cfg, "source", "excludes", "", str)
    period = _opt(getattr(args, "period", None), cfg, "source", "period", 86_400, int)
    config = SourceConfig(
        root_dir=Path(root),
        base_uri=base_uri,
        digest_algorithms=tuple(x.strip() for x in str(digests).split(",") if x.strip()),
        exclude_patterns=tuple(x.strip() for x in str(excludes).split(",") if x.strip()),
        changelist_period=int(period),
    )
    config.validate()
    return config


def _policy(args, cfg) -> SyncPolicy:
    policy = SyncPolicy(
        apply_deletes=_opt(
            getattr(args, "apply_deletes", None), cfg, "destination", "apply_deletes", True, bool
        ),
        max_parallel_transfers=_opt(
            getattr(args, "parallel", None), cfg, "destination", "max_parallel_transfers", 4, int
        ),
        verify_digests=_opt(
            getattr(args, "verify_digests", None), cfg, "destination", "verify_digests", True, bool
        ),
        stale_wins=_opt(
            getattr(args, "stale_wins", None), cfg, "destination", "stale_wins", False, bool
        ),
    )
    policy.validate()
    return policy


def _state_path(args, cfg) -> Path:
    store = Path(args.store)
    default = store / STATE_FILE_NAME
    return Path(_opt(getattr(args, "state", None), cfg, "destination", "state", default, Path))


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


def _write_documents(docs, out_dir: Path | None, names: list[str]) -> int:
    if out_dir is None:
        if len(docs) != 1:
            raise ValueError("multiple documents produced; --out DIR is required")
        sys.stdout.buffer.write(serialize_document(docs[0]))
        return EXIT_OK
    for doc, name in zip(docs, names):
        atomic_write_bytes(out_dir / name, serialize_document(doc))
    return EXIT_OK


# --- subcommands -------------------------------------------------------------

def cmd_list(args) -> int:
    cfg = _load_ini(args.config)
    config = _source_config(args, cfg)
    inv = scan(config)
    out_dir = Path(args.out) if args.out else Path(".")
    written = publish_resource_list(
        inv, datetime.now(timezone.utc), out_dir, args.list_base_uri
    )
    logger.info("wrote %s", ", ".join(str(p) for p in written))
    print(len(inv.items))
    return EXIT_OK


def _parse_resource_list(path: Path):
    doc = codec.parse_document(Path(path).read_bytes())
    if doc.capability != CapabilityKind.RESOURCELIST:
        raise ValueError(f"{path} is not a resource list document")
    return doc


def _snapshot_inventories(args, old_path: str, new_path: str) -> tuple[Inventory, Inventory]:
    """Snapshots may be directories (scanned) or resource list documents."""
    old, new = Path(old_path), Path(new_path)
    if old.is_dir() != new.is_dir():
        raise ValueError("--old and --new must both be directories or both documents")
    if old.is_dir():
        base_uri = getattr(args, "base_uri", None)
        if base_uri is None:
            raise ValueError("--base-uri is required when diffing directories")
        return (
            scan(SourceConfig(root_dir=old, base_uri=base_uri)),
            scan(SourceConfig(root_dir=new, base_uri=base_uri)),
        )
    docs = (_parse_resource_list(old), _parse_resource_list(new))
    uris = [e.uri for doc in docs for e in doc.entries]
    if not uris:
        raise ValueError("cannot diff two empty resource lists (no URI prefix)")
    base = common_uri_prefix(uris)  # shared prefix keeps both inventories comparable
    inventories = []
    for doc in docs:
        inv = Inventory(
            base_uri=base, items={e.uri: e for e in doc.entries}, taken_at=doc.modified
        )
        inv.validate()
        inventories.append(inv)
    return inventories[0], inventories[1]


def cmd_changes(args) -> int:
    cfg = _load_ini(args.config)
    out_dir = Path(args.out) if args.out else None
    if args.log:
        period = int(_opt(args.period, cfg, "source", "period", 86_400, int))
        log = ChangeLog.load(Path(args.log))
        docs = emit_changelists(log, period)
        names = [changelist_window_name(doc.modified, period) for doc in docs]
        return _write_documents(docs, out_dir, names)
    if not (args.old and args.new):
        raise ValueError("either --log FILE or both --old and --new are required")
    old, new = _snapshot_inventories(args, args.old, args.new)
    doc = diff_inventories(old, new)
    return _write_documents([doc], out_dir, ["changelist.xml"])


def cmd_baseline(args) -> int:
    cfg = _load_ini(args.config)
    policy = _policy(args, cfg)
    state_path = _state_path(args, cfg)
    state = load_state(state_path)
    report = baseline_sync(
        args.source, Path(args.store), state, policy, state_path=state_path
    )
    _print_report(report, args.format)
    return EXIT_OK if report.failed == 0 else EXIT_PARTIAL


def cmd_sync(args) -> int:
    cfg = _load_ini(args.config)
    policy = _policy(args, cfg)
    state_path = _state_path(args, cfg)
    state = load_state(state_path)
    report = incremental_sync(
        args.source, Path(args.store), state, policy, state_path=state_path
    )
    _print_report(report, args.format)
    return EXIT_OK if report.failed == 0 else EXIT_PARTIAL


def cmd_audit(args) -> int:
    cfg = _load_ini(args.config)
    policy = _policy(args, cfg)
    state_path = _state_path(args, cfg)
    try:
        state = load_state(state_path)
        report = audit(args.source, Path(args.store), state, policy)
    except (TransportError, CodecError, SyncError, ValidationError, OSError) as exc:
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
    sim_config = SimConfig(
        seed=int(_opt(args.seed, cfg, "simulator", "seed", 0, int)),
        n_initial=int(_opt(args.n_initial, cfg, "simulator", "n_initial", 100, int)),
        event_rate=float(_opt(args.rate, cfg, "simulator", "event_rate", 1.4, float)),
        p_create=float(_opt(None, cfg, "simulator", "p_create", 0.1, float)),
        p_update=float(_opt(None, cfg, "simulator", "p_update", 0.8, float)),
        p_delete=float(_opt(None, cfg, "simulator", "p_delete", 0.1, float)),
        body_size_range=(
            int(_opt(None, cfg, "simulator", "body_min", 64, int)),
            int(_opt(None, cfg, "simulator", "body_max", 1024, int)),
        ),
        duration=float(_opt(args.duration, cfg, "simulator", "duration", 60.0, float)),
        burst_size=_opt(args.burst, cfg, "simulator", "burst_size", None, int),
    )
    base_uri = _opt(args.base_uri, cfg, "simulator", "base_uri", None, str)
    if base_uri is None:
        raise ValueError("--base-uri is required (resources are published under it)")
    period = int(_opt(args.period, cfg, "source", "period", 86_400, int))
    out = Path(args.out)
    sim_root = out / "res"
    log = run_simulation(sim_config, sim_root, base_uri, start=SIM_EPOCH)
    end = as_utc_instant(SIM_EPOCH + timedelta(seconds=1 + sim_config.duration))
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
    p.add_argument("--exclude", help="comma-separated glob patterns to skip")
    p.add_argument("--list-base-uri", dest="list_base_uri",
                   help="URI prefix for partitioned list members")
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

    def add_dest_args(p):
        p.add_argument("--source", required=True, help="document URL at the source")
        p.add_argument("--store", required=True, help="local store directory")
        p.add_argument("--state", help="state file path (default <store>/.resync.state.json)")
        p.add_argument("--parallel", type=int, help="max parallel transfers")
        p.add_argument("--no-delete", dest="apply_deletes", action="store_false", default=None,
                       help="keep local files the source no longer lists")
        p.add_argument("--no-verify", dest="verify_digests", action="store_false", default=None,
                       help="skip digest verification of downloads")
        p.add_argument("--stale-wins", dest="stale_wins", action="store_true", default=None,
                       help="apply change entries even when older than the local copy")

    p = sub.add_parser("baseline", parents=[common], help="full synchronization from a resource list")
    add_dest_args(p)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("sync", parents=[common], help="incremental synchronization from a change list")
    add_dest_args(p)
    p.set_defaults(func=cmd_sync)

    p = sub.add_parser("audit", parents=[common], help="verify the store against a resource list")
    add_dest_args(p)
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
    p.add_argument("--rate", type=float, help="events per second")
    p.add_argument("--duration", type=float, help="virtual seconds to simulate")
    p.add_argument("--burst", type=int, help="release exactly N events at one instant instead")
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
