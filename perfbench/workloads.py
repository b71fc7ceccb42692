"""The benchmark's workloads, driven through the library's public API.

Each destination operation runs as one CLI invocation would: ``load_state``
from the store's state file, then the operation with ``state_path`` set, so
the state is saved again when it ends. The timed wall time of an operation
covers both. The load is a closed loop with one client; the destination's
transfer pool has ``POOL_SIZE`` threads. The source tree comes from the
simulator, is published with ``simulator.publish`` and is served over
loopback by ``transport.serve`` in a child process (``server.py``).

Teardown (stopping the server process and removing the temporary trees) is
never inside a timed region.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from datetime import timedelta
from pathlib import Path

from sitemapsync import destination, simulator
from sitemapsync.model import ChangeKind
from sitemapsync.simulator import SIM_EPOCH, SimConfig

POOL_SIZE = 2
POLICY = destination.SyncPolicy(max_parallel_transfers=POOL_SIZE)
PERIOD = 10  # seconds per change-list window
MIN_SETUPS = 11  # setup_s is the median of at least this many set-ups per run
# Burst rounds or poll windows between two set-ups: the set-ups are spread
# across the run, so their median does not hang on one stretch of it.
SETUP_EVERY = 10
# A resource list is stamped one second before the instant it was taken at.
# A sync or baseline sets the store's last_sync to the stamp, and events
# logged in the snapshot's last second are then applied by the next sync
# rather than skipped as already seen.
LIST_LEAD = timedelta(seconds=1)
SERVER_SCRIPT = Path(__file__).resolve().parent / "server.py"
# The client runs on one CPU and the server on the others, as on two hosts.
# A child process inherits its parent's CPUs, so the server is told its own.
_CPUS = sorted(os.sched_getaffinity(0))
CLIENT_CPUS = set(_CPUS[:1])
SERVER_CPUS = set(_CPUS[1:]) or CLIENT_CPUS

# Input sizes. "tiny" is the smoke-run size; every run the benchmark
# reports uses "full".
SIZES = {
    "burst": {"full": {"n_initial": 300, "burst": 450}, "tiny": {"n_initial": 30, "burst": 45}},
    "poll": {"full": {"n_initial": 500, "windows": 100}, "tiny": {"n_initial": 40, "windows": 12}},
}


class CheckFailed(Exception):
    """A correctness check failed; the run reports no numbers."""


@dataclass
class Samples:
    """Timings and operation counts of one benchmark run."""

    setup_s: list[float] = field(default_factory=list)
    baseline: list[tuple[int, float]] = field(default_factory=list)  # (listed, seconds)
    sync_s: list[float] = field(default_factory=list)
    sync_entries: int = 0
    audit: list[tuple[int, float]] = field(default_factory=list)  # (files checked, seconds)
    publish_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def count(self, report) -> None:
        self.attempted += (
            report.created + report.updated + report.deleted + report.skipped + report.failed
        )
        self.failed += report.failed
        if report.failed:
            raise CheckFailed(f"{report.failed} resource operations failed: {report.failures[:3]}")


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Server:
    """``transport.serve`` in a child process."""

    def __init__(self, root: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(SERVER_SCRIPT), str(root), ",".join(map(str, SERVER_CPUS))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.url = self.proc.stdout.readline().strip()
        if not self.url.startswith("http://"):
            self.stop()
            raise RuntimeError("benchmark server did not start")

    def stop(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Site:
    """A simulated source, its published documents, its server and one store."""

    def __init__(self, work: Path, config: SimConfig, samples: Samples, seed_store: bool):
        self.dir = work
        self.web = work / "web"
        self.res = self.web / "res"
        self.store = work / "store"
        self.state_path = self.store / destination.STATE_FILE_NAME
        self.web.mkdir(parents=True)
        self.server = None
        try:
            started = time.perf_counter()
            self.server = Server(self.web)
            self.base = self.server.url + "res/"
            self.sim = simulator.SourceSimulator(config, self.res, self.base, start=SIM_EPOCH)
            simulator.publish(self.res, self.web, self.base, self.sim.log, PERIOD, now=SIM_EPOCH)
            if seed_store:
                # An exact copy in files of its own: a simulator with the same
                # seed builds the same tree, in about half the time copying
                # it takes. (Hard links would share the inodes the simulator
                # rewrites in place, so the store would follow the source even
                # where a sync never applied an update.) The baseline checks
                # the copy and records the store's state.
                simulator.SourceSimulator(config, self.store, self.base, start=SIM_EPOCH)
                report, _ = invocation(
                    destination.baseline_sync, self.resource_list, self, state_path=self.state_path
                )
                samples.count(report)
                check_nothing_transferred(report, config.n_initial)
            samples.setup_s.append(time.perf_counter() - started)
        except BaseException:
            self.close()
            raise

    @property
    def resource_list(self) -> str:
        return self.server.url + "resourcelist.xml"

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        shutil.rmtree(self.dir, ignore_errors=True)


# --- timed operations ----------------------------------------------------------

def invocation(operation, source_uri: str, site: Site, **kwargs):
    """Load the state and run one destination operation, as one CLI invocation would.

    Returns the operation's result and the wall time of the load plus the
    operation. It runs in a new thread: the library keeps one HTTP session
    per thread, so the operation opens its own connections, as a new process
    does, instead of inheriting the state of a connection a previous
    operation left behind. The garbage a CLI process would take with it is
    collected afterwards, outside the timed region, so it does not inflate
    the next operation's peak memory.
    """
    outcome = {}

    def target():
        try:
            state = destination.load_state(site.state_path)
            outcome["result"] = operation(source_uri, site.store, state, POLICY, **kwargs)
        except BaseException as exc:  # handed to the calling thread below
            outcome["error"] = exc

    thread = threading.Thread(target=target, name="sitemapsync-invocation")
    started = time.perf_counter()
    thread.start()
    thread.join()
    elapsed = time.perf_counter() - started
    gc.collect()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"], elapsed


def baseline(samples: Samples, site: Site):
    report, elapsed = invocation(
        destination.baseline_sync, site.resource_list, site, state_path=site.state_path
    )
    samples.count(report)
    samples.baseline.append((report.created + report.updated + report.skipped, elapsed))
    return report


def sync(samples: Samples, site: Site):
    report, elapsed = invocation(
        destination.incremental_sync, site.server.url + "changelist.xml", site,
        state_path=site.state_path,
    )
    samples.sync_s.append(elapsed)
    samples.count(report)
    samples.sync_entries += report.created + report.updated + report.deleted + report.skipped
    return report


def audit(samples: Samples, site: Site, listed: int) -> None:
    report, elapsed = invocation(destination.audit, site.resource_list, site)
    check(report.clean, f"audit not clean: {len(report.missing)} missing, "
          f"{len(report.stale)} stale, {len(report.extraneous)} extraneous")
    check(report.in_sync == listed, f"audit checked {report.in_sync} of {listed} resources")
    samples.attempted += report.in_sync
    samples.audit.append((report.in_sync, elapsed))


def publish(samples: Samples, site: Site, now, list_modified=None) -> None:
    started = time.perf_counter()
    simulator.publish(
        site.res, site.web, site.base, site.sim.log, PERIOD, now=now, list_modified=list_modified
    )
    samples.publish_ms.append((time.perf_counter() - started) * 1e3)


# --- correctness -----------------------------------------------------------------

def _tree(root: Path) -> dict[str, Path]:
    out = {}
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            if not name.startswith(".resync"):
                path = Path(dirpath) / name
                out[path.relative_to(root).as_posix()] = path
    return out


def check_mirror(site: Site) -> int:
    """The store holds exactly the source tree's files, byte for byte."""
    src, dst = _tree(site.res), _tree(site.store)
    check(src.keys() == dst.keys(), f"store has {len(dst)} files, source has {len(src)}")
    for rel, path in src.items():
        check(path.read_bytes() == dst[rel].read_bytes(), f"bytes differ for {rel}")
    return len(src)


def check_nothing_transferred(report, listed: int) -> None:
    """A baseline of an aligned store skips every listed resource."""
    check(report.skipped == listed and report.created + report.updated + report.deleted == 0,
          f"baseline of an aligned store skipped {report.skipped} of {listed} and changed "
          f"{report.created + report.updated + report.deleted}")


def _histogram(log, since=None, until=None) -> dict[ChangeKind, int]:
    """Events of each kind in the log, or in its window ``since <= instant < until``."""
    counts = {kind: 0 for kind in ChangeKind}
    for rec in log.records:
        if (since is None or rec.instant >= since) and (until is None or rec.instant < until):
            counts[rec.change] += 1
    return counts


def check_applied(report, want: dict[ChangeKind, int]) -> None:
    """A sync applied exactly the logged events, each under its own kind, and skipped none."""
    got = {ChangeKind.CREATED: report.created, ChangeKind.UPDATED: report.updated,
           ChangeKind.DELETED: report.deleted}
    if report.skipped or any(got[k] != want[k] for k in got):
        show = lambda counts: {k.value: counts[k] for k in got}  # noqa: E731
        raise CheckFailed(f"sync counts {show(got)} (skipped {report.skipped}) differ from "
                          f"the simulator log {show(want)}")


# --- workloads ---------------------------------------------------------------------

def _cycles_left(deadline: float, cycle_times: list[float]) -> bool:
    return not cycle_times or time.perf_counter() + statistics.median(cycle_times) <= deadline


def run_burst(samples: Samples, size: dict, seed: int, deadline: float, work: Path) -> None:
    """Baseline into an empty store, one burst change list and one sync, then audits.

    After the sync and until the run's time is up, rounds each republish the
    unchanged source (the same work as the burst's publish) and audit the
    store, so that these short operations are sampled across the rest of the
    run rather than in one stretch of it. The other set-ups are spread among
    the rounds, one every ``SETUP_EVERY``.
    """
    config = SimConfig(
        seed=seed, n_initial=size["n_initial"], duration=60.0,
        burst_size=size["burst"], body_size_range=(16, 128),
    )
    end = SIM_EPOCH + timedelta(seconds=60)
    site = Site(work / "site", config, samples, seed_store=False)
    try:
        report = baseline(samples, site)
        check(report.created == size["n_initial"], f"baseline created {report.created}")
        site.sim.run_to_completion()
        check(len(site.sim.log) == size["burst"], "simulator did not release the burst")
        publish(samples, site, end)
        check_applied(sync(samples, site), _histogram(site.sim.log))
        files = check_mirror(site)
        rounds = 0
        while time.perf_counter() < deadline or len(samples.setup_s) < MIN_SETUPS:
            publish(samples, site, end)
            audit(samples, site, files)
            rounds += 1
            if rounds % SETUP_EVERY == 0 and len(samples.setup_s) < MIN_SETUPS:
                extra = work / f"setup-{len(samples.setup_s)}"
                Site(extra, config, samples, seed_store=False).close()
    finally:
        site.close()


def run_poll(samples: Samples, size: dict, seed: int, deadline: float, work: Path) -> None:
    """Poisson churn published in 10 s windows, one sync after each window closes.

    After each sync the aligned store is, in turn, re-baselined or audited,
    so those short operations are sampled across the whole run. The other
    set-ups are spread among the windows, one every ``SETUP_EVERY``.
    """
    windows = size["windows"]
    config = SimConfig(
        seed=seed, n_initial=size["n_initial"], event_rate=1.4,
        duration=float(windows * PERIOD), body_size_range=(32, 256),
    )
    cycle_times: list[float] = []
    while _cycles_left(deadline, cycle_times):
        started = time.perf_counter()
        site = Site(work / f"cycle-{len(cycle_times)}", config, samples, seed_store=True)
        try:
            entries_before = samples.sync_entries
            for k in range(1, windows + 1):
                now = SIM_EPOCH + timedelta(seconds=PERIOD * k)
                site.sim.advance(now)
                publish(samples, site, now, now - LIST_LEAD)
                # The sync applies the window that has just closed.
                check_applied(sync(samples, site),
                              _histogram(site.sim.log, now - timedelta(seconds=PERIOD), now))
                events = _histogram(site.sim.log)
                files = size["n_initial"] + events[ChangeKind.CREATED] - events[ChangeKind.DELETED]
                if k % 2:
                    check_nothing_transferred(baseline(samples, site), files)
                else:
                    audit(samples, site, files)
                if k % SETUP_EVERY == 0 and len(samples.setup_s) < MIN_SETUPS:
                    extra = work / f"setup-{len(samples.setup_s)}"
                    Site(extra, config, samples, seed_store=True).close()
            closed = sum(1 for rec in site.sim.log.records if rec.instant < now)
            check(samples.sync_entries - entries_before == closed,
                  f"syncs accounted for {samples.sync_entries - entries_before} of {closed} events")
            check_mirror(site)
        finally:
            site.close()
        cycle_times.append(time.perf_counter() - started)


WORKLOADS = {"burst": run_burst, "poll": run_poll}
