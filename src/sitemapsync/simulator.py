"""Deterministic churn simulator: a synthetic source tree plus its event stream.

Events are drawn from a seeded Mersenne Twister (``random.Random``), so a
given (config, seed) pair reproduces the identical tree evolution and change
log on any platform. Time is virtual: event instants are offsets from a
fixed anchor (2013-01-01T00:00:00Z by default), and file mtimes are set to
the event instant, which lets the scanner and the log agree on lastmods.

Event timing is a Poisson process: exponential inter-arrival times with mean
1/event_rate. Events start after a one-second lead-in past the snapshot
instant so that, at the protocol's second precision, the initial snapshot's
timestamp can never collide with the first event's. At the default rate of
1.4 events/second a day-long run yields about 120,960 events, i.e. the
roughly-120k-changes-per-day regime of a very large wiki.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

from .digests import hash_bytes
from .model import ChangeKind, Inventory, ResourceMetadata, as_utc_instant
from .source import (
    ChangeLog,
    SourceConfig,
    publish_changelists,
    publish_resource_list,
    scan,
    uri_for_relpath,
    web_root_uri,
)

# Fixed virtual-clock anchor; identical seeds then yield identical logs.
SIM_EPOCH = datetime(2013, 1, 1, tzinfo=timezone.utc)

# Events begin this many virtual seconds after the initial snapshot.
LEAD_IN_SECONDS = 1.0


@dataclass
class SimConfig:
    seed: int = 0
    n_initial: int = 100
    event_rate: float = 1.4  # events per second; 0 disables churn
    p_create: float = 0.1
    p_update: float = 0.8
    p_delete: float = 0.1
    body_size_range: tuple[int, int] = (64, 1024)
    duration: float = 60.0  # seconds of virtual time
    # When set, replaces the Poisson stream with exactly this many events
    # released at one instant mid-run (models batch publication).
    burst_size: int | None = None

    def validate(self) -> None:
        if self.seed < 0 or self.n_initial < 0:
            raise ValueError("seed and n_initial must be non-negative")
        if self.event_rate < 0 or self.duration < 0:
            raise ValueError("event_rate and duration must be non-negative")
        probs = (self.p_create, self.p_update, self.p_delete)
        if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError(f"event probabilities must be >= 0 and sum to 1, got {probs}")
        lo, hi = self.body_size_range
        if lo < 0 or lo > hi:
            raise ValueError(f"bad body_size_range: {self.body_size_range}")
        if self.burst_size is not None and self.burst_size < 0:
            raise ValueError("burst_size must be non-negative")


class SourceSimulator:
    """Stepwise simulation of a changing resource tree.

    ``advance(until)`` applies all events scheduled up to the given virtual
    instant, so callers can interleave publication and polling with tree
    evolution. ``log`` holds every applied event.
    """

    def __init__(
        self,
        config: SimConfig,
        root_dir: Path,
        base_uri: str = "http://example.com/res/",
        start: datetime = SIM_EPOCH,
    ):
        config.validate()
        root_dir = Path(root_dir)
        if root_dir.exists() and any(root_dir.iterdir()):
            raise ValueError(f"simulation root must be empty or absent: {root_dir}")
        root_dir.mkdir(parents=True, exist_ok=True)
        self.config = config
        self.root_dir = root_dir
        self.base_uri = base_uri
        self.start = as_utc_instant(start)
        self.log = ChangeLog()
        self._rng = random.Random(config.seed)
        self._live: list[str] = []  # relative paths, insertion-ordered
        self._counter = 0
        self._burst_done = False
        self._next_offset: float | None = None
        for _ in range(config.n_initial):
            self._create(self.start)
        if config.burst_size is None and config.event_rate > 0:
            self._next_offset = LEAD_IN_SECONDS + self._rng.expovariate(config.event_rate)

    @property
    def end_time(self) -> datetime:
        """Virtual instant after which no further events are scheduled."""
        return self.start + timedelta(seconds=LEAD_IN_SECONDS + self.config.duration)

    def advance(self, until: datetime) -> None:
        """Apply every scheduled event with instant <= until.

        ``until`` is taken to the microsecond (naive means UTC), so the events
        up to it are applied even when it is not a whole second.
        """
        if until.tzinfo is None:
            until = until.replace(tzinfo=timezone.utc)
        until_offset = (until - self.start).total_seconds()
        horizon = LEAD_IN_SECONDS + self.config.duration
        if self.config.burst_size is not None:
            burst_offset = LEAD_IN_SECONDS + self.config.duration / 2.0
            if not self._burst_done and burst_offset <= until_offset:
                instant = self.start + timedelta(seconds=burst_offset)
                for _ in range(self.config.burst_size):
                    self._apply(self._pick_kind(), instant)
                self._burst_done = True
            return
        while self._next_offset is not None and self._next_offset <= min(until_offset, horizon):
            instant = self.start + timedelta(seconds=self._next_offset)
            self._apply(self._pick_kind(), instant)
            self._next_offset += self._rng.expovariate(self.config.event_rate)
        if self._next_offset is not None and self._next_offset > horizon:
            self._next_offset = None

    def run_to_completion(self) -> ChangeLog:
        self.advance(self.end_time)
        return self.log

    # -- internals ----------------------------------------------------------

    def _pick_kind(self) -> ChangeKind:
        r = self._rng.random()
        if r < self.config.p_create:
            return ChangeKind.CREATED
        if r < self.config.p_create + self.config.p_update:
            return ChangeKind.UPDATED
        return ChangeKind.DELETED

    def _apply(self, kind: ChangeKind, instant: datetime) -> None:
        # Update/delete need a live target; with none left the event
        # degrades to a create so the configured rate is preserved.
        if kind != ChangeKind.CREATED and not self._live:
            kind = ChangeKind.CREATED
        if kind == ChangeKind.CREATED:
            self._create(instant, log_event=True)
        elif kind == ChangeKind.UPDATED:
            rel = self._live[self._rng.randrange(len(self._live))]
            self._write_body(rel, instant, ChangeKind.UPDATED)
        else:
            rel = self._live.pop(self._rng.randrange(len(self._live)))
            (self.root_dir / rel).unlink()
            self.log.append(
                as_utc_instant(instant),
                uri_for_relpath(self.base_uri, rel),
                ChangeKind.DELETED,
                ResourceMetadata(),
            )

    def _create(self, instant: datetime, log_event: bool = False) -> None:
        rel = f"d{self._counter % 10}/r{self._counter:06d}.dat"
        self._counter += 1
        self._live.append(rel)
        self._write_body(rel, instant, ChangeKind.CREATED if log_event else None)

    def _write_body(self, rel: str, instant: datetime, kind: ChangeKind | None) -> None:
        lo, hi = self.config.body_size_range
        body = self._rng.randbytes(self._rng.randint(lo, hi))
        path = self.root_dir / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(body)
        ts = int(instant.timestamp())
        os.utime(path, (ts, ts))
        if kind is not None:
            self.log.append(
                as_utc_instant(instant),
                uri_for_relpath(self.base_uri, rel),
                kind,
                ResourceMetadata(digests={"md5": hash_bytes(body)}, length=len(body)),
            )


def run(
    config: SimConfig,
    root_dir: Path,
    base_uri: str = "http://example.com/res/",
    start: datetime = SIM_EPOCH,
) -> ChangeLog:
    """Materialize the initial tree, play out every event, return the log."""
    sim = SourceSimulator(config, root_dir, base_uri, start)
    return sim.run_to_completion()


def snapshot(sim_root: Path, base_uri: str, taken_at: datetime | None = None,
             memo: dict | None = None) -> Inventory:
    """Inventory of the simulated tree, hashed with md5 as the event log is."""
    return scan(SourceConfig(Path(sim_root), base_uri), taken_at=taken_at, memo=memo)


def publish(
    sim_root: Path,
    web_root: Path,
    base_uri: str,
    log: ChangeLog,
    period: int,
    now: datetime,
    list_modified: datetime | None = None,
) -> list[Path]:
    """Write the current resource list and change lists into ``web_root``.

    ``list_modified`` overrides the resource list's modified instant when the
    snapshot represents an earlier state than ``now`` (which only controls
    which change-list windows count as closed). Members of a partitioned
    list are addressed under the web root's URL when ``sim_root`` lies in
    ``web_root`` and ``base_uri`` ends with its relative path.
    """
    inv = snapshot(sim_root, base_uri, taken_at=now, memo=log.digest_memo)
    modified = as_utc_instant(list_modified if list_modified is not None else now)
    list_base_uri = web_root_uri(sim_root, base_uri, web_root)
    written = publish_resource_list(inv, modified, web_root, list_base_uri)
    written += publish_changelists(log, period, web_root, now)
    return written
