import hashlib
import os
from datetime import timedelta
from pathlib import Path

import pytest

from sitemapsync import source
from sitemapsync.codec import parse_document
from sitemapsync.model import ChangeKind
from sitemapsync.simulator import (
    SIM_EPOCH,
    SimConfig,
    SourceSimulator,
    publish,
    run,
    snapshot,
)

BASE = "http://example.com/res/"

# chi-square critical value, df=2, p=0.001
CHI2_CRIT = 13.8155


def tree_digests(root: Path) -> dict[str, str]:
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            p = Path(dirpath) / name
            out[p.relative_to(root).as_posix()] = hashlib.md5(p.read_bytes()).hexdigest()
    return out


class TestConfigValidation:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SimConfig(p_create=0.5, p_update=0.5, p_delete=0.5).validate()

    def test_body_range_ordered(self):
        with pytest.raises(ValueError):
            SimConfig(body_size_range=(10, 5)).validate()

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(event_rate=-1).validate()

    def test_non_empty_root_rejected(self, tmp_path):
        (tmp_path / "junk").write_bytes(b"x")
        with pytest.raises(ValueError):
            SourceSimulator(SimConfig(), tmp_path, BASE)


class TestZeroRate:
    def test_no_events_tree_is_initial(self, tmp_path):
        config = SimConfig(seed=3, n_initial=5, event_rate=0.0, duration=60.0)
        log = run(config, tmp_path, BASE)
        assert len(log) == 0
        inv = snapshot(tmp_path, BASE)
        assert len(inv.items) == 5


class TestDeterminism:
    def test_identical_seeds_identical_logs_and_trees(self, tmp_path):
        config = SimConfig(seed=11, n_initial=20, event_rate=5.0, duration=30.0)
        log_a = run(config, tmp_path / "a", BASE)
        log_b = run(config, tmp_path / "b", BASE)
        lines_a = [log_a._to_line(r) for r in log_a.records]
        lines_b = [log_b._to_line(r) for r in log_b.records]
        assert lines_a == lines_b and len(lines_a) > 0
        assert tree_digests(tmp_path / "a") == tree_digests(tmp_path / "b")

    def test_different_seeds_differ(self, tmp_path):
        base_cfg = dict(n_initial=10, event_rate=5.0, duration=30.0)
        log_a = run(SimConfig(seed=1, **base_cfg), tmp_path / "a", BASE)
        log_b = run(SimConfig(seed=2, **base_cfg), tmp_path / "b", BASE)
        assert [r.uri for r in log_a.records] != [r.uri for r in log_b.records]

    def test_stepwise_advance_equals_single_run(self, tmp_path):
        config = SimConfig(seed=4, n_initial=10, event_rate=3.0, duration=40.0)
        whole = run(config, tmp_path / "whole", BASE)
        sim = SourceSimulator(config, tmp_path / "stepped", BASE)
        for k in range(1, 6):
            sim.advance(SIM_EPOCH + timedelta(seconds=10 * k))
        stepped = sim.log
        assert [whole._to_line(r) for r in whole.records] == [
            stepped._to_line(r) for r in stepped.records
        ]
        assert tree_digests(tmp_path / "whole") == tree_digests(tmp_path / "stepped")


    def test_advance_to_a_fractional_instant_applies_every_earlier_event(self, tmp_path):
        config = SimConfig(seed=3, n_initial=10, event_rate=3.0, duration=40.0)
        whole = run(config, tmp_path / "whole", BASE)
        sim = SourceSimulator(config, tmp_path / "stepped", BASE)
        for k in range(1, 5):
            now = SIM_EPOCH + timedelta(seconds=10 * k)
            sim.advance(now - timedelta(microseconds=1))
            assert len(sim.log) == sum(1 for rec in whole.records if rec.instant < now)

class TestEventStatistics:
    def test_event_count_in_poisson_band(self, tmp_path):
        # rate 1.4/s for 60 s: mean 84; band [55, 115] per the scenario scaling
        config = SimConfig(seed=42, n_initial=10, event_rate=1.4, duration=60.0)
        log = run(config, tmp_path, BASE)
        assert 55 <= len(log) <= 115

    def test_kind_mix_chi_square(self, tmp_path):
        config = SimConfig(
            seed=1234, n_initial=300, event_rate=1000.0, duration=10.0,
            body_size_range=(8, 32),
        )
        log = run(config, tmp_path, BASE)
        assert len(log) > 8000
        observed = {kind: 0 for kind in ChangeKind}
        for rec in log.records:
            observed[rec.change] += 1
        expected = {
            ChangeKind.CREATED: 0.1 * len(log),
            ChangeKind.UPDATED: 0.8 * len(log),
            ChangeKind.DELETED: 0.1 * len(log),
        }
        chi2 = sum(
            (observed[k] - expected[k]) ** 2 / expected[k] for k in ChangeKind
        )
        assert chi2 < CHI2_CRIT, f"kind mix drifted: {observed}"


class TestLogTreeCoherence:
    def _replay(self, initial: dict[str, str], log) -> dict[str, str]:
        """Independent oracle: fold the event log over the initial URI->digest map."""
        state = dict(initial)
        for rec in log.records:
            if rec.change == ChangeKind.DELETED:
                del state[rec.uri]
            else:
                state[rec.uri] = rec.metadata.digests["md5"]
        return state

    def test_replaying_log_reproduces_final_snapshot(self, tmp_path):
        config = SimConfig(seed=9, n_initial=30, event_rate=4.0, duration=40.0)
        sim = SourceSimulator(config, tmp_path, BASE)
        initial = {
            uri: entry.metadata.digests["md5"]
            for uri, entry in snapshot(tmp_path, BASE).items.items()
        }
        sim.run_to_completion()
        final = {
            uri: entry.metadata.digests["md5"]
            for uri, entry in snapshot(tmp_path, BASE).items.items()
        }
        assert self._replay(initial, sim.log) == final


class TestBurstMode:
    def test_exact_event_count_at_one_instant(self, tmp_path):
        config = SimConfig(seed=5, n_initial=50, duration=60.0, burst_size=120)
        log = run(config, tmp_path, BASE)
        assert len(log) == 120
        instants = {r.instant for r in log.records}
        assert len(instants) == 1

    def test_burst_replay_coherent(self, tmp_path):
        config = SimConfig(seed=6, n_initial=40, duration=60.0, burst_size=200)
        sim = SourceSimulator(config, tmp_path, BASE)
        initial = {
            uri: e.metadata.digests["md5"] for uri, e in snapshot(tmp_path, BASE).items.items()
        }
        sim.run_to_completion()
        final = {
            uri: e.metadata.digests["md5"] for uri, e in snapshot(tmp_path, BASE).items.items()
        }
        replayer = TestLogTreeCoherence()
        assert replayer._replay(initial, sim.log) == final


class TestDailyEmission:
    def test_one_minute_run_fills_a_single_daily_window(self, tmp_path):
        config = SimConfig(seed=12, n_initial=10, event_rate=1.4, duration=60.0)
        log = run(config, tmp_path / "res", BASE)
        web = tmp_path / "web"
        source.publish_changelists(log, 86_400, web, now=SIM_EPOCH + timedelta(days=1))
        docs = [parse_document(p.read_bytes()) for p in web.glob("changelist-*.xml")]
        assert len(docs) == 1
        assert len(docs[0].entries) == len(log)
        lastmods = [e.lastmod for e in docs[0].entries]
        assert lastmods == sorted(lastmods)


class TestPublish:
    def test_documents_valid_and_consistent(self, tmp_path):
        web = tmp_path / "web"
        sim_root = web / "res"
        config = SimConfig(seed=8, n_initial=12, event_rate=2.0, duration=30.0)
        sim = SourceSimulator(config, sim_root, BASE)
        sim.run_to_completion()
        publish(sim_root, web, BASE, sim.log, period=10, now=sim.end_time + timedelta(seconds=10))
        listed = parse_document((web / "resourcelist.xml").read_bytes())
        inv = snapshot(sim_root, BASE)
        assert {e.uri for e in listed.entries} == set(inv.items)
        current = parse_document((web / "changelist.xml").read_bytes())
        assert current.capability.value == "changelist"

    def test_every_published_file_parses_through_a_poll_run(self, tmp_path, monkeypatch):
        """The source does not validate what it serializes; the destination's parse does."""
        monkeypatch.setattr(source, "MAX_DOCUMENT_ENTRIES", 8)  # the list is partitioned
        web = tmp_path / "web"
        sim_root = web / "res"
        config = SimConfig(seed=4, n_initial=20, event_rate=1.4, duration=100.0)
        sim = SourceSimulator(config, sim_root, BASE)
        capabilities = set()
        for k in range(1, 11):
            now = SIM_EPOCH + timedelta(seconds=10 * k)
            sim.advance(now)
            publish(sim_root, web, BASE, sim.log, period=10, now=now)
            for path in web.glob("*.xml"):
                capabilities.add(parse_document(path.read_bytes()).capability.value)
        assert capabilities == {"resourcelist", "resourcelist-index", "changelist"}
        assert len(list(web.glob("changelist-*.xml"))) >= 8
