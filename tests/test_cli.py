import dataclasses
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
import requests

from sitemapsync import cli, source
from sitemapsync.codec import parse_document
from sitemapsync.destination import SyncPolicy
from sitemapsync.model import CapabilityKind
from sitemapsync.simulator import SimConfig

from conftest import assert_trees_equal, read_tree, write_tree


def run_cli(argv) -> int:
    return cli.main([str(a) for a in argv])


class TestExitCodes:
    def test_usage_error_is_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["baseline"])  # missing required --source/--store
        assert exc.value.code == 64

    def test_unknown_subcommand_is_64(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["frobnicate"])
        assert exc.value.code == 64

    def test_sync_before_baseline_is_3(self, tmp_path, capsys):
        rc = run_cli(
            ["sync", "--source", "http://127.0.0.1:1/changelist.xml", "--store", tmp_path / "s"]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.rstrip("\n")

    def test_unreachable_source_is_1(self, tmp_path, capsys):
        rc = run_cli(
            ["baseline", "--source", "http://127.0.0.1:1/rl.xml", "--store", tmp_path / "s"]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_audit_error_is_2(self, tmp_path, capsys):
        rc = run_cli(
            ["audit", "--source", "http://127.0.0.1:1/rl.xml", "--store", tmp_path / "s"]
        )
        assert rc == 2

    def test_audit_of_a_malformed_loc_is_2(self, tmp_path, http_server, capsys):
        web = tmp_path / "web"
        write_tree(web, {"resourcelist.xml": (
            b'<?xml version="1.0" encoding="UTF-8"?>'
            b'<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9" '
            b'xmlns:rs="http://www.openarchives.org/rs/terms/">'
            b'<rs:md capability="resourcelist" modified="2013-01-03T09:00:00Z"/>'
            b"<url><loc>http://[::1/x</loc></url></urlset>"
        )})
        handle = http_server(web)
        rc = run_cli(
            ["audit", "--source", handle.url + "resourcelist.xml", "--store", tmp_path / "s"]
        )
        assert rc == 2
        assert "bad_uri" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--parallel", "0"], ["--no-delete"], ["--stale-wins"]])
    def test_audit_takes_no_policy(self, tmp_path, flags):
        """Audit applies nothing, so a policy flag is a usage error."""
        with pytest.raises(SystemExit) as exc:
            run_cli(["audit", "--source", "http://127.0.0.1:1/rl.xml",
                     "--store", tmp_path / "s", *flags])
        assert exc.value.code == 64

    @pytest.mark.parametrize("command", ["baseline", "sync"])
    def test_bad_policy_flag_is_64(self, tmp_path, capsys, command):
        rc = run_cli([command, "--source", "http://127.0.0.1:1/x.xml",
                      "--store", tmp_path / "s", "--parallel", "0"])
        assert rc == 64
        assert "max_parallel_transfers must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("line", [
        "max_parallel_transfers = x", "max_parallel_transfers = 0", "apply_deletes = maybe",
    ])
    def test_bad_policy_config_value_is_64(self, tmp_path, capsys, line):
        ini = tmp_path / "sync.ini"
        ini.write_text(f"[destination]\n{line}\n")
        rc = run_cli(["baseline", "--config", ini, "--source", "http://127.0.0.1:1/rl.xml",
                      "--store", tmp_path / "s"])
        assert rc == 64
        assert capsys.readouterr().err.startswith("error: usage: bad sync policy")
        assert not (tmp_path / "s").exists()


class TestListCommand:
    def test_writes_list_and_prints_count(self, tmp_path, capsys):
        root = tmp_path / "root"
        write_tree(root, {"a.txt": b"hi", "b/c.txt": b"yo"})
        out = tmp_path / "out"
        rc = run_cli(
            ["list", "--root", root, "--base-uri", "http://e.com/", "--out", out]
        )
        assert rc == 0
        assert capsys.readouterr().out.strip() == "2"
        doc = parse_document((out / "resourcelist.xml").read_bytes())
        assert [e.uri for e in doc.entries] == ["http://e.com/a.txt", "http://e.com/b/c.txt"]

    def test_partitioned_members_addressed_under_out_url(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(source, "MAX_DOCUMENT_ENTRIES", 2)
        out = tmp_path / "out"
        write_tree(out / "res", {"a": b"1", "b": b"2", "c": b"3"})
        rc = run_cli(
            ["list", "--root", out / "res", "--base-uri", "http://e.com/site/res/", "--out", out]
        )
        assert rc == 0
        index = parse_document((out / "resourcelist.xml").read_bytes())
        assert index.capability == CapabilityKind.RESOURCELIST_INDEX
        assert [e.uri for e in index.entries] == [
            "http://e.com/site/resourcelist-1.xml",
            "http://e.com/site/resourcelist-2.xml",
        ]
        assert (out / "resourcelist-2.xml").exists()


class TestChangesCommand:
    def test_diff_directories_to_stdout(self, tmp_path, capsys):
        old, new = tmp_path / "old", tmp_path / "new"
        write_tree(old, {"a": b"1", "b": b"2"})
        write_tree(new, {"b": b"2!", "c": b"3"})
        rc = run_cli(
            ["changes", "--old", old, "--new", new, "--base-uri", "http://e.com/"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        doc = parse_document(out.encode())
        kinds = {e.uri: e.metadata.change.value for e in doc.entries}
        assert kinds == {
            "http://e.com/a": "deleted",
            "http://e.com/b": "updated",
            "http://e.com/c": "created",
        }

    def test_diff_directories_reads_source_section(self, tmp_path, capsys):
        old, new = tmp_path / "old", tmp_path / "new"
        write_tree(old, {"a": b"1"})
        write_tree(new, {"a": b"1!"})
        ini = tmp_path / "sync.ini"
        ini.write_text("[source]\nbase_uri = http://e.com/\ndigests = sha-256\n")
        rc = run_cli(["changes", "--config", ini, "--old", old, "--new", new])
        assert rc == 0
        (entry,) = parse_document(capsys.readouterr().out.encode()).entries
        assert entry.uri == "http://e.com/a"
        assert entry.metadata.digests == {"sha-256": hashlib.sha256(b"1!").hexdigest()}

    def test_changelog_windows_to_dir(self, tmp_path):
        log_file = tmp_path / "log.tsv"
        log_file.write_text(
            "2013-01-01T05:00:00Z\tupdated\thttp://e.com/a\tmd5:" + "0" * 32 + "\t1\n"
            "2013-01-02T06:00:00Z\tdeleted\thttp://e.com/b\t-\t-\n"
        )
        out = tmp_path / "out"
        rc = run_cli(["changes", "--log", log_file, "--out", out])
        assert rc == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "changelist-2013-01-01.xml", "changelist-2013-01-02.xml", "changelist.xml"
        ]
        newest = (out / "changelist-2013-01-02.xml").read_bytes()
        assert (out / "changelist.xml").read_bytes() == newest

    def test_changelog_open_window_is_withheld(self, tmp_path):
        """An event in the window that holds the wall clock is not published yet:
        a destination syncing that window early would skip later events in it."""
        instant = datetime.now(timezone.utc).replace(microsecond=0) + timedelta(hours=1)
        log_file = tmp_path / "log.tsv"
        log_file.write_text(
            f"{instant:%Y-%m-%dT%H:%M:%SZ}\tupdated\thttp://e.com/a\t-\t-\n"
        )
        out = tmp_path / "out"
        rc = run_cli(["changes", "--log", log_file, "--period", 86_400, "--out", out])
        assert rc == 0
        assert [p.name for p in out.iterdir()] == ["changelist.xml"]
        current = parse_document((out / "changelist.xml").read_bytes())
        assert current.capability == CapabilityKind.CHANGELIST
        assert current.entries == []
        window_start = instant.replace(hour=0, minute=0, second=0)
        assert current.modified < window_start

    def test_requires_inputs(self, tmp_path, capsys):
        rc = run_cli(["changes", "--old", tmp_path])
        assert rc == 1

    def test_diff_two_resource_list_documents(self, tmp_path, capsys):
        old_dir, new_dir = tmp_path / "old", tmp_path / "new"
        write_tree(old_dir, {"a": b"1", "b": b"2"})
        write_tree(new_dir, {"a": b"1", "b": b"2!!"})
        for name, root in (("old.xml", old_dir), ("new.xml", new_dir)):
            rc = run_cli(
                ["list", "--root", root, "--base-uri", "http://e.com/", "--out", tmp_path / name[:-4]]
            )
            assert rc == 0
        capsys.readouterr()
        rc = run_cli(
            [
                "changes",
                "--old", tmp_path / "old" / "resourcelist.xml",
                "--new", tmp_path / "new" / "resourcelist.xml",
            ]
        )
        assert rc == 0
        doc = parse_document(capsys.readouterr().out.encode())
        assert [(e.uri, e.metadata.change.value) for e in doc.entries] == [
            ("http://e.com/b", "updated")
        ]


class TestSimulateCommand:
    def test_simulate_writes_documents_and_log(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = run_cli(
            [
                "simulate", "--out", out, "--base-uri", "http://127.0.0.1:9/res/",
                "--seed", 3, "--n-initial", 8, "--rate", 2.0, "--duration", 20,
            ]
        )
        assert rc == 0
        events = int(capsys.readouterr().out.strip())
        lines = (out / "changelog.tsv").read_text().splitlines()
        # One line per event, then the seal: the end of the last daily window published.
        assert events == len(lines) - 1
        assert lines[-1] == "sealed\t2013-01-02T00:00:00Z"
        assert (out / "resourcelist.xml").exists()
        assert (out / "changelist.xml").exists()
        assert (out / "res").is_dir()

    def test_config_file_provides_defaults_flags_override(self, tmp_path, capsys):
        ini = tmp_path / "sync.ini"
        ini.write_text("[simulator]\nseed = 3\nn_initial = 4\nevent_rate = 0\nduration = 5\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        rc = run_cli(
            ["simulate", "--config", ini, "--out", out1, "--base-uri", "http://e.com/res/"]
        )
        assert rc == 0
        assert len(list((out1 / "res").rglob("*.dat"))) == 4
        rc = run_cli(
            [
                "simulate", "--config", ini, "--out", out2,
                "--base-uri", "http://e.com/res/", "--n-initial", 7,
            ]
        )
        assert rc == 0
        assert len(list((out2 / "res").rglob("*.dat"))) == 7


class TestConfigFile:
    @pytest.mark.parametrize("line", ["verify_digests = no", "max_parallel_transfer = 0"])
    def test_unknown_key_is_a_usage_error(self, tmp_path, capsys, line):
        ini = tmp_path / "sync.ini"
        ini.write_text(f"[destination]\nstale_wins = yes\n{line}\n")
        rc = run_cli(
            ["baseline", "--config", ini, "--source", "http://127.0.0.1:1/rl.xml",
             "--store", tmp_path / "s"]
        )
        assert rc == 64
        assert line.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("section", ["destinaton", "DEFAULT"])
    def test_unknown_section_is_a_usage_error(self, tmp_path, capsys, section):
        ini = tmp_path / "sync.ini"
        ini.write_text(f"[{section}]\nstate = x\n")
        rc = run_cli(["simulate", "--config", ini, "--out", tmp_path / "o"])
        assert rc == 64
        assert f"[{section}]" in capsys.readouterr().err

    def test_table_keys_are_the_library_fields(self):
        """Each section's keys set library fields, so the CLI restates no default."""
        policy = {f.name for f in dataclasses.fields(SyncPolicy)}
        assert set(cli.CONFIG_KEYS["destination"]) == policy | {"state"}
        sim = {f.name for f in dataclasses.fields(SimConfig)} - {"body_size_range"}
        assert set(cli.CONFIG_KEYS["simulator"]) == sim | {"body_min", "body_max", "base_uri"}


class TestServeSubprocess:
    def test_serve_runs_and_shuts_down_on_signal(self, tmp_path):
        write_tree(tmp_path / "web", {"hello.txt": b"hi"})
        # The child imports the package from the directory this process uses.
        package_dir = str(Path(cli.__file__).resolve().parents[1])
        inherited = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_dir, inherited]))}
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "sitemapsync", "serve",
                "--root", str(tmp_path / "web"), "--bind", "127.0.0.1:18111",
                "--log-level", "INFO",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            deadline = time.time() + 10
            body = None
            while time.time() < deadline:
                try:
                    body = requests.get(
                        "http://127.0.0.1:18111/hello.txt", timeout=2
                    ).content
                    break
                except requests.RequestException:
                    time.sleep(0.1)
            assert body == b"hi"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
        finally:
            if proc.poll() is None:
                proc.kill()


class TestFullPipeline:
    def test_simulate_baseline_changes_sync_audit(self, tmp_path, http_server, capsys):
        web = tmp_path / "web"
        web.mkdir()
        store = tmp_path / "store"
        handle = http_server(web)  # port known before any documents exist
        res_base = handle.url + "res/"

        # phase 1: simulate 30 s of churn and baseline from it
        rc = run_cli(
            [
                "simulate", "--out", web, "--base-uri", res_base,
                "--seed", 5, "--n-initial", 25, "--rate", 2.0, "--duration", 30,
            ]
        )
        assert rc == 0
        rc = run_cli(
            ["baseline", "--source", handle.url + "resourcelist.xml", "--store", store]
        )
        assert rc == 0

        # phase 2: same seed, longer horizon => strict continuation of phase 1
        old_tree = tmp_path / "old-tree"
        shutil.copytree(web / "res", old_tree)
        t2 = tmp_path / "phase2"
        rc = run_cli(
            [
                "simulate", "--out", t2, "--base-uri", res_base,
                "--seed", 5, "--n-initial", 25, "--rate", 2.0, "--duration", 90,
            ]
        )
        assert rc == 0
        shutil.rmtree(web / "res")
        shutil.copytree(t2 / "res", web / "res")

        # derive the changelist between the two snapshots, publish both docs
        rc = run_cli(
            [
                "changes", "--old", old_tree, "--new", web / "res",
                "--base-uri", res_base, "--out", web,
            ]
        )
        assert rc == 0
        rc = run_cli(
            ["list", "--root", web / "res", "--base-uri", res_base, "--out", web]
        )
        assert rc == 0

        rc = run_cli(
            ["sync", "--source", handle.url + "changelist.xml", "--store", store,
             "--format", "json"]
        )
        assert rc == 0
        sync_json = capsys.readouterr().out.split("\n{", 1)[-1]
        report = json.loads("{" + sync_json)
        assert report["failed"] == 0

        rc = run_cli(
            ["audit", "--source", handle.url + "resourcelist.xml", "--store", store,
             "--report", tmp_path / "audit.json"]
        )
        assert rc == 0
        audit_data = json.loads((tmp_path / "audit.json").read_text())
        assert audit_data["missing"] == [] and audit_data["stale"] == []
        assert audit_data["extraneous"] == []

        # end-to-end oracle: the store is byte-identical to the source tree
        assert_trees_equal(store, web / "res")

    def test_sync_partial_failure_exits_2(self, tmp_path, http_server, capsys):
        from sitemapsync.codec import serialize_document
        from sitemapsync.model import (
            CapabilityKind as CK,
            ChangeKind,
            ResourceEntry,
            ResourceMetadata,
            SyncDocument,
        )
        from datetime import datetime, timedelta, timezone

        web = tmp_path / "web"
        web.mkdir()
        store = tmp_path / "store"
        handle = http_server(web)
        res_base = handle.url + "res/"
        rc = run_cli(
            [
                "simulate", "--out", web, "--base-uri", res_base,
                "--seed", 2, "--n-initial", 3, "--rate", 0, "--duration", 1,
            ]
        )
        assert rc == 0
        rc = run_cli(
            ["baseline", "--source", handle.url + "resourcelist.xml", "--store", store]
        )
        assert rc == 0
        # change entry whose digest the source can never satisfy
        t = datetime(2026, 1, 1, tzinfo=timezone.utc)
        victim = next(iter(read_tree(web / "res")))
        doc = SyncDocument(
            CK.CHANGELIST,
            t + timedelta(hours=1),
            [
                ResourceEntry(
                    res_base + victim,
                    t,
                    ResourceMetadata(change=ChangeKind.UPDATED, digests={"md5": "f" * 32}),
                )
            ],
        )
        (web / "changelist.xml").write_bytes(serialize_document(doc))
        rc = run_cli(
            ["sync", "--source", handle.url + "changelist.xml", "--store", store]
        )
        assert rc == 2

    def test_audit_detects_drift_with_exit_1(self, tmp_path, http_server, capsys):
        web = tmp_path / "web"
        web.mkdir()
        store = tmp_path / "store"
        handle = http_server(web)
        res_base = handle.url + "res/"
        rc = run_cli(
            [
                "simulate", "--out", web, "--base-uri", res_base,
                "--seed", 1, "--n-initial", 6, "--rate", 0, "--duration", 1,
            ]
        )
        assert rc == 0
        rc = run_cli(
            ["baseline", "--source", handle.url + "resourcelist.xml", "--store", store]
        )
        assert rc == 0
        victim = next(p for p in store.rglob("*.dat"))
        victim.write_bytes(b"corrupted")
        rc = run_cli(
            ["audit", "--source", handle.url + "resourcelist.xml", "--store", store]
        )
        assert rc == 1
