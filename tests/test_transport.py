import http.client
import io
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
import requests

from sitemapsync import transport
from sitemapsync.atomic import atomic_file
from sitemapsync.codec import parse_document
from sitemapsync.transport import (
    SERVE_POLL_INTERVAL,
    DigestMismatchError,
    TransportError,
    download_to,
    fetch,
)
from sitemapsync.source import SourceConfig, scan, publish_resource_list
from datetime import datetime, timezone

from conftest import write_tree

# md5 oracles computed with coreutils
MD5_ABC = "900150983cd24fb0d6963f7d28e17f72"
MD5_EMPTY = "d41d8cd98f00b204e9800998ecf8427e"


class ScriptedHandler(BaseHTTPRequestHandler):
    """Replays a scripted list of status codes, then serves a fixed body."""

    script: list[int] = []
    body = b"abc"
    hits = 0

    def log_message(self, *args):
        pass

    def do_GET(self):
        cls = type(self)
        cls.hits += 1
        status = cls.script.pop(0) if cls.script else 200
        if 300 <= status < 400:
            self.send_response(status)
            self.send_header("Location", self.path)  # redirect loop
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        body = cls.body if status == 200 else b"err"
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


@pytest.fixture
def scripted_server():
    servers = []

    def start(script, body=b"abc"):
        handler = type("Scripted", (ScriptedHandler,), {"script": list(script), "body": body, "hits": 0})
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": SERVE_POLL_INTERVAL}, daemon=True
        )
        thread.start()
        servers.append((server, thread))
        return f"http://127.0.0.1:{server.server_address[1]}/x", handler

    yield start
    for server, thread in servers:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestServe:
    def test_serves_parseable_resource_list(self, tmp_path, http_server):
        write_tree(tmp_path, {"res/a.txt": b"hi"})
        inv = scan(SourceConfig(tmp_path / "res", "http://example.com/"))
        publish_resource_list(inv, datetime(2013, 1, 3, tzinfo=timezone.utc), tmp_path)
        handle = http_server(tmp_path)
        result = fetch(handle.url + "resourcelist.xml")
        assert result.status == 200
        doc = parse_document(result.body)
        assert len(doc.entries) == 1

    def test_traversal_rejected_with_403(self, tmp_path, http_server):
        write_tree(tmp_path, {"a.txt": b"hi"})
        handle = http_server(tmp_path)
        host, port = handle.server.server_address[:2]
        conn = http.client.HTTPConnection(host, port)
        conn.request("GET", "/../etc/passwd")  # raw path, no client-side normalization
        resp = conn.getresponse()
        assert resp.status == 403
        resp.read()
        conn.close()

    def test_unknown_path_404(self, tmp_path, http_server):
        handle = http_server(tmp_path)
        with pytest.raises(TransportError) as exc:
            fetch(handle.url + "nope")
        assert exc.value.status == 404

    def test_conditional_get_304(self, tmp_path, http_server):
        write_tree(tmp_path, {"a.txt": b"hi"})
        handle = http_server(tmp_path)
        first = fetch(handle.url + "a.txt")
        assert first.status == 200 and first.etag and not first.from_cache
        assert first.last_modified is not None
        again = fetch(handle.url + "a.txt", cached=first)
        assert again.status == 304 and again.from_cache
        assert again.body == first.body == b"hi"

    def test_if_modified_since_alone_yields_304(self, tmp_path, http_server):
        write_tree(tmp_path, {"a.txt": b"hi"})
        handle = http_server(tmp_path)
        first = fetch(handle.url + "a.txt")
        validator_only = type(first)(
            status=first.status, body=first.body, etag=None,
            last_modified=first.last_modified,
        )
        again = fetch(handle.url + "a.txt", cached=validator_only)
        assert again.from_cache and again.body == b"hi"

    def test_etag_changes_iff_bytes_change(self, tmp_path, http_server):
        write_tree(tmp_path, {"a.txt": b"hi"})
        handle = http_server(tmp_path)
        e1 = fetch(handle.url + "a.txt").etag
        e2 = fetch(handle.url + "a.txt").etag
        assert e1 == e2
        (tmp_path / "a.txt").write_bytes(b"ho")
        e3 = fetch(handle.url + "a.txt").etag
        assert e3 != e1

    def test_head_has_no_body(self, tmp_path, http_server):
        write_tree(tmp_path, {"a.txt": b"hi"})
        handle = http_server(tmp_path)
        resp = requests.head(handle.url + "a.txt", timeout=10)
        assert resp.status_code == 200
        assert resp.headers["Content-Length"] == "2"
        assert resp.content == b""

    def test_escaped_paths_resolve(self, tmp_path, http_server):
        write_tree(tmp_path, {"rés umé.txt": b"x"})
        handle = http_server(tmp_path)
        result = fetch(handle.url + "r%C3%A9s%20um%C3%A9.txt")
        assert result.body == b"x"

    @pytest.mark.parametrize("path", ["/a%2Fb.txt", "/a/./b.txt", "//c.txt", "/a//b.txt"])
    def test_one_url_per_file(self, tmp_path, http_server, path):
        """A path the destination's URI mapping rejects is refused, not normalized."""
        write_tree(tmp_path, {"a/b.txt": b"ab", "c.txt": b"c"})
        handle = http_server(tmp_path)
        conn = http.client.HTTPConnection(*handle.server.server_address[:2])
        conn.request("GET", path)  # raw path, no client-side normalization
        resp = conn.getresponse()
        resp.read()
        conn.close()
        assert resp.status == 403
        assert fetch(handle.url + "a/b.txt").body == b"ab"


class TestFetchRetries:
    def test_success_after_two_500s(self, scripted_server):
        url, handler = scripted_server([500, 500, 200])
        result = fetch(url)
        assert result.status == 200 and result.body == b"abc"
        assert handler.hits == 3

    def test_three_500s_is_an_error(self, scripted_server):
        url, handler = scripted_server([500, 500, 500])
        with pytest.raises(TransportError):
            fetch(url)
        assert handler.hits == 3

    def test_empty_schedule_makes_one_attempt(self, scripted_server, monkeypatch):
        monkeypatch.setattr(transport, "DEFAULT_BACKOFF", ())
        url, handler = scripted_server([500, 200])
        with pytest.raises(TransportError):
            fetch(url)
        assert handler.hits == 1

    def test_4xx_never_retried(self, scripted_server):
        url, handler = scripted_server([404])
        with pytest.raises(TransportError) as exc:
            fetch(url)
        assert exc.value.status == 404
        assert handler.hits == 1

    def test_redirect_loop_detected(self, scripted_server):
        url, handler = scripted_server([302] * 50)
        with pytest.raises(TransportError) as exc:
            fetch(url)
        assert "redirect" in str(exc.value)

    def test_document_size_cap(self, scripted_server, monkeypatch):
        monkeypatch.setattr(transport, "MAX_DOCUMENT_BYTES", 1024)
        url, _ = scripted_server([200], body=b"x" * 4096)
        with pytest.raises(TransportError):
            fetch(url)


class TestDownloadTo:
    """``download_to`` streams into the file object it is given. The three
    failure cases wrap it in ``atomic_file`` as a destination does, and check
    that the temp file goes with the failure."""

    @staticmethod
    def _into_store(store: Path, uri: str, listed=None):
        store.mkdir()
        with atomic_file(store / "f.bin", store) as out:
            return download_to(uri, out, listed)

    def test_three_byte_fixture(self, tmp_path, http_server):
        write_tree(tmp_path / "web", {"f.bin": b"abc"})
        handle = http_server(tmp_path / "web")
        out = io.BytesIO()
        length, digest = download_to(handle.url + "f.bin", out)
        assert (length, digest) == (3, f"md5:{MD5_ABC}")
        assert out.getvalue() == b"abc"

    def test_expected_digest_verified(self, tmp_path, http_server):
        write_tree(tmp_path / "web", {"f.bin": b"abc"})
        handle = http_server(tmp_path / "web")
        length, digest = download_to(handle.url + "f.bin", io.BytesIO(), ("md5", MD5_ABC))
        assert (length, digest) == (3, f"md5:{MD5_ABC}")

    def test_mismatch_removes_temp_file(self, tmp_path, http_server):
        write_tree(tmp_path / "web", {"f.bin": b"abc"})
        handle = http_server(tmp_path / "web")
        with pytest.raises(DigestMismatchError):
            self._into_store(tmp_path / "store", handle.url + "f.bin", ("md5", "0" * 32))
        assert list((tmp_path / "store").iterdir()) == []

    def test_refused_connection_removes_temp_file(self, tmp_path):
        with socket.socket() as sock:  # a port that was just free and is now closed
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        with pytest.raises(TransportError):
            self._into_store(tmp_path / "store", f"http://127.0.0.1:{port}/f.bin")
        assert list((tmp_path / "store").iterdir()) == []

    def test_zero_byte_resource(self, tmp_path, http_server):
        write_tree(tmp_path / "web", {"empty": b""})
        handle = http_server(tmp_path / "web")
        out = io.BytesIO()
        length, digest = download_to(handle.url + "empty", out)
        assert (length, digest) == (0, f"md5:{MD5_EMPTY}")
        assert out.getvalue() == b""

    def test_http_error_removes_temp_file(self, tmp_path, http_server):
        (tmp_path / "web").mkdir()
        handle = http_server(tmp_path / "web")
        with pytest.raises(TransportError) as info:
            self._into_store(tmp_path / "store", handle.url + "missing")
        assert info.value.status == 404
        assert list((tmp_path / "store").iterdir()) == []
