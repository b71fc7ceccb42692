"""HTTP primitives: conditional fetch with retries, streaming download, test server.

The client side is deliberately small: GET with conditional validators,
bounded redirects, and a short retry schedule for transient failures. A
download only streams a body into a file object its caller supplies and
hashes it; the caller (through ``atomic``) makes the file durable. The
server side exposes a directory tree with correct Last-Modified, strong
content-based ETags, and 304 handling, enough to run a full source against
in tests and demos.
"""

from __future__ import annotations

import email.utils
import logging
import sys
import threading
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import BinaryIO
from urllib.parse import urlsplit

import requests

from .digests import DEFAULT_ALGORITHM, hash_bytes, new_hasher
from .source import PathMappingError, local_path_for_uri, mime_type_for

logger = logging.getLogger(__name__)

DEFAULT_TIMEOUT = 30.0
DEFAULT_BACKOFF = (1.0, 2.0)  # seconds to sleep before retry 1, retry 2
MAX_REDIRECTS = 5
MAX_DOCUMENT_BYTES = 50 * 1024 * 1024
SERVE_POLL_INTERVAL = 0.05  # seconds; bounds how long ServerHandle.stop() waits

_CHUNK = 64 * 1024


class TransportError(Exception):
    """Fetch or download failed; ``status`` carries the HTTP code when known."""

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status


class DigestMismatchError(TransportError):
    """Downloaded body does not match the expected digest."""


@dataclass
class FetchResult:
    status: int
    body: bytes
    etag: str | None = None
    last_modified: datetime | None = None
    from_cache: bool = False


_local = threading.local()


def _session() -> requests.Session:
    sess = getattr(_local, "session", None)
    if sess is None:
        sess = requests.Session()
        sess.trust_env = False  # ignore env proxies; all targets are explicit
        sess.max_redirects = MAX_REDIRECTS
        sess.headers["User-Agent"] = "sitemapsync/0.1"
        _local.session = sess
    return sess


def _get_with_retries(uri: str, headers: dict[str, str]) -> requests.Response:
    """Streaming GET with ≤5 redirects; retry transient failures (5xx, transport errors).

    4xx responses are returned to the caller without retries. The timeout
    and retry schedule are ``DEFAULT_TIMEOUT`` and ``DEFAULT_BACKOFF`` as
    they are when the call is made; an empty schedule means no retries.
    """
    last_error: str = "no attempt made"
    for attempt, delay in enumerate((0.0, *DEFAULT_BACKOFF)):
        if delay:
            time.sleep(delay)
        try:
            resp = _session().get(uri, headers=headers, stream=True, timeout=DEFAULT_TIMEOUT)
        except requests.TooManyRedirects:
            raise TransportError(f"more than {MAX_REDIRECTS} redirects fetching {uri}") from None
        except requests.RequestException as exc:
            last_error = f"transport error fetching {uri}: {exc}"
            logger.debug("attempt %d failed: %s", attempt + 1, last_error)
            continue
        if resp.status_code >= 500:
            last_error = f"HTTP {resp.status_code} fetching {uri}"
            resp.close()
            continue
        return resp
    raise TransportError(last_error)


def fetch(uri: str, cached: FetchResult | None = None) -> FetchResult:
    """GET a document, conditionally when a cached result provides validators.

    On 304 the returned body is reproduced from ``cached`` and
    ``from_cache`` is set. Status >= 400 raises TransportError with the code.
    """
    headers: dict[str, str] = {}
    if cached is not None:
        if cached.etag:
            headers["If-None-Match"] = cached.etag
        if cached.last_modified:
            headers["If-Modified-Since"] = email.utils.format_datetime(
                cached.last_modified.astimezone(timezone.utc), usegmt=True
            )
    resp = _get_with_retries(uri, headers)
    with resp:
        if resp.status_code == 304:
            if cached is None:
                raise TransportError(f"unexpected 304 without a cache entry for {uri}", 304)
            return FetchResult(
                status=304,
                body=cached.body,
                etag=resp.headers.get("ETag") or cached.etag,
                last_modified=cached.last_modified,
                from_cache=True,
            )
        if resp.status_code >= 400:
            raise TransportError(f"HTTP {resp.status_code} fetching {uri}", resp.status_code)
        body = bytearray()
        for chunk in resp.iter_content(_CHUNK):
            body += chunk
            if len(body) > MAX_DOCUMENT_BYTES:
                raise TransportError(f"document at {uri} exceeds {MAX_DOCUMENT_BYTES} bytes")
        last_modified = None
        if resp.headers.get("Last-Modified"):
            try:
                last_modified = email.utils.parsedate_to_datetime(resp.headers["Last-Modified"])
            except (TypeError, ValueError):
                last_modified = None
        return FetchResult(
            status=resp.status_code,
            body=bytes(body),
            etag=resp.headers.get("ETag"),
            last_modified=last_modified,
        )


def download_to(uri: str, out: BinaryIO, listed: tuple[str, str] | None = None) -> tuple[int, str]:
    """Stream a resource body into the binary file ``out``, hashing it as it goes.

    ``listed`` is the ``(algorithm, hex)`` digest the resource is listed
    with; without it the body is hashed with md5. Returns (length,
    "algo:hex"). A body that does not match ``listed`` raises
    DigestMismatchError. The caller owns ``out`` and what becomes of it.
    """
    algo, expected_hex = listed or (DEFAULT_ALGORITHM, None)
    hasher = new_hasher(algo)
    length = 0
    with _get_with_retries(uri, {}) as resp:
        if resp.status_code >= 400:
            raise TransportError(f"HTTP {resp.status_code} fetching {uri}", resp.status_code)
        for chunk in resp.iter_content(_CHUNK):
            out.write(chunk)
            hasher.update(chunk)
            length += len(chunk)
    hexdigest = hasher.hexdigest()
    if expected_hex is not None and hexdigest != expected_hex:
        raise DigestMismatchError(
            f"digest mismatch for {uri}: expected {algo}:{expected_hex}, got {algo}:{hexdigest}"
        )
    return length, f"{algo}:{hexdigest}"


class FileRequestHandler(BaseHTTPRequestHandler):
    """Static file handler with Content-Length, Last-Modified, strong ETag, 304."""

    server_version = "sitemapsync/0.1"
    protocol_version = "HTTP/1.1"
    root_dir: Path  # set by serve()

    def log_message(self, fmt, *args):  # route through logging, not stderr spam
        logger.debug("%s %s", self.address_string(), fmt % args)

    def do_GET(self):
        self._respond(head_only=False)

    def do_HEAD(self):
        self._respond(head_only=True)

    def _resolve(self) -> Path | None:
        """The file a request path names, by the destination's URI mapping."""
        # The target as sent: ``self.path`` has a leading "//" collapsed to "/".
        target = urlsplit(self.requestline.split()[1]).path
        try:
            resolved = (self.root_dir / local_path_for_uri(target, "/")).resolve()
        except PathMappingError:
            return self._error(403, "path rejected")
        except OSError:
            return self._error(404, "not found")
        if not resolved.is_relative_to(self.root_dir.resolve()):
            return self._error(403, "path escapes served root")
        if not resolved.is_file():
            return self._error(404, "not found")
        return resolved

    def _error(self, code: int, message: str) -> None:
        body = (message + "\n").encode()
        self.send_response(code)
        self.send_header("Content-Type", "text/plain")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def _respond(self, head_only: bool):
        path = self._resolve()
        if path is None:
            return
        try:
            body = path.read_bytes()
            mtime = int(path.stat().st_mtime)
        except OSError:
            self._error(404, "not found")
            return
        # Strong validator derived from content: changes iff the bytes change.
        etag = f'"{hash_bytes(body)}"'
        last_modified = email.utils.formatdate(mtime, usegmt=True)

        if self._not_modified(etag, mtime):
            self.send_response(304)
            self.send_header("ETag", etag)
            self.send_header("Last-Modified", last_modified)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return

        self.send_response(200)
        self.send_header("Content-Type", mime_type_for(path.name))
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Last-Modified", last_modified)
        self.send_header("ETag", etag)
        self.end_headers()
        if not head_only:
            self.wfile.write(body)

    def _not_modified(self, etag: str, mtime: int) -> bool:
        inm = self.headers.get("If-None-Match")
        if inm is not None:
            candidates = [tok.strip() for tok in inm.split(",")]
            return "*" in candidates or etag in candidates
        ims = self.headers.get("If-Modified-Since")
        if ims is not None:
            try:
                since = email.utils.parsedate_to_datetime(ims)
            except (TypeError, ValueError):
                return False
            if since.tzinfo is None:
                since = since.replace(tzinfo=timezone.utc)
            return datetime.fromtimestamp(mtime, tz=timezone.utc) <= since
        return False


class _QuietHTTPServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        # Clients vanishing mid-response (killed sync runs) are expected.
        exc = sys.exc_info()[1]
        if isinstance(exc, ConnectionError):
            return
        super().handle_error(request, client_address)


@dataclass
class ServerHandle:
    server: ThreadingHTTPServer
    thread: threading.Thread

    @property
    def url(self) -> str:
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}/"

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)


def serve(
    root_dir: Path,
    bind_address: str = "127.0.0.1:0",
    *,
    handler_cls: type[FileRequestHandler] | None = None,
) -> ServerHandle:
    """Serve ``root_dir`` in a background thread; stop via the returned handle.

    Port 0 binds an ephemeral port; the handle's ``url`` reports the real one.
    """
    root_dir = Path(root_dir)
    if not root_dir.is_dir():
        raise FileNotFoundError(f"server root is not a directory: {root_dir}")
    host, _, port_s = bind_address.rpartition(":")
    if not host:
        raise ValueError(f"bind address must be host:port, got {bind_address!r}")

    cls = handler_cls or FileRequestHandler
    handler = type(cls.__name__, (cls,), {"root_dir": root_dir})
    server = _QuietHTTPServer((host, int(port_s)), handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, args=(SERVE_POLL_INTERVAL,),
                              name="sitemapsync-serve", daemon=True)
    thread.start()
    logger.info("serving %s at http://%s:%s/", root_dir, *server.server_address[:2])
    return ServerHandle(server=server, thread=thread)
