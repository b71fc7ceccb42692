import os
from pathlib import Path

import pytest

from sitemapsync import transport

# Keep test-side retries fast; production defaults are 1 s / 2 s.
FAST_BACKOFF = (0.01, 0.02)


@pytest.fixture(autouse=True)
def fast_backoff(monkeypatch):
    """Every in-process transfer retries on the short schedule."""
    monkeypatch.setattr(transport, "DEFAULT_BACKOFF", FAST_BACKOFF)


# Awkward but valid file names, and names no URI maps onto: reserved
# ``.resync`` files and directories, and names holding a backslash.
AWKWARD_TREE = {
    "a b.txt": b"space",
    "100%.txt": b"percent",
    "why?.txt": b"question mark",
    "#tag.txt": b"hash",
    "caf\u00e9/\u65e5\u672c.txt": b"unicode",
    ".hidden": b"dotfile",
    "d/e/f/nested.txt": b"nested",
    ".resync.state.json": b"reserved file",
    "d/.resync-x/a.dat": b"in a reserved directory",
    "b\\c.txt": b"backslash",
    "x\\y/z.txt": b"in a backslash directory",
}
AWKWARD_LISTED = sorted(
    rel for rel in AWKWARD_TREE if ".resync" not in rel and "\\" not in rel
)


def write_tree(root: Path, files: dict[str, bytes]) -> None:
    for rel, body in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(body)


def set_tree_mtimes(root: Path, instant) -> None:
    """Pin every file's mtime so tests can reason on a virtual timeline."""
    ts = int(instant.timestamp())
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            os.utime(Path(dirpath) / name, (ts, ts))


def read_tree(root: Path) -> dict[str, bytes]:
    """All regular files under root as {relative posix path: bytes}."""
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            if name.startswith(".resync"):
                continue
            path = Path(dirpath) / name
            out[path.relative_to(root).as_posix()] = path.read_bytes()
    return out


def assert_trees_equal(a: Path, b: Path) -> None:
    ta, tb = read_tree(a), read_tree(b)
    assert sorted(ta) == sorted(tb), f"file sets differ: {sorted(ta)} vs {sorted(tb)}"
    for rel in ta:
        assert ta[rel] == tb[rel], f"bytes differ for {rel}"


@pytest.fixture
def http_server():
    """Factory: serve a directory on an ephemeral port, stop at teardown."""
    handles = []

    def start(root: Path, handler_cls=None) -> transport.ServerHandle:
        handle = transport.serve(root, "127.0.0.1:0", handler_cls=handler_cls)
        handles.append(handle)
        return handle

    yield start
    for handle in handles:
        handle.stop()
