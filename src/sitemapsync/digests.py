"""Digest helpers shared by the scanner, transport, and destination engine."""

from __future__ import annotations

import hashlib
from pathlib import Path

# Algorithm labels as carried on the wire, mapped to hashlib constructor names,
# weakest to strongest.
_HASHLIB_NAMES = {
    "md5": "md5",
    "sha-1": "sha1",
    "sha-224": "sha224",
    "sha-256": "sha256",
    "sha-384": "sha384",
    "sha-512": "sha512",
}

# Hex digest length per label, so validating a listed digest is a lookup.
HEX_LENGTHS = {label: hashlib.new(name).digest_size * 2 for label, name in _HASHLIB_NAMES.items()}

DEFAULT_ALGORITHM = "md5"

_CHUNK = 64 * 1024


def new_hasher(algorithm: str):
    name = _HASHLIB_NAMES.get(algorithm)
    if name is None:
        raise ValueError(f"unsupported digest algorithm: {algorithm!r}")
    return hashlib.new(name)


def hash_bytes(data: bytes, algorithm: str = DEFAULT_ALGORITHM) -> str:
    h = new_hasher(algorithm)
    h.update(data)
    return h.hexdigest()


def hash_file(path: Path, algorithms: tuple[str, ...] | list[str]) -> dict[str, str]:
    """Stream a file once through all requested digest algorithms."""
    hashers = {algo: new_hasher(algo) for algo in algorithms}
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(_CHUNK)
            if not chunk:
                break
            for h in hashers.values():
                h.update(chunk)
    return {algo: h.hexdigest() for algo, h in hashers.items()}


def parse_digests(value: str) -> dict[str, str]:
    """Parse whitespace-separated ``algo:hex`` tokens; each algorithm at most once."""
    digests: dict[str, str] = {}
    for token in value.split():
        algo, sep, hexdigest = token.partition(":")
        if not sep or not algo or not hexdigest:
            raise ValueError(f"malformed digest token: {token!r}")
        if algo in digests:
            raise ValueError(f"repeated digest algorithm {algo!r}")
        digests[algo] = hexdigest
    return digests


def format_digests(digests: dict[str, str]) -> str:
    """Inverse of ``parse_digests``: tokens in label order."""
    return " ".join(f"{algo}:{digests[algo]}" for algo in sorted(digests))
