"""Parsing and canonical serialization of resource lists, change lists, and indexes.

Wire format: XML Sitemaps (default namespace
``http://www.sitemaps.org/schemas/sitemap/0.9``) extended with a metadata
element in the ``http://www.openarchives.org/rs/terms/`` namespace. The
document-level ``<rs:md>`` carries ``capability`` and ``modified``;
per-entry ``<rs:md>`` may carry ``change``, ``hash`` (whitespace-separated
``algo:hexdigest`` tokens), ``length`` and ``type``.

Serialization is canonical: structurally equal documents produce identical
octet sequences. Parsing ignores unknown elements and attributes.
The codec owns document checks: ``parse_document`` checks each entry against
its document's capability as it parses it. ``serialize_document`` trusts its
caller, which builds documents from data checked where it entered.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

from .digests import format_digests, parse_digests
from .model import (
    CapabilityKind,
    ChangeKind,
    MAX_DOCUMENT_ENTRIES,
    ResourceEntry,
    ResourceMetadata,
    SyncDocument,
    ValidationError,
    format_w3c_datetime,
    parse_w3c_datetime,
)

SITEMAP_NS = "http://www.sitemaps.org/schemas/sitemap/0.9"
RS_NS = "http://www.openarchives.org/rs/terms/"

# Serialized documents may not exceed the conventional Sitemap size cap.
MAX_SERIALIZED_BYTES = 50 * 1024 * 1024

ERROR_KINDS = frozenset(
    {
        "malformed_xml",
        "missing_capability",
        "unknown_capability",
        "bad_datetime",
        "bad_uri",
        "duplicate_uri",
        "oversize_document",
        "entry_in_index",
    }
)

class CodecError(Exception):
    """A document failed to parse or serialize; ``kind`` names the violation."""

    def __init__(self, kind: str, detail: str):
        assert kind in ERROR_KINDS, kind
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


def _local_tag(tag: str, name: str) -> bool:
    # Accept the sitemap namespace or no namespace at all on input.
    return tag == f"{{{SITEMAP_NS}}}{name}" or tag == name


_RS_MD = f"{{{RS_NS}}}md"


def _parse_entry_md(md: ET.Element, uri: str) -> ResourceMetadata:
    meta = ResourceMetadata()
    change = md.get("change")
    if change is not None:
        try:
            meta.change = ChangeKind(change)
        except ValueError:
            raise CodecError("malformed_xml", f"unknown change kind {change!r} on {uri}") from None
    hash_attr = md.get("hash")
    if hash_attr is not None:
        try:
            meta.digests = parse_digests(hash_attr)
        except ValueError as exc:
            raise CodecError("malformed_xml", f"{exc} on {uri}") from None
    length = md.get("length")
    if length is not None:
        try:
            meta.length = int(length)
        except ValueError:
            raise CodecError("malformed_xml", f"non-integer length {length!r} on {uri}") from None
    mime = md.get("type")
    if mime is not None:
        meta.mime_type = mime
    return meta


def _parse_entry(elem: ET.Element, entry_tag: str) -> ResourceEntry:
    loc: str | None = None
    lastmod = None
    metadata: ResourceMetadata | None = None
    for child in elem:
        if _local_tag(child.tag, "loc"):
            loc = (child.text or "").strip()
        elif _local_tag(child.tag, "lastmod"):
            try:
                lastmod = parse_w3c_datetime(child.text or "")
            except ValidationError as exc:
                raise CodecError("bad_datetime", exc.message) from None
        elif child.tag == _RS_MD:
            if metadata is not None:
                raise CodecError(
                    "malformed_xml", f"repeated rs:md inside <{entry_tag}> for {loc or '?'}"
                )
            metadata = child
        # anything else: unknown element, ignored
    if not loc:
        raise CodecError("bad_uri", f"<{entry_tag}> element without a loc")
    meta = _parse_entry_md(metadata, loc) if metadata is not None else ResourceMetadata()
    return ResourceEntry(uri=loc, lastmod=lastmod, metadata=meta)


def _check_entry(
    entry: ResourceEntry, prev: ResourceEntry | None, seen: set[str], index: bool, changelist: bool
) -> None:
    """Check a parsed entry, which follows ``prev``, against the rules of its
    document: an ``index``, a ``changelist`` or else a resource list. ``seen``
    collects the URIs of a resource list or index."""
    try:
        entry.validate()
    except ValidationError as exc:
        kind = "bad_uri" if exc.code == "bad_uri" else "malformed_xml"
        raise CodecError(kind, exc.message) from None
    meta = entry.metadata
    if changelist:
        # Change lists are event streams: a URI may repeat, in lastmod order.
        if meta.change is None:
            raise CodecError("malformed_xml", f"change list entry {entry.uri} lacks a change kind")
        if entry.lastmod is None:
            raise CodecError("bad_datetime", f"change list entry {entry.uri} lacks lastmod")
        if prev is not None and entry.lastmod < prev.lastmod:
            raise CodecError("malformed_xml", f"change list entry {entry.uri} out of lastmod order")
        return
    if index:
        if meta.change is not None or meta.digests:
            raise CodecError("entry_in_index", f"index member {entry.uri} has a change or hash")
    elif meta.change is not None:
        raise CodecError("malformed_xml", f"resource list entry {entry.uri} carries a change kind")
    if entry.uri in seen:
        raise CodecError("duplicate_uri", f"duplicate URI: {entry.uri}")
    seen.add(entry.uri)


def parse_document(data: bytes) -> SyncDocument:
    """Parse a resource list, change list, or index document.

    Raises CodecError naming the first violation in document order; the
    50,000-entry cap is checked before any entry is parsed.
    """
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError("malformed_xml", f"document is not UTF-8: {exc}") from None
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise CodecError("malformed_xml", f"XML parse error: {exc}") from None

    if _local_tag(root.tag, "urlset"):
        is_index_root = False
        entry_tag = "url"
    elif _local_tag(root.tag, "sitemapindex"):
        is_index_root = True
        entry_tag = "sitemap"
    else:
        raise CodecError("malformed_xml", f"root element {root.tag!r} is not urlset/sitemapindex")

    doc_md = None
    for child in root:
        if child.tag == _RS_MD:
            doc_md = child
            break
    if doc_md is None or doc_md.get("capability") is None:
        raise CodecError("missing_capability", "no document-level rs:md with a capability")
    cap_value = doc_md.get("capability")
    try:
        capability = CapabilityKind(cap_value)
    except ValueError:
        raise CodecError("unknown_capability", f"unknown capability {cap_value!r}") from None
    if capability.is_index != is_index_root:
        raise CodecError(
            "malformed_xml",
            f"capability {cap_value!r} not allowed on <{root.tag.split('}')[-1]}> root",
        )
    modified_attr = doc_md.get("modified")
    if modified_attr is None:
        raise CodecError("bad_datetime", "document-level rs:md lacks a modified instant")
    try:
        modified = parse_w3c_datetime(modified_attr)
    except ValidationError as exc:
        raise CodecError("bad_datetime", exc.message) from None

    elems = [elem for elem in root if _local_tag(elem.tag, entry_tag)]
    if not capability.is_index and len(elems) > MAX_DOCUMENT_ENTRIES:
        raise CodecError(
            "oversize_document", f"{len(elems)} entries exceed the {MAX_DOCUMENT_ENTRIES} cap"
        )
    changelist = capability == CapabilityKind.CHANGELIST
    entries: list[ResourceEntry] = []
    seen: set[str] = set()
    for elem in elems:
        entry = _parse_entry(elem, entry_tag)
        _check_entry(entry, entries[-1] if entries else None, seen, is_index_root, changelist)
        entries.append(entry)
    return SyncDocument(capability=capability, modified=modified, entries=entries)


def _attr(value: str) -> str:
    return escape(value, {'"': "&quot;"})


def _entry_md_attrs(meta: ResourceMetadata) -> str:
    parts = []
    if meta.change is not None:
        parts.append(f'change="{meta.change.value}"')
    if meta.digests:
        parts.append(f'hash="{_attr(format_digests(meta.digests))}"')
    if meta.length is not None:
        parts.append(f'length="{meta.length}"')
    if meta.mime_type is not None:
        parts.append(f'type="{_attr(meta.mime_type)}"')
    return " ".join(parts)


def serialize_document(doc: SyncDocument) -> bytes:
    """Serialize to canonical UTF-8 XML.

    Equal documents produce byte-identical output: fixed attribute order,
    fixed prefix ``rs``, two-space indent, lastmod at second precision.
    The caller supplies a valid document; only the size caps are checked.
    """
    if doc.capability.is_index:
        root_tag, entry_tag = "sitemapindex", "sitemap"
    elif len(doc.entries) > MAX_DOCUMENT_ENTRIES:
        n = len(doc.entries)
        raise CodecError("oversize_document", f"{n} entries exceed the {MAX_DOCUMENT_ENTRIES} cap")
    else:
        root_tag, entry_tag = "urlset", "url"

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<{root_tag} xmlns="{SITEMAP_NS}" xmlns:rs="{RS_NS}">',
        f'  <rs:md capability="{doc.capability.value}"'
        f' modified="{format_w3c_datetime(doc.modified)}"/>',
    ]
    for entry in doc.entries:
        lines.append(f"  <{entry_tag}>")
        lines.append(f"    <loc>{escape(entry.uri)}</loc>")
        if entry.lastmod is not None:
            lines.append(f"    <lastmod>{format_w3c_datetime(entry.lastmod)}</lastmod>")
        md_attrs = _entry_md_attrs(entry.metadata)
        if md_attrs:
            lines.append(f"    <rs:md {md_attrs}/>")
        lines.append(f"  </{entry_tag}>")
    lines.append(f"</{root_tag}>")
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if len(data) > MAX_SERIALIZED_BYTES:
        raise CodecError(
            "oversize_document", f"serialized document is {len(data)} bytes (cap 50 MB)"
        )
    return data
