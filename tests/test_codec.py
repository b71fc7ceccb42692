import random
from datetime import datetime, timezone

import pytest

from sitemapsync import codec
from sitemapsync.codec import (
    CodecError,
    parse_document,
    serialize_document,
)
from sitemapsync.model import (
    CapabilityKind,
    ChangeKind,
    ResourceEntry,
    ResourceMetadata,
    SyncDocument,
)

from docgen import random_document

UTC = timezone.utc

RESOURCE_LIST_XML = b"""<?xml version="1.0" encoding="UTF-8"?>
<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9"
        xmlns:rs="http://www.openarchives.org/rs/terms/">
  <rs:md capability="resourcelist"
         modified="2013-01-03T09:00:00Z"/>
  <url>
      <loc>http://example.com/res1</loc>
  </url>
  <url>
      <loc>http://example.com/res2</loc>
  </url>
</urlset>
"""

CHANGE_LIST_XML = b"""<?xml version="1.0" encoding="UTF-8"?>
<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9"
        xmlns:rs="http://www.openarchives.org/rs/terms/">
  <rs:md capability="changelist"
         modified="2013-01-03T11:00:00Z"/>
  <url>
      <loc>http://example.com/res2.pdf</loc>
      <lastmod>2013-01-02T13:00:00Z</lastmod>
      <rs:md change="updated"/>
  </url>
  <url>
      <loc>http://example.com/res3.tiff</loc>
      <lastmod>2013-01-02T18:00:00Z</lastmod>
      <rs:md change="deleted"/>
  </url>
</urlset>
"""


class TestGoldenListings:
    def test_resource_list_parses(self):
        doc = parse_document(RESOURCE_LIST_XML)
        assert doc.capability == CapabilityKind.RESOURCELIST
        assert doc.modified == datetime(2013, 1, 3, 9, tzinfo=UTC)
        assert [e.uri for e in doc.entries] == [
            "http://example.com/res1",
            "http://example.com/res2",
        ]
        assert all(e.lastmod is None for e in doc.entries)

    def test_change_list_parses(self):
        doc = parse_document(CHANGE_LIST_XML)
        assert doc.capability == CapabilityKind.CHANGELIST
        assert doc.modified == datetime(2013, 1, 3, 11, tzinfo=UTC)
        first, second = doc.entries
        assert first.uri == "http://example.com/res2.pdf"
        assert first.lastmod == datetime(2013, 1, 2, 13, tzinfo=UTC)
        assert first.metadata.change == ChangeKind.UPDATED
        assert second.uri == "http://example.com/res3.tiff"
        assert second.lastmod == datetime(2013, 1, 2, 18, tzinfo=UTC)
        assert second.metadata.change == ChangeKind.DELETED

    def test_golden_round_trip_structural(self):
        for golden in (RESOURCE_LIST_XML, CHANGE_LIST_XML):
            doc = parse_document(golden)
            assert parse_document(serialize_document(doc)) == doc

    def test_change_kind_attributes_serialized(self):
        doc = parse_document(CHANGE_LIST_XML)
        out = serialize_document(doc).decode()
        assert 'change="updated"' in out
        assert 'change="deleted"' in out


class TestParsing:
    def test_empty_url_list(self):
        data = (
            b'<?xml version="1.0" encoding="UTF-8"?>'
            b'<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9" '
            b'xmlns:rs="http://www.openarchives.org/rs/terms/">'
            b'<rs:md capability="resourcelist" modified="2013-01-03T09:00:00Z"/>'
            b"</urlset>"
        )
        doc = parse_document(data)
        assert doc.entries == []

    def test_duplicate_uri_rejected(self):
        data = RESOURCE_LIST_XML.replace(b"res2", b"res1")
        with pytest.raises(CodecError) as exc:
            parse_document(data)
        assert exc.value.kind == "duplicate_uri"

    def test_missing_capability(self):
        data = RESOURCE_LIST_XML.replace(b'capability="resourcelist"', b'cap="x"')
        with pytest.raises(CodecError) as exc:
            parse_document(data)
        assert exc.value.kind == "missing_capability"

    def test_unknown_capability(self):
        data = RESOURCE_LIST_XML.replace(b'"resourcelist"', b'"resourcedump"')
        with pytest.raises(CodecError) as exc:
            parse_document(data)
        assert exc.value.kind == "unknown_capability"

    def test_bad_modified(self):
        data = RESOURCE_LIST_XML.replace(b"2013-01-03T09:00:00Z", b"notadate")
        with pytest.raises(CodecError) as exc:
            parse_document(data)
        assert exc.value.kind == "bad_datetime"

    def test_missing_modified(self):
        data = RESOURCE_LIST_XML.replace(b'modified="2013-01-03T09:00:00Z"', b"")
        with pytest.raises(CodecError) as exc:
            parse_document(data)
        assert exc.value.kind == "bad_datetime"

    def test_bad_entry_lastmod(self):
        data = CHANGE_LIST_XML.replace(b"2013-01-02T13:00:00Z", b"13 o'clock")
        with pytest.raises(CodecError) as exc:
            parse_document(data)
        assert exc.value.kind == "bad_datetime"

    def test_relative_loc_rejected(self):
        data = RESOURCE_LIST_XML.replace(b"http://example.com/res1", b"/res1")
        with pytest.raises(CodecError) as exc:
            parse_document(data)
        assert exc.value.kind == "bad_uri"

    def test_url_without_loc(self):
        data = RESOURCE_LIST_XML.replace(
            b"<loc>http://example.com/res1</loc>", b"<priority>1.0</priority>"
        )
        with pytest.raises(CodecError) as exc:
            parse_document(data)
        assert exc.value.kind == "bad_uri"

    def test_malformed_xml(self):
        with pytest.raises(CodecError) as exc:
            parse_document(b"<urlset>")
        assert exc.value.kind == "malformed_xml"

    def test_non_utf8_rejected(self):
        with pytest.raises(CodecError) as exc:
            parse_document("<urlset>\xe9</urlset>".encode("latin-1"))
        assert exc.value.kind == "malformed_xml"

    def test_wrong_root_element(self):
        with pytest.raises(CodecError) as exc:
            parse_document(b'<?xml version="1.0"?><feed></feed>')
        assert exc.value.kind == "malformed_xml"

    def test_unknown_change_kind(self):
        data = CHANGE_LIST_XML.replace(b'change="updated"', b'change="mangled"')
        with pytest.raises(CodecError) as exc:
            parse_document(data)
        assert exc.value.kind == "malformed_xml"

    def test_changelist_out_of_order(self):
        data = CHANGE_LIST_XML.replace(b"2013-01-02T18:00:00Z", b"2013-01-01T18:00:00Z")
        with pytest.raises(CodecError):
            parse_document(data)

    def test_changelist_entry_without_change(self):
        data = CHANGE_LIST_XML.replace(b'<rs:md change="updated"/>', b"")
        with pytest.raises(CodecError):
            parse_document(data)

    def test_repeated_entry_md_rejected(self):
        data = CHANGE_LIST_XML.replace(
            b'<rs:md change="updated"/>', b'<rs:md change="updated"/><rs:md length="3"/>'
        )
        with pytest.raises(CodecError) as exc:
            parse_document(data)
        assert exc.value.kind == "malformed_xml"

    def test_unknown_elements_and_attributes_ignored(self):
        data = (
            b'<?xml version="1.0" encoding="UTF-8"?>'
            b'<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9" '
            b'xmlns:rs="http://www.openarchives.org/rs/terms/" '
            b'xmlns:x="http://example.com/decoy">'
            b'<x:banner>shiny</x:banner>'
            b'<rs:md capability="resourcelist" modified="2013-01-03T09:00:00Z" decoy="1"/>'
            b"<url><loc>http://example.com/res1</loc>"
            b"<priority>0.8</priority><x:extra attr='2'/>"
            b'<rs:md length="5" decoy="yes"/></url>'
            b"</urlset>"
        )
        doc = parse_document(data)
        assert len(doc.entries) == 1
        assert doc.entries[0].metadata.length == 5

    def test_any_rs_prefix_accepted(self):
        data = CHANGE_LIST_XML.replace(b"rs:", b"sync:").replace(
            b'xmlns:sync="http://www.openarchives.org/rs/terms/"',
            b'xmlns:sync="http://www.openarchives.org/rs/terms/"',
        )
        data = data.replace(
            b'xmlns:rs="http://www.openarchives.org/rs/terms/"',
            b'xmlns:sync="http://www.openarchives.org/rs/terms/"',
        )
        doc = parse_document(data)
        assert doc.capability == CapabilityKind.CHANGELIST

    def test_hash_attribute_parsed(self):
        data = (
            b'<?xml version="1.0" encoding="UTF-8"?>'
            b'<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9" '
            b'xmlns:rs="http://www.openarchives.org/rs/terms/">'
            b'<rs:md capability="resourcelist" modified="2013-01-03T09:00:00Z"/>'
            b"<url><loc>http://example.com/res1</loc>"
            b'<rs:md hash="md5:' + b"0" * 32 + b" sha-256:" + b"1" * 64 + b'" '
            b'length="2" type="text/plain"/></url>'
            b"</urlset>"
        )
        entry = parse_document(data).entries[0]
        assert entry.metadata.digests == {"md5": "0" * 32, "sha-256": "1" * 64}
        assert entry.metadata.length == 2
        assert entry.metadata.mime_type == "text/plain"


class TestIndexDocuments:
    def _index(self, n=2):
        modified = datetime(2013, 1, 3, 9, tzinfo=UTC)
        entries = [
            ResourceEntry(uri=f"http://example.com/resourcelist-{i}.xml", lastmod=modified)
            for i in range(1, n + 1)
        ]
        return SyncDocument(CapabilityKind.RESOURCELIST_INDEX, modified, entries)

    def test_minimal_index_round_trip(self):
        doc = self._index()
        parsed = parse_document(serialize_document(doc))
        assert parsed == doc
        assert len(parsed.entries) == 2 and parsed.capability.is_index

    def test_index_uses_sitemapindex_root(self):
        out = serialize_document(self._index()).decode()
        assert "<sitemapindex" in out and "<sitemap>" in out

    def test_member_with_change_rejected(self):
        data = (
            b'<?xml version="1.0" encoding="UTF-8"?>'
            b'<sitemapindex xmlns="http://www.sitemaps.org/schemas/sitemap/0.9" '
            b'xmlns:rs="http://www.openarchives.org/rs/terms/">'
            b'<rs:md capability="changelist-index" modified="2013-01-03T09:00:00Z"/>'
            b"<sitemap><loc>http://example.com/changelist-1.xml</loc>"
            b'<rs:md change="updated"/></sitemap>'
            b"</sitemapindex>"
        )
        with pytest.raises(CodecError) as exc:
            parse_document(data)
        assert exc.value.kind == "entry_in_index"

    def test_index_capability_on_urlset_rejected(self):
        data = RESOURCE_LIST_XML.replace(b'"resourcelist"', b'"resourcelist-index"')
        with pytest.raises(CodecError) as exc:
            parse_document(data)
        assert exc.value.kind == "malformed_xml"


class TestSerialization:
    def test_oversize_document_rejected_on_parse(self):
        urls = b"".join(
            b"<url><loc>http://example.com/r%d</loc></url>" % i for i in range(50_001)
        )
        data = (
            b'<?xml version="1.0" encoding="UTF-8"?>'
            b'<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9" '
            b'xmlns:rs="http://www.openarchives.org/rs/terms/">'
            b'<rs:md capability="resourcelist" modified="2013-01-03T09:00:00Z"/>'
            + urls
            + b"</urlset>"
        )
        with pytest.raises(CodecError) as exc:
            parse_document(data)
        assert exc.value.kind == "oversize_document"

    def test_oversize_document_rejected(self):
        modified = datetime(2013, 1, 3, 9, tzinfo=UTC)
        entries = [ResourceEntry(f"http://example.com/r{i}") for i in range(50_001)]
        with pytest.raises(CodecError) as exc:
            serialize_document(SyncDocument(CapabilityKind.RESOURCELIST, modified, entries))
        assert exc.value.kind == "oversize_document"

    def test_escaping_round_trips(self):
        modified = datetime(2013, 1, 3, 9, tzinfo=UTC)
        doc = SyncDocument(
            CapabilityKind.RESOURCELIST,
            modified,
            [
                ResourceEntry(
                    "http://example.com/q?a=1&b=<2>",
                    metadata=ResourceMetadata(mime_type='odd/"quoted"&more'),
                )
            ],
        )
        assert parse_document(serialize_document(doc)) == doc

    def test_deterministic_output(self):
        rng = random.Random(99)
        for _ in range(20):
            doc = random_document(rng)
            a = serialize_document(doc)
            copy = SyncDocument(doc.capability, doc.modified, list(doc.entries))
            assert serialize_document(copy) == a

    def test_attribute_order_fixed(self):
        doc = parse_document(CHANGE_LIST_XML)
        out = serialize_document(doc).decode()
        assert 'capability="changelist" modified="2013-01-03T11:00:00Z"' in out

    def test_random_documents_round_trip(self):
        rng = random.Random(4242)
        for _ in range(200):
            doc = random_document(rng)
            assert parse_document(serialize_document(doc)) == doc

    def test_whitespace_independence(self):
        # Same document, radically different formatting: equal parse results.
        compact = (
            b'<?xml version="1.0" encoding="UTF-8"?><urlset '
            b'xmlns="http://www.sitemaps.org/schemas/sitemap/0.9" '
            b'xmlns:rs="http://www.openarchives.org/rs/terms/"><rs:md '
            b'capability="resourcelist" modified="2013-01-03T09:00:00Z"/><url>'
            b"<loc>http://example.com/res1</loc></url><url>"
            b"<loc>http://example.com/res2</loc></url></urlset>"
        )
        assert parse_document(compact) == parse_document(RESOURCE_LIST_XML)


A = "http://example.com/a"
B = "http://example.com/b"
T0 = "2013-01-02T12:00:00Z"
T1 = "2013-01-02T13:00:00Z"
MD5 = "0" * 32


def _entry(loc, lastmod=None, md=""):
    """The inner XML of one entry element."""
    lastmod = f"<lastmod>{lastmod}</lastmod>" if lastmod else ""
    md = f"<rs:md {md}/>" if md else ""
    return f"<loc>{loc}</loc>{lastmod}{md}"


def _document(capability, entries):
    """A document of ``capability`` holding one entry element per inner XML."""
    root, tag = ("sitemapindex", "sitemap") if capability.endswith("-index") else ("urlset", "url")
    body = "".join(f"<{tag}>{entry}</{tag}>" for entry in entries)
    return (
        f'<?xml version="1.0" encoding="UTF-8"?>'
        f'<{root} xmlns="http://www.sitemaps.org/schemas/sitemap/0.9" '
        f'xmlns:rs="http://www.openarchives.org/rs/terms/">'
        f'<rs:md capability="{capability}" modified="2013-01-03T09:00:00Z"/>{body}</{root}>'
    ).encode()


# One row per check a parsed entry must pass; kind None means the document is accepted.
ENTRY_CHECKS = [
    pytest.param("resourcelist", [_entry(A), _entry("/res1")], "bad_uri", id="relative_uri"),
    pytest.param(
        "resourcelist", [_entry(A), _entry("http://[::1/x")], "bad_uri", id="unclosed_ipv6_uri"
    ),
    pytest.param(
        "resourcelist", [_entry(A, md=f'hash="md5:{"G" * 32}"')], "malformed_xml",
        id="digest_not_hex",
    ),
    pytest.param(
        "resourcelist", [_entry(A, md=f'hash="md5:{"0" * 31}"')], "malformed_xml",
        id="digest_wrong_length",
    ),
    pytest.param(
        "resourcelist", [_entry(A, md='length="-1"')], "malformed_xml", id="negative_length"
    ),
    pytest.param("resourcelist", [_entry(A, md='type=""')], "malformed_xml", id="empty_type"),
    pytest.param(
        "resourcelist-index", [_entry(A, T1, 'change="updated"')], "entry_in_index",
        id="index_member_with_change",
    ),
    pytest.param(
        "changelist-index", [_entry(A, T1, f'hash="md5:{MD5}"')], "entry_in_index",
        id="index_member_with_hash",
    ),
    pytest.param(
        "resourcelist", [_entry(A, md='change="updated"')], "malformed_xml",
        id="resourcelist_entry_with_change",
    ),
    pytest.param(
        "changelist", [_entry(A, T1)], "malformed_xml", id="changelist_entry_without_change"
    ),
    pytest.param(
        "changelist", [_entry(A, md='change="updated"')], "bad_datetime",
        id="changelist_entry_without_lastmod",
    ),
    pytest.param(
        "changelist", [_entry(A, T1, 'change="updated"'), _entry(B, T0, 'change="updated"')],
        "malformed_xml", id="changelist_out_of_order",
    ),
    pytest.param(
        "resourcelist", [_entry(A), _entry(B), _entry(A)], "duplicate_uri",
        id="resourcelist_repeats_uri",
    ),
    pytest.param(
        "resourcelist-index", [_entry(A), _entry(A)], "duplicate_uri", id="index_repeats_uri"
    ),
    pytest.param(
        "changelist", [_entry(A, T1, 'change="created"'), _entry(A, T1, 'change="updated"')], None,
        id="changelist_repeats_uri",
    ),
]


class TestEntryChecks:
    """Each violation is rejected at the parse boundary with its own kind."""

    @pytest.mark.parametrize("capability, entries, kind", ENTRY_CHECKS)
    def test_violation_kind(self, capability, entries, kind):
        data = _document(capability, entries)
        if kind is None:
            assert len(parse_document(data).entries) == len(entries)
            return
        with pytest.raises(CodecError) as exc:
            parse_document(data)
        assert exc.value.kind == kind

    def test_first_violation_in_document_order_is_reported(self):
        data = _document("resourcelist", [_entry(A), _entry(A), _entry("/res1")])
        with pytest.raises(CodecError) as exc:
            parse_document(data)
        assert exc.value.kind == "duplicate_uri"

    def test_cap_is_checked_before_any_entry_is_parsed(self, monkeypatch):
        monkeypatch.setattr(codec, "MAX_DOCUMENT_ENTRIES", 2)
        data = _document("resourcelist", [_entry(f"{A}{i}", "not a date") for i in range(3)])
        with pytest.raises(CodecError) as exc:
            parse_document(data)
        assert exc.value.kind == "oversize_document"
