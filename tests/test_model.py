from datetime import datetime, timezone

import pytest

from sitemapsync.model import (
    CapabilityKind,
    ResourceEntry,
    ResourceMetadata,
    SyncDocument,
    ValidationError,
    format_w3c_datetime,
    parse_w3c_datetime,
)

UTC = timezone.utc


class TestDatetime:
    def test_parse_second_precision(self):
        dt = parse_w3c_datetime("2013-01-02T13:00:00Z")
        assert dt == datetime(2013, 1, 2, 13, tzinfo=UTC)

    def test_fractional_seconds_truncated(self):
        assert parse_w3c_datetime("2013-01-02T13:00:00.987Z") == datetime(
            2013, 1, 2, 13, 0, 0, tzinfo=UTC
        )

    def test_numeric_offset_normalized_to_utc(self):
        assert parse_w3c_datetime("2013-01-02T14:30:00+01:30") == datetime(
            2013, 1, 2, 13, tzinfo=UTC
        )

    def test_date_only(self):
        assert parse_w3c_datetime("2013-01-02") == datetime(2013, 1, 2, tzinfo=UTC)

    @pytest.mark.parametrize(
        "bad", ["", "yesterday", "2013-13-02T00:00:00Z", "2013-01-02 13:00:00Z", "2013/01/02"]
    )
    def test_bad_datetimes_rejected(self, bad):
        with pytest.raises(ValidationError):
            parse_w3c_datetime(bad)

    def test_format_is_exact(self):
        dt = datetime(2013, 1, 3, 9, 0, 0, 123456, tzinfo=UTC)
        assert format_w3c_datetime(dt) == "2013-01-03T09:00:00Z"

    def test_round_trip(self):
        s = "2013-01-03T11:00:00Z"
        assert format_w3c_datetime(parse_w3c_datetime(s)) == s


class TestMetadata:
    def test_digest_length_enforced(self):
        ResourceMetadata(digests={"md5": "0" * 32, "sha-256": "a" * 64}).validate()
        with pytest.raises(ValidationError):
            ResourceMetadata(digests={"md5": "0" * 31}).validate()
        with pytest.raises(ValidationError):
            ResourceMetadata(digests={"sha-256": "0" * 32}).validate()

    def test_digest_must_be_lowercase_hex(self):
        with pytest.raises(ValidationError):
            ResourceMetadata(digests={"md5": "G" * 32}).validate()

    def test_negative_length_rejected(self):
        with pytest.raises(ValidationError):
            ResourceMetadata(length=-1).validate()


class TestDocumentInvariants:
    """Documents compare by structure; the codec checks them as it parses
    (``test_codec.TestEntryChecks``)."""

    def _doc(self, capability, entries):
        return SyncDocument(capability, datetime(2013, 1, 3, 9, tzinfo=UTC), entries)

    def test_structural_equality(self):
        a = self._doc(CapabilityKind.RESOURCELIST, [ResourceEntry("http://example.com/a")])
        b = self._doc(CapabilityKind.RESOURCELIST, [ResourceEntry("http://example.com/a")])
        assert a == b

