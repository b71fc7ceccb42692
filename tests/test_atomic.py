import pytest

from sitemapsync.atomic import TEMP_PREFIX, atomic_file, atomic_write_bytes
from sitemapsync.source import RESERVED_PREFIX


def temp_files(directory):
    return list(directory.glob(TEMP_PREFIX + "*"))


def test_temp_prefix_is_reserved():
    """No URI maps onto a temp file, so a store never lists one."""
    assert TEMP_PREFIX.startswith(RESERVED_PREFIX)


def test_clean_exit_replaces_the_file(tmp_path):
    target = tmp_path / "d" / "f.bin"
    atomic_write_bytes(target, b"old")
    with atomic_file(target) as fh:
        fh.write(b"new")
    assert target.read_bytes() == b"new"
    assert temp_files(target.parent) == []


def test_raising_block_leaves_old_bytes_and_no_temp_file(tmp_path):
    target = tmp_path / "f.bin"
    target.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_file(target) as fh:
            fh.write(b"half")
            raise RuntimeError("cut")
    assert target.read_bytes() == b"old"
    assert temp_files(tmp_path) == []


def test_temp_file_lives_in_temp_dir(tmp_path):
    store = tmp_path / "store"
    store.mkdir()
    target = store / "a" / "b" / "f.bin"
    with atomic_file(target, store) as fh:
        fh.write(b"x")
        assert [p.parent for p in temp_files(store)] == [store]
        assert not target.parent.exists()  # created only at the rename
    assert target.read_bytes() == b"x"
    assert temp_files(store) == []


def test_parent_that_is_a_file_leaves_no_temp_file(tmp_path):
    (tmp_path / "d0").write_bytes(b"a file")
    with pytest.raises(OSError):
        with atomic_file(tmp_path / "d0" / "f.bin", tmp_path) as fh:
            fh.write(b"x")
    assert temp_files(tmp_path) == []
    assert (tmp_path / "d0").read_bytes() == b"a file"
