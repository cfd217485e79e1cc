import numpy as np
import pytest

from llap.grid import RealField, make_grid
from llap.fieldio import MAGIC, dump_field, load_field
from conftest import traced_peak


@pytest.mark.parametrize("d,n", [(1, 64), (2, 16), (3, 8)])
def test_dump_load_roundtrip(tmp_path, d, n):
    g = make_grid(d, 7.5, n)
    rng = np.random.default_rng(d)
    f = RealField(rng.normal(size=g.shape), g)
    path = tmp_path / "field.llap"
    dump_field(f, path)
    back = load_field(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_load_holds_the_file_and_one_copy(tmp_path):
    # The file's bytes and the field's own frozen copy of the payload.
    g = make_grid(2, 7.5, 128)
    f = RealField(np.random.default_rng(0).normal(size=g.shape), g)
    path = tmp_path / "field.llap"
    dump_field(f, path)
    load_field(path)  # warm up
    back, peak = traced_peak(lambda: load_field(path))
    real = 8 * g.npoints
    assert peak <= 2.5 * real, peak / real
    assert np.array_equal(back.values, f.values)
    assert not back.values.flags.writeable


def test_dump_holds_no_copy_of_the_payload(tmp_path):
    # The header and the samples' own array are written in turn; the
    # header + tobytes() concatenation held two copies (2.01 real fields).
    g = make_grid(2, 7.5, 256)
    f = RealField(np.random.default_rng(0).normal(size=g.shape), g)
    dump_field(f, tmp_path / "warm.llap")
    _, peak = traced_peak(lambda: dump_field(f, tmp_path / "field.llap"))
    real = 8 * g.npoints
    assert peak < 0.1 * real, peak / real
    assert (tmp_path / "field.llap").read_bytes()[24:] == f.values.astype("<f8").tobytes()


def test_header_layout(tmp_path):
    g = make_grid(1, 2.0, 8)
    f = RealField(np.arange(8, dtype=float), g)
    path = tmp_path / "f.llap"
    dump_field(f, path)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert int.from_bytes(raw[4:8], "little") == 1  # version
    assert int.from_bytes(raw[8:12], "little") == 1  # d
    assert int.from_bytes(raw[12:16], "little") == 8  # n
    assert len(raw) == 24 + 8 * 8


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.llap"
    path.write_bytes(b"NOPE" + bytes(28))
    with pytest.raises(ValueError, match="magic"):
        load_field(path)


def test_bad_version_rejected(tmp_path):
    g = make_grid(1, 2.0, 8)
    path = tmp_path / "v.llap"
    dump_field(RealField.zeros(g), path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        load_field(path)


def test_truncated_payload_rejected(tmp_path):
    g = make_grid(1, 2.0, 8)
    path = tmp_path / "t.llap"
    dump_field(RealField.zeros(g), path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="size"):
        load_field(path)


def test_load_reads_the_payload_into_one_array(tmp_path):
    # The payload goes straight into the field's array; the finiteness scan
    # adds a byte per sample.
    g = make_grid(2, 7.5, 256)
    f = RealField(np.random.default_rng(1).normal(size=g.shape), g)
    path = tmp_path / "field.llap"
    dump_field(f, path)
    load_field(path)  # warm up
    back, peak = traced_peak(lambda: load_field(path))
    real = 8 * g.npoints
    assert peak <= 1.2 * real, peak / real
    assert np.array_equal(back.values, f.values)
    assert not back.values.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_payload_rejected(tmp_path, bad):
    g = make_grid(1, 2.0, 8)
    path = tmp_path / "nf.llap"
    dump_field(RealField.zeros(g), path)
    raw = bytearray(path.read_bytes())
    raw[-8:] = np.array([bad], dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="field contains non-finite entries"):
        load_field(path)


def test_oversized_payload_rejected(tmp_path):
    g = make_grid(1, 2.0, 8)
    path = tmp_path / "o.llap"
    dump_field(RealField.zeros(g), path)
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(ValueError, match="payload size mismatch, expected 88 bytes, got 96"):
        load_field(path)
