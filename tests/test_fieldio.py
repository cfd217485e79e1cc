import numpy as np
import pytest

from llap.grid import RealField, make_grid
from llap.fieldio import MAGIC, dump_field, dump_sidecar, load_field, load_sidecar


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


def test_sidecar_roundtrip(tmp_path):
    path = tmp_path / "k.meta"
    dump_sidecar(path, "difference", {"width1": 1.0, "width2": 2.0, "amplitude": 0.5})
    family, params = load_sidecar(path)
    assert family == "difference"
    assert params == {"width1": 1.0, "width2": 2.0, "amplitude": 0.5}


def test_sidecar_requires_family(tmp_path):
    path = tmp_path / "k.meta"
    path.write_text("width = 1.0\n")
    with pytest.raises(ValueError, match="family"):
        load_sidecar(path)


def test_sidecar_bad_line(tmp_path):
    path = tmp_path / "k.meta"
    path.write_text("family = gaussian\nwidth 1.0\n")
    with pytest.raises(ValueError, match=":2:"):
        load_sidecar(path)
