"""Raster containers and file round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkfilter import (ComplexRaster, FormatError, Raster, load_f64_raster,
                      load_pgm, save_f64_raster, save_pgm)


def test_raster_validates_shape_and_finiteness():
    with pytest.raises(ValueError):
        Raster(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        Raster(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        Raster(np.array([1.0, 2.0]))  # 1D


def test_raster_is_immutable():
    r = Raster(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        r.data[0, 0] = 1.0


def test_complex_raster_dimension_check():
    with pytest.raises(ValueError):
        ComplexRaster(Raster(np.zeros((2, 2))), Raster(np.zeros((2, 3))))


# ---------------------------------------------------------------------------
# PGM


def test_load_p5_two_by_two(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
    r = load_pgm(path)
    assert (r.width, r.height) == (2, 2)
    assert r.data.ravel().tolist() == [0.0, 255.0, 128.0, 64.0]
    assert r.range_hint == (0.0, 255.0)


def test_load_p2_single_pixel(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P2 1 1 255 7")
    r = load_pgm(path)
    assert (r.width, r.height, r.data[0, 0]) == (1, 1, 7.0)


def test_p6_rejected_with_offset(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P6\n1 1\n255\n" + bytes([1, 2, 3]))
    with pytest.raises(FormatError, match=r"magic.*byte 0"):
        load_pgm(path)


def test_truncated_payload_names_offset(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255]))
    with pytest.raises(FormatError, match="truncated"):
        load_pgm(path)


def test_p2_size_checked_against_file_before_allocating(tmp_path):
    # 2^24 x 2^24 samples would be 2 PiB of float64; 4 bytes follow the header
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P2 16777216 16777216 255 1 2")
    with pytest.raises(FormatError, match="truncated"):
        load_pgm(path)


def test_malformed_header(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n2 x\n255\n")
    with pytest.raises(FormatError, match="byte"):
        load_pgm(path)


def test_header_comments_are_skipped(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n# a comment\n1 1\n255\n\x2a")
    assert load_pgm(path).data[0, 0] == 42.0


def test_sixteen_bit_p5(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n2 1\n65535\n" + (500).to_bytes(2, "big")
                     + (65535).to_bytes(2, "big"))
    r = load_pgm(path)
    assert r.data.ravel().tolist() == [500.0, 65535.0]
    assert r.range_hint == (0.0, 65535.0)


def test_save_clamps_and_rounds(tmp_path):
    path = tmp_path / "t.pgm"
    save_pgm(Raster(np.array([[255.4]])), path)
    assert load_pgm(path).data[0, 0] == 255.0
    save_pgm(Raster(np.array([[-3.0]])), path)
    assert load_pgm(path).data[0, 0] == 0.0
    save_pgm(Raster(np.array([[0.5, 1.5]])), path)  # half away from zero
    assert load_pgm(path).data.ravel().tolist() == [1.0, 2.0]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 10 ** 9))
def test_eight_bit_round_trip_is_identity(w, h, seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 256, size=(h, w)).astype(float)
    import tempfile, os
    fd, path = tempfile.mkstemp(suffix=".pgm")
    os.close(fd)
    try:
        save_pgm(Raster(values), path)
        assert np.array_equal(load_pgm(path).data, values)
    finally:
        os.unlink(path)


# ---------------------------------------------------------------------------
# MKFR


def test_mkfr_bit_exact_round_trip(tmp_path):
    path = tmp_path / "t.mkfr"
    values = np.array([[-3000.0, 2999.5]])
    save_f64_raster(Raster(values), path)
    back = load_f64_raster(path)
    assert back.data.tobytes() == values.tobytes()


def test_mkfr_preserves_awkward_values(tmp_path):
    path = tmp_path / "t.mkfr"
    values = np.array([[np.pi, -0.0, 1e-300], [1e300, 2.0 ** -52, -17.25]])
    save_f64_raster(Raster(values), path)
    assert load_f64_raster(path).data.tobytes() == values.tobytes()


def test_mkfr_length_mismatch(tmp_path):
    import struct
    path = tmp_path / "t.mkfr"
    payload = struct.pack("<3d", 1.0, 2.0, 3.0)  # header says 4 pixels
    path.write_bytes(b"MKFR" + struct.pack("<II", 2, 2) + payload)
    with pytest.raises(FormatError, match="mismatch"):
        load_f64_raster(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_mkfr_non_finite_value_is_a_format_error(tmp_path, value):
    import struct
    path = tmp_path / "t.mkfr"
    path.write_bytes(b"MKFR" + struct.pack("<II", 3, 1)
                     + struct.pack("<3d", 1.0, value, 2.0))
    with pytest.raises(FormatError, match="non-finite value at byte 20"):
        load_f64_raster(path)


def test_mkfr_empty_file_is_bad_magic(tmp_path):
    path = tmp_path / "t.mkfr"
    path.write_bytes(b"")
    with pytest.raises(FormatError, match="magic"):
        load_f64_raster(path)

