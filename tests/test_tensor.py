import struct

import numpy as np
import pytest

from shiftnet.tensor import blob_dump, blob_load, he_normal


class TestCreate:
    def test_he_normal_deterministic(self):
        a = he_normal((1, 16, 32, 32), fan_in=16 * 9, seed=7)
        b = he_normal((1, 16, 32, 32), fan_in=16 * 9, seed=7)
        assert np.array_equal(a, b)

    def test_he_normal_variance(self):
        t = he_normal((100, 100), fan_in=50, seed=1, dtype=np.float64)
        assert abs(t.std() - np.sqrt(2 / 50)) < 0.01
        assert abs(t.mean()) < 0.01

    def test_seed_changes_data(self):
        a = he_normal((64,), 8, seed=0)
        b = he_normal((64,), 8, seed=1)
        assert not np.array_equal(a, b)

    def test_negative_dimension_rejected(self):
        with pytest.raises(ValueError):
            he_normal((1, -2, 3, 3), 1)

    def test_flat_index_overflow_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            he_normal((2**21, 2**21, 2**21, 2), 1)

    def test_zero_sized_dimension_allowed(self):
        t = he_normal((2, 0, 4, 4), 1)
        assert t.size == 0

    def test_dtype_switch(self):
        assert he_normal((3,), 1, dtype=np.float64).dtype == np.float64
        assert he_normal((3,), 1).dtype == np.float32

    def test_he_normal_needs_fan_in(self):
        with pytest.raises(ValueError):
            he_normal((3,), fan_in=0, seed=0)


class TestBlobFormat:
    def test_round_trip_rank4(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
        b, off = blob_load(blob_dump(a))
        assert off == 32 + a.nbytes
        assert np.array_equal(a, b)

    def test_rank_padding(self):
        a = np.arange(6, dtype=np.float32)
        b, _ = blob_load(blob_dump(a))
        assert b.shape == (1, 1, 1, 6)
        assert np.array_equal(b.ravel(), a)

    def test_header_layout(self):
        blob = blob_dump(np.zeros((1, 2, 3, 4), dtype=np.float32))
        dims = np.frombuffer(blob[:32], dtype="<i8")
        assert list(dims) == [1, 2, 3, 4]
        assert len(blob) == 32 + 24 * 4

    def test_values_little_endian_f32(self):
        blob = blob_dump(np.array([1.0], dtype=np.float32))
        assert blob[32:] == struct.pack("<f", 1.0)

    def test_truncated_payload_rejected(self):
        blob = blob_dump(np.ones((2, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="exceeds buffer"):
            blob_load(blob[:-4])

    @pytest.mark.parametrize("shape", [(2**32, 2**32, 1, 1), (2**31, 2**31, 4, 1)])
    def test_wrapping_element_count_rejected(self, shape):
        # the count's int64 product wraps to 0; the payload must still be checked
        header = struct.pack("<4q", *shape)
        with pytest.raises(ValueError, match="exceeds buffer"):
            blob_load(header + b"\0" * 16)

    def test_truncated_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            blob_load(b"\x00" * 10)

    def test_rank5_rejected(self):
        with pytest.raises(ValueError):
            blob_dump(np.zeros((1, 1, 1, 1, 1), dtype=np.float32))

    def test_multiple_blobs_concatenated(self):
        a = np.ones((2, 2), dtype=np.float32)
        b = np.full((3,), 2.0, dtype=np.float32)
        buf = blob_dump(a) + blob_dump(b)
        first, off = blob_load(buf)
        second, end = blob_load(buf, off)
        assert end == len(buf)
        assert np.array_equal(first.ravel(), a.ravel())
        assert np.array_equal(second.ravel(), b.ravel())
