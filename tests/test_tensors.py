import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from binsed import (
    BinaryTensor,
    FixedTensor,
    pack,
    pack_weights,
    quantize_real,
    quantize_values,
    unpack,
    unpack_weights,
)
from binsed.kernels import get_popcount
from binsed.tensors import _pack_bits, _unpack_bits


def test_pack_single_plus_one():
    t = pack(np.array([[[1]]]))
    assert t.words.shape == (1, 1, 1)
    assert t.words[0, 0, 0] == 0x00000001


def test_pack_all_minus_one_word():
    t = pack(-np.ones((1, 1, 32), dtype=np.int8))
    assert t.words[0, 0, 0] == 0x00000000


def test_pack_rejects_non_binary():
    bad = np.ones((2, 2, 3), dtype=np.int8)
    bad[1, 0, 2] = 0
    with pytest.raises(ValueError, match=r"\(1, 0, 2\)"):
        pack(bad)


def test_unpack_examples():
    t = BinaryTensor(1, 1, 2, np.array([[[0x00000003]]], dtype=np.uint32))
    assert unpack(t).tolist() == [[[1, 1]]]
    t = BinaryTensor(1, 1, 2, np.array([[[0x00000002]]], dtype=np.uint32))
    assert unpack(t).tolist() == [[[-1, 1]]]


def test_roundtrip_random_tensors():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        h = int(rng.integers(1, 5))
        w = int(rng.integers(1, 5))
        c = int(rng.choice([1, 7, 31, 32, 33, 40, 64, 96]))
        dense = rng.choice([-1, 1], (h, w, c)).astype(np.int8)
        t = pack(dense)
        assert (unpack(t) == dense).all()
        again = pack(unpack(t))
        assert (again.words == t.words).all()


def test_roundtrip_fixed_sizes_from_examples():
    rng = np.random.default_rng(7)
    for _ in range(50):
        dense = rng.choice([-1, 1], (2, 2, 40)).astype(np.int8)
        assert (unpack(pack(dense)) == dense).all()


def test_padding_bits_are_zero_and_popcount_safe():
    rng = np.random.default_rng(3)
    popcount = get_popcount()
    for c in (1, 5, 31, 33, 40, 37):
        t = pack(rng.choice([-1, 1], (3, 4, c)).astype(np.int8))
        per_pixel = popcount(t.words).astype(np.int64).sum(axis=-1)
        assert (per_pixel <= c).all()


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 200))
       .flatmap(lambda shape: arrays(np.bool_, shape)))
def test_pack_bits_unpack_bits_roundtrip(bits):
    words = _pack_bits(bits)
    c = bits.shape[-1]
    assert words.dtype == np.uint32 and words.shape == bits.shape[:-1] + (-(-c // 32),)
    assert (_unpack_bits(words, c) == bits).all()
    # padding bits past the channel count are zero
    assert (_unpack_bits(words, words.shape[-1] * 32)[..., c:] == 0).all()
    assert (_pack_bits(bits.astype(np.uint32)) == words).all()


def test_weights_roundtrip():
    rng = np.random.default_rng(5)
    dense = rng.choice([-1, 1], (6, 3, 3, 37)).astype(np.int8)
    w = pack_weights(dense)
    assert (unpack_weights(w) == dense).all()


def test_tensor_is_immutable():
    t = pack(np.ones((1, 1, 4), dtype=np.int8))
    with pytest.raises(ValueError):
        t.words[0, 0, 0] = 5


def test_quantize_half_at_f8():
    q, sat = quantize_values(0.5, 8)
    assert q == 128 and sat == 0


def test_quantize_exact_boundary():
    q, sat = quantize_values(-1.0, 15, 16)
    assert q == -32768 and sat == 0


def test_quantize_saturates():
    # 300.7 * 256 = 76979.2 > 32767
    q, sat = quantize_values(300.7, 8, 16)
    assert q == 32767 and sat == 1


def test_quantize_ties_away_from_zero():
    q, _ = quantize_values([2.5, -2.5, 0.5, -0.5], 0, 16)
    assert q.tolist() == [3, -3, 1, -1]


def test_quantize_error_bound():
    rng = np.random.default_rng(11)
    for f in (0, 4, 10):
        vals = rng.uniform(-20, 20, 500)
        q, sat = quantize_values(vals, f, 32)
        assert sat == 0
        err = np.abs(q * 2.0 ** -f - vals)
        assert (err <= 2.0 ** (-f - 1) + 1e-12).all()


def test_quantize_real_builds_tensor():
    t = quantize_real(np.full((3, 4), 0.25), 8, 16)
    assert t.shape == (3, 4, 1)
    assert (t.values == 64).all()
    assert t.to_real()[0, 0, 0] == 0.25


def test_quantize_real_reports_saturation():
    t = quantize_real(np.array([[300.7, 0.0]]), 8, 16)
    assert t.saturated == 1


@pytest.mark.parametrize("bitwidth, dtype", [(16, np.int16), (32, np.int32)])
def test_quantize_real_emits_storage_dtype(bitwidth, dtype):
    t = quantize_real(np.array([[300.7, -1.5]]), 8, bitwidth)
    assert t.values.dtype == dtype
    assert t.values.ravel().tolist() == ([32767, -384] if bitwidth == 16 else [76979, -384])


def test_quantize_values_stays_int32():
    q, _ = quantize_values([1.0, -1.0], 8, 16)
    assert q.dtype == np.int32


class _NoScan(np.ndarray):
    def min(self, *args, **kwargs):
        raise AssertionError("range scan")

    max = min


def test_fixed_tensor_keeps_storage_dtype_array():
    # no copy and no min/max scan: the dtype is the range check
    vals = np.arange(-6, 6, dtype=np.int16).reshape(2, 3, 2).view(_NoScan)
    t = FixedTensor(2, 3, 2, vals, 8, 16)
    assert t.values is vals
    assert not vals.flags.writeable
    wide = np.zeros((1, 1, 1), dtype=np.int32).view(_NoScan)
    assert FixedTensor(1, 1, 1, wide, 8, 32).values is wide


def test_fixed_tensor_narrows_in_range_int32():
    vals = np.array([[[-32768], [32767]]], dtype=np.int32)
    t = FixedTensor(1, 2, 1, vals, 0, 16)
    assert t.values.dtype == np.int16
    assert t.values.ravel().tolist() == [-32768, 32767]


@pytest.mark.parametrize("v", [32768, -32769, 70000])
def test_fixed_tensor_refuses_wider_values(v):
    with pytest.raises(ValueError, match="values exceed signed 16-bit range"):
        FixedTensor(1, 1, 1, np.array([[[v]]], dtype=np.int32), 0, 16)


def test_fixed_tensor_refuses_non_integer_values():
    with pytest.raises(ValueError, match="value array dtype float64, expected integers"):
        FixedTensor(1, 1, 1, np.zeros((1, 1, 1)), 0, 16)
