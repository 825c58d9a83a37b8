from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from binsed import (
    BnFold,
    FixedConvParams,
    FixedTensor,
    binarize_sign,
    conv2d_binary,
    conv2d_fixed,
    global_avg_pool,
    pack,
    pack_weights,
    predict,
    threshold_activation,
    unpack,
)
from binsed import kernels
from binsed.kernels import (
    ColRegion,
    conv2d_binary_threshold,
    conv2d_fixed_sign,
    popcount_native,
    popcount_portable,
    rounding_shift,
    same_pad,
)
from binsed.executor import run_layer
from binsed.oracle import naive_binary_conv, naive_fixed_conv
from tests.conftest import random_mel_input, traced_peak


def fold(polarity, threshold):
    polarity = np.atleast_1d(np.asarray(polarity, dtype=np.int32))
    threshold = np.atleast_1d(np.asarray(threshold, dtype=np.int32))
    return BnFold(polarity, threshold)


# ---------------------------------------------------------------------------
# popcount backends
# ---------------------------------------------------------------------------


# A numpy without np.bitwise_count (the numpy>=1.24 floor) has only the
# portable backend; the native clauses below are skipped there.
HAS_NATIVE = hasattr(np, "bitwise_count")
BACKENDS = ("native", "portable") if HAS_NATIVE else ("portable",)


def bit_counts(words: np.ndarray) -> np.ndarray:
    return sum((words >> words.dtype.type(b)) & 1 for b in range(8 * words.itemsize))


def test_popcount_backends_identical_u32():
    rng = np.random.default_rng(0)
    words = rng.integers(0, 1 << 32, 10000, dtype=np.uint64).astype(np.uint32)
    words[:3] = [0, 1, 0xFFFFFFFF]
    assert (popcount_portable(words) == bit_counts(words)).all()
    if HAS_NATIVE:
        assert (popcount_native(words) == popcount_portable(words)).all()


def test_popcount_kinds():
    assert kernels.get_popcount("portable") is popcount_portable
    assert kernels.resolve_popcount_name() in ("native", "portable")
    with pytest.raises(ValueError, match="unknown popcount backend 'auto'"):
        kernels.get_popcount("auto")


def test_popcount_backends_identical_u64():
    rng = np.random.default_rng(1)
    words = rng.integers(0, 1 << 63, 10000, dtype=np.int64).astype(np.uint64)
    words[:3] = [0, 1, 0xFFFFFFFFFFFFFFFF]
    assert (popcount_portable(words) == bit_counts(words)).all()
    if HAS_NATIVE:
        assert (popcount_native(words) == popcount_portable(words)).all()
    assert popcount_portable(np.array([0xFFFFFFFFFFFFFFFF], dtype=np.uint64))[0] == 64


def test_popcount_portable_views_and_out():
    # strided inputs and outputs and sizes off the pass length count alike
    rng = np.random.default_rng(2)
    words = rng.integers(0, 1 << 63, (3, 2 * kernels._CHUNK + 5), dtype=np.int64).astype(np.uint64)
    want = bit_counts(words)
    for a, w in ((words, want), (words[:, ::3], want[:, ::3]), (words.T, want.T),
                 (words[:0], want[:0])):
        assert popcount_portable(a).dtype == np.uint8
        assert (popcount_portable(a) == w).all()
        for out in (np.empty(a.shape, np.uint8), np.empty(a.shape[::-1], np.uint8).T):
            assert popcount_portable(a, out=out) is out
            assert (out == w).all()


def test_popcount_portable_temporaries_bounded():
    # one binary conv block of 128 channels by 1,024 positions: its
    # temporaries are its two chunk buffers, not a multiple of the block
    words = np.random.default_rng(3).integers(0, 1 << 63, (128, 1024)).astype(np.uint64)
    out = np.empty(words.shape, np.uint8)
    peak = traced_peak(lambda: popcount_portable(words, out=out))
    assert peak < 96 * 1024, f"peak {peak:,} B"


# ---------------------------------------------------------------------------
# fixed-point convolution
# ---------------------------------------------------------------------------


def identity_params(f=6):
    w = np.full((1, 1, 1, 1), 1 << f, dtype=np.int32)
    return FixedConvParams(w, f, np.zeros(1, dtype=np.int32), 8 + f, f, 16)


def test_fixed_conv_identity():
    rng = np.random.default_rng(2)
    vals = rng.integers(-3000, 3000, (5, 7, 1)).astype(np.int32)
    x = FixedTensor(5, 7, 1, vals, 8, 16)
    y = conv2d_fixed(x, identity_params(), 1)
    assert (y.values == vals).all()
    assert y.qformat == 8


@pytest.mark.parametrize("bitwidth, dtype", [(16, np.int16), (32, np.int32)])
def test_fixed_conv_emits_storage_dtype(bitwidth, dtype):
    rng = np.random.default_rng(4)
    vals = rng.integers(-3000, 3000, (5, 7, 1)).astype(np.int16)
    w = rng.integers(-8, 9, (3, 3, 3, 1)).astype(np.int32)  # |sum| < 2**18
    p = FixedConvParams(w, 4, np.array([9, -7, 0], dtype=np.int32), 12, 3, bitwidth)
    y = conv2d_fixed(FixedTensor(5, 7, 1, vals, 8, 16), p, 1)
    assert y.values.dtype == dtype and y.bitwidth == bitwidth
    assert (y.values == naive_fixed_conv(vals, w, p.bias, 3, 1)).all()


def test_fixed_conv_zero_input_is_bias():
    w = np.zeros((3, 1, 1, 2), dtype=np.int32)
    bias = np.array([700, -300, 12], dtype=np.int32)
    p = FixedConvParams(w, 4, bias, 12, 2, 16)
    x = FixedTensor(2, 2, 2, np.zeros((2, 2, 2), dtype=np.int32), 8, 16)
    y = conv2d_fixed(x, p, 1)
    assert (y.values == rounding_shift(bias.astype(np.int64), 2)).all()


def test_fixed_conv_matches_naive_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        h, w = int(rng.integers(1, 9)), int(rng.integers(1, 11))
        c, oc = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        k = int(rng.choice([1, 3]))
        s = int(rng.choice([1, 2]))
        shift = int(rng.integers(0, 6))
        wts = rng.integers(-1500, 1500, (oc, k, k, c)).astype(np.int32)
        bias = rng.integers(-5000, 5000, oc).astype(np.int32)
        vals = rng.integers(-30000, 30000, (h, w, c)).astype(np.int32)
        x = FixedTensor(h, w, c, vals, 8, 16)
        p = FixedConvParams(wts, 5, bias, 13, shift, 32)
        got = conv2d_fixed(x, p, s)
        want = naive_fixed_conv(vals, wts, bias, shift, s)
        assert (got.values == want).all()
        assert got.shape[:2] == (-(-h // s), -(-w // s))


def test_fixed_conv_matches_float_oracle_within_ulp():
    # float conv + quantize agrees with the integer path to 1 integer step
    rng = np.random.default_rng(4)
    h, w, c, oc, k, s, shift = 8, 8, 1, 4, 3, 2, 5
    wts = rng.integers(-800, 800, (oc, k, k, c)).astype(np.int32)
    bias = rng.integers(-100, 100, oc).astype(np.int32)
    vals = rng.integers(-20000, 20000, (h, w, c)).astype(np.int32)
    x = FixedTensor(h, w, c, vals, 8, 16)
    p = FixedConvParams(wts, 5, bias, 13, shift, 32)
    got = conv2d_fixed(x, p, s).values

    oh, pt, pb = same_pad(h, k, s)
    ow, pl, pr = same_pad(w, k, s)
    pad = np.zeros((h + pt + pb, w + pl + pr, c))
    pad[pt:pt + h, pl:pl + w] = vals
    float_out = np.zeros(got.shape)
    for oy in range(oh):
        for ox in range(ow):
            patch = pad[oy * s:oy * s + k, ox * s:ox * s + k, :]
            float_out[oy, ox] = (
                np.tensordot(patch, wts.astype(np.float64), axes=([0, 1, 2], [1, 2, 3]))
                + bias) / 2.0 ** shift
    assert (np.abs(got - np.round(float_out)) <= 1).all()


def test_fixed_conv_linearity_before_rescale():
    rng = np.random.default_rng(5)
    wts = rng.integers(-500, 500, (3, 3, 3, 2)).astype(np.int32)
    p = FixedConvParams(wts, 5, np.zeros(3, dtype=np.int32), 13, 0, 32)
    a = rng.integers(-8000, 8000, (6, 6, 2)).astype(np.int32)
    b = rng.integers(-8000, 8000, (6, 6, 2)).astype(np.int32)
    fa = conv2d_fixed(FixedTensor(6, 6, 2, a, 8, 16), p, 1).values
    fb = conv2d_fixed(FixedTensor(6, 6, 2, b, 8, 16), p, 1).values
    fab = conv2d_fixed(FixedTensor(6, 6, 2, a + b, 8, 16), p, 1).values
    assert (fab == fa + fb).all()


def test_fixed_conv_rejects_bias_scale_mismatch():
    p = FixedConvParams(np.ones((1, 1, 1, 1), dtype=np.int32), 4,
                        np.zeros(1, dtype=np.int32), 11, 0, 16)
    x = FixedTensor(1, 1, 1, np.zeros((1, 1, 1), dtype=np.int32), 8, 16)
    with pytest.raises(ValueError, match="accumulator scale"):
        conv2d_fixed(x, p, 1)


def test_accumulator_check():
    w = np.full((1, 3, 3, 128), 32767, dtype=np.int32)
    p = FixedConvParams(w, 10, np.zeros(1, dtype=np.int32), 20, 0, 32)
    with pytest.raises(ValueError, match="overflows"):
        p.check_accumulator(32767)
    p.check_accumulator(1)  # binary-range inputs are fine


# ---------------------------------------------------------------------------
# binarization and threshold activation
# ---------------------------------------------------------------------------


def test_binarize_sign_trivial():
    f = fold([1], [0])
    x = FixedTensor(1, 2, 1, np.array([[[5], [-3]]], dtype=np.int32), 0, 16)
    bits = unpack(binarize_sign(x, f))
    assert bits[0, 0, 0] == 1 and bits[0, 1, 0] == -1


def test_threshold_activation_boundaries():
    acc = np.arange(-5, 6, dtype=np.int32).reshape(1, -1, 1)
    up = unpack(threshold_activation(acc, fold([1], [3])))[0, :, 0]
    assert (up == np.where(np.arange(-5, 6) >= 3, 1, -1)).all()
    down = unpack(threshold_activation(acc, fold([-1], [-3])))[0, :, 0]
    # -x >= -3  <=>  x <= 3
    assert (down == np.where(np.arange(-5, 6) <= 3, 1, -1)).all()


def test_threshold_matches_float_bn_exhaustively():
    from binsed import fold_batchnorm

    rng = np.random.default_rng(6)
    for _ in range(60):
        gamma = float(rng.uniform(0.2, 3.0) * rng.choice([-1, 1]))
        beta = float(rng.normal(0, 2))
        mu = float(rng.normal(0, 20))
        sigma = float(rng.uniform(0.5, 30))
        reach = 9 * 64
        f = fold_batchnorm([gamma], [beta], [mu], [sigma],
                           acc_range=(-reach, reach))
        x = np.arange(-reach, reach + 1, dtype=np.int32).reshape(1, -1, 1)
        got = unpack(threshold_activation(x, f))[0, :, 0]
        bn = gamma * ((np.arange(-reach, reach + 1) - mu) / sigma) + beta
        want = np.where(bn >= 0, 1, -1)
        assert (got == want).all()


def test_fold_applies_per_channel():
    f = fold([1, -1], [2, 0])
    acc = np.array([[[3, 3], [1, -1]]], dtype=np.int32)
    bits = unpack(threshold_activation(acc, f))
    assert bits[0, 0].tolist() == [1, -1]   # 3>=2 ; -3>=0 false
    assert bits[0, 1].tolist() == [-1, 1]   # 1>=2 false ; 1>=0


I32_MIN, I32_MAX = int(np.iinfo(np.int32).min), int(np.iinfo(np.int32).max)
I32_EDGES = (I32_MIN, I32_MIN + 1, I32_MIN + 2, -2, -1, 0, 1, 2, I32_MAX - 1, I32_MAX)


def reference_words(bits: np.ndarray) -> np.ndarray:
    """Pack [..., C] bits by summing shifted integers; padding bits stay zero."""
    c = bits.shape[-1]
    nw = -(-c // 32)
    padded = np.zeros(bits.shape[:-1] + (32 * nw,), dtype=np.uint64)
    padded[..., :c] = bits
    grouped = padded.reshape(bits.shape[:-1] + (nw, 32))
    return (grouped << np.arange(32, dtype=np.uint64)).sum(axis=-1).astype(np.uint32)


@st.composite
def fold_cases(draw):
    """A fold plus an int32 [H][W][C] array dense in values at and around its
    thresholds (both polarities), including the int32 extremes."""
    c = draw(st.integers(1, 200))
    h, w = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    thr_elems = st.one_of(st.sampled_from(I32_EDGES), st.integers(I32_MIN, I32_MAX))
    threshold = draw(arrays(np.int32, c, elements=thr_elems))
    polarity = draw(arrays(np.int32, c, elements=st.sampled_from((-1, 1))))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    edges = np.array(I32_EDGES, dtype=np.int64)[rng.integers(0, len(I32_EDGES), (h, w, c))]
    near = (polarity * threshold.astype(np.int64))[None, None, :] + rng.integers(-1, 2, (h, w, c))
    anywhere = rng.integers(I32_MIN, I32_MAX, (h, w, c), endpoint=True)
    pick = rng.integers(0, 3, (h, w, c))
    values = np.where(pick == 0, edges, np.where(pick == 1, near, anywhere))
    return BnFold(polarity, threshold), np.clip(values, I32_MIN, I32_MAX).astype(np.int32)


@settings(max_examples=300, deadline=None)
@given(fold_cases())
def test_threshold_activation_matches_int64_reference(case):
    f, acc = case
    want = acc.astype(np.int64) * f.polarity.astype(np.int64) >= f.threshold.astype(np.int64)
    got = threshold_activation(acc, f)
    assert got.words.dtype == np.uint32
    assert (got.words == reference_words(want)).all()


@settings(max_examples=300, deadline=None)
@given(fold_cases())
def test_binarize_sign_matches_int64_reference(case):
    f, values = case
    h, w, c = values.shape
    want = values.astype(np.int64) * f.polarity.astype(np.int64) >= f.threshold.astype(np.int64)
    got = binarize_sign(FixedTensor(h, w, c, values, 0, 32), f)
    assert (got.words == reference_words(want)).all()


@st.composite
def fixed_conv_cases(draw):
    """Small fixed convs whose worst-case accumulator fits 31 bits, with
    inputs that put part of the accumulators on exact negative .5 ties."""
    shift = draw(st.integers(0, 31))
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    c, oc = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    k, stride = draw(st.sampled_from((1, 3))), draw(st.sampled_from((1, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wmax = (1 << 30) // (k * k * c * 32768)
    wts = rng.integers(-wmax, wmax, (oc, k, k, c), endpoint=True).astype(np.int32)
    bias = rng.integers(-(1 << 30) + 1, 1 << 30, oc).astype(np.int32)
    vals = rng.integers(-32768, 32767, (h, w, c), endpoint=True).astype(np.int32)
    return wts, bias, vals, shift, stride


@settings(max_examples=200, deadline=None)
@given(fixed_conv_cases())
def test_fixed_conv_matches_int64_rounding_shift(case):
    wts, bias, vals, shift, stride = case
    h, w, c = vals.shape
    p = FixedConvParams(wts, 5, bias, 13, shift, 32)
    got = conv2d_fixed(FixedTensor(h, w, c, vals, 8, 16), p, stride)
    acc = naive_fixed_conv(vals, wts, bias, 0, stride)
    assert (got.values == rounding_shift(acc.astype(np.int64), shift)).all()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 31), st.data())
def test_fixed_conv_rounds_negative_ties_up(shift, data):
    # accumulators m * 2**shift - 2**(shift-1) for m <= 0 sit exactly on a tie
    m = data.draw(arrays(np.int64, (2, 3, 1),
                         elements=st.integers(-(1 << (31 - shift)) + 1, 0)))
    ties = (m << shift) - (1 << (shift - 1))
    p = FixedConvParams(np.ones((1, 1, 1, 1), dtype=np.int32), 0,
                        np.zeros(1, dtype=np.int32), 0, shift, 32)
    got = conv2d_fixed(FixedTensor(2, 3, 1, ties.astype(np.int32), 0, 32), p, 1)
    assert (got.values == rounding_shift(ties, shift)).all()
    assert (got.values == m).all()


def test_fixed_conv_output_out_of_range_rejected():
    p = FixedConvParams(np.ones((1, 1, 1, 1), dtype=np.int32), 0,
                        np.zeros(1, dtype=np.int32), 0, 0, 16)
    x = FixedTensor(1, 2, 1, np.array([[[40000], [1]]], dtype=np.int32), 0, 32)
    with pytest.raises(ValueError, match="exceeds 16-bit range"):
        conv2d_fixed(x, p, 1)
    x = FixedTensor(1, 2, 1, np.array([[[-40000], [1]]], dtype=np.int32), 0, 32)
    with pytest.raises(ValueError, match="exceeds 16-bit range"):
        conv2d_fixed(x, p, 1)


@pytest.mark.parametrize("shift", [-1, 53])
def test_fixed_conv_rejects_shift_outside_exact_range(shift):
    with pytest.raises(ValueError, match=rf"output_shift {shift} outside \[0, 52\]"):
        FixedConvParams(np.ones((1, 1, 1, 1), dtype=np.int32), 0,
                        np.zeros(1, dtype=np.int32), 0, shift, 32)


def test_fixed_conv_frees_im2col_before_epilogue(reference_model):
    # On the reference L0 shape a fixed conv, unfused or fused, holds its
    # output, the zero-extended input slab and one block, whose im2col, sums
    # and bools fit BLOCK_BYTES together; a whole-map im2col or product
    # (1.8 and 6.6 MB) would break the bound.
    layer = reference_model.network.layers[0]
    x = random_mel_input(np.random.default_rng(13))
    slab = (x.height + 2) * (x.width + 2) * x.values.itemsize
    for conv, out in (
            (lambda: conv2d_fixed(x, layer.fixed, layer.stride), lambda y: y.values),
            (lambda: conv2d_fixed_sign(x, layer.fixed, layer.fold, layer.stride),
             lambda y: y.words)):
        peak = traced_peak(conv)
        bound = kernels.BLOCK_BYTES + out(conv()).nbytes + slab + 128 * 1024
        assert peak < bound, f"peak {peak:,} B, bound {bound:,} B"


# ---------------------------------------------------------------------------
# binary convolution
# ---------------------------------------------------------------------------


def test_binary_conv_trivial_match():
    x = pack(np.ones((1, 1, 32), dtype=np.int8))
    w = pack_weights(np.ones((1, 1, 1, 32), dtype=np.int8))
    assert conv2d_binary(x, w, 1)[0, 0, 0] == 32


def test_binary_conv_trivial_mismatch():
    x = pack(np.ones((1, 1, 32), dtype=np.int8))
    w = pack_weights(-np.ones((1, 1, 1, 32), dtype=np.int8))
    assert conv2d_binary(x, w, 1)[0, 0, 0] == -32


def test_binary_conv_half_match():
    dense = np.ones((1, 1, 32), dtype=np.int8)
    wts = np.ones((1, 1, 1, 32), dtype=np.int8)
    wts[0, 0, 0, :16] = -1
    assert conv2d_binary(pack(dense), pack_weights(wts), 1)[0, 0, 0] == 0


def test_binary_conv_matches_naive_500_cases():
    rng = np.random.default_rng(8)
    for trial in range(500):
        h = int(rng.integers(1, 9))
        w = int(rng.integers(1, 11))
        c = int(rng.choice([32, 64, 37, 96, 128, 3]))
        oc = int(rng.integers(1, 7))
        k = int(rng.choice([1, 3]))
        s = int(rng.choice([1, 2]))
        dense = rng.choice([-1, 1], (h, w, c)).astype(np.int8)
        wts = rng.choice([-1, 1], (oc, k, k, c)).astype(np.int8)
        got = conv2d_binary(pack(dense), pack_weights(wts), s)
        want = naive_binary_conv(dense, wts, s)
        assert (got == want).all(), f"trial {trial}"


def test_binary_conv_channel_mismatch_rejected():
    x = pack(np.ones((1, 1, 32), dtype=np.int8))
    w = pack_weights(np.ones((1, 1, 1, 64), dtype=np.int8))
    with pytest.raises(ValueError, match="channels"):
        conv2d_binary(x, w, 1)


def test_binary_conv_thread_and_backend_invariance():
    rng = np.random.default_rng(9)
    dense = rng.choice([-1, 1], (6, 9, 64)).astype(np.int8)
    wts = rng.choice([-1, 1], (8, 3, 3, 64)).astype(np.int8)
    base = conv2d_binary(pack(dense), pack_weights(wts), 1)
    assert (conv2d_binary(pack(dense), pack_weights(wts), 1,
                          popcount="portable") == base).all()


def test_parity_invariant_interior():
    # each 3x3 tap contributes +-1 per channel, so interior accumulators share
    # the parity of 9*C
    rng = np.random.default_rng(10)
    for c in (32, 37, 64):
        dense = rng.choice([-1, 1], (6, 8, c)).astype(np.int8)
        wts = rng.choice([-1, 1], (4, 3, 3, c)).astype(np.int8)
        acc = conv2d_binary(pack(dense), pack_weights(wts), 1)
        interior = acc[1:-1, 1:-1, :]
        assert (interior % 2 == (9 * c) % 2).all()


def test_range_invariant():
    rng = np.random.default_rng(11)
    c = 64
    dense = rng.choice([-1, 1], (6, 8, c)).astype(np.int8)
    wts = rng.choice([-1, 1], (4, 3, 3, c)).astype(np.int8)
    acc = conv2d_binary(pack(dense), pack_weights(wts), 1)
    assert (np.abs(acc) <= 9 * c).all()


def test_binary_conv_column_region_matches_monolithic():
    rng = np.random.default_rng(12)
    dense = rng.choice([-1, 1], (8, 20, 32)).astype(np.int8)
    wts = rng.choice([-1, 1], (5, 3, 3, 32)).astype(np.int8)
    x = pack(dense)
    w = pack_weights(wts)
    for s in (1, 2):
        full = conv2d_binary(x, w, s)
        out_w = same_pad(20, 3, s)[0]
        mid = out_w // 2
        # slab covering the needed input columns for the right half
        pl = same_pad(20, 3, s)[1]
        lo = max(0, mid * s - pl)
        slab = pack(dense[:, lo:, :])
        region = ColRegion(20, lo, mid, out_w)
        part = conv2d_binary(slab, w, s, col_region=region)
        assert (part == full[:, mid:, :]).all()


def test_column_region_missing_columns_rejected():
    dense = np.ones((4, 10, 32), dtype=np.int8)
    w = pack_weights(np.ones((2, 3, 3, 32), dtype=np.int8))
    slab = pack(dense[:, 4:, :])
    with pytest.raises(ValueError, match="required"):
        conv2d_binary(slab, w, 1, col_region=ColRegion(10, 4, 0, 10))


# ---------------------------------------------------------------------------
# fused threshold epilogues
# ---------------------------------------------------------------------------


def random_region(rng, width: int, k: int, stride: int):
    """The whole map (None, 0, width), or a random output column region with
    the input columns [lo, hi) of a slab that covers it, give or take a
    spare column on either side."""
    out_w, pl, _ = same_pad(width, k, stride)
    if rng.integers(2) == 0:
        return None, 0, width
    a = int(rng.integers(out_w))
    b = int(rng.integers(a + 1, out_w + 1))
    lo = max(0, a * stride - pl - int(rng.integers(2)))
    hi = min(width, (b - 1) * stride - pl + k + int(rng.integers(2)))
    return ColRegion(width, lo, a, b), lo, hi


def random_thresholds(rng, values: np.ndarray, oc: int) -> np.ndarray:
    """Per channel: an int32 extreme, a value the layer reaches +-1, or any int32."""
    near = values.reshape(-1, oc)[rng.integers(len(values.reshape(-1, oc)), size=oc),
                                  np.arange(oc)].astype(np.int64) + rng.integers(-1, 2, oc)
    edges = np.array(I32_EDGES, dtype=np.int64)[rng.integers(len(I32_EDGES), size=oc)]
    anywhere = rng.integers(I32_MIN, I32_MAX, oc, endpoint=True)
    pick = rng.integers(3, size=oc)
    thr = np.where(pick == 0, edges, np.where(pick == 1, near, anywhere))
    return np.clip(thr, I32_MIN, I32_MAX).astype(np.int32)


@st.composite
def fused_cases(draw):
    """Shape, kernel, stride, block size (1 B forces one row per block) and
    seed.  Kernels of up to 5x5 over maps from 1x1 make many maps smaller
    than their kernel and most positions border positions."""
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    c, oc = draw(st.integers(1, 70)), draw(st.integers(1, 40))
    ky, kx = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    stride = draw(st.sampled_from((1, 2)))
    block = draw(st.sampled_from((1, 4096, kernels.BLOCK_BYTES)))
    return h, w, c, oc, ky, kx, stride, block, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(fused_cases(), st.sampled_from(BACKENDS))
# 2 rows under a 3-row kernel: both rows have 2 in-image taps, not the same two
@example((2, 2, 40, 5, 3, 3, 1, kernels.BLOCK_BYTES, 3), "native")
@example((1, 2, 33, 7, 5, 4, 1, 1, 4), "portable")
# 1 and 3 words per pixel: 9 and 27 words per position, each pairing words
# across taps and ending on the zero word
@example((5, 7, 32, 33, 3, 3, 2, 4096, 5), "native")
@example((4, 9, 96, 40, 3, 3, 1, 1, 6), "portable")
def test_fused_binary_threshold_matches_unfused(case, popcount):
    # Out-of-image taps read zero words and drop out through per-rectangle
    # corrections: unfused must match the naive sum over in-image taps, and
    # fused must match thresholding the unfused accumulator.
    assume(popcount in BACKENDS)  # the native examples, where numpy has it
    h, w, c, oc, ky, kx, stride, block, seed = case
    rng = np.random.default_rng(seed)
    dense = rng.choice([-1, 1], (h, w, c)).astype(np.int8)
    dense_w = rng.choice([-1, 1], (oc, ky, kx, c)).astype(np.int8)
    wts = pack_weights(dense_w)
    region, lo, hi = random_region(rng, w, kx, stride)
    x = pack(dense[:, lo:hi])
    with mock.patch.object(kernels, "BLOCK_BYTES", block):
        acc = conv2d_binary(x, wts, stride, region, popcount)
        f = BnFold(rng.choice([-1, 1], oc).astype(np.int32), random_thresholds(rng, acc, oc))
        got = conv2d_binary_threshold(x, wts, f, stride, region, popcount)
    cols = slice(region.out_lo, region.out_hi) if region else slice(None)
    assert (acc == naive_binary_conv(dense, dense_w, stride)[:, cols]).all()
    want = threshold_activation(acc, f)
    assert got.shape == want.shape
    assert (got.words == want.words).all()


@settings(max_examples=200, deadline=None)
@given(fused_cases(), st.integers(0, 31))
def test_fused_fixed_sign_matches_unfused(case, shift):
    h, w, c, oc, ky, kx, stride, block, seed = case
    c = min(c, 4)
    rng = np.random.default_rng(seed)
    wmax = (1 << 30) // (ky * kx * c * 32768)
    wts = rng.integers(-wmax, wmax, (oc, ky, kx, c), endpoint=True).astype(np.int32)
    bias = rng.integers(-(1 << 30) + 1, 1 << 30, oc).astype(np.int32)
    p = FixedConvParams(wts, 5, bias, 13, shift, 32)
    vals = rng.integers(-32768, 32767, (h, w, c), endpoint=True).astype(np.int32)
    region, lo, hi = random_region(rng, w, kx, stride)
    x = FixedTensor(h, hi - lo, c, np.ascontiguousarray(vals[:, lo:hi]), 8, 16)
    with mock.patch.object(kernels, "BLOCK_BYTES", block):
        y = conv2d_fixed(x, p, stride, region)
        f = BnFold(rng.choice([-1, 1], oc).astype(np.int32), random_thresholds(rng, y.values, oc))
        got = conv2d_fixed_sign(x, p, f, stride, region)
    cols = slice(region.out_lo, region.out_hi) if region else slice(None)
    naive = naive_fixed_conv(vals, wts, bias, 0, stride).astype(np.int64)
    assert (y.values == rounding_shift(naive, shift)[:, cols]).all()
    want = binarize_sign(y, f)
    assert got.shape == want.shape
    assert (got.words == want.words).all()


@settings(max_examples=200, deadline=None)
@given(fused_cases(), st.integers(0, 31))
def test_fixed_conv_over_bits_matches_unpacked(case, shift):
    # The final conv reads its +-1 input from the words: 0/1 bits times 2*w,
    # less each border rectangle's in-image weight sum.
    h, w, c, oc, ky, kx, stride, block, seed = case
    rng = np.random.default_rng(seed)
    wmax = (1 << 29) // (ky * kx * c)
    wts = rng.integers(-wmax, wmax, (oc, ky, kx, c), endpoint=True).astype(np.int32)
    bias = rng.integers(-(1 << 29), 1 << 29, oc).astype(np.int32)
    p = FixedConvParams(wts, 5, bias, 5, shift, 32)
    region, lo, hi = random_region(rng, w, kx, stride)
    x = pack(rng.choice([-1, 1], (h, w, c)).astype(np.int8)[:, lo:hi])
    with mock.patch.object(kernels, "BLOCK_BYTES", block):
        got = conv2d_fixed(x, p, stride, region)
    want = conv2d_fixed(FixedTensor(*x.shape, unpack(x).astype(np.int32), 0, 32), p, stride,
                        region)
    assert (got.qformat, got.values.dtype) == (want.qformat, want.values.dtype)
    assert (got.values == want.values).all()


def test_xor_bufsize_restored():
    # The binary conv scopes a small ufunc buffer to each block; the caller's
    # buffer size must survive every return, also through an exception.
    rng = np.random.default_rng(16)
    x = pack(rng.choice([-1, 1], (6, 9, 64)).astype(np.int8))
    w = pack_weights(rng.choice([-1, 1], (8, 3, 3, 64)).astype(np.int8))
    f = fold(rng.choice([-1, 1], 8), rng.integers(-50, 50, 8))
    default = np.getbufsize()
    conv2d_binary_threshold(x, w, f)
    assert np.getbufsize() == default
    conv2d_binary(x, w)
    assert np.getbufsize() == default
    for conv in (conv2d_binary, lambda x, w: conv2d_binary_threshold(x, w, f)):
        with mock.patch.object(np, "bitwise_xor", side_effect=RuntimeError("xor failed")):
            with pytest.raises(RuntimeError, match="xor failed"):
                conv(x, w)
        assert np.getbufsize() == default


@pytest.mark.parametrize("layer_index", [1, 2])
def test_fused_binary_layer_peak(reference_model, layer_index):
    # A fused binary layer holds its packed output, the zero-extended input
    # slab and three block buffers: the 64-bit xor words, their uint8
    # popcounts and the uint16 running sums.  Its bools go into the dead xor and popcount
    # buffers, so one bool block more (block bytes) would break the bound.
    net = reference_model.network
    x = random_mel_input(np.random.default_rng(17))
    for layer in net.layers[:layer_index]:
        x = run_layer(layer, x, None)
    layer = net.layers[layer_index]
    ky, kx = layer.weights.ky, layer.weights.kx
    out_h, pt, pb = same_pad(x.height, ky, layer.stride)
    out_w, pl, pr = same_pad(x.width, kx, layer.stride)
    oc = layer.weights.out_channels
    slab = (x.height + pt + pb) * (x.width + pl + pr) * x.words.shape[-1] * 4
    block = kernels._block_rows(out_h, out_w * oc * 8) * out_w * oc
    out = out_h * out_w * -(-oc // 32) * 4
    peak = traced_peak(
        lambda: conv2d_binary_threshold(x, layer.weights, layer.fold, layer.stride))
    bound = out + slab + block * (8 + 1 + 2) + 128 * 1024
    assert peak < bound, f"peak {peak:,} B, bound {bound:,} B"


@pytest.mark.parametrize("conv", [
    lambda x, p, f: conv2d_fixed(x, p, 1),
    lambda x, p, f: conv2d_fixed_sign(x, p, f, 1),
], ids=["unfused", "fused"])
def test_fixed_conv_range_judged_when_bound_fails(conv):
    # weight 2 over |input| <= 40000 bounds the sum at 80000, past 16 bits, so
    # each block's actual values are judged: in range passes, out of range raises
    p = FixedConvParams(np.full((1, 1, 1, 1), 2, dtype=np.int32), 0,
                        np.zeros(1, dtype=np.int32), 0, 0, 16)
    f = fold([1], [0])
    conv(FixedTensor(1, 2, 1, np.array([[[16383], [-16384]]], dtype=np.int32), 0, 32), p, f)
    for v in (16384, -16385, 40000, -40000):
        x = FixedTensor(1, 2, 1, np.array([[[v], [1]]], dtype=np.int32), 0, 32)
        with pytest.raises(ValueError, match="exceeds 16-bit range"):
            conv(x, p, f)


# ---------------------------------------------------------------------------
# pooling and prediction
# ---------------------------------------------------------------------------


def test_pool_constant_channel():
    x = np.full((4, 5, 3), 7, dtype=np.int32)
    x[:, :, 1] = -2
    pool = global_avg_pool(x)
    assert pool.sums.tolist() == [7 * 20, -2 * 20, 7 * 20]
    assert pool.count == 20
    assert pool.means()[1] == -2.0


def test_pool_single_element():
    x = np.zeros((4, 5, 2), dtype=np.int32)
    x[2, 3, 1] = 9
    pool = global_avg_pool(x)
    assert pool.sums.tolist() == [0, 9]
    assert pool.means()[1] == pytest.approx(9 / 20)


def test_pool_argmax_matches_float_mean():
    rng = np.random.default_rng(13)
    x = rng.integers(-1000, 1000, (7, 9, 28)).astype(np.int32)
    pool = global_avg_pool(x)
    assert predict(pool.sums) == int(np.argmax(x.mean(axis=(0, 1))))


def test_predict_examples():
    assert predict(np.array([1, 5, 3])) == 1
    assert predict(np.array([7, 7])) == 0
    rng = np.random.default_rng(14)
    v = rng.integers(-100, 100, 28)
    assert predict(v) == int(np.argmax(v))
