import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
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
from binsed.kernels import (
    ColRegion,
    popcount_native,
    popcount_portable,
    rounding_shift,
    same_pad,
)
from binsed.oracle import naive_binary_conv, naive_fixed_conv
from tests.conftest import random_mel_input


def fold(polarity, threshold):
    polarity = np.atleast_1d(np.asarray(polarity, dtype=np.int32))
    threshold = np.atleast_1d(np.asarray(threshold, dtype=np.int32))
    return BnFold(polarity, threshold)


# ---------------------------------------------------------------------------
# popcount backends
# ---------------------------------------------------------------------------


def test_popcount_backends_identical_u32():
    rng = np.random.default_rng(0)
    words = rng.integers(0, 1 << 32, 10000, dtype=np.uint64).astype(np.uint32)
    words[:3] = [0, 1, 0xFFFFFFFF]
    assert (popcount_native(words) == popcount_portable(words)).all()


def test_popcount_backends_identical_u64():
    rng = np.random.default_rng(1)
    words = rng.integers(0, 1 << 63, 10000, dtype=np.int64).astype(np.uint64)
    words[:3] = [0, 1, 0xFFFFFFFFFFFFFFFF]
    assert (popcount_native(words) == popcount_portable(words)).all()
    assert popcount_portable(np.array([0xFFFFFFFFFFFFFFFF], dtype=np.uint64))[0] == 64


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
    p = FixedConvParams(np.ones((1, 1, 1, 1), dtype=np.int32), 0,
                        np.zeros(1, dtype=np.int32), 0, shift, 32)
    x = FixedTensor(1, 1, 1, np.ones((1, 1, 1), dtype=np.int32), 0, 16)
    with pytest.raises(ValueError, match="output shift"):
        conv2d_fixed(x, p, 1)


def test_fixed_conv_frees_im2col_before_epilogue(reference_model):
    # On the reference L0 shape the im2col patches are 1.8 MB; they must be
    # released before the int32 cast, so the peak is the float64 matmul
    # output plus the int32 result plus small change.
    layer = reference_model.network.layers[0]
    x = random_mel_input(np.random.default_rng(13))
    conv2d_fixed(x, layer.fixed, layer.stride)  # warm-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        y = conv2d_fixed(x, layer.fixed, layer.stride)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    bound = y.values.size * (8 + 4) + 500_000
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
