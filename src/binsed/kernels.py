"""Compute primitives: fixed-point conv, xor+popcount binary conv, folded
batch-norm threshold activation, sign binarization, global average pooling.

All kernels are pure integer functions over immutable inputs and run
single-threaded; the executor parallelizes over tiles, never inside a
kernel.  Convolutions use "same" zero padding geometry.  For the binary
path, taps falling outside the image are excluded from the result (a zero
pad word would wrongly contribute -1 per channel under the {0 -> -1}
encoding): the kernel reads their zero words like any other tap and takes
what they add back out per border rectangle.

Every kernel accepts an optional column region so the tiled executor can
compute an exact slice of the monolithic output from an input slab: window
positions, padding, and border classes are always resolved in monolithic
coordinates.

Each convolution splits into a prepare step and a run step.  Preparing
(prepare_fixed_conv, prepare_binary_conv) checks the parameters and builds
every table that depends only on the layer, the input shape and the column
region; running builds the slab, makes the checks that depend on the
input's values and runs the block loop.  Each public conv2d_* call is one
prepare and one run.  The three the executor calls (conv2d_fixed,
conv2d_fixed_sign, conv2d_binary_threshold) also take ``prepared=``, a step
built for the same arguments, and then only run it: the executor keeps each
tile's steps and runs them on every later call.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .blas import single_thread
from .tensors import (
    BinaryTensor,
    FixedTensor,
    PackedBinaryWeights,
    _pack_bits,
    signed_range,
    storage_dtype,
    words_per_pixel,
    write_bits,
)

log = logging.getLogger(__name__)

# ---------------------------------------------------------------------------
# popcount backends
# ---------------------------------------------------------------------------

_HAS_NATIVE = hasattr(np, "bitwise_count")
_LUT16 = None


def _lut16() -> np.ndarray:
    # 16-bit table built by shift-and-add so the portable path never depends
    # on the native instruction it is the fallback for.
    global _LUT16
    if _LUT16 is None:
        v = np.arange(1 << 16, dtype=np.uint32)
        counts = np.zeros(1 << 16, dtype=np.uint8)
        for b in range(16):
            counts += ((v >> b) & 1).astype(np.uint8)
        _LUT16 = counts
    return _LUT16


def popcount_native(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-word population count via the platform instruction, as uint8."""
    return np.bitwise_count(a, out=out)


def popcount_portable(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-word population count via a 16-bit lookup table (32/64-bit words),
    as uint8."""
    lut = _lut16()
    mask = a.dtype.type(0xFFFF)
    counts = lut[a & mask] + lut[(a >> a.dtype.type(16)) & mask]
    if a.dtype.itemsize == 8:
        counts += lut[(a >> np.uint64(32)) & mask] + lut[a >> np.uint64(48)]
    if out is None:
        return counts
    out[...] = counts
    return out


def resolve_popcount_name(kind: str | None = None) -> str:
    """Resolve None to the platform backend: the native instruction where
    numpy has one, else the lookup table."""
    if kind is None:
        kind = "native" if _HAS_NATIVE else "portable"
    return kind


def get_popcount(kind: str | None = None):
    """Select a popcount backend: 'native', 'portable', or None for the
    platform one.  Both backends are bit-identical.
    """
    kind = resolve_popcount_name(kind)
    if kind == "native":
        if not _HAS_NATIVE:
            raise ValueError("native popcount not available in this numpy")
        fn = popcount_native
    elif kind == "portable":
        fn = popcount_portable
    else:
        raise ValueError(f"unknown popcount backend {kind!r}")
    _log_backend(kind)
    return fn


@functools.cache
def _log_backend(kind: str) -> None:
    # cached so each backend is logged once per process, not once per layer
    log.debug("popcount backend: %s", kind)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


def same_pad(size: int, kernel: int, stride: int) -> tuple[int, int, int]:
    """Output size and (begin, end) zero padding for "same" convolution.

    out = ceil(size/stride); total pad splits with the extra pixel at the end.
    """
    out = -(-size // stride)
    total = max((out - 1) * stride + kernel - size, 0)
    return out, total // 2, total - total // 2


@dataclass(frozen=True)
class ColRegion:
    """A column slice of a monolithic convolution.

    The input slab passed to the kernel covers monolithic columns
    [col_offset, col_offset + slab_width); the kernel produces monolithic
    output columns [out_lo, out_hi).  Padding is derived from full_width, so
    results are bit-identical to the monolithic run.
    """

    full_width: int
    col_offset: int
    out_lo: int
    out_hi: int


class _Geometry(NamedTuple):
    """Where a "same" conv over a column region reads and writes.

    The slab covers monolithic input columns [need_lo, need_hi) plus
    pad_rows zero rows, so its row 0 and column 0 are the top-left window's
    first tap; the output is out_h rows of the region's columns.
    """

    out_h: int
    pad_rows: tuple[int, int]
    pad_left: int
    region: ColRegion
    need_lo: int
    need_hi: int

    @property
    def out_w(self) -> int:
        return self.region.out_hi - self.region.out_lo


def _conv_geometry(shape: tuple[int, int, int], ky: int, kx: int, stride: int,
                   region: ColRegion | None) -> _Geometry:
    """The geometry of a "same" conv over an input of shape [h][w][c] and the
    output columns region names (the whole map when None).

    Raises if the input slab is missing any in-image column the window needs
    (the tiled executor's halo guarantee).
    """
    h, w = shape[:2]
    out_h, pt, pb = same_pad(h, ky, stride)
    out_w, pl, _ = same_pad(w if region is None else region.full_width, kx, stride)
    if region is None:
        region = ColRegion(w, 0, 0, out_w)
    elif not (0 <= region.out_lo < region.out_hi <= out_w):
        raise ValueError(f"output columns [{region.out_lo},{region.out_hi}) outside [0,{out_w})")
    need_lo = region.out_lo * stride - pl
    need_hi = (region.out_hi - 1) * stride - pl + kx
    lo, hi = region.col_offset, region.col_offset + w
    if max(need_lo, 0) < lo or min(need_hi, region.full_width) > hi:
        raise ValueError(
            f"slab covers columns [{lo},{hi}) but "
            f"[{max(need_lo, 0)},{min(need_hi, region.full_width)}) are required")
    return _Geometry(out_h, (pt, pb), pl, region, need_lo, need_hi)


def _column_slab(values: np.ndarray, g: _Geometry) -> np.ndarray:
    """The zero-extended slab of g: a view of values when no zero pixel is
    needed, else a copy."""
    h, w = values.shape[:2]
    off, full_w = g.region.col_offset, g.region.full_width
    pt, pb = g.pad_rows
    if pt == pb == 0 and off <= g.need_lo and g.need_hi <= off + w:
        return values[:, g.need_lo - off:g.need_hi - off]  # nothing to extend
    slab = np.zeros((h + pt + pb, g.need_hi - g.need_lo) + values.shape[2:], dtype=values.dtype)
    src_lo = max(g.need_lo, 0)
    src_hi = min(g.need_hi, full_w)
    if src_lo < src_hi:
        slab[pt:pt + h, src_lo - g.need_lo:src_hi - g.need_lo] = \
            values[:, src_lo - off:src_hi - off]
    return slab


def _check_input(x, step) -> None:
    """Refuse an input of another shape than the one step was prepared for."""
    if x.shape != step.in_shape:
        raise ValueError(f"input shape {x.shape}, the step was prepared for {step.in_shape}")


def _valid_span(out_len: int, offset: int, stride: int, tap: int, pad: int, size: int):
    """Half-open range of output indices whose tap (offset by `offset`) lands inside [0, size)."""
    lo = -(-(pad - tap) // stride) - offset
    hi = (size - 1 + pad - tap) // stride + 1 - offset
    return max(0, lo), min(out_len, hi)


def _tap_runs(spans, length: int) -> tuple[list[int], np.ndarray]:
    """Runs of output indices along one axis with equal sets of in-image
    taps, from each tap's valid span: (cuts, valid), run i covering
    [cuts[i], cuts[i + 1]) with valid[i] its [taps] bool mask.  Every cut
    is where some tap's span starts or ends, so neighbouring runs differ."""
    cuts = sorted({0, length, *(end for a, b in spans if a < b for end in (a, b))})
    valid = np.array([[a <= y < b for a, b in spans] for y in cuts[:-1]], dtype=bool)
    return cuts, valid


def _border_rects(g: _Geometry, h: int, ky: int, kx: int, stride: int):
    """Split the output of g into rectangles of equal sets of in-image taps:
    (rects, taps), rectangle i covering output rows [y0, y1) and columns xs
    of rects[i] = (y0, y1, xs), with taps[i] its [ky * kx] bool mask of
    in-image taps in the weights' tap order."""
    row_cuts, row_valid = _tap_runs(
        [_valid_span(g.out_h, 0, stride, dy, g.pad_rows[0], h) for dy in range(ky)], g.out_h)
    col_cuts, col_valid = _tap_runs(
        [_valid_span(g.out_w, g.region.out_lo, stride, dx, g.pad_left, g.region.full_width)
         for dx in range(kx)], g.out_w)
    rects = [(y0, y1, slice(c0, c1)) for y0, y1 in zip(row_cuts, row_cuts[1:])
             for c0, c1 in zip(col_cuts, col_cuts[1:])]
    taps = row_valid[:, None, :, None] & col_valid[None, :, None, :]
    return rects, taps.reshape(len(rects), ky * kx)


def _row_blocks(out_h: int, rows: int, rects) -> list:
    """(r0, r1, parts) for each block of up to `rows` output rows [r0, r1):
    parts lists (i, ys, xs) for each rectangle i of rects that meets the
    block, with its rows local to the block and its columns."""
    blocks = []
    for r0 in range(0, out_h, rows):
        r1 = min(r0 + rows, out_h)
        blocks.append((r0, r1, tuple((i, slice(max(y0, r0) - r0, min(y1, r1) - r0), xs)
                                     for i, (y0, y1, xs) in enumerate(rects)
                                     if y0 < r1 and r0 < y1)))
    return blocks


# ---------------------------------------------------------------------------
# fixed-point convolution
# ---------------------------------------------------------------------------


# Largest output shift the float64 epilogue of conv2d_fixed performs exactly.
MAX_OUTPUT_SHIFT = 52


def _max_abs(a: np.ndarray) -> int:
    # in int64: |INT32_MIN| is not an int32
    return int(np.abs(a, dtype=np.int64).max(initial=0))


@dataclass(frozen=True)
class FixedConvParams:
    """Quantized conv parameters for the non-binary layers.

    Bias is stored at accumulator scale (input qformat + weight qformat), so
    it adds directly onto the integer accumulator before the rounding shift.
    """

    weights: np.ndarray  # int32 [out][ky][kx][in]
    weights_qformat: int
    bias: np.ndarray  # int32 [out]
    bias_qformat: int
    output_shift: int
    output_bitwidth: int = 16

    def __post_init__(self):
        if self.weights.ndim != 4:
            raise ValueError("weights must be [out][ky][kx][in]")
        if self.bias.shape != (self.weights.shape[0],):
            raise ValueError("bias must have one entry per output channel")
        if not 0 <= self.output_shift <= MAX_OUTPUT_SHIFT:
            raise ValueError(f"output_shift {self.output_shift} outside [0, {MAX_OUTPUT_SHIFT}]")
        if self.output_bitwidth not in (16, 32):
            raise ValueError(f"output_bitwidth {self.output_bitwidth} is not 16 or 32")
        self.weights.flags.writeable = False
        self.bias.flags.writeable = False

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def kernel(self) -> tuple[int, int]:
        return self.weights.shape[1], self.weights.shape[2]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[3]

    @property
    def weight_bits(self) -> int:
        """Stored weight width: 16 bits, or 32 when a weight exceeds int16.
        Files store and footprints price the weights at this width."""
        return 16 if _max_abs(self.weights) <= signed_range(16)[1] else 32

    def accumulator_bound(self, max_abs_input: int) -> int:
        """Worst-case |accumulator| for inputs bounded by max_abs_input."""
        taps = self.weights.shape[1] * self.weights.shape[2] * self.weights.shape[3]
        return taps * _max_abs(self.weights) * max_abs_input + _max_abs(self.bias)

    def check_accumulator(self, max_abs_input: int) -> None:
        """Reject parameter sets whose worst-case sum exceeds a 32-bit accumulator."""
        bound = self.accumulator_bound(max_abs_input)
        if bound >= 1 << 31:
            raise ValueError(f"weights and bias: worst-case accumulator {bound} "
                             "overflows 32 bits")

# What the conv loops size their blocks of output rows to.  A fixed conv
# fits its whole block in it: the float64 im2col and sums, the bools of a
# folded threshold and the unpacked bits of a bits input.  A binary conv fits
# its xor block, the widest of its buffers (its uint8 popcounts and uint16
# sums take an eighth and a quarter more).  Each buffer is allocated once
# per call and reused by every block, so a layer's host memory is its
# output plus about this, whatever the feature map.
BLOCK_BYTES = 1 << 20


def _block_rows(out_h: int, row_bytes: int) -> int:
    """Output rows per block: as many as keep a block, row_bytes per output
    row, within BLOCK_BYTES, and at least one."""
    return max(1, min(out_h, BLOCK_BYTES // max(row_bytes, 1)))


def rounding_shift(acc: np.ndarray, shift: int) -> np.ndarray:
    """Arithmetic right shift with rounding (adds 2**(shift-1) first)."""
    if shift < 0:
        raise ValueError("shift must be >= 0")
    if shift == 0:
        return acc
    return (acc + (1 << (shift - 1))) >> shift


def _acc_limits(p: FixedConvParams, levels) -> np.ndarray:
    """Per-channel float64 a[k] such that, for every integer sum v of the
    layer, rounding_shift(v + bias[k], shift) >= levels[k]  <=>  v >= a[k].

    The rounding shift is floor((v + bias + half) * 2**-shift), and for an
    integer t, floor(u) >= t <=> u >= t, so a = t * 2**shift - bias - half
    exactly.  It is formed in Python integers and clamped to +-2**52, where
    float64 is exact and which no sum of a checked layer reaches.
    """
    s = p.output_shift
    half = 1 << s >> 1
    cap = 1 << 52
    levels = np.broadcast_to(levels, p.bias.shape)
    return np.array([min(max((int(t) << s) - int(b) - half, -cap), cap)
                     for t, b in zip(levels.tolist(), p.bias.tolist())], dtype=np.float64)


class FixedConvStep(NamedTuple):
    """A fixed conv prepared for one layer, input kind and shape, and column
    region.

    Holds what the parameter checks found and every table that does not
    depend on the input's values: the geometry, the float64 filter matrix,
    the block row ranges, the worst-case accumulator factors, both
    output-range limits and the epilogue's constants (offset for
    conv2d_fixed; limits for conv2d_fixed_sign, whose fold is set).  A fold
    negates the weight column and mirrors the limits of each channel it
    flips (not v >= a is -v >= 1 - a, exact on integer sums), so the sign
    epilogue is one compare, with no flip at run time.  Over bits (``bits``,
    a BinaryTensor input) the matrix is 2*W, applied to the bits as 0/1, and
    ``wsum`` holds each border rectangle's in-image weight sum, which the
    loop subtracts to make the sums those of the +-1 values.  Passed as
    ``prepared=`` to the conv it was built for, it leaves that call only the
    run: slab, the data-dependent bound check and the block loop.
    """

    params: FixedConvParams
    fold: BnFold | None
    stride: int
    col_region: ColRegion | None
    bits: bool
    in_shape: tuple[int, int, int]
    geometry: _Geometry
    w_t: np.ndarray  # float64 [ky * kx * in][out]
    rows: int  # output rows per block
    blocks: tuple  # (r0, r1, parts) per block; parts are wsum's rectangles
    wsum: np.ndarray | None  # float64 [rect][out], bits input only
    acc_per_input: int  # taps * max |w|: the bound is this * max |input| + max |bias|
    max_bias: int
    range_limits: tuple[np.ndarray, np.ndarray]  # sums below the first or from the second overflow
    offset: np.ndarray | None  # float64 bias + rounding half, conv2d_fixed
    limits: np.ndarray | None  # _acc_limits of the folded threshold, conv2d_fixed_sign

    def check(self, p: FixedConvParams, fold: BnFold | None, stride: int,
              col_region: ColRegion | None) -> None:
        """Refuse a call whose arguments are not the ones this step was built for."""
        if self.params is not p or self.fold is not fold or \
                (self.stride, self.col_region) != (stride, col_region):
            raise ValueError("prepared step was built for other conv arguments")

    @property
    def words_per_position(self) -> int:
        """64-bit words the block loop fills per output position: float64 taps."""
        return self.w_t.shape[0]

    @property
    def buffer_bytes(self) -> int:
        """Bytes of the block buffers one run allocates."""
        return self.rows * self.geometry.out_w * _fixed_position_bytes(
            self.w_t.shape[0], self.params, self.fold, self.bits)


def _fixed_position_bytes(taps: int, p: FixedConvParams, fold: BnFold | None,
                          bits: bool) -> int:
    # float64 im2col and sums, the threshold's bools padded to whole words,
    # one tap's unpacked bits
    return 8 * (taps + p.out_channels) + \
        (32 * words_per_pixel(p.out_channels) if fold is not None else 0) + \
        (p.in_channels if bits else 0)


def prepare_fixed_conv(shape: tuple[int, int, int], qformat: int, p: FixedConvParams,
                       stride: int = 1, col_region: ColRegion | None = None,
                       fold: BnFold | None = None, *, bits: bool = False) -> FixedConvStep:
    """Check a fixed conv over inputs of shape [h][w][c] at qformat, or over
    +-1 bits at qformat 0 when bits is set, and build its tables: for
    conv2d_fixed, or for conv2d_fixed_sign when fold is set."""
    if shape[2] != p.in_channels:
        raise ValueError(f"input has {shape[2]} channels, weights expect {p.in_channels}")
    if stride not in (1, 2):
        raise ValueError(f"stride must be 1 or 2, got {stride}")
    if p.bias_qformat != qformat + p.weights_qformat:
        raise ValueError("bias must be stored at accumulator scale (input q + weight q)")
    if fold is not None and fold.channels != p.out_channels:
        raise ValueError(f"layer has {p.out_channels} channels, fold has {fold.channels}")
    ky, kx = p.kernel
    g = _conv_geometry(shape, ky, kx, stride, col_region)
    w_t = p.weights.reshape(p.out_channels, -1).T.astype(np.float64)
    lo, hi = signed_range(p.output_bitwidth)
    below, above = _acc_limits(p, lo), _acc_limits(p, hi + 1)
    offset = limits = None
    if fold is None:
        offset = p.bias.astype(np.float64) + (1 << p.output_shift >> 1)
    else:
        folded, flip = fold.folded()
        limits = _acc_limits(p, folded)
        w_t[:, flip] *= -1
        limits[flip] = 1 - limits[flip]
        below, above = np.where(flip, 1 - above, below), np.where(flip, 1 - below, above)
    rects, wsum = [], None
    if bits:
        w_t *= 2
        rects, taps = _border_rects(g, shape[0], ky, kx, stride)
        per_tap = p.weights.sum(axis=3, dtype=np.int64).reshape(p.out_channels, -1)
        wsum = (taps.astype(np.int64) @ per_tap.T).astype(np.float64)
    rows = _block_rows(g.out_h, g.out_w * _fixed_position_bytes(w_t.shape[0], p, fold, bits))
    return FixedConvStep(
        p, fold, stride, col_region, bits, tuple(shape), g, w_t, rows,
        tuple(_row_blocks(g.out_h, rows, rects)), wsum,
        w_t.shape[0] * _max_abs(p.weights), _max_abs(p.bias), (below, above), offset, limits)


def _fixed_conv_blocks(x: FixedTensor | BinaryTensor, s: FixedConvStep):
    """The accumulation loop of a prepared fixed conv, shared by conv2d_fixed
    and conv2d_fixed_sign.

    Yields (r0, r1, acc) for each block of output rows [r0, r1): acc is
    float64 [(r1 - r0) * out_w][out] holding the exact sums of x*w (with the
    fold's columns negated), bias not yet added, in a buffer the next block
    overwrites.  The im2col is channel major: each tap and input channel
    fills one long row of the block's positions, from the strided window of
    the slab (its bits as 0/1 over a bits input).  Every partial sum is an
    exact integer below 2**52 (checked here, from the slab's values), so a
    float64 matmul over the im2col is bit-exact and uses BLAS instead of
    numpy's slow integer dot; consume the blocks under blas.single_thread().
    When the conservative output-range bound fails, each block's actual
    values are judged instead.
    """
    _check_input(x, s)
    p, g, stride = s.params, s.geometry, s.stride
    if isinstance(x, BinaryTensor) != s.bits:
        raise ValueError("the step was prepared for another input kind")
    if s.bits:
        # little-endian bytes: channel 8*j+b is bit b of byte j
        slab = _column_slab(x.words.astype("<u4", copy=False), g)
        max_in = 1
    else:
        if x.qformat + p.weights_qformat != p.bias_qformat:
            raise ValueError("bias must be stored at accumulator scale (input q + weight q)")
        slab = _column_slab(x.values, g)
        max_in = max(int(slab.max(initial=0)), -int(slab.min(initial=0)))
    bound = s.acc_per_input * max_in + s.max_bias
    # over bits, the partial sums of 0/1 times 2*w reach twice the bound
    if bound * (2 if s.bits else 1) >= 1 << 52:
        raise ValueError("accumulator bound exceeds exact float64 range")
    judge = rounding_shift(bound, p.output_shift) > signed_range(p.output_bitwidth)[1]

    ky, kx = p.kernel
    c, oc = p.in_channels, p.out_channels
    ow, taps = g.out_w, s.w_t.shape[0]
    patches_buf = np.empty(s.rows * ow * taps)
    sums_buf = np.empty(s.rows * ow * oc)
    below, above = s.range_limits
    for r0, r1, parts in s.blocks:
        n = r1 - r0
        m = n * ow
        patches = patches_buf[:taps * m].reshape(taps, m)
        for dy in range(ky):
            for dx in range(kx):
                window = slab[dy + r0 * stride:dy + (r1 - 1) * stride + 1:stride,
                              dx:dx + (ow - 1) * stride + 1:stride]
                if s.bits:  # unpacked along the channel axis: [in][y][x] 0/1
                    chans = np.unpackbits(window.view(np.uint8).transpose(2, 0, 1), axis=0,
                                          count=c, bitorder="little")
                else:
                    chans = window.transpose(2, 0, 1)
                t = (dy * kx + dx) * c
                np.copyto(patches[t:t + c].reshape(c, n, ow), chans)
        acc = sums_buf[:m * oc].reshape(m, oc)
        np.matmul(patches.T, s.w_t, out=acc)
        for i, ys, xs in parts:
            acc.reshape(n, ow, oc)[ys, xs] -= s.wsum[i]
        if judge and ((acc < below).any() or (acc >= above).any()):
            raise ValueError(f"conv output exceeds {p.output_bitwidth}-bit range; "
                             "model output_shift is inconsistent")
        yield r0, r1, acc


def conv2d_fixed(x: FixedTensor | BinaryTensor, p: FixedConvParams, stride: int = 1,
                 col_region: ColRegion | None = None, *,
                 prepared: FixedConvStep | None = None) -> FixedTensor:
    """Integer "same" convolution with per-channel bias and rounding rescale.

    out[y][x][k] = rshift_round(sum_in x*w + bias[k], output_shift); output
    spatial dims are ceil(H/stride) x ceil(W/stride).  Zero padding pixels
    contribute nothing to the sum.  x is a FixedTensor, or a BinaryTensor
    read as its +-1 values at qformat 0, block by block from its words.  The
    output is written straight into the storage dtype of ``output_bitwidth``.
    ``prepared`` is this call's prepare_fixed_conv step, reused from an
    earlier call; None builds it.
    """
    qformat = 0 if isinstance(x, BinaryTensor) else x.qformat
    if prepared is None:
        prepared = prepare_fixed_conv(x.shape, qformat, p, stride, col_region,
                                      bits=isinstance(x, BinaryTensor))
    else:
        prepared.check(p, None, stride, col_region)
    blocks = _fixed_conv_blocks(x, prepared)
    out_h, ow = prepared.geometry.out_h, prepared.geometry.out_w
    # Adding bias and the rounding half, scaling by 2**-shift and flooring
    # equals the integer rounding shift exactly: the sum stays below 2**53
    # and a power-of-two scale is exact.
    shift = p.output_shift
    # _fixed_conv_blocks refuses any value outside output_bitwidth
    out = np.empty((out_h * ow, p.out_channels), dtype=storage_dtype(p.output_bitwidth))
    with single_thread():
        for r0, r1, acc in blocks:
            acc += prepared.offset
            if shift:
                acc *= 2.0 ** -shift
                np.floor(acc, out=acc)
            out[r0 * ow:r1 * ow] = acc
    out_q = qformat + p.weights_qformat - shift
    return FixedTensor(out_h, ow, p.out_channels, out.reshape(out_h, ow, p.out_channels),
                       out_q, p.output_bitwidth)


def conv2d_fixed_sign(x: FixedTensor, p: FixedConvParams, fold: BnFold, stride: int = 1,
                      col_region: ColRegion | None = None, *,
                      prepared: FixedConvStep | None = None) -> BinaryTensor:
    """binarize_sign(conv2d_fixed(x, p), fold), bit for bit, without the
    fixed-point output.

    The rescale and the threshold fold into one compare per block of the
    exact float64 sums: with the polarity folded as in BnFold.folded, the bit
    is rounding_shift(v + bias, shift) >= t, which is v >= a for the
    per-channel limit a of _acc_limits; a flipped channel's bit is
    -v >= 1 - a, from its negated weight column.  The block's bools, padded
    with zero channels to whole words, pack as one run.  ``prepared`` is as
    for conv2d_fixed, built with this fold.
    """
    if prepared is None:
        prepared = prepare_fixed_conv(x.shape, x.qformat, p, stride, col_region, fold)
    else:
        prepared.check(p, fold, stride, col_region)
    blocks = _fixed_conv_blocks(x, prepared)
    out_h, ow, oc = prepared.geometry.out_h, prepared.geometry.out_w, p.out_channels
    words = np.empty((out_h, ow, words_per_pixel(oc)), dtype=np.uint32)
    on = np.zeros((prepared.rows * ow, words.shape[-1] * 32), dtype=bool)  # padding stays 0
    with single_thread():
        for r0, r1, acc in blocks:
            m = (r1 - r0) * ow
            np.greater_equal(acc, prepared.limits, out=on[:m, :oc])
            write_bits(words[r0:r1], on[:m])
    return BinaryTensor(out_h, ow, oc, words)


# ---------------------------------------------------------------------------
# folded batch norm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BnFold:
    """Batch norm + sign folded to a per-channel polarity and integer threshold.

    bit(k) = 1  iff  polarity[k] * x >= threshold[k]; equality maps to bit 1
    (sign of zero is +1 throughout this package).
    """

    polarity: np.ndarray  # int32 [C], entries in {-1, +1}
    threshold: np.ndarray  # int32 [C]

    def __post_init__(self):
        if self.polarity.shape != self.threshold.shape or self.polarity.ndim != 1:
            raise ValueError("polarity and threshold must be matching 1-D arrays")
        if not np.isin(self.polarity, (-1, 1)).all():
            raise ValueError("polarity entries must be -1 or +1")
        self.polarity.flags.writeable = False
        self.threshold.flags.writeable = False

    @property
    def channels(self) -> int:
        return self.polarity.shape[0]

    def folded(self) -> tuple[np.ndarray, np.ndarray]:
        """(threshold, flip) with bit = (x >= threshold) ^ flip for every x.

        The polarity folds into the threshold: for polarity -1,
        -x >= t  <=>  not (x >= 1 - t).  The threshold is int64, since
        1 - INT32_MIN is not an int32.
        """
        thr = self.threshold.astype(np.int64)
        flip = self.polarity < 0
        return np.where(flip, 1 - thr, thr), flip

    def apply_bits(self, values: np.ndarray) -> np.ndarray:
        """Bool bits for an integer array whose last axis is channels.

        One int64 comparison against the folded per-channel threshold plus
        the per-channel flip gives every bit.
        """
        folded, flip = self.folded()
        bits = values >= folded
        bits ^= flip
        return bits


def binarize_sign(x: FixedTensor, fold: BnFold) -> BinaryTensor:
    """Fold batch norm over a fixed-point tensor and binarize by sign."""
    if x.channels != fold.channels:
        raise ValueError(f"tensor has {x.channels} channels, fold has {fold.channels}")
    return BinaryTensor(x.height, x.width, x.channels, _pack_bits(fold.apply_bits(x.values)))


def threshold_activation(acc: np.ndarray, fold: BnFold) -> BinaryTensor:
    """Binarize a conv accumulator tensor [H][W][C] through a folded batch norm."""
    if acc.ndim != 3 or acc.shape[2] != fold.channels:
        raise ValueError(f"accumulator shape {acc.shape} does not match fold ({fold.channels} channels)")
    return BinaryTensor(acc.shape[0], acc.shape[1], acc.shape[2],
                        _pack_bits(fold.apply_bits(acc)))


# ---------------------------------------------------------------------------
# binary convolution
# ---------------------------------------------------------------------------


def _xor_bufsize(m: int) -> int:
    """Ufunc buffer size for the [out][1] ^ [m] xor: twice the row, rounded
    up to a multiple of 16 and capped at 2**20, as numpy accepts.  Under
    numpy's default 8,192-element buffer an inner row shorter than about a
    third of it goes through the buffer and the xor runs at half speed.
    It is set once around a block's passes, not around each xor."""
    return min(-(-2 * m // 16) * 16, 1 << 20)


class BinaryConvStep(NamedTuple):
    """A binary conv prepared for one layer, input shape, column region and
    popcount backend.

    Holds what the parameter checks found and every table that does not
    depend on the input's bits: the geometry, the filter's 64-bit words and
    the input words each pairs, the block row ranges with their ufunc buffer
    sizes and border rectangles, and the epilogue's per-rectangle constants
    (offsets for conv2d_binary; bounds in the sums' dtype and flip for
    conv2d_binary_threshold, whose fold is set).  Passed as ``prepared=`` to
    the conv2d_binary_threshold call it was built for, it leaves that call
    only the run: slab and block loop.
    """

    weights: PackedBinaryWeights
    fold: BnFold | None
    stride: int
    col_region: ColRegion | None
    popcount: str
    in_shape: tuple[int, int, int]
    geometry: _Geometry
    popcount_fn: object
    wt: np.ndarray  # uint64 filter words [word][out]
    pairs: tuple  # per 64-bit word, the (tap, word) of each input word it holds
    pc_dtype: type
    rows: int  # output rows per block
    blocks: tuple  # (r0, r1, xor bufsize, parts) per block; see _binary_conv_blocks
    offsets: np.ndarray | None  # int32 C*v + 2*corr [rect][out], conv2d_binary
    bounds: np.ndarray | None  # pc_dtype [rect][out][1][1], conv2d_binary_threshold
    flip: np.ndarray | None

    def check(self, w: PackedBinaryWeights, fold: BnFold, stride: int,
              col_region: ColRegion | None, popcount: str | None) -> None:
        """Refuse a call whose arguments are not the ones this step was built for."""
        if self.weights is not w or self.fold is not fold or \
                (self.stride, self.col_region, self.popcount) != \
                (stride, col_region, resolve_popcount_name(popcount)):
            raise ValueError("prepared step was built for other conv arguments")

    @property
    def words_per_position(self) -> int:
        """64-bit words xored and popcounted per output position."""
        return len(self.pairs)

    @property
    def buffer_bytes(self) -> int:
        """Bytes of the block buffers one run allocates."""
        oc = self.weights.out_channels
        m = self.rows * self.geometry.out_w
        return m * (8 + oc * (8 + np.dtype(self.pc_dtype).itemsize)
                    + max(oc, 32 * words_per_pixel(oc)))


def prepare_binary_conv(shape: tuple[int, int, int], w: PackedBinaryWeights,
                        stride: int = 1, col_region: ColRegion | None = None,
                        popcount: str | None = None,
                        fold: BnFold | None = None) -> BinaryConvStep:
    """Check a binary conv over inputs of shape [h][w][channels] and build
    its tables: for conv2d_binary, or for conv2d_binary_threshold when fold
    is set.

    The filter's 32-bit words, in tap and word order, pair into 64-bit words:
    within a pixel when it holds an even number of words, else across
    consecutive taps, with one word zero in both filter and window to make
    up an odd total.  Taps outside the image read the slab's zero words, so
    each adds popcount(filter tap) to the block sums rather than nothing.
    The output splits into rectangles of equal sets of in-image taps
    (_border_rects); rectangle r has v[r] in-image taps, and corr[r] [out]
    is the int64 popcount(filter tap) sum over its out-of-image taps, so
    that the in-image sum is pc - corr[r].  Those fold into each
    rectangle's offsets or bounds here.
    """
    h, _, channels = shape
    if channels != w.in_channels:
        raise ValueError(f"input has {channels} channels, weights expect {w.in_channels}")
    if stride not in (1, 2):
        raise ValueError(f"stride must be 1 or 2, got {stride}")
    if fold is not None and fold.channels != w.out_channels:
        raise ValueError(f"layer has {w.out_channels} channels, fold has {fold.channels}")
    popcount_fn = get_popcount(popcount)

    ky, kx, oc = w.ky, w.kx, w.out_channels
    g = _conv_geometry(shape, ky, kx, stride, col_region)
    out_h, ow = g.out_h, g.out_w

    wpp = words_per_pixel(channels)
    if wpp % 2 == 0:  # the loop reads the slab as 64-bit words
        pairs = [((t, j),) for t in range(ky * kx) for j in range(wpp // 2)]
    else:
        words = [(t, j) for t in range(ky * kx) for j in range(wpp)]
        pairs = [tuple(words[i:i + 2]) for i in range(0, len(words), 2)]
    flat = w.words.reshape(oc, -1)
    flat = np.concatenate([flat, np.zeros((oc, 2 * len(pairs) - flat.shape[1]), np.uint32)], 1)
    wt = np.ascontiguousarray(flat.view(np.uint64).T)  # [word][out]
    # The sum is at most ky*kx*channels; uint16 while that stays below the
    # dtype's maximum, so a threshold bound of sum + 1 still fits.
    pc_dtype = np.uint16 if ky * kx * channels < (1 << 16) - 1 else np.uint32

    rects, taps = _border_rects(g, h, ky, kx, stride)
    v = taps.sum(axis=1)
    tap_pc = popcount_fn(w.words).sum(axis=3, dtype=np.int64).reshape(oc, -1).T  # [tap][out]
    corr = tap_pc.sum(axis=0) - taps.astype(np.int64) @ tap_pc

    rows = _block_rows(out_h, ow * oc * 8)
    blocks = tuple((r0, r1, _xor_bufsize((r1 - r0) * ow), parts)
                   for r0, r1, parts in _row_blocks(out_h, rows, rects))

    cv = channels * v[:, None]
    offsets = bounds = flip = None
    if fold is None:
        offsets = (cv + 2 * corr).astype(np.int32)
    else:
        folded, flip = fold.folded()
        bounds = np.clip((cv - folded) // 2 + 1, 0, cv + 1) + corr
        bounds = bounds.astype(pc_dtype)[:, :, None, None]  # [rect][out][1][1]
    return BinaryConvStep(w, fold, stride, col_region, resolve_popcount_name(popcount),
                          tuple(shape), g, popcount_fn, wt, tuple(pairs), pc_dtype, rows,
                          blocks, offsets, bounds, flip)


def _binary_conv_blocks(x: BinaryTensor, s: BinaryConvStep):
    """The accumulation loop of a prepared binary conv, shared by
    conv2d_binary and conv2d_binary_threshold.

    The loop is channel major: it yields (r0, r1, pc, parts, spare) for each
    block of output rows [r0, r1), where pc [out][r1 - r0][out_w] sums
    popcount(input ^ filter) over every tap and channel word, in a buffer
    the next block overwrites.  Per 64-bit word, the strided input windows
    of its one or two halves are copied into one contiguous row of the
    block's m positions, xored against the filter's [out][1] column into a
    full-extent [out][m] buffer, popcounted into a uint8 buffer and added;
    the wide inner axis is the positions, so each ufunc runs over long rows
    whatever the tile.  The buffers are sized once per call to keep the xor
    block within BLOCK_BYTES, so no temporary grows with the feature map.

    ``parts`` lists (r, ys, xs) for each border rectangle r (see
    prepare_binary_conv) that meets the block: its rows, local to the block,
    and columns.  ``spare`` is two flat uint8 views of the xor and popcount
    buffers, which are dead once pc is yielded: the first of at least
    pc.size bytes, the second of at least as many as the block's output
    channels padded to whole words.
    """
    _check_input(x, s)
    slab = _column_slab(x.words, s.geometry)
    if slab.shape[-1] % 2 == 0:  # pairs within a pixel: read them as 64-bit words
        slab = slab.view(np.uint64)
    ow, stride, rows, popcount_fn = s.geometry.out_w, s.stride, s.rows, s.popcount_fn
    ky, kx, oc = s.weights.ky, s.weights.kx, s.wt.shape[1]
    size = rows * ow * oc
    pc_buf = np.empty(size, dtype=s.pc_dtype)
    xor_buf = np.empty(size, dtype=np.uint64)
    count_buf = np.empty(rows * ow * max(oc, 32 * words_per_pixel(oc)), dtype=np.uint8)
    win_buf = np.empty(rows * ow, dtype=np.uint64)
    spare = xor_buf.view(np.uint8), count_buf

    for r0, r1, bufsize, parts in s.blocks:
        n = r1 - r0
        m = n * ow
        pc = pc_buf[:oc * m].reshape(oc, m)
        xor = xor_buf[:oc * m].reshape(oc, m)
        count = count_buf[:oc * m].reshape(oc, m)
        win = win_buf[:m]
        halves = win.view(slab.dtype).reshape(n, ow, -1)
        halves = [halves[:, :, h] for h in range(halves.shape[2])]
        windows = [slab[dy + r0 * stride:dy + (r1 - 1) * stride + 1:stride,
                        dx:dx + (ow - 1) * stride + 1:stride]
                   for dy in range(ky) for dx in range(kx)]
        pc.fill(0)
        old = np.setbufsize(bufsize)
        try:
            for p, pair in enumerate(s.pairs):
                for half, (t, wi) in zip(halves, pair):
                    np.copyto(half, windows[t][:, :, wi])
                if len(pair) < len(halves):
                    halves[1].fill(0)  # the zero word that makes up an odd total
                np.bitwise_xor(s.wt[p, :, None], win, out=xor)
                pc += popcount_fn(xor, out=count)
        finally:
            np.setbufsize(old)
        yield r0, r1, pc.reshape(oc, n, ow), parts, spare


def conv2d_binary(x: BinaryTensor, w: PackedBinaryWeights, stride: int = 1,
                  col_region: ColRegion | None = None,
                  popcount: str | None = None) -> np.ndarray:
    """xor+popcount binary convolution; exact +-1 dot products as int32.

    For every output position the result equals the sum over in-image taps of
    the +-1 dot product between input pixel and filter tap: per 32-channel
    word a tap contributes 32 - 2*popcount(i ^ w), and using the true channel
    count instead of 32*words compensates the zeroed padding bits exactly.
    Border taps outside the image are excluded from the sum: with v in-image
    taps and corr the popcount their zero words added, the result is
    C*v - 2*(pc - corr), one constant per channel and border rectangle.
    """
    prepared = prepare_binary_conv(x.shape, w, stride, col_region, popcount)
    g = prepared.geometry
    acc = np.empty((g.out_h, g.out_w, w.out_channels), dtype=np.int32)
    for r0, r1, pc, parts, _ in _binary_conv_blocks(x, prepared):
        block = acc[r0:r1]
        np.multiply(pc.transpose(1, 2, 0), np.int32(-2), out=block)
        for i, ys, xs in parts:
            block[ys, xs] += prepared.offsets[i]
    return acc


def conv2d_binary_threshold(x: BinaryTensor, w: PackedBinaryWeights, fold: BnFold,
                            stride: int = 1, col_region: ColRegion | None = None,
                            popcount: str | None = None, *,
                            prepared: BinaryConvStep | None = None) -> BinaryTensor:
    """threshold_activation(conv2d_binary(x, w), fold), bit for bit, straight
    from the popcount sums.

    With the polarity folded as in BnFold.folded, C channels, v in-image taps
    and s the in-image popcount sum, the accumulator is C*v - 2*s and
    C*v - 2*s >= t  <=>  s < floor((C*v - t) / 2) + 1.  That bound is
    clipped to [0, C*v + 1], which keeps the equivalence for s in [0, C*v].
    The block's sum pc also counts the zero words read by out-of-image taps,
    s = pc - corr, so each border rectangle compares pc against its bound
    plus corr, which still fits the popcount's dtype.  The compare writes
    bools [out][rows][cols] into the dead xor buffer; the flip, xored on
    the transpose into the dead popcount buffer, leaves channels last,
    padded with zero channels to whole words, for one flat pack.  No int32
    accumulator and no bool block is allocated.
    ``prepared`` is this call's prepare_binary_conv step, reused from an
    earlier call; None builds it.
    """
    if prepared is None:
        prepared = prepare_binary_conv(x.shape, w, stride, col_region, popcount, fold)
    else:
        prepared.check(w, fold, stride, col_region, popcount)
    g, oc = prepared.geometry, w.out_channels
    words = np.empty((g.out_h, g.out_w, words_per_pixel(oc)), dtype=np.uint32)
    for r0, r1, pc, parts, (spare_a, spare_b) in _binary_conv_blocks(x, prepared):
        bits = spare_a[:pc.size].view(bool).reshape(pc.shape)
        for i, ys, xs in parts:
            np.less(pc[:, ys, xs], prepared.bounds[i], out=bits[:, ys, xs])
        flipped = spare_b[:(r1 - r0) * g.out_w * words.shape[-1] * 32].view(bool)
        flipped = flipped.reshape(r1 - r0, g.out_w, -1)
        np.bitwise_xor(bits.transpose(1, 2, 0), prepared.flip, out=flipped[:, :, :oc])
        flipped[:, :, oc:] = False  # padding channels
        write_bits(words[r0:r1], flipped)
    return BinaryTensor(g.out_h, g.out_w, oc, words)


# ---------------------------------------------------------------------------
# pooling and prediction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoolResult:
    """Division-free global average: per-channel sums plus the common divisor."""

    sums: np.ndarray  # int64 [C]
    count: int

    def means(self) -> np.ndarray:
        return self.sums / self.count


def global_avg_pool(x: np.ndarray) -> PoolResult:
    """Sum every channel over all spatial positions; divisor carried alongside."""
    if x.ndim != 3:
        raise ValueError(f"expected [H][W][C], got ndim={x.ndim}")
    sums = x.astype(np.int64).sum(axis=(0, 1))
    return PoolResult(sums, x.shape[0] * x.shape[1])


def predict(scores: np.ndarray) -> int:
    """Index of the maximum score; ties break to the lowest index."""
    scores = np.asarray(scores)
    if scores.size == 0:
        raise ValueError("scores must be non-empty")
    return int(np.argmax(scores))
