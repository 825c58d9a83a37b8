"""Compute primitives: fixed-point conv, xor+popcount binary conv, folded
batch-norm threshold activation, sign binarization, global average pooling.

All kernels are pure integer functions over immutable inputs and run
single-threaded; the executor parallelizes over tiles, never inside a
kernel.  Convolutions use "same" zero padding geometry.  For the binary
path, taps falling outside the image are excluded from the accumulation (a
zero pad word would wrongly contribute -1 per channel under the {0 -> -1}
encoding).

Every kernel accepts an optional column region so the tiled executor can
compute an exact slice of the monolithic output from an input slab: window
positions, padding, and border classes are always resolved in monolithic
coordinates.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .blas import single_thread
from .tensors import (
    BinaryTensor,
    FixedTensor,
    PackedBinaryWeights,
    _pack_bits,
    signed_range,
    words_per_pixel,
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
    """Resolve None/'auto' to the platform backend: the native instruction
    where numpy has one, else the lookup table."""
    if kind is None or kind == "auto":
        kind = "native" if _HAS_NATIVE else "portable"
    return kind


def get_popcount(kind: str | None = None):
    """Select a popcount backend: 'native', 'portable', or None/'auto' for
    the platform one.  Both backends are bit-identical.
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


def _resolve_region(width: int, kernel: int, stride: int, region: ColRegion | None):
    if region is None:
        out_w, pl, _ = same_pad(width, kernel, stride)
        return width, 0, 0, out_w, pl
    out_w_full, pl, _ = same_pad(region.full_width, kernel, stride)
    if not (0 <= region.out_lo < region.out_hi <= out_w_full):
        raise ValueError(f"output columns [{region.out_lo},{region.out_hi}) outside [0,{out_w_full})")
    return region.full_width, region.col_offset, region.out_lo, region.out_hi, pl


def _column_slab(values: np.ndarray, full_w: int, col_offset: int,
                 need_lo: int, need_hi: int, pad_rows: tuple[int, int]) -> np.ndarray:
    """The zero-extended slab covering monolithic columns [need_lo, need_hi):
    a view of values when no zero pixel is needed, else a copy.

    Raises if the provided slab is missing any in-image column the window
    needs (the tiled executor's halo guarantee).
    """
    h, w = values.shape[:2]
    if max(need_lo, 0) < col_offset or min(need_hi, full_w) > col_offset + w:
        raise ValueError(
            f"slab covers columns [{col_offset},{col_offset + w}) but "
            f"[{max(need_lo, 0)},{min(need_hi, full_w)}) are required")
    pt, pb = pad_rows
    if pt == pb == 0 and col_offset <= need_lo and need_hi <= col_offset + w:
        return values[:, need_lo - col_offset:need_hi - col_offset]  # nothing to extend
    slab = np.zeros((h + pt + pb, need_hi - need_lo) + values.shape[2:], dtype=values.dtype)
    src_lo = max(need_lo, 0)
    src_hi = min(need_hi, full_w)
    if src_lo < src_hi:
        slab[pt:pt + h, src_lo - need_lo:src_hi - need_lo] = \
            values[:, src_lo - col_offset:src_hi - col_offset]
    return slab


def _valid_span(out_len: int, offset: int, stride: int, tap: int, pad: int, size: int):
    """Half-open range of output indices whose tap (offset by `offset`) lands inside [0, size)."""
    lo = -(-(pad - tap) // stride) - offset
    hi = (size - 1 + pad - tap) // stride + 1 - offset
    return max(0, lo), min(out_len, hi)


# ---------------------------------------------------------------------------
# fixed-point convolution
# ---------------------------------------------------------------------------


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

    def accumulator_bound(self, max_abs_input: int) -> int:
        """Worst-case |accumulator| for inputs bounded by max_abs_input."""
        taps = self.weights.shape[1] * self.weights.shape[2] * self.weights.shape[3]
        wmax = int(np.abs(self.weights).max()) if self.weights.size else 0
        bmax = int(np.abs(self.bias).max()) if self.bias.size else 0
        return taps * wmax * max_abs_input + bmax

    def check_accumulator(self, max_abs_input: int) -> None:
        """Reject parameter sets whose worst-case sum exceeds a 32-bit accumulator."""
        bound = self.accumulator_bound(max_abs_input)
        if bound >= 1 << 31:
            raise ValueError(f"worst-case accumulator {bound} overflows 32 bits")


# Largest output shift the float64 epilogue of conv2d_fixed performs exactly.
MAX_OUTPUT_SHIFT = 52

# What the conv loops size their widest temporary to: the float64 matmul
# block of a fixed conv, the xor block of a binary conv.  A layer's buffers
# are allocated once per call and reused by every block, so its host memory
# is its output plus a small multiple of this, whatever the feature map.
BLOCK_BYTES = 1 << 20


def _block_rows(out_h: int, row_bytes: int) -> int:
    """Output rows per block: as many as keep a block's widest temporary,
    row_bytes per output row, within BLOCK_BYTES, and at least one."""
    return max(1, min(out_h, BLOCK_BYTES // max(row_bytes, 1)))


def _pack_rows(words: np.ndarray, r0: int, bits: np.ndarray) -> None:
    """Pack bool bits [n][W][C] into rows [r0, r0 + n) of little-endian words
    [H][W][nw], in the layout of tensors._pack_bits."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    words.view(np.uint8)[r0:r0 + len(bits), :, :packed.shape[-1]] = packed


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


def _fixed_conv_blocks(x: FixedTensor, p: FixedConvParams, stride: int,
                       col_region: ColRegion | None):
    """Check a fixed conv and set up its accumulation loop, shared by
    conv2d_fixed and conv2d_fixed_sign.

    Returns (out_h, out_w, blocks).  ``blocks`` yields (r0, r1, acc) for each
    block of output rows [r0, r1): acc is float64 [(r1 - r0) * out_w][out]
    holding the exact sums of x*w, bias not yet added, in a buffer the next
    block overwrites.  Every partial sum is an exact integer below 2**52
    (checked here), so a float64 matmul over im2col patches is bit-exact and
    uses BLAS instead of numpy's slow integer dot; consume the blocks under
    blas.single_thread().  The im2col patches and the product are both
    capped by BLOCK_BYTES.  When the conservative output-range bound fails,
    each block's actual values are judged instead.
    """
    ky, kx = p.kernel
    if x.channels != p.in_channels:
        raise ValueError(f"input has {x.channels} channels, weights expect {p.in_channels}")
    if stride not in (1, 2):
        raise ValueError(f"stride must be 1 or 2, got {stride}")
    if p.bias_qformat != x.qformat + p.weights_qformat:
        raise ValueError("bias must be stored at accumulator scale (input q + weight q)")

    out_h, pt, pb = same_pad(x.height, ky, stride)
    full_w, col_offset, out_lo, out_hi, pl = _resolve_region(x.width, kx, stride, col_region)
    need_lo = out_lo * stride - pl
    need_hi = (out_hi - 1) * stride - pl + kx
    slab = _column_slab(x.values, full_w, col_offset, need_lo, need_hi, (pt, pb))
    ow = out_hi - out_lo

    shift = p.output_shift
    if not 0 <= shift <= MAX_OUTPUT_SHIFT:
        raise ValueError(f"output shift {shift} outside [0, {MAX_OUTPUT_SHIFT}]")
    max_in = max(int(slab.max(initial=0)), -int(slab.min(initial=0)))
    bound = p.accumulator_bound(max_in)
    if bound >= 1 << 52:
        raise ValueError("accumulator bound exceeds exact float64 range")
    lo, hi = signed_range(p.output_bitwidth)
    range_limits = None
    if rounding_shift(np.int64(bound), shift) > hi:
        range_limits = _acc_limits(p, lo), _acc_limits(p, hi + 1)

    wins = np.lib.stride_tricks.sliding_window_view(slab, (ky, kx), axis=(0, 1))
    # [y][x][ky][kx][in]: the tap order of the weights
    wins = wins[:(out_h - 1) * stride + 1:stride, :(ow - 1) * stride + 1:stride]
    wins = wins.transpose(0, 1, 3, 4, 2)
    w_t = p.weights.reshape(p.out_channels, -1).T.astype(np.float64)
    taps = w_t.shape[0]
    rows = _block_rows(out_h, ow * max(taps, p.out_channels) * 8)
    patches = np.empty((rows,) + wins.shape[1:])
    product = np.empty((rows * ow, p.out_channels))

    def blocks():
        for r0 in range(0, out_h, rows):
            r1 = min(r0 + rows, out_h)
            n = r1 - r0
            np.copyto(patches[:n], wins[r0:r1])  # im2col, cast to float64
            acc = product[:n * ow]
            np.matmul(patches[:n].reshape(n * ow, taps), w_t, out=acc)
            if range_limits is not None and (
                    (acc < range_limits[0]).any() or (acc >= range_limits[1]).any()):
                raise ValueError(f"conv output exceeds {p.output_bitwidth}-bit range; "
                                 "model output_shift is inconsistent")
            yield r0, r1, acc

    return out_h, ow, blocks()


def conv2d_fixed(x: FixedTensor, p: FixedConvParams, stride: int = 1,
                 col_region: ColRegion | None = None) -> FixedTensor:
    """Integer "same" convolution with per-channel bias and rounding rescale.

    out[y][x][k] = rshift_round(sum_in x*w + bias[k], output_shift); output
    spatial dims are ceil(H/stride) x ceil(W/stride).  Zero padding pixels
    contribute nothing to the sum.
    """
    out_h, ow, blocks = _fixed_conv_blocks(x, p, stride, col_region)
    # Adding bias and the rounding half, scaling by 2**-shift and flooring
    # equals the integer rounding shift exactly: the sum stays below 2**53
    # and a power-of-two scale is exact.
    shift = p.output_shift
    offset = p.bias.astype(np.float64) + (1 << shift >> 1)
    out = np.empty((out_h * ow, p.out_channels), dtype=np.int32)
    with single_thread():
        for r0, r1, acc in blocks:
            acc += offset
            if shift:
                acc *= 2.0 ** -shift
                np.floor(acc, out=acc)
            out[r0 * ow:r1 * ow] = acc
    out_q = x.qformat + p.weights_qformat - shift
    return FixedTensor(out_h, ow, p.out_channels, out.reshape(out_h, ow, p.out_channels),
                       out_q, p.output_bitwidth)


def conv2d_fixed_sign(x: FixedTensor, p: FixedConvParams, fold: BnFold, stride: int = 1,
                      col_region: ColRegion | None = None) -> BinaryTensor:
    """binarize_sign(conv2d_fixed(x, p), fold), bit for bit, without the
    int32 output.

    The rescale and the threshold fold into one compare per block of the
    exact float64 sums: with the polarity folded as in BnFold.folded, the bit
    is rounding_shift(v + bias, shift) >= t, which is v >= a for the
    per-channel limit a of _acc_limits, then the polarity flip.  Only the
    block's bools and the packed words are written.
    """
    if fold.channels != p.out_channels:
        raise ValueError(f"layer has {p.out_channels} channels, fold has {fold.channels}")
    out_h, ow, blocks = _fixed_conv_blocks(x, p, stride, col_region)
    folded, flip = fold.folded()
    limits = _acc_limits(p, folded)
    words = np.zeros((out_h, ow, words_per_pixel(p.out_channels)), dtype="<u4")
    with single_thread():
        for r0, r1, acc in blocks:
            bits = acc >= limits
            bits ^= flip
            _pack_rows(words, r0, bits.reshape(r1 - r0, ow, p.out_channels))
    return BinaryTensor(out_h, ow, p.out_channels, words.astype(np.uint32, copy=False))


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

        One comparison against the folded per-channel threshold plus the
        per-channel flip gives every bit.  The comparison runs in the values'
        own dtype unless a folded threshold falls outside it, and then in
        int64.
        """
        folded, flip = self.folded()
        info = np.iinfo(values.dtype)
        if info.min <= folded.min(initial=0) and folded.max(initial=0) <= info.max:
            folded = folded.astype(values.dtype)
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


def _runs(counts: np.ndarray) -> list[tuple[int, int, int]]:
    """(start, end, value) for each run of equal entries of a 1-D array."""
    cuts = [0, *(np.flatnonzero(np.diff(counts)) + 1).tolist(), len(counts)]
    return [(a, b, int(counts[a])) for a, b in zip(cuts, cuts[1:])]


def _binary_conv_blocks(x: BinaryTensor, w: PackedBinaryWeights, stride: int,
                        col_region: ColRegion | None, popcount: str | None):
    """Check a binary conv and set up its accumulation loop, shared by
    conv2d_binary and conv2d_binary_threshold.

    Returns (out_h, out_w, vy, vx, blocks).  Output position (y, x) has
    vy[y] * vx[x] in-image taps.  ``blocks`` yields (r0, r1, pc) for each
    block of output rows [r0, r1): pc [r1 - r0][out_w][out] sums
    popcount(input ^ filter) over in-image taps and channel words, in a
    buffer the next block overwrites.  Within a block the loop runs over
    taps and words, each one xor into a reused buffer of at most
    BLOCK_BYTES, one popcount into a reused uint8 buffer, and one add, so
    the ufunc calls per tile stay few while no temporary grows with the
    feature map.
    """
    if x.channels != w.in_channels:
        raise ValueError(f"input has {x.channels} channels, weights expect {w.in_channels}")
    if stride not in (1, 2):
        raise ValueError(f"stride must be 1 or 2, got {stride}")
    popcount_fn = get_popcount(popcount)

    ky, kx = w.ky, w.kx
    out_h, pt, pb = same_pad(x.height, ky, stride)
    full_w, col_offset, out_lo, out_hi, pl = _resolve_region(x.width, kx, stride, col_region)
    need_lo = out_lo * stride - pl
    need_hi = (out_hi - 1) * stride - pl + kx
    slab = _column_slab(x.words, full_w, col_offset, need_lo, need_hi, (pt, pb))

    # Pairs of 32-bit words fuse into one 64-bit popcount when they divide evenly.
    if slab.shape[-1] % 2 == 0:
        slab = slab.view(np.uint64)
        wwords = np.ascontiguousarray(w.words).view(np.uint64)
    else:
        wwords = w.words

    ow = out_hi - out_lo
    oc = w.out_channels
    # The sum is at most ky*kx*channels; uint16 while that stays below the
    # dtype's maximum, so a threshold bound of sum + 1 still fits.
    pc_dtype = np.uint16 if ky * kx * x.channels < (1 << 16) - 1 else np.uint32
    # The channel-word loop stays outside the broadcast so the wide inner axis
    # is the output channels, kept contiguous on both operands so the xor and
    # popcount loops vectorize.  wt is [ky][kx][word][oc].
    wt = np.ascontiguousarray(wwords.transpose(1, 2, 3, 0))
    row_spans = [_valid_span(out_h, 0, stride, dy, pt, x.height) for dy in range(ky)]
    col_spans = [_valid_span(ow, out_lo, stride, dx, pl, full_w) for dx in range(kx)]
    # The valid-tap count factors into independent row and column counts.
    vy = np.zeros(out_h, dtype=np.int32)
    vx = np.zeros(ow, dtype=np.int32)
    for y0, y1 in row_spans:
        vy[y0:y1] += 1
    for c0, c1 in col_spans:
        vx[c0:c1] += 1

    rows = _block_rows(out_h, ow * oc * slab.itemsize)
    size = rows * ow * oc
    pc_buf = np.empty(size, dtype=pc_dtype)
    xor_buf = np.empty(size, dtype=slab.dtype)
    count_buf = np.empty(size, dtype=np.uint8)

    def blocks():
        for r0 in range(0, out_h, rows):
            r1 = min(r0 + rows, out_h)
            pc = pc_buf[:(r1 - r0) * ow * oc].reshape(r1 - r0, ow, oc)
            pc.fill(0)
            for dy, (y0, y1) in enumerate(row_spans):
                y0, y1 = max(y0, r0), min(y1, r1)
                for dx, (c0, c1) in enumerate(col_spans):
                    if y0 >= y1 or c0 >= c1:
                        continue
                    shape = (y1 - y0, c1 - c0, oc)
                    n = shape[0] * shape[1] * oc
                    xor = xor_buf[:n].reshape(shape)
                    count = count_buf[:n].reshape(shape)
                    target = pc[y0 - r0:y1 - r0, c0:c1]
                    win = slab[dy + y0 * stride:dy + (y1 - 1) * stride + 1:stride,
                               dx + c0 * stride:dx + (c1 - 1) * stride + 1:stride]
                    for wi in range(slab.shape[-1]):
                        np.bitwise_xor(win[:, :, wi, None], wt[dy, dx, wi], out=xor)
                        target += popcount_fn(xor, out=count)
            yield r0, r1, pc

    return out_h, ow, vy, vx, blocks()


def conv2d_binary(x: BinaryTensor, w: PackedBinaryWeights, stride: int = 1,
                  col_region: ColRegion | None = None,
                  popcount: str | None = None) -> np.ndarray:
    """xor+popcount binary convolution; exact +-1 dot products as int32.

    For every output position the result equals the sum over in-image taps of
    the +-1 dot product between input pixel and filter tap: per 32-channel
    word a tap contributes 32 - 2*popcount(i ^ w), and using the true channel
    count instead of 32*words compensates the zeroed padding bits exactly.
    Border taps outside the image are excluded from the sum, which reduces to
    a separable per-position valid-tap count times the channel count.
    """
    out_h, ow, vy, vx, blocks = _binary_conv_blocks(x, w, stride, col_region, popcount)
    acc = np.empty((out_h, ow, w.out_channels), dtype=np.int32)
    for r0, r1, pc in blocks:
        np.multiply(pc, np.int32(-2), out=acc[r0:r1])
        acc[r0:r1] += x.channels * (vy[r0:r1, None] * vx)[:, :, None]
    return acc


def conv2d_binary_threshold(x: BinaryTensor, w: PackedBinaryWeights, fold: BnFold,
                            stride: int = 1, col_region: ColRegion | None = None,
                            popcount: str | None = None) -> BinaryTensor:
    """threshold_activation(conv2d_binary(x, w), fold), bit for bit, straight
    from the popcount sums.

    With the polarity folded as in BnFold.folded, C channels, v in-image taps
    and pc the popcount sum, the accumulator is C*v - 2*pc and
    C*v - 2*pc >= t  <=>  pc < floor((C*v - t) / 2) + 1.  That bound, clipped
    to [0, C*v + 1] and cast to the popcount's dtype, depends on v alone, and
    v differs from ky*kx only on border rows and columns: each block is
    compared in the few rectangles of constant v, then flipped and packed.
    No int32 accumulator is built.
    """
    if fold.channels != w.out_channels:
        raise ValueError(f"layer has {w.out_channels} channels, fold has {fold.channels}")
    out_h, ow, vy, vx, blocks = _binary_conv_blocks(x, w, stride, col_region, popcount)
    folded, flip = fold.folded()
    c = x.channels
    col_runs = _runs(vx)
    bounds = {}
    words = np.zeros((out_h, ow, words_per_pixel(w.out_channels)), dtype="<u4")
    for r0, r1, pc in blocks:
        bits = np.empty(pc.shape, dtype=bool)
        for y0, y1, ty in _runs(vy[r0:r1]):
            for c0, c1, tx in col_runs:
                v = ty * tx
                if v not in bounds:
                    bounds[v] = np.clip((c * v - folded) // 2 + 1, 0, c * v + 1).astype(pc.dtype)
                np.less(pc[y0:y1, c0:c1], bounds[v], out=bits[y0:y1, c0:c1])
        bits ^= flip
        _pack_rows(words, r0, bits)
    return BinaryTensor(out_h, ow, w.out_channels, words.astype(np.uint32, copy=False))


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
