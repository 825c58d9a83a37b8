"""Compute primitives: fixed-point conv, xor+popcount binary conv, folded
batch-norm threshold activation, sign binarization, global average pooling.

All kernels are pure integer functions over immutable inputs; results are
bit-identical regardless of thread count.  Convolutions use "same" zero
padding geometry.  For the binary path, taps falling outside the image are
excluded from the accumulation (a zero pad word would wrongly contribute -1
per channel under the {0 -> -1} encoding).

Every kernel accepts an optional column region so the tiled executor can
compute an exact slice of the monolithic output from an input slab: window
positions, padding, and border classes are always resolved in monolithic
coordinates.
"""

from __future__ import annotations

import functools
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .blas import single_thread
from .tensors import (
    BinaryTensor,
    FixedTensor,
    PackedBinaryWeights,
    _pack_bits,
    signed_range,
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


def popcount_native(a: np.ndarray) -> np.ndarray:
    """Per-word population count via the platform instruction."""
    return np.bitwise_count(a)


def popcount_portable(a: np.ndarray) -> np.ndarray:
    """Per-word population count via a 16-bit lookup table (32/64-bit words)."""
    lut = _lut16()
    mask = a.dtype.type(0xFFFF)
    out = lut[a & mask] + lut[(a >> a.dtype.type(16)) & mask]
    if a.dtype.itemsize == 8:
        out += lut[(a >> np.uint64(32)) & mask] + lut[a >> np.uint64(48)]
    return out


def resolve_popcount_name(kind: str | None = None) -> str:
    """Resolve None/'auto' to the concrete backend name."""
    if kind is None or kind == "auto":
        kind = os.environ.get("BINSED_POPCOUNT", "auto")
    if kind == "auto":
        kind = "native" if _HAS_NATIVE else "portable"
    return kind


def get_popcount(kind: str | None = None):
    """Select a popcount backend: 'native', 'portable', or None/'auto'.

    Auto prefers the native instruction; the BINSED_POPCOUNT environment
    variable overrides the default.  Both backends are bit-identical.
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
    """Assemble the zero-extended slab covering monolithic columns [need_lo, need_hi).

    Raises if the provided slab is missing any in-image column the window
    needs (the tiled executor's halo guarantee).
    """
    h, w = values.shape[:2]
    if max(need_lo, 0) < col_offset or min(need_hi, full_w) > col_offset + w:
        raise ValueError(
            f"slab covers columns [{col_offset},{col_offset + w}) but "
            f"[{max(need_lo, 0)},{min(need_hi, full_w)}) are required")
    pt, pb = pad_rows
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


def rounding_shift(acc: np.ndarray, shift: int) -> np.ndarray:
    """Arithmetic right shift with rounding (adds 2**(shift-1) first)."""
    if shift < 0:
        raise ValueError("shift must be >= 0")
    if shift == 0:
        return acc
    return (acc + (1 << (shift - 1))) >> shift


def conv2d_fixed(x: FixedTensor, p: FixedConvParams, stride: int = 1,
                 col_region: ColRegion | None = None) -> FixedTensor:
    """Integer "same" convolution with per-channel bias and rounding rescale.

    out[y][x][k] = rshift_round(sum_in x*w + bias[k], output_shift); output
    spatial dims are ceil(H/stride) x ceil(W/stride).  Zero padding pixels
    contribute nothing to the sum.
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
    # Every partial sum is an exact integer below 2**52 (checked here), so one
    # float64 matmul over im2col patches is bit-exact and uses BLAS instead of
    # numpy's slow integer dot.  Adding bias and the rounding half, scaling by
    # 2**-shift and flooring then equals the integer rounding shift exactly:
    # the sum stays below 2**53 and a power-of-two scale is exact.
    shift = p.output_shift
    if not 0 <= shift <= 52:
        raise ValueError(f"output shift {shift} outside [0, 52]")
    max_in = int(np.abs(slab).max(initial=0))
    bound = p.accumulator_bound(max_in)
    if bound >= 1 << 52:
        raise ValueError("accumulator bound exceeds exact float64 range")
    slab_f = slab.astype(np.float64)
    wins = np.lib.stride_tricks.sliding_window_view(slab_f, (ky, kx), axis=(0, 1))
    wins = wins[:(out_h - 1) * stride + 1:stride, :(ow - 1) * stride + 1:stride]
    patches = wins.transpose(0, 1, 3, 4, 2).reshape(out_h * ow, ky * kx * p.in_channels)
    w_f = p.weights.reshape(p.out_channels, -1).astype(np.float64)
    with single_thread():
        out = patches @ w_f.T
    out += p.bias.astype(np.float64) + (1 << shift >> 1)
    if shift:
        out *= 2.0 ** -shift
        np.floor(out, out=out)

    lo, hi = signed_range(p.output_bitwidth)
    if rounding_shift(np.int64(bound), shift) > hi:
        # conservative bound failed; judge the actual values
        if out.size and (out.min() < lo or out.max() > hi):
            raise ValueError(f"conv output exceeds {p.output_bitwidth}-bit range; "
                             "model output_shift is inconsistent")
    out = out.astype(np.int32).reshape(out_h, ow, p.out_channels)
    out_q = x.qformat + p.weights_qformat - shift
    return FixedTensor(out_h, ow, p.out_channels, out, out_q, p.output_bitwidth)


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

    def apply_bits(self, values: np.ndarray) -> np.ndarray:
        """Bool bits for an integer array whose last axis is channels.

        The polarity folds into the threshold: for polarity -1,
        -v >= t  <=>  not (v >= 1 - t), so one comparison against a
        per-channel threshold plus a per-channel flip gives every bit.  The
        comparison runs in the values' own dtype unless a folded threshold
        falls outside it (1 - INT32_MIN does), and then in int64.
        """
        thr = self.threshold.astype(np.int64)
        flip = self.polarity < 0
        folded = np.where(flip, 1 - thr, thr)
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


def _binary_conv_block(pc, slab, wwords, och, taps, stride, geom, popcount_fn):
    """Accumulate xor popcounts over all taps for one output-channel block.

    pc is the shared popcount accumulator; blocks write disjoint channel
    slices, so threaded execution is race-free and order-independent.  The
    channel-word loop stays outside the broadcast so the wide inner axis is
    the output channels, kept contiguous on both operands so the xor and
    popcount loops vectorize.
    """
    out_h, ow, pt, pl, h, full_w, out_lo = geom
    # [ky][kx][word][oc], contiguous over output channels
    wt = np.ascontiguousarray(wwords[och].transpose(1, 2, 3, 0))
    n_words = slab.shape[-1]
    for dy, dx in taps:
        y0, y1 = _valid_span(out_h, 0, stride, dy, pt, h)
        c0, c1 = _valid_span(ow, out_lo, stride, dx, pl, full_w)
        if y0 >= y1 or c0 >= c1:
            continue
        target = pc[y0:y1, c0:c1, och]
        win = slab[dy + y0 * stride:dy + (y1 - 1) * stride + 1:stride,
                   dx + c0 * stride:dx + (c1 - 1) * stride + 1:stride]
        for wi in range(n_words):
            target += popcount_fn(win[:, :, wi, None] ^ wt[dy, dx, wi])


def conv2d_binary(x: BinaryTensor, w: PackedBinaryWeights, stride: int = 1,
                  col_region: ColRegion | None = None,
                  popcount: str | None = None, threads: int = 1) -> np.ndarray:
    """xor+popcount binary convolution; exact +-1 dot products as int32.

    For every output position the result equals the sum over in-image taps of
    the +-1 dot product between input pixel and filter tap: per 32-channel
    word a tap contributes 32 - 2*popcount(i ^ w), and using the true channel
    count instead of 32*words compensates the zeroed padding bits exactly.
    Border taps outside the image are excluded from the sum, which reduces to
    a separable per-position valid-tap count times the channel count.
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
    nw = slab.shape[-1]
    if nw % 2 == 0:
        slab = slab.view(np.uint64)
        wwords = np.ascontiguousarray(w.words).view(np.uint64)
    else:
        wwords = w.words

    ow = out_hi - out_lo
    pc_dtype = np.uint16 if ky * kx * x.channels < (1 << 16) else np.uint32
    pc = np.zeros((out_h, ow, w.out_channels), dtype=pc_dtype)
    taps = [(dy, dx) for dy in range(ky) for dx in range(kx)]
    geom = (out_h, ow, pt, pl, x.height, full_w, out_lo)

    # Requested thread count is an upper bound; oversubscribing the machine
    # only adds contention, so the pool is capped at the core count.
    workers = min(max(1, threads), os.cpu_count() or 1, w.out_channels)
    if workers == 1:
        _binary_conv_block(pc, slab, wwords, slice(None), taps, stride, geom, popcount_fn)
    else:
        blocks = np.array_split(np.arange(w.out_channels), workers)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_binary_conv_block, pc, slab, wwords,
                            slice(int(b[0]), int(b[-1]) + 1), taps, stride, geom,
                            popcount_fn)
                for b in blocks if len(b)
            ]
            for f in futures:
                f.result()

    # acc = sum over valid taps of (channels - 2*popcount); the valid-tap
    # count factors into independent row and column tap counts.
    vy = np.zeros(out_h, dtype=np.int32)
    vx = np.zeros(ow, dtype=np.int32)
    for dy in range(ky):
        y0, y1 = _valid_span(out_h, 0, stride, dy, pt, x.height)
        vy[y0:y1] += 1
    for dx in range(kx):
        c0, c1 = _valid_span(ow, out_lo, stride, dx, pl, full_w)
        vx[c0:c1] += 1
    valid_taps = vy[:, None] * vx[None, :]
    return x.channels * valid_taps[:, :, None] - 2 * pc.astype(np.int32)


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
