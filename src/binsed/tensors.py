"""Core tensor containers: bit-packed binary tensors and fixed-point integer tensors.

Binary activations and weights live in {-1, +1} logically but are stored one
bit per value, 32 channels per uint32 word, with bit 1 encoding +1 and bit 0
encoding -1.  Padding bits past the channel count are always zero so popcount
arithmetic can be corrected with per-pixel constants instead of per-word masks.

Fixed-point tensors store signed integers together with a Q-format: the real
value of element n is n * 2**(-qformat).  They are held at their nominal
width, int16 or int32, so 16-bit features cost 2 bytes per value on the host
as in the footprint report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORD_BITS = 32


def words_per_pixel(channels: int) -> int:
    """Number of 32-bit words needed for one pixel's channel vector."""
    return (channels + WORD_BITS - 1) // WORD_BITS


@dataclass(frozen=True)
class BinaryTensor:
    """Bit-packed {-1,+1} tensor, layout [height][width][words]."""

    height: int
    width: int
    channels: int
    words: np.ndarray  # uint32 [height][width][words_per_pixel(channels)]

    def __post_init__(self):
        expected = (self.height, self.width, words_per_pixel(self.channels))
        if self.words.shape != expected:
            raise ValueError(f"word array shape {self.words.shape}, expected {expected}")
        if self.words.dtype != np.uint32:
            raise ValueError(f"word array dtype {self.words.dtype}, expected uint32")
        self.words.flags.writeable = False

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.height, self.width, self.channels)


@dataclass(frozen=True)
class FixedTensor:
    """Signed-integer tensor with Q-format scale, layout [height][width][channels].

    Real value of an element is ``int * 2**(-qformat)``.  ``bitwidth`` is the
    storage width, 16 or 32, and ``values`` has its dtype (``storage_dtype``).
    An array that already has that dtype is kept as it is, with no copy and
    no scan: the dtype is the range check.  Any other integer array is
    range-checked, then converted once.
    ``saturated`` carries the clip count from quantization (informational).
    """

    height: int
    width: int
    channels: int
    values: np.ndarray  # int16 or int32 [height][width][channels]
    qformat: int
    bitwidth: int = 16
    saturated: int = field(default=0, compare=False)

    def __post_init__(self):
        dtype = storage_dtype(self.bitwidth)
        expected = (self.height, self.width, self.channels)
        if self.values.shape != expected:
            raise ValueError(f"value array shape {self.values.shape}, expected {expected}")
        if self.values.dtype != dtype:
            if self.values.dtype.kind not in "iu":
                raise ValueError(f"value array dtype {self.values.dtype}, expected integers")
            lo, hi = signed_range(self.bitwidth)
            if self.values.size and (self.values.min() < lo or self.values.max() > hi):
                raise ValueError(f"values exceed signed {self.bitwidth}-bit range")
            object.__setattr__(self, "values", self.values.astype(dtype))
        self.values.flags.writeable = False

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.height, self.width, self.channels)

    def to_real(self) -> np.ndarray:
        """Dequantize to float64."""
        return self.values.astype(np.float64) * 2.0 ** (-self.qformat)


@dataclass(frozen=True)
class PackedBinaryWeights:
    """Bit-packed conv filters, layout [out][ky][kx][words], same encoding as BinaryTensor."""

    out_channels: int
    in_channels: int
    ky: int
    kx: int
    words: np.ndarray  # uint32 [out][ky][kx][words_per_pixel(in_channels)]

    def __post_init__(self):
        expected = (self.out_channels, self.ky, self.kx, words_per_pixel(self.in_channels))
        if self.words.shape != expected:
            raise ValueError(f"word array shape {self.words.shape}, expected {expected}")
        if self.words.dtype != np.uint32:
            raise ValueError(f"word array dtype {self.words.dtype}, expected uint32")
        self.words.flags.writeable = False


def signed_range(bitwidth: int) -> tuple[int, int]:
    return -(1 << (bitwidth - 1)), (1 << (bitwidth - 1)) - 1


def storage_dtype(bitwidth: int) -> np.dtype:
    """In-memory dtype of a FixedTensor of this bitwidth: int16 or int32."""
    if bitwidth not in (16, 32):
        raise ValueError(f"bitwidth must be 16 or 32, got {bitwidth}")
    return np.dtype(np.int16 if bitwidth == 16 else np.int32)


def write_bits(words: np.ndarray, bits: np.ndarray) -> None:
    """Write bits [..., 32*nw] (bool or 0/1 integers) into little-endian words
    [..., nw], channel 32*w+b in bit b of word w.  The bits are padded with
    zero channels to whole words, so the block packs as one flat run."""
    if bits.shape[-1] != WORD_BITS * words.shape[-1]:
        raise ValueError(f"{bits.shape[-1]} bits per pixel do not fill {words.shape[-1]} words")
    words[...] = np.packbits(bits, axis=None, bitorder="little").view("<u4").reshape(words.shape)


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a trailing channel axis of {0,1} values into uint32 words
    [..., ceil(C/32)] with zero padding bits."""
    c = bits.shape[-1]
    words = np.empty(bits.shape[:-1] + (words_per_pixel(c),), dtype=np.uint32)
    if c % WORD_BITS:
        padded = np.zeros(bits.shape[:-1] + (WORD_BITS * words.shape[-1],), dtype=bool)
        padded[..., :c] = bits
        bits = padded
    write_bits(words, bits)
    return words


def _unpack_bits(words: np.ndarray, channels: int) -> np.ndarray:
    """Inverse of _pack_bits: [..., nw] uint32 -> [..., channels] of {0,1} uint8."""
    le_bytes = np.ascontiguousarray(words, dtype="<u4").view(np.uint8)
    return np.unpackbits(le_bytes, axis=-1, count=channels, bitorder="little")


def pack(dense: np.ndarray) -> BinaryTensor:
    """Pack a dense [H][W][C] tensor of -1/+1 integers into a BinaryTensor.

    Rejects any element outside {-1, +1}, reporting the first offending index.
    """
    dense = np.asarray(dense)
    if dense.ndim != 3:
        raise ValueError(f"expected a [H][W][C] tensor, got ndim={dense.ndim}")
    bad = (dense != 1) & (dense != -1)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"element {dense[idx]} at {idx} is not -1 or +1")
    h, w, c = dense.shape
    return BinaryTensor(h, w, c, _pack_bits(dense == 1))


def unpack(t: BinaryTensor) -> np.ndarray:
    """Unpack a BinaryTensor to a dense [H][W][C] int8 tensor of -1/+1."""
    bits = _unpack_bits(t.words, t.channels)
    return (bits.astype(np.int8) * 2 - 1)


def pack_weights(dense: np.ndarray) -> PackedBinaryWeights:
    """Pack dense [out][ky][kx][in] filters of -1/+1 into PackedBinaryWeights."""
    dense = np.asarray(dense)
    if dense.ndim != 4:
        raise ValueError(f"expected [out][ky][kx][in] filters, got ndim={dense.ndim}")
    bad = (dense != 1) & (dense != -1)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"element {dense[idx]} at {idx} is not -1 or +1")
    o, ky, kx, c = dense.shape
    return PackedBinaryWeights(o, c, ky, kx, _pack_bits(dense == 1))


def unpack_weights(w: PackedBinaryWeights) -> np.ndarray:
    """Unpack filters to a dense [out][ky][kx][in] int8 tensor of -1/+1."""
    bits = _unpack_bits(w.words, w.in_channels)
    return (bits.astype(np.int8) * 2 - 1)


def _quantize(values, qformat: int, bitwidth: int) -> tuple[np.ndarray, int]:
    # float64 integers in the signed range of bitwidth, and the clip count
    if qformat < 0:
        raise ValueError(f"qformat must be >= 0, got {qformat}")
    if bitwidth not in (16, 32):
        raise ValueError(f"bitwidth must be 16 or 32, got {bitwidth}")
    x = np.asarray(values, dtype=np.float64) * (2.0 ** qformat)
    q = np.trunc(x + np.copysign(0.5, x))
    lo, hi = signed_range(bitwidth)
    saturated = int(np.count_nonzero((q < lo) | (q > hi)))
    return np.clip(q, lo, hi), saturated


def quantize_values(values, qformat: int, bitwidth: int = 16) -> tuple[np.ndarray, int]:
    """Quantize reals to integers at 2**(-qformat) resolution.

    Round to nearest, ties away from zero, saturating silently to the signed
    range of ``bitwidth``.  Returns (int32 array, saturation count).
    """
    q, saturated = _quantize(values, qformat, bitwidth)
    return q.astype(np.int32), saturated


def quantize_real(values, qformat: int, bitwidth: int = 16) -> FixedTensor:
    """Quantize a real [H][W][C] (or [H][W]) tensor into a FixedTensor, rounded
    and saturated as quantize_values, straight into its storage dtype."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ValueError(f"expected a 2-D or 3-D tensor, got ndim={arr.ndim}")
    q, saturated = _quantize(arr, qformat, bitwidth)
    h, w, c = q.shape
    return FixedTensor(h, w, c, q.astype(storage_dtype(bitwidth)), qformat, bitwidth,
                       saturated=saturated)
