"""Model quantization and serialization.

The quantizer turns float parameters into fixed-point weights, packed binary
weights, and per-channel integer thresholds.  Batch-norm folding is computed
with exact rational arithmetic and verified exhaustively over the layer's
attainable accumulator range as part of the fold itself.

The serialized model format is little-endian, versioned, and CRC-protected;
see docs/model_format.md for the byte-level layout.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import (
    BadMagicError,
    CrcError,
    InputFormatError,
    TrailingDataError,
    TruncatedError,
    VersionError,
)
from .executor import (
    BINARY_CONV,
    FINAL_CONV,
    FIXED_CONV,
    REFERENCE_CLASSES,
    REFERENCE_INPUT_SHAPE,
    REFERENCE_TABLE,
    LayerSpec,
    NetworkSpec,
)
from .frontend import FrontendConfig, check_timing
from .kernels import BnFold, FixedConvParams, rounding_shift
from .tensors import (
    FixedTensor,
    PackedBinaryWeights,
    pack_weights,
    quantize_values,
    signed_range,
    words_per_pixel,
)

MODEL_MAGIC = b"BSED"
FEATURE_MAGIC = b"BFEA"
FORMAT_VERSION = 1

QFORMAT_COVERAGE = 0.999  # fraction of values that must survive unsaturated


# ---------------------------------------------------------------------------
# float-side model description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FloatLayer:
    kind: str
    kernel: tuple[int, int]
    in_channels: int
    out_channels: int
    stride: int
    weights: np.ndarray  # float [out][ky][kx][in]
    bias: np.ndarray | None = None
    gamma: np.ndarray | None = None
    beta: np.ndarray | None = None
    mu: np.ndarray | None = None
    sigma: np.ndarray | None = None


@dataclass(frozen=True)
class FloatModel:
    layers: tuple[FloatLayer, ...]
    input_shape: tuple[int, int, int] = REFERENCE_INPUT_SHAPE
    classes: int = REFERENCE_CLASSES


@dataclass(frozen=True)
class Model:
    """A quantized network plus the frontend configuration it was built for."""

    network: NetworkSpec
    frontend: FrontendConfig


# ---------------------------------------------------------------------------
# quantization primitives
# ---------------------------------------------------------------------------


def choose_qformat(values, bitwidth: int = 16) -> int:
    """Largest fractional-bit count covering at least 99.9% of the values.

    Coverage means |round(v * 2**f)| fits the signed range; the remainder
    saturates.  All-zero input degenerates to maximal precision bitwidth-1,
    which is also the cap for very small-valued tensors.
    """
    v = np.abs(np.asarray(values, dtype=np.float64).ravel())
    if v.size == 0:
        raise ValueError("cannot choose a qformat for an empty value set")
    if np.isnan(v).any():
        raise ValueError("values contain NaN")
    if not v.any():
        return bitwidth - 1
    qmax = (1 << (bitwidth - 1)) - 1
    for f in range(bitwidth - 1, 0, -1):
        scaled = np.floor(v * (2.0 ** f) + 0.5)
        if np.count_nonzero(scaled <= qmax) >= QFORMAT_COVERAGE * v.size:
            return f
    return 0


def binarize_weights(weights) -> PackedBinaryWeights:
    """Binarize float filters by sign (tie to +1) and bit-pack them."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 4:
        raise ValueError(f"expected [out][ky][kx][in] filters, got ndim={w.ndim}")
    if np.isnan(w).any():
        idx = tuple(int(i) for i in np.argwhere(np.isnan(w))[0])
        raise ValueError(f"NaN weight at {idx}")
    dense = np.where(w >= 0.0, 1, -1).astype(np.int8)
    return pack_weights(dense)


def fold_batchnorm(gamma, beta, mu, sigma, value_qformat: int = 0,
                   acc_range: tuple[int, int] | None = None) -> BnFold:
    """Fold batch norm + sign into per-channel polarity and integer threshold.

    The folded activation satisfies, for every integer x in the attainable
    range: bit(x) = 1  iff  gamma*((x*2**-q - mu)/sigma) + beta >= 0.  The
    threshold is the smallest integer t with (polarity*x >= t) equivalent to
    that condition, computed from exact rationals (no float floor division).
    When acc_range is given the equivalence is verified exhaustively.
    """
    gamma = np.atleast_1d(np.asarray(gamma, dtype=np.float64))
    beta = np.atleast_1d(np.asarray(beta, dtype=np.float64))
    mu = np.atleast_1d(np.asarray(mu, dtype=np.float64))
    sigma = np.atleast_1d(np.asarray(sigma, dtype=np.float64))
    n = max(a.size for a in (gamma, beta, mu, sigma))
    gamma, beta, mu, sigma = (np.broadcast_to(a, (n,)).copy()
                              for a in (gamma, beta, mu, sigma))
    for name, a in (("gamma", gamma), ("beta", beta), ("mu", mu), ("sigma", sigma)):
        if not np.isfinite(a).all():
            raise ValueError(f"{name} contains non-finite values")
    if (sigma <= 0).any():
        raise ValueError("sigma must be positive for every channel")
    if (gamma == 0).any():
        k = int(np.argwhere(gamma == 0)[0, 0])
        raise ValueError(f"gamma is zero for channel {k}: activation would be "
                         "constant; prune the channel before folding")

    scale = 1 << value_qformat
    polarity = np.where(gamma > 0, 1, -1).astype(np.int32)
    thresholds = np.empty(n, dtype=np.int64)
    lo32, hi32 = signed_range(32)
    for k in range(n):
        # BN(x * 2**-q) >= 0  <=>  x >= c (gamma>0)  or  x <= c (gamma<0),
        # with c = 2**q * (mu - sigma*beta/gamma), handled as an exact rational.
        c = (Fraction(mu[k]) - Fraction(sigma[k]) * Fraction(beta[k]) / Fraction(gamma[k])) * scale
        t = math.ceil(c) if gamma[k] > 0 else math.ceil(-c)
        thresholds[k] = min(max(t, lo32), hi32)
    fold = BnFold(polarity, thresholds.astype(np.int32))

    if acc_range is not None:
        _verify_fold(fold, gamma, beta, mu, sigma, value_qformat, acc_range)
    return fold


def _verify_fold(fold: BnFold, gamma, beta, mu, sigma, qformat: int,
                 acc_range: tuple[int, int]) -> None:
    """Exhaustively check fold bits against the batch-norm sign.

    A fast vectorized float screen runs over the whole range; any disagreement
    is re-judged with exact rational arithmetic before being reported, so
    float rounding at the decision boundary cannot raise a false alarm.
    """
    lo, hi = acc_range
    x = np.arange(lo, hi + 1, dtype=np.int64)
    xr = x.astype(np.float64) * 2.0 ** (-qformat)
    for k in range(fold.channels):
        fold_bits = fold.polarity[k] * x >= fold.threshold[k]
        bn = gamma[k] * ((xr - mu[k]) / sigma[k]) + beta[k]
        float_bits = bn >= 0.0
        disagree = np.nonzero(fold_bits != float_bits)[0]
        for i in disagree:
            xi = int(x[i])
            exact = (Fraction(gamma[k]) * (Fraction(xi, 1 << qformat) - Fraction(mu[k]))
                     / Fraction(sigma[k]) + Fraction(beta[k])) >= 0
            if exact != bool(fold_bits[i]):
                raise ValueError(
                    f"fold verification failed: channel {k}, x={xi}, "
                    f"fold bit {bool(fold_bits[i])}, exact sign bit {exact}")


def _max_abs_input(kind: str) -> int:
    """The largest |input| a fixed layer's 32-bit accumulator must hold: any
    int16 feature for the first layer, a +-1 bit for the final conv."""
    return signed_range(16)[1] if kind == FIXED_CONV else 1


def _quantize_fixed_layer(fl: FloatLayer, input_qformat: int,
                          output_bitwidth: int) -> FixedConvParams:
    """Quantize one non-binary conv layer with accumulator-safe qformats.

    The weight qformat starts from the 99.9% rule, then backs off until the
    worst-case 32-bit accumulator bound holds; the output shift is the
    smallest that brings that bound into the output bitwidth.
    """
    bias = fl.bias if fl.bias is not None else np.zeros(fl.out_channels)
    f = choose_qformat(fl.weights)
    while True:
        w_int, _ = quantize_values(fl.weights, f)
        b_int, _ = quantize_values(bias, input_qformat + f, 32)
        params = FixedConvParams(w_int, f, b_int, input_qformat + f, 0, output_bitwidth)
        bound = params.accumulator_bound(_max_abs_input(fl.kind))
        if bound < (1 << 31) or f == 0:
            break
        f -= 1
    if bound >= (1 << 31):
        raise ValueError("layer cannot be quantized without accumulator overflow")

    shift = 0
    qmax = signed_range(output_bitwidth)[1]
    while rounding_shift(np.int64(bound), shift) > qmax:
        shift += 1
    return replace(params, output_shift=shift)


def quantize_model(fm: FloatModel, frontend: FrontendConfig | None = None) -> Model:
    """Quantize a float model into a runnable fixed-point/binary network with
    16-bit weights in its fixed-point layers."""
    cfg = frontend or FrontendConfig()
    in_q = cfg.output_qformat
    specs = []
    for fl in fm.layers:
        if fl.kind == FIXED_CONV:
            params = _quantize_fixed_layer(fl, in_q, output_bitwidth=16)
            out_q = in_q + params.weights_qformat - params.output_shift
            fold = fold_batchnorm(fl.gamma, fl.beta, fl.mu, fl.sigma,
                                  value_qformat=out_q, acc_range=signed_range(16))
            specs.append(LayerSpec(fl.kind, fl.kernel, fl.in_channels,
                                   fl.out_channels, fl.stride,
                                   fixed=params, fold=fold))
        elif fl.kind == BINARY_CONV:
            packed = binarize_weights(fl.weights)
            reach = fl.kernel[0] * fl.kernel[1] * fl.in_channels
            fold = fold_batchnorm(fl.gamma, fl.beta, fl.mu, fl.sigma,
                                  value_qformat=0, acc_range=(-reach, reach))
            specs.append(LayerSpec(fl.kind, fl.kernel, fl.in_channels,
                                   fl.out_channels, fl.stride,
                                   weights=packed, fold=fold))
        elif fl.kind == FINAL_CONV:
            params = _quantize_fixed_layer(fl, 0, output_bitwidth=32)
            specs.append(LayerSpec(fl.kind, fl.kernel, fl.in_channels,
                                   fl.out_channels, fl.stride, fixed=params))
        else:
            raise ValueError(f"unknown layer kind {fl.kind!r}")
    net = NetworkSpec(tuple(specs), fm.input_shape, cfg.output_qformat, fm.classes)
    return Model(net, cfg)


# ---------------------------------------------------------------------------
# random model generation (desk-scale testing stand-in for trained weights)
# ---------------------------------------------------------------------------


def gen_random_float_model(seed: int, table=REFERENCE_TABLE,
                           input_shape=REFERENCE_INPUT_SHAPE,
                           classes: int = REFERENCE_CLASSES) -> FloatModel:
    """Seeded random float model with plausible batch-norm statistics.

    Binary-layer statistics scale with sqrt(taps) so thresholds land inside
    the attainable accumulator range and activations stay mixed.
    """
    rng = np.random.default_rng(seed)
    in_c = input_shape[2]
    layers = []
    for kind, ky, kx, out_c, stride in table:
        if kind == FIXED_CONV:
            w = rng.normal(0.0, 0.25, (out_c, ky, kx, in_c))
            b = rng.normal(0.0, 0.1, out_c)
            gamma = rng.uniform(0.5, 1.5, out_c) * rng.choice([-1.0, 1.0], out_c, p=[0.25, 0.75])
            layers.append(FloatLayer(kind, (ky, kx), in_c, out_c, stride, w, b,
                                     gamma=gamma,
                                     beta=rng.normal(0.0, 0.5, out_c),
                                     mu=rng.normal(0.0, 3.0, out_c),
                                     sigma=rng.uniform(2.0, 8.0, out_c)))
        elif kind == BINARY_CONV:
            w = rng.choice([-1.0, 1.0], (out_c, ky, kx, in_c))
            sd = max(1.0, (ky * kx * in_c) ** 0.5)
            gamma = rng.uniform(0.5, 1.5, out_c) * rng.choice([-1.0, 1.0], out_c, p=[0.25, 0.75])
            layers.append(FloatLayer(kind, (ky, kx), in_c, out_c, stride, w,
                                     gamma=gamma,
                                     beta=rng.normal(0.0, 0.5, out_c),
                                     mu=rng.normal(0.0, 0.3 * sd, out_c),
                                     sigma=rng.uniform(0.5 * sd, 1.5 * sd, out_c)))
        elif kind == FINAL_CONV:
            w = rng.normal(0.0, 0.1, (out_c, ky, kx, in_c))
            b = rng.normal(0.0, 0.05, out_c)
            layers.append(FloatLayer(kind, (ky, kx), in_c, out_c, stride, w, b))
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
        in_c = out_c
    return FloatModel(tuple(layers), input_shape, classes)


def gen_random_model(seed: int, frontend: FrontendConfig | None = None) -> Model:
    """Seeded random quantized model on the reference topology."""
    return quantize_model(gen_random_float_model(seed), frontend)


# ---------------------------------------------------------------------------
# binary serialization
# ---------------------------------------------------------------------------

_KIND_CODES = {FIXED_CONV: 1, BINARY_CONV: 2, FINAL_CONV: 3}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}

_FRONTEND_FMT = "<6I3dBBH"  # 52 bytes
_NET_FMT = "<3HBBHH"  # 12 bytes
_LAYER_FMT = "<4B2H"  # 8 bytes
_FIXED_FMT = "<7B1x"  # 8 bytes


class _Cursor:
    """Reads a payload through a memoryview; ``take`` returns views, not copies."""

    def __init__(self, data: memoryview):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.data):
            raise TruncatedError(
                f"payload ends at byte {len(self.data)}, needed {self.pos + n}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype: str, count: int, as_type) -> np.ndarray:
        """count stored ``dtype`` values, converted to a new array of the
        in-memory ``as_type`` in one copy."""
        raw = self.take(count * np.dtype(dtype).itemsize)
        return np.frombuffer(raw, dtype=dtype).astype(as_type)

    def done(self) -> None:
        if self.pos != len(self.data):
            raise TrailingDataError(
                f"{len(self.data) - self.pos} unexpected trailing payload bytes")


def _pack_frontend(cfg: FrontendConfig) -> bytes:
    return struct.pack(_FRONTEND_FMT, cfg.sample_rate, cfg.window, cfg.hop,
                       cfg.fft_size, cfg.mel_bins, cfg.frames,
                       cfg.fmin, cfg.fmax, cfg.log_floor,
                       1 if cfg.log_compress else 0, cfg.output_qformat, 0)


def _unpack_frontend(cur: _Cursor) -> FrontendConfig:
    (sr, win, hop, nfft, mels, frames, fmin, fmax, floor,
     logc, out_q, _pad) = cur.unpack(_FRONTEND_FMT)
    try:
        check_timing(sr, win, hop, frames)
        return FrontendConfig(nfft, mels, fmin, fmax, floor, bool(logc), out_q)
    except ValueError as e:
        raise TruncatedError(f"frontend config: {e}") from e


def _pack_fold(fold: BnFold) -> bytes:
    return fold.polarity.astype("<i1").tobytes() + fold.threshold.astype("<i4").tobytes()


def _unpack_fold(cur: _Cursor, channels: int) -> BnFold:
    return BnFold(cur.array("<i1", channels, np.int32), cur.array("<i4", channels, np.int32))


def save(model: Model) -> bytes:
    """Serialize a model; little-endian, CRC-protected, byte-stable."""
    net = model.network
    parts = [_pack_frontend(model.frontend)]
    h, w, c = net.input_shape
    parts.append(struct.pack(_NET_FMT, h, w, c, net.input_qformat, 0,
                             net.classes, len(net.layers)))
    for layer in net.layers:
        ky, kx = layer.kernel
        parts.append(struct.pack(_LAYER_FMT, _KIND_CODES[layer.kind], ky, kx,
                                 layer.stride, layer.in_channels, layer.out_channels))
        if layer.kind == BINARY_CONV:
            parts.append(np.ascontiguousarray(layer.weights.words, "<u4"))
            parts.append(_pack_fold(layer.fold))
        else:
            p = layer.fixed
            has_fold = 1 if layer.fold is not None else 0
            parts.append(struct.pack(_FIXED_FMT, p.weights_qformat, p.bias_qformat,
                                     p.output_shift, p.output_bitwidth, has_fold,
                                     p.weight_bits, 0))
            parts.append(np.ascontiguousarray(p.weights, f"<i{p.weight_bits // 8}"))
            parts.append(np.ascontiguousarray(p.bias, "<i4"))
            if layer.fold is not None:
                parts.append(_pack_fold(layer.fold))
    return _container(MODEL_MAGIC, parts)


def check_frontend_coupling(input_shape, input_qformat: int, cfg: FrontendConfig) -> None:
    """Refuse a network whose input is not the frontend's patch: a model that
    passes always accepts its own frontend's features."""
    if input_qformat != cfg.output_qformat:
        raise ValueError(f"network input_qformat {input_qformat} does not match "
                         f"frontend output_qformat {cfg.output_qformat}")
    if tuple(input_shape) != (cfg.mel_bins, cfg.frames, 1):
        raise ValueError(f"network input_shape {tuple(input_shape)} does not match the "
                         f"frontend patch shape {(cfg.mel_bins, cfg.frames, 1)}")


def load(data: bytes) -> Model:
    """Deserialize a model.  Only format-level facts are judged here; the
    parameter, layer and network types refuse the rest, each refusal a
    TruncatedError naming its layer or the network."""
    payload = _check_container(data, MODEL_MAGIC)
    cur = _Cursor(payload)
    cfg = _unpack_frontend(cur)
    h, w, c, in_q, _pad, classes, n_layers = cur.unpack(_NET_FMT)
    try:
        check_frontend_coupling((h, w, c), in_q, cfg)
    except ValueError as e:
        raise TruncatedError(str(e)) from e
    layers = []
    for index in range(n_layers):
        code, ky, kx, stride, in_c, out_c = cur.unpack(_LAYER_FMT)
        if code not in _KIND_NAMES:
            raise TruncatedError(f"unknown layer kind code {code}")
        kind = _KIND_NAMES[code]
        try:
            params = packed = None
            if kind == BINARY_CONV:
                nw = words_per_pixel(in_c)
                words = cur.array("<u4", out_c * ky * kx * nw, np.uint32)
                packed = PackedBinaryWeights(out_c, in_c, ky, kx,
                                             words.reshape(out_c, ky, kx, nw))
                has_fold = 1
            else:
                wq, bq, shift, out_bw, has_fold, w_store, _r = cur.unpack(_FIXED_FMT)
                if w_store not in (16, 32):
                    raise TruncatedError(f"bad weight storage width {w_store}")
                wts = cur.array("<i2" if w_store == 16 else "<i4", out_c * ky * kx * in_c,
                                np.int32)
                params = FixedConvParams(wts.reshape(out_c, ky, kx, in_c), wq,
                                         cur.array("<i4", out_c, np.int32), bq, shift, out_bw)
                # overflow possibility is a load-time check, not a per-element one
                params.check_accumulator(_max_abs_input(kind))
            fold = _unpack_fold(cur, out_c) if has_fold else None
            layers.append(LayerSpec(kind, (ky, kx), in_c, out_c, stride, params, packed, fold))
        except ValueError as e:  # refused by a parameter or layer type
            raise TruncatedError(f"layer {index}: {e}") from e
    cur.done()
    try:
        net = NetworkSpec(tuple(layers), (h, w, c), in_q, classes)
    except ValueError as e:  # layer kind order, bias qformats, channel chain, class count
        raise TruncatedError(f"network: {e}") from e
    return Model(net, cfg)


def _container(magic: bytes, parts) -> bytes:
    """One container: magic, version, payload length, the parts (bytes or
    C-contiguous arrays, written as they are laid out) and the payload CRC,
    joined in one copy."""
    views = [memoryview(part).cast("B") for part in parts]
    crc = 0
    for view in views:
        crc = zlib.crc32(view, crc)
    header = magic + struct.pack("<HHI", FORMAT_VERSION, 0, sum(map(len, views)))
    return b"".join([header, *views, struct.pack("<I", crc)])


def _check_container(data: bytes, magic: bytes) -> memoryview:
    """The payload of a checked container, as a view into ``data``."""
    data = memoryview(data).cast("B")
    if len(data) < 12:
        raise TruncatedError(f"container is {len(data)} bytes, header needs 12")
    if data[:4] != magic:
        raise BadMagicError(f"bad magic {bytes(data[:4])!r}, expected {magic!r}")
    version, _reserved, payload_len = struct.unpack("<HHI", data[4:12])
    if version != FORMAT_VERSION:
        raise VersionError(f"format version {version}, this build reads {FORMAT_VERSION}")
    expected = 12 + payload_len + 4
    if len(data) < expected:
        raise TruncatedError(f"container is {len(data)} bytes, expected {expected}")
    if len(data) > expected:
        raise TrailingDataError(f"{len(data) - expected} unexpected trailing bytes")
    payload = data[12:12 + payload_len]
    crc = struct.unpack("<I", data[12 + payload_len:expected])[0]
    if crc != zlib.crc32(payload):
        raise CrcError("payload CRC mismatch")
    return payload


def save_file(model: Model, path) -> None:
    with open(path, "wb") as f:
        f.write(save(model))


def load_file(path) -> Model:
    with open(path, "rb") as f:
        return load(f.read())


def network_spec_json(model: Model) -> str:
    """Plain-text JSON export of the network descriptor for inspection."""
    net = model.network
    layers = []
    for layer in net.layers:
        row = {"kind": layer.kind, "kernel": list(layer.kernel),
               "in_channels": layer.in_channels, "out_channels": layer.out_channels,
               "stride": layer.stride}
        if layer.fixed is not None:
            row["weights_qformat"] = layer.fixed.weights_qformat
            row["output_shift"] = layer.fixed.output_shift
            row["output_bitwidth"] = layer.fixed.output_bitwidth
        if layer.fold is not None:
            row["folded_batchnorm"] = True
        layers.append(row)
    return json.dumps({
        "input_shape": list(net.input_shape),
        "input_qformat": net.input_qformat,
        "classes": net.classes,
        "layers": layers,
    }, indent=2)


# ---------------------------------------------------------------------------
# feature-file serialization (frontend output)
# ---------------------------------------------------------------------------


def save_features(patches, cfg: FrontendConfig) -> bytes:
    """Serialize one or more frontend patches with the config embedded."""
    if not isinstance(patches, (list, tuple)):
        patches = [patches]
    if not patches:
        raise ValueError("no patches to save")
    first = patches[0]
    parts = [_pack_frontend(cfg),
             struct.pack("<HBB3H2x", len(patches), first.qformat, first.bitwidth,
                         first.height, first.width, first.channels)]
    for p in patches:
        if p.bitwidth != 16:  # the frontend emits 16-bit features only
            raise ValueError(f"feature patches are 16-bit, got bitwidth {p.bitwidth}")
        if p.shape != first.shape or p.qformat != first.qformat:
            raise ValueError("all patches in one file must share shape and qformat")
        parts.append(np.ascontiguousarray(p.values, "<i2"))  # an int16 patch is its own part
    return _container(FEATURE_MAGIC, parts)


def load_features(data: bytes):
    """Inverse of save_features: returns (list of FixedTensor, FrontendConfig)."""
    payload = _check_container(data, FEATURE_MAGIC)
    cur = _Cursor(payload)
    cfg = _unpack_frontend(cur)
    count, qformat, bitwidth, h, w, c = cur.unpack("<HBB3H2x")
    if bitwidth != 16:  # the frontend emits 16-bit features only
        raise TruncatedError(f"feature bitwidth {bitwidth} is not 16")
    patches = []
    for _ in range(count):
        vals = cur.array("<i2", h * w * c, np.int16).reshape(h, w, c)
        patches.append(FixedTensor(h, w, c, vals, qformat, bitwidth))
    cur.done()
    return patches, cfg


# ---------------------------------------------------------------------------
# float model archive (.npz) for the quantize command
# ---------------------------------------------------------------------------


def save_float_model(fm: FloatModel, path) -> None:
    arrays = {"meta": np.array(json.dumps({
        "input_shape": list(fm.input_shape),
        "classes": fm.classes,
        "layers": [{"kind": fl.kind, "kernel": list(fl.kernel),
                    "in_channels": fl.in_channels, "out_channels": fl.out_channels,
                    "stride": fl.stride} for fl in fm.layers],
    }))}
    for i, fl in enumerate(fm.layers):
        arrays[f"layer{i}_weights"] = fl.weights
        if fl.bias is not None:
            arrays[f"layer{i}_bias"] = fl.bias
        for name in ("gamma", "beta", "mu", "sigma"):
            value = getattr(fl, name)
            if value is not None:
                arrays[f"layer{i}_{name}"] = value
    np.savez(path, **arrays)


def load_float_model(path) -> FloatModel:
    """Read a save_float_model archive.  Every refusal is an InputFormatError
    that names the file and, past opening it, the member that failed."""
    try:
        f = open(path, "rb")
    except OSError as e:
        raise InputFormatError(f"not a float model archive: {path}: {e}") from e
    with f:
        # The zip and .npy readers report damage with whatever their parsers
        # raise (BadZipFile, NotImplementedError for a zip version, tokenize's
        # TokenError for a .npy header, ValueError, EOFError, ...).
        try:
            archive = np.load(f)
        except Exception as e:
            raise InputFormatError(f"not a float model archive: {path}: {e}") from e
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise InputFormatError(f"not a float model archive: {path} holds a single "
                                   "array, not an .npz archive")

        def grab(key, optional=True):
            if key not in archive:
                if optional:
                    return None
                raise InputFormatError(f"float model archive {path} missing {key}")
            # members are read lazily, so a damaged one fails here: a bad
            # CRC, a bad .npy header or data shorter than the header declares
            try:
                return archive[key]
            except Exception as e:
                raise InputFormatError(
                    f"not a float model archive: {path}: member {key}: {e}") from e

        try:
            meta = json.loads(str(grab("meta", optional=False)))
            layers = tuple(
                FloatLayer(row["kind"], tuple(row["kernel"]), row["in_channels"],
                           row["out_channels"], row["stride"],
                           grab(f"layer{i}_weights", optional=False),
                           *(grab(f"layer{i}_{name}")
                             for name in ("bias", "gamma", "beta", "mu", "sigma")))
                for i, row in enumerate(meta["layers"]))
            return FloatModel(layers, tuple(meta["input_shape"]), meta["classes"])
        except (KeyError, TypeError, ValueError) as e:  # meta lacks an entry or is not JSON
            raise InputFormatError(
                f"not a float model archive: {path}: bad meta entry {e}") from e
