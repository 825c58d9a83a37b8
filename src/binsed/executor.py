"""Network descriptors and end-to-end execution.  There is one executor:
tiles along the time axis, each extended by a derived halo so every plan is
bit-exact, with threads running over tiles only.  Monolithic execution is
the plan with one tile per worker.  Each (network, tile plan) prepares its
layer steps once, on its first run, and every later run reuses them (see
_Prepared); tiles run on one persistent pool per worker count.  Also MAC
accounting and memory footprint reporting; the timing report lives in
timing.py.
"""

from __future__ import annotations

import itertools
import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .kernels import (
    BnFold,
    ColRegion,
    FixedConvParams,
    conv2d_binary_threshold,
    conv2d_fixed,
    conv2d_fixed_sign,
    global_avg_pool,
    predict,
    prepare_binary_conv,
    prepare_fixed_conv,
    resolve_popcount_name,
    same_pad,
)
from .tensors import FixedTensor, PackedBinaryWeights, words_per_pixel

log = logging.getLogger(__name__)

FIXED_CONV = "fixed_conv"
BINARY_CONV = "binary_conv"
FINAL_CONV = "final_conv"

# Reference 7-layer topology: (kind, ky, kx, out_channels, stride).
REFERENCE_TABLE = (
    (FIXED_CONV, 3, 3, 32, 1),
    (BINARY_CONV, 3, 3, 64, 2),
    (BINARY_CONV, 3, 3, 128, 1),
    (BINARY_CONV, 3, 3, 128, 2),
    (BINARY_CONV, 3, 3, 128, 1),
    (BINARY_CONV, 1, 1, 128, 1),
    (FINAL_CONV, 1, 1, 28, 1),
)
REFERENCE_INPUT_SHAPE = (64, 400, 1)
REFERENCE_CLASSES = 28

# Per-layer MAC budget published for the reference firmware (millions), used
# only to report deltas next to this artifact's own counts.
PUBLISHED_MACS = (7e6, 109e6, 405e6, 186e6, 154e6, 17e6, 6e6)
PUBLISHED_TOTAL_MACS = 884e6


@dataclass(frozen=True)
class LayerSpec:
    """One layer: descriptor plus its quantized parameters."""

    kind: str
    kernel: tuple[int, int]
    in_channels: int
    out_channels: int
    stride: int
    fixed: FixedConvParams | None = None
    weights: PackedBinaryWeights | None = None
    fold: BnFold | None = None

    def __post_init__(self):
        if self.kind not in (FIXED_CONV, BINARY_CONV, FINAL_CONV):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {self.stride}")
        if self.kind == BINARY_CONV:
            if self.weights is None or self.fold is None:
                raise ValueError("binary layer needs packed weights and a fold")
            w = self.weights
            if (w.out_channels, w.in_channels, (w.ky, w.kx)) != \
                    (self.out_channels, self.in_channels, self.kernel):
                raise ValueError("packed weights do not match layer descriptor")
        else:
            if self.fixed is None:
                raise ValueError(f"{self.kind} layer needs fixed-point parameters")
            p = self.fixed
            if (p.out_channels, p.in_channels, p.kernel) != \
                    (self.out_channels, self.in_channels, self.kernel):
                raise ValueError("fixed-point weights do not match layer descriptor")
            if self.kind == FIXED_CONV and self.fold is None:
                raise ValueError("binarizing fixed layer needs a fold")
        if self.fold is not None and self.fold.channels != self.out_channels:
            raise ValueError("fold channel count does not match layer")

    @property
    def name(self) -> str:
        return {FIXED_CONV: "First Layer", BINARY_CONV: "Bin Layer",
                FINAL_CONV: "Last Layer"}[self.kind]

    def weight_bytes(self, mode: str = "binary") -> int:
        """Weight storage: packed bits for binary layers, the stored width
        (``FixedConvParams.weight_bits``) for fixed-point ones.

        mode='fixed16' prices binary layers at 2 bytes/weight (the non-binary
        variant of the same topology).
        """
        if self.kind != BINARY_CONV:
            return self.fixed.weights.size * self.fixed.weight_bits // 8
        ky, kx = self.kernel
        if mode == "binary":
            return self.out_channels * ky * kx * words_per_pixel(self.in_channels) * 4
        return self.out_channels * ky * kx * self.in_channels * 2

    def bookkeeping_bytes(self) -> int:
        """Thresholds (4 B/channel, polarity rides in the word) and biases."""
        total = 0
        if self.fold is not None:
            total += 4 * self.out_channels
        if self.fixed is not None:
            total += 4 * self.out_channels
        return total


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered layers plus input contract."""

    layers: tuple[LayerSpec, ...]
    input_shape: tuple[int, int, int] = REFERENCE_INPUT_SHAPE
    input_qformat: int = 10
    classes: int = REFERENCE_CLASSES

    def __post_init__(self):
        # the only order the executor runs: features in, bits between, scores out
        kinds = [layer.kind for layer in self.layers]
        if len(kinds) < 2 or kinds[0] != FIXED_CONV or kinds[-1] != FINAL_CONV \
                or any(kind != BINARY_CONV for kind in kinds[1:-1]):
            raise ValueError(f"layer kinds must run {FIXED_CONV}, any number of "
                             f"{BINARY_CONV}, then {FINAL_CONV}; got {', '.join(kinds)}")
        # A fixed layer's bias sits at accumulator scale: its input qformat (the
        # network's for the first layer, 0 for the +-1 bits the final conv
        # reads) plus its weights'.
        c, q = self.input_shape[2], self.input_qformat
        for i, layer in enumerate(self.layers):
            p = layer.fixed
            if p is not None and p.bias_qformat != q + p.weights_qformat:
                raise ValueError(f"layer {i}: bias_qformat {p.bias_qformat} is not the input "
                                 f"qformat {q} plus weights_qformat {p.weights_qformat}")
            if layer.in_channels != c:
                raise ValueError(
                    f"layer {i} expects {layer.in_channels} input channels, gets {c}")
            c, q = layer.out_channels, 0
        if c != self.classes:
            raise ValueError(f"final layer emits {c} channels, expected {self.classes} classes")

    def shape_chain(self) -> list[tuple[int, int, int]]:
        """[input shape, shape after layer 0, ...] under same padding."""
        h, w, c = self.input_shape
        chain = [(h, w, c)]
        for layer in self.layers:
            h = -(-h // layer.stride)
            w = -(-w // layer.stride)
            chain.append((h, w, layer.out_channels))
        return chain

    def layer_names(self) -> list[str]:
        names = []
        bin_index = 0
        for layer in self.layers:
            if layer.kind == BINARY_CONV:
                bin_index += 1
                names.append(f"{bin_index}. Bin Layer")
            else:
                names.append(layer.name)
        return names


def is_reference_topology(net: NetworkSpec) -> bool:
    if net.input_shape != REFERENCE_INPUT_SHAPE or len(net.layers) != len(REFERENCE_TABLE):
        return False
    for layer, (kind, ky, kx, out_c, stride) in zip(net.layers, REFERENCE_TABLE):
        if (layer.kind, layer.kernel, layer.out_channels, layer.stride) != \
                (kind, (ky, kx), out_c, stride):
            return False
    return True


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InferenceResult:
    """Division-free class scores: integer sums over the final feature map."""

    scores: np.ndarray  # int64 [classes]
    divisor: int
    prediction: int
    score_qformat: int

    def real_scores(self) -> np.ndarray:
        return self.scores * 2.0 ** (-self.score_qformat) / self.divisor


def run_layer(layer: LayerSpec, x, region: ColRegion | None, step=None):
    """One layer as inference runs it, over the columns region names (the
    whole map when None).  ``step`` is the layer's prepare_layer step for
    this input shape and region, or None to build it in the call."""
    # A binarizing layer's only output is bits, so its threshold runs fused
    # into the conv's own accumulation blocks.
    if layer.kind == FIXED_CONV:
        return conv2d_fixed_sign(x, layer.fixed, layer.fold, layer.stride, region,
                                 prepared=step)
    if layer.kind == BINARY_CONV:
        return conv2d_binary_threshold(x, layer.weights, layer.fold, layer.stride, region,
                                       prepared=step)
    # final layer: reads the +-1 activations from their words, at qformat 0
    return conv2d_fixed(x, layer.fixed, layer.stride, region, prepared=step)


def prepare_layer(layer: LayerSpec, x, region: ColRegion | None):
    """The step run_layer reuses for inputs shaped like x over region: the
    layer's checks and tables, none of which depend on x's values."""
    if layer.kind == FIXED_CONV:
        return prepare_fixed_conv(x.shape, x.qformat, layer.fixed, layer.stride, region,
                                  layer.fold)
    if layer.kind == BINARY_CONV:
        return prepare_binary_conv(x.shape, layer.weights, layer.stride, region,
                                   fold=layer.fold)
    return prepare_fixed_conv(x.shape, 0, layer.fixed, layer.stride, region, bits=True)


def check_input(x: FixedTensor, net: NetworkSpec) -> None:
    """Refuse a feature patch whose shape or qformat is not the network's input."""
    if x.shape != net.input_shape:
        raise ShapeMismatchError(
            f"input shape {x.shape} does not match network input {net.input_shape}")
    if x.qformat != net.input_qformat:
        raise ShapeMismatchError(
            f"input qformat {x.qformat} does not match network input qformat "
            f"{net.input_qformat}")


def _cpus() -> tuple[int, ...] | None:
    """The CPUs this process may run on, where the platform can tell."""
    if hasattr(os, "sched_getaffinity"):
        return tuple(sorted(os.sched_getaffinity(0)))
    return None


def _workers(threads: int) -> int:
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    # oversubscribing the CPUs this process may use only adds contention
    cpus = _cpus()
    return min(threads, len(cpus) if cpus is not None else os.cpu_count() or 1)


def _pin_worker(cpus) -> None:
    """Tile-pool initializer: pin the calling thread to the next CPU of cpus.

    Two workers that the scheduler starts on one CPU can stay there for a
    whole run and take twice as long as one; a pinned worker cannot.
    """
    try:
        os.sched_setaffinity(0, {next(cpus)})
    except OSError:  # the CPU left the set since it was read; run unpinned
        pass


# One persistent tile pool per worker count, with the CPU set its threads
# were pinned over.
_pools: dict[int, tuple[tuple[int, ...] | None, ThreadPoolExecutor]] = {}
_pools_lock = threading.Lock()


def _forget_pools() -> None:
    # A forked child inherits the pools but none of their threads, and the
    # lock perhaps held; it starts with neither.
    global _pools_lock
    _pools.clear()
    _pools_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pools)


def _tile_pool(workers: int) -> ThreadPoolExecutor:
    """The persistent pool of ``workers`` tile threads.  Each thread is pinned
    to its own CPU of the caller's affinity set, where the platform can pin
    threads; a pool whose set has changed since is replaced."""
    cpus = _cpus()
    with _pools_lock:
        held = _pools.get(workers)
        if held is not None and held[0] == cpus:
            return held[1]
        pinning = {}
        if cpus is not None and hasattr(os, "sched_setaffinity"):
            pinning = {"initializer": _pin_worker, "initargs": (itertools.cycle(cpus),)}
        pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="binsed-tile",
                                  **pinning)
        _pools[workers] = cpus, pool
    if held is not None:
        held[1].shutdown(wait=False)
    return pool


# ---------------------------------------------------------------------------
# tiling
# ---------------------------------------------------------------------------


def receptive_field_halo(net: NetworkSpec) -> int:
    """Cumulative receptive-field extension along the time axis.

    Sum over conv layers of (k-1) * jump, where jump is the product of the
    strides of all earlier layers.  This equals the overlap two adjacent tile
    input ranges need for the tiled run to be bit-exact.
    """
    halo = 0
    jump = 1
    for layer in net.layers:
        halo += (layer.kernel[1] - 1) * jump
        jump *= layer.stride
    return halo


@dataclass(frozen=True)
class TilePlan:
    """Column tiling along the time axis; the mel axis is never split."""

    tile_count: int
    halo: int
    out_ranges: tuple[tuple[int, int], ...]  # final-feature-map columns per tile
    in_ranges: tuple[tuple[int, int], ...]  # input columns per tile (with halo)


def plan_tiles(net: NetworkSpec, tile_count: int) -> TilePlan:
    """Balance output columns over tiles and extend each input range by halo/2.

    The halo is derived from the receptive field; with odd kernels adjacent
    input ranges then overlap by exactly halo pixels (away from the image
    edges).  An even kernel's odd pad pixel sits on the right, so each range
    is also widened to the exact interval its output columns need.
    """
    chain = net.shape_chain()
    final_w = chain[-1][1]
    input_w = chain[0][1]
    if not (1 <= tile_count <= final_w):
        raise ValueError(f"tile count must be in [1, {final_w}], got {tile_count}")
    halo = receptive_field_halo(net)
    jump = 1
    for layer in net.layers:
        jump *= layer.stride

    base, extra = divmod(final_w, tile_count)
    out_ranges = []
    lo = 0
    for t in range(tile_count):
        hi = lo + base + (1 if t < extra else 0)
        out_ranges.append((lo, hi))
        lo = hi
    in_ranges = []
    for olo, ohi in out_ranges:
        need_lo, need_hi = _backward_intervals(net, olo, ohi)[0]
        in_ranges.append((min(need_lo, max(0, olo * jump - halo // 2)),
                          max(need_hi, min(input_w, ohi * jump + (halo + 1) // 2))))
    return TilePlan(tile_count, halo, tuple(out_ranges), tuple(in_ranges))


def _backward_intervals(net: NetworkSpec, out_lo: int, out_hi: int) -> list[tuple[int, int]]:
    """Column interval each layer boundary must cover to produce final columns
    [out_lo, out_hi), clamped to the valid width at every boundary."""
    widths = [s[1] for s in net.shape_chain()]
    intervals = [(out_lo, out_hi)]
    lo, hi = out_lo, out_hi
    for l in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[l]
        kx, s = layer.kernel[1], layer.stride
        _, pl, _ = same_pad(widths[l], kx, s)
        lo = lo * s - pl
        hi = (hi - 1) * s - pl + kx
        lo = max(0, lo)
        hi = min(widths[l], hi)
        intervals.append((lo, hi))
    intervals.reverse()
    return intervals


# Tile plans whose steps a network keeps; the oldest is dropped first.
PLANS_KEPT = 8


def _layer_params(layer: LayerSpec) -> tuple:
    return layer.fixed, layer.weights, layer.fold


class _Prepared:
    """A network's prepared layer steps, kept on the network object itself.

    ``tiles`` maps each tile plan run so far (at most PLANS_KEPT) to its
    tiles, each a list of [layer, region, step] per layer, and ``plans``
    maps each worker count to run_monolithic's plan.  The steps hold the
    layers and parameter objects they were built from, and _prepared uses
    them only while the network's layers, their parameter objects (by
    identity), its input contract and the popcount backend are still those;
    otherwise it puts a new, empty cache on the network.  A shallow copy of
    a network shares its cache only until either is given other layers.
    """

    __slots__ = ("layers", "params", "contract", "popcount", "plans", "tiles")

    def __init__(self, net: NetworkSpec):
        self.layers = net.layers
        self.params = [_layer_params(layer) for layer in net.layers]
        self.contract = net.input_shape, net.input_qformat
        self.popcount = resolve_popcount_name()
        self.plans: dict[int, TilePlan] = {}
        self.tiles: dict[TilePlan, list] = {}

    def current(self, net: NetworkSpec) -> bool:
        return (net.layers is self.layers and self.popcount == resolve_popcount_name()
                and (net.input_shape, net.input_qformat) == self.contract
                and all(a is b for layer, held in zip(net.layers, self.params)
                        for a, b in zip(_layer_params(layer), held)))

    def keep(self, plan: TilePlan, tiles: list) -> None:
        if len(self.tiles) >= PLANS_KEPT:
            self.tiles.pop(next(iter(self.tiles)), None)
        self.tiles[plan] = tiles


def _prepared(net: NetworkSpec) -> _Prepared:
    cache = vars(net).get("_prepared")
    if cache is None or not cache.current(net):
        cache = _Prepared(net)
        object.__setattr__(net, "_prepared", cache)
    return cache


def _plan_regions(net: NetworkSpec, plan: TilePlan) -> list:
    """Check a plan against the network and lay out its tiles: per tile, a
    [layer, region, None] entry per layer, the step still to be prepared."""
    chain = net.shape_chain()
    final_w = chain[-1][1]
    covered = 0
    for olo, ohi in plan.out_ranges:
        if olo != covered or ohi <= olo:
            raise ValueError("tile output ranges must cover every column exactly once")
        covered = ohi
    if covered != final_w:
        raise ValueError(f"tile output ranges cover {covered} columns, expected {final_w}")

    widths = [s[1] for s in chain]
    tiles = []
    for (olo, ohi), (ilo, ihi) in zip(plan.out_ranges, plan.in_ranges):
        intervals = _backward_intervals(net, olo, ohi)
        need_lo, need_hi = intervals[0]
        if need_lo < ilo or need_hi > ihi:
            raise ValueError(
                f"tile halo too small: output columns [{olo},{ohi}) need input "
                f"columns [{need_lo},{need_hi}) but the plan provides [{ilo},{ihi})")
        # The first layer reads its columns straight from the whole input.
        offsets = [0] + [lo for lo, _ in intervals[1:-1]]
        tiles.append([[layer, ColRegion(widths[l], offsets[l], *intervals[l + 1]), None]
                      for l, layer in enumerate(net.layers)])
    return tiles


def _run_tile(x: FixedTensor, tile: list) -> np.ndarray:
    """Run one tile's layers.  A layer whose step is still None has it
    prepared from its input first, and kept in its entry."""
    cur = x
    for i, entry in enumerate(tile):
        layer, region, step = entry
        if step is None:
            step = entry[2] = prepare_layer(layer, cur, region)
            log.debug("L%d step: columns [%d, %d), %d rows per block, %d blocks, "
                      "%d 64-bit words per position, %d B of block buffers",
                      i, region.out_lo, region.out_hi, step.rows, len(step.blocks),
                      step.words_per_position, step.buffer_bytes)
        cur = run_layer(layer, cur, region, step)
    return cur.values


def run_tiled(x: FixedTensor, net: NetworkSpec, plan: TilePlan,
              threads: int = 1) -> InferenceResult:
    """Run the network tile by tile; bit-exact for every plan.

    The first run of a plan on a network checks the plan and prepares each
    tile's layer steps (prepare_layer) as the tile reaches them; the network
    keeps them, and later runs of the plan only run them.  With threads > 1
    the tiles run in parallel on the persistent pool for that many workers,
    each tile single-threaded inside; this is the package's only
    parallelism.  Workers are capped at the CPUs the process may run on, and
    each pool thread is pinned to its own CPU of that set, where the
    platform can pin threads.  Tiles are independent and concatenated in
    plan order, so the result does not depend on scheduling.
    """
    check_input(x, net)
    cache = _prepared(net)
    tiles = cache.tiles.get(plan)
    fresh = tiles is None
    if fresh:
        tiles = _plan_regions(net, plan)

    workers = min(_workers(threads), plan.tile_count)
    log.debug("tile plan: %d tiles, %d workers, halo %d",
              plan.tile_count, workers, plan.halo)
    if workers == 1:
        pieces = [_run_tile(x, tile) for tile in tiles]
    else:
        pool = _tile_pool(workers)
        futures = [pool.submit(_run_tile, x, tile) for tile in tiles]
        wait(futures)  # every tile ends before the call does, also when one raises
        pieces = [f.result() for f in futures]
    if fresh:
        cache.keep(plan, tiles)

    pooled = global_avg_pool(np.concatenate(pieces, axis=1))
    p = net.layers[-1].fixed  # the final conv's input is at qformat 0
    return InferenceResult(pooled.sums, pooled.count, predict(pooled.sums),
                           p.weights_qformat - p.output_shift)


def run_monolithic(x: FixedTensor, net: NetworkSpec, threads: int = 1) -> InferenceResult:
    """Run the whole network as one time-axis tile per worker thread.

    At one thread this is the one-tile plan, the full feature map in one
    pass; with N workers it is the N-tile plan, bit-identical by the halo
    theorem.  The network keeps each worker count's plan, so later runs
    reuse it and its prepared steps.
    """
    workers = _workers(threads)
    cache = _prepared(net)
    plan = cache.plans.get(workers)
    if plan is None:
        final_w = net.shape_chain()[-1][1]
        plan = cache.plans[workers] = plan_tiles(net, min(workers, final_w))
    return run_tiled(x, net, plan, threads)


def tile_working_sets(net: NetworkSpec, plan: TilePlan,
                      weight_mode: str = "binary") -> list[dict]:
    """Per-tile peak working set: activation slabs plus resident weights,
    priced as ``footprint`` prices weight_mode.

    Weights are double-buffered: the next layer's weights are priced as
    resident while the current layer runs (the loading overlaps compute).
    """
    chain = net.shape_chain()
    heights = [s[0] for s in chain]
    reports = []
    for olo, ohi in plan.out_ranges:
        intervals = _backward_intervals(net, olo, ohi)
        peak = 0
        peak_layer = 0
        for l, layer in enumerate(net.layers):
            in_w = intervals[l][1] - intervals[l][0]
            out_w = intervals[l + 1][1] - intervals[l + 1][0]
            in_bytes = _boundary_bytes(net, l, heights[l], in_w, weight_mode)
            out_bytes = _boundary_bytes(net, l + 1, heights[l + 1], out_w, weight_mode)
            wbytes = layer.weight_bytes(weight_mode) + layer.bookkeeping_bytes()
            if l + 1 < len(net.layers):
                nxt = net.layers[l + 1]
                wbytes += nxt.weight_bytes(weight_mode) + nxt.bookkeeping_bytes()
            total = in_bytes + out_bytes + wbytes
            if total > peak:
                peak, peak_layer = total, l
        reports.append({"out_columns": (olo, ohi), "peak_bytes": peak,
                        "peak_layer": peak_layer})
    return reports


def _boundary_bytes(net: NetworkSpec, boundary: int, h: int, w: int, mode: str) -> int:
    """Nominal storage for the activation map at a layer boundary."""
    if boundary == 0:
        c = net.input_shape[2]
        return h * w * c * 2  # int16 features
    layer = net.layers[boundary - 1]
    if mode == "binary" and layer.fold is not None:
        return h * w * words_per_pixel(layer.out_channels) * 4  # packed bits
    if mode == "binary" and layer.kind == FINAL_CONV:
        return h * w * layer.out_channels * 4  # int32 class map
    return h * w * layer.out_channels * 2  # dense int16


# ---------------------------------------------------------------------------
# MAC accounting
# ---------------------------------------------------------------------------


def _valid_chain(net: NetworkSpec) -> list[tuple[int, int]]:
    """Spatial sizes under no-padding (valid) convolution, layer by layer."""
    h, w, _ = net.input_shape
    chain = [(h, w)]
    for layer in net.layers:
        ky, kx = layer.kernel
        h = (h - ky) // layer.stride + 1 if h >= ky else 0
        w = (w - kx) // layer.stride + 1 if w >= kx else 0
        chain.append((h, w))
    return chain


def count_macs(net: NetworkSpec) -> dict:
    """Per-layer MAC counts under both counting conventions.

    'same_pad' prices what this engine executes (every output position pays
    the full kernel).  'valid' prices only positions where the kernel fits
    entirely inside the map; the published per-layer budget follows this
    convention, so deltas are reported against both.
    """
    chain = net.shape_chain()
    valid = _valid_chain(net)
    names = net.layer_names()
    reference = is_reference_topology(net)
    rows = []
    total_same = 0
    total_valid = 0
    for i, layer in enumerate(net.layers):
        ky, kx = layer.kernel
        oh, ow, _ = chain[i + 1]
        vh, vw = valid[i + 1]
        macs_same = oh * ow * layer.out_channels * ky * kx * layer.in_channels
        macs_valid = vh * vw * layer.out_channels * ky * kx * layer.in_channels
        published = PUBLISHED_MACS[i] if reference else None
        rows.append({
            "name": names[i],
            "kind": layer.kind,
            "kernel": layer.kernel,
            "stride": layer.stride,
            "in_channels": layer.in_channels,
            "out_channels": layer.out_channels,
            "macs_same_pad": macs_same,
            "macs_valid": macs_valid,
            "macs_published": published,
            "delta_same_pad_pct": None if published is None
            else 100.0 * (macs_same - published) / published,
            "delta_valid_pct": None if published is None
            else 100.0 * (macs_valid - published) / published,
        })
        total_same += macs_same
        total_valid += macs_valid
    return {
        "layers": rows,
        "total_same_pad": total_same,
        "total_valid": total_valid,
        "total_published": PUBLISHED_TOTAL_MACS if reference else None,
        "total_delta_same_pad_pct": None if not reference
        else 100.0 * (total_same - PUBLISHED_TOTAL_MACS) / PUBLISHED_TOTAL_MACS,
        "total_delta_valid_pct": None if not reference
        else 100.0 * (total_valid - PUBLISHED_TOTAL_MACS) / PUBLISHED_TOTAL_MACS,
    }


# ---------------------------------------------------------------------------
# memory footprint
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemoryBudget:
    l1_bytes: int = 65536
    l2_bytes: int = 524288


def footprint(net: NetworkSpec, budget: MemoryBudget | None = None,
              plan: TilePlan | None = None, weight_mode: str = "binary") -> dict:
    """Weight, bookkeeping, and activation storage, with budget verdicts.

    weight_mode='fixed16' prices the non-binary 16-bit variant of the same
    topology (dense int16 weights and activations) for comparison.
    """
    if weight_mode not in ("binary", "fixed16"):
        raise ValueError(f"unknown weight mode {weight_mode!r}")
    budget = budget or MemoryBudget()
    chain = net.shape_chain()

    rows = []
    weight_bytes = 0
    bookkeeping = 0
    names = net.layer_names()
    for i, layer in enumerate(net.layers):
        wb = layer.weight_bytes(weight_mode)
        kb = layer.bookkeeping_bytes()
        rows.append({"name": names[i], "weight_bytes": wb, "bookkeeping_bytes": kb})
        weight_bytes += wb
        bookkeeping += kb

    boundary = [
        _boundary_bytes(net, b, h, w, weight_mode)
        for b, (h, w, _) in enumerate(chain)
    ]
    act_peak = max(boundary[l] + boundary[l + 1] for l in range(len(net.layers)))

    result = {
        "layers": rows,
        "weight_bytes": weight_bytes,
        "bookkeeping_bytes": bookkeeping,
        "weight_total_bytes": weight_bytes + bookkeeping,
        "activation_peak_bytes": act_peak,
        "total_bytes": weight_bytes + bookkeeping + act_peak,
        "l2_budget_bytes": budget.l2_bytes,
        "fits_l2": weight_bytes + bookkeeping + act_peak <= budget.l2_bytes,
        "weight_mode": weight_mode,
    }
    if plan is not None:
        tiles = tile_working_sets(net, plan, weight_mode)
        tile_peak = max(t["peak_bytes"] for t in tiles)
        result["tiles"] = tiles
        result["tile_peak_bytes"] = tile_peak
        result["l1_budget_bytes"] = budget.l1_bytes
        result["fits_l1"] = tile_peak <= budget.l1_bytes
    return result


def l1_tile_count(net: NetworkSpec, budget: MemoryBudget | None = None) -> int:
    """Smallest tile count whose per-tile working set fits the L1 budget, or
    one tile per final column when none does."""
    final_w = net.shape_chain()[-1][1]
    for tiles in range(1, final_w + 1):
        if footprint(net, budget, plan_tiles(net, tiles))["fits_l1"]:
            return tiles
    return final_w
