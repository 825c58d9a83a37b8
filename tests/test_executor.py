import json
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binsed import (
    MemoryBudget,
    bench,
    count_macs,
    footprint,
    gen_random_model,
    is_reference_topology,
    plan_tiles,
    receptive_field_halo,
    run_monolithic,
    run_tiled,
    tile_working_sets,
)
from binsed.errors import ShapeMismatchError
from binsed.executor import (
    BINARY_CONV,
    FINAL_CONV,
    FIXED_CONV,
    LayerSpec,
    NetworkSpec,
    PUBLISHED_TOTAL_MACS,
    REFERENCE_TABLE,
    _backward_intervals,
    l1_tile_count,
)
from binsed import kernels
from binsed.kernels import BLOCK_BYTES, BnFold, rounding_shift
from binsed.model_io import gen_random_float_model, quantize_model
from binsed.oracle import reference_network_run
from binsed.tensors import FixedTensor, pack_weights
from tests.conftest import binary_first_layers, random_mel_input


def test_shape_chain(reference_model):
    chain = reference_model.network.shape_chain()
    assert chain[0] == (64, 400, 1)
    assert chain[1] == (64, 400, 32)
    assert chain[2] == (32, 200, 64)
    assert chain[-1] == (16, 100, 28)


def test_reference_topology_detected(reference_model):
    assert is_reference_topology(reference_model.network)


def test_halo_is_twenty(reference_model):
    assert receptive_field_halo(reference_model.network) == 20


def test_monolithic_deterministic(reference_model, monkeypatch):
    rng = np.random.default_rng(0)
    x = random_mel_input(rng)
    a = run_monolithic(x, reference_model.network)
    b = run_monolithic(x, reference_model.network)
    c = run_monolithic(x, reference_model.network, threads=8)
    # a numpy without np.bitwise_count runs the lookup-table popcount
    monkeypatch.setattr(kernels, "_HAS_NATIVE", False)
    d = run_monolithic(x, reference_model.network)
    assert (a.scores == b.scores).all()
    assert (a.scores == c.scores).all()
    assert (a.scores == d.scores).all()
    assert a.prediction == b.prediction
    assert a.divisor == 1600


def test_input_shape_rejected(reference_model):
    bad = FixedTensor(64, 399, 1, np.zeros((64, 399, 1), dtype=np.int32), 10, 16)
    with pytest.raises(ShapeMismatchError, match="input shape"):
        run_monolithic(bad, reference_model.network)


def test_input_qformat_rejected(reference_model):
    bad = FixedTensor(64, 400, 1, np.zeros((64, 400, 1), dtype=np.int32), 9, 16)
    with pytest.raises(ShapeMismatchError, match="qformat"):
        run_monolithic(bad, reference_model.network)


KIND_ORDER = "layer kinds must run fixed_conv, any number of binary_conv, then final_conv"


def test_binary_first_layer_rejected(reference_model):
    net = reference_model.network
    with pytest.raises(ValueError, match=KIND_ORDER + "; got binary_conv, binary_conv"):
        NetworkSpec(binary_first_layers(reference_model), net.input_shape,
                    net.input_qformat, net.classes)


@pytest.mark.parametrize("table", [
    ((BINARY_CONV, 3, 3, 16, 1), (FINAL_CONV, 1, 1, 4, 1)),
    ((FIXED_CONV, 3, 3, 16, 1), (FIXED_CONV, 3, 3, 16, 1), (FINAL_CONV, 1, 1, 4, 1)),
    ((FIXED_CONV, 3, 3, 16, 1), (FINAL_CONV, 1, 1, 16, 1), (FINAL_CONV, 1, 1, 4, 1)),
    ((FINAL_CONV, 1, 1, 4, 1),),
], ids=["binary_first", "fixed_twice", "final_twice", "final_only"])
def test_layer_kind_order_rejected(table):
    fm = gen_random_float_model(1, table=table, input_shape=(3, 20, 1), classes=4)
    with pytest.raises(ValueError, match=KIND_ORDER):
        quantize_model(fm)


def test_matches_naive_oracle_network():
    rng = np.random.default_rng(1)
    for seed in (1, 2, 3):
        model = gen_random_model(seed)
        x = random_mel_input(rng)
        res = run_monolithic(x, model.network)
        sums, divisor = reference_network_run(model.network, x)
        assert (sums == res.scores).all()
        assert divisor == res.divisor


def test_all_plus_one_weights_closed_form(reference_model):
    """With every binary weight +1 and thresholds at the integer minimum, all
    binary activations saturate to +1 and the scores follow in closed form
    from the final layer alone."""
    layers = []
    always_fire = -(2 ** 31)
    for layer in reference_model.network.layers:
        if layer.kind == "binary_conv":
            ky, kx = layer.kernel
            wts = pack_weights(np.ones((layer.out_channels, ky, kx,
                                        layer.in_channels), dtype=np.int8))
            f = BnFold(np.ones(layer.out_channels, dtype=np.int32),
                       np.full(layer.out_channels, always_fire, dtype=np.int32))
            layers.append(LayerSpec(layer.kind, layer.kernel, layer.in_channels,
                                    layer.out_channels, layer.stride,
                                    weights=wts, fold=f))
        else:
            layers.append(layer)
    net = NetworkSpec(tuple(layers), reference_model.network.input_shape,
                      reference_model.network.input_qformat,
                      reference_model.network.classes)
    rng = np.random.default_rng(2)
    x = random_mel_input(rng)
    res = run_monolithic(x, net)

    last = net.layers[-1].fixed
    per_pixel = rounding_shift(
        last.weights.astype(np.int64).sum(axis=(1, 2, 3)) + last.bias,
        last.output_shift)
    expected = per_pixel * 1600
    assert (res.scores == expected).all()


# ---------------------------------------------------------------------------
# tiling
# ---------------------------------------------------------------------------


def test_plan_structure(reference_model):
    plan = plan_tiles(reference_model.network, 4)
    assert plan.tile_count == 4
    assert plan.halo == 20
    assert plan.out_ranges == ((0, 25), (25, 50), (50, 75), (75, 100))
    # adjacent input ranges overlap by exactly the halo
    for (_, hi), (lo, _) in zip(plan.in_ranges, plan.in_ranges[1:]):
        assert hi - lo == 20


def test_tiled_equals_monolithic(reference_model):
    rng = np.random.default_rng(3)
    x = random_mel_input(rng)
    mono = run_monolithic(x, reference_model.network)
    for tiles in (1, 2, 3, 4):
        plan = plan_tiles(reference_model.network, tiles)
        tiled = run_tiled(x, reference_model.network, plan)
        assert (tiled.scores == mono.scores).all(), f"tiles={tiles}"
        assert tiled.prediction == mono.prediction
    tiled8 = run_tiled(x, reference_model.network,
                       plan_tiles(reference_model.network, 4), threads=8)
    assert (tiled8.scores == mono.scores).all()


@st.composite
def small_topologies(draw):
    """A fixed first layer, 1-3 binary layers and a final conv, on a small
    input; the halo ranges far beyond the reference topology's 20.  Even
    kernels pad one pixel more on the right than on the left."""
    channels = st.integers(16, 70)
    k = draw(st.integers(1, 5))
    table = [(FIXED_CONV, k, k, draw(channels), draw(st.sampled_from((1, 2))))]
    for _ in range(draw(st.integers(1, 3))):
        table.append((BINARY_CONV, draw(st.integers(1, 3)),
                      draw(st.integers(1, 5)), draw(channels),
                      draw(st.sampled_from((1, 2)))))
    classes = draw(st.integers(2, 8))
    table.append((FINAL_CONV, 1, 1, classes, 1))
    shape = (draw(st.integers(3, 11)), 2 * draw(st.integers(4, 39)) + 1, 1)
    return tuple(table), shape, classes, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(small_topologies())
def test_tiling_theorem_over_random_topologies(case):
    table, shape, classes, seed = case
    net = quantize_model(gen_random_float_model(
        seed, table=table, input_shape=shape, classes=classes)).network
    vals = np.random.default_rng(seed).integers(-24000, 16000, shape)
    x = FixedTensor(*shape, vals.astype(np.int32), net.input_qformat, 16)
    sums, divisor = reference_network_run(net, x)
    final_w = net.shape_chain()[-1][1]
    for tiles in sorted({1, 2, 3, final_w} & set(range(1, final_w + 1))):
        for threads in (1, 2):
            res = run_tiled(x, net, plan_tiles(net, tiles), threads)
            assert (res.scores == sums).all() and res.divisor == divisor, \
                f"tiles={tiles} threads={threads} halo={receptive_field_halo(net)}"
    for threads in (1, 2, 8):
        res = run_monolithic(x, net, threads)
        assert (res.scores == sums).all() and res.divisor == divisor, \
            f"monolithic threads={threads}"


def traced_peak(fn) -> int:
    fn()  # warm-up: filterbank, popcount table and BLAS binding
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("tiles, threads", [(1, 1), (2, 2)])
def test_inference_peak_memory(reference_model, tiles, threads):
    # A binarizing layer writes packed bits from its accumulation blocks, so
    # a running tile holds at most one layer's block buffers (two blocks'
    # worth: im2col and product, or xor plus the narrower popcount, sum and
    # bool blocks), the final layer's dense int32 input with its slab and
    # unpack temporaries, and small change.  All tiles may peak at once.
    net = reference_model.network
    x = random_mel_input(np.random.default_rng(15))
    plan = plan_tiles(net, tiles)
    h, _, c = net.shape_chain()[-2]
    bound = 256 * 1024
    for olo, ohi in plan.out_ranges:
        lo, hi = _backward_intervals(net, olo, ohi)[-2]
        bound += 2 * BLOCK_BYTES + 2 * h * (hi - lo) * c * 4
    if tiles == 1:
        peak = traced_peak(lambda: run_monolithic(x, net, threads=1))
    else:
        peak = traced_peak(lambda: run_tiled(x, net, plan, threads))
    assert peak < bound, f"peak {peak:,} B, bound {bound:,} B"


def test_even_kernels_tile_at_any_count():
    # with kx=2 the receptive field reaches two columns right of a tile and
    # none to its left, more than an even split of the halo provides
    table = ((FIXED_CONV, 2, 2, 16, 1), (BINARY_CONV, 2, 2, 16, 1),
             (FINAL_CONV, 1, 1, 4, 1))
    net = quantize_model(gen_random_float_model(
        1, table=table, input_shape=(3, 20, 1), classes=4)).network
    assert plan_tiles(net, 2).in_ranges == ((0, 12), (9, 20))
    vals = np.random.default_rng(1).integers(-24000, 16000, (3, 20, 1))
    x = FixedTensor(3, 20, 1, vals.astype(np.int32), net.input_qformat, 16)
    sums, _ = reference_network_run(net, x)
    for tiles in range(1, 21):
        assert (run_tiled(x, net, plan_tiles(net, tiles), 2).scores == sums).all()
    assert (run_monolithic(x, net, threads=2).scores == sums).all()


def test_run_logs_its_tile_plan(reference_model, caplog):
    x = random_mel_input(np.random.default_rng(6))
    caplog.set_level(logging.DEBUG, logger="binsed.executor")
    run_monolithic(x, reference_model.network, threads=1)
    run_tiled(x, reference_model.network, plan_tiles(reference_model.network, 4))
    plans = [r.getMessage() for r in caplog.records if "tile plan" in r.getMessage()]
    assert plans == ["tile plan: 1 tiles, 1 workers, halo 20",
                     "tile plan: 4 tiles, 1 workers, halo 20"]


def test_l1_tile_count_is_fewest_tiles_that_fit(reference_model):
    net = reference_model.network
    assert l1_tile_count(net) == 6
    assert not footprint(net, plan=plan_tiles(net, 5))["fits_l1"]
    assert footprint(net, plan=plan_tiles(net, 6))["tile_peak_bytes"] == 62720
    # a budget nothing fits falls back to one tile per final column
    assert l1_tile_count(net, MemoryBudget(l1_bytes=1)) == 100


def test_halo_18_rejected(reference_model):
    rng = np.random.default_rng(4)
    x = random_mel_input(rng)
    plan = plan_tiles(reference_model.network, 4, halo=18)
    with pytest.raises(ValueError, match="halo too small"):
        run_tiled(x, reference_model.network, plan)


def test_bad_out_ranges_rejected(reference_model):
    plan = plan_tiles(reference_model.network, 4)
    broken = plan.__class__(plan.tile_count, plan.halo,
                            ((0, 25), (26, 50), (50, 75), (75, 100)),
                            plan.in_ranges)
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError, match="exactly once"):
        run_tiled(random_mel_input(rng), reference_model.network, broken)


def test_tile_working_sets(reference_model):
    plan = plan_tiles(reference_model.network, 4)
    sets = tile_working_sets(reference_model.network, plan)
    assert len(sets) == 4
    for entry in sets:
        assert entry["peak_bytes"] > 0
        assert 0 <= entry["peak_layer"] < 7


# ---------------------------------------------------------------------------
# MAC accounting
# ---------------------------------------------------------------------------


def test_count_macs_same_pad_values(reference_model):
    report = count_macs(reference_model.network)
    same = [r["macs_same_pad"] for r in report["layers"]]
    assert same[0] == 64 * 400 * 32 * 9 * 1  # 7,372,800
    assert same[1] == 32 * 200 * 64 * 9 * 32
    assert same[-1] == 16 * 100 * 28 * 128
    assert report["total_same_pad"] == sum(same)


def test_count_macs_valid_convention_tracks_published(reference_model):
    report = count_macs(reference_model.network)
    published = [7e6, 109e6, 405e6, 186e6, 154e6, 17e6, 6e6]
    for row, pub in zip(report["layers"], published):
        assert row["macs_published"] == pub
        assert row["delta_valid_pct"] is not None
    # the no-padding convention lands within 2% on the five conv-heavy rows
    for row in report["layers"][:6]:
        assert abs(row["delta_valid_pct"]) < 2.0, row["name"]
    assert abs(report["total_valid"] - PUBLISHED_TOTAL_MACS) / PUBLISHED_TOTAL_MACS < 0.01


def test_count_macs_first_layer_within_tolerance(reference_model):
    report = count_macs(reference_model.network)
    first = report["layers"][0]
    assert abs(first["macs_same_pad"] - 7e6) / 7e6 < 0.10
    assert abs(first["macs_valid"] - 7e6) / 7e6 < 0.10


# ---------------------------------------------------------------------------
# memory footprint
# ---------------------------------------------------------------------------


def test_footprint_reference_numbers(reference_model):
    report = footprint(reference_model.network)
    assert report["weight_bytes"] == 58176
    assert report["bookkeeping_bytes"] == 2672
    assert report["fits_l2"]
    assert report["total_bytes"] < 524288


def test_footprint_fixed16_variant(reference_model):
    report = footprint(reference_model.network, weight_mode="fixed16")
    assert report["weight_bytes"] == 814656
    assert not report["fits_l2"]


def test_footprint_with_plan(reference_model):
    plan = plan_tiles(reference_model.network, 4)
    report = footprint(reference_model.network, MemoryBudget(), plan)
    assert report["tile_peak_bytes"] > 0
    assert "fits_l1" in report
    # tiling shrinks the activation working set well below the monolithic peak
    assert report["tile_peak_bytes"] < report["activation_peak_bytes"]


# ---------------------------------------------------------------------------
# benchmark report structure
# ---------------------------------------------------------------------------


def test_bench_structure(reference_model):
    report = bench(reference_model.network, reference_model.frontend,
                   repetitions=1, include_naive=False)
    rows = report.rows
    assert len(rows) == 9  # Mel bins + 7 layers + Total
    assert rows[0]["row"] == "Mel bins" and rows[0]["macs"] is None
    assert rows[-1]["row"] == "Total"
    assert rows[-2]["group"] == "5./6. Layer"
    assert rows[-3]["group"] == "5./6. Layer"
    for row in rows[1:]:
        assert row["macs"] is not None and row["time_s"] > 0
    parsed = [json.loads(line) for line in report.to_json_lines().splitlines()]
    assert parsed[0]["meta"]["repetitions"] == 1
    text = report.to_text()
    assert "Mel bins" in text and "Total" in text


def test_bench_macs_deterministic(reference_model):
    a = bench(reference_model.network, reference_model.frontend, repetitions=1,
              include_naive=False)
    b = bench(reference_model.network, reference_model.frontend, repetitions=1,
              include_naive=False)
    assert [r["macs"] for r in a.rows] == [r["macs"] for r in b.rows]


def test_reference_table_matches_loaded(reference_model):
    for layer, (kind, ky, kx, out_c, stride) in zip(
            reference_model.network.layers, REFERENCE_TABLE):
        assert layer.kind == kind
        assert layer.kernel == (ky, kx)
        assert layer.out_channels == out_c
        assert layer.stride == stride
