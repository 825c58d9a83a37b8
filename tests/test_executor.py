import copy
import dataclasses
import json
import logging
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

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
    prepare_layer,
    run_layer,
)
from binsed import executor, kernels
from binsed.kernels import BLOCK_BYTES, BnFold, rounding_shift
from binsed.model_io import gen_random_float_model, quantize_model
from binsed.oracle import reference_network_run
from binsed.tensors import FixedTensor, pack_weights, words_per_pixel
from tests.conftest import (
    binary_first_layers,
    random_mel_input,
    small_topologies,
    traced_peak,
    with_fixed_fields,
    with_layers,
    with_output_shift,
)

ROOT = Path(__file__).resolve().parent.parent


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


@pytest.mark.parametrize("layer_index, input_qformat", [(0, 10), (6, 0)])
def test_bias_qformat_chain_rejected(reference_model, layer_index, input_qformat):
    net = reference_model.network
    layers = list(net.layers)
    p = layers[layer_index].fixed
    layers[layer_index] = dataclasses.replace(
        layers[layer_index], fixed=dataclasses.replace(p, bias_qformat=p.bias_qformat + 1))
    with pytest.raises(ValueError, match=rf"layer {layer_index}: bias_qformat "
                                         rf"{p.bias_qformat + 1} is not the input qformat "
                                         rf"{input_qformat} plus weights_qformat "):
        dataclasses.replace(net, layers=tuple(layers))


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


@pytest.mark.parametrize("tiles, threads", [(1, 1), (2, 2)])
def test_inference_peak_memory(reference_model, tiles, threads):
    # Every layer reads and writes packed bits (the final conv reads its
    # input's words block by block), so a running tile holds at most one
    # layer's block buffers (a fixed conv's whole block within BLOCK_BYTES,
    # or a binary conv's xor block with its popcount and sum blocks, an
    # eighth and a quarter more), its largest packed map three times over
    # (input, slab and output) and small change.  All tiles may peak at once.
    net = reference_model.network
    x = random_mel_input(np.random.default_rng(15))
    plan = plan_tiles(net, tiles)
    chain = net.shape_chain()
    bound = 256 * 1024
    for olo, ohi in plan.out_ranges:
        intervals = _backward_intervals(net, olo, ohi)
        packed = max(chain[l][0] * (hi - lo) * words_per_pixel(chain[l][2]) * 4
                     for l, (lo, hi) in enumerate(intervals[1:-1], 1))
        bound += BLOCK_BYTES * 11 // 8 + 3 * packed
    if tiles == 1:
        peak = traced_peak(lambda: run_monolithic(x, net, threads=1))
        # One thread peaks within one layer: the block buffers its step
        # reports, its input and slab, its output and small change.
        layer_bounds, cur = [], x
        for layer in net.layers:
            step = prepare_layer(layer, cur, None)
            out = run_layer(layer, cur, None, step)
            maps = [t.words if hasattr(t, "words") else t.values for t in (cur, out)]
            layer_bounds.append(step.buffer_bytes + 2 * maps[0].nbytes + maps[1].nbytes)
            cur = out
        assert peak < max(layer_bounds) + 128 * 1024, \
            f"peak {peak:,} B, layer bounds {layer_bounds}"
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


def test_tile_workers_keep_bufsize(reference_model, monkeypatch):
    # Each binary layer scopes a small ufunc buffer to its xors; in every
    # tile worker the buffer size after the layer must be what it was before.
    seen = []
    conv = executor.conv2d_binary_threshold

    def spy(*args, **kwargs):
        before = np.getbufsize()
        out = conv(*args, **kwargs)
        seen.append((threading.get_ident(), before, np.getbufsize()))
        return out

    monkeypatch.setattr(executor, "conv2d_binary_threshold", spy)
    monkeypatch.setattr(executor, "_workers", lambda threads: threads)  # 2 even on 1 CPU
    net = reference_model.network
    run_tiled(random_mel_input(np.random.default_rng(18)), net, plan_tiles(net, 4), 2)
    assert len(seen) == 4 * 5
    assert all(before == after for _, before, after in seen)
    assert threading.get_ident() not in {ident for ident, _, _ in seen}


def test_tile_workers_reuse_one_pool(reference_model, monkeypatch):
    # Tiles run on one persistent pool per worker count: two threaded runs
    # share its two worker threads.
    workers = []
    conv = executor.conv2d_binary_threshold

    def spy(*args, **kwargs):
        workers.append(threading.current_thread())
        return conv(*args, **kwargs)

    monkeypatch.setattr(executor, "conv2d_binary_threshold", spy)
    monkeypatch.setattr(executor, "_workers", lambda threads: threads)  # 2 even on 1 CPU
    net = reference_model.network
    x = random_mel_input(np.random.default_rng(19))
    plan = plan_tiles(net, 4)
    run_tiled(x, net, plan, 2)
    run_tiled(x, net, plan, 2)
    assert len(workers) == 2 * 4 * 5
    assert len(set(workers)) <= 2 and len({t.ident for t in workers}) <= 2
    assert threading.current_thread() not in workers


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_forked_child_runs_threaded(reference_model, monkeypatch):
    # A child forked after a threaded run inherits the pool objects but none
    # of their threads; it must build its own pool rather than wait forever.
    monkeypatch.setattr(executor, "_workers", lambda threads: threads)
    net = reference_model.network
    x = random_mel_input(np.random.default_rng(20))
    plan = plan_tiles(net, 4)
    want = run_tiled(x, net, plan, 2).scores
    pid = os.fork()
    if pid == 0:  # the child: never return into the test runner
        code = 1
        try:
            code = 0 if (run_tiled(x, net, plan, 2).scores == want).all() else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("forked child did not finish its threaded run in 60 s")
        time.sleep(0.05)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def test_process_exits_after_threaded_run():
    # The persistent pool's idle threads must not hold the interpreter open.
    script = (
        "import time\n"
        "import numpy as np\n"
        "from binsed import executor, gen_random_float_model, plan_tiles, quantize_model, run_tiled\n"
        "from binsed.tensors import FixedTensor\n"
        "executor._workers = lambda threads: threads\n"
        "net = quantize_model(gen_random_float_model(1, table=(('fixed_conv', 3, 3, 16, 1), "
        "('binary_conv', 3, 3, 16, 1), ('final_conv', 1, 1, 4, 1)), "
        "input_shape=(3, 20, 1), classes=4)).network\n"
        "x = FixedTensor(3, 20, 1, np.ones((3, 20, 1), dtype=np.int32), net.input_qformat, 16)\n"
        "run_tiled(x, net, plan_tiles(net, 4), 2)\n"
        "print(time.time(), flush=True)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    ended = time.time()
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert ended - float(proc.stdout.split()[-1]) < 10


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity set")
def test_workers_capped_at_affinity(reference_model, monkeypatch, caplog):
    # Under one allowed CPU, eight threads ask for one tile on one worker,
    # whatever os.cpu_count() says.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    caplog.set_level(logging.DEBUG, logger="binsed.executor")
    net = reference_model.network
    x = random_mel_input(np.random.default_rng(21))
    res = run_monolithic(x, net, threads=8)
    plans = [r.getMessage() for r in caplog.records if "tile plan" in r.getMessage()]
    assert plans == ["tile plan: 1 tiles, 1 workers, halo 20"]
    assert (res.scores == run_tiled(x, net, plan_tiles(net, 2)).scores).all()


def _count_prepares(monkeypatch) -> list:
    calls = []
    for module in (executor, kernels):
        for name in ("prepare_fixed_conv", "prepare_binary_conv"):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return calls


def test_repeat_runs_prepare_nothing(reference_model, monkeypatch):
    net = dataclasses.replace(reference_model.network)  # the same layers, no steps yet
    x = random_mel_input(np.random.default_rng(22))
    plan = plan_tiles(net, 4)
    calls = _count_prepares(monkeypatch)
    runs = (lambda: run_tiled(x, net, plan, 2), lambda: run_tiled(x, net, plan, 1),
            lambda: run_monolithic(x, net, 2), lambda: run_monolithic(x, net, 1))
    first = [run().scores for run in runs]
    assert calls
    calls.clear()
    again = [run().scores for run in runs]
    assert calls == []
    assert all((a == b).all() for a, b in zip(first, again))


def test_steps_kept_once_per_plan(reference_model):
    net = dataclasses.replace(reference_model.network)
    x = random_mel_input(np.random.default_rng(23))
    for _ in range(2):
        for tiles in (1, 2, 4):
            run_tiled(x, net, plan_tiles(net, tiles))  # an equal plan, built anew
        run_monolithic(x, net, threads=1)
    assert len(executor._prepared(net).tiles) == 3
    # a network run over more plans keeps only the latest PLANS_KEPT
    table = ((FIXED_CONV, 3, 3, 16, 1), (BINARY_CONV, 3, 3, 16, 1), (FINAL_CONV, 1, 1, 4, 1))
    small = quantize_model(gen_random_float_model(
        1, table=table, input_shape=(3, 20, 1), classes=4)).network
    xs = FixedTensor(3, 20, 1, np.ones((3, 20, 1), dtype=np.int32), small.input_qformat, 16)
    for tiles in range(1, 21):
        run_tiled(xs, small, plan_tiles(small, tiles))
    kept = executor._prepared(small).tiles
    assert [p.tile_count for p in kept] == list(range(21 - executor.PLANS_KEPT, 21))


def test_derived_models_get_their_own_results(reference_model):
    # The helpers copy specs shallowly and set fields in place; a network
    # derived after the original has run must not run the original's steps.
    model, net = reference_model, reference_model.network
    x = random_mel_input(np.random.default_rng(24))
    plan = plan_tiles(net, 4)
    runs = (lambda n: run_monolithic(x, n, 1), lambda n: run_monolithic(x, n, 2),
            lambda n: run_tiled(x, n, plan, 2))
    base = [run(net).scores for run in runs]
    layers = list(net.layers)
    flipped = BnFold(-layers[3].fold.polarity, layers[3].fold.threshold)
    layers[3] = dataclasses.replace(layers[3], fold=flipped)
    bias = net.layers[6].fixed.bias + 1000
    for derived in (with_output_shift(model, 6, 3), with_fixed_fields(model, 6, bias=bias),
                    with_layers(model, layers)):
        fresh = copy.deepcopy(derived.network)  # shares no object with the original
        for run, b in zip(runs, base):
            got = run(derived.network).scores
            assert (got == run(fresh).scores).all()
            assert (got != b).any()
    bad = with_output_shift(model, 0, 0).network
    for run in runs:
        with pytest.raises(ValueError, match="exceeds 16-bit range"):
            run(bad)
    assert all((run(net).scores == b).all() for run, b in zip(runs, base))
    # the same layers tuple, one layer given other parameters in place
    own = dataclasses.replace(net, layers=tuple(copy.copy(layer) for layer in net.layers))
    assert all((run(own).scores == b).all() for run, b in zip(runs, base))
    shifted = with_output_shift(model, 6, 3).network
    object.__setattr__(own.layers[6], "fixed", shifted.layers[6].fixed)
    assert all((run(own).scores == run(shifted).scores).all() for run in runs)


def test_prepared_steps_logged_once(reference_model, caplog):
    # one line per step, when it is prepared; later runs prepare nothing
    net = dataclasses.replace(reference_model.network)
    x = random_mel_input(np.random.default_rng(6))
    caplog.set_level(logging.DEBUG, logger="binsed.executor")
    run_monolithic(x, net, threads=1)
    run_monolithic(x, net, threads=1)
    run_tiled(x, net, plan_tiles(net, 2))
    steps = [r.getMessage() for r in caplog.records if " step: " in r.getMessage()]
    assert len(steps) == 3 * len(net.layers)
    assert steps[:2] == [
        "L0 step: columns [0, 400), 7 rows per block, 10 blocks, "
        "9 64-bit words per position, 1008000 B of block buffers",
        "L1 step: columns [0, 200), 10 rows per block, 4 blocks, "
        "5 64-bit words per position, 1424000 B of block buffers"]
    assert steps[7].startswith("L0 step: columns [0, 209), ")


def test_run_logs_its_tile_plan(reference_model, caplog):
    x = random_mel_input(np.random.default_rng(6))
    caplog.set_level(logging.DEBUG, logger="binsed.executor")
    run_monolithic(x, reference_model.network, threads=1)
    run_tiled(x, reference_model.network, plan_tiles(reference_model.network, 4))
    plans = [r.getMessage() for r in caplog.records if "tile plan" in r.getMessage()]
    assert plans == ["tile plan: 1 tiles, 1 workers, halo 20",
                     "tile plan: 4 tiles, 1 workers, halo 20"]


@pytest.mark.parametrize("threads", [0, -5])
def test_threads_below_one_rejected(reference_model, threads):
    x = random_mel_input(np.random.default_rng(7))
    net = reference_model.network
    with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
        run_monolithic(x, net, threads=threads)
    with pytest.raises(ValueError, match=f"threads must be >= 1, got {threads}"):
        run_tiled(x, net, plan_tiles(net, 2), threads=threads)


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
    # the reference topology's 20-column halo narrowed to 18: 9 columns per side
    plan = plan_tiles(reference_model.network, 4)
    narrowed = dataclasses.replace(plan, halo=18, in_ranges=tuple(
        (max(0, olo * 4 - 9), min(400, ohi * 4 + 9)) for olo, ohi in plan.out_ranges))
    with pytest.raises(ValueError, match="halo too small"):
        run_tiled(x, reference_model.network, narrowed)


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
