import copy
import dataclasses
import gc
import itertools
import json
import logging
import os
import pickle
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
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
from binsed.errors import ShapeMismatchError, WorkerError
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
    # a numpy without np.bitwise_count runs the portable popcount
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
def test_inference_peak_memory(reference_model, tiles, threads, monkeypatch, tmp_path,
                               fresh_workers):
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
    tile_bounds = []
    for olo, ohi in plan.out_ranges:
        intervals = _backward_intervals(net, olo, ohi)
        packed = max(chain[l][0] * (hi - lo) * words_per_pixel(chain[l][2]) * 4
                     for l, (lo, hi) in enumerate(intervals[1:-1], 1))
        tile_bounds.append(BLOCK_BYTES * 11 // 8 + 3 * packed)
    bound += sum(tile_bounds)
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
        # The caller's tracemalloc sees only its own tiles; the worker
        # process measures each of its tiles itself.
        record = _recorder(tmp_path / "peaks")
        run_tile, caller = executor._run_tile, os.getpid()

        def traced_tile(x, tile, *args):
            if os.getpid() == caller:
                return run_tile(x, tile, *args)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = run_tile(x, tile, *args)
                record(tile[-1][1].out_lo, tracemalloc.get_traced_memory()[1] - base)
                return out
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(executor, "_run_tile", traced_tile)
        monkeypatch.setattr(executor, "_workers", lambda threads: threads)  # 2 even on 1 CPU
        peak = traced_peak(lambda: run_tiled(x, net, plan, threads))
        worker_peaks = _records(tmp_path / "peaks")
        assert [out_lo for _, out_lo, _ in worker_peaks] == [plan.out_ranges[1][0]] * 2
        assert all(pid != caller for pid, _, _ in worker_peaks)
        for _, _, tile_peak in worker_peaks:
            assert tile_peak < tile_bounds[1] + 128 * 1024, \
                f"worker tile peak {tile_peak:,} B, bound {tile_bounds[1] + 128 * 1024:,} B"
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


@pytest.fixture
def fresh_workers(monkeypatch):
    """Tile workers forked during the test, from its first threaded run on,
    so they carry its monkeypatches; stopped after it, so that no later
    test runs on them."""
    executor._stop_crews()
    monkeypatch.setattr(executor, "_threaded_runs", itertools.count(1))
    yield
    executor._stop_crews()


def _recorder(path):
    """A function that appends its arguments as one JSON line to path,
    after the pid of whichever process calls it."""
    def record(*fields):
        with open(path, "a") as f:
            f.write(json.dumps([os.getpid(), *fields]) + "\n")
    return record


def _records(path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines()] \
        if path.exists() else []


def _worker_pids(workers: int) -> list[int]:
    return [w.pid for w in executor._crews[workers].workers]


def test_tile_workers_keep_bufsize(reference_model, monkeypatch, tmp_path, fresh_workers):
    # Each binary layer scopes a small ufunc buffer to its xors; in the
    # caller and in the worker process the buffer size after the layer must
    # be what it was before.
    record = _recorder(tmp_path / "calls")
    conv = executor.conv2d_binary_threshold

    def spy(*args, **kwargs):
        before = np.getbufsize()
        out = conv(*args, **kwargs)
        record(before, np.getbufsize())
        return out

    monkeypatch.setattr(executor, "conv2d_binary_threshold", spy)
    monkeypatch.setattr(executor, "_workers", lambda threads: threads)  # 2 even on 1 CPU
    net = reference_model.network
    run_tiled(random_mel_input(np.random.default_rng(18)), net, plan_tiles(net, 4), 2)
    seen = _records(tmp_path / "calls")
    assert all(before == after for _, before, after in seen)
    # tiles 0 and 2 in the caller, 1 and 3 in the one worker, 5 binary layers each
    (worker,) = _worker_pids(2)
    assert Counter(pid for pid, _, _ in seen) == {os.getpid(): 10, worker: 10}


def test_tile_workers_reuse_one_pool(reference_model, monkeypatch, tmp_path, fresh_workers):
    # Tiles run on one persistent set of worker processes per worker count:
    # two runs at two workers share its one worker process.
    record = _recorder(tmp_path / "calls")
    conv = executor.conv2d_binary_threshold

    def spy(*args, **kwargs):
        record()
        return conv(*args, **kwargs)

    monkeypatch.setattr(executor, "conv2d_binary_threshold", spy)
    monkeypatch.setattr(executor, "_workers", lambda threads: threads)  # 2 even on 1 CPU
    net = reference_model.network
    x = random_mel_input(np.random.default_rng(19))
    plan = plan_tiles(net, 4)
    run_tiled(x, net, plan, 2)
    (first,) = _worker_pids(2)
    run_tiled(x, net, plan, 2)
    assert _worker_pids(2) == [first]
    pids = Counter(pid for pid, in _records(tmp_path / "calls"))
    assert pids == {os.getpid(): 2 * 2 * 5, first: 2 * 2 * 5}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity set")
def test_caller_and_worker_pinned(reference_model, monkeypatch, tmp_path, fresh_workers):
    # The caller runs its tiles on the first CPU of its set and gets its own
    # set back after; the worker stays on the next one.
    record = _recorder(tmp_path / "calls")
    run_tile = executor._run_tile

    def spy(x, tile, *args):
        record(sorted(os.sched_getaffinity(0)))
        return run_tile(x, tile, *args)

    monkeypatch.setattr(executor, "_run_tile", spy)
    monkeypatch.setattr(executor, "_workers", lambda threads: threads)  # 2 even on 1 CPU
    net = reference_model.network
    own = sorted(os.sched_getaffinity(0))
    run_tiled(random_mel_input(np.random.default_rng(30)), net, plan_tiles(net, 4), 2)
    assert sorted(os.sched_getaffinity(0)) == own
    (worker,) = _worker_pids(2)
    assert sorted(map(tuple, _records(tmp_path / "calls"))) == \
        [(os.getpid(), [own[0]])] * 2 + [(worker, [own[1 % len(own)]])] * 2


def test_pickled_network_leaves_out_steps(reference_model):
    # a worker learns a network without the caller's prepared steps
    net = dataclasses.replace(reference_model.network)
    x = random_mel_input(np.random.default_rng(31))
    want = run_monolithic(x, net).scores
    assert "_prepared" in vars(net)
    for clone in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
        assert "_prepared" not in vars(clone)
        assert (run_monolithic(x, clone).scores == want).all()


@pytest.mark.skipif(not hasattr(np, "bitwise_count"), reason="one popcount backend only")
def test_workers_use_the_callers_popcount(reference_model, monkeypatch, tmp_path,
                                          fresh_workers):
    # A worker forked under one popcount backend runs the caller's current one.
    record = _recorder(tmp_path / "calls")
    conv = executor.conv2d_binary_threshold

    def spy(x, w, fold, stride, region, popcount=None, **kwargs):
        record(kernels.resolve_popcount_name(popcount))
        return conv(x, w, fold, stride, region, popcount, **kwargs)

    monkeypatch.setattr(executor, "conv2d_binary_threshold", spy)
    monkeypatch.setattr(executor, "_workers", lambda threads: threads)  # 2 even on 1 CPU
    net = reference_model.network
    x = random_mel_input(np.random.default_rng(29))
    plan = plan_tiles(net, 2)
    want = run_tiled(x, net, plan, 2).scores  # forks the worker under the native backend
    (tmp_path / "calls").unlink()
    monkeypatch.setattr(kernels, "_HAS_NATIVE", False)  # in the caller only
    assert (run_tiled(x, net, plan, 2).scores == want).all()
    seen = _records(tmp_path / "calls")
    assert {pid for pid, _ in seen} == {os.getpid(), *_worker_pids(2)}
    assert {backend for _, backend in seen} == {"portable"}


def test_first_threaded_run_forks_nothing(reference_model, monkeypatch):
    # a process that makes one threaded run does not pay for a fork
    executor._stop_crews()
    monkeypatch.setattr(executor, "_threaded_runs", itertools.count())
    monkeypatch.setattr(executor, "_workers", lambda threads: threads)
    net = reference_model.network
    x = random_mel_input(np.random.default_rng(28))
    want = run_tiled(x, net, plan_tiles(net, 4), 1).scores
    assert (run_monolithic(x, net, 2).scores == want).all()
    assert executor._crews == {}
    assert (run_tiled(x, net, plan_tiles(net, 4), 2).scores == want).all()
    assert len(_worker_pids(2)) == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_forked_child_runs_threaded(reference_model, monkeypatch, fresh_workers):
    # A child forked after a threaded run inherits its parent's ends of the
    # worker pipes but not the workers; it must fork its own rather than
    # talk to its parent's or wait forever.
    monkeypatch.setattr(executor, "_workers", lambda threads: threads)
    net = reference_model.network
    x = random_mel_input(np.random.default_rng(20))
    plan = plan_tiles(net, 4)
    want = run_tiled(x, net, plan, 2).scores
    parents = _worker_pids(2)
    pid = os.fork()
    if pid == 0:  # the child: never return into the test runner
        code = 1
        try:
            same = (run_tiled(x, net, plan, 2).scores == want).all()
            mine = _worker_pids(2)
            code = 0 if same and not set(mine) & set(parents) else 1
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
    assert _worker_pids(2) == parents
    assert (run_tiled(x, net, plan, 2).scores == want).all()


def test_process_exits_after_threaded_run():
    # The worker processes must neither hold the interpreter open nor
    # outlive it, nor keep its captured stdout open after it exits.
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
        "for threads in (2, 2, 3):  # the first runs every tile in the caller\n"
        "    run_tiled(x, net, plan_tiles(net, 4), threads)\n"
        "pids = [w.pid for crew in executor._crews.values() for w in crew.workers]\n"
        "print(*pids, time.time(), flush=True)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    ended = time.time()
    assert proc.returncode == 0, proc.stderr[-2000:]
    *pids, printed = proc.stdout.split()
    assert ended - float(printed) < 10
    assert len(pids) == 1 + 2
    for pid in map(int, pids):
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def _within(seconds: float, fn):
    """fn(), or TimeoutError if it has not returned after seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.skipif(not hasattr(os, "waitid"), reason="cannot wait for a worker's death")
def test_killed_worker_is_replaced(reference_model, monkeypatch, fresh_workers):
    # A run that meets a dead worker raises, never hangs, and the next run
    # forks a new one; the dead one is reaped.
    monkeypatch.setattr(executor, "_workers", lambda threads: threads)
    net = reference_model.network
    x = random_mel_input(np.random.default_rng(25))
    plan = plan_tiles(net, 4)
    want = run_tiled(x, net, plan, 1).scores
    run_tiled(x, net, plan, 2)
    (dead,) = _worker_pids(2)
    os.kill(dead, signal.SIGKILL)
    os.waitid(os.P_PID, dead, os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
    with pytest.raises(WorkerError, match=f"tile worker {dead} is gone"):
        _within(30, lambda: run_tiled(x, net, plan, 2))
    with pytest.raises(ChildProcessError):
        os.waitpid(dead, os.WNOHANG)
    assert (_within(30, lambda: run_tiled(x, net, plan, 2)).scores == want).all()
    assert _worker_pids(2) != [dead]


def test_worker_errors_reach_the_caller(reference_model, monkeypatch, fresh_workers):
    # A tile that raises in the worker raises its type and message in the
    # caller, after the run's other tiles end; the worker keeps serving.
    class Unpicklable(Exception):  # a local class does not pickle
        pass

    caller, run_tile = os.getpid(), executor._run_tile
    failure = [ShapeMismatchError("refused in the worker")]

    def failing(x, tile, *args):
        if os.getpid() != caller and failure:
            raise failure[0]
        return run_tile(x, tile, *args)

    monkeypatch.setattr(executor, "_run_tile", failing)
    monkeypatch.setattr(executor, "_workers", lambda threads: threads)
    net = reference_model.network
    x = random_mel_input(np.random.default_rng(26))
    plan = plan_tiles(net, 4)
    with pytest.raises(ShapeMismatchError, match="^refused in the worker$"):
        run_tiled(x, net, plan, 2)
    (worker,) = _worker_pids(2)
    with pytest.raises(ShapeMismatchError, match="^refused in the worker$"):
        run_tiled(x, net, plan, 2)
    assert _worker_pids(2) == [worker]
    # a worker knows the failure it was forked with, so each change gets a new one
    failure[0] = Unpicklable("nor its message")
    executor._stop_crews()
    with pytest.raises(RuntimeError, match="^Unpicklable: nor its message$"):
        run_tiled(x, net, plan, 2)
    failure.clear()
    executor._stop_crews()
    assert (run_tiled(x, net, plan, 2).scores == run_tiled(x, net, plan, 1).scores).all()


def test_tiles_run_in_caller_without_fork(reference_model, monkeypatch, caplog):
    monkeypatch.delattr(os, "fork")
    caplog.set_level(logging.DEBUG, logger="binsed.executor")
    net = reference_model.network
    x = random_mel_input(np.random.default_rng(27))
    plan = plan_tiles(net, 4)
    assert (run_tiled(x, net, plan, 2).scores == run_tiled(x, net, plan, 1).scores).all()
    plans = [r.getMessage() for r in caplog.records if "tile plan" in r.getMessage()]
    assert plans == ["tile plan: 4 tiles, 1 workers, halo 20"] * 2


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


PREPARES = ("prepare_fixed_conv", "prepare_binary_conv", "fixed_conv_table", "binary_conv_table")


def _count_prepares(monkeypatch, path):
    """Record each step prepare and table build, in the caller or a worker,
    to path."""
    record = _recorder(path)
    for module in (executor, kernels):
        for name in PREPARES:
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                record(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)


def test_repeat_runs_prepare_nothing(reference_model, monkeypatch, tmp_path, fresh_workers):
    net = dataclasses.replace(reference_model.network)  # the same layers, no steps yet
    x = random_mel_input(np.random.default_rng(22))
    plan = plan_tiles(net, 4)
    _count_prepares(monkeypatch, tmp_path / "calls")
    monkeypatch.setattr(executor, "_workers", lambda threads: threads)  # 2 even on 1 CPU
    runs = (lambda: run_tiled(x, net, plan, 2), lambda: run_tiled(x, net, plan, 1),
            lambda: run_monolithic(x, net, 2), lambda: run_monolithic(x, net, 1))
    first = [run().scores for run in runs]
    # the caller and the worker each prepared their own tiles' steps
    assert {pid for pid, _ in _records(tmp_path / "calls")} == {os.getpid(), *_worker_pids(2)}
    (tmp_path / "calls").unlink()
    again = [run().scores for run in runs]
    assert _records(tmp_path / "calls") == []
    assert all((a == b).all() for a, b in zip(first, again))


def test_worker_forked_after_a_run_prepares_nothing(reference_model, monkeypatch, tmp_path,
                                                    fresh_workers):
    # A worker forked at the process's second threaded run starts with the
    # caller's tables and the steps of the plan the first run prepared.
    monkeypatch.setattr(executor, "_threaded_runs", itertools.count())
    monkeypatch.setattr(executor, "_workers", lambda threads: threads)  # 2 even on 1 CPU
    net = dataclasses.replace(reference_model.network)
    x = random_mel_input(np.random.default_rng(32))
    plan = plan_tiles(net, 4)
    calls = tmp_path / "calls"
    _count_prepares(monkeypatch, calls)
    want = run_tiled(x, net, plan, 2).scores  # every tile in the caller
    assert executor._crews == {}
    assert Counter(name for _, name in _records(calls)) == {
        "fixed_conv_table": 2, "binary_conv_table": 5,
        "prepare_fixed_conv": 4 * 2, "prepare_binary_conv": 4 * 5}
    calls.unlink()
    assert (run_tiled(x, net, plan, 2).scores == want).all()  # forks the worker
    assert len(_worker_pids(2)) == 1
    assert _records(calls) == []


def test_every_step_holds_its_layers_table(reference_model, monkeypatch, tmp_path,
                                           fresh_workers):
    # One table per layer: every kept step of every tile and plan holds it,
    # in the caller and in the worker, which runs the very tables it was
    # forked with (an object forked in keeps its id).
    record = _recorder(tmp_path / "tiles")
    run_tile = executor._run_tile

    def spy(x, tile, tables):
        out = run_tile(x, tile, tables)
        record([id(t) for t in tables], all(e[2].table is t for e, t in zip(tile, tables)))
        return out

    monkeypatch.setattr(executor, "_run_tile", spy)
    monkeypatch.setattr(executor, "_workers", lambda threads: threads)  # 2 even on 1 CPU
    net = dataclasses.replace(reference_model.network)
    x = random_mel_input(np.random.default_rng(34))
    for _ in range(2):
        for tiles in (1, 2, 4, 6):
            run_tiled(x, net, plan_tiles(net, tiles), 2)
    cache = executor._prepared(net)
    steps = [(l, entry[2]) for tiles in cache.tiles.values() for tile in tiles
             for l, entry in enumerate(tile) if entry[2] is not None]
    assert len(steps) == 7 * (1 + 1 + 2 + 3)  # the caller's tiles t = 0 (mod 2)
    assert all(step.table is cache.tables[l] for l, step in steps)
    seen = _records(tmp_path / "tiles")
    assert {pid for pid, _, _ in seen} == {os.getpid(), *_worker_pids(2)}
    assert all(ids == [id(t) for t in cache.tables] and same for _, ids, same in seen)


def _step_bytes(obj, roots: dict) -> None:
    """Collect the buffers of the ndarrays reachable from obj through tuples
    and lists: a step, its table and their arrays.  The parameter objects a
    table holds are the model's, and are not followed."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        roots[id(obj)] = obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _step_bytes(item, roots)


def test_plan_steps_hold_one_filter_table_per_layer(reference_model):
    # The layer tables are the network's, built once; a plan's steps add
    # only what its tiles' regions need.
    net = dataclasses.replace(reference_model.network)
    x = random_mel_input(np.random.default_rng(35))
    sizes = []
    for tiles in range(1, 7):
        plan = plan_tiles(net, tiles)
        run_tiled(x, net, plan)
        roots = {}
        _step_bytes([entry[2] for tile in executor._prepared(net).tiles[plan]
                     for entry in tile], roots)
        sizes.append(sum(a.nbytes for a in roots.values()))
    assert sizes[0] <= 100_000, sizes
    assert all(b - a < 10_000 for a, b in zip(sizes, sizes[1:])), sizes
    assert sizes[5] <= 150_000, sizes


def test_network_retains_little_after_eight_plans(reference_model):
    x = random_mel_input(np.random.default_rng(36))
    warm = dataclasses.replace(reference_model.network)
    run_tiled(x, warm, plan_tiles(warm, 2))  # module state built on first use
    net = dataclasses.replace(reference_model.network)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for tiles in range(1, 9):
            run_tiled(x, net, plan_tiles(net, tiles))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(executor._prepared(net).tiles) == 8
    assert retained < 1_000_000, f"retained {retained:,} B"


def test_worker_drops_its_least_recent_network(reference_model, monkeypatch, fresh_workers):
    # A worker holds at most PLANS_KEPT networks; a run of one it has
    # dropped gets the None reply, sends the network again and runs it.
    monkeypatch.setattr(executor, "_workers", lambda threads: threads)  # 2 even on 1 CPU
    sent = []
    write = executor._Worker._write

    def spy(self, key, network, *request):
        sent.append((key, network is not None))
        return write(self, key, network, *request)

    monkeypatch.setattr(executor._Worker, "_write", spy)
    x = random_mel_input(np.random.default_rng(37))
    plan = plan_tiles(reference_model.network, 2)
    nets = [dataclasses.replace(reference_model.network) for _ in range(executor.PLANS_KEPT + 1)]
    for net in nets:
        run_tiled(x, net, plan, 2)
    first = executor._prepared(nets[0]).key
    assert sent[0] == (first, False)  # the worker was forked holding it
    sent.clear()
    got = run_tiled(x, nets[0], plan, 2).scores
    assert sent == [(first, False), (first, True)]
    assert (got == run_tiled(x, nets[0], plan, 1).scores).all()


def test_workers_keep_steps_for_plans_kept(monkeypatch, tmp_path, fresh_workers):
    # A worker keeps its steps for its last PLANS_KEPT plans, like the caller.
    table = ((FIXED_CONV, 3, 3, 16, 1), (BINARY_CONV, 3, 3, 16, 1), (FINAL_CONV, 1, 1, 4, 1))
    net = quantize_model(gen_random_float_model(
        1, table=table, input_shape=(3, 20, 1), classes=4)).network
    x = FixedTensor(3, 20, 1, np.ones((3, 20, 1), dtype=np.int32), net.input_qformat, 16)
    monkeypatch.setattr(executor, "_workers", lambda threads: threads)  # 2 even on 1 CPU
    counts = tmp_path / "calls"
    _count_prepares(monkeypatch, counts)
    plans = [plan_tiles(net, tiles) for tiles in range(2, executor.PLANS_KEPT + 3)]
    for plan in plans:
        run_tiled(x, net, plan, 2)
    (worker,) = _worker_pids(2)

    def worker_prepares(plan) -> int:
        counts.unlink(missing_ok=True)
        run_tiled(x, net, plan, 2)
        return sum(pid == worker for pid, _ in _records(counts))

    assert worker_prepares(plans[-1]) == 0
    assert worker_prepares(plans[0]) > 0  # the oldest plan's steps were dropped


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
