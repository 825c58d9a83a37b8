import copy
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from binsed import BnFold, FixedTensor, FrontendConfig, LayerSpec, gen_random_model, pack_weights
from binsed.executor import BINARY_CONV, FINAL_CONV, FIXED_CONV


@pytest.fixture(scope="session")
def reference_model():
    return gen_random_model(1)


@pytest.fixture(scope="session")
def frontend_cfg():
    return FrontendConfig()


def random_mel_input(rng, cfg=None) -> FixedTensor:
    """A synthetic quantized feature patch in the frontend's value range."""
    cfg = cfg or FrontendConfig()
    vals = rng.integers(-24000, 16000, (cfg.mel_bins, cfg.frames, 1), dtype=np.int64)
    return FixedTensor(cfg.mel_bins, cfg.frames, 1, vals.astype(np.int32),
                       cfg.output_qformat, 16)


def traced_peak(fn) -> int:
    """tracemalloc peak of one call of fn above what was live before it,
    after one warm-up call (filterbank, popcount table and BLAS binding)."""
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def with_fixed_fields(model, layer_index: int, **fields):
    """A copy of a model whose fixed-point layer has the given parameter
    fields, even ones FixedConvParams or NetworkSpec refuse (as a model
    written elsewhere may)."""
    layers = list(model.network.layers)
    layer = layers[layer_index] = copy.copy(layers[layer_index])
    fixed = copy.copy(layer.fixed)
    for name, value in fields.items():
        object.__setattr__(fixed, name, value)
    object.__setattr__(layer, "fixed", fixed)
    return with_layers(model, layers)


def with_output_shift(model, layer_index: int, shift: int):
    """A copy of a model whose fixed-point layer has another output shift,
    even one FixedConvParams refuses."""
    return with_fixed_fields(model, layer_index, output_shift=shift)


def binary_first_layers(model) -> tuple:
    """The model's layers with its fixed-point first layer swapped for a
    binary conv of the same shape: a channel chain that adds up, in a kind
    order the executor cannot run."""
    first = model.network.layers[0]
    out_c, (ky, kx), in_c = first.out_channels, first.kernel, first.in_channels
    binary = LayerSpec(BINARY_CONV, first.kernel, in_c, out_c, first.stride,
                       weights=pack_weights(np.ones((out_c, ky, kx, in_c), dtype=np.int8)),
                       fold=BnFold(np.ones(out_c, dtype=np.int32),
                                   np.zeros(out_c, dtype=np.int32)))
    return (binary,) + model.network.layers[1:]


def with_layers(model, layers):
    """A copy of a model whose network holds the given layers, even in an
    order NetworkSpec itself refuses (as a model written elsewhere may)."""
    net = copy.copy(model.network)
    object.__setattr__(net, "layers", tuple(layers))
    return dataclasses.replace(model, network=net)


def with_frontend_fields(model, **fields):
    """A copy of a model whose frontend record holds the given field values,
    even ones FrontendConfig itself refuses (as a model written elsewhere may)."""
    cfg = copy.copy(model.frontend)
    for name, value in fields.items():
        object.__setattr__(cfg, name, value)
    return dataclasses.replace(model, frontend=cfg)


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
