import dataclasses

import numpy as np
import pytest

from binsed import FixedTensor, FrontendConfig, gen_random_model


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


def with_output_shift(model, layer_index: int, shift: int):
    """A copy of a model whose fixed-point layer has another output shift."""
    net = model.network
    layers = list(net.layers)
    layer = layers[layer_index]
    layers[layer_index] = dataclasses.replace(
        layer, fixed=dataclasses.replace(layer.fixed, output_shift=shift))
    return dataclasses.replace(
        model, network=dataclasses.replace(net, layers=tuple(layers)))
