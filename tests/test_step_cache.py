"""The step caches of the caller and its tile workers as a state machine.

Runs at one and two workers, models derived from the running one, parameter
objects swapped in place, more plans than a cache keeps and a switch of the
popcount backend, in any order: every result must equal a fresh deep copy's
and the naive oracle's.
"""

import copy
import dataclasses

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from binsed import executor, kernels, plan_tiles, run_monolithic, run_tiled
from binsed.kernels import BnFold
from binsed.model_io import gen_random_float_model, quantize_model
from binsed.oracle import reference_network_run
from binsed.tensors import FixedTensor
from tests.conftest import small_topologies, with_fixed_fields, with_layers, with_output_shift


def outcome(run, x, net, *args):
    """The scores of a run, or the text of the ValueError it refused with
    (a derived model's outputs may leave their bitwidth)."""
    try:
        return run(x, net, *args).scores
    except ValueError as e:
        return str(e)


class StepCache(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.saved = executor._workers, kernels._HAS_NATIVE
        executor._workers = lambda threads: threads  # two workers even on one CPU
        self.results = []

    def teardown(self):
        executor._workers, kernels._HAS_NATIVE = self.saved

    @initialize(case=small_topologies())
    def load(self, case):
        table, shape, classes, seed = case
        self.model = quantize_model(gen_random_float_model(
            seed, table=table, input_shape=shape, classes=classes))
        vals = np.random.default_rng(seed).integers(-24000, 16000, shape)
        self.x = FixedTensor(*shape, vals.astype(np.int32), self.model.network.input_qformat, 16)

    @property
    def final_w(self) -> int:
        return self.model.network.shape_chain()[-1][1]

    def run(self, tiles: int, threads: int) -> None:
        net = self.model.network
        plan = plan_tiles(net, min(tiles, self.final_w))
        self.results.append((net, outcome(run_tiled, self.x, net, plan, threads),
                             outcome(run_tiled, self.x, copy.deepcopy(net), plan, threads)))

    @rule(tiles=st.integers(1, 12), threads=st.sampled_from((1, 2)))
    def run_plan(self, tiles, threads):
        self.run(tiles, threads)

    @rule(threads=st.sampled_from((1, 2)))
    def run_whole(self, threads):
        net = self.model.network
        self.results.append((net, outcome(run_monolithic, self.x, net, threads),
                             outcome(run_monolithic, self.x, copy.deepcopy(net), threads)))

    @rule()
    def run_more_plans_than_kept(self):
        for tiles in range(1, executor.PLANS_KEPT + 2):
            self.run(tiles, 2)

    @rule(extra=st.integers(1, 3))
    def derive_output_shift(self, extra):
        final = self.model.network.layers[-1].fixed
        self.model = with_output_shift(self.model, -1, min(52, final.output_shift + extra))

    @rule(delta=st.integers(-64, 64), layer=st.sampled_from((0, -1)))
    def derive_bias(self, delta, layer):
        fixed = self.model.network.layers[layer].fixed
        self.model = with_fixed_fields(self.model, layer, bias=fixed.bias + delta)

    @rule(data=st.data())
    def derive_layers(self, data):
        layers = list(self.model.network.layers)
        i = data.draw(st.integers(0, len(layers) - 2), label="layer")
        fold = layers[i].fold
        layers[i] = dataclasses.replace(layers[i], fold=BnFold(-fold.polarity, fold.threshold))
        self.model = with_layers(self.model, layers)

    @rule(data=st.data())
    def swap_in_place(self, data):
        # the same layer object, given another parameter object
        layers = self.model.network.layers
        i = data.draw(st.integers(0, len(layers) - 2), label="layer")
        fold = layers[i].fold
        object.__setattr__(layers[i], "fold", BnFold(fold.polarity, fold.threshold + 1))

    @rule()
    def switch_popcount(self):
        kernels._HAS_NATIVE = not kernels._HAS_NATIVE and hasattr(np, "bitwise_count")

    @invariant()
    def results_match(self):
        for net, got, fresh in self.results:
            assert type(got) is type(fresh) and np.array_equal(got, fresh)
            if not isinstance(got, str):
                assert (got == reference_network_run(net, self.x)[0]).all()
        self.results.clear()


TestStepCache = StepCache.TestCase
TestStepCache.settings = settings(max_examples=12, stateful_step_count=8, deadline=None)
