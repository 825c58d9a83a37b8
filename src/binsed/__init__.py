"""binsed: bit-exact binary neural network inference for sound event detection.

A 16 kHz audio clip becomes a 64x400 fixed-point log-Mel patch, runs through a
7-layer network (fixed-point first/last layers, xor+popcount binary layers in
between, folded batch-norm thresholds), and yields 28 class scores.  Execution
is tiled along the time axis with a derived halo, tiles running on the
caller and forked worker processes; monolithic execution is the
one-tile-per-worker plan, and every plan is bit-identical.  Slow reference
oracles back every fast path.
"""

from .errors import (
    BinsedError,
    BudgetExceededError,
    InputFormatError,
    ModelFormatError,
    ShapeMismatchError,
)
from .executor import (
    InferenceResult,
    LayerSpec,
    MemoryBudget,
    NetworkSpec,
    TilePlan,
    count_macs,
    footprint,
    is_reference_topology,
    plan_tiles,
    receptive_field_halo,
    run_monolithic,
    run_tiled,
    tile_working_sets,
)
from .frontend import (
    FrontendConfig,
    mel_filterbank,
    mel_scale,
    mel_spectrogram,
    mel_to_hz,
    stft_power,
)
from .kernels import (
    BnFold,
    FixedConvParams,
    PoolResult,
    binarize_sign,
    conv2d_binary,
    conv2d_fixed,
    get_popcount,
    global_avg_pool,
    popcount_native,
    popcount_portable,
    predict,
    threshold_activation,
)
from .model_io import (
    FloatLayer,
    FloatModel,
    Model,
    binarize_weights,
    choose_qformat,
    fold_batchnorm,
    gen_random_float_model,
    gen_random_model,
    load,
    load_features,
    load_file,
    network_spec_json,
    quantize_model,
    save,
    save_features,
    save_file,
)
from .timing import BenchReport, bench
from .tensors import (
    BinaryTensor,
    FixedTensor,
    PackedBinaryWeights,
    pack,
    pack_weights,
    quantize_real,
    quantize_values,
    unpack,
    unpack_weights,
)

__version__ = "0.1.0"
