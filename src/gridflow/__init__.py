"""Likelihood-trained generative flow over squeezed waveform grids.

A 1-D waveform is folded column-major into a short-height grid; a stack of
convolutional affine flows models it with an exact likelihood, trained by
plain maximum likelihood. Synthesis inverts the stack row by row, so the
number of sequential steps is flows times height rather than the sample
count, and per-layer convolution queues make each row O(1) in the height.
"""

from .conditioner import MelConfig, MelSpectrogram, mel_spectrogram, upsample
from .errors import CheckpointError, EngineError, NumericalError, ValidationError
from .flow import (
    FlowStack,
    LikelihoodReport,
    SynthStats,
    flow_forward,
    flow_inverse,
    stack_forward,
    stack_inverse,
)
from .io import ModelConfig, load_preset, preset_names
from .model import (
    Model,
    build_model,
    count_parameters,
    load_checkpoint,
    loglik,
    save_checkpoint,
    synthesize,
)
from .network import (
    ConvLayerParams,
    ConvNetParams,
    default_dilations,
    net_forward,
    receptive_field,
)
from .signal import (
    Permutation,
    Waveform,
    pad_to_multiple,
    read_wav,
    squeeze,
    unsqueeze,
    write_wav,
)
from .synth import synth_queued
from .train import AdamState, Dataset, TrainConfig, adam_step, sample_clip, train_loop

__version__ = "0.1.0"
