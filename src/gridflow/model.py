"""Model assembly: config -> flow stack + conditioner, and whole-waveform ops.

A model is the flow stack (one conv net and one row permutation per flow),
the mel upsampler, and the config that rebuilt them. Whole-waveform
likelihood pads to a multiple of the height, squeezes, builds the one
conditioner grid from the mel frames, and runs the stack in the density
direction. grid_nll is the training loss of one grid: while a tape
records, it is the tape's one node per clip, and its backward chains the
hand-written backwards of the flows, the conditioner grid and the
upsampler. Synthesis draws a latent grid, runs the stack in the sampling
direction (naive or queued), unsqueezes, and trims the pad.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import conditioner as cond_mod
from .autodiff import Parameter, Tensor
from .conditioner import MelSpectrogram, UpsamplerParams, init_upsampler, upsample
from .errors import CheckpointError, NumericalError, ValidationError
from .flow import (
    FlowStack,
    LikelihoodReport,
    SynthStats,
    stack_backward,
    stack_forward,
    stack_inverse,
    stack_loglik_terms,
)
from .io import (
    ModelConfig,
    config_from_dict,
    config_to_dict,
    load_tensors,
    save_tensors,
)
from .network import default_dilations, init_conv_net, width_dilations
from .signal import (
    Permutation,
    Waveform,
    bipartite_reverse_permutation,
    identity_permutation,
    pad_to_multiple,
    reverse_permutation,
    squeeze,
    unsqueeze,
)


@dataclass
class Model:
    config: ModelConfig
    stack: FlowStack
    upsampler: UpsamplerParams | None
    step: int = 0
    seed: int = 0

    def parameters(self) -> list[Parameter]:
        out = self.stack.parameters()
        if self.upsampler is not None:
            out += self.upsampler.parameters()
        return out

    @property
    def dtype(self):
        return self.stack.nets[0].input_proj.v.data.dtype


def permutation_schedule(strategy: str, n_flows: int, h: int) -> list[Permutation]:
    """Row permutations per flow.

    auto: 8 flows get 4 reverse + 4 half-and-half reverse; one flow gets the
    identity; anything else reverses every flow.
    """
    if strategy == "none":
        return [identity_permutation(h) for _ in range(n_flows)]
    if strategy == "reverse":
        return [reverse_permutation(h) for _ in range(n_flows)]
    if strategy == "bipartite_mix":
        half = n_flows // 2
        return [reverse_permutation(h) for _ in range(half)] + [
            bipartite_reverse_permutation(h) for _ in range(n_flows - half)
        ]
    # auto
    if n_flows == 1:
        return [identity_permutation(h)]
    if n_flows == 8 and h % 2 == 0:
        return permutation_schedule("bipartite_mix", n_flows, h)
    return permutation_schedule("reverse", n_flows, h)


def build_model(config: ModelConfig, seed: int = 0, dtype=np.float32) -> Model:
    """Construct a freshly initialized model; the flow starts as the identity."""
    return _assemble(config, np.random.default_rng(seed), dtype, seed)


class _NoDraws:
    """Stands in for the generator where every value is overwritten next: zeros."""

    @staticmethod
    def standard_normal(shape):
        return np.zeros(shape, dtype=np.float32)


def _assemble(config: ModelConfig, rng, dtype, seed: int) -> Model:
    """Every parameter, named and shaped from config, its values drawn from rng."""
    dil_h = config.dilations_h or default_dilations(
        config.height, config.n_layers, config.kernel_h
    )
    dil_w = width_dilations(config.n_layers)
    nets = [
        init_conv_net(
            residual_channels=config.residual_channels,
            n_layers=config.n_layers,
            kernel_h=config.kernel_h,
            kernel_w=config.kernel_w,
            dilations_h=dil_h,
            dilations_w=dil_w,
            cond_channels=config.mel.n_mels if config.conditioned else None,
            rng=rng,
            dtype=dtype,
            name=f"flow{k}",
        )
        for k in range(config.n_flows)
    ]
    perms = permutation_schedule(config.permutation_strategy, config.n_flows, config.height)
    upsampler = None
    if config.conditioned:
        upsampler = init_upsampler(config.mel.hop, rng=rng, dtype=dtype)
    return Model(
        config=config,
        stack=FlowStack(nets=nets, permutations=perms),
        upsampler=upsampler,
        seed=seed,
    )


def count_parameters(model: Model) -> int:
    return int(sum(p.data.size for p in model.parameters()))


def cast_model(model: Model, dtype) -> Model:
    """Cast every parameter in place (fp32 <-> fp64); returns the model."""
    for p in model.parameters():
        p.data = p.data.astype(dtype)
    return model


# ---------------------------------------------------------------------------
# conditioning


def conditioner_grids(model: Model, mel: MelSpectrogram, n_samples: int, saved=None):
    """The upsampled (M, h, w) conditioner grid for n_samples of audio, in waveform row order."""
    if model.upsampler is None:
        return None
    feats = upsample(mel.frames.astype(model.dtype), model.upsampler, saved)
    return cond_mod.conditioner_grids_for_length(feats, n_samples, model.config.height, saved)


def check_sample_rate(model: Model, rate: int) -> None:
    """Reject audio or features at a rate the model was not built for."""
    if rate != model.config.sample_rate:
        raise ValidationError(
            f"sample rate {rate} does not match model ({model.config.sample_rate})"
        )


def prepare_grid(model: Model, wav: Waveform):
    """Pad, squeeze, and build the conditioner grid for one waveform."""
    check_sample_rate(model, wav.sample_rate)
    if len(wav) == 0:
        raise ValidationError("waveform has no samples")
    samples, pad = pad_to_multiple(
        np.asarray(wav.samples, dtype=model.dtype), model.config.height
    )
    grid = squeeze(samples, model.config.height)
    cond = None
    if model.upsampler is not None:
        mel = cond_mod.mel_spectrogram(wav, model.config.mel)
        cond = conditioner_grids(model, mel, len(samples))
    return grid, cond, pad


def loglik(model: Model, wav: Waveform) -> LikelihoodReport:
    """Exact log-likelihood of one waveform (padded to the grid)."""
    grid, cond, _ = prepare_grid(model, wav)
    _, report = stack_inverse(grid, cond, model.stack)
    return report


def grid_nll(model: Model, grid: np.ndarray, mel: MelSpectrogram | None) -> Tensor:
    """Per-dimension negative log-likelihood of one squeezed grid (a Tensor).

    While a tape records, this is one node over model.parameters(): the
    forwards keep what their backwards read, and the node's backward runs
    stack_backward, then the conditioner's adjoints, freeing it as it goes.
    """
    saved = [] if ad.recording() else None
    cond = conditioner_grids(model, mel, grid.size, saved)
    _, log_det, base = stack_loglik_terms(grid, cond, model.stack, saved)
    scale = -1.0 / grid.size
    params = model.parameters()

    def backward(g):
        grads: dict[int, np.ndarray] = {}
        d = g * scale
        _, d_cond = stack_backward(saved, cond, model.stack, d, d, grads)
        if model.upsampler is not None:
            d_feats = cond_mod.conditioner_grids_adjoint(saved, d_cond)
            cond_mod.upsample_backward(saved, model.upsampler, d_feats, grads)
        return tuple(grads.get(id(p)) for p in params)

    return ad._record("grid_nll", (log_det + base) * scale, tuple(params), backward)


def synthesize(
    model: Model,
    mel: MelSpectrogram | None,
    n_samples: int,
    std: float = 1.0,
    rng=None,
    engine: str = "queued",
    stats: SynthStats | None = None,
) -> Waveform:
    """Draw audio from the model; mel is required for conditioned models."""
    from .synth import synth_queued  # local import; synth depends on this module

    if n_samples < 1:
        raise ValidationError(f"n_samples must be >= 1, got {n_samples}")
    if rng is None:
        rng = np.random.default_rng(0)
    h = model.config.height
    padded, pad = pad_to_multiple(np.zeros(n_samples, dtype=model.dtype), h)
    total = len(padded)
    cond = None
    if model.upsampler is not None:
        if mel is None:
            raise ValidationError("conditioned model needs a mel spectrogram")
        cond = conditioner_grids(model, mel, total)
    z = (rng.standard_normal((h, total // h)) * std).astype(model.dtype)  # std: the temperature
    if engine == "naive":
        grid = stack_forward(z, cond, model.stack, stats=stats)
    elif engine == "queued":
        grid = synth_queued(z, cond, model.stack, stats=stats)
    else:
        raise ValidationError(f"unknown synthesis engine {engine!r}")
    if not np.all(np.isfinite(grid)):
        raise NumericalError(f"synthesized audio is not finite (latent std {std})")
    samples = unsqueeze(grid)
    if pad:
        samples = samples[:-pad]
    return Waveform(samples, model.config.sample_rate)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: Model, base_path) -> None:
    tensors = {p.name: p.data for p in model.parameters()}
    extra = {
        "model_config": config_to_dict(model.config),
        "train_step": model.step,
        "seed": model.seed,
    }
    save_tensors(base_path, tensors, extra)


def load_checkpoint(base_path, dtype=np.float32) -> Model:
    tensors, manifest = load_tensors(base_path)
    if "model_config" not in manifest:
        raise CheckpointError("manifest has no model_config")
    config = config_from_dict(manifest["model_config"])
    for key in ("seed", "train_step"):
        if type(manifest.get(key, 0)) is not int:
            raise CheckpointError(f"manifest: {key} is not an integer: {manifest[key]!r}")
    # the file supplies every value, so the skeleton draws none
    model = _assemble(config, _NoDraws(), dtype, manifest.get("seed", 0))
    model.step = manifest.get("train_step", 0)
    for p in model.parameters():
        if p.name not in tensors:
            raise CheckpointError(f"missing tensor {p.name!r}")
        arr = tensors[p.name]
        if tuple(arr.shape) != tuple(p.data.shape):
            raise CheckpointError(
                f"shape mismatch for {p.name!r}: file has {tuple(arr.shape)}, "
                f"model needs {tuple(p.data.shape)}"
            )
        p.data = arr.astype(dtype)
    return model
