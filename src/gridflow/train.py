"""Maximum-likelihood training: Adam, clip sampling, and the step loop.

The loss is the negative per-dimension log-likelihood averaged over the
batch. Gradients come from the tape, one clip at a time: each clip is one
node (model.grid_nll), recorded and backpropagated on its own tape, so a
step holds one clip's activations (per flow, each layer's gate outputs, the
last layer's input and the skip sum: 2 * n_layers + 2 arrays of R x clip
values), and the backward frees each flow's as it finishes with it. Adam carries
per-parameter first and second moments with bias correction. Steps whose
gradients contain any non-finite value are skipped (counted, moments
untouched); a non-finite loss aborts the run after dumping the offending
batch for replay.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .errors import NumericalError, ValidationError
from .io import DatasetEntry, save_tensors
from .model import Model, grid_nll, save_checkpoint
from .conditioner import MelSpectrogram, mel_spectrogram
from .signal import Waveform, pad_to_multiple, read_wav, squeeze


@dataclass
class TrainConfig:
    learning_rate: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 8
    clip_length: int = 16000
    max_steps: int = 1000
    checkpoint_interval: int = 500
    seed: int = 0
    out_dir: str | None = None
    log_every: int = 10

    def __post_init__(self):
        if self.batch_size < 1 or self.clip_length < 1 or self.max_steps < 1:
            raise ValidationError("batch_size, clip_length, max_steps must be >= 1")
        if self.checkpoint_interval < 1 or self.log_every < 1:
            raise ValidationError("checkpoint_interval and log_every must be >= 1")


@dataclass
class AdamState:
    """Per-parameter moment estimates plus the shared step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0
    skipped: int = 0


def adam_step(params, grads: dict[str, np.ndarray], state: AdamState, config: TrainConfig):
    """One Adam update in place; skips entirely if any gradient is non-finite."""
    for g in grads.values():
        if not np.all(np.isfinite(g)):
            state.skipped += 1
            return params
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for p in params:
        g = grads[p.name].astype(np.float64)
        m = state.m.get(p.name)
        if m is None:
            m = np.zeros(p.data.shape, dtype=np.float64)
            state.v[p.name] = np.zeros(p.data.shape, dtype=np.float64)
        v = state.v[p.name]
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        state.m[p.name] = m
        state.v[p.name] = v
        update = config.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + config.eps)
        p.data = (p.data.astype(np.float64) - update).astype(p.data.dtype)
    return params


class Utterance:
    """One training file: waveform plus its lazily computed mel frames."""

    def __init__(self, wav: Waveform, mel_config):
        self.wav = wav
        self.mel_config = mel_config
        self._mel = None

    @property
    def mel(self):
        if self._mel is None:
            self._mel = mel_spectrogram(self.wav, self.mel_config)
        return self._mel


class Dataset:
    """In-memory utterances; tiny desk-scale corpora only."""

    def __init__(self, utterances: list[Utterance]):
        if not utterances:
            raise ValidationError("dataset has no utterances")
        self.utterances = utterances

    @classmethod
    def from_entries(cls, entries: list[DatasetEntry], mel_config, min_length: int):
        utts = []
        for e in entries:
            wav = read_wav(e.path)
            if len(wav) < min_length:
                continue
            utts.append(Utterance(wav, mel_config))
        if not utts:
            raise ValidationError(
                f"no utterance is at least {min_length} samples long"
            )
        return cls(utts)


def sample_clip(dataset: Dataset, clip_length: int, hop: int, rng):
    """Uniform utterance, then a uniform hop-aligned start offset.

    The start is always a multiple of the mel hop so the clip's mel frames
    are a contiguous slice of the utterance-level spectrogram.
    """
    utt = dataset.utterances[int(rng.integers(len(dataset.utterances)))]
    n = len(utt.wav)
    if n < clip_length:
        raise ValidationError(f"utterance of {n} samples shorter than clip {clip_length}")
    max_start = ((n - clip_length) // hop) * hop
    start = int(rng.integers(max_start // hop + 1)) * hop
    return utt, start


def clip_loss_terms(model: Model, utt: Utterance, start: int, clip_length: int):
    """Per-dim negative log-likelihood of one hop-aligned clip (a Tensor)."""
    h = model.config.height
    hop = model.config.mel.hop
    x = np.asarray(utt.wav.samples[start : start + clip_length], dtype=model.dtype)
    samples, _ = pad_to_multiple(x, h)
    mel_slice = None
    if model.upsampler is not None:
        f0 = start // hop
        f1 = min(-(-(start + len(samples)) // hop), utt.mel.n_frames)  # ceil, clamped
        mel = utt.mel
        mel_slice = MelSpectrogram(mel.frames[f0:f1], mel.sample_rate, mel.config)
    return grid_nll(model, squeeze(samples, h), mel_slice)


def batch_gradients(model: Model, batch, clip_length: int):
    """Mean clip loss of a batch and its gradient per parameter name.

    Each clip is recorded and backpropagated on its own tape, so a step
    holds one clip's activations at a time; the per-clip gradients are
    summed and divided by the batch size.
    """
    params = model.parameters()
    total, grads = 0.0, None
    for utt, start in batch:
        loss, tape = ad.record_forward(
            lambda: clip_loss_terms(model, utt, start, clip_length), params
        )
        clip_grads = ad.backward(tape)
        del tape
        total += float(loss.data)
        if grads is None:
            grads = clip_grads
        else:
            grads = {name: g + clip_grads[name] for name, g in grads.items()}
    scale = 1.0 / len(batch)
    return total * scale, {name: g * scale for name, g in grads.items()}


def grad_global_norm(grads: dict[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        total += float((g.astype(np.float64) ** 2).sum())
    return float(np.sqrt(total))


def train_loop(
    model: Model,
    dataset: Dataset,
    config: TrainConfig,
    on_metrics=None,
) -> AdamState:
    """Run max_steps of Adam; writes metrics NDJSON and checkpoints if out_dir set.

    Deterministic for a fixed seed and dataset in single-threaded numpy. A
    non-finite loss dumps the offending batch to the out_dir (when set) and
    raises; training cannot silently continue past it.
    """
    rng = np.random.default_rng(config.seed)
    params = model.parameters()
    state = AdamState()
    out_dir = Path(config.out_dir) if config.out_dir else None
    metrics_file = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        metrics_file = (out_dir / "metrics.ndjson").open("a")
    hop = model.config.mel.hop
    try:
        for step in range(1, config.max_steps + 1):
            batch = [
                sample_clip(dataset, config.clip_length, hop, rng)
                for _ in range(config.batch_size)
            ]

            t0 = time.perf_counter()
            try:
                loss, grads = batch_gradients(model, batch, config.clip_length)
            except NumericalError:
                if out_dir is not None:
                    _dump_batch(out_dir, step, batch, config.clip_length)
                raise
            adam_step(params, grads, state, config)
            model.step += 1
            elapsed = time.perf_counter() - t0
            if step % config.log_every == 0 or step == config.max_steps:
                record = {
                    "step": model.step,
                    "loss": loss,
                    "loglik_per_dim": -loss,
                    "grad_norm": grad_global_norm(grads),
                    "seconds_per_step": elapsed,
                    "skipped_updates": state.skipped,
                }
                if metrics_file is not None:
                    metrics_file.write(json.dumps(record, sort_keys=True) + "\n")
                    metrics_file.flush()
                if on_metrics is not None:
                    on_metrics(record)
            if out_dir is not None and (
                step % config.checkpoint_interval == 0 or step == config.max_steps
            ):
                save_checkpoint(model, out_dir / f"ckpt-{model.step:06d}")
    finally:
        if metrics_file is not None:
            metrics_file.close()
    return state


def _dump_batch(out_dir: Path, step: int, batch, clip_length: int) -> None:
    tensors = {}
    for i, (utt, start) in enumerate(batch):
        tensors[f"clip{i}"] = np.asarray(
            utt.wav.samples[start : start + clip_length], dtype=np.float32
        )
    save_tensors(out_dir / f"bad-batch-{step:06d}", tensors, {"train_step": step})
