"""Mel-spectrogram conditioner: analysis, upsampling, and grid layout.

Analysis: centered frames (reflect padding of win/2), periodic Hann window,
magnitude FFT, 80 triangular mel filters (HTK scale, peak 1) spanning 0 to
Nyquist, log with a 1e-5 clamp. Frame count is exactly ceil(n_samples/hop),
so hop * n_frames always covers the padded waveform.

Upsampling to sample rate: two single-channel transposed 2-D convs, each
with time stride 16 and kernel (3, 32), pads (1, 8), followed by leaky ReLU
(slope 0.4). Together they stretch time by hop = 256 while preserving the
mel axis. Each one runs as a plain conv2d with one output channel per
phase of the stride, whose outputs interleave in time (the sub-pixel view).
The result is cut to h*w samples and squeezed into an (n_mels, h, w) grid
column-major, exactly like the waveform, so grid entry (m, i, j) conditions
waveform grid entry (i, j). That one grid serves every flow: the flow
stack knows which grid rows each flow's input holds, and gathers them.

Both steps are plain numpy with hand-written backwards: upsample_backward
and conditioner_grids_adjoint, which training runs after the flows'.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter
from .errors import ValidationError
from .network import NormedWeight, _normed, add_grad
from .signal import Waveform

LEAKY_SLOPE = 0.4
LOG_FLOOR = 1e-5


@dataclass
class MelConfig:
    n_mels: int = 80
    n_fft: int = 1024
    hop: int = 256
    win: int = 1024

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int or value < 1:  # bool, "4" and 4.0 are not ints
                raise ValidationError(f"mel {f.name} must be a positive integer, got {value!r}")
        if self.win > self.n_fft:
            raise ValidationError("window longer than FFT size")


@dataclass
class MelSpectrogram:
    """Log-mel frames, one row per frame."""

    frames: np.ndarray  # (n_frames, n_mels)
    sample_rate: int
    config: MelConfig

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """(n_mels, n_fft//2 + 1) triangular filters, peak 1, 0..Nyquist."""
    nyquist = sample_rate / 2.0
    mel_pts = np.linspace(hz_to_mel(0.0), hz_to_mel(nyquist), n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)
    bin_freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)
    fb = np.zeros((n_mels, len(bin_freqs)))
    for m in range(n_mels):
        lo, center, hi = hz_pts[m], hz_pts[m + 1], hz_pts[m + 2]
        rising = (bin_freqs - lo) / max(center - lo, 1e-12)
        falling = (hi - bin_freqs) / max(hi - center, 1e-12)
        fb[m] = np.clip(np.minimum(rising, falling), 0.0, None)
    return fb


def mel_spectrogram(wav: Waveform, config: MelConfig | None = None) -> MelSpectrogram:
    """Log-mel analysis with exactly ceil(n_samples / hop) frames."""
    cfg = config or MelConfig()
    x = np.asarray(wav.samples, dtype=np.float64)
    if len(x) < cfg.win:
        raise ValidationError(
            f"waveform of {len(x)} samples is shorter than the {cfg.win}-sample window"
        )
    n_frames = -(-len(x) // cfg.hop)
    half = cfg.win // 2
    padded = np.pad(x, (half, half + cfg.hop), mode="reflect")
    window = np.hanning(cfg.win + 1)[:-1]  # periodic Hann
    frames = np.lib.stride_tricks.sliding_window_view(padded, cfg.win)[:: cfg.hop]
    frames = frames[:n_frames] * window
    mag = np.abs(np.fft.rfft(frames, n=cfg.n_fft, axis=1))
    fb = mel_filterbank(cfg.n_mels, cfg.n_fft, wav.sample_rate)
    mel = np.log(np.maximum(mag @ fb.T, LOG_FLOOR))
    return MelSpectrogram(frames=mel, sample_rate=wav.sample_rate, config=cfg)


@dataclass
class UpsamplerParams:
    """Two strided transposed-conv layers stretching mel frames to samples."""

    kernel1: NormedWeight  # (1, 1, 3, 2*stride)
    bias1: Parameter
    kernel2: NormedWeight
    bias2: Parameter
    stride: int

    def parameters(self) -> list[Parameter]:
        return (
            self.kernel1.parameters()
            + [self.bias1]
            + self.kernel2.parameters()
            + [self.bias2]
        )


def init_upsampler(hop: int = 256, rng=None, dtype=np.float32) -> UpsamplerParams:
    """Build the upsampler for a given hop; hop must be a perfect square of the stride pair."""
    stride = int(round(hop**0.5))
    if stride * stride != hop:
        raise ValidationError(f"hop {hop} is not a product of two equal strides")
    if rng is None:
        rng = np.random.default_rng(0)
    shape = (1, 1, 3, 2 * stride)
    return UpsamplerParams(
        kernel1=_normed("upsampler.kernel1", shape, rng, dtype),
        bias1=Parameter(np.zeros((), dtype=dtype), "upsampler.bias1"),
        kernel2=_normed("upsampler.kernel2", shape, rng, dtype),
        bias2=Parameter(np.zeros((), dtype=dtype), "upsampler.bias2"),
        stride=stride,
    )


def upsample(mel_frames, up: UpsamplerParams, saved=None) -> np.ndarray:
    """(n_frames, n_mels) log-mel -> (n_mels, n_frames * hop) features.

    Each layer is a transposed conv with time stride s, kernel (3, 2s) and
    pads (1, s // 2). Output phase r of the stride sees only kernel taps r
    and s + r, so the layer is a plain conv2d with s output channels over
    the flipped taps, whose channels interleave in time before the trim.
    If `saved` is a list, each layer appends its input, its flipped filter
    and its pre-activation for upsample_backward.
    """
    s = up.stride
    feat = mel_frames.T  # mel bands become rows
    for kern, bias in ((up.kernel1, up.bias1), (up.kernel2, up.bias2)):
        n_mels, t = feat.shape
        # phase r's filter: taps r and s + r, both axes flipped
        k = kern.tensor().reshape(3, 2, s)[::-1, ::-1].transpose(2, 0, 1)[:, None]
        phases = ad.conv2d(feat[None], k, pad=((2, 2), (1, 1)))
        full = phases.transpose(1, 2, 0).reshape(n_mels + 2, (t + 1) * s)
        pre = full[1 : n_mels + 1, s // 2 : (t + 1) * s - s // 2] + bias.data
        if saved is not None:
            saved.append((feat, k, pre))
        feat = np.where(pre >= 0, pre, LEAKY_SLOPE * pre)
    return feat


def upsample_backward(saved: list, up: UpsamplerParams, d_feat, grads: dict) -> np.ndarray:
    """Backward of upsample: pops its entries, adds parameter gradients into
    grads and returns the gradient of the (n_frames, n_mels) frames."""
    s = up.stride
    for kern, bias in ((up.kernel2, up.bias2), (up.kernel1, up.bias1)):
        feat, k, pre = saved.pop()
        d_pre = np.where(pre >= 0, d_feat, LEAKY_SLOPE * d_feat)
        add_grad(grads, bias, d_pre.sum())
        n_mels, t = feat.shape
        d_full = np.zeros((n_mels + 2, (t + 1) * s), dtype=d_pre.dtype)
        d_full[1 : n_mels + 1, s // 2 : (t + 1) * s - s // 2] = d_pre  # the trim's adjoint
        d_phases = d_full.reshape(n_mels + 2, t + 1, s).transpose(2, 0, 1)  # the interleave's
        d_k, d_x = ad.conv2d_adjoint(d_phases, feat[None], k, pad=((2, 2), (1, 1)))
        kern.add_grad(grads, d_k[:, 0].transpose(1, 2, 0)[::-1, ::-1])  # the flips'
        d_feat = d_x[0]
    return d_feat.T


def conditioner_grids_for_length(features, n_samples: int, h: int, saved=None) -> np.ndarray:
    """Cut features to n_samples, less any ragged tail, and squeeze them.

    Returns one C-contiguous (M, h, w) grid, w = n_samples // h, in the
    waveform's row order. If `saved` is a list, the features' shape is
    appended for conditioner_grids_adjoint.
    """
    n_mels, t = features.shape
    if t < n_samples:
        raise ValidationError(f"features cover {t} samples, need {n_samples}")
    w = n_samples // h
    if w == 0:
        raise ValidationError(f"{n_samples} samples do not fill a column; need at least {h}")
    if saved is not None:
        saved.append(features.shape)
    # column-major squeeze on the time axis, matching the waveform layout
    return np.ascontiguousarray(features[:, : w * h].reshape(n_mels, w, h).transpose(0, 2, 1))


def conditioner_grids_adjoint(saved: list, d_grid) -> np.ndarray:
    """Grid gradient -> feature gradient: the squeeze's and the trim's adjoints."""
    n_mels, t = saved.pop()
    _, h, w = d_grid.shape
    d_feat = np.zeros((n_mels, t), dtype=d_grid.dtype)
    d_feat[:, : w * h] = d_grid.transpose(0, 2, 1).reshape(n_mels, w * h)
    return d_feat
