"""Waveforms, squeezed grids, row permutations, and WAV file I/O.

A length-n waveform is squeezed column-major into an h x w grid: sample
x[j*h + i] lands at grid[i, j], so each column holds h consecutive samples
and the height axis is the short autoregressive direction. unsqueeze is the
exact inverse. Lengths that are not a multiple of h are zero-padded at the
end before squeezing and the pad count is carried so synthesis can trim.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

PCM_SCALE = 32768.0


@dataclass
class Waveform:
    """Mono audio samples in [-1, 1] with their sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if self.samples.ndim != 1:
            raise ValidationError(f"waveform must be 1-D, got shape {self.samples.shape}")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass
class Permutation:
    """Row permutation of a height-h grid: out[row_map[i]] = in[i]."""

    row_map: np.ndarray
    kind: str

    def __post_init__(self):
        self.row_map = np.asarray(self.row_map, dtype=np.int64)
        h = len(self.row_map)
        if sorted(self.row_map.tolist()) != list(range(h)):
            raise ValidationError(f"row_map is not a permutation of 0..{h - 1}")

    @property
    def height(self) -> int:
        return len(self.row_map)


def identity_permutation(h: int) -> Permutation:
    return Permutation(np.arange(h), "identity")


def reverse_permutation(h: int) -> Permutation:
    """Map row i to row h-1-i."""
    return Permutation(np.arange(h)[::-1].copy(), "reverse")


def bipartite_reverse_permutation(h: int) -> Permutation:
    """Reverse the top and bottom halves independently.

    Rows 0..h/2-1 map to h/2-1..0 and rows h/2..h-1 map to h-1..h/2, so
    h=8 gives [3, 2, 1, 0, 7, 6, 5, 4]. For h=2 this is the identity.
    """
    if h % 2 != 0:
        raise ValidationError(f"bipartite reverse needs even height, got {h}")
    half = h // 2
    row_map = np.concatenate([np.arange(half)[::-1], np.arange(half, h)[::-1]])
    return Permutation(row_map, "bipartite_reverse")


def pad_to_multiple(x: np.ndarray, h: int) -> tuple[np.ndarray, int]:
    """Zero-pad at the end so len(x) is a multiple of h; return pad count."""
    if h < 1:
        raise ValidationError(f"height must be >= 1, got {h}")
    n = len(x)
    pad = (-n) % h
    if pad:
        x = np.concatenate([x, np.zeros(pad, dtype=x.dtype)])
    return x, pad


def squeeze(x: np.ndarray, h: int) -> np.ndarray:
    """Reshape a length h*w signal into an (h, w) grid, column-major."""
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValidationError(f"squeeze expects 1-D input, got shape {x.shape}")
    if len(x) % h != 0:
        raise ValidationError(f"length {len(x)} is not a multiple of height {h}")
    # x[j*h + i] -> grid[i, j]
    return x.reshape(-1, h).T.copy()


def unsqueeze(grid: np.ndarray) -> np.ndarray:
    """Exact inverse of squeeze: (h, w) grid back to a length h*w signal."""
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise ValidationError(f"unsqueeze expects 2-D input, got shape {grid.shape}")
    return grid.T.reshape(-1).copy()


def read_wav(path) -> Waveform:
    """Read a 16-bit PCM mono RIFF file, normalized by 32768."""
    try:
        with wave.open(str(path), "rb") as f:
            channels = f.getnchannels()
            width = f.getsampwidth()
            rate = f.getframerate()
            frames = f.readframes(f.getnframes())
    except (wave.Error, EOFError) as e:
        raise ValidationError(f"not a readable RIFF/WAVE file: {path} ({e})")
    if channels != 1:
        raise ValidationError(f"only mono audio is supported, got {channels} channels")
    if width != 2:
        raise ValidationError(f"only 16-bit PCM is supported, got {8 * width}-bit")
    if len(frames) % 2:
        raise ValidationError(f"WAV data of {len(frames)} bytes is not a whole number of frames")
    samples = np.frombuffer(frames, dtype="<i2").astype(np.float64) / PCM_SCALE
    return Waveform(samples, rate)


def write_wav(path, wav: Waveform) -> None:
    """Write 16-bit PCM mono; samples are clipped to the representable range."""
    x = np.asarray(wav.samples, dtype=np.float64)
    pcm = np.clip(np.round(x * PCM_SCALE), -PCM_SCALE, PCM_SCALE - 1).astype("<i2")
    # open the path first: wave.open on a path that cannot be created leaves a
    # half-built writer whose finalizer raises again
    with open(path, "wb") as fh, wave.open(fh, "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(wav.sample_rate)
        f.writeframes(pcm.tobytes())
