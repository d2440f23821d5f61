"""Fast row-by-row synthesis with per-layer convolution queues.

The naive sampler (flow.flow_forward) re-runs the whole conv stack for every
generated row, O(h^2 w) per flow. The queued engine caches, per conv layer,
the last (k_h - 1) * d_h rows of that layer's input in a ring buffer, so each
new row costs one row's worth of compute regardless of the row index: O(h w)
per flow.

Both engines share one walk over the flows (flow.sample_walk) and run the
same kernel, network.compiled_forward, on a net compiled once per flow and
the same conditioner folding and sigma floor. They differ only in where a
layer's height taps come from: views of one width-tap buffer over the full
grid there, ring slots here. A slot holds a row's live width taps
(ad.live_taps), so a row step width-shifts only the new row and reads older
taps in place; while a slot is unwritten (the first rows) its height tap
reads the zero pad and is skipped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ValidationError
from .flow import SynthStats, floored_sigma, sample_walk, stack_forward
from .network import CompiledNet, compile_net, compiled_forward


class LayerQueue:
    """Ring buffer of a conv layer's recent input rows, each held as its (kw', C, 1, w) width taps.

    It holds the newest row and the c = (k_h - 1) * d_h rows before it, the
    layer's height reach; slots not yet written are zeros (causal pad).
    """

    def __init__(self, capacity: int, channels: int, width: int, dtype, col_offsets):
        self.col_offsets = col_offsets
        self.slots = np.zeros((capacity + 1, len(col_offsets), channels, 1, width), dtype=dtype)
        self.pushed = 0

    def taps(self, delay: int) -> np.ndarray:
        """(kw * C, w) width taps of the row pushed `delay` pushes before the newest."""
        slot = self.slots[(self.pushed - 1 - delay) % len(self.slots)]
        return slot.reshape(-1, slot.shape[-1])

    def push(self, row: np.ndarray) -> None:
        slot = self.slots[self.pushed % len(self.slots)]
        ad.width_taps(row, self.col_offsets, slot.shape[-1], out=slot)  # same spans: pad stays 0
        self.pushed += 1


@dataclass
class QueueState:
    """All per-layer queues for one flow."""

    queues: list[LayerQueue]

    @classmethod
    def for_net(cls, net: CompiledNet, width: int, dtype, channels: int):
        queues = [LayerQueue(-c.row_offsets[0], channels, width, dtype,
                             ad.live_taps(c.col_offsets, width)[2]) for c in net.layers]
        return cls(queues=queues)


def _row_step(
    cnet: CompiledNet,
    qs: QueueState,
    prev_row: np.ndarray,
    cond_rows,
    stats: SynthStats | None,
) -> tuple[np.ndarray, np.ndarray]:
    """One generated row: previous waveform row in, (mu, log_sigma) row out."""

    def taps(li, x, offsets):
        q = qs.queues[li]
        q.push(x)
        return [q.taps(-off) for off in offsets if -off < q.pushed]  # written slots only

    mu, log_sigma = compiled_forward(cnet, prev_row[None], cond_rows, taps)
    if stats is not None:
        w = len(prev_row)
        per_col = cnet.input_w.size + cnet.skip_head_w.size + cnet.out_w.size
        per_col += sum(layer.proj_w.size for layer in cnet.layers)
        per_col += 0 if cond_rows is None else sum(layer.cond.size for layer in cnet.layers)
        live = sum(  # written height taps x 2R x (kw' R w) live width-tap values
            sum(-off < q.pushed for off in layer.row_offsets) * len(layer.bias) * q.slots[0].size
            for layer, q in zip(cnet.layers, qs.queues)
        )
        stats.row_flops.append(per_col * w + live)
    return mu[0], log_sigma[0]


def synth_queued(z, cond, stack, stats: SynthStats | None = None) -> np.ndarray:
    """Latent grid -> waveform grid with per-layer queues; matches stack_forward."""
    return sample_walk(z, cond, stack, _queued_flow_forward, stats)


def _queued_flow_forward(x, cond, net, stats: SynthStats | None) -> np.ndarray:
    """One flow's sampling direction, a queued row step per row; cond holds its conditioner rows."""
    h, w = x.shape
    cnet = compile_net(net)
    qs = QueueState.for_net(cnet, w, x.dtype, net.residual_channels)
    out = np.zeros_like(x)
    prev = np.zeros(w, dtype=x.dtype)
    for i in range(h):
        cond_rows = None if cond is None else cond[:, i : i + 1]
        mu_i, ls_i = _row_step(cnet, qs, prev, cond_rows, stats)
        out[i] = (x[i] - mu_i) / floored_sigma(ls_i, stats)
        prev = out[i]
        if stats is not None:
            stats.row_steps += 1
    return out


@dataclass
class BenchReport:
    """Timing comparison of the two synthesis engines."""

    n_samples: int
    height: int
    n_flows: int
    sequential_steps: int
    naive_seconds: float
    queued_seconds: float

    @property
    def speedup(self) -> float:
        return self.naive_seconds / self.queued_seconds

    @property
    def samples_per_second(self) -> float:
        return self.n_samples / self.queued_seconds

    def as_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "height": self.height,
            "n_flows": self.n_flows,
            "sequential_steps": self.sequential_steps,
            "naive_seconds": self.naive_seconds,
            "queued_seconds": self.queued_seconds,
            "speedup": self.speedup,
            "samples_per_second": self.samples_per_second,
        }


def bench(stack, z: np.ndarray, cond=None) -> BenchReport:
    """Time both engines on one latent grid (model build and mel excluded)."""
    h, w = z.shape
    t0 = time.perf_counter()
    naive_stats = SynthStats()
    x_naive = stack_forward(z, cond, stack, stats=naive_stats)
    t1 = time.perf_counter()
    queued_stats = SynthStats()
    x_queued = synth_queued(z, cond, stack, stats=queued_stats)
    t2 = time.perf_counter()
    err = np.max(np.abs(x_naive - x_queued)) if x_naive.size else 0.0
    if err > 1e-3:
        raise ValidationError(f"engines disagree by {err:.3e}; refusing to report timings")
    return BenchReport(
        n_samples=h * w,
        height=h,
        n_flows=stack.n_flows,
        sequential_steps=queued_stats.row_steps,
        naive_seconds=t1 - t0,
        queued_seconds=t2 - t1,
    )
