"""Fast row-by-row synthesis with per-layer convolution queues.

The naive sampler (flow.flow_forward) re-runs the whole conv stack for every
generated row, O(h^2 w) per flow. The queued engine caches, per conv layer,
the last (k_h - 1) * d_h rows of that layer's input in a ring buffer, so each
new row costs one row's worth of compute regardless of the row index: O(h w)
per flow.

Both engines run the same kernel, network.compiled_forward, on a net compiled
once per flow (weight norm materialized, each filter flattened for one GEMM
over its stacked taps) and the same conditioner folding and sigma floor. They
differ only in where a layer's height taps come from: shifted slices of the
full grid there, ring-buffer reads here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .flow import SynthStats, _conds, floored_sigma, stack_forward
from .network import CompiledNet, compile_net, compiled_forward, cond_biases


class LayerQueue:
    """Ring buffer of a conv layer's most recent input rows.

    Capacity is the layer's height reach, (k_h - 1) * d_h. Rows are pushed
    after the layer reads its taps for the current row, so once rows
    0..i-1 are generated the buffer holds rows max(0, i-c)..i-1 of a full
    recompute. Reads past the start of the signal return zeros (causal pad).
    """

    def __init__(self, capacity: int, channels: int, width: int, dtype):
        self.capacity = capacity
        self.buf = np.zeros((max(capacity, 1), channels, width), dtype=dtype)
        self.pushed = 0

    def read(self, delay: int) -> np.ndarray:
        """Row `delay` steps back from the next row to be pushed."""
        if delay > self.pushed or delay > self.capacity:
            return self.buf[0] * 0.0
        return self.buf[(self.pushed - delay) % self.capacity]

    def push(self, row: np.ndarray) -> None:
        if self.capacity == 0:
            return
        self.buf[self.pushed % self.capacity] = row
        self.pushed += 1


@dataclass
class QueueState:
    """All per-layer queues for one flow."""

    queues: list[LayerQueue]

    @classmethod
    def for_net(cls, net: CompiledNet, width: int, dtype, channels: int):
        queues = [
            LayerQueue((net.kernel_h - 1) * layer.dilation_h, channels, width, dtype)
            for layer in net.layers
        ]
        return cls(queues=queues)


def _row_step(
    cnet: CompiledNet,
    qs: QueueState,
    prev_row: np.ndarray,
    cond_rows,
    stats: SynthStats | None,
) -> tuple[np.ndarray, np.ndarray]:
    """One generated row: previous waveform row in, (mu, log_sigma) row out."""

    def taps(li, x, delays):
        queue = qs.queues[li]
        # stacked (copied) before the push overwrites the oldest slot
        rows = np.stack([x[:, 0] if d == 0 else queue.read(d) for d in delays])
        queue.push(x[:, 0])
        return rows[:, :, None]

    mu, log_sigma = compiled_forward(cnet, prev_row[None], cond_rows, taps)
    if stats is not None:
        w = len(prev_row)
        per_col = cnet.input_w.size + cnet.skip_head_w.size + cnet.out_w.size
        per_col += sum(layer.filt.size + 2 * layer.res_w.size for layer in cnet.layers)
        stats.row_flops.append(per_col * w)
    return mu[0], log_sigma[0]


def synth_queued(z, conds, stack, stats: SynthStats | None = None) -> np.ndarray:
    """Latent grid -> waveform grid with per-layer queues; matches stack_forward."""
    x = np.asarray(z)
    h, w = x.shape
    cond_list = _conds(conds, stack)
    for net, perm, cond in reversed(list(zip(stack.nets, stack.permutations, cond_list))):
        x = x[perm.row_map]
        cnet = compile_net(net)
        qs = QueueState.for_net(cnet, w, x.dtype, net.residual_channels)
        cond_grid = cond_biases(cnet, cond)
        out = np.zeros_like(x)
        prev = np.zeros(w, dtype=x.dtype)
        for i in range(h):
            cond_rows = None if cond_grid is None else [c[:, i : i + 1] for c in cond_grid]
            mu_i, ls_i = _row_step(cnet, qs, prev, cond_rows, stats)
            out[i] = (x[i] - mu_i) / floored_sigma(ls_i, stats)
            prev = out[i]
            if stats is not None:
                stats.row_steps += 1
        x = out
    return x


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


def bench(stack, z: np.ndarray, conds=None) -> BenchReport:
    """Time both engines on one latent grid (model build and mel excluded)."""
    h, w = z.shape
    t0 = time.perf_counter()
    naive_stats = SynthStats()
    x_naive = stack_forward(z, conds, stack, stats=naive_stats)
    t1 = time.perf_counter()
    queued_stats = SynthStats()
    x_queued = synth_queued(z, conds, stack, stats=queued_stats)
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
