"""In-memory span tracing of gridflow's layers, applied from outside.

A span is (name, start, end, parent index). The tracer replaces a layer
function at the module attribute its callers look it up through (for
example ``gridflow.flow.net_forward``, which is what ``flow_inverse``
calls), records one span per call, and puts the original back on close.
Nothing in the package is edited. A layer's self time is its span time
minus the time of the spans nested directly inside it; calls are nested
and single-threaded, so child spans never overlap.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import gridflow.autodiff
import gridflow.conditioner
import gridflow.flow
import gridflow.model
import gridflow.network
import gridflow.synth
import gridflow.train


def _conv2d_flop(args, kwargs, out) -> dict[str, int]:
    o_ch, c_ch, kh, kw = args[1].shape
    _, h_out, w_out = out.shape
    return {"autodiff.conv2d_flop": 2 * o_ch * c_ch * kh * kw * h_out * w_out}


# (owner, attribute, span name, counter function or None). The attribute is
# the one the calling module reads at call time, so the wrapper is seen.
LAYER_FUNCTIONS = [
    (gridflow.model, "build_model", "model.build_model", None),
    (gridflow.model, "save_checkpoint", "model.save_checkpoint", None),
    (gridflow.model, "load_checkpoint", "model.load_checkpoint", None),
    (gridflow.conditioner, "mel_spectrogram", "conditioner.mel_spectrogram", None),
    (gridflow.train, "mel_spectrogram", "conditioner.mel_spectrogram", None),
    (gridflow.model, "upsample", "conditioner.upsample", None),
    (gridflow.conditioner, "conditioner_grids_for_length", "conditioner.grids", None),
    (gridflow.synth, "synth_queued", "synth.synth_queued", None),
    (gridflow.synth, "compile_net", "synth.compile_net", None),
    (gridflow.synth, "_row_step", "synth.row_step", None),
    (gridflow.flow, "flow_forward", "flow.flow_forward", None),
    (gridflow.flow, "flow_inverse", "flow.flow_inverse", None),
    (gridflow.flow, "net_forward", "network.net_forward", None),
    (gridflow.network.NormedWeight, "tensor", "network.weight_norm", None),
    (gridflow.autodiff, "conv2d", "autodiff.conv2d", _conv2d_flop),
    (gridflow.autodiff, "record_forward", "autodiff.record_forward", None),
    (gridflow.autodiff, "backward", "autodiff.backward", None),
    (gridflow.train, "adam_step", "train.adam_step", None),
]


class Tracer:
    """Keeps spans and counters in memory; install() also wraps the layer functions."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: list[tuple[int, str, int]] = []  # (span index, name, amount)
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._open.pop()
        self.spans[idx][2] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def count(self, name: str, amount: int) -> None:
        """Add to a counter, attributed to the innermost open span."""
        self.counters.append((self._open[-1] if self._open else -1, name, int(amount)))

    def install(self) -> None:
        for owner, attr, name, counter in LAYER_FUNCTIONS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrapper(self, fn, name, counter):
        tracer = self

        # open/close, not the context manager: a third of the cost per span,
        # and a naive request makes about 10^4 spans
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
                if counter is not None:
                    for cname, amount in counter(args, kwargs, out).items():
                        tracer.count(cname, amount)
                return out
            finally:
                tracer.close(idx)

        traced.__wrapped__ = fn
        return traced


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def root_of(spans: list[list]) -> list[int]:
    """Index of each span's outermost ancestor (itself for a root)."""
    roots = []
    for i, span in enumerate(spans):
        parent = span[3]
        roots.append(i if parent < 0 else roots[parent])
    return roots


def summarize(spans: list[list], counters, roots: set[int]) -> dict:
    """Per span name under the given roots: calls, total time, self time, counters."""
    selfs = self_times(spans)
    top = root_of(spans)
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, span in enumerate(spans):
        if top[i] not in roots:
            continue
        row = table[span[0]]
        row["calls"] += 1
        row["self_s"] += selfs[i]
        row["total_s"] += span[2] - span[1]
    counts: dict[str, int] = defaultdict(int)
    for idx, name, amount in counters:
        if idx >= 0 and top[idx] in roots:
            counts[name] += amount
    return {"layers": dict(table), "counters": dict(counts)}
