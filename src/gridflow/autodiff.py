"""Reverse-mode automatic differentiation: a tape of whole-clip nodes.

Eager tape: while a tape is active, each recorded op appends a node holding
its output, its parent tensors and a backward closure. backward() replays
the nodes in exact reverse recording order, accumulating gradients in an
id-keyed dict, so no gradient state leaks between training steps; each
node's incoming gradient is dropped once the node has used it. The engine
records one node per clip (model.grid_nll), whose closure runs the
hand-written backwards; add and mul sum and scale clip losses. While
recording() holds, the forwards keep what their backwards read, and the
backwards drop it as they use it.

Also here is the one convolution: conv2d, which runs the mel upsampler,
writes its input's width taps once into a zero-bordered buffer (width_taps)
and accumulates kh GEMMs over height taps that are views of it (tap_rows).
The compiled net in network.py runs the same helpers, and tap_conv_adjoint
is the backward of both.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

import numpy as np

from .errors import NumericalError


class Tensor:
    """Array node in the compute graph; a leaf unless produced by an op."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data)

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Parameter(Tensor):
    """Trainable leaf with a stable name used for checkpoints and gradients."""

    __slots__ = ("name",)

    def __init__(self, data: np.ndarray, name: str):
        super().__init__(np.asarray(data))
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


_Node = namedtuple("_Node", "out parents backward_fn op")


class Tape:
    """Linear record of ops; context manager that activates recording."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.params: dict[str, Parameter] = {}
        self.loss: Tensor | None = None

    def register(self, params) -> None:
        """Register parameters so backward() reports a gradient for each."""
        for p in params:
            if p.name in self.params and self.params[p.name] is not p:
                raise ValueError(f"duplicate parameter name {p.name!r}")
            self.params[p.name] = p

    def __enter__(self):
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a tape is already active")
        _ACTIVE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE
        _ACTIVE = None
        return False


_ACTIVE: Tape | None = None


def _record(op: str, out_data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    out = Tensor(out_data)
    if _ACTIVE is not None:
        _ACTIVE.nodes.append(_Node(out, parents, backward_fn, op))
    return out


def _wrap(x, like: Tensor | None = None) -> Tensor:
    """Wrap a constant as a leaf Tensor, matching the dtype of `like`."""
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else None
    return Tensor(np.asarray(x, dtype=dtype))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    g = np.asarray(g)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b) -> Tensor:
    at = _wrap(a, like=b if isinstance(b, Tensor) else None)
    bt = _wrap(b, like=at)
    out = at.data + bt.data

    def bk(g):
        return _unbroadcast(g, at.data.shape), _unbroadcast(g, bt.data.shape)

    return _record("add", out, (at, bt), bk)


def mul(a, b) -> Tensor:
    at = _wrap(a, like=b if isinstance(b, Tensor) else None)
    bt = _wrap(b, like=at)
    out = at.data * bt.data

    def bk(g):
        return (
            _unbroadcast(g * bt.data, at.data.shape),
            _unbroadcast(g * at.data, bt.data.shape),
        )

    return _record("mul", out, (at, bt), bk)


def logistic(a: np.ndarray) -> np.ndarray:
    """Sigmoid of an array in the tanh form: one transcendental, no overflow at either tail."""
    return 0.5 * (1.0 + np.tanh(0.5 * a))


# ---------------------------------------------------------------------------
# convolution: kh GEMMs over views of one width-tap buffer; network.py shares these


def tap_offsets(k: int, dilation: int, pad: int) -> tuple[int, ...]:
    """Where each of k taps reads along one axis: input i + a * dilation - pad."""
    return tuple(a * dilation - pad for a in range(k))


# cached: the samplers ask for the same spans for every layer of every row
@lru_cache(maxsize=1024)
def _spans(offsets: tuple[int, ...], n: int, size: int) -> tuple:
    """(tap, output slice, input slice) of each tap that reads inside an n-long input."""
    spans = []
    for a, off in enumerate(offsets):
        lo, hi = max(0, -off), min(size, n - off)
        if lo < hi:
            spans.append((a, slice(lo, hi), slice(lo + off, hi + off)))
    return tuple(spans)


@lru_cache(maxsize=1024)
def live_taps(offsets: tuple[int, ...], n: int) -> tuple[int, int, tuple[int, ...]]:
    """(first, end, offsets) of the taps with |offset| < n: on an n-wide input the
    others read only the zero border. They are contiguous around the centred tap."""
    live = [a for a, off in enumerate(offsets) if abs(off) < n]
    return live[0], live[-1] + 1, offsets[live[0] : live[-1] + 1]


def width_taps(x: np.ndarray, offsets, size: int, top: int = 0, bottom: int = 0, out=None):
    """Zero-bordered (kw, C, top + H + bottom, size) buffer holding x[c, i, j + offsets[a]]."""
    c, h, w = x.shape
    if out is None:
        out = np.zeros((len(offsets), c, top + h + bottom, size), dtype=x.dtype)
    for a, dst, src in _spans(offsets, w, size):
        out[a, :, top : top + h, dst] = x[..., src]
    return out


def tap_rows(buf: np.ndarray, row_offsets) -> list[np.ndarray]:
    """Height taps of a width_taps buffer with -row_offsets[0] top rows, as (kw*C, n*W) views."""
    kw, c, rows, w = buf.shape
    top, n = -row_offsets[0], rows + row_offsets[0] - row_offsets[-1]
    flat = buf.reshape(kw * c, rows * w)
    return [flat[:, (top + off) * w : (top + off + n) * w] for off in row_offsets]


def tap_filters(w: np.ndarray) -> np.ndarray:
    """(O, C, kh, kw) filter -> (kh, O, kw * C): one contiguous GEMM block per height tap."""
    o_ch, c_ch, kh, kw = w.shape
    return np.ascontiguousarray(w.transpose(2, 0, 3, 1)).reshape(kh, o_ch, kw * c_ch)


def tap_conv(filts: np.ndarray, taps: list[np.ndarray]) -> np.ndarray:
    """The convolution as kh accumulated GEMMs: the sum of filts[a] @ taps[a]."""
    out = filts[0] @ taps[0]
    for f, t in zip(filts[1:], taps[1:]):
        out += f @ t
    return out


def tap_conv_adjoint(g, filts, x, row_offsets, col_offsets, size, bottom=0):
    """Filter (O, C, kh, kw) and x gradients of tap_conv's output g over x's width_taps."""
    (c_ch, h, w), top = x.shape, -row_offsets[0]
    buf = width_taps(x, col_offsets, size, top, bottom)
    d_buf, d_w, d_x = np.zeros_like(buf), [], np.zeros_like(x)
    for f, tap, d_tap in zip(filts, tap_rows(buf, row_offsets), tap_rows(d_buf, row_offsets)):
        d_w.append(g @ tap.T)
        d_tap += f.T @ g
    for a, dst, src in _spans(col_offsets, w, size):  # width_taps' adjoint
        d_x[..., src] += d_buf[a, :, top : top + h, dst]
    return np.stack(d_w).reshape(len(filts), len(g), -1, c_ch).transpose(1, 3, 0, 2), d_x


def _conv_geometry(x, w, dilation, pad):
    """conv2d's output width, then its height and width tap offsets."""
    _, c_ch, kh, kw = w.shape
    if x.shape[0] != c_ch:
        raise ValueError(f"channel mismatch: input {x.shape[0]}, filter {c_ch}")
    w_out = x.shape[2] + sum(pad[1]) - (kw - 1) * dilation[1]
    return w_out, tap_offsets(kh, dilation[0], pad[0][0]), tap_offsets(kw, dilation[1], pad[1][0])


def conv2d(x, w, dilation=(1, 1), pad=((0, 0), (0, 0))) -> np.ndarray:
    """Dilated 2-D convolution: x (C,H,W), w (O,C,kh,kw) -> (O,Ho,Wo).

    Padding is explicit per side: ((top, bottom), (left, right)). The caller
    chooses top-only height padding for causal stacks and symmetric width
    padding for same-width output. conv2d_adjoint is its backward.
    """
    w_out, rows, cols = _conv_geometry(x, w, dilation, pad)
    buf = width_taps(x, cols, w_out, pad[0][0], pad[0][1])
    return tap_conv(tap_filters(w), tap_rows(buf, rows)).reshape(len(w), -1, w_out)


def conv2d_adjoint(g, x, w, dilation=(1, 1), pad=((0, 0), (0, 0))):
    """(filter gradient, input gradient) of conv2d(x, w) for its output gradient g."""
    w_out, rows, cols = _conv_geometry(x, w, dilation, pad)
    g = g.reshape(len(w), -1)
    return tap_conv_adjoint(g, tap_filters(w), x, rows, cols, w_out, pad[0][1])


# ---------------------------------------------------------------------------
# recording and backward


def recording() -> bool:
    """Whether a tape records: forwards then keep what their backwards read."""
    return _ACTIVE is not None


def record_forward(loss_fn, params) -> tuple[Tensor, Tape]:
    """Run `loss_fn` under a fresh tape and return (loss, tape).

    A non-finite loss raises NumericalError. A non-finite net output has
    already raised inside the forward, naming its flow, row and column.
    """
    tape = Tape()
    tape.register(params)
    with tape:
        loss = loss_fn()
    if not np.all(np.isfinite(loss.data)):
        raise NumericalError("loss is non-finite")
    tape.loss = loss
    return loss, tape


def backward(tape: Tape) -> dict[str, np.ndarray]:
    """Accumulate d(loss)/d(param) for every registered parameter.

    Walks the tape in exact reverse recording order. Gradients live in a
    per-call dict keyed by tensor identity, so repeated backward calls and
    interleaved tapes cannot contaminate each other. A node's output
    gradient is freed as soon as the node has passed it on; leaf gradients
    stay. Parameters that the loss does not depend on get zero gradients.
    """
    if tape.loss is None:
        raise ValueError("no loss tensor recorded on this tape")
    grads: dict[int, np.ndarray] = {id(tape.loss): np.ones_like(tape.loss.data)}
    for node in reversed(tape.nodes):
        g = grads.pop(id(node.out), None)
        if g is None:
            continue
        parent_grads = node.backward_fn(g)
        for parent, pg in zip(node.parents, parent_grads):
            if pg is None:
                continue
            acc = grads.get(id(parent))
            if acc is None:
                grads[id(parent)] = np.asarray(pg, dtype=parent.data.dtype)
            else:
                grads[id(parent)] = acc + pg
    return {
        name: grads.get(id(p), np.zeros_like(p.data)) for name, p in tape.params.items()
    }
