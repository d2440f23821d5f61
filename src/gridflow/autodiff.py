"""Reverse-mode automatic differentiation over a small numpy op set.

Eager tape: every op computes its numpy result immediately and, while a tape
is active, appends a node holding the output, the parent tensors, and a
backward closure. backward() replays the nodes in exact reverse recording
order, accumulating gradients in an id-keyed dict, so no gradient state
leaks between training steps; each node's incoming gradient is dropped once
the node has used it. Whatever a node's closure keeps stays alive until the
tape is dropped. For the small ops here that is their inputs; a whole conv
net is one node (network.net_forward) that keeps only its gate outputs, its
last layer's input and its skip sum.

The op set is exactly what the engine needs: add, sub, mul, exp, sigmoid,
leaky ReLU, sums, shape ops, a row shift, a row permutation, and dilated 2-D
convolution (the mel upsampler). Every convolution, here and in network.py,
writes its input's width taps once into a zero-bordered buffer (width_taps)
and accumulates kh GEMMs over height taps that are views of it (tap_rows).
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from .errors import NumericalError


class Tensor:
    """Array node in the compute graph; a leaf unless produced by an op."""

    __slots__ = ("data", "node_id")

    def __init__(self, data: np.ndarray, node_id: int | None = None):
        self.data = np.asarray(data)
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

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


class _Node:
    __slots__ = ("out", "parents", "backward_fn", "op")

    def __init__(self, out, parents, backward_fn, op):
        self.out = out
        self.parents = parents
        self.backward_fn = backward_fn
        self.op = op


class Tape:
    """Linear record of ops; context manager that activates recording."""

    def __init__(self, check_values: bool = False):
        self.nodes: list[_Node] = []
        self.params: dict[str, Parameter] = {}
        self.loss: Tensor | None = None
        # check_values: verify every node output is finite (slow path used to
        # locate the op that first produced a NaN/inf).
        self.check_values = check_values

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


@contextmanager
def paused():
    """Run ops untaped inside the block; yields the tape that was active, or None."""
    global _ACTIVE
    tape, _ACTIVE = _ACTIVE, None
    try:
        yield tape
    finally:
        _ACTIVE = tape


def _record(op: str, out_data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    out = Tensor(out_data)
    tape = _ACTIVE
    if tape is not None:
        out.node_id = len(tape.nodes)
        tape.nodes.append(_Node(out, parents, backward_fn, op))
        if tape.check_values and not np.all(np.isfinite(out_data)):
            raise NumericalError(
                f"non-finite value produced by op '{op}' at node {out.node_id}"
            )
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


def sub(a, b) -> Tensor:
    at = _wrap(a, like=b if isinstance(b, Tensor) else None)
    bt = _wrap(b, like=at)
    out = at.data - bt.data

    def bk(g):
        return _unbroadcast(g, at.data.shape), _unbroadcast(-g, bt.data.shape)

    return _record("sub", out, (at, bt), bk)


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


# ---------------------------------------------------------------------------
# pointwise


def exp(a) -> Tensor:
    at = _wrap(a)
    out = np.exp(at.data)

    def bk(g):
        return (g * out,)

    return _record("exp", out, (at,), bk)


def logistic(a: np.ndarray) -> np.ndarray:
    """Sigmoid of an array in the tanh form: one transcendental, no overflow at either tail."""
    return 0.5 * (1.0 + np.tanh(0.5 * a))


def sigmoid(a) -> Tensor:
    at = _wrap(a)
    out = logistic(at.data)

    def bk(g):
        return (g * out * (1.0 - out),)

    return _record("sigmoid", out, (at,), bk)


def leaky_relu(a, slope: float) -> Tensor:
    at = _wrap(a)
    out = np.where(at.data >= 0, at.data, slope * at.data)

    def bk(g):
        return (g * np.where(at.data >= 0, 1.0, slope).astype(g.dtype),)

    return _record("leaky_relu", out, (at,), bk)


# ---------------------------------------------------------------------------
# reductions and shape ops


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    at = _wrap(a)
    out = at.data.sum(axis=axis, keepdims=keepdims)

    def bk(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, at.data.shape).astype(at.data.dtype),)

    return _record("sum", out, (at,), bk)


def reshape(a, shape) -> Tensor:
    at = _wrap(a)
    old = at.data.shape

    def bk(g):
        return (np.asarray(g).reshape(old),)

    return _record("reshape", at.data.reshape(shape), (at,), bk)


def transpose(a, axes) -> Tensor:
    at = _wrap(a)
    inv = np.argsort(axes)

    def bk(g):
        return (np.transpose(g, inv),)

    return _record("transpose", np.transpose(at.data, axes), (at,), bk)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Slice `length` entries from `start` along `axis`."""
    at = _wrap(a)
    idx = [slice(None)] * at.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def bk(g):
        gx = np.zeros_like(at.data)
        gx[idx] = g
        return (gx,)

    return _record("narrow", at.data[idx], (at,), bk)


def shift_down(a) -> Tensor:
    """Shift rows (axis -2) down one step, filling the first row with zeros.

    Output row i equals input row i-1; the last input row falls off. This is
    what makes the per-row transform depend only on rows strictly above.
    """
    at = _wrap(a)
    x = at.data
    out = np.zeros_like(x)
    out[..., 1:, :] = x[..., :-1, :]

    def bk(g):
        gx = np.zeros_like(x)
        gx[..., :-1, :] = g[..., 1:, :]
        return (gx,)

    return _record("shift_down", out, (at,), bk)


def permute_rows(a, row_map: np.ndarray) -> Tensor:
    """Scatter rows along axis -2: out[row_map[i]] = in[i]."""
    at = _wrap(a)
    rm = np.asarray(row_map)
    out = np.empty_like(at.data)
    out[..., rm, :] = at.data

    def bk(g):
        return (np.asarray(g)[..., rm, :],)

    return _record("permute_rows", out, (at,), bk)


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


def conv2d(x, w, dilation=(1, 1), pad=((0, 0), (0, 0))) -> Tensor:
    """Dilated 2-D convolution: x (C,H,W), w (O,C,kh,kw) -> (O,Ho,Wo).

    Padding is explicit per side: ((top, bottom), (left, right)). The caller
    chooses top-only height padding for causal stacks and symmetric width
    padding for same-width output. tap_conv forward, tap_conv_adjoint back.
    """
    xt, wt = _wrap(x), _wrap(w)
    xd, wd = xt.data, wt.data
    o_ch, c_ch, kh, kw = wd.shape
    if xd.shape[0] != c_ch:
        raise ValueError(f"channel mismatch: input {xd.shape[0]}, filter {c_ch}")
    (pt, pb), (pl, pr) = pad
    _, h, w_in = xd.shape
    h_out = h + pt + pb - (kh - 1) * dilation[0]
    w_out = w_in + pl + pr - (kw - 1) * dilation[1]
    row_offs, col_offs = tap_offsets(kh, dilation[0], pt), tap_offsets(kw, dilation[1], pl)
    filts = tap_filters(wd)
    out = tap_conv(filts, tap_rows(width_taps(xd, col_offs, w_out, pt, pb), row_offs))

    def bk(g):
        g = np.asarray(g).reshape(o_ch, -1)
        gw, gx = tap_conv_adjoint(g, filts, xd, row_offs, col_offs, w_out, pb)
        return gx, gw

    return _record("conv2d", out.reshape(o_ch, h_out, w_out), (xt, wt), bk)


# ---------------------------------------------------------------------------
# recording and backward


def record_forward(loss_fn, params) -> tuple[Tensor, Tape]:
    """Run `loss_fn` under a fresh tape and return (loss, tape).

    The fast path checks only the final loss for finiteness. If the loss is
    non-finite, the closure is re-run with per-node checking to report the
    first op that produced a bad value; `loss_fn` must be deterministic for
    the rerun to be faithful.
    """
    tape = Tape()
    tape.register(params)
    with tape:
        loss = loss_fn()
    if not np.all(np.isfinite(loss.data)):
        check_tape = Tape(check_values=True)
        check_tape.register(params)
        with check_tape:
            loss_fn()  # raises NumericalError at the offending node
        raise NumericalError("loss is non-finite but rerun did not reproduce it")
    tape.loss = loss
    return loss, tape


def backward(tape: Tape, loss: Tensor | None = None) -> dict[str, np.ndarray]:
    """Accumulate d(loss)/d(param) for every registered parameter.

    Walks the tape in exact reverse recording order. Gradients live in a
    per-call dict keyed by tensor identity, so repeated backward calls and
    interleaved tapes cannot contaminate each other. A node's output
    gradient is freed as soon as the node has passed it on; leaf gradients
    stay. Parameters that the loss does not depend on get zero gradients.
    """
    if loss is None:
        loss = tape.loss
    if loss is None:
        raise ValueError("no loss tensor recorded on this tape")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
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
