"""Dilated 2-D convolution stack producing per-entry shift and log-scale.

Height is the causal axis: every conv pads only at the top by (k_h-1)*d_h,
and the stack is fed the row-shifted grid, so output row i depends only on
input rows strictly above i. Width is non-causal with symmetric padding.
Layers are gated (tanh * sigmoid) with residual and skip 1x1 projections;
the head is zero-initialized so a fresh net computes exactly (0, 0) and the
flow starts as the identity.

Weights use the w = g * v / ||v|| form, norm per output channel, computed
only by NormedWeight.tensor and differentiated only by NormedWeight.adjoint.
The zero-initialized output head stays a plain weight: the decomposition
cannot represent v = 0.

Every forward runs compiled_forward, a numpy forward over a net that
compile_net has materialized once (weight norm applied, each filter split
per height tap): kh GEMMs over views of one width-tap buffer plus the
conditioner's projection of the flow's rows of the one conditioner grid, in
one accumulation. The buffer holds only the live width taps: on a grid w
columns wide a tap at offset |o| >= w reads only the zero border, so its
products are exact zeros and are skipped. The samplers call it directly.
net_forward, which likelihood and training call, runs it over the whole
grid; given a saved list it keeps each layer's gate outputs, the last
layer's input and the skip sum. net_backward walks the layers top-down,
dropping each layer's gates once used, and rebuilds each lower layer's
input from the additive residual stream, x_l = x_(l+1) - (res_proj_l hid_l
+ res_bias_l), as reversible residual nets do (Gomez et al. 2017);
ad.tap_conv_adjoint then rebuilds the layer's tap buffer from it, as
ad.conv2d does. Gradients add into one {id(parameter): gradient} dict
(add_grad). The op-by-op taped net lives on in the tests as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter
from .errors import ValidationError

WIDTH_DILATION_CYCLE = [1, 2, 4, 8, 16, 32, 64, 128]
INIT_SCALE = 0.05


def add_grad(grads: dict, p: Parameter, g: np.ndarray) -> None:
    """Add g into p's entry of a shared {id(parameter): gradient} dict."""
    old = grads.get(id(p))
    grads[id(p)] = g if old is None else old + g


@dataclass
class NormedWeight:
    """Weight-normalized tensor g * v / ||v||, norm per output channel."""

    v: Parameter
    g: Parameter | None  # None = plain weight

    def tensor(self) -> np.ndarray:
        v = self.v.data
        if self.g is None:
            return v
        norm = np.sqrt((v * v).sum(axis=tuple(range(1, v.ndim)), keepdims=True))
        return v * self.g.data.reshape(norm.shape) / norm

    def adjoint(self, dw: np.ndarray) -> tuple[np.ndarray, ...]:
        """Gradients of parameters() for a gradient dw of the weight (Salimans & Kingma 2016)."""
        v = self.v.data
        dw = dw.reshape(v.shape)
        if self.g is None:
            return (dw,)
        axes = tuple(range(1, v.ndim))
        norm = np.sqrt((v * v).sum(axis=axes, keepdims=True))
        u = v / norm  # w = g * u: dg = sum(dw * u), dv = (g / ||v||) (dw - u * dg)
        dg = (dw * u).sum(axis=axes, keepdims=True)
        return (self.g.data.reshape(norm.shape) / norm) * (dw - u * dg), dg.reshape(-1)

    def add_grad(self, grads: dict, dw: np.ndarray) -> None:
        """Add the adjoint of a weight gradient dw into grads."""
        for p, g in zip(self.parameters(), self.adjoint(dw)):
            add_grad(grads, p, g)

    def parameters(self) -> list[Parameter]:
        return [self.v] if self.g is None else [self.v, self.g]


@dataclass
class ConvLayerParams:
    """One gated dilated conv layer with conditioner, residual, skip."""

    filter: NormedWeight  # (2R, R, kh, kw)
    bias: Parameter  # (2R,)
    cond_proj: NormedWeight | None  # (2R, M, 1, 1); None when unconditioned
    res_proj: NormedWeight  # (R, R, 1, 1)
    res_bias: Parameter
    skip_proj: NormedWeight  # (R, R, 1, 1)
    skip_bias: Parameter
    dilation_h: int
    dilation_w: int


@dataclass
class ConvNetParams:
    """Full per-flow network: input projection, gated layers, output head."""

    input_proj: NormedWeight  # (R, 1, 1, 1)
    input_bias: Parameter
    layers: list[ConvLayerParams]
    skip_head: NormedWeight  # (R, R, 1, 1)
    skip_head_bias: Parameter
    out_head: Parameter  # (2, R, 1, 1), zero-init, plain weight
    out_head_bias: Parameter
    kernel_h: int
    kernel_w: int

    @property
    def residual_channels(self) -> int:
        return self.input_proj.v.data.shape[0]

    def parameters(self) -> list[Parameter]:
        out = self.input_proj.parameters() + [self.input_bias]
        for layer in self.layers:
            out += layer.filter.parameters() + [layer.bias]
            if layer.cond_proj is not None:
                out += layer.cond_proj.parameters()
            out += layer.res_proj.parameters() + [layer.res_bias]
            out += layer.skip_proj.parameters() + [layer.skip_bias]
        out += self.skip_head.parameters() + [self.skip_head_bias]
        out += [self.out_head, self.out_head_bias]
        return out


def receptive_field(kernel: int, dilations) -> int:
    """r = (k-1) * sum(d) + 1 rows for a chain of dilated convs."""
    return (kernel - 1) * int(sum(dilations)) + 1


def default_dilations(h: int, n_layers: int = 8, kernel: int = 3) -> list[int]:
    """Height dilation schedule whose receptive field covers height h.

    Uses the smallest power-of-two cycle [1, 2, ..., 2**s] (s capped at 7)
    repeated across the layers such that r >= h. Small heights get all-ones
    (h=8, h=16 -> [1]*8, r=17); h=32 -> [1,2,4,...] (r=35); h=64 ->
    [1,2,4,8,16,...] (r=77); heights of 512 and beyond use the full cycle.
    """
    if h < 1:
        raise ValidationError(f"height must be >= 1, got {h}")
    for s in range(8):
        cycle = [2**i for i in range(s + 1)]
        dil = [cycle[i % len(cycle)] for i in range(n_layers)]
        if receptive_field(kernel, dil) >= h:
            return dil
    return [2 ** min(i, 7) for i in range(n_layers)]


def width_dilations(n_layers: int) -> list[int]:
    """Width schedule: the fixed power-of-two cycle, truncated or repeated."""
    cyc = WIDTH_DILATION_CYCLE
    return [cyc[i % len(cyc)] for i in range(n_layers)]


def _normed(name: str, shape, rng, dtype, weight_norm: bool, scale=INIT_SCALE):
    v = Parameter((rng.standard_normal(shape) * scale).astype(dtype), f"{name}.v")
    if not weight_norm:
        return NormedWeight(v, None)
    axes = tuple(range(1, len(shape)))
    g0 = np.sqrt((v.data.astype(np.float64) ** 2).sum(axis=axes)).astype(dtype)
    # g starts at ||v|| so the normed weight initially equals v
    return NormedWeight(v, Parameter(g0, f"{name}.g"))


def init_conv_net(
    residual_channels: int,
    n_layers: int = 8,
    kernel_h: int = 3,
    kernel_w: int = 3,
    dilations_h=None,
    dilations_w=None,
    cond_channels: int | None = None,
    rng=None,
    dtype=np.float32,
    weight_norm: bool = True,
    name: str = "net",
) -> ConvNetParams:
    """Build a randomly initialized conv net (output head zeroed)."""
    if rng is None:
        rng = np.random.default_rng(0)
    r_ch = residual_channels
    if dilations_h is None:
        dilations_h = [1] * n_layers
    if dilations_w is None:
        dilations_w = width_dilations(n_layers)
    if len(dilations_h) != n_layers or len(dilations_w) != n_layers:
        raise ValidationError("dilation schedules must match the layer count")

    def zeros(shape, pname):
        return Parameter(np.zeros(shape, dtype=dtype), pname)

    layers = []
    for i, (dh, dw) in enumerate(zip(dilations_h, dilations_w)):
        base = f"{name}.layer{i}"
        cond = None
        if cond_channels:
            cond = _normed(
                f"{base}.cond_proj", (2 * r_ch, cond_channels, 1, 1), rng, dtype, weight_norm
            )
        layers.append(
            ConvLayerParams(
                filter=_normed(
                    f"{base}.filter", (2 * r_ch, r_ch, kernel_h, kernel_w), rng, dtype, weight_norm
                ),
                bias=zeros((2 * r_ch,), f"{base}.bias"),
                cond_proj=cond,
                res_proj=_normed(f"{base}.res_proj", (r_ch, r_ch, 1, 1), rng, dtype, weight_norm),
                res_bias=zeros((r_ch,), f"{base}.res_bias"),
                skip_proj=_normed(f"{base}.skip_proj", (r_ch, r_ch, 1, 1), rng, dtype, weight_norm),
                skip_bias=zeros((r_ch,), f"{base}.skip_bias"),
                dilation_h=int(dh),
                dilation_w=int(dw),
            )
        )
    return ConvNetParams(
        input_proj=_normed(f"{name}.input_proj", (r_ch, 1, 1, 1), rng, dtype, weight_norm),
        input_bias=zeros((r_ch,), f"{name}.input_bias"),
        layers=layers,
        skip_head=_normed(f"{name}.skip_head", (r_ch, r_ch, 1, 1), rng, dtype, weight_norm),
        skip_head_bias=zeros((r_ch,), f"{name}.skip_head_bias"),
        out_head=zeros((2, r_ch, 1, 1), f"{name}.out_head"),
        out_head_bias=zeros((2,), f"{name}.out_head_bias"),
        kernel_h=kernel_h,
        kernel_w=kernel_w,
    )


# ---------------------------------------------------------------------------
# compiled numpy forward, shared by the samplers and net_forward


@dataclass
class CompiledLayer:
    filts: np.ndarray  # (kh, 2R, kw*R), ad.tap_filters of the normed filter
    bias: np.ndarray  # (2R,)
    cond: np.ndarray | None  # (2R, M)
    proj_w: np.ndarray  # (2R, R): the residual projection over the skip projection
    proj_b: np.ndarray
    row_offsets: tuple[int, ...]  # ad.tap_offsets of the height taps, oldest row first
    col_offsets: tuple[int, ...]  # ad.tap_offsets of the width taps


@dataclass
class CompiledNet:
    input_w: np.ndarray  # (R,)
    input_b: np.ndarray
    layers: list[CompiledLayer]
    skip_head_w: np.ndarray  # (R, R)
    skip_head_b: np.ndarray
    out_w: np.ndarray  # (2, R)
    out_b: np.ndarray


def compile_net(net: ConvNetParams) -> CompiledNet:
    """Materialize weight norm once and split each filter into per-height-tap GEMM blocks."""

    def proj(w: NormedWeight) -> np.ndarray:
        return w.tensor()[:, :, 0, 0]

    kh, kw = net.kernel_h, net.kernel_w
    layers = []
    for layer in net.layers:
        layers.append(
            CompiledLayer(
                filts=ad.tap_filters(layer.filter.tensor()),
                bias=layer.bias.data,
                cond=None if layer.cond_proj is None else proj(layer.cond_proj),
                proj_w=np.concatenate([proj(layer.res_proj), proj(layer.skip_proj)]),
                proj_b=np.concatenate([layer.res_bias.data, layer.skip_bias.data]),
                row_offsets=ad.tap_offsets(kh, layer.dilation_h, (kh - 1) * layer.dilation_h),
                col_offsets=ad.tap_offsets(kw, layer.dilation_w, (kw - 1) // 2 * layer.dilation_w),
            )
        )
    return CompiledNet(
        input_w=net.input_proj.tensor()[:, 0, 0, 0],
        input_b=net.input_bias.data,
        layers=layers,
        skip_head_w=proj(net.skip_head),
        skip_head_b=net.skip_head_bias.data,
        out_w=net.out_head.data[:, :, 0, 0],
        out_b=net.out_head_bias.data,
    )


def compiled_forward(
    cnet: CompiledNet, rows: np.ndarray, cond_rows=None, taps=None, saved=None
):
    """Tape-free forward: row-shifted (n, w) rows -> (mu, log_sigma), each (n, w).

    Layer li's height taps come from taps(li, x, offsets), where x is the
    layer's (R, n, w) input for these rows and offsets lists, oldest first,
    each tap's row offset (<= 0) from x's rows; it returns the last k <= kh
    taps, (kw'*R, n*w) matrices of the live width taps (ad.live_taps), zeros
    above the first grid row, and the layer takes the last k filter blocks.
    By default they are all kh ad.tap_rows views of ad.width_taps of x
    itself, so `rows` is the shifted grid or its first rows; the queued
    sampler passes one row, reads its ring slots and drops the taps not yet
    written. cond_rows is the (M, n, w) conditioner for the same rows, a row
    range of a C-contiguous grid, so that each channel's rows are one BLAS
    operand as they are; each layer adds its projection of it to the tap
    GEMMs. If `saved` is a list, each layer's (tanh gate, sigmoid gate) is
    appended to it, then (last layer's input, skip sum): what net_backward
    reads.
    """
    n, w = rows.shape
    cond = None if cond_rows is None else cond_rows.reshape(len(cond_rows), n * w)
    if cond is not None and any(layer.cond is None for layer in cnet.layers):
        raise ValidationError("net has no conditioner projections but cond given")
    x = cnet.input_w[:, None, None] * rows + cnet.input_b[:, None, None]
    skip = 0.0
    for li, layer in enumerate(cnet.layers):
        r_ch = layer.proj_w.shape[1]
        at = layer.row_offsets
        lo, hi, cols = ad.live_taps(layer.col_offsets, w)
        if taps is None:
            hs = ad.tap_rows(ad.width_taps(x, cols, w, -at[0]), at)
        else:
            hs = taps(li, x, at)
        pre = ad.tap_conv(layer.filts[len(at) - len(hs) :, :, lo * r_ch : hi * r_ch], hs)
        if cond is not None:
            pre += layer.cond @ cond
        pre += layer.bias[:, None]
        gate_t, gate_s = np.tanh(pre[:r_ch]), ad.logistic(pre[r_ch:])
        if saved is not None:
            saved.append((gate_t.reshape(r_ch, n, w), gate_s.reshape(r_ch, n, w)))
            x_last = x
        hid = gate_t * gate_s
        res_skip = layer.proj_w @ hid + layer.proj_b[:, None]
        x = x + res_skip[:r_ch].reshape(r_ch, n, w)
        skip = skip + res_skip[r_ch:]
        del hs, pre, gate_t, gate_s, hid, res_skip  # freed before the next layer allocates
    head = cnet.skip_head_w @ np.maximum(skip, 0.0) + cnet.skip_head_b[:, None]
    if saved is not None:
        saved.append((x_last, skip))
    out = cnet.out_w @ np.maximum(head, 0.0) + cnet.out_b[:, None]
    return out[0].reshape(n, w), out[1].reshape(n, w)


# ---------------------------------------------------------------------------
# the differentiable net: compiled_forward plus a hand-written backward


def net_forward(rows, cond, net: ConvNetParams, saved=None) -> tuple[np.ndarray, np.ndarray]:
    """Map a row-shifted (h, w) grid to per-entry (mu, log_sigma) arrays.

    `cond` is an optional (M, h, w) conditioner grid added through each
    layer's 1x1 projection before the gate. Given a saved list, appends one
    entry for net_backward: the compiled net, the rows and compiled_forward's
    saved list. The conditioner is not kept; net_backward is handed it again.
    """
    cnet = compile_net(net)
    layers = None if saved is None else []
    mu, log_sigma = compiled_forward(cnet, rows, cond, saved=layers)
    if saved is not None:
        saved.append((net, cnet, rows, layers))
    return mu, log_sigma


def net_backward(saved: list, cond, d_mu, d_log_sigma, grads: dict):
    """Backward of net_forward(rows, cond, net, saved) for the gradients of (mu, log_sigma).

    Pops net_forward's entry and walks from the heads to the input, dropping
    each layer's gates once used. Adds parameter gradients into grads, the
    filter's dead width taps (ad.live_taps) as exact zeros; returns those of
    the rows and the conditioner (None if unconditioned).
    """
    net, cnet, rows, layers = saved.pop()
    n, w = rows.shape
    m = n * w
    d_out = np.stack([d_mu, d_log_sigma]).reshape(2, m)
    x, skip = layers.pop()  # the last layer's input; the head is compiled_forward's expression
    head = cnet.skip_head_w @ np.maximum(skip, 0.0) + cnet.skip_head_b[:, None]
    d_out_w = d_out @ np.maximum(head, 0.0).T
    add_grad(grads, net.out_head, d_out_w.reshape(net.out_head.data.shape))
    add_grad(grads, net.out_head_bias, d_out.sum(axis=1))
    d_head = (cnet.out_w.T @ d_out) * (head > 0)
    net.skip_head.add_grad(grads, d_head @ np.maximum(skip, 0.0).T)
    add_grad(grads, net.skip_head_bias, d_head.sum(axis=1))
    d_skip = (cnet.skip_head_w.T @ d_head) * (skip > 0)
    cond_flat = None if cond is None else cond.reshape(cond.shape[0], m)
    d_cond = None if cond is None else np.zeros_like(cond_flat)
    d_x = np.zeros_like(x)  # gradient of the residual stream, (R, n, w)
    for li, (layer, cl) in enumerate(zip(reversed(net.layers), reversed(cnet.layers))):
        r_ch = cl.proj_w.shape[1]
        gate_t, gate_s = (a.reshape(r_ch, m) for a in layers.pop())
        hid = gate_t * gate_s
        if li:  # this layer's input: the one above minus this layer's residual output
            x = x - (cl.proj_w[:r_ch] @ hid + cl.proj_b[:r_ch, None]).reshape(x.shape)
        d_res = d_x.reshape(r_ch, m)
        layer.skip_proj.add_grad(grads, d_skip @ hid.T)
        add_grad(grads, layer.skip_bias, d_skip.sum(axis=1))
        layer.res_proj.add_grad(grads, d_res @ hid.T)
        add_grad(grads, layer.res_bias, d_res.sum(axis=1))
        d_hid = cl.proj_w[r_ch:].T @ d_skip + cl.proj_w[:r_ch].T @ d_res
        d_pre = np.concatenate(
            [d_hid * gate_s * (1.0 - gate_t * gate_t), d_hid * gate_t * gate_s * (1.0 - gate_s)]
        )
        add_grad(grads, layer.bias, d_pre.sum(axis=1))
        if cond is not None:
            layer.cond_proj.add_grad(grads, d_pre @ cond_flat.T)
            d_cond += cl.cond.T @ d_pre
        lo, hi, cols = ad.live_taps(cl.col_offsets, w)
        d_filt = np.zeros_like(layer.filter.v.data)
        d_filt[..., lo:hi], d_in = ad.tap_conv_adjoint(
            d_pre, cl.filts[:, :, lo * r_ch : hi * r_ch], x, cl.row_offsets, cols, w
        )
        layer.filter.add_grad(grads, d_filt)
        d_x += d_in
    d_x = d_x.reshape(-1, m)
    net.input_proj.add_grad(grads, d_x @ rows.reshape(m))
    add_grad(grads, net.input_bias, d_x.sum(axis=1))
    d_rows = (cnet.input_w @ d_x).reshape(n, w)
    return d_rows, None if cond is None else d_cond.reshape(cond.shape)
