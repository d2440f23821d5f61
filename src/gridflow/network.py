"""Dilated 2-D convolution stack producing per-entry shift and log-scale.

Height is the causal axis: every conv pads only at the top by (k_h-1)*d_h,
and the stack is fed the row-shifted grid, so output row i depends only on
input rows strictly above i. Width is non-causal with symmetric padding.
Layers are gated (tanh * sigmoid) with residual and skip 1x1 projections;
the head is zero-initialized so a fresh net computes exactly (0, 0) and the
flow starts as the identity.

Weights use the w = g * v / ||v|| form, norm per output channel, computed
only by NormedWeight.tensor (one tape node) and differentiated only by
NormedWeight.adjoint. The zero-initialized output head stays a plain weight:
the decomposition cannot represent v = 0.

Every forward runs compiled_forward, a numpy forward over a net that
compile_net has materialized once (weight norm applied, each filter
flattened for one GEMM per layer). The samplers call it directly.
net_forward, which likelihood and training call, wraps it as one tape node:
while a tape records, that node keeps each layer's input and gate outputs,
and its hand-written backward rebuilds each layer's tap columns from the
saved input with ad.stack_shifts, as ad.conv2d does. The op-by-op taped net
lives on in the tests as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import ValidationError

WIDTH_DILATION_CYCLE = [1, 2, 4, 8, 16, 32, 64, 128]
INIT_SCALE = 0.05


@dataclass
class NormedWeight:
    """Weight-normalized tensor g * v / ||v||, norm per output channel; one tape node."""

    v: Parameter
    g: Parameter | None  # None = plain weight

    def tensor(self) -> Tensor:
        if self.g is None:
            return self.v
        v = self.v.data
        norm = np.sqrt((v * v).sum(axis=tuple(range(1, v.ndim)), keepdims=True))
        w = v * self.g.data.reshape(norm.shape) / norm
        return ad._record("weight_norm", w, (self.v, self.g), self.adjoint)

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
    filt: np.ndarray  # (2R, kh*kw*R), ad.flatten_filter of the normed filter
    bias: np.ndarray  # (2R,)
    cond: np.ndarray | None  # (2R, M)
    res_w: np.ndarray  # (R, R)
    res_b: np.ndarray
    skip_w: np.ndarray
    skip_b: np.ndarray
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
    """Materialize weight norm once and flatten each filter for one GEMM per layer."""

    def proj(w: NormedWeight) -> np.ndarray:
        return w.tensor().data[:, :, 0, 0]

    kh, kw = net.kernel_h, net.kernel_w
    layers = []
    for layer in net.layers:
        layers.append(
            CompiledLayer(
                filt=ad.flatten_filter(layer.filter.tensor().data),
                bias=layer.bias.data,
                cond=None if layer.cond_proj is None else proj(layer.cond_proj),
                res_w=proj(layer.res_proj),
                res_b=layer.res_bias.data,
                skip_w=proj(layer.skip_proj),
                skip_b=layer.skip_bias.data,
                row_offsets=ad.tap_offsets(kh, layer.dilation_h, (kh - 1) * layer.dilation_h),
                col_offsets=ad.tap_offsets(kw, layer.dilation_w, (kw - 1) // 2 * layer.dilation_w),
            )
        )
    return CompiledNet(
        input_w=net.input_proj.tensor().data[:, 0, 0, 0],
        input_b=net.input_bias.data,
        layers=layers,
        skip_head_w=proj(net.skip_head),
        skip_head_b=net.skip_head_bias.data,
        out_w=net.out_head.data[:, :, 0, 0],
        out_b=net.out_head_bias.data,
    )


def cond_biases(cnet: CompiledNet, cond) -> list[np.ndarray] | None:
    """Fold an (M, h, w) conditioner grid into per-layer (2R, h, w) gate biases."""
    if cond is None:
        return None
    if any(layer.cond is None for layer in cnet.layers):
        raise ValidationError("net has no conditioner projections but cond given")
    cd = cond.data if isinstance(cond, Tensor) else np.asarray(cond)
    return [np.tensordot(layer.cond, cd, axes=(1, 0)) for layer in cnet.layers]


def compiled_forward(
    cnet: CompiledNet, rows: np.ndarray, cond_rows=None, taps=None, saved=None
):
    """Tape-free forward: row-shifted (n, w) rows -> (mu, log_sigma), each (n, w).

    Layer li's height taps come from taps(li, x, offsets), where x is the
    layer's (R, n, w) input for these rows and offsets lists, oldest first,
    each tap's row offset (<= 0) from x's rows; it returns (kh, R, n, w),
    zeros above the first grid row. By default they are ad.stack_shifts of
    x itself, so `rows` is the whole shifted grid; the queued sampler passes
    one row and reads its ring buffers. The width taps are ad.stack_shifts
    of the height taps either way. cond_rows holds cond_biases for the same
    rows. If `saved` is a list, each layer's (input, tanh gate, sigmoid
    gate) is appended to it, then (skip sum, head before its ReLU): what
    net_forward's backward reads.
    """
    n, w = rows.shape
    x = cnet.input_w[:, None, None] * rows + cnet.input_b[:, None, None]
    skip = 0.0
    for li, layer in enumerate(cnet.layers):
        r_ch = layer.res_w.shape[0]
        at = layer.row_offsets
        hs = ad.stack_shifts(x, at, n, -2) if taps is None else taps(li, x, at)
        cols = ad.stack_shifts(hs, layer.col_offsets, w, -1).reshape(-1, n * w)
        pre = (layer.filt @ cols).reshape(2 * r_ch, n, w) + layer.bias[:, None, None]
        if cond_rows is not None:
            pre = pre + cond_rows[li]
        gate_t, gate_s = np.tanh(pre[:r_ch]), ad.sigmoid(pre[r_ch:]).data
        if saved is not None:
            saved.append((x, gate_t, gate_s))
        hid = (gate_t * gate_s).reshape(r_ch, n * w)
        x = x + (layer.res_w @ hid + layer.res_b[:, None]).reshape(r_ch, n, w)
        skip = skip + layer.skip_w @ hid + layer.skip_b[:, None]
    head = cnet.skip_head_w @ np.maximum(skip, 0.0) + cnet.skip_head_b[:, None]
    if saved is not None:
        saved.append((skip, head))
    out = cnet.out_w @ np.maximum(head, 0.0) + cnet.out_b[:, None]
    return out[0].reshape(n, w), out[1].reshape(n, w)


# ---------------------------------------------------------------------------
# the differentiable net: one tape node with a hand-written backward


def net_forward(x_shifted, cond, params: ConvNetParams) -> tuple[Tensor, Tensor]:
    """Map a row-shifted (h, w) grid to per-entry (mu, log_sigma) Tensors.

    `cond` is an optional (M, h, w) conditioner grid added through each
    layer's 1x1 projection before the gate. The forward is compiled_forward
    over the whole grid, with the tape paused. While a tape records, the
    whole net is then one node whose backward returns the gradients of the
    grid, the conditioner and every parameter.
    """
    xt = x_shifted if isinstance(x_shifted, Tensor) else Tensor(np.asarray(x_shifted))
    ct = cond if cond is None or isinstance(cond, Tensor) else Tensor(np.asarray(cond))
    rows = xt.data
    with ad.paused() as tape:
        cnet = compile_net(params)
        saved = None if tape is None else []
        mu, log_sigma = compiled_forward(cnet, rows, cond_biases(cnet, ct), saved=saved)
    if tape is None:
        return Tensor(mu), Tensor(log_sigma)
    leaves = params.parameters()

    def bk(g):
        d_rows, d_cond, grads = _net_backward(
            params, cnet, saved, rows, None if ct is None else ct.data, g
        )
        d_params = tuple(grads.get(id(p)) for p in leaves)
        return ((d_rows,) if ct is None else (d_rows, d_cond)) + d_params

    parents = ((xt,) if ct is None else (xt, ct)) + tuple(leaves)
    out = ad._record("net_forward", np.stack([mu, log_sigma]), parents, bk)
    h, w = rows.shape
    return (
        ad.reshape(ad.narrow(out, 0, 0, 1), (h, w)),
        ad.reshape(ad.narrow(out, 0, 1, 1), (h, w)),
    )


def _net_backward(net: ConvNetParams, cnet: CompiledNet, saved, rows, cond, g):
    """Backward of net_forward for the (2, h, w) gradient of (mu, log_sigma).

    Walks from the heads through the layers to the input projection. Returns
    (grid gradient, conditioner gradient or None, {id(parameter): gradient}).
    """
    n, w = rows.shape
    m = n * w
    grads: dict[int, np.ndarray] = {}

    def weight(nw: NormedWeight, dw: np.ndarray) -> None:
        grads.update(zip(map(id, nw.parameters()), nw.adjoint(dw)))

    d_out = g.reshape(2, m)
    skip, head = saved[-1]
    grads[id(net.out_head)] = (d_out @ np.maximum(head, 0.0).T).reshape(net.out_head.data.shape)
    grads[id(net.out_head_bias)] = d_out.sum(axis=1)
    d_head = (cnet.out_w.T @ d_out) * (head > 0)
    weight(net.skip_head, d_head @ np.maximum(skip, 0.0).T)
    grads[id(net.skip_head_bias)] = d_head.sum(axis=1)
    d_skip = (cnet.skip_head_w.T @ d_head) * (skip > 0)
    cond_flat = None if cond is None else cond.reshape(cond.shape[0], m)
    d_cond = None if cond is None else np.zeros_like(cond_flat)
    d_x = np.zeros_like(saved[0][0])  # gradient of the residual stream, (R, n, w)
    for layer, cl, (x, gate_t, gate_s) in zip(
        reversed(net.layers), reversed(cnet.layers), reversed(saved[:-1])
    ):
        r_ch = cl.res_w.shape[0]
        gate_t, gate_s = gate_t.reshape(r_ch, m), gate_s.reshape(r_ch, m)
        hid = gate_t * gate_s
        d_res = d_x.reshape(r_ch, m)
        weight(layer.skip_proj, d_skip @ hid.T)
        grads[id(layer.skip_bias)] = d_skip.sum(axis=1)
        weight(layer.res_proj, d_res @ hid.T)
        grads[id(layer.res_bias)] = d_res.sum(axis=1)
        d_hid = cl.skip_w.T @ d_skip + cl.res_w.T @ d_res
        d_pre = np.concatenate(
            [d_hid * gate_s * (1.0 - gate_t * gate_t), d_hid * gate_t * gate_s * (1.0 - gate_s)]
        )
        grads[id(layer.bias)] = d_pre.sum(axis=1)
        if cond is not None:
            weight(layer.cond_proj, d_pre @ cond_flat.T)
            d_cond += cl.cond.T @ d_pre
        cols = ad.stack_shifts(ad.stack_shifts(x, cl.row_offsets, n, -2), cl.col_offsets, w, -1)
        d_filt = d_pre @ cols.reshape(-1, m).T
        weight(layer.filter, ad.unflatten_filter(d_filt, layer.filter.v.data.shape))
        d_cols = ad.scatter_shifts((cl.filt.T @ d_pre).reshape(cols.shape), cl.col_offsets, w, -1)
        d_x += ad.scatter_shifts(d_cols, cl.row_offsets, n, -2)
    d_x = d_x.reshape(-1, m)
    weight(net.input_proj, d_x @ rows.reshape(m))
    grads[id(net.input_bias)] = d_x.sum(axis=1)
    d_rows = (cnet.input_w @ d_x).reshape(n, w)
    return d_rows, None if cond is None else d_cond.reshape(cond.shape), grads
