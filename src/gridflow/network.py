"""Dilated 2-D convolution stack producing per-entry shift and log-scale.

Height is the causal axis: every conv pads only at the top by (k_h-1)*d_h,
and the stack is fed the row-shifted grid, so output row i depends only on
input rows strictly above i. Width is non-causal with symmetric padding.
Layers are gated (tanh * sigmoid) with residual and skip 1x1 projections;
the head is zero-initialized so a fresh net computes exactly (0, 0) and the
flow starts as the identity.

Weights use the w = g * v / ||v|| magnitude/direction form, with ||v|| taken
per output channel. The zero-initialized output head stays a plain weight:
the decomposition cannot represent v = 0.

net_forward is the taped forward that likelihood and training differentiate.
Sampling runs compiled_forward instead, a tape-free numpy forward over a net
that compile_net has materialized once; net_forward is its reference.
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
    """Weight-normalized tensor: g * v / ||v||, norm per output channel."""

    v: Parameter
    g: Parameter | None  # None = plain weight

    def tensor(self) -> Tensor:
        if self.g is None:
            return self.v
        axes = tuple(range(1, self.v.data.ndim))
        norm = ad.sqrt(ad.sum_(self.v * self.v, axis=axes, keepdims=True))
        g = ad.reshape(self.g, (len(self.g.data),) + (1,) * (self.v.data.ndim - 1))
        return self.v * g / norm

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


def net_forward(
    x_shifted,
    cond,
    params: ConvNetParams,
    collect_hidden: bool = False,
):
    """Map a row-shifted (h, w) grid to per-entry (mu, log_sigma).

    `cond` is an optional (M, h, w) conditioner grid added through each
    layer's 1x1 projection before the gate. With collect_hidden=True also
    returns the list of per-layer input grids (the rows the synthesis queues
    cache).
    """
    xt = x_shifted if isinstance(x_shifted, Tensor) else Tensor(np.asarray(x_shifted))
    h, w = xt.data.shape[-2], xt.data.shape[-1]
    kh, kw = params.kernel_h, params.kernel_w
    r_ch = params.residual_channels
    x = ad.conv2d(
        ad.reshape(xt, (1, h, w)), params.input_proj.tensor(), params.input_bias
    )
    hidden = []
    skip = None
    for layer in params.layers:
        if collect_hidden:
            hidden.append(x.data)
        pad_h = (kh - 1) * layer.dilation_h
        pad_w = ((kw - 1) // 2) * layer.dilation_w
        pre = ad.conv2d(
            x,
            layer.filter.tensor(),
            layer.bias,
            dilation=(layer.dilation_h, layer.dilation_w),
            pad=((pad_h, 0), (pad_w, pad_w)),
        )
        if cond is not None:
            if layer.cond_proj is None:
                raise ValidationError("net has no conditioner projections but cond given")
            pre = pre + ad.conv2d(cond, layer.cond_proj.tensor())
        gate_a = ad.narrow(pre, 0, 0, r_ch)
        gate_b = ad.narrow(pre, 0, r_ch, r_ch)
        hid = ad.tanh(gate_a) * ad.sigmoid(gate_b)
        x = x + ad.conv2d(hid, layer.res_proj.tensor(), layer.res_bias)
        s = ad.conv2d(hid, layer.skip_proj.tensor(), layer.skip_bias)
        skip = s if skip is None else skip + s
    head = ad.conv2d(ad.relu(skip), params.skip_head.tensor(), params.skip_head_bias)
    out = ad.conv2d(ad.relu(head), params.out_head, params.out_head_bias)
    mu = ad.reshape(ad.narrow(out, 0, 0, 1), (h, w))
    log_sigma = ad.reshape(ad.narrow(out, 0, 1, 1), (h, w))
    if collect_hidden:
        return mu, log_sigma, hidden
    return mu, log_sigma


# ---------------------------------------------------------------------------
# compiled numpy forward, shared by both sampling engines


@dataclass
class CompiledLayer:
    filt: np.ndarray  # (2R, kh*kw*R), columns ordered (height tap, width tap, channel)
    bias: np.ndarray  # (2R,)
    cond: np.ndarray | None  # (2R, M)
    res_w: np.ndarray  # (R, R)
    res_b: np.ndarray
    skip_w: np.ndarray
    skip_b: np.ndarray
    dilation_h: int
    dilation_w: int


@dataclass
class CompiledNet:
    input_w: np.ndarray  # (R,)
    input_b: np.ndarray
    layers: list[CompiledLayer]
    skip_head_w: np.ndarray  # (R, R)
    skip_head_b: np.ndarray
    out_w: np.ndarray  # (2, R)
    out_b: np.ndarray
    kernel_h: int
    kernel_w: int


def compile_net(net: ConvNetParams) -> CompiledNet:
    """Materialize weight norm once and flatten each filter for one GEMM per layer."""

    def proj(w: NormedWeight) -> np.ndarray:
        return w.tensor().data[:, :, 0, 0]

    layers = []
    for layer in net.layers:
        filt = layer.filter.tensor().data
        layers.append(
            CompiledLayer(
                filt=filt.transpose(0, 2, 3, 1).reshape(filt.shape[0], -1),
                bias=layer.bias.data,
                cond=None if layer.cond_proj is None else proj(layer.cond_proj),
                res_w=proj(layer.res_proj),
                res_b=layer.res_bias.data,
                skip_w=proj(layer.skip_proj),
                skip_b=layer.skip_bias.data,
                dilation_h=layer.dilation_h,
                dilation_w=layer.dilation_w,
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
        kernel_h=net.kernel_h,
        kernel_w=net.kernel_w,
    )


def cond_biases(cnet: CompiledNet, cond) -> list[np.ndarray] | None:
    """Fold an (M, h, w) conditioner grid into per-layer (2R, h, w) gate biases."""
    if cond is None:
        return None
    if any(layer.cond is None for layer in cnet.layers):
        raise ValidationError("net has no conditioner projections but cond given")
    cd = cond.data if isinstance(cond, Tensor) else np.asarray(cond)
    return [np.tensordot(layer.cond, cd, axes=(1, 0)) for layer in cnet.layers]


def grid_taps(li: int, x: np.ndarray, delays) -> np.ndarray:
    """Height taps of a whole (C, h, w) layer input: x moved down by each delay."""
    n = x.shape[1]
    taps = np.zeros((len(delays),) + x.shape, dtype=x.dtype)
    for a, d in enumerate(delays):
        if d < n:
            taps[a, :, d:] = x[:, : n - d]
    return taps


def _width_taps(taps: np.ndarray, kw: int, dw: int) -> np.ndarray:
    """(kh, C, n, w) height taps -> (kh, kw, C, n, w), each width offset zero-padded."""
    w = taps.shape[-1]
    pad = (kw - 1) // 2 * dw
    cols = np.zeros((taps.shape[0], kw) + taps.shape[1:], dtype=taps.dtype)
    for b in range(kw):
        off = b * dw - pad
        lo, hi = max(0, -off), min(w, w - off)
        if lo < hi:
            cols[:, b, ..., lo:hi] = taps[..., lo + off : hi + off]
    return cols


def compiled_forward(cnet: CompiledNet, rows: np.ndarray, cond_rows=None, taps=grid_taps):
    """Tape-free net_forward: row-shifted (n, w) rows -> (mu, log_sigma), each (n, w).

    Layer li's height taps come from taps(li, x, delays), where x is the
    layer's (R, n, w) input for these rows and delays lists, oldest first,
    how many rows above x each tap sits; it returns (kh, R, n, w), zeros
    above the first grid row. The default reads them from x itself, so
    `rows` is the whole shifted grid; the queued sampler passes one row and
    reads its ring buffers. cond_rows holds cond_biases for the same rows.
    """
    n, w = rows.shape
    kh, kw = cnet.kernel_h, cnet.kernel_w
    x = cnet.input_w[:, None, None] * rows + cnet.input_b[:, None, None]
    skip = 0.0
    for li, layer in enumerate(cnet.layers):
        r_ch = layer.res_w.shape[0]
        hs = taps(li, x, [(kh - 1 - a) * layer.dilation_h for a in range(kh)])
        cols = _width_taps(hs, kw, layer.dilation_w).reshape(-1, n * w)
        pre = (layer.filt @ cols).reshape(2 * r_ch, n, w) + layer.bias[:, None, None]
        if cond_rows is not None:
            pre = pre + cond_rows[li]
        hid = (np.tanh(pre[:r_ch]) * ad.sigmoid(pre[r_ch:]).data).reshape(r_ch, n * w)
        x = x + (layer.res_w @ hid + layer.res_b[:, None]).reshape(r_ch, n, w)
        skip = skip + layer.skip_w @ hid + layer.skip_b[:, None]
    head = cnet.skip_head_w @ np.maximum(skip, 0.0) + cnet.skip_head_b[:, None]
    out = cnet.out_w @ np.maximum(head, 0.0) + cnet.out_b[:, None]
    return out[0].reshape(n, w), out[1].reshape(n, w)
