"""The generic tape ops and the model recorded op by op: the gradient oracle.

The engine records one node per clip (model.grid_nll) whose backward is
hand-written. Here every step is its own node instead, built on
autodiff._record, so the oracle's gradients come from the tape's generic
reverse walk: pointwise ops, sums, shape ops, the row shift and row
permutation, a taped conv2d, one weight_norm node per normed weight, the
conv net, the mel upsampler, the conditioner grids, one flow, the flow
stack and the whole-grid loss. The unit tests check each op against
central differences; the network, conditioner, flow and acceptance suites
check the hand-written backwards against these.
"""

import numpy as np

from gridflow import autodiff as ad
from gridflow.autodiff import Tensor, _record, _unbroadcast, _wrap
from gridflow.conditioner import LEAKY_SLOPE
from gridflow.errors import ValidationError
from gridflow.flow import LOG_2PI

# ---------------------------------------------------------------------------
# arithmetic and pointwise


def sub(a, b) -> Tensor:
    at = _wrap(a, like=b if isinstance(b, Tensor) else None)
    bt = _wrap(b, like=at)

    def bk(g):
        return _unbroadcast(g, at.data.shape), _unbroadcast(-g, bt.data.shape)

    return _record("sub", at.data - bt.data, (at, bt), bk)


def div(a, b) -> Tensor:
    at = _wrap(a, like=b if isinstance(b, Tensor) else None)
    bt = _wrap(b, like=at)

    def bk(g):
        return (
            _unbroadcast(g / bt.data, at.data.shape),
            _unbroadcast(-g * at.data / (bt.data * bt.data), bt.data.shape),
        )

    return _record("div", at.data / bt.data, (at, bt), bk)


def neg(a) -> Tensor:
    at = _wrap(a)
    return _record("neg", -at.data, (at,), lambda g: (-g,))


def exp(a) -> Tensor:
    at = _wrap(a)
    out = np.exp(at.data)
    return _record("exp", out, (at,), lambda g: (g * out,))


def sqrt(a) -> Tensor:
    at = _wrap(a)
    out = np.sqrt(at.data)
    return _record("sqrt", out, (at,), lambda g: (g / (2.0 * out),))


def tanh(a) -> Tensor:
    at = _wrap(a)
    out = np.tanh(at.data)
    return _record("tanh", out, (at,), lambda g: (g * (1.0 - out * out),))


def sigmoid(a) -> Tensor:
    at = _wrap(a)
    out = ad.logistic(at.data)
    return _record("sigmoid", out, (at,), lambda g: (g * out * (1.0 - out),))


def relu(a) -> Tensor:
    at = _wrap(a)
    return _record("relu", np.maximum(at.data, 0.0), (at,), lambda g: (g * (at.data > 0),))


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
    return _record("reshape", at.data.reshape(shape), (at,), lambda g: (g.reshape(old),))


def transpose(a, axes) -> Tensor:
    at = _wrap(a)
    inv = np.argsort(axes)
    return _record("transpose", at.data.transpose(axes), (at,), lambda g: (g.transpose(inv),))


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
    """Shift rows (axis -2) down one step, filling the first row with zeros."""
    at = _wrap(a)
    x = at.data
    out = np.zeros_like(x)
    out[..., 1:, :] = x[..., :-1, :]

    def bk(g):
        gx = np.zeros_like(x)
        gx[..., :-1, :] = g[..., 1:, :]
        return (gx,)

    return _record("shift_down", out, (at,), bk)


def permute_rows(a, row_map) -> Tensor:
    """Scatter rows along axis -2: out[row_map[i]] = in[i]."""
    at = _wrap(a)
    rm = np.asarray(row_map)
    out = np.empty_like(at.data)
    out[..., rm, :] = at.data
    return _record("permute_rows", out, (at,), lambda g: (np.asarray(g)[..., rm, :],))


# ---------------------------------------------------------------------------
# convolution and weight norm


def conv2d(x, w, dilation=(1, 1), pad=((0, 0), (0, 0))) -> Tensor:
    """ad.conv2d as a node whose backward is ad.conv2d_adjoint."""
    xt, wt = _wrap(x), _wrap(w)
    out = ad.conv2d(xt.data, wt.data, dilation=dilation, pad=pad)

    def bk(g):
        gw, gx = ad.conv2d_adjoint(np.asarray(g), xt.data, wt.data, dilation=dilation, pad=pad)
        return gx, gw

    return _record("conv2d", out, (xt, wt), bk)


def weight_norm(nw) -> Tensor:
    """A NormedWeight as one node whose backward is NormedWeight.adjoint."""
    return _record("weight_norm", nw.tensor(), (nw.v, nw.g), nw.adjoint)


def conv_bias(x, w, bias=None, **conv):
    """conv2d plus a per-output-channel bias, the form every layer uses."""
    out = conv2d(x, w, **conv)
    return out if bias is None else out + reshape(bias, (-1, 1, 1))


# ---------------------------------------------------------------------------
# the model, op by op


def taped_net_forward(x_shifted, cond, params, collect_hidden=False):
    """The conv net recorded op by op: row-shifted (h, w) grid -> (mu, log_sigma).

    `cond` is an optional (M, h, w) conditioner grid added through each
    layer's 1x1 projection before the gate. With collect_hidden=True also
    returns the list of per-layer input grids (the rows the synthesis queues
    cache).
    """
    xt = _wrap(x_shifted)
    h, w = xt.data.shape[-2], xt.data.shape[-1]
    kh, kw = params.kernel_h, params.kernel_w
    r_ch = params.residual_channels
    x = conv_bias(reshape(xt, (1, h, w)), weight_norm(params.input_proj), params.input_bias)
    hidden = []
    skip = None
    for layer in params.layers:
        if collect_hidden:
            hidden.append(x.data)
        pad_h = (kh - 1) * layer.dilation_h
        pad_w = ((kw - 1) // 2) * layer.dilation_w
        pre = conv_bias(
            x,
            weight_norm(layer.filter),
            layer.bias,
            dilation=(layer.dilation_h, layer.dilation_w),
            pad=((pad_h, 0), (pad_w, pad_w)),
        )
        if cond is not None:
            if layer.cond_proj is None:
                raise ValidationError("net has no conditioner projections but cond given")
            pre = pre + conv2d(cond, weight_norm(layer.cond_proj))
        hid = tanh(narrow(pre, 0, 0, r_ch)) * sigmoid(narrow(pre, 0, r_ch, r_ch))
        x = x + conv_bias(hid, weight_norm(layer.res_proj), layer.res_bias)
        s = conv_bias(hid, weight_norm(layer.skip_proj), layer.skip_bias)
        skip = s if skip is None else skip + s
    head = conv_bias(relu(skip), weight_norm(params.skip_head), params.skip_head_bias)
    out = conv_bias(relu(head), params.out_head, params.out_head_bias)
    mu = reshape(narrow(out, 0, 0, 1), (h, w))
    log_sigma = reshape(narrow(out, 0, 1, 1), (h, w))
    if collect_hidden:
        return mu, log_sigma, hidden
    return mu, log_sigma


def upsample(mel_frames, up) -> Tensor:
    """conditioner.upsample op by op: flips, a conv2d, the interleave, the trim."""
    s = up.stride
    feat = transpose(_wrap(mel_frames), (1, 0))  # mel bands become rows
    for kern, bias in ((up.kernel1, up.bias1), (up.kernel2, up.bias2)):
        n_mels, t = feat.data.shape
        k = permute_rows(reshape(weight_norm(kern), (3, 2, s)), [1, 0])  # flip taps
        k = permute_rows(transpose(k, (2, 0, 1)), [2, 1, 0])  # flip height
        x, k = reshape(feat, (1, n_mels, t)), reshape(k, (s, 1, 3, 2))
        phases = conv2d(x, k, pad=((2, 2), (1, 1)))
        full = reshape(transpose(phases, (1, 2, 0)), (n_mels + 2, (t + 1) * s))
        feat = narrow(narrow(full, 0, 1, n_mels), 1, s // 2, (t + 1) * s - 2 * (s // 2))
        feat = leaky_relu(feat + bias, LEAKY_SLOPE)
    return feat


def conditioner_grids_for_length(features, n_samples: int, h: int, permutations):
    """conditioner.conditioner_grids_for_length op by op: trim, squeeze, permutations."""
    ft = _wrap(features)
    n_mels = ft.data.shape[0]
    w = n_samples // h
    grid = transpose(reshape(narrow(ft, 1, 0, w * h), (n_mels, w, h)), (0, 2, 1))
    grids = [grid]
    for perm in permutations[:-1]:
        grid = permute_rows(grid, perm.row_map)
        grids.append(grid)
    return grids


def flow_inverse(x, cond, net):
    """flow.flow_inverse op by op: grid -> (Z, log_det) Tensors."""
    xt = _wrap(x)
    mu, log_sigma = taped_net_forward(shift_down(xt), cond, net)
    return exp(log_sigma) * xt + mu, sum_(log_sigma)


def stack_loglik_terms(x, conds, stack):
    """flow.stack_loglik_terms op by op: grid -> (Z0, log_det, base) Tensors."""
    z = _wrap(np.asarray(x))
    log_det = None
    for k, (net, perm) in enumerate(zip(stack.nets, stack.permutations)):
        z, ld = flow_inverse(z, None if conds is None else conds[k], net)
        z = permute_rows(z, perm.row_map)
        log_det = ld if log_det is None else log_det + ld
    base = sub(sum_(z * z) * -0.5, 0.5 * z.data.size * LOG_2PI)
    return z, log_det, base


def grid_nll(model, grid, frames=None) -> Tensor:
    """model.grid_nll op by op; `frames` are the upsampler's input (a leaf, for its gradient)."""
    conds = None
    if model.upsampler is not None:
        feats = upsample(frames, model.upsampler)
        conds = conditioner_grids_for_length(
            feats, grid.size, model.config.height, model.stack.permutations
        )
    _, log_det, base = stack_loglik_terms(grid, conds, model.stack)
    return (log_det + base) * (-1.0 / grid.size)
