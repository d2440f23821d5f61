"""Shared test oracles: loop-based 1-D net evaluators, a scatter-form
transposed conv, and FD Jacobians.

These evaluate the conv stack one position at a time over the raw weight
arrays, sharing no code with the production forward pass. Used by both the
flow unit tests and the acceptance suite for the degenerate-grid claims,
and by the conditioner tests for the mel upsampler.
"""

import numpy as np

from gridflow.network import init_conv_net


def rigged_net(seed, channels=3, layers=2, kernel_h=3, kernel_w=3, dil_h=None, dil_w=None):
    """Random net with a nonzero head (plain weights, biases zero)."""
    rng = np.random.default_rng(seed)
    net = init_conv_net(
        channels,
        layers,
        kernel_h=kernel_h,
        kernel_w=kernel_w,
        dilations_h=dil_h or [1] * layers,
        dilations_w=dil_w or [1] * layers,
        rng=rng,
        dtype=np.float64,
        weight_norm=False,
    )
    for layer in net.layers:
        layer.filter.v.data = rng.standard_normal(layer.filter.v.data.shape) * 0.3
        layer.res_proj.v.data = rng.standard_normal(layer.res_proj.v.data.shape) * 0.3
        layer.skip_proj.v.data = rng.standard_normal(layer.skip_proj.v.data.shape) * 0.3
    net.input_proj.v.data = rng.standard_normal(net.input_proj.v.data.shape) * 0.5
    net.skip_head.v.data = rng.standard_normal(net.skip_head.v.data.shape) * 0.5
    net.out_head.data = rng.standard_normal(net.out_head.data.shape) * 0.3
    return net


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def eval_net_rows_1d(net, rows):
    """Loop-based evaluation of the stack on a height-n, width-1 grid.

    `rows` is the (already shifted) length-n column. Width kernel must be 1.
    Returns (mu, log_sigma) as length-n vectors.
    """
    assert net.kernel_w == 1
    n = len(rows)
    r_ch = net.residual_channels
    kh = net.kernel_h
    w_in = net.input_proj.v.data[:, 0, 0, 0]
    h = [w_in * rows[t] + net.input_bias.data for t in range(n)]
    skip = [np.zeros(r_ch) for _ in range(n)]
    for layer in net.layers:
        w = layer.filter.v.data[:, :, :, 0]  # (2R, R, kh)
        d = layer.dilation_h
        res_w = layer.res_proj.v.data[:, :, 0, 0]
        skip_w = layer.skip_proj.v.data[:, :, 0, 0]
        new = []
        for t in range(n):
            pre = layer.bias.data.copy()
            for a in range(kh):
                src = t - (kh - 1 - a) * d
                if src >= 0:
                    pre = pre + w[:, :, a] @ h[src]
            hid = np.tanh(pre[:r_ch]) * _sigmoid(pre[r_ch:])
            new.append(h[t] + res_w @ hid + layer.res_bias.data)
            skip[t] = skip[t] + skip_w @ hid + layer.skip_bias.data
        h = new
    head_w = net.skip_head.v.data[:, :, 0, 0]
    out_w = net.out_head.data[:, :, 0, 0]
    mu = np.empty(n)
    ls = np.empty(n)
    for t in range(n):
        head = np.maximum(head_w @ np.maximum(skip[t], 0.0) + net.skip_head_bias.data, 0.0)
        o = out_w @ head + net.out_head_bias.data
        mu[t], ls[t] = o[0], o[1]
    return mu, ls


def eval_net_cols_1d(net, row):
    """Loop-based evaluation along the width axis (height kernel 1).

    `row` is one length-n row; the conv is symmetric (non-causal) with the
    layer's width dilation. Returns (mu, log_sigma) vectors.
    """
    assert net.kernel_h == 1
    n = len(row)
    r_ch = net.residual_channels
    kw = net.kernel_w
    center = (kw - 1) // 2
    w_in = net.input_proj.v.data[:, 0, 0, 0]
    h = [w_in * row[j] + net.input_bias.data for j in range(n)]
    skip = [np.zeros(r_ch) for _ in range(n)]
    for layer in net.layers:
        w = layer.filter.v.data[:, :, 0, :]  # (2R, R, kw)
        d = layer.dilation_w
        res_w = layer.res_proj.v.data[:, :, 0, 0]
        skip_w = layer.skip_proj.v.data[:, :, 0, 0]
        new = []
        for j in range(n):
            pre = layer.bias.data.copy()
            for b in range(kw):
                src = j + (b - center) * d
                if 0 <= src < n:
                    pre = pre + w[:, :, b] @ h[src]
            hid = np.tanh(pre[:r_ch]) * _sigmoid(pre[r_ch:])
            new.append(h[j] + res_w @ hid + layer.res_bias.data)
            skip[j] = skip[j] + skip_w @ hid + layer.skip_bias.data
        h = new
    head_w = net.skip_head.v.data[:, :, 0, 0]
    out_w = net.out_head.data[:, :, 0, 0]
    mu = np.empty(n)
    ls = np.empty(n)
    for j in range(n):
        head = np.maximum(head_w @ np.maximum(skip[j], 0.0) + net.skip_head_bias.data, 0.0)
        o = out_w @ head + net.out_head_bias.data
        mu[j], ls[j] = o[0], o[1]
    return mu, ls


def conv_transpose_scatter(x, k, stride, pad):
    """Single-channel transposed 2-D conv of x (F, T) with k (kf, kt), by loops.

    Every input entry x[f, t] adds k[a, b] * x[f, t] at (f + a, t * stride + b)
    of an untrimmed canvas; pad = (pad_f, pad_t) then trims that many entries
    off both ends of each axis.
    """
    f_in, t_in = x.shape
    kf, kt = k.shape
    canvas = np.zeros((f_in + kf - 1, (t_in - 1) * stride + kt))
    for f in range(f_in):
        for t in range(t_in):
            for a in range(kf):
                for b in range(kt):
                    canvas[f + a, t * stride + b] += k[a, b] * x[f, t]
    pf, pt = pad
    return canvas[pf : canvas.shape[0] - pf, pt : canvas.shape[1] - pt]


def upsample_reference(frames, kernels, biases, stride, slope):
    """Mel upsampler from raw (kf, kt) kernels: per layer, a transposed conv
    with pads (1, stride // 2), plus a scalar bias, then leaky ReLU."""
    feat = np.asarray(frames, dtype=np.float64).T
    for k, b in zip(kernels, biases):
        y = conv_transpose_scatter(feat, k, stride, (1, stride // 2)) + b
        feat = np.where(y >= 0, y, slope * y)
    return feat


def fd_jacobian(fn, x0, eps=1e-6):
    """Central-difference Jacobian of a flat vector map."""
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    n = x0.size
    probe = fn(x0)
    jac = np.empty((probe.size, n))
    for j in range(n):
        dp = x0.copy()
        dm = x0.copy()
        dp[j] += eps
        dm[j] -= eps
        jac[:, j] = (fn(dp) - fn(dm)) / (2 * eps)
    return jac
