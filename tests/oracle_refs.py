"""Shared test oracles: a per-tap conv, a width-reach probe, loop-based 1-D
net evaluators and reference transforms, a scatter-form transposed conv,
and FD Jacobians. The op-by-op taped model is in tape.py.

conv2d_reference computes the convolution one tap at a time over a padded
copy, sharing no code with ad.conv2d's width-tap buffer. The 1-D
evaluators run the stack one position at a time over the raw weight
arrays, sharing no code with the production forward pass. Used by
the autodiff, network, flow and synthesis tests, the acceptance suite for
the degenerate-grid claims, and the conditioner tests for the mel upsampler.
"""

import numpy as np

from gridflow.network import init_conv_net, net_forward
from gridflow.verify import _rig_positive


def conv2d_reference(x, w, dilation=(1, 1), pad=((0, 0), (0, 0))):
    """ad.conv2d's forward by one tensordot per tap over a zero-padded copy of x."""
    o_ch, _, kh, kw = w.shape
    dh, dw = dilation
    xp = np.pad(x, ((0, 0),) + tuple(pad))
    h_out = xp.shape[1] - (kh - 1) * dh
    w_out = xp.shape[2] - (kw - 1) * dw
    out = np.zeros((o_ch, h_out, w_out), dtype=x.dtype)
    for a in range(kh):
        for b in range(kw):
            patch = xp[:, a * dh : a * dh + h_out, b * dw : b * dw + w_out]
            out += np.tensordot(w[:, :, a, b], patch, axes=(1, 0))
    return out


def shift_down(x):
    """A grid's rows moved down one, row 0 zeros: the net's input in flow_inverse."""
    out = np.zeros_like(x)
    out[1:] = x[:-1]
    return out


def measure_width_reach(dilations_w, channels=2) -> int:
    """Columns influenced by one input column (symmetric, non-causal)."""
    n_layers = len(dilations_w)
    span = 2 * int(sum(dilations_w)) + 1
    w = span + 49
    net = init_conv_net(
        channels,
        n_layers,
        dilations_h=[1] * n_layers,
        dilations_w=dilations_w,
        rng=np.random.default_rng(12),
        dtype=np.float64,
        weight_norm=False,
    )
    _rig_positive(net, 0.3)
    x = np.zeros((4, w))
    mu0, _ = net_forward(x, None, net)
    bumped = x.copy()
    bumped[:, w // 2] += 1e-3
    mu1, _ = net_forward(bumped, None, net)
    moved = np.where(np.abs(mu1 - mu0).max(axis=0) > 1e-12)[0]
    return int(moved.max() - moved.min() + 1) if len(moved) else 0


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


# ---------------------------------------------------------------------------
# 1-D reference transforms (equivalence oracles for degenerate grid shapes)


def af_reference_forward(z, mu_sigma):
    """Sample-by-sample inversion of flow.af_reference_inverse."""
    z = np.asarray(z, dtype=np.float64)
    x = np.empty_like(z)
    for t in range(len(z)):
        mu_t, sigma_t = mu_sigma(x[:t])
        x[t] = (z[t] - mu_t) / sigma_t
    return x


def bipartite_reference(x_a, x_b, mu_sigma_b):
    """Two-half coupling: z_a = x_a, z_b = x_b * sigma_b(x_a) + mu_b(x_a)."""
    x_a = np.asarray(x_a, dtype=np.float64)
    mu_b, sigma_b = mu_sigma_b(x_a)
    z_b = np.asarray(x_b, dtype=np.float64) * sigma_b + mu_b
    return x_a.copy(), z_b, float(np.sum(np.log(sigma_b)))


def bipartite_reference_forward(z_a, z_b, mu_sigma_b):
    """One-shot inversion of bipartite_reference (no sequential loop)."""
    x_a = np.asarray(z_a, dtype=np.float64)
    mu_b, sigma_b = mu_sigma_b(x_a)
    return x_a.copy(), (np.asarray(z_b, dtype=np.float64) - mu_b) / sigma_b


def bipartite_as_autoregressive(n_a, mu_sigma_b):
    """Express the two-half coupling as a constrained autoregressive rule.

    Positions t < n_a get (mu, sigma) = (0, 1); later positions use only the
    first n_a prefix entries. Feeding this to af_reference_inverse on the
    a-then-b ordering reproduces the coupling exactly.
    """

    def mu_sigma(prefix):
        t = len(prefix)
        if t < n_a:
            return 0.0, 1.0
        mu_b, sigma_b = mu_sigma_b(prefix[:n_a])
        idx = t - n_a
        return mu_b[idx], sigma_b[idx]

    return mu_sigma


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
