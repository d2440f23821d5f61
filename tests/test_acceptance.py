"""Acceptance suite: one test per release criterion, one pass/fail line each.

Run with -v to see the per-criterion verdicts, or -s for the detail lines.
Every test prints "[PASS] criterion N (label): detail" before asserting, so
a failing run still shows the measured numbers for the criterion it broke.
"""

import time

import numpy as np
import pytest
from oracle_refs import (
    bipartite_reference,
    eval_net_cols_1d,
    eval_net_rows_1d,
    fd_jacobian,
    rigged_net,
    shift_down,
)

from gridflow import autodiff as ad
from gridflow.conditioner import MelConfig, MelSpectrogram
from gridflow.flow import (
    FlowStack,
    SynthStats,
    af_reference_inverse,
    flow_inverse,
    stack_forward,
    stack_inverse,
)
from gridflow.io import ModelConfig, load_preset
from gridflow.model import (
    build_model,
    cast_model,
    conditioner_grids,
    count_parameters,
    grid_nll,
    load_checkpoint,
    loglik,
    permutation_schedule,
    save_checkpoint,
)
from gridflow.network import (
    default_dilations,
    init_conv_net,
    net_forward,
    receptive_field,
)
from gridflow.signal import (
    Waveform,
    bipartite_reverse_permutation,
    reverse_permutation,
    squeeze,
)
from gridflow.synth import synth_queued
from gridflow.train import Dataset, TrainConfig, Utterance, train_loop
from gridflow.verify import measure_height_reach, set_weight

LOG_2PI = np.log(2 * np.pi)
SR = 22050


def report(num, label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({label}): {detail}"
    print(line)
    assert ok, line


def _rig_moderate(net, rng, dtype):
    """Trained-realistic conditioning: sigma stays in a band around 1 so
    inversion error does not amplify unboundedly through deep stacks."""
    set_weight(net.input_proj, rng.standard_normal(net.input_proj.v.data.shape) * 0.7)
    for layer in net.layers:
        set_weight(layer.filter, rng.standard_normal(layer.filter.v.data.shape) * 0.3)
        set_weight(layer.res_proj, rng.standard_normal(layer.res_proj.v.data.shape) * 0.3)
        set_weight(layer.skip_proj, rng.standard_normal(layer.skip_proj.v.data.shape) * 0.3)
    set_weight(net.skip_head, np.abs(rng.standard_normal(net.skip_head.v.data.shape)) * 0.5 + 0.1)
    net.out_head.data = (rng.standard_normal(net.out_head.data.shape) * 0.15).astype(dtype)
    net.out_head_bias.data = np.array([0.1, -0.05], dtype=dtype)


def _rigged_stack(h, n_flows, seed, dtype, layers=4, channels=4):
    rng = np.random.default_rng(seed)
    nets = []
    for _ in range(n_flows):
        net = init_conv_net(
            channels, layers, dilations_h=default_dilations(h, layers), rng=rng, dtype=dtype
        )
        _rig_moderate(net, rng, dtype)
        nets.append(net)
    return FlowStack(nets=nets, permutations=permutation_schedule("auto", n_flows, h))


def test_criterion_01_invertibility():
    t0 = time.perf_counter()
    tols = {np.float32: 1e-4, np.float64: 1e-9}
    worst = {np.float32: 0.0, np.float64: 0.0}
    for h in (2, 8, 16):
        for n_flows in (1, 4, 8):
            for dtype, tol in tols.items():
                for seed in range(100):
                    stack = _rigged_stack(h, n_flows, seed, dtype)
                    x = (
                        np.random.default_rng(10_000 + seed)
                        .standard_normal((h, 4))
                        .astype(dtype)
                    )
                    z, _ = stack_inverse(x, None, stack)
                    back = stack_forward(z, None, stack)
                    err = float(np.abs(back - x).max())
                    worst[dtype] = max(worst[dtype], err)
                    assert err <= tol, (h, n_flows, np.dtype(dtype).name, seed, err)
    elapsed = time.perf_counter() - t0
    report(
        1,
        "invertibility",
        worst[np.float32] <= 1e-4 and worst[np.float64] <= 1e-9 and elapsed < 120,
        f"900 stacks x 2 dtypes: worst fp32 {worst[np.float32]:.2e} (tol 1e-4), "
        f"fp64 {worst[np.float64]:.2e} (tol 1e-9), {elapsed:.0f}s",
    )


def test_criterion_02_log_det_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    cases = []
    for h, w in ((4, 6), (6, 6)):
        for n_flows in (1, 2):
            stack = _rigged_stack(h, n_flows, 40 + h + n_flows, np.float64)
            if n_flows == 2:
                stack.permutations = permutation_schedule("bipartite_mix", 2, h)
            x0 = np.random.default_rng(41).standard_normal((h, w))

            def tf(flat):
                z, _ = stack_inverse(flat.reshape(h, w), None, stack)
                return z.reshape(-1)

            jac = fd_jacobian(tf, x0)
            _, fd_logdet = np.linalg.slogdet(jac)
            _, rep = stack_inverse(x0, None, stack)
            rel = abs(fd_logdet - rep.log_det) / max(abs(fd_logdet), 1e-12)
            worst = max(worst, rel)
            cases.append(f"{h}x{w}/{n_flows}f {rel:.1e}")
    elapsed = time.perf_counter() - t0
    report(
        2,
        "log-det exactness",
        worst <= 1e-5 and elapsed < 60,
        f"sum log sigma vs FD Jacobian: {', '.join(cases)} (tol 1e-5), {elapsed:.1f}s",
    )


def test_criterion_03_triangularity():
    h, w = 8, 8
    net = rigged_net(3)
    x = np.random.default_rng(30).standard_normal((h, w))

    def tf(flat):
        z, _ = flow_inverse(flat.reshape(h, w), None, net)
        return z.reshape(-1)

    jac = fd_jacobian(tf, x)  # row-major flattening
    upper = float(np.abs(np.triu(jac, k=1)).max())
    mu, ls = net_forward(shift_down(x), None, net)
    sigma = np.exp(ls).reshape(-1)
    diag_err = float(np.abs(np.diag(jac) - sigma).max())
    report(
        3,
        "triangularity",
        upper <= 1e-6 and diag_err <= 1e-6,
        f"8x8 fp64 Jacobian: max upper entry {upper:.2e} (tol 1e-6), "
        f"max |diag - sigma| {diag_err:.2e}",
    )


def test_criterion_04_special_case_oracles():
    n = 16
    # tall grid, width kernel 1: the flow is the sample-level sequential model
    net_a = rigged_net(44, channels=3, layers=3, kernel_w=1, dil_h=[1, 2, 1], dil_w=[1, 1, 1])
    x = np.random.default_rng(45).standard_normal(n)
    z_flow, logdet_flow = flow_inverse(squeeze(x, n), None, net_a)

    def mu_sigma(prefix):
        rows = np.zeros(n)
        rows[1 : len(prefix) + 1] = prefix
        mu, ls = eval_net_rows_1d(net_a, rows)
        t = len(prefix)
        return mu[t], np.exp(ls[t])

    z_ref, logdet_ref = af_reference_inverse(x, mu_sigma)
    err_a = float(np.abs(z_flow[:, 0] - z_ref).max())
    err_a = max(err_a, abs(float(logdet_flow) - logdet_ref))

    # two-row grid, height kernel 1: the flow is the two-half coupling
    net_b = rigged_net(46, channels=3, layers=2, kernel_h=1, dil_h=[1, 1], dil_w=[1, 2])
    grid = squeeze(np.random.default_rng(47).standard_normal(n), 2)
    zb_flow, logdet_b_flow = flow_inverse(grid, None, net_b)

    def mu_sigma_b(a):
        mu, ls = eval_net_cols_1d(net_b, a)
        return mu, np.exp(ls)

    z_a_ref, z_b_ref, logdet_b_ref = bipartite_reference(grid[0], grid[1], mu_sigma_b)
    err_b = float(
        max(
            np.abs(zb_flow[0] - z_a_ref).max(),
            np.abs(zb_flow[1] - z_b_ref).max(),
            abs(float(logdet_b_flow) - logdet_b_ref),
        )
    )
    report(
        4,
        "special-case oracles",
        err_a <= 1e-6 and err_b <= 1e-6,
        f"length-16 shared weights: sequential ref err {err_a:.2e}, "
        f"two-half ref err {err_b:.2e} (tol 1e-6)",
    )


def test_criterion_05_receptive_field_table():
    table = {8: 17, 16: 17, 32: 35, 64: 77}
    formula_ok = True
    impulse_ok = True
    details = []
    for h, r_expect in table.items():
        dil = default_dilations(h)
        r = receptive_field(3, dil)
        measured = measure_height_reach(dil)
        formula_ok &= r == r_expect
        impulse_ok &= measured == r_expect
        details.append(f"h={h}: r={r} impulse={measured}")
    report(
        5,
        "receptive-field table",
        formula_ok and impulse_ok,
        "; ".join(details) + " (expected 17/17/35/77)",
    )


def test_criterion_06_gradient_check():
    t0 = time.perf_counter()
    cfg = ModelConfig(
        height=4,
        n_flows=1,
        n_layers=2,
        residual_channels=4,
        conditioned=True,
        permutation_strategy="reverse",
        mel=MelConfig(n_mels=8, n_fft=64, hop=16, win=64),
    )
    model = build_model(cfg, seed=0, dtype=np.float64)
    cast_model(model, np.float64)
    rig = np.random.default_rng(1)
    net = model.stack.nets[0]
    set_weight(net.input_proj, rig.standard_normal(net.input_proj.v.data.shape) * 0.6)
    net.input_bias.data = rig.standard_normal(net.input_bias.data.shape) * 0.1
    for layer in net.layers:
        set_weight(layer.filter, rig.standard_normal(layer.filter.v.data.shape) * 0.4)
        set_weight(layer.cond_proj, rig.standard_normal(layer.cond_proj.v.data.shape) * 0.4)
        set_weight(layer.res_proj, rig.standard_normal(layer.res_proj.v.data.shape) * 0.4)
        set_weight(layer.skip_proj, rig.standard_normal(layer.skip_proj.v.data.shape) * 0.4)
        layer.bias.data = rig.standard_normal(layer.bias.data.shape) * 0.1
        layer.res_bias.data = rig.standard_normal(layer.res_bias.data.shape) * 0.1
        layer.skip_bias.data = rig.standard_normal(layer.skip_bias.data.shape) * 0.1
    set_weight(net.skip_head, np.abs(rig.standard_normal(net.skip_head.v.data.shape)) * 0.5 + 0.1)
    net.skip_head_bias.data = rig.standard_normal(net.skip_head_bias.data.shape) * 0.1
    net.out_head.data = rig.standard_normal(net.out_head.data.shape) * 0.3
    net.out_head_bias.data = rig.standard_normal(net.out_head_bias.data.shape) * 0.1
    up = model.upsampler
    set_weight(up.kernel1, rig.standard_normal(up.kernel1.v.data.shape) * 0.4)
    set_weight(up.kernel2, rig.standard_normal(up.kernel2.v.data.shape) * 0.4)
    up.bias1.data = np.asarray(rig.standard_normal(()) * 0.1)
    up.bias2.data = np.asarray(rig.standard_normal(()) * 0.1)

    rng = np.random.default_rng(2)
    grid = squeeze(rng.standard_normal(32), 4)  # h=4, w=8
    mel = MelSpectrogram(rng.standard_normal((2, 8)) * 0.5, SR, cfg.mel)

    def loss_fn():
        return grid_nll(model, grid, mel)

    params = model.parameters()
    _, tape = ad.record_forward(loss_fn, params)
    grads = ad.backward(tape)
    eps = 1e-6
    worst_rel = 0.0
    n_checked = n_floor = 0
    for p in params:
        flat = p.data.reshape(-1)
        gflat = grads[p.name].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            lp = float(loss_fn().data)
            flat[idx] = orig - eps
            lm = float(loss_fn().data)
            flat[idx] = orig
            fd = (lp - lm) / (2 * eps)
            an = gflat[idx]
            scale = max(abs(fd), abs(an))
            if scale <= 1e-7:
                # both effectively zero: below the central-difference noise
                # floor there is no relative error to measure
                n_floor += 1
                continue
            worst_rel = max(worst_rel, abs(fd - an) / scale)
            n_checked += 1
    elapsed = time.perf_counter() - t0
    report(
        6,
        "gradient check",
        worst_rel <= 1e-4 and elapsed < 60,
        f"every scalar: {n_checked} compared ({n_floor} below 1e-7 floor), "
        f"worst rel {worst_rel:.2e} (tol 1e-4), {elapsed:.1f}s",
    )


def _sine_mixture(n, rng):
    t = np.arange(n) / SR
    x = np.zeros(n)
    for _ in range(3):
        f = rng.uniform(100.0, 1000.0)
        a = rng.uniform(0.1, 0.3)
        x += a * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    return x + 0.01 * rng.standard_normal(n)


def test_criterion_07_training_sanity():
    t0 = time.perf_counter()
    mel_cfg = MelConfig(n_mels=8, n_fft=64, hop=16, win=64)
    rng = np.random.default_rng(0)
    dataset = Dataset(
        [Utterance(Waveform(_sine_mixture(4096, rng), SR), mel_cfg) for _ in range(6)]
    )
    held = _sine_mixture(4096, np.random.default_rng(999))
    baseline = -0.5 * LOG_2PI - (held**2).mean() / 2.0

    cfg = ModelConfig(
        height=8,
        n_flows=1,
        n_layers=4,
        residual_channels=16,
        conditioned=False,
        mel=mel_cfg,
    )
    model = build_model(cfg, seed=0, dtype=np.float64)
    train_loop(
        model,
        dataset,
        TrainConfig(
            learning_rate=2e-4,
            batch_size=4,
            clip_length=512,
            max_steps=2000,
            checkpoint_interval=10**9,
            seed=0,
            log_every=500,
        ),
    )
    held_ll = loglik(model, Waveform(held, SR)).per_dim
    gain = held_ll - baseline
    elapsed = time.perf_counter() - t0
    report(
        7,
        "training sanity",
        gain >= 0.1 and elapsed < 900,
        f"2000 steps: held-out {held_ll:.3f} vs identity baseline {baseline:.3f} "
        f"nats/dim (gain {gain:.3f}, need >= 0.1), {elapsed:.0f}s",
    )


def test_criterion_08_queue_equivalence_and_speedup():
    # equivalence at the benchmark height, on a net rigged as criterion 1's
    # so that every layer moves the output (a fresh net stays near identity)
    rng = np.random.default_rng(80)
    h, w = 64, 64
    net = init_conv_net(
        16, 8, dilations_h=default_dilations(h), rng=rng, dtype=np.float32
    )
    _rig_moderate(net, rng, np.float32)
    stack = FlowStack(nets=[net], permutations=permutation_schedule("auto", 1, h))
    z = rng.standard_normal((h, w)).astype(np.float32)
    t0 = time.perf_counter()
    x_naive = stack_forward(z, None, stack)
    t1 = time.perf_counter()
    x_queued = synth_queued(z, None, stack)
    speedup = (t1 - t0) / (time.perf_counter() - t1)
    err = float(np.abs(x_naive - x_queued).max())

    # sequential step counter on the 8-flow reference shape
    stack16 = _rigged_stack(16, 8, 81, np.float64, layers=2)
    stats = SynthStats()
    synth_queued(np.random.default_rng(82).standard_normal((16, 8)), None, stack16, stats=stats)
    report(
        8,
        "queue equivalence and speedup",
        err <= 1e-5 and speedup >= 2.0 and stats.row_steps == 128,
        f"h=64 engines agree to {err:.2e} (tol 1e-5) at |x| <= "
        f"{np.abs(x_naive).max():.1e}; speedup {speedup:.1f}x "
        f"(need >= 2); 8 flows at h=16 took {stats.row_steps} row steps (need 128)",
    )


def test_criterion_09_parameter_counts():
    targets = {"wf-h16-c64": 5.91e6, "wf-h16-c128": 22.25e6, "wf-h16-c256": 86.18e6}
    details = []
    ok = True
    for name, target in targets.items():
        n = count_parameters(build_model(load_preset(name), seed=0))
        rel = abs(n - target) / target
        ok &= rel <= 0.02
        details.append(f"{name}: {n/1e6:.2f}M vs {target/1e6:.2f}M ({100*rel:.1f}%)")
    report(9, "parameter counts", ok, "; ".join(details) + " (tol 2%)")


def test_criterion_10_permutation_strategies():
    maps_ok = (
        reverse_permutation(8).row_map.tolist() == [7, 6, 5, 4, 3, 2, 1, 0]
        and bipartite_reverse_permutation(8).row_map.tolist() == [3, 2, 1, 0, 7, 6, 5, 4]
        and reverse_permutation(16).row_map.tolist() == list(range(15, -1, -1))
        and bipartite_reverse_permutation(16).row_map.tolist()
        == list(range(7, -1, -1)) + list(range(15, 7, -1))
    )
    invol_ok = True
    for h in (8, 16):
        for perm in (reverse_permutation(h), bipartite_reverse_permutation(h)):
            invol_ok &= np.array_equal(perm.row_map[perm.row_map], np.arange(h))

    # the conditioner grids must be permuted by the same row maps the latent
    # path applies between flows
    cfg = ModelConfig(
        height=8,
        n_flows=3,
        n_layers=1,
        residual_channels=4,
        conditioned=True,
        permutation_strategy="bipartite_mix",
        mel=MelConfig(n_mels=4, n_fft=64, hop=16, win=64),
    )
    model = build_model(cfg, seed=0, dtype=np.float64)
    mel = MelSpectrogram(
        np.random.default_rng(7).standard_normal((2, 4)), SR, cfg.mel
    )
    cond = conditioner_grids(model, mel, 32)
    orders = model.stack.row_orders()
    shared_ok = cond.shape == (4, 8, 4) and len(orders) == 3
    acc = cond
    for k in range(1, 3):
        acc = acc[:, model.stack.permutations[k - 1].row_map, :]
        shared_ok &= np.array_equal(np.take(cond, orders[k], axis=1), acc)
    report(
        10,
        "permutation strategies",
        maps_ok and invol_ok and shared_ok,
        f"h=8/h=16 maps exact: {maps_ok}; involutions: {invol_ok}; "
        f"conditioner follows latent row order: {shared_ok}",
    )


def test_criterion_11_serialization(tmp_path):
    cfg = ModelConfig(
        height=8,
        n_flows=2,
        n_layers=2,
        residual_channels=8,
        conditioned=True,
        mel=MelConfig(n_mels=8, n_fft=64, hop=16, win=64),
    )
    model = build_model(cfg, seed=5)
    rng = np.random.default_rng(6)
    for p in model.parameters():
        p.data = p.data + (rng.standard_normal(p.data.shape) * 0.02).astype(p.data.dtype)
    model.step = 777
    wav = Waveform((rng.standard_normal(1024) * 0.1).astype(np.float32), SR)
    before = loglik(model, wav)

    save_checkpoint(model, tmp_path / "ck")
    back = load_checkpoint(tmp_path / "ck")
    bit_exact = back.config == model.config and back.step == 777
    for p_old, p_new in zip(model.parameters(), back.parameters()):
        bit_exact &= p_old.name == p_new.name and np.array_equal(p_old.data, p_new.data)
    after = loglik(back, wav)
    ll_same = before.total == after.total and before.log_det == after.log_det
    report(
        11,
        "serialization",
        bit_exact and ll_same,
        f"round trip bit-exact: {bit_exact}; likelihood identical before/after "
        f"reload: {ll_same} ({before.total:.6f})",
    )
