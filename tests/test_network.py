"""Receptive fields, dilation schedules, causality, and weight norm."""

import tracemalloc

import numpy as np
import pytest
import tape as tp
from oracle_refs import measure_width_reach
from tape import taped_net_forward

import gridflow.conditioner
from gridflow import autodiff as ad
from gridflow.conditioner import MelConfig, MelSpectrogram
from gridflow.errors import ValidationError
from gridflow.io import ModelConfig
from gridflow.model import build_model, grid_nll
from gridflow.network import (
    compile_net,
    compiled_forward,
    default_dilations,
    init_conv_net,
    net_backward,
    net_forward,
    receptive_field,
    width_dilations,
)
from gridflow.verify import measure_height_reach

# (height, schedule, receptive field) for the standard 8-layer stacks
STANDARD_SCHEDULES = [
    (8, [1, 1, 1, 1, 1, 1, 1, 1], 17),
    (16, [1, 1, 1, 1, 1, 1, 1, 1], 17),
    (32, [1, 2, 4, 1, 2, 4, 1, 2], 35),
    (64, [1, 2, 4, 8, 16, 1, 2, 4], 77),
]


class TestReceptiveField:
    @pytest.mark.parametrize("h,schedule,r", STANDARD_SCHEDULES)
    def test_standard_schedules(self, h, schedule, r):
        assert default_dilations(h) == schedule
        assert receptive_field(3, schedule) == r

    def test_tall_grid_uses_full_cycle(self):
        assert default_dilations(512) == [1, 2, 4, 8, 16, 32, 64, 128]
        assert default_dilations(4096) == [1, 2, 4, 8, 16, 32, 64, 128]

    def test_formula_simple_cases(self):
        assert receptive_field(3, [1]) == 3
        assert receptive_field(3, [1, 1]) == 5
        assert receptive_field(2, [1, 2, 4]) == 8

    def test_width_cycle(self):
        assert width_dilations(8) == [1, 2, 4, 8, 16, 32, 64, 128]
        assert width_dilations(3) == [1, 2, 4]
        assert width_dilations(10) == [1, 2, 4, 8, 16, 32, 64, 128, 1, 2]

    @pytest.mark.parametrize("h,schedule,r", STANDARD_SCHEDULES)
    def test_impulse_response_matches_formula(self, h, schedule, r):
        assert measure_height_reach(schedule) == r

    def test_width_impulse_response(self):
        # symmetric reach: 2 * sum(d) + 1 columns
        for dils in ([1, 2], [1, 2, 4]):
            assert measure_width_reach(dils) == 2 * sum(dils) + 1


class TestCausality:
    @pytest.mark.parametrize("dilations", [[1, 1, 1], [1, 2, 4]])
    def test_output_ignores_current_and_later_rows(self, dilations):
        h, w = 16, 6
        net = init_conv_net(
            4,
            len(dilations),
            dilations_h=dilations,
            rng=np.random.default_rng(0),
            dtype=np.float64,
        )
        net.out_head.data = np.random.default_rng(1).standard_normal((2, 4, 1, 1))
        rng = np.random.default_rng(2)
        base = rng.standard_normal((h, w))
        mu0, ls0 = net_forward(base, None, net)
        for i in (0, 5, h - 1):
            bumped = base.copy()
            bumped[i:, :] = rng.standard_normal((h - i, w)) * 3.0
            mu1, ls1 = net_forward(bumped, None, net)
            # the conv stack is causal-inclusive: output row i sees input
            # rows <= i, so rows strictly above i must be untouched when
            # rows i.. change (the row shift is the caller's job)
            assert np.abs(mu1[:i] - mu0[:i]).max(initial=0.0) <= 1e-6
            assert np.abs(ls1[:i] - ls0[:i]).max(initial=0.0) <= 1e-6

    def test_strict_fp64_equality_above_change(self):
        # unshifted stack: changing row i leaves output rows <= i bit-identical
        h, w = 12, 4
        net = init_conv_net(
            2, 4, dilations_h=[1, 2, 1, 2], rng=np.random.default_rng(3), dtype=np.float64
        )
        # positive head weights so the relus cannot gate the whole output off
        net.skip_head.v.data = np.abs(net.skip_head.v.data) + 0.05
        net.out_head.data = np.random.default_rng(4).standard_normal((2, 2, 1, 1))
        base = np.random.default_rng(5).standard_normal((h, w))
        mu0, _ = net_forward(base, None, net)
        bumped = base.copy()
        bumped[6, :] += 1.0
        mu1, _ = net_forward(bumped, None, net)
        assert np.array_equal(mu1[:6], mu0[:6])
        assert np.abs(mu1[6:] - mu0[6:]).max() > 0


class TestIdentityStart:
    def test_fresh_net_outputs_exact_zeros(self):
        net = init_conv_net(8, 8, rng=np.random.default_rng(6))
        x = np.random.default_rng(7).standard_normal((16, 10)).astype(np.float32)
        mu, ls = net_forward(x, None, net)
        assert np.all(mu == 0.0)
        assert np.all(ls == 0.0)

    def test_fresh_net_with_conditioner_still_zero(self):
        net = init_conv_net(4, 2, cond_channels=5, rng=np.random.default_rng(8))
        x = np.random.default_rng(9).standard_normal((8, 6)).astype(np.float32)
        cond = np.random.default_rng(10).standard_normal((5, 8, 6)).astype(np.float32)
        mu, ls = net_forward(x, cond, net)
        assert np.all(mu == 0.0)
        assert np.all(ls == 0.0)


class TestWeightNorm:
    def test_normed_tensor_matches_direct_formula(self):
        net = init_conv_net(4, 2, rng=np.random.default_rng(11), dtype=np.float64)
        layer = net.layers[0]
        w = layer.filter.tensor()
        v = layer.filter.v.data
        g = layer.filter.g.data
        norm = np.sqrt((v**2).sum(axis=(1, 2, 3), keepdims=True))
        expect = g[:, None, None, None] * v / norm
        assert np.abs(w - expect).max() <= 1e-12

    def test_initial_norm_equals_raw_weight(self):
        # g starts at ||v||, so the materialized weight equals v
        net = init_conv_net(4, 2, rng=np.random.default_rng(12), dtype=np.float64)
        layer = net.layers[1]
        assert np.abs(layer.filter.tensor() - layer.filter.v.data).max() <= 1e-6

    def test_scale_roundtrip_through_g(self):
        # doubling g doubles the materialized weight exactly
        net = init_conv_net(2, 1, rng=np.random.default_rng(13), dtype=np.float64)
        layer = net.layers[0]
        w1 = layer.filter.tensor().copy()
        layer.filter.g.data = layer.filter.g.data * 2.0
        w2 = layer.filter.tensor()
        assert np.abs(w2 - 2.0 * w1).max() <= 1e-12

    def test_out_head_is_plain_weight(self):
        net = init_conv_net(4, 2, rng=np.random.default_rng(14))
        assert np.all(net.out_head.data == 0.0)
        names = {p.name for p in net.parameters()}
        assert not any("out_head.g" in n for n in names)

    def test_one_tape_node_and_its_gradient(self):
        # tensor() records nothing; the oracle's weight_norm node runs the
        # adjoint net_backward also calls, checked here by central differences
        net = init_conv_net(3, 1, rng=np.random.default_rng(29), dtype=np.float64)
        nw = net.layers[0].filter
        nw.g.data = nw.g.data * 1.7
        probe = np.random.default_rng(30).standard_normal(nw.v.data.shape)
        with ad.Tape() as tape:
            assert isinstance(nw.tensor(), np.ndarray)
        assert tape.nodes == []
        loss, tape = ad.record_forward(lambda: tp.sum_(tp.weight_norm(nw) * probe), [nw.v, nw.g])
        assert [node.op for node in tape.nodes] == ["weight_norm", "mul", "sum"]
        grads = ad.backward(tape)
        eps = 1e-6
        for p in (nw.v, nw.g):
            flat = p.data.reshape(-1)
            for i in range(0, flat.size, 7):
                orig = flat[i]
                flat[i] = orig + eps
                lp = float((nw.tensor() * probe).sum())
                flat[i] = orig - eps
                lm = float((nw.tensor() * probe).sum())
                flat[i] = orig
                fd = (lp - lm) / (2 * eps)
                an = grads[p.name].reshape(-1)[i]
                assert abs(fd - an) <= 1e-8 + 1e-6 * abs(fd), (p.name, i)

    def test_weight_norm_off(self):
        net = init_conv_net(4, 2, rng=np.random.default_rng(15), weight_norm=False)
        assert net.layers[0].filter.g is None
        assert np.array_equal(net.layers[0].filter.tensor(), net.layers[0].filter.v.data)


# (height, width, kernel_h, kernel_w, dilations_h, dilations_w, cond channels)
NET_VARIANTS = pytest.mark.parametrize(
    "h,w,kh,kw,dil_h,dil_w,cond_ch",
    [
        (8, 6, 3, 3, [1, 1], [1, 1], None),
        (8, 6, 3, 3, [1, 1], [1, 2], 5),
        (16, 12, 3, 3, [1, 2, 4], [1, 2, 4], None),
        (8, 5, 3, 1, [1, 2], [1, 1], None),
        (4, 7, 1, 3, [1, 1], [1, 2], 3),
        (3, 4, 3, 3, [1, 4], [2, 8], 2),  # shorter and narrower than the reach
        # a width tap at offset o reads only the zero border once |o| >= w
        (8, 1, 3, 3, [1, 2], [1, 2], None),  # one column: every side tap is dead
        (6, 2, 3, 3, [1, 1], [2, 1], None),  # w = d_w of layer 0, d_w + 1 of layer 1
        (4, 5, 3, 3, [2, 1], [4, 5], 2),  # w = d_w + 1 of layer 0, d_w of layer 1
        (8, 3, 3, 5, [1, 1], [1, 2], 2),  # kw = 5: taps at +-4 dead, +-2 live
        (2, 4, 3, 3, [1, 2], [1, 4], 2),  # two rows, below the height reach of 7
    ],
    ids=[
        "plain", "conditioned", "dilated", "kernel_w1", "kernel_h1", "short_grid",
        "width1", "width2", "width_dil_plus1", "kernel_w5_partial", "below_reach",
    ],
)


def _random_net(rng, kh, kw, dil_h, dil_w, cond_ch):
    net = init_conv_net(
        4,
        len(dil_h),
        kernel_h=kh,
        kernel_w=kw,
        dilations_h=dil_h,
        dilations_w=dil_w,
        cond_channels=cond_ch,
        rng=rng,
        dtype=np.float64,
    )
    # every parameter random, and g off ||v||, so no term is trivially zero
    for p in net.parameters():
        p.data = rng.standard_normal(p.data.shape) * 0.4
        if p.name.endswith(".g"):
            p.data = np.abs(p.data) + 0.5
    return net


def _directions_off_zero(params):
    # the taped chain's rounding in dv grows like g / ||v||; with one-entry
    # norm groups (the input projection) a draw near 0 lifts it past 1e-12
    for p in params:
        if p.name.endswith(".v"):
            p.data = np.sign(p.data) * (np.abs(p.data) + 0.1)


def _taped_loss_and_grads(loss_fn, params):
    loss, tape = ad.record_forward(loss_fn, params)
    return float(loss.data), ad.backward(tape)


def _grid_nll_and_grads(model, grid, mel):
    loss, tape = ad.record_forward(lambda: grid_nll(model, grid, mel), model.parameters())
    assert len(tape.nodes) == 1
    return float(loss.data), ad.backward(tape)


class TestCompiledForward:
    @NET_VARIANTS
    def test_full_grid_matches_taped_reference(self, h, w, kh, kw, dil_h, dil_w, cond_ch):
        rng = np.random.default_rng(24)
        net = _random_net(rng, kh, kw, dil_h, dil_w, cond_ch)
        x = rng.standard_normal((h, w))
        cond = None if cond_ch is None else rng.standard_normal((cond_ch, h, w))
        mu_ref, ls_ref = taped_net_forward(x, cond, net)
        cnet = compile_net(net)
        mu, ls = compiled_forward(cnet, x, cond)
        assert np.abs(mu - mu_ref.data).max() <= 1e-12
        assert np.abs(ls - ls_ref.data).max() <= 1e-12
        assert np.abs(ls_ref.data).max() > 0.1


class TestForwardMemory:
    # tracemalloc peak of one conditioned whole-grid forward at vocode-h16's
    # shape (fp32, 16 x 690, R = 64, M = 80, 8 layers), measured: 118.6 MiB
    # when each layer built (kh, R, n, w) height taps and (kh, kw, R, n, w)
    # columns and the conditioner became eight (2R, n, w) biases; 38.8 MiB
    # with one width-tap buffer per layer and the conditioner folded
    PEAK_BOUND_MIB = 64

    def test_conditioned_forward_peak_bounded(self):
        rng = np.random.default_rng(31)
        cnet = compile_net(init_conv_net(64, 8, cond_channels=80, rng=rng))
        rows = rng.standard_normal((16, 690)).astype(np.float32)
        cond = rng.standard_normal((80, 16, 690)).astype(np.float32)
        tracemalloc.start()
        try:
            compiled_forward(cnet, rows, cond)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 2**20 <= self.PEAK_BOUND_MIB


class TestSavedForBackward:
    def test_conditioned_net_keeps_two_arrays_per_layer_plus_two(self):
        # wf-h16-c64's layer shapes (R = 64, M = 80, 8 layers) on a 2,048-sample
        # fp32 grid: gates of every layer, the last layer's input, the skip sum
        rng = np.random.default_rng(32)
        cnet = compile_net(init_conv_net(64, 8, cond_channels=80, rng=rng))
        rows = rng.standard_normal((16, 128)).astype(np.float32)
        cond = rng.standard_normal((80, 16, 128)).astype(np.float32)
        saved = []
        compiled_forward(cnet, rows, cond, saved=saved)
        nbytes = sum(a.nbytes for pair in saved for a in pair)
        assert nbytes <= (2 * 8 + 2) * 64 * 16 * 128 * 4


class TestNetBackward:
    """net_backward and grid_nll's backward against the op-by-op taped oracle."""

    @NET_VARIANTS
    def test_gradients_match_taped_reference(self, h, w, kh, kw, dil_h, dil_w, cond_ch):
        rng = np.random.default_rng(25)
        net = _random_net(rng, kh, kw, dil_h, dil_w, cond_ch)
        _directions_off_zero(net.parameters())
        x = rng.standard_normal((h, w))
        cond = None if cond_ch is None else rng.standard_normal((cond_ch, h, w))
        a, b = rng.standard_normal((2, h, w))
        saved, grads = [], {}
        mu, ls = net_forward(x, cond, net, saved)
        d_x, d_cond = net_backward(saved, cond, a, b, grads)
        assert saved == []
        # the oracle, with the grid and conditioner as leaves so backward reports their gradients
        xt = ad.Parameter(x, "grid")
        ct = None if cond is None else ad.Parameter(cond, "cond")

        def loss_fn():
            mu_t, ls_t = taped_net_forward(xt, ct, net)
            return tp.sum_(mu_t * a) + tp.sum_(ls_t * b)

        params = net.parameters() + [xt] + ([] if ct is None else [ct])
        loss_ref, grads_ref = _taped_loss_and_grads(loss_fn, params)
        assert abs(float((mu * a).sum() + (ls * b).sum()) - loss_ref) <= 1e-12
        for p in net.parameters():
            assert np.abs(grads[id(p)] - grads_ref[p.name]).max() <= 1e-12, p.name
        assert np.abs(d_x - grads_ref["grid"]).max() <= 1e-12
        assert np.abs(d_x).max() > 0.1
        if cond is not None:
            assert np.abs(d_cond - grads_ref["cond"]).max() <= 1e-12
            assert np.abs(d_cond).max() > 0.1

    def test_conditioned_stack_through_upsampler(self, monkeypatch):
        # three conditioned flows through the upsampler, two kinds of row
        # permutation: one grid_nll node against the whole-stack oracle
        cfg = ModelConfig(
            height=4,
            n_flows=3,
            n_layers=2,
            residual_channels=4,
            conditioned=True,
            permutation_strategy="bipartite_mix",
            mel=MelConfig(n_mels=6, n_fft=64, hop=16, win=64),
        )
        model = build_model(cfg, seed=0, dtype=np.float64)
        rng = np.random.default_rng(26)
        for p in model.parameters():
            p.data = rng.standard_normal(p.data.shape) * 0.3
            if p.name.endswith(".g"):
                p.data = np.abs(p.data) + 0.5
        _directions_off_zero(model.parameters())
        grid = rng.standard_normal((4, 12))
        mel = MelSpectrogram(rng.standard_normal((3, 6)) * 0.5, 22050, cfg.mel)
        params = model.parameters()
        d_frames = []  # what grid_nll's backward gets for the mel frames
        real = gridflow.conditioner.upsample_backward
        monkeypatch.setattr(
            gridflow.conditioner, "upsample_backward", lambda *a: d_frames.append(real(*a))
        )
        loss, grads = _grid_nll_and_grads(model, grid, mel)
        frames = ad.Parameter(mel.frames, "frames")
        loss_ref, grads_ref = _taped_loss_and_grads(
            lambda: tp.grid_nll(model, grid, frames), params + [frames]
        )
        assert abs(loss - loss_ref) <= 1e-12 * abs(loss_ref)
        # the loss is per dimension: each bound is on the summed log-likelihood's scale
        for p in params:
            assert np.abs(grads[p.name] - grads_ref[p.name]).max() * grid.size <= 1e-12, p.name
        assert np.abs(d_frames[0] - grads_ref["frames"]).max() * grid.size <= 1e-12
        assert np.abs(grads["upsampler.kernel1.v"]).max() * grid.size > 1e-3
        assert np.abs(d_frames[0]).max() * grid.size > 1e-3

    def test_unconditioned_tall_stack(self):
        # h = n: every sample is its own row, the fully autoregressive case
        cfg = ModelConfig(height=16, n_flows=2, n_layers=3, residual_channels=3, conditioned=False)
        model = build_model(cfg, seed=1, dtype=np.float64)
        rng = np.random.default_rng(33)
        for p in model.parameters():
            p.data = rng.standard_normal(p.data.shape) * 0.3
            if p.name.endswith(".g"):
                p.data = np.abs(p.data) + 0.5
        _directions_off_zero(model.parameters())
        grid = rng.standard_normal((16, 1))
        loss, grads = _grid_nll_and_grads(model, grid, None)
        loss_ref, grads_ref = _taped_loss_and_grads(
            lambda: tp.grid_nll(model, grid), model.parameters()
        )
        assert abs(loss - loss_ref) <= 1e-12 * abs(loss_ref)
        for name, g_ref in grads_ref.items():
            assert np.abs(grads[name] - g_ref).max() * grid.size <= 1e-12, name
        assert np.abs(grads["flow0.layer0.filter.v"]).max() * grid.size > 1e-3

    def test_untaped_call_records_nothing(self):
        # net_forward returns arrays and never touches the tape, recording or not
        net = _random_net(np.random.default_rng(27), 3, 3, [1], [1], None)
        x = np.random.default_rng(28).standard_normal((4, 5))
        mu, ls = net_forward(x, None, net)
        assert isinstance(mu, np.ndarray) and isinstance(ls, np.ndarray)
        with ad.Tape() as tape:
            net_forward(x, None, net)
        assert tape.nodes == []


class TestShapes:
    def test_layer_count_flexible(self):
        for n_layers in (1, 2, 8):
            net = init_conv_net(
                2, n_layers, dilations_h=[1] * n_layers, rng=np.random.default_rng(16)
            )
            assert len(net.layers) == n_layers

    def test_schedule_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            init_conv_net(2, 4, dilations_h=[1, 2])

    def test_output_shapes(self):
        net = init_conv_net(4, 3, dilations_h=[1, 2, 4], rng=np.random.default_rng(17))
        mu, ls = net_forward(np.zeros((32, 7), dtype=np.float32), None, net)
        assert mu.shape == (32, 7)
        assert ls.shape == (32, 7)

    def test_collect_hidden_layer_inputs(self):
        # what the compiled forward saves for the backward gives back each
        # layer's input, equal to the taped net's: the last one is stored,
        # each lower one is the input above minus that layer's residual output
        net = _random_net(np.random.default_rng(18), 3, 3, [1, 2, 1, 2], [1, 2, 4, 1], None)
        x = np.random.default_rng(19).standard_normal((8, 5))
        _, _, hidden = taped_net_forward(x, None, net, collect_hidden=True)
        saved = []
        compiled_forward(compile_net(net), x, saved=saved)
        assert len(hidden) == 4 and len(saved) == 5
        assert [a.size for pair in saved for a in pair] == [4 * 40] * (2 * 4 + 2)
        for gate_t, gate_s in saved[:-1]:
            assert gate_t.shape == gate_s.shape == (4, 8, 5)
        layer_in = saved[-1][0]
        assert layer_in.shape == (4, 8, 5)
        assert np.abs(layer_in - hidden[-1]).max() <= 1e-12
        for li in range(2, -1, -1):
            gate_t, gate_s = saved[li]
            res_w = net.layers[li].res_proj.tensor()[:, :, 0, 0]
            res = np.einsum("oc,cij->oij", res_w, gate_t * gate_s)
            layer_in = layer_in - res - net.layers[li].res_bias.data[:, None, None]
            assert np.abs(layer_in - hidden[li]).max() <= 1e-12
        assert min(np.abs(a - b).max() for a, b in zip(hidden, hidden[1:])) > 0.1

    def test_conditioner_grid_shape_enforced(self):
        net = init_conv_net(2, 1, rng=np.random.default_rng(20))
        with pytest.raises(ValidationError):
            net_forward(np.zeros((4, 4), dtype=np.float32), np.zeros((5, 4, 4)), net)

    def test_gradient_through_weight_norm(self):
        net = init_conv_net(2, 1, rng=np.random.default_rng(21), dtype=np.float64)
        net.out_head.data = np.random.default_rng(22).standard_normal((2, 2, 1, 1))
        x = np.random.default_rng(23).standard_normal((4, 4))

        def loss_fn():
            mu, ls = net_forward(x, None, net)
            return float((mu * mu).sum() + (ls * ls).sum())

        saved, grads = [], {}
        mu, ls = net_forward(x, None, net, saved)
        net_backward(saved, None, 2.0 * mu, 2.0 * ls, grads)
        layer = net.layers[0]
        eps = 1e-6
        for p in (layer.filter.g, layer.filter.v):
            flat = p.data.reshape(-1)
            orig = flat[0]
            flat[0] = orig + eps
            lp = loss_fn()
            flat[0] = orig - eps
            lm = loss_fn()
            flat[0] = orig
            fd = (lp - lm) / (2 * eps)
            an = grads[id(p)].reshape(-1)[0]
            assert abs(fd - an) <= 1e-7 + 1e-5 * max(abs(fd), abs(an)), p.name
