"""Receptive fields, dilation schedules, causality, and weight norm."""

import numpy as np
import pytest
from oracle_refs import measure_width_reach, taped_net_forward

import gridflow.flow
from gridflow import autodiff as ad
from gridflow.conditioner import MelConfig, MelSpectrogram
from gridflow.errors import ValidationError
from gridflow.flow import stack_loglik_terms
from gridflow.io import ModelConfig
from gridflow.model import build_model, conditioner_grids
from gridflow.network import (
    compile_net,
    compiled_forward,
    cond_biases,
    default_dilations,
    init_conv_net,
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
            assert np.abs(mu1.data[:i] - mu0.data[:i]).max(initial=0.0) <= 1e-6
            assert np.abs(ls1.data[:i] - ls0.data[:i]).max(initial=0.0) <= 1e-6

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
        assert np.array_equal(mu1.data[:6], mu0.data[:6])
        assert np.abs(mu1.data[6:] - mu0.data[6:]).max() > 0


class TestIdentityStart:
    def test_fresh_net_outputs_exact_zeros(self):
        net = init_conv_net(8, 8, rng=np.random.default_rng(6))
        x = np.random.default_rng(7).standard_normal((16, 10)).astype(np.float32)
        mu, ls = net_forward(x, None, net)
        assert np.all(mu.data == 0.0)
        assert np.all(ls.data == 0.0)

    def test_fresh_net_with_conditioner_still_zero(self):
        net = init_conv_net(4, 2, cond_channels=5, rng=np.random.default_rng(8))
        x = np.random.default_rng(9).standard_normal((8, 6)).astype(np.float32)
        cond = np.random.default_rng(10).standard_normal((5, 8, 6)).astype(np.float32)
        mu, ls = net_forward(x, cond, net)
        assert np.all(mu.data == 0.0)
        assert np.all(ls.data == 0.0)


class TestWeightNorm:
    def test_normed_tensor_matches_direct_formula(self):
        net = init_conv_net(4, 2, rng=np.random.default_rng(11), dtype=np.float64)
        layer = net.layers[0]
        w = layer.filter.tensor().data
        v = layer.filter.v.data
        g = layer.filter.g.data
        norm = np.sqrt((v**2).sum(axis=(1, 2, 3), keepdims=True))
        expect = g[:, None, None, None] * v / norm
        assert np.abs(w - expect).max() <= 1e-12

    def test_initial_norm_equals_raw_weight(self):
        # g starts at ||v||, so the materialized weight equals v
        net = init_conv_net(4, 2, rng=np.random.default_rng(12), dtype=np.float64)
        layer = net.layers[1]
        assert np.abs(layer.filter.tensor().data - layer.filter.v.data).max() <= 1e-6

    def test_scale_roundtrip_through_g(self):
        # doubling g doubles the materialized weight exactly
        net = init_conv_net(2, 1, rng=np.random.default_rng(13), dtype=np.float64)
        layer = net.layers[0]
        w1 = layer.filter.tensor().data.copy()
        layer.filter.g.data = layer.filter.g.data * 2.0
        w2 = layer.filter.tensor().data
        assert np.abs(w2 - 2.0 * w1).max() <= 1e-12

    def test_out_head_is_plain_weight(self):
        net = init_conv_net(4, 2, rng=np.random.default_rng(14))
        assert np.all(net.out_head.data == 0.0)
        names = {p.name for p in net.parameters()}
        assert not any("out_head.g" in n for n in names)

    def test_one_tape_node_and_its_gradient(self):
        # the normed weight is one weight_norm node; its backward is the
        # adjoint net_forward's backward also calls
        net = init_conv_net(3, 1, rng=np.random.default_rng(29), dtype=np.float64)
        nw = net.layers[0].filter
        nw.g.data = nw.g.data * 1.7
        probe = np.random.default_rng(30).standard_normal(nw.v.data.shape)
        with ad.Tape() as tape:
            nw.tensor()
        assert [node.op for node in tape.nodes] == ["weight_norm"]
        loss, tape = ad.record_forward(lambda: ad.sum_(nw.tensor() * probe), [nw.v, nw.g])
        assert [node.op for node in tape.nodes] == ["weight_norm", "mul", "sum"]
        grads = ad.backward(tape)
        eps = 1e-6
        for p in (nw.v, nw.g):
            flat = p.data.reshape(-1)
            for i in range(0, flat.size, 7):
                orig = flat[i]
                flat[i] = orig + eps
                lp = float((nw.tensor().data * probe).sum())
                flat[i] = orig - eps
                lm = float((nw.tensor().data * probe).sum())
                flat[i] = orig
                fd = (lp - lm) / (2 * eps)
                an = grads[p.name].reshape(-1)[i]
                assert abs(fd - an) <= 1e-8 + 1e-6 * abs(fd), (p.name, i)

    def test_weight_norm_off(self):
        net = init_conv_net(4, 2, rng=np.random.default_rng(15), weight_norm=False)
        assert net.layers[0].filter.g is None
        assert np.array_equal(
            net.layers[0].filter.tensor().data, net.layers[0].filter.v.data
        )


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
    ],
    ids=["plain", "conditioned", "dilated", "kernel_w1", "kernel_h1", "short_grid"],
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


class TestCompiledForward:
    @NET_VARIANTS
    def test_full_grid_matches_taped_reference(self, h, w, kh, kw, dil_h, dil_w, cond_ch):
        rng = np.random.default_rng(24)
        net = _random_net(rng, kh, kw, dil_h, dil_w, cond_ch)
        x = rng.standard_normal((h, w))
        cond = None if cond_ch is None else rng.standard_normal((cond_ch, h, w))
        mu_ref, ls_ref = taped_net_forward(x, cond, net)
        cnet = compile_net(net)
        mu, ls = compiled_forward(cnet, x, cond_biases(cnet, cond))
        assert np.abs(mu - mu_ref.data).max() <= 1e-12
        assert np.abs(ls - ls_ref.data).max() <= 1e-12
        assert np.abs(ls_ref.data).max() > 0.1


class TestNetBackward:
    """net_forward's hand-written backward against the op-by-op taped net."""

    @NET_VARIANTS
    def test_gradients_match_taped_reference(self, h, w, kh, kw, dil_h, dil_w, cond_ch):
        rng = np.random.default_rng(25)
        net = _random_net(rng, kh, kw, dil_h, dil_w, cond_ch)
        _directions_off_zero(net.parameters())
        # the grid and conditioner as leaves, so backward reports their gradients
        x = ad.Parameter(rng.standard_normal((h, w)), "grid")
        cond = None
        if cond_ch is not None:
            cond = ad.Parameter(rng.standard_normal((cond_ch, h, w)), "cond")
        a, b = rng.standard_normal((2, h, w))
        params = net.parameters() + [x] + ([] if cond is None else [cond])
        results = []
        for forward in (net_forward, taped_net_forward):

            def loss_fn():
                mu, ls = forward(x, cond, net)
                return ad.sum_(mu * a) + ad.sum_(ls * b)

            results.append(_taped_loss_and_grads(loss_fn, params))
        (loss, grads), (loss_ref, grads_ref) = results
        assert abs(loss - loss_ref) <= 1e-12
        assert grads.keys() == grads_ref.keys()
        for name, g_ref in grads_ref.items():
            assert np.abs(grads[name] - g_ref).max() <= 1e-12, name
        assert np.abs(grads["grid"]).max() > 0.1
        if cond is not None:
            assert np.abs(grads["cond"]).max() > 0.1

    def test_conditioned_stack_through_upsampler(self, monkeypatch):
        # three conditioned flows, the upsampler on the tape, reversed rows
        cfg = ModelConfig(
            height=4,
            n_flows=3,
            n_layers=2,
            residual_channels=4,
            conditioned=True,
            permutation_strategy="reverse",
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

        def loss_fn():
            conds = conditioner_grids(model, mel, grid.size)
            _, log_det, base = stack_loglik_terms(grid, conds, model.stack)
            return log_det + base

        loss, grads = _taped_loss_and_grads(loss_fn, params)
        monkeypatch.setattr(gridflow.flow, "net_forward", taped_net_forward)
        loss_ref, grads_ref = _taped_loss_and_grads(loss_fn, params)
        assert abs(loss - loss_ref) <= 1e-12 * abs(loss_ref)
        for name, g_ref in grads_ref.items():
            assert np.abs(grads[name] - g_ref).max() <= 1e-12, name
        assert np.abs(grads["upsampler.kernel1.v"]).max() > 1e-3

    def test_untaped_call_records_nothing(self):
        net = _random_net(np.random.default_rng(27), 3, 3, [1], [1], None)
        x = np.random.default_rng(28).standard_normal((4, 5))
        mu, ls = net_forward(x, None, net)
        assert mu.node_id is None and ls.node_id is None
        tape = ad.Tape()
        with tape:
            net_forward(x, None, net)
        assert [node.op for node in tape.nodes].count("net_forward") == 1
        assert "conv2d" not in [node.op for node in tape.nodes]


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
        assert mu.data.shape == (32, 7)
        assert ls.data.shape == (32, 7)

    def test_collect_hidden_layer_inputs(self):
        # what the compiled forward saves for the backward: each layer's
        # input, equal to the taped net's, then the skip sum and head
        net = init_conv_net(3, 4, rng=np.random.default_rng(18), dtype=np.float64)
        x = np.random.default_rng(19).standard_normal((8, 5))
        _, _, hidden = taped_net_forward(x, None, net, collect_hidden=True)
        saved = []
        compiled_forward(compile_net(net), x, saved=saved)
        assert len(hidden) == 4 and len(saved) == 5
        for hh, (layer_in, gate_t, gate_s) in zip(hidden, saved):
            assert hh.shape == layer_in.shape == gate_t.shape == gate_s.shape == (3, 8, 5)
            assert np.abs(layer_in - hh).max() <= 1e-12
        assert all(a.shape == (3, 40) for a in saved[-1])

    def test_conditioner_grid_shape_enforced(self):
        net = init_conv_net(2, 1, rng=np.random.default_rng(20))
        with pytest.raises(ValidationError):
            net_forward(np.zeros((4, 4), dtype=np.float32), np.zeros((5, 4, 4)), net)

    def test_gradient_through_weight_norm(self):
        net = init_conv_net(2, 1, rng=np.random.default_rng(21), dtype=np.float64)
        net.out_head.data = np.random.default_rng(22).standard_normal((2, 2, 1, 1))
        x = np.random.default_rng(23).standard_normal((4, 4))
        params = net.parameters()

        def loss_fn():
            mu, ls = net_forward(x, None, net)
            return ad.sum_(mu * mu) + ad.sum_(ls * ls)

        loss, tape = ad.record_forward(loss_fn, params)
        grads = ad.backward(tape)
        layer = net.layers[0]
        eps = 1e-6
        for pname in (layer.filter.g.name, layer.filter.v.name):
            p = next(pp for pp in params if pp.name == pname)
            flat = p.data.reshape(-1)
            orig = flat[0]
            flat[0] = orig + eps
            lp = float(loss_fn().data)
            flat[0] = orig - eps
            lm = float(loss_fn().data)
            flat[0] = orig
            fd = (lp - lm) / (2 * eps)
            an = grads[pname].reshape(-1)[0]
            assert abs(fd - an) <= 1e-7 + 1e-5 * max(abs(fd), abs(an)), pname
