"""Queued synthesis: ring buffers, engine equivalence, floors, and row costs."""

import numpy as np
import pytest
from oracle_refs import shift_down
from tape import taped_net_forward

from gridflow.conditioner import MelConfig, mel_spectrogram
from gridflow.errors import ValidationError
from gridflow.flow import FlowStack, SynthStats, stack_forward, stack_inverse
from gridflow.io import ModelConfig, load_preset
from gridflow.model import build_model, cast_model, prepare_grid, synthesize
from gridflow.network import default_dilations, init_conv_net, width_dilations
from gridflow.signal import (
    Waveform,
    bipartite_reverse_permutation,
    identity_permutation,
    reverse_permutation,
)
from gridflow.synth import LayerQueue, QueueState, compile_net, synth_queued, _row_step


def rigged_net(seed, channels=3, layers=2, dil_h=None, dtype=np.float64):
    rng = np.random.default_rng(seed)
    layers_d = dil_h or [1] * layers
    net = init_conv_net(
        channels,
        layers,
        dilations_h=layers_d,
        dilations_w=[1] * layers,
        rng=rng,
        dtype=dtype,
    )
    net.out_head.data = (rng.standard_normal(net.out_head.data.shape) * 0.2).astype(dtype)
    return net


def moderate_net(rng, dil_h, dil_w, cond_ch=None, channels=4):
    """An fp64 net whose every weight moves the data, with sigma kept near 1."""
    net = init_conv_net(
        channels,
        len(dil_h),
        dilations_h=dil_h,
        dilations_w=dil_w,
        cond_channels=cond_ch,
        rng=rng,
        dtype=np.float64,
    )
    params = {p.name: p for p in net.parameters()}
    for name, p in params.items():
        if name.endswith(".v"):
            p.data = rng.standard_normal(p.data.shape) * 0.3
    for name, p in params.items():
        if name.endswith(".g"):  # g = ||v|| makes the normed weight equal v
            v = params[name[:-1] + "v"].data
            p.data = np.sqrt((v**2).sum(axis=tuple(range(1, v.ndim))))
        elif "bias" in name:
            p.data = rng.standard_normal(p.data.shape) * 0.1
    net.out_head.data = rng.standard_normal(net.out_head.data.shape) * 0.15
    return net


def rigged_stack(h, n_flows, seed, perm="reverse", dtype=np.float64, dil_h=None):
    nets = [rigged_net(seed + k, dil_h=dil_h, dtype=dtype) for k in range(n_flows)]
    if perm == "mix":
        perms = [
            reverse_permutation(h) if k % 2 == 0 else bipartite_reverse_permutation(h)
            for k in range(n_flows)
        ]
    elif perm == "none":
        perms = [identity_permutation(h) for _ in range(n_flows)]
    else:
        perms = [reverse_permutation(h) for _ in range(n_flows)]
    return FlowStack(nets=nets, permutations=perms)


COLS = (-1, 0, 1)  # the width-tap offsets of a kw = 3 layer at width dilation 1


def read(q: LayerQueue, delay: int) -> np.ndarray:
    """Row `delay` pushes back from q's next push (its offset-0 tap); zeros past capacity."""
    if delay >= len(q.slots):
        return np.zeros_like(q.slots[0, 0, :, 0])
    return q.slots[(q.pushed - delay) % len(q.slots), q.col_offsets.index(0), :, 0]


class TestLayerQueue:
    def test_ring_wraparound(self):
        q = LayerQueue(2, 3, 4, np.float64, COLS)
        rows = [np.full((3, 1, 4), float(i)) for i in range(5)]
        for r in rows:
            q.push(r)
        assert np.array_equal(read(q, 1), rows[4][:, 0])
        assert np.array_equal(read(q, 2), rows[3][:, 0])
        assert np.array_equal(read(q, 3), np.zeros((3, 4)))  # evicted: beyond capacity

    def test_reads_past_start_are_zero(self):
        q = LayerQueue(4, 2, 3, np.float64, COLS)
        assert np.array_equal(read(q, 1), np.zeros((2, 3)))
        q.push(np.ones((2, 1, 3)))
        assert np.array_equal(read(q, 2), np.zeros((2, 3)))  # before first row
        assert np.array_equal(q.taps(1), np.zeros((6, 3)))
        assert np.array_equal(read(q, 1), np.ones((2, 3)))

    def test_reads_beyond_capacity_are_zero(self):
        q = LayerQueue(2, 1, 1, np.float64, COLS)
        for i in range(4):
            q.push(np.full((1, 1, 1), float(i + 1)))
        assert read(q, 3)[0, 0] == 0.0

    def test_zero_capacity_is_inert(self):
        q = LayerQueue(0, 2, 2, np.float64, COLS)
        q.push(np.ones((2, 1, 2)))
        assert len(q.slots) == 1  # room for the current row's taps only
        assert np.array_equal(read(q, 1), np.zeros((2, 2)))

    def test_slots_hold_width_taps(self):
        q = LayerQueue(1, 2, 4, np.float64, COLS)
        x = np.arange(1.0, 9.0).reshape(2, 4)
        q.push(x[:, None])
        taps = q.taps(0).reshape(3, 2, 4)  # the newest row's
        zero = np.zeros((2, 1))
        assert np.array_equal(taps[0], np.hstack([zero, x[:, :-1]]))  # column j reads j - 1
        assert np.array_equal(taps[1], x)
        assert np.array_equal(taps[2], np.hstack([x[:, 1:], zero]))  # column j reads j + 1


    def test_centre_only_layer_holds_one_tap(self):
        # width dilation 4 on 4 columns: both side taps read only the zero border
        net = moderate_net(np.random.default_rng(3), [1, 1], [1, 4])
        qs = QueueState.for_net(compile_net(net), 4, np.float64, net.residual_channels)
        assert [q.slots.shape[1] for q in qs.queues] == [3, 1]
        assert qs.queues[1].col_offsets == (0,)


class TestQueueContents:
    @pytest.mark.parametrize("dil_h", [[1, 1], [1, 2]])
    def test_final_buffers_match_full_recompute(self, dil_h):
        # drive the per-row engine by hand for one flow, then verify each
        # layer's buffer holds exactly the trailing rows of that layer's
        # input grid from a full conv-stack pass over the generated output
        h, w = 8, 4
        net = rigged_net(0, dil_h=dil_h)
        cnet = compile_net(net)
        qs = QueueState.for_net(cnet, w, np.float64, net.residual_channels)
        z = np.random.default_rng(1).standard_normal((h, w))
        out = np.zeros_like(z)
        prev = np.zeros(w)
        for i in range(h):
            mu_i, ls_i = _row_step(cnet, qs, prev, None, None)
            out[i] = (z[i] - mu_i) / np.exp(ls_i)
            prev = out[i]
        shifted = shift_down(out)
        _, _, hidden = taped_net_forward(shifted, None, net, collect_hidden=True)
        for ell, layer in enumerate(net.layers):
            cap = (net.kernel_h - 1) * layer.dilation_h
            for delay in range(1, min(cap, h) + 1):
                row = read(qs.queues[ell], delay)
                assert np.abs(row - hidden[ell][:, h - delay, :]).max() <= 1e-12

    def test_dilated_schedule_with_width_dilations(self):
        # the h = 64 height schedule reaches 32 rows back; the width taps of
        # every slot are dilated too
        h, w, dil_h = 40, 6, [1, 2, 4, 8, 16]
        rng = np.random.default_rng(2)
        net = moderate_net(rng, dil_h, [2, 4, 8, 16, 32])
        cnet = compile_net(net)
        qs = QueueState.for_net(cnet, w, np.float64, net.residual_channels)
        z = rng.standard_normal((h, w))
        out = np.zeros_like(z)
        prev = np.zeros(w)
        for i in range(h):
            mu_i, ls_i = _row_step(cnet, qs, prev, None, None)
            out[i] = (z[i] - mu_i) / np.exp(ls_i)
            prev = out[i]
        shifted = shift_down(out)
        _, _, hidden = taped_net_forward(shifted, None, net, collect_hidden=True)
        for ell, layer in enumerate(net.layers):
            for delay in range(1, (net.kernel_h - 1) * layer.dilation_h + 1):
                row = read(qs.queues[ell], delay)
                assert np.abs(row - hidden[ell][:, h - delay, :]).max() <= 1e-12


class TestEngineEquivalence:
    @pytest.mark.parametrize(
        "h,w,n_flows,perm",
        [(4, 4, 1, "none"), (8, 8, 2, "reverse"), (8, 4, 4, "mix"), (2, 16, 3, "reverse")],
    )
    def test_matches_naive(self, h, w, n_flows, perm):
        stack = rigged_stack(h, n_flows, 10, perm)
        z = np.random.default_rng(11).standard_normal((h, w))
        naive_stats = SynthStats()
        queued_stats = SynthStats()
        x_naive = stack_forward(z, None, stack, stats=naive_stats)
        x_queued = synth_queued(z, None, stack, stats=queued_stats)
        assert np.abs(x_naive - x_queued).max() <= 1e-10
        assert queued_stats.row_steps == n_flows * h
        assert naive_stats.full_net_evals == n_flows * h

    def test_float32(self):
        stack = rigged_stack(8, 2, 20, dtype=np.float32)
        z = np.random.default_rng(21).standard_normal((8, 8)).astype(np.float32)
        x_naive = stack_forward(z, None, stack)
        x_queued = synth_queued(z, None, stack)
        assert np.abs(x_naive - x_queued).max() <= 1e-5

    def test_dilated_height_schedule(self):
        stack = rigged_stack(16, 2, 30, dil_h=[1, 2])
        z = np.random.default_rng(31).standard_normal((16, 4))
        assert np.abs(stack_forward(z, None, stack) - synth_queued(z, None, stack)).max() <= 1e-10

    def test_h64_schedules_with_conditioner(self):
        # the real h = 64 height schedule and the full width cycle (up to
        # 128, so a width of 24 is narrower than the width reach), with a
        # random conditioner grid
        h, w, n_flows, m = 64, 24, 2, 5
        rng = np.random.default_rng(80)
        nets = [
            moderate_net(rng, default_dilations(h), width_dilations(8), cond_ch=m)
            for _ in range(n_flows)
        ]
        stack = FlowStack(nets=nets, permutations=[reverse_permutation(h)] * n_flows)
        cond = rng.standard_normal((m, h, w))
        z = rng.standard_normal((h, w))
        x_naive = stack_forward(z, cond, stack)
        x_queued = synth_queued(z, cond, stack)
        assert np.abs(x_naive - x_queued).max() <= 1e-12
        assert np.abs(x_naive - z).max() > 0.1  # every flow moved the data

    @pytest.mark.parametrize(
        "h,w",
        [(8, 1), (8, 2), (8, 4), (8, 5), (3, 5)],
        ids=["width1", "width2", "width_eq_dil", "width_dil_plus1", "below_reach"],
    )
    def test_narrow_grids(self, h, w):
        # width dilations 1 and 4, so a side tap dies at w = 1 or at w = 4;
        # height dilations 1 and 2 reach 7 rows, more than h = 3. Both engines
        # against the taped oracle's density pass (identity row orders)
        rng = np.random.default_rng(81)
        nets = [moderate_net(rng, [1, 2], [1, 4], cond_ch=3) for _ in range(2)]
        stack = FlowStack(nets=nets, permutations=[identity_permutation(h)] * 2)
        cond, z = rng.standard_normal((3, h, w)), rng.standard_normal((h, w))
        for engine in (stack_forward, synth_queued):
            x = engine(z, cond, stack)
            y = x
            for net in nets:
                mu, ls = taped_net_forward(shift_down(y), cond, net)
                y = np.exp(ls.data) * y + mu.data
            assert np.abs(y - z).max() <= 1e-12
            assert np.abs(x - z).max() > 0.02  # the flows moved the data

    def test_wrong_cond_shape_rejected(self):
        stack = rigged_stack(4, 2, 40)
        z = np.zeros((4, 4))
        for engine in (stack_forward, synth_queued):
            with pytest.raises(ValidationError, match="conditioner"):
                engine(z, np.zeros((5, 4, 3)), stack)


class TestPresetRoundTrip:
    """The density pass, then queued synthesis, at wf-h16-c64's shape with a conditioner.

    h = 16 under the auto schedule (4 reverse, then 4 bipartite flows), so
    the round trip gates all 8 composed row orders with R = 64, 8 layers and
    80 mel bands through the upsampler. Every normed weight is drawn from
    N(0, 1 / fan_in) and each output head from N(0, 0.05^2), so every flow
    moves the data. fp32 roundoff grows with the heads: at a head scale of
    0.1 the fp32 round trip of this clip reads 1e-5 to 8e-5 over three
    seeds (fp64 stays near 1e-14), at 0.05 it reads 8e-7 to 2.6e-6.
    """

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_round_trip(self, dtype, tol):
        model = cast_model(build_model(load_preset("wf-h16-c64"), seed=0), dtype)
        rng = np.random.default_rng(90)
        params = {p.name: p for p in model.parameters()}
        for name, p in params.items():
            if name.endswith(".v"):
                fan_in = int(np.prod(p.data.shape[1:]))
                p.data = (rng.standard_normal(p.data.shape) / np.sqrt(fan_in)).astype(dtype)
            elif name.endswith("out_head"):
                p.data = (rng.standard_normal(p.data.shape) * 0.05).astype(dtype)
        for name, p in params.items():
            if name.endswith(".g"):  # g = ||v|| makes the normed weight equal v
                v = params[name[:-1] + "v"].data
                p.data = np.sqrt((v * v).sum(axis=tuple(range(1, v.ndim)))).astype(dtype)
        kinds = [perm.kind for perm in model.stack.permutations]
        assert kinds == ["reverse"] * 4 + ["bipartite_reverse"] * 4
        t = np.arange(16 * 200) / 22050.0
        grid, cond, _ = prepare_grid(model, Waveform(0.3 * np.sin(2 * np.pi * 220 * t), 22050))
        assert cond.shape == (80, 16, 200)
        z, _ = stack_inverse(grid, cond, model.stack)
        back = synth_queued(z, cond, model.stack)
        assert np.abs(z - grid).max() > 0.5  # the flows moved the data
        assert np.abs(back - grid).max() <= tol


class TestSigmaFloor:
    def test_floor_applies_and_tallies(self):
        stack = rigged_stack(4, 1, 50)
        stack.nets[0].out_head_bias.data[1] = -50.0  # log-sigma far below the floor
        z = np.random.default_rng(51).standard_normal((4, 6))
        stats = SynthStats()
        x = synth_queued(z, None, stack, stats=stats)
        assert np.all(np.isfinite(x))
        assert stats.sigma_floored == 4 * 6
        # both engines floor identically, so they still agree
        naive = stack_forward(z, None, stack)
        assert np.abs(x - naive).max() <= 1e-6

    def test_no_floor_on_healthy_model(self):
        stack = rigged_stack(4, 1, 52)
        stats = SynthStats()
        synth_queued(np.zeros((4, 4)), None, stack, stats=stats)
        assert stats.sigma_floored == 0


class TestConstantRowCost:
    def test_flops_do_not_depend_on_values(self):
        # multiply-adds per column: the input projection (R = 3), per layer
        # the residual and skip projections (R x 2R) and, per written height
        # tap, 3 width taps (3 R x 2R), then the skip head (R x R) and the
        # output head (R x 2). Rows 0 and 1 of these height-dilation-1 layers
        # skip 2 and 1 height taps, whose ring slots still hold the zero pad
        stack = rigged_stack(8, 1, 60)
        r, w = 3, 4
        fixed = r + 2 * r * 2 * r + r * r + r * 2
        by_hand = [(fixed + 2 * n_h * 3 * r * 2 * r) * w for n_h in (1, 2, 3, 3, 3, 3, 3, 3)]
        assert by_hand[:3] == [648, 1080, 1512]
        for z in (np.zeros((8, 4)), np.random.default_rng(61).standard_normal((8, 4))):
            stats = SynthStats()
            synth_queued(z, None, stack, stats=stats)
            assert stats.row_flops == by_hand

    def test_conditioned_count_by_hand(self):
        # per column as above, plus the conditioner (M x 2R) per layer. On 2
        # columns the width-dilation-2 layer keeps only its centre tap
        # (R x 2R per height tap), the dilation-1 layer all 3 (3 R x 2R)
        r, m, h, w = 3, 5, 4, 2
        net = init_conv_net(r, 2, cond_channels=m, rng=np.random.default_rng(63))
        assert [layer.dilation_w for layer in net.layers] == [1, 2]
        stack = FlowStack(nets=[net], permutations=[identity_permutation(h)])
        cond = np.random.default_rng(64).standard_normal((m, h, w)).astype(np.float32)
        stats = SynthStats()
        synth_queued(np.zeros((h, w), dtype=np.float32), cond, stack, stats=stats)
        fixed = r + 2 * (m * 2 * r + r * 2 * r) + r * r + r * 2
        by_hand = [(fixed + n_h * (3 + 1) * r * 2 * r) * w for n_h in (1, 2, 3, 3)]
        assert by_hand == [372, 516, 660, 660]
        assert stats.row_flops == by_hand

    def test_flop_count_shared_across_inputs(self):
        stack = rigged_stack(8, 1, 62)
        a, b = SynthStats(), SynthStats()
        synth_queued(np.zeros((8, 4)), None, stack, stats=a)
        synth_queued(np.ones((8, 4)), None, stack, stats=b)
        assert a.row_flops == b.row_flops


class TestConditionedSynthesis:
    def _model(self, seed=0):
        cfg = ModelConfig(
            height=4,
            n_flows=2,
            n_layers=2,
            residual_channels=4,
            mel=MelConfig(n_mels=8, n_fft=64, hop=16, win=64),
            conditioned=True,
        )
        model = build_model(cfg, seed=seed, dtype=np.float64)
        rng = np.random.default_rng(seed + 1)
        for net in model.stack.nets:
            net.out_head.data = rng.standard_normal(net.out_head.data.shape) * 0.2
        return model

    def _mel(self, model, n=256):
        t = np.arange(n) / 22050.0
        wav = Waveform(0.3 * np.sin(2 * np.pi * 440 * t), 22050)
        return mel_spectrogram(wav, model.config.mel)

    def test_engines_agree_with_conditioning(self):
        model = self._model()
        mel = self._mel(model)
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        a = synthesize(model, mel, 250, rng=rng_a, engine="queued")
        b = synthesize(model, mel, 250, rng=rng_b, engine="naive")
        assert len(a) == 250 and len(b) == 250
        assert np.abs(a.samples - b.samples).max() <= 1e-10

    def test_missing_mel_rejected(self):
        model = self._model()
        with pytest.raises(ValidationError, match="mel"):
            synthesize(model, None, 100)

    def test_unknown_engine_rejected(self):
        model = self._model()
        with pytest.raises(ValidationError, match="engine"):
            synthesize(model, self._mel(model), 100, engine="warp")

    def test_fresh_model_passes_latent_through(self):
        # identity-initialized flows map the latent straight to the output
        cfg = ModelConfig(
            height=4, n_flows=2, n_layers=2, residual_channels=4, conditioned=False
        )
        model = build_model(cfg, seed=0, dtype=np.float64)
        rng = np.random.default_rng(7)
        out = synthesize(model, None, 64, rng=rng)
        z = np.random.default_rng(7).standard_normal((4, 16))
        # permutations undo themselves across the two reversed flows only if
        # the schedule says so; instead just check std=0 gives silence
        quiet = synthesize(model, None, 64, std=0.0, rng=np.random.default_rng(8))
        assert np.all(quiet.samples == 0.0)
        assert out.samples.std() > 0.1
