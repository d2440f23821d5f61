"""Optimizer behavior, clip sampling, loss terms, and the training loop."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from gridflow import autodiff as ad
from gridflow.conditioner import MelConfig
from gridflow.errors import NumericalError, ValidationError
from gridflow.io import DatasetEntry, ModelConfig, load_preset
from gridflow.model import build_model
from gridflow.signal import Waveform, write_wav
from gridflow.train import (
    AdamState,
    Dataset,
    TrainConfig,
    Utterance,
    adam_step,
    batch_gradients,
    clip_loss_terms,
    grad_global_norm,
    sample_clip,
    train_loop,
)

LOG_2PI = np.log(2 * np.pi)


def tiny_model(conditioned=False, seed=0, dtype=np.float64, **kw):
    cfg = ModelConfig(
        height=4,
        n_flows=kw.pop("n_flows", 1),
        n_layers=kw.pop("n_layers", 2),
        residual_channels=4,
        mel=MelConfig(n_mels=8, n_fft=64, hop=16, win=64),
        conditioned=conditioned,
        **kw,
    )
    return build_model(cfg, seed=seed, dtype=dtype)


def sine_utterance(n, freq=440.0, seed=0, mel_config=None):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 22050.0
    x = 0.3 * np.sin(2 * np.pi * freq * t) + 0.01 * rng.standard_normal(n)
    wav = Waveform(samples=x.astype(np.float64), sample_rate=22050)
    return Utterance(wav, mel_config or MelConfig(n_mels=8, n_fft=64, hop=16, win=64))


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["checkpoint_interval", "log_every"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_non_positive_interval_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            TrainConfig(**{field: value})


class TestAdam:
    def _one_param(self, value=1.0):
        return [ad.Parameter(np.array([value], dtype=np.float64), "p")]

    def test_constant_gradient_step_size(self):
        # with a constant gradient the bias corrections cancel and the
        # update magnitude is the learning rate
        cfg = TrainConfig(learning_rate=1e-3)
        params = self._one_param()
        state = AdamState()
        for _ in range(3):
            before = params[0].data.copy()
            adam_step(params, {"p": np.array([2.5])}, state, cfg)
            step = before - params[0].data
            assert abs(step[0] - 1e-3) <= 1e-3 * 0.01
        assert state.t == 3

    def test_sign_follows_gradient(self):
        cfg = TrainConfig(learning_rate=1e-3)
        params = self._one_param()
        adam_step(params, {"p": np.array([-4.0])}, AdamState(), cfg)
        assert params[0].data[0] > 1.0

    def test_non_finite_gradient_skips_whole_step(self):
        cfg = TrainConfig()
        params = [
            ad.Parameter(np.array([1.0]), "a"),
            ad.Parameter(np.array([2.0]), "b"),
        ]
        state = AdamState()
        grads = {"a": np.array([1.0]), "b": np.array([np.nan])}
        adam_step(params, grads, state, cfg)
        assert state.skipped == 1
        assert state.t == 0
        assert params[0].data[0] == 1.0 and params[1].data[0] == 2.0

    def test_moments_held_in_float64(self):
        cfg = TrainConfig()
        params = [ad.Parameter(np.ones(3, dtype=np.float32), "w")]
        state = AdamState()
        adam_step(params, {"w": np.ones(3, dtype=np.float32)}, state, cfg)
        assert state.m["w"].dtype == np.float64
        assert state.v["w"].dtype == np.float64
        assert params[0].data.dtype == np.float32


class TestSampleClip:
    def test_hop_aligned_starts_cover_range(self):
        utt = sine_utterance(32000)
        ds = Dataset([utt])
        rng = np.random.default_rng(0)
        starts = {sample_clip(ds, 16000, 256, rng)[1] for _ in range(500)}
        assert all(s % 256 == 0 for s in starts)
        assert max(starts) == 15872  # floor((32000-16000)/256)*256
        assert min(starts) == 0

    def test_exact_length_pins_start(self):
        utt = sine_utterance(4096)
        ds = Dataset([utt])
        rng = np.random.default_rng(1)
        for _ in range(5):
            _, start = sample_clip(ds, 4096, 256, rng)
            assert start == 0

    def test_short_utterance_rejected(self):
        ds = Dataset([sine_utterance(1000)])
        with pytest.raises(ValidationError, match="shorter"):
            sample_clip(ds, 2000, 256, np.random.default_rng(2))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError, match="no utterances"):
            Dataset([])


class TestClipLoss:
    def test_fresh_model_closed_form(self):
        # zero-init heads make every flow the identity: per-dim NLL is the
        # standard normal negative log-density of the clip itself
        model = tiny_model()
        utt = sine_utterance(2048)
        loss = clip_loss_terms(model, utt, 256, 512)
        x = np.asarray(utt.wav.samples[256:768])
        expect = 0.5 * LOG_2PI + (x**2).mean() / 2.0
        assert abs(float(loss.data) - expect) <= 1e-9

    def test_conditioned_clip_runs_and_is_deterministic(self):
        model = tiny_model(conditioned=True, dtype=np.float64)
        utt = sine_utterance(2048)
        a = clip_loss_terms(model, utt, 64, 256)
        b = clip_loss_terms(model, utt, 64, 256)
        assert np.isfinite(a.data)
        assert float(a.data) == float(b.data)

    def test_gradient_reaches_parameters(self):
        model = tiny_model(dtype=np.float64)
        utt = sine_utterance(1024)
        params = model.parameters()
        loss, tape = ad.record_forward(
            lambda: clip_loss_terms(model, utt, 0, 256), params
        )
        grads = ad.backward(tape)
        assert grad_global_norm(grads) > 0.0


class TestDatasetManifest:
    def test_from_entries_filters_short_files(self, tmp_path):
        rng = np.random.default_rng(3)
        paths = []
        for i, n in enumerate((4000, 800)):
            p = tmp_path / f"u{i}.wav"
            write_wav(p, Waveform(rng.standard_normal(n) * 0.1, 22050))
            paths.append(p)
        entries = [DatasetEntry(path=str(p), duration=None) for p in paths]
        ds = Dataset.from_entries(entries, MelConfig(), min_length=1024)
        assert len(ds.utterances) == 1
        assert len(ds.utterances[0].wav) == 4000

    def test_all_too_short_rejected(self, tmp_path):
        p = tmp_path / "u.wav"
        write_wav(p, Waveform(np.zeros(100), 22050))
        with pytest.raises(ValidationError, match="at least"):
            Dataset.from_entries([DatasetEntry(str(p), None)], MelConfig(), 1024)


class TestTrainLoop:
    def _run(self, tmp_path, seed=0, steps=4):
        model = tiny_model(seed=seed, dtype=np.float64)
        ds = Dataset([sine_utterance(2048, seed=7)])
        cfg = TrainConfig(
            batch_size=2,
            clip_length=512,
            max_steps=steps,
            checkpoint_interval=2,
            log_every=2,
            seed=seed,
            out_dir=str(tmp_path),
        )
        seen = []
        train_loop(model, ds, cfg, on_metrics=seen.append)
        return model, seen

    def test_metrics_and_checkpoints_written(self, tmp_path):
        model, seen = self._run(tmp_path)
        lines = (tmp_path / "metrics.ndjson").read_text().strip().splitlines()
        records = [json.loads(l) for l in lines]
        assert [r["step"] for r in records] == [2, 4]
        for r in records:
            assert {"loss", "loglik_per_dim", "grad_norm", "seconds_per_step"} <= set(r)
            assert np.isfinite(r["loss"])
        assert seen == records
        assert (tmp_path / "ckpt-000002.manifest.json").exists()
        assert (tmp_path / "ckpt-000004.manifest.json").exists()
        assert model.step == 4

    def test_deterministic_for_fixed_seed(self, tmp_path):
        _, a = self._run(tmp_path / "a", seed=3)
        _, b = self._run(tmp_path / "b", seed=3)
        assert [r["loss"] for r in a] == [r["loss"] for r in b]

    def test_loss_moves_with_training(self, tmp_path):
        _, seen = self._run(tmp_path, steps=8)
        assert seen[0]["loss"] != seen[-1]["loss"]

    def test_non_finite_loss_dumps_batch(self, tmp_path):
        model = tiny_model(dtype=np.float64)
        model.stack.nets[0].out_head.data[0, 0, 0, 0] = np.inf
        ds = Dataset([sine_utterance(2048)])
        cfg = TrainConfig(
            batch_size=1, clip_length=512, max_steps=2, out_dir=str(tmp_path)
        )
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalError, match=r"in flow 0 at grid row \d+, column \d+"):
                train_loop(model, ds, cfg)
        assert (tmp_path / "bad-batch-000001.manifest.json").exists()


class TestBatchGradients:
    def test_per_clip_tapes_equal_one_batch_tape(self):
        # summing per-clip gradients over the batch is the batch-mean loss's gradient
        model = tiny_model(conditioned=True, n_flows=2, dtype=np.float64)
        rng = np.random.default_rng(4)
        for net in model.stack.nets:
            net.out_head.data = rng.standard_normal(net.out_head.data.shape) * 0.2
        utt = sine_utterance(2048)
        batch = [(utt, 0), (utt, 256), (utt, 512)]
        params = model.parameters()

        def batch_loss():
            total = None
            for u, start in batch:
                term = clip_loss_terms(model, u, start, 256)
                total = term if total is None else total + term
            return total * (1.0 / len(batch))

        loss_ref, tape = ad.record_forward(batch_loss, params)
        grads_ref = ad.backward(tape)
        loss, grads = batch_gradients(model, batch, 256)
        assert abs(loss - float(loss_ref.data)) <= 1e-12
        for name, g_ref in grads_ref.items():
            assert np.abs(grads[name] - g_ref).max() <= 1e-12, name


class TestOneNodePerClip:
    def test_tape_holds_one_node_per_clip(self):
        # each clip is one grid_nll node; the generic tape ops live in the tests
        model = tiny_model(conditioned=True, n_flows=2, dtype=np.float64)
        utt = sine_utterance(2048)

        def batch_loss():
            first, second = (clip_loss_terms(model, utt, start, 256) for start in (0, 256))
            return (first + second) * 0.5

        _, tape = ad.record_forward(batch_loss, model.parameters())
        assert [node.op for node in tape.nodes] == ["grid_nll", "grid_nll", "add", "mul"]
        assert all(node.out.data.ndim == 0 for node in tape.nodes)
        deleted = ["sub", "exp", "sigmoid", "leaky_relu", "sum_", "reshape", "transpose",
                   "narrow", "shift_down", "permute_rows", "paused"]
        assert [name for name in deleted if hasattr(ad, name)] == []
        assert not hasattr(ad.Tape(), "check_values")


class TestStepMemory:
    # tracemalloc peak of this step, measured: 138.8 MiB with one tape node
    # per clip whose backward frees each flow's activations as it goes
    # (165.0 MiB with one node per net; 196.0 MiB when each net kept every
    # layer's input and its head; 1,858 MiB with the op-by-op tape holding
    # both clips); per clip the nets keep
    # 8 flows x (2 x 8 + 2) x 64 x 2,048 fp32 values (72 MiB)
    PEAK_BOUND_MIB = 256

    def test_train_h16_step_peak_bounded(self):
        # one Adam step of wf-h16-c64 on 2 clips of 2,048 samples, fresh model
        model = build_model(load_preset("wf-h16-c64"), seed=0)
        mel_config = model.config.mel
        ds = Dataset([sine_utterance(4096, 220.0 * (k + 1), k, mel_config) for k in range(2)])
        cfg = TrainConfig(batch_size=2, clip_length=2048, max_steps=1, seed=0, log_every=1)
        tracemalloc.start()
        try:
            train_loop(model, ds, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 2**20 <= self.PEAK_BOUND_MIB


class TestClipMemory:
    # tracemalloc peak of one clip's step on wf-h16-c64 cut to 4 flows
    # (fp32, 2,048 samples), measured: 92.8 MiB when each net kept every
    # layer's input, its gates, the skip sum and the head; 77.8 MiB when it
    # keeps the gates, the last layer's input and the skip sum; 61.5 MiB
    # when the clip's one tape node frees each flow's saved arrays as its
    # backward uses them
    PEAK_BOUND_MIB = 70

    def test_reduced_h16_clip_peak_bounded(self):
        model = build_model(dataclasses.replace(load_preset("wf-h16-c64"), n_flows=4), seed=0)
        utt = sine_utterance(4096, 220.0, 0, model.config.mel)
        tracemalloc.start()
        try:
            batch_gradients(model, [(utt, 0)], 2048)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 2**20 <= self.PEAK_BOUND_MIB


class TestGradNorm:
    def test_known_values(self):
        assert grad_global_norm({"a": np.array([3.0, 4.0])}) == 5.0
        norm = grad_global_norm({"a": np.array([3.0, 4.0]), "b": np.array([12.0])})
        assert abs(norm - 13.0) <= 1e-12

    def test_empty(self):
        assert grad_global_norm({}) == 0.0
