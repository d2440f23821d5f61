"""Model assembly: permutation schedules, builds, casting, likelihood and its memory."""

import tracemalloc

import numpy as np
import pytest

from gridflow.conditioner import MelConfig, mel_spectrogram
from gridflow.errors import ValidationError
from gridflow.io import ModelConfig, load_preset
from gridflow.model import (
    build_model,
    cast_model,
    conditioner_grids,
    count_parameters,
    loglik,
    permutation_schedule,
    prepare_grid,
    synthesize,
)
from gridflow.signal import Waveform

LOG_2PI = np.log(2 * np.pi)


def tiny_config(**kw):
    base = dict(
        height=4,
        n_flows=2,
        n_layers=2,
        residual_channels=4,
        conditioned=False,
        mel=MelConfig(n_mels=8, n_fft=64, hop=16, win=64),
    )
    base.update(kw)
    return ModelConfig(**base)


class TestPermutationSchedule:
    def test_auto_eight_flows_mixes_kinds(self):
        perms = permutation_schedule("auto", 8, 16)
        kinds = [p.kind for p in perms]
        assert kinds == ["reverse"] * 4 + ["bipartite_reverse"] * 4

    def test_auto_single_flow_is_identity(self):
        perms = permutation_schedule("auto", 1, 8)
        assert perms[0].kind == "identity"
        assert np.array_equal(perms[0].row_map, np.arange(8))

    def test_auto_other_counts_reverse(self):
        perms = permutation_schedule("auto", 3, 8)
        assert [p.kind for p in perms] == ["reverse"] * 3

    def test_explicit_strategies(self):
        assert [p.kind for p in permutation_schedule("none", 2, 4)] == ["identity"] * 2
        assert [p.kind for p in permutation_schedule("reverse", 2, 4)] == ["reverse"] * 2
        kinds = [p.kind for p in permutation_schedule("bipartite_mix", 4, 8)]
        assert kinds == ["reverse"] * 2 + ["bipartite_reverse"] * 2


class TestBuildModel:
    def test_flow_and_permutation_counts(self):
        model = build_model(tiny_config(), seed=0)
        assert model.stack.n_flows == 2
        assert len(model.stack.permutations) == 2
        assert model.upsampler is None

    def test_conditioned_build_has_upsampler(self):
        model = build_model(tiny_config(conditioned=True), seed=0)
        assert model.upsampler is not None
        names = {p.name for p in model.parameters()}
        assert "upsampler.kernel1.v" in names
        assert any(n.startswith("flow0.") for n in names)

    def test_deterministic_init(self):
        a = build_model(tiny_config(), seed=5)
        b = build_model(tiny_config(), seed=5)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert pa.name == pb.name
            assert np.array_equal(pa.data, pb.data)
        c = build_model(tiny_config(), seed=6)
        assert any(
            not np.array_equal(pa.data, pc.data)
            for pa, pc in zip(a.parameters(), c.parameters())
        )

    def test_parameter_names_unique(self):
        model = build_model(tiny_config(conditioned=True), seed=0)
        names = [p.name for p in model.parameters()]
        assert len(names) == len(set(names))

    def test_count_parameters(self):
        model = build_model(tiny_config(), seed=0)
        assert count_parameters(model) == sum(p.data.size for p in model.parameters())

    def test_cast_round_trip(self):
        model = build_model(tiny_config(), seed=0)
        assert model.dtype == np.float32
        cast_model(model, np.float64)
        assert model.dtype == np.float64
        assert all(p.data.dtype == np.float64 for p in model.parameters())


class TestPrepareGrid:
    def test_pads_to_height_multiple(self):
        model = build_model(tiny_config(), seed=0)
        wav = Waveform(np.ones(10, dtype=np.float32), 22050)
        grid, cond, pad = prepare_grid(model, wav)
        assert grid.shape == (4, 3)
        assert pad == 2
        assert cond is None

    def test_sample_rate_checked(self):
        model = build_model(tiny_config(), seed=0)
        with pytest.raises(ValidationError, match="sample rate"):
            prepare_grid(model, Waveform(np.zeros(8), 16000))

    def test_empty_waveform_rejected(self):
        model = build_model(tiny_config(), seed=0)
        with pytest.raises(ValidationError, match="no samples"):
            prepare_grid(model, Waveform(np.zeros(0), 22050))

    def test_conditioned_grids_align(self):
        model = build_model(tiny_config(conditioned=True), seed=0, dtype=np.float64)
        n = 256
        wav = Waveform(0.1 * np.sin(np.arange(n) / 10.0), 22050)
        grid, cond, pad = prepare_grid(model, wav)
        assert pad == 0
        assert cond.shape == (8, 4, n // 4)  # one grid; each flow gathers its rows


class TestLoglik:
    def test_fresh_model_standard_normal_density(self):
        model = build_model(tiny_config(), seed=0, dtype=np.float64)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(64)
        report = loglik(model, Waveform(x, 22050))
        expect = -0.5 * LOG_2PI - (x**2).mean() / 2.0
        assert report.log_det == 0.0
        assert abs(report.per_dim - expect) <= 1e-12

    def test_trained_direction_beats_white_noise_on_silence(self):
        # silence is far more likely than unit noise under the base measure
        model = build_model(tiny_config(), seed=0, dtype=np.float64)
        quiet = loglik(model, Waveform(np.zeros(64), 22050))
        loud = loglik(model, Waveform(np.random.default_rng(2).standard_normal(64), 22050))
        assert quiet.per_dim > loud.per_dim


class TestSynthesize:
    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_non_positive_length_rejected(self, n_samples):
        model = build_model(tiny_config(), seed=0)
        with pytest.raises(ValidationError, match="n_samples"):
            synthesize(model, None, n_samples)


class TestInferenceMemory:
    """One conditioner grid: memory of 0.5 s of audio at wf-h16-c64 (fp32, fresh model).

    Each bound lies between the figure measured with one permuted grid copy
    per flow and the one measured with the single grid and one gathered
    copy alive at a time (tracemalloc peaks, which do not drift with the
    host's speed).
    """

    @pytest.fixture(scope="class")
    def model(self):
        return build_model(load_preset("wf-h16-c64"), seed=0)

    @staticmethod
    def _half_second(model):
        rate = model.config.sample_rate
        t = np.arange(rate // 2) / rate
        return Waveform((0.3 * np.sin(2 * np.pi * 220 * t)).astype(np.float32), rate)

    @staticmethod
    def _peak_mib(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_one_conditioner_grid(self, model):
        # 8 per-flow grids held 27.0 MiB; the one (80, 16, 690) grid holds 3.4
        wav = self._half_second(model)
        cond = conditioner_grids(model, mel_spectrogram(wav, model.config.mel), 11040)
        assert cond.shape == (80, 16, 690) and cond.flags.c_contiguous
        assert cond.nbytes / 2**20 <= 8

    def test_loglik_peak_bounded(self, model):
        # per-flow grids: 72.3 MiB; one grid: 48.6 MiB
        wav = self._half_second(model)
        assert self._peak_mib(lambda: loglik(model, wav)) <= 60

    def test_queued_synthesis_peak_bounded(self, model):
        # per-flow grids: 57.7 MiB; one grid: 23.8 MiB
        wav = self._half_second(model)
        mel = mel_spectrogram(wav, model.config.mel)
        rng = np.random.default_rng(0)
        assert self._peak_mib(lambda: synthesize(model, mel, len(wav), rng=rng)) <= 40
