"""Mel analysis, learned upsampling, and conditioner grid layout."""

import numpy as np
import pytest
from oracle_refs import upsample_reference

from gridflow.conditioner import (
    LEAKY_SLOPE,
    LOG_FLOOR,
    MelConfig,
    conditioner_grids_for_length,
    hz_to_mel,
    init_upsampler,
    mel_filterbank,
    mel_spectrogram,
    mel_to_hz,
    upsample,
    upsample_backward,
)
from gridflow.errors import ValidationError
from gridflow.flow import FlowStack, flow_conds
from gridflow.signal import (
    Waveform,
    bipartite_reverse_permutation,
    reverse_permutation,
    squeeze,
)

SR = 22050


def wav(x):
    return Waveform(samples=np.asarray(x, dtype=np.float64), sample_rate=SR)


class TestMelScale:
    def test_round_trip(self):
        f = np.array([0.0, 100.0, 440.0, 4000.0, 11025.0])
        assert np.abs(mel_to_hz(hz_to_mel(f)) - f).max() <= 1e-6

    def test_known_anchor(self):
        # 1000 Hz is 2595*log10(1 + 1000/700) mels
        assert abs(hz_to_mel(1000.0) - 2595.0 * np.log10(1.0 + 1000.0 / 700.0)) <= 1e-12


class TestFilterbank:
    def test_shape_and_support(self):
        fb = mel_filterbank(80, 1024, SR)
        assert fb.shape == (80, 513)
        assert fb.min() >= 0.0
        assert fb.max() <= 1.0 + 1e-12
        # every filter has support, and every interior bin is covered
        # (DC sits below the first rising edge, Nyquist at the last falling zero)
        assert (fb.sum(axis=1) > 0).all()
        assert (fb.sum(axis=0)[1:-1] > 0).all()

    def test_triangle_peaks_at_centers(self):
        fb = mel_filterbank(10, 1024, SR)
        centers_hz = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(SR / 2), 12))[1:-1]
        bin_freqs = np.arange(513) * (SR / 1024)
        for m in range(10):
            peak_bin = fb[m].argmax()
            spacing = SR / 1024
            assert abs(bin_freqs[peak_bin] - centers_hz[m]) <= spacing


class TestMelFrames:
    @pytest.mark.parametrize(
        "n,frames",
        [(1024, 4), (1025, 5), (1279, 5), (1280, 5), (2048, 8), (4096, 16)],
    )
    def test_exact_frame_count(self, n, frames):
        x = np.random.default_rng(0).standard_normal(n) * 0.1
        mel = mel_spectrogram(wav(x))
        assert mel.n_frames == frames
        assert mel.frames.shape == (frames, 80)

    def test_short_waveform_rejected(self):
        with pytest.raises(ValidationError, match="window"):
            mel_spectrogram(wav(np.zeros(1023)))

    def test_silence_hits_log_floor(self):
        mel = mel_spectrogram(wav(np.zeros(2048)))
        assert np.all(mel.frames == np.log(LOG_FLOOR))

    def test_sine_peaks_at_expected_band(self):
        t = np.arange(8192) / SR
        x = 0.5 * np.sin(2 * np.pi * 440.0 * t)
        mel = mel_spectrogram(wav(x))
        centers_hz = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(SR / 2), 82))[1:-1]
        k = mel.frames[mel.n_frames // 2].argmax()
        # mel bins are dense near 440 Hz; the peak must land within one band
        spacing = centers_hz[k + 1] - centers_hz[k]
        assert abs(centers_hz[k] - 440.0) <= spacing

    def test_frame_against_direct_dft(self):
        # re-derive one frame with explicit padding, windowing, and a
        # cos/sin matrix in place of the FFT
        cfg = MelConfig()
        rng = np.random.default_rng(1)
        x = rng.standard_normal(2000) * 0.2
        mel = mel_spectrogram(wav(x), cfg)

        padded = np.pad(x, (512, 512 + 256), mode="reflect")
        frame_idx = 3
        seg = padded[frame_idx * 256 : frame_idx * 256 + 1024].copy()
        win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(1024) / 1024)
        seg *= win
        n = np.arange(1024)
        k = np.arange(513)[:, None]
        real = (np.cos(2 * np.pi * k * n / 1024) * seg).sum(axis=1)
        imag = (-np.sin(2 * np.pi * k * n / 1024) * seg).sum(axis=1)
        mag = np.sqrt(real**2 + imag**2)
        fb = mel_filterbank(80, 1024, SR)
        expect = np.log(np.maximum(fb @ mag, LOG_FLOOR))
        assert np.abs(mel.frames[frame_idx] - expect).max() <= 1e-8


class TestUpsampler:
    def test_stride_factoring(self):
        up = init_upsampler(256)
        assert up.stride == 16
        assert up.kernel1.v.data.shape == (1, 1, 3, 32)

    def test_bad_hop_rejected(self):
        with pytest.raises(ValidationError, match="strides"):
            init_upsampler(250)

    def test_output_geometry(self):
        up = init_upsampler(256, rng=np.random.default_rng(2), dtype=np.float64)
        frames = np.random.default_rng(3).standard_normal((7, 80))
        assert upsample(frames, up).shape == (80, 7 * 256)

    def test_rigged_kernels_repeat_frames(self):
        # delta-band kernels make each layer a pure repeat-by-stride
        up = init_upsampler(256, dtype=np.float64, weight_norm=False)
        for kern in (up.kernel1, up.kernel2):
            k = np.zeros((1, 1, 3, 32))
            k[0, 0, 1, 8:24] = 1.0
            kern.v.data = k
        frames = np.abs(np.random.default_rng(4).standard_normal((3, 5))) + 0.1
        feat = upsample(frames, up)
        expect = np.repeat(frames.T, 256, axis=1)  # (5 bands, 3*256)
        assert feat.shape == (5, 768)
        assert np.abs(feat - expect).max() <= 1e-12

    def test_weight_norm_initial_identity(self):
        up = init_upsampler(256, rng=np.random.default_rng(5), dtype=np.float64)
        w = up.kernel1.tensor()
        assert np.abs(w - up.kernel1.v.data).max() <= 1e-12

    @pytest.mark.parametrize("hop", [1, 4, 9, 16, 256])
    def test_matches_scatter_oracle(self, hop):
        up = _random_upsampler(hop, seed=hop)
        frames = np.random.default_rng(100 + hop).standard_normal((3, 5))
        kernels = [
            kern.g.data[0] * kern.v.data[0, 0] / np.sqrt((kern.v.data**2).sum())
            for kern in (up.kernel1, up.kernel2)
        ]
        biases = [float(up.bias1.data), float(up.bias2.data)]
        expect = upsample_reference(frames, kernels, biases, up.stride, LEAKY_SLOPE)
        feat = upsample(frames, up)
        assert feat.shape == expect.shape
        assert np.abs(feat - expect).max() <= 1e-12

    def test_gradients_match_finite_differences(self):
        # stride 3 is odd, so the s // 2 trim does not align with the phase cycle
        up = _random_upsampler(9, seed=11)
        frames = np.random.default_rng(12).standard_normal((3, 4))
        probe = np.random.default_rng(13).standard_normal(upsample(frames, up).shape)
        saved, grads = [], {}
        upsample(frames, up, saved)
        d_frames = upsample_backward(saved, up, probe, grads)
        assert saved == []
        eps = 1e-6
        for arr, grad in [(p.data, grads[id(p)]) for p in up.parameters()] + [(frames, d_frames)]:
            flat, g = arr.reshape(-1), np.reshape(grad, -1)  # flat is a view: writes reach arr
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                lp = float((upsample(frames, up) * probe).sum())
                flat[i] = orig - eps
                lm = float((upsample(frames, up) * probe).sum())
                flat[i] = orig
                fd = (lp - lm) / (2 * eps)
                assert abs(fd - g[i]) <= 1e-9 + 1e-6 * max(abs(fd), abs(g[i]))


def _random_upsampler(hop, seed):
    """fp64 upsampler with random v, g away from ||v||, and nonzero biases."""
    rng = np.random.default_rng(seed)
    up = init_upsampler(hop, rng=rng, dtype=np.float64)
    for kern in (up.kernel1, up.kernel2):
        kern.v.data = rng.standard_normal(kern.v.data.shape)
        kern.g.data = np.abs(rng.standard_normal(1)) + 0.5
    up.bias1.data = np.asarray(rng.standard_normal() * 0.3)
    up.bias2.data = np.asarray(rng.standard_normal() * 0.3)
    return up


class TestConditionerGrids:
    def test_squeeze_layout_per_channel(self):
        rng = np.random.default_rng(6)
        feats = rng.standard_normal((3, 24))
        grid = conditioner_grids_for_length(feats, 24, 4)
        assert grid.shape == (3, 4, 6)
        assert grid.flags.c_contiguous
        for m in range(3):
            assert np.array_equal(grid[m], squeeze(feats[m], 4))

    def test_cumulative_permutations(self):
        # flow k's rows of the one grid are the grid scattered by
        # permutations 0..k-1, the order flow k's input arrives in
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((2, 32))
        perms = [reverse_permutation(8), bipartite_reverse_permutation(8), reverse_permutation(8)]
        grid = conditioner_grids_for_length(feats, 32, 8)
        cond_of = flow_conds(grid, FlowStack(nets=[None] * 3, permutations=perms), (8, 4))
        expect = grid
        for k, perm in enumerate(perms):
            flow_rows = cond_of(k)
            assert np.array_equal(flow_rows, expect)
            assert flow_rows.flags.c_contiguous  # a BLAS operand as it is
            expect = np.empty_like(expect)
            expect[:, perm.row_map] = flow_rows

    def test_ragged_tail_trimmed(self):
        feats = np.arange(2 * 21, dtype=np.float64).reshape(2, 21)
        grid = conditioner_grids_for_length(feats, 21, 4)
        assert grid.shape == (2, 4, 5)  # 21 -> 20 samples

    def test_too_short_rejected(self):
        # fewer samples than one column, then fewer features than samples
        for n_samples in (3, 4):
            with pytest.raises(ValidationError, match="need"):
                conditioner_grids_for_length(np.zeros((2, 3)), n_samples, 4)

    def test_cut_to_length(self):
        feats = np.random.default_rng(8).standard_normal((2, 40))
        grid = conditioner_grids_for_length(feats, 16, 4)
        assert grid.shape == (2, 4, 4)
        for m in range(2):
            assert np.array_equal(grid[m], squeeze(feats[m, :16], 4))