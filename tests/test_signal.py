"""Grid squeeze/unsqueeze, permutations, padding, and WAV round trips."""

import numpy as np
import pytest

from gridflow.errors import ValidationError
from gridflow.signal import (
    Waveform,
    bipartite_reverse_permutation,
    identity_permutation,
    pad_to_multiple,
    read_wav,
    reverse_permutation,
    squeeze,
    unsqueeze,
    write_wav,
)


class TestSqueeze:
    def test_worked_example(self):
        # six samples at height 2: columns hold consecutive pairs
        grid = squeeze(np.array([1.0, 2, 3, 4, 5, 6]), 2)
        assert np.array_equal(grid, np.array([[1.0, 3, 5], [2, 4, 6]]))

    def test_entry_formula(self):
        x = np.arange(24.0)
        grid = squeeze(x, 4)
        for i in range(4):
            for j in range(6):
                assert grid[i, j] == x[j * 4 + i]

    def test_round_trip_all_divisors(self):
        rng = np.random.default_rng(0)
        for n in range(1, 65):
            x = rng.standard_normal(n)
            for h in range(1, n + 1):
                if n % h == 0:
                    assert np.array_equal(unsqueeze(squeeze(x, h)), x), (n, h)

    def test_non_divisible_rejected(self):
        with pytest.raises(ValidationError):
            squeeze(np.zeros(7), 2)

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValidationError):
            squeeze(np.zeros((2, 3)), 2)
        with pytest.raises(ValidationError):
            unsqueeze(np.zeros(6))


class TestPadToMultiple:
    def test_pad_count(self):
        x, pad = pad_to_multiple(np.ones(10), 8)
        assert len(x) == 16 and pad == 6
        assert np.array_equal(x[10:], np.zeros(6))

    def test_already_aligned(self):
        x, pad = pad_to_multiple(np.ones(16), 8)
        assert len(x) == 16 and pad == 0

    def test_trim_inverts(self):
        orig = np.random.default_rng(1).standard_normal(13)
        padded, pad = pad_to_multiple(orig, 8)
        assert np.array_equal(padded[: len(padded) - pad], orig)


class TestPermutations:
    def test_reverse_maps(self):
        assert reverse_permutation(8).row_map.tolist() == [7, 6, 5, 4, 3, 2, 1, 0]
        assert reverse_permutation(16).row_map.tolist() == list(range(15, -1, -1))

    def test_bipartite_reverse_h8(self):
        assert bipartite_reverse_permutation(8).row_map.tolist() == [3, 2, 1, 0, 7, 6, 5, 4]

    def test_bipartite_reverse_h16(self):
        expect = [7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8]
        assert bipartite_reverse_permutation(16).row_map.tolist() == expect

    def test_bipartite_reverse_h2_is_identity(self):
        assert bipartite_reverse_permutation(2).row_map.tolist() == [0, 1]

    def test_involutions(self):
        for h in range(2, 33, 2):
            for perm in (reverse_permutation(h), bipartite_reverse_permutation(h)):
                assert np.array_equal(perm.row_map[perm.row_map], np.arange(h)), (
                    perm.kind,
                    h,
                )

    def test_odd_reverse_involution(self):
        for h in (3, 5, 9):
            perm = reverse_permutation(h)
            assert np.array_equal(perm.row_map[perm.row_map], np.arange(h))

    def test_odd_bipartite_rejected(self):
        with pytest.raises(ValidationError):
            bipartite_reverse_permutation(7)

    def test_scatter_and_gather(self):
        # flows scatter rows by row_map (stack_loglik_terms); sampling gathers them back
        rng = np.random.default_rng(2)
        grid = rng.standard_normal((8, 5))
        perm = bipartite_reverse_permutation(8)
        out = np.empty_like(grid)
        out[perm.row_map] = grid
        for i in range(8):
            assert np.array_equal(out[perm.row_map[i]], grid[i])
        assert np.array_equal(out[perm.row_map], grid)  # gather undoes scatter

    def test_invalid_map_rejected(self):
        from gridflow.signal import Permutation

        with pytest.raises(ValidationError):
            Permutation(np.array([0, 0, 1]), "broken")


class TestWavIO:
    def test_round_trip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(3)
        x = np.clip(rng.standard_normal(2000) * 0.3, -0.99, 0.99)
        wav = Waveform(x, 16000)
        write_wav(tmp_path / "a.wav", wav)
        back = read_wav(tmp_path / "a.wav")
        assert back.sample_rate == 16000
        assert len(back) == 2000
        assert np.abs(back.samples - x).max() <= 1.0 / 32768.0

    def test_pcm_normalization_range(self, tmp_path):
        write_wav(tmp_path / "b.wav", Waveform(np.array([-2.0, 2.0, 0.0]), 8000))
        back = read_wav(tmp_path / "b.wav")
        assert back.samples.min() >= -1.0
        assert back.samples.max() <= 1.0
        assert back.samples[0] == -1.0  # clipped to full scale

    def test_stereo_rejected(self, tmp_path):
        import wave

        with wave.open(str(tmp_path / "st.wav"), "wb") as f:
            f.setnchannels(2)
            f.setsampwidth(2)
            f.setframerate(8000)
            f.writeframes(b"\x00\x00" * 8)
        with pytest.raises(ValidationError, match="mono"):
            read_wav(tmp_path / "st.wav")

    def test_wrong_depth_rejected(self, tmp_path):
        import wave

        with wave.open(str(tmp_path / "w8.wav"), "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(1)
            f.setframerate(8000)
            f.writeframes(b"\x00" * 8)
        with pytest.raises(ValidationError, match="16-bit"):
            read_wav(tmp_path / "w8.wav")

    def test_garbage_rejected(self, tmp_path):
        (tmp_path / "x.wav").write_bytes(b"not a riff file at all")
        with pytest.raises(ValidationError):
            read_wav(tmp_path / "x.wav")

    def test_non_1d_rejected(self):
        with pytest.raises(ValidationError):
            Waveform(np.zeros((2, 2)), 8000)
