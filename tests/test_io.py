"""Tensor files, configs, presets, checkpoints, and dataset manifests."""

import json
from pathlib import Path

import numpy as np
import pytest

from gridflow.conditioner import MelConfig, mel_spectrogram
from gridflow.errors import CheckpointError, ValidationError
from gridflow.io import (
    DatasetEntry,
    ModelConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    load_preset,
    load_tensors,
    preset_names,
    read_dataset_manifest,
    resolve_config,
    save_tensors,
    write_dataset_manifest,
)
from gridflow.model import (
    build_model,
    cast_model,
    load_checkpoint,
    loglik,
    save_checkpoint,
    synthesize,
)
from gridflow.signal import Waveform
from gridflow.train import Utterance, batch_gradients, grad_global_norm

DATA = Path(__file__).parent / "data"


class TestTensorFiles:
    def _sample(self):
        rng = np.random.default_rng(0)
        return {
            "w": rng.standard_normal((3, 4)).astype(np.float32),
            "b": rng.standard_normal(5).astype(np.float32),
            "s": np.float32(2.5).reshape(()),
        }

    def test_bit_exact_round_trip(self, tmp_path):
        tensors = self._sample()
        save_tensors(tmp_path / "t", tensors, {"note": "hi"})
        back, manifest = load_tensors(tmp_path / "t")
        assert set(back) == set(tensors)
        for name in tensors:
            assert back[name].dtype == np.float32
            assert np.array_equal(back[name], tensors[name])
        assert manifest["note"] == "hi"
        assert manifest["format_version"] == 1

    def test_identical_content_identical_bytes(self, tmp_path):
        tensors = self._sample()
        save_tensors(tmp_path / "a", tensors, {"k": 1})
        save_tensors(tmp_path / "b", tensors, {"k": 1})
        assert (tmp_path / "a.manifest.json").read_bytes() == (
            tmp_path / "b.manifest.json"
        ).read_bytes()
        assert (tmp_path / "a.blob").read_bytes() == (tmp_path / "b.blob").read_bytes()

    def test_blob_layout_sorted_by_name(self, tmp_path):
        save_tensors(tmp_path / "t", self._sample())
        manifest = json.loads((tmp_path / "t.manifest.json").read_text())
        names = [e["name"] for e in manifest["tensors"]]
        assert names == sorted(names)
        offsets = [e["offset"] for e in manifest["tensors"]]
        assert offsets == sorted(offsets)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CheckpointError, match="missing manifest"):
            load_tensors(tmp_path / "nope")

    def test_missing_blob(self, tmp_path):
        save_tensors(tmp_path / "t", self._sample())
        (tmp_path / "t.blob").unlink()
        with pytest.raises(CheckpointError, match="missing blob"):
            load_tensors(tmp_path / "t")

    def test_corrupt_manifest(self, tmp_path):
        save_tensors(tmp_path / "t", self._sample())
        (tmp_path / "t.manifest.json").write_text("{not json")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_tensors(tmp_path / "t")

    def test_version_mismatch(self, tmp_path):
        save_tensors(tmp_path / "t", self._sample())
        man = json.loads((tmp_path / "t.manifest.json").read_text())
        man["format_version"] = 99
        (tmp_path / "t.manifest.json").write_text(json.dumps(man))
        with pytest.raises(CheckpointError, match="version mismatch"):
            load_tensors(tmp_path / "t")

    def test_truncated_blob(self, tmp_path):
        save_tensors(tmp_path / "t", self._sample())
        blob = (tmp_path / "t.blob").read_bytes()
        (tmp_path / "t.blob").write_bytes(blob[:-8])
        with pytest.raises(CheckpointError, match="truncated"):
            load_tensors(tmp_path / "t")


class TestModelConfig:
    def test_defaults_valid(self):
        cfg = ModelConfig()
        assert cfg.height == 16 and cfg.n_flows == 8
        assert isinstance(cfg.mel, MelConfig)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown config keys"):
            config_from_dict({"height": 8, "n_heads": 4})

    def test_bad_strategy_rejected(self):
        with pytest.raises(ValidationError, match="strategy"):
            ModelConfig(permutation_strategy="shuffle")

    def test_dilation_length_checked(self):
        with pytest.raises(ValidationError, match="per layer"):
            ModelConfig(n_layers=4, dilations_h=[1, 2])

    def test_mel_dict_promoted(self):
        cfg = config_from_dict({"mel": {"n_mels": 40, "hop": 128}})
        assert isinstance(cfg.mel, MelConfig)
        assert cfg.mel.n_mels == 40 and cfg.mel.hop == 128

    def test_dict_round_trip(self):
        cfg = ModelConfig(height=8, residual_channels=32)
        back = config_from_dict(config_to_dict(cfg))
        assert back == cfg

    def test_config_file(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"height": 32, "n_flows": 4}))
        cfg = load_config(p)
        assert cfg.height == 32 and cfg.n_flows == 4
        p.write_text("{oops")
        with pytest.raises(ValidationError, match="JSON"):
            load_config(p)


class TestPresets:
    def test_catalog(self):
        names = preset_names()
        assert names == [
            "wf-h16-c128",
            "wf-h16-c256",
            "wf-h16-c64",
            "wf-h32-c64",
            "wf-h64-c64",
            "wf-h8-c64",
        ]

    @pytest.mark.parametrize(
        "name,height,channels",
        [
            ("wf-h8-c64", 8, 64),
            ("wf-h16-c64", 16, 64),
            ("wf-h32-c64", 32, 64),
            ("wf-h64-c64", 64, 64),
            ("wf-h16-c128", 16, 128),
            ("wf-h16-c256", 16, 256),
        ],
    )
    def test_preset_shapes(self, name, height, channels):
        cfg = load_preset(name)
        assert cfg.height == height
        assert cfg.residual_channels == channels
        assert cfg.n_flows == 8 and cfg.n_layers == 8

    def test_unknown_preset_lists_available(self):
        with pytest.raises(ValidationError, match="wf-h16-c64"):
            load_preset("wf-h1024")

    def test_resolve_path_or_name(self, tmp_path):
        assert resolve_config("wf-h8-c64").height == 8
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"height": 4, "residual_channels": 4}))
        assert resolve_config(str(p)).height == 4


class TestCheckpoint:
    def _model(self, seed=0, channels=4):
        cfg = ModelConfig(
            height=4,
            n_flows=2,
            n_layers=2,
            residual_channels=channels,
            mel=MelConfig(n_mels=8, n_fft=64, hop=16, win=64),
            conditioned=True,
        )
        model = build_model(cfg, seed=seed)
        rng = np.random.default_rng(seed + 100)
        for p in model.parameters():
            p.data = p.data + (rng.standard_normal(p.data.shape) * 0.01).astype(
                p.data.dtype
            )
        return model

    def test_round_trip_bit_exact(self, tmp_path):
        model = self._model()
        model.step = 123
        save_checkpoint(model, tmp_path / "ck")
        back = load_checkpoint(tmp_path / "ck")
        assert back.step == 123
        assert back.config == model.config
        a = {p.name: p.data for p in model.parameters()}
        b = {p.name: p.data for p in back.parameters()}
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_likelihood_identical_after_reload(self, tmp_path):
        model = self._model(seed=1)
        save_checkpoint(model, tmp_path / "ck")
        back = load_checkpoint(tmp_path / "ck")
        rng = np.random.default_rng(2)
        wav = Waveform((rng.standard_normal(512) * 0.1).astype(np.float32), 22050)
        r1 = loglik(model, wav)
        r2 = loglik(back, wav)
        assert r1.total == r2.total
        assert r1.log_det == r2.log_det

    def test_load_draws_no_random_values(self, tmp_path, monkeypatch):
        model = self._model(seed=3)
        save_checkpoint(model, tmp_path / "ck")

        def no_generator(*args, **kwargs):
            raise AssertionError("load_checkpoint asked for a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        back = load_checkpoint(tmp_path / "ck")
        assert [p.name for p in back.parameters()] == [p.name for p in model.parameters()]
        for p_old, p_new in zip(model.parameters(), back.parameters()):
            assert p_new.data.dtype == np.float32
            assert np.array_equal(p_old.data, p_new.data), p_old.name

    def test_missing_tensor_named(self, tmp_path):
        model = self._model()
        save_checkpoint(model, tmp_path / "ck")
        man_path = tmp_path / "ck.manifest.json"
        man = json.loads(man_path.read_text())
        removed = man["tensors"][5]["name"]
        del man["tensors"][5]
        man_path.write_text(json.dumps(man))
        with pytest.raises(CheckpointError, match="missing tensor"):
            load_checkpoint(tmp_path / "ck")

    def test_architecture_mismatch_reports_shapes(self, tmp_path):
        # a checkpoint whose stored config disagrees with its tensors: the
        # loader rebuilds from the config and must flag the first bad shape
        model = self._model(channels=4)
        save_checkpoint(model, tmp_path / "ck")
        man_path = tmp_path / "ck.manifest.json"
        man = json.loads(man_path.read_text())
        man["model_config"]["residual_channels"] = 6
        man_path.write_text(json.dumps(man))
        with pytest.raises(CheckpointError, match=r"shape mismatch.*file has.*needs"):
            load_checkpoint(tmp_path / "ck")


class TestOlderCheckpoint:
    """data/older-ckpt is TestCheckpoint._model(seed=7), saved while weight norm was
    an option: its model_config says "weight_norm": true. It loads bitwise equal to
    the same model built now and computes bitwise what that model computes. OLDER_RESULTS
    holds what the release that saved it computed on one BLAS thread: the loglik
    total, the synthesized audio's sum of squares, the two-clip loss and its
    gradient norm."""

    OLDER_RESULTS = {
        np.float32: (-464.0498390197754, 254.70358566562834, 0.9057542085647583,
                     1.4009872531012681),
        np.float64: (-464.0498501214341, 254.70357674323103, 0.9057542168122896,
                     1.400987305412556),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["fp32", "fp64"])
    def test_same_results_as_a_fresh_build(self, dtype):
        manifest = json.loads((DATA / "older-ckpt.manifest.json").read_text())
        assert manifest["model_config"]["weight_norm"] is True
        old = load_checkpoint(DATA / "older-ckpt", dtype=dtype)
        new = cast_model(TestCheckpoint()._model(seed=7), dtype)
        assert old.config == new.config
        for p, q in zip(old.parameters(), new.parameters(), strict=True):
            assert p.name == q.name and np.array_equal(p.data, q.data), p.name
        wav = Waveform(np.random.default_rng(2).standard_normal(512) * 0.1, 22050)
        mel = mel_spectrogram(wav, new.config.mel)
        utt = Utterance(wav, new.config.mel)
        runs = []
        for model in (old, new):
            report = loglik(model, wav)
            audio = synthesize(model, mel, 256, rng=np.random.default_rng(3)).samples
            loss, grads = batch_gradients(model, [(utt, 0), (utt, 64)], 128)
            runs.append((report.total, report.log_det, audio, loss, grads))
        (total, log_det, audio, loss, grads), again = runs
        assert (total, log_det, loss) == (again[0], again[1], again[3])
        assert np.array_equal(audio, again[2])
        assert sorted(grads) == sorted(again[4])
        assert all(np.array_equal(grads[k], again[4][k]) for k in grads)
        summary = (total, float((audio.astype(np.float64) ** 2).sum()), loss,
                   grad_global_norm(grads))
        rtol = 1e-5 if dtype == np.float32 else 1e-9  # the BLAS may sum in another order
        assert np.allclose(summary, self.OLDER_RESULTS[dtype], rtol=rtol, atol=0)


class TestDatasetManifests:
    def test_round_trip_and_relative_paths(self, tmp_path):
        entries = [
            DatasetEntry(path="a.wav", duration=1.5),
            DatasetEntry(path=str(tmp_path / "abs.wav"), duration=2.0),
        ]
        man = tmp_path / "data.ndjson"
        write_dataset_manifest(man, entries)
        back = read_dataset_manifest(man)
        assert back[0].path == str(tmp_path / "a.wav")  # resolved against manifest dir
        assert back[1].path == str(tmp_path / "abs.wav")
        assert [e.duration for e in back] == [1.5, 2.0]

    def test_blank_lines_skipped(self, tmp_path):
        man = tmp_path / "d.ndjson"
        man.write_text('{"path": "x.wav", "duration": 1.0}\n\n')
        assert len(read_dataset_manifest(man)) == 1

    def test_bad_line_number_reported(self, tmp_path):
        man = tmp_path / "d.ndjson"
        man.write_text('{"path": "x.wav", "duration": 1.0}\nnot json\n')
        with pytest.raises(ValidationError, match="line 2"):
            read_dataset_manifest(man)

    def test_missing_keys_reported(self, tmp_path):
        man = tmp_path / "d.ndjson"
        man.write_text('{"path": "x.wav"}\n')
        with pytest.raises(ValidationError, match="duration"):
            read_dataset_manifest(man)

    def test_missing_or_empty(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            read_dataset_manifest(tmp_path / "none.ndjson")
        (tmp_path / "e.ndjson").write_text("\n")
        with pytest.raises(ValidationError, match="empty"):
            read_dataset_manifest(tmp_path / "e.ndjson")
