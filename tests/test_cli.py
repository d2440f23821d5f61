"""Command-line interface: argument handling, outputs, and exit codes."""

import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gridflow.cli import main
from gridflow.conditioner import MelConfig
from gridflow.io import DatasetEntry, ModelConfig, save_tensors, write_dataset_manifest
from gridflow.model import build_model, save_checkpoint
from gridflow.signal import Waveform, read_wav, write_wav

TINY_CONFIG = {
    "height": 4,
    "n_flows": 1,
    "n_layers": 2,
    "residual_channels": 4,
    "conditioned": False,
}


@pytest.fixture
def corpus(tmp_path):
    """Two short sine files, a manifest, and a tiny config on disk."""
    rng = np.random.default_rng(0)
    entries = []
    for i, freq in enumerate((220.0, 330.0)):
        t = np.arange(4096) / 22050.0
        x = 0.3 * np.sin(2 * np.pi * freq * t) + 0.01 * rng.standard_normal(4096)
        p = tmp_path / f"u{i}.wav"
        write_wav(p, Waveform(x, 22050))
        entries.append(DatasetEntry(path=str(p), duration=4096 / 22050.0))
    manifest = tmp_path / "data.ndjson"
    write_dataset_manifest(manifest, entries)
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY_CONFIG))
    return tmp_path, manifest, config


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestPresetsCommand:
    def test_lists_names(self, capsys):
        assert run_cli("presets") == 0
        out = capsys.readouterr().out
        assert "wf-h16-c64" in out and "wf-h64-c64" in out

    def test_json(self, capsys):
        assert run_cli("presets", "--json") == 0
        d = json.loads(capsys.readouterr().out)
        assert len(d["presets"]) == 6


class TestVerifyCommand:
    def test_fast_level_passes(self, capsys):
        assert run_cli("verify", "--level", "fast") == 0
        out = capsys.readouterr().out
        assert "[pass]" in out and "[FAIL]" not in out

    def test_json_structure(self, capsys):
        assert run_cli("verify", "--level", "fast", "--json") == 0
        d = json.loads(capsys.readouterr().out)
        assert d["passed"] is True
        assert all(c["passed"] for c in d["checks"])


class TestTrainSynthLoglik:
    def test_full_pipeline(self, corpus, capsys):
        tmp_path, manifest, config = corpus
        out_dir = tmp_path / "run"
        code = run_cli(
            "train",
            "--config", config,
            "--data", manifest,
            "--out-dir", out_dir,
            "--steps", 2,
            "--batch", 2,
            "--clip", 512,
            "--checkpoint-interval", 2,
            "--precision", "fp64",
        )
        assert code == 0
        ckpt = out_dir / "ckpt-000002"
        assert (out_dir / "ckpt-000002.manifest.json").exists()

        # likelihood of one of the training files
        code = run_cli(
            "loglik", "--checkpoint", ckpt, "--wav", tmp_path / "u0.wav", "--json"
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert np.isfinite(report["total"])
        assert report["n_dims"] == 4096

        # unconditioned synthesis to a playable file
        wav_out = tmp_path / "gen.wav"
        code = run_cli(
            "synth",
            "--checkpoint", ckpt,
            "--samples", 200,
            "--out", wav_out,
            "--json",
        )
        assert code == 0
        info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert info["n_samples"] == 200
        assert info["row_steps"] == 4  # one flow, four grid rows
        generated = read_wav(wav_out)
        assert len(generated) == 200

    def test_train_json_metrics(self, corpus, capsys):
        tmp_path, manifest, config = corpus
        code = run_cli(
            "train",
            "--config", config,
            "--data", manifest,
            "--out-dir", tmp_path / "run2",
            "--steps", 2,
            "--batch", 1,
            "--clip", 512,
            "--json",
        )
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("{")]
        record = json.loads(lines[-1])
        assert record["step"] == 2
        assert np.isfinite(record["loss"])

    def test_resume_continues_step_counter(self, corpus, capsys):
        tmp_path, manifest, config = corpus
        run_cli(
            "train", "--config", config, "--data", manifest,
            "--out-dir", tmp_path / "r1", "--steps", 2, "--batch", 1,
            "--clip", 512, "--checkpoint-interval", 2,
        )
        code = run_cli(
            "train", "--config", config, "--data", manifest,
            "--out-dir", tmp_path / "r2", "--steps", 2, "--batch", 1,
            "--clip", 512, "--checkpoint-interval", 2,
            "--resume", tmp_path / "r1" / "ckpt-000002",
        )
        assert code == 0
        assert (tmp_path / "r2" / "ckpt-000004.manifest.json").exists()
        capsys.readouterr()


class TestMelCommand:
    def test_writes_tensor_file(self, corpus, capsys):
        tmp_path, _, _ = corpus
        out = tmp_path / "mel-u0"
        assert run_cli("mel", "--wav", tmp_path / "u0.wav", "--out", out, "--json") == 0
        info = json.loads(capsys.readouterr().out)
        assert info["n_frames"] == 16  # ceil(4096 / 256)
        assert info["n_mels"] == 80
        from gridflow.io import load_tensors

        tensors, manifest = load_tensors(out)
        assert tensors["mel"].shape == (16, 80)
        assert manifest["n_samples"] == 4096

    def test_config_selects_analysis_geometry(self, corpus, capsys):
        tmp_path, _, _ = corpus
        cfg = dict(TINY_CONFIG)
        cfg["mel"] = {"n_mels": 8, "n_fft": 64, "hop": 16, "win": 64}
        config_path = tmp_path / "mel-cfg.json"
        config_path.write_text(json.dumps(cfg))
        out = tmp_path / "mel-tiny"
        assert (
            run_cli(
                "mel", "--wav", tmp_path / "u0.wav", "--out", out,
                "--config", config_path, "--json",
            )
            == 0
        )
        info = json.loads(capsys.readouterr().out)
        assert info["n_frames"] == 256  # ceil(4096 / 16)
        assert info["n_mels"] == 8


class TestConditionedSynth:
    def _save_conditioned(self, tmp_path):
        cfg = ModelConfig(
            height=4,
            n_flows=2,
            n_layers=2,
            residual_channels=4,
            conditioned=True,
        )
        model = build_model(cfg, seed=0)
        save_checkpoint(model, tmp_path / "cond-ck")
        return tmp_path / "cond-ck"

    def test_wav_conditioning(self, corpus, capsys):
        tmp_path, _, _ = corpus
        ckpt = self._save_conditioned(tmp_path)
        out = tmp_path / "cond-gen.wav"
        code = run_cli(
            "synth", "--checkpoint", ckpt, "--wav", tmp_path / "u0.wav",
            "--out", out, "--json",
        )
        assert code == 0
        info = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert info["n_samples"] == 4096

    def test_mel_file_conditioning(self, corpus, capsys):
        tmp_path, _, _ = corpus
        ckpt = self._save_conditioned(tmp_path)
        mel_base = tmp_path / "mel-u0"
        run_cli("mel", "--wav", tmp_path / "u0.wav", "--out", mel_base)
        out = tmp_path / "mel-gen.wav"
        code = run_cli(
            "synth", "--checkpoint", ckpt, "--mel", mel_base, "--out", out,
        )
        assert code == 0
        assert len(read_wav(out)) == 4096
        capsys.readouterr()

    @pytest.mark.parametrize("source", ["--wav", "--mel"])
    def test_foreign_sample_rate_is_one(self, corpus, capsys, source):
        tmp_path, _, _ = corpus
        ckpt = self._save_conditioned(tmp_path)
        wav16k = tmp_path / "u16k.wav"
        write_wav(wav16k, Waveform(0.1 * np.ones(2048), 16000))
        arg = wav16k
        if source == "--mel":
            arg = tmp_path / "mel-16k"
            assert run_cli("mel", "--wav", wav16k, "--out", arg) == 0
        out = tmp_path / "x.wav"
        code = run_cli("synth", "--checkpoint", ckpt, source, arg, "--out", out)
        assert code == 1
        assert "sample rate 16000" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_conditioning_is_validation_error(self, corpus, capsys):
        tmp_path, _, _ = corpus
        ckpt = self._save_conditioned(tmp_path)
        code = run_cli("synth", "--checkpoint", ckpt, "--out", tmp_path / "x.wav")
        assert code == 1
        assert "mel" in capsys.readouterr().err


class TestBenchCommand:
    def test_fresh_model_report(self, corpus, capsys):
        _, _, config = corpus
        code = run_cli("bench", "--config", config, "--seconds", "0.01", "--json")
        assert code == 0
        d = json.loads(capsys.readouterr().out)
        assert sorted(d) == [
            "audio_seconds", "height", "n_flows", "n_samples", "naive_seconds",
            "queued_seconds", "real_time_factor", "samples_per_second", "sequential_steps",
            "speedup",
        ]
        assert (d["n_samples"], d["height"], d["n_flows"], d["sequential_steps"]) == (220, 4, 1, 4)
        assert d["naive_seconds"] > 0 and d["queued_seconds"] > 0
        assert d["speedup"] == d["naive_seconds"] / d["queued_seconds"]
        assert d["samples_per_second"] == d["n_samples"] / d["queued_seconds"]
        assert d["audio_seconds"] == d["n_samples"] / 22050
        assert d["real_time_factor"] == d["audio_seconds"] / d["queued_seconds"]

    def test_refuses_when_engines_disagree(self, corpus, capsys, monkeypatch):
        import gridflow.model as gf_model

        naive = gf_model.stack_forward
        monkeypatch.setattr(gf_model, "stack_forward", lambda *a, **k: naive(*a, **k) + 2e-3)
        _, _, config = corpus
        err = TestFileSystemErrors._fails_cleanly(
            capsys, "bench", "--config", config, "--seconds", 0.01, "--json"
        )
        assert "disagree" in err

    def test_needs_model_source(self, capsys):
        assert run_cli("bench") == 1
        assert "needs" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_checkpoint_is_one(self, tmp_path, capsys):
        code = run_cli(
            "loglik", "--checkpoint", tmp_path / "none", "--wav", tmp_path / "x.wav"
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_preset_is_one(self, tmp_path, capsys):
        code = run_cli(
            "train", "--config", "wf-h9999", "--data", tmp_path / "d.ndjson",
            "--out-dir", tmp_path,
        )
        assert code == 1
        capsys.readouterr()

    def test_numerical_abort_is_two(self, corpus, capsys):
        tmp_path, _, _ = corpus
        cfg = ModelConfig(**TINY_CONFIG)
        model = build_model(cfg, seed=0)
        model.stack.nets[0].out_head.data[0, 0, 0, 0] = np.inf
        save_checkpoint(model, tmp_path / "bad-ck")
        with np.errstate(invalid="ignore"):
            code = run_cli(
                "loglik", "--checkpoint", tmp_path / "bad-ck",
                "--wav", tmp_path / "u0.wav",
            )
        assert code == 2
        assert "numerical" in capsys.readouterr().err

    # a finite std whose latent overflows: fp32 on the cast, fp64 in the product
    @pytest.mark.parametrize("precision,std", [("fp32", "1e39"), ("fp64", "1e308")])
    def test_overflowing_latent_is_two(self, tmp_path, capsys, precision, std):
        save_checkpoint(build_model(ModelConfig(**TINY_CONFIG), seed=0), tmp_path / "ck")
        out = tmp_path / "x.wav"
        with np.errstate(invalid="ignore", over="ignore"):
            code = run_cli(
                "synth", "--checkpoint", tmp_path / "ck", "--samples", 64,
                "--std", std, "--precision", precision, "--out", out,
            )
        assert code == 2
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_no_command_prints_help(self, capsys):
        assert run_cli() == 0
        assert "usage" in capsys.readouterr().out


class TestFileSystemErrors:
    """Missing inputs and unwritable outputs exit 1 with an error line."""

    @staticmethod
    def _fails_cleanly(capsys, *argv):
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        return err

    def test_loglik_missing_wav(self, tmp_path, capsys):
        save_checkpoint(build_model(ModelConfig(**TINY_CONFIG), seed=0), tmp_path / "ck")
        self._fails_cleanly(
            capsys, "loglik", "--checkpoint", tmp_path / "ck", "--wav", tmp_path / "no.wav"
        )

    def test_mel_missing_wav(self, tmp_path, capsys):
        self._fails_cleanly(
            capsys, "mel", "--wav", tmp_path / "no.wav", "--out", tmp_path / "m"
        )

    def test_train_manifest_entry_missing(self, corpus, capsys):
        tmp_path, _, config = corpus
        manifest = tmp_path / "gone.ndjson"
        write_dataset_manifest(manifest, [DatasetEntry(path="gone.wav", duration=1.0)])
        self._fails_cleanly(
            capsys, "train", "--config", config, "--data", manifest,
            "--out-dir", tmp_path / "run", "--steps", 1, "--clip", 512,
        )

    @pytest.mark.parametrize("target", ["nodir/x.wav", "."])
    def test_synth_unwritable_out(self, tmp_path, capsys, monkeypatch, target):
        # a writer left half-built by a failed open would raise again when
        # collected, past the CLI's handler
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        save_checkpoint(build_model(ModelConfig(**TINY_CONFIG), seed=0), tmp_path / "ck")
        self._fails_cleanly(
            capsys, "synth", "--checkpoint", tmp_path / "ck", "--samples", 64,
            "--out", tmp_path / target,
        )
        gc.collect()
        assert unraisable == []


class TestBadArguments:
    """Values no command can run with stop before any work, without a traceback."""

    def test_train_checkpoint_interval_zero(self, corpus, capsys):
        tmp_path, manifest, config = corpus
        out_dir = tmp_path / "run"
        err = TestFileSystemErrors._fails_cleanly(
            capsys, "train", "--config", config, "--data", manifest, "--out-dir", out_dir,
            "--steps", 1, "--batch", 1, "--clip", 512, "--checkpoint-interval", 0,
        )
        assert "checkpoint_interval" in err and "Traceback" not in err
        assert not out_dir.exists()  # no step ran, so no metrics or checkpoint

    def test_loglik_empty_wav(self, tmp_path, capsys):
        save_checkpoint(build_model(ModelConfig(**TINY_CONFIG), seed=0), tmp_path / "ck")
        write_wav(tmp_path / "empty.wav", Waveform(np.zeros(0), 22050))
        err = TestFileSystemErrors._fails_cleanly(
            capsys, "loglik", "--checkpoint", tmp_path / "ck", "--wav", tmp_path / "empty.wav"
        )
        assert "no samples" in err and "Traceback" not in err

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_synth_non_positive_samples(self, tmp_path, capsys, samples):
        save_checkpoint(build_model(ModelConfig(**TINY_CONFIG), seed=0), tmp_path / "ck")
        out = tmp_path / "x.wav"
        with pytest.raises(SystemExit) as exit_info:
            run_cli("synth", "--checkpoint", tmp_path / "ck", "--samples", samples, "--out", out)
        assert exit_info.value.code == 1  # a usage error is a validation problem
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--samples" in errors[0] and "positive integer" in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("bench", "--seconds", "nan"),
            ("bench", "--seconds", "-1"),
            ("synth", "--std", "-1"),
            ("synth", "--std", "nan"),
            ("synth", "--std", "inf"),
            ("train", "--lr", "nan"),
            ("synth", "--precision", "fp16"),
        ],
    )
    def test_bad_option_value_is_one(self, corpus, capsys, command, flag, value):
        tmp_path, manifest, config = corpus
        save_checkpoint(build_model(ModelConfig(**TINY_CONFIG), seed=0), tmp_path / "ck")
        out, run = tmp_path / "x.wav", tmp_path / "run"
        argv = {
            "bench": ["bench", "--config", config],
            "synth": ["synth", "--checkpoint", tmp_path / "ck", "--samples", 64, "--out", out],
            "train": ["train", "--config", config, "--data", manifest, "--out-dir", run,
                      "--steps", 1, "--batch", 1, "--clip", 512],
        }[command]
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*argv, flag, value)
        assert exit_info.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and flag in err
        assert not out.exists() and not run.exists()

    @pytest.mark.parametrize(
        "kind,content",
        [
            ("config", {**TINY_CONFIG, "height": "4"}),
            ("config", {**TINY_CONFIG, "n_layers": True}),
            ("manifest", 5),
            ("manifest", {"path": "u0.wav", "duration": "abc"}),
            ("manifest", {"path": 7, "duration": 1.0}),
        ],
        ids=["height_string", "layers_bool", "line_not_object", "duration_string", "path_number"],
    )
    def test_wrong_value_type_is_one(self, corpus, capsys, kind, content):
        tmp_path, manifest, config = corpus
        bad = tmp_path / f"bad-{kind}.json"
        bad.write_text(json.dumps(content) + "\n")
        if kind == "config":
            config = bad
        else:
            manifest = bad
        err = TestFileSystemErrors._fails_cleanly(
            capsys, "train", "--config", config, "--data", manifest,
            "--out-dir", tmp_path / "run", "--steps", 1, "--batch", 1, "--clip", 512,
        )
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()


class TestMelConfigValidation:
    """A bad nested mel config, from a config file or a checkpoint, exits 1 with one line."""

    @pytest.mark.parametrize(
        "mel,named",
        [
            (5, "mel"),
            ({"hop": "x"}, "hop"),
            ({"bogus": 1}, "bogus"),
            ({"n_mels": 2.5}, "n_mels"),
            ({"n_mels": 0}, "n_mels"),
            ({"win": True}, "win"),
        ],
        ids=["not_object", "hop_string", "unknown_key", "n_mels_float", "n_mels_zero", "win_bool"],
    )
    def test_config_file(self, tmp_path, capsys, mel, named):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({**TINY_CONFIG, "conditioned": True, "mel": mel}))
        err = TestFileSystemErrors._fails_cleanly(
            capsys, "bench", "--config", config, "--seconds", 0.01
        )
        assert named in err and "Traceback" not in err

    def test_checkpoint_model_config(self, tmp_path, capsys):
        save_checkpoint(build_model(ModelConfig(**TINY_CONFIG), seed=0), tmp_path / "ck")
        manifest = tmp_path / "ck.manifest.json"
        d = json.loads(manifest.read_text())
        d["model_config"]["mel"]["hop"] = "x"
        manifest.write_text(json.dumps(d))
        err = TestFileSystemErrors._fails_cleanly(
            capsys, "bench", "--checkpoint", tmp_path / "ck", "--seconds", 0.01
        )
        assert "hop" in err and "Traceback" not in err


class TestConfigRanges:
    """A config field out of its range exits 1 with one line, before any work."""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("kernel_w", 0),
            ("kernel_w", 2),  # an even width kernel has no centred tap
            ("kernel_h", 0),
            ("kernel_h", -1),
            ("sample_rate", 0),
            ("sample_rate", -5),
            ("dilations_h", [0, 1]),
            ("dilations_h", [-1, 1]),
            ("dilations_h", ["a", 1]),
            ("dilations_h", 5),
        ],
        ids=[
            "kernel_w_0", "kernel_w_even", "kernel_h_0", "kernel_h_negative", "sample_rate_0",
            "sample_rate_negative", "dilation_0", "dilation_negative", "dilation_string",
            "dilations_int",
        ],
    )
    def test_config_file(self, tmp_path, capsys, field, value):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({**TINY_CONFIG, field: value}))
        err = TestFileSystemErrors._fails_cleanly(
            capsys, "bench", "--config", config, "--seconds", 0.05
        )
        assert field in err and "Traceback" not in err


class TestUndecodableFiles:
    """A file whose bytes cannot be decoded exits 1 with one line."""

    def test_wav_cut_to_odd_byte_count(self, tmp_path, capsys):
        save_checkpoint(build_model(ModelConfig(**TINY_CONFIG), seed=0), tmp_path / "ck")
        wav = tmp_path / "cut.wav"
        write_wav(wav, Waveform(np.full(64, 0.1), 22050))
        wav.write_bytes(wav.read_bytes()[:-1])  # the data chunk loses half a frame
        err = TestFileSystemErrors._fails_cleanly(
            capsys, "loglik", "--checkpoint", tmp_path / "ck", "--wav", wav
        )
        assert "frames" in err and "Traceback" not in err

    def test_wav_data_chunk_cut_short(self, tmp_path, capsys):
        save_checkpoint(build_model(ModelConfig(**TINY_CONFIG), seed=0), tmp_path / "ck")
        wav = tmp_path / "cut.wav"
        write_wav(wav, Waveform(np.full(64, 0.1), 22050))
        wav.write_bytes(wav.read_bytes()[:-2])  # one whole frame short of the header's 64
        err = TestFileSystemErrors._fails_cleanly(
            capsys, "loglik", "--checkpoint", tmp_path / "ck", "--wav", wav
        )
        assert "64 frames" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["checkpoint", "config", "dataset"])
    def test_manifest_not_utf8(self, corpus, capsys, kind):
        tmp_path, manifest, config = corpus
        ckpt = tmp_path / "ck"
        save_checkpoint(build_model(ModelConfig(**TINY_CONFIG), seed=0), ckpt)
        wav = tmp_path / "u0.wav"
        argv = {
            "checkpoint": ("loglik", "--checkpoint", ckpt, "--wav", wav),
            "config": ("bench", "--config", config, "--seconds", 0.05),
            "dataset": ("train", "--config", config, "--data", manifest,
                        "--out-dir", tmp_path / "run", "--steps", 1, "--clip", 512),
        }[kind]
        path = {"checkpoint": Path(f"{ckpt}.manifest.json"), "config": config,
                "dataset": manifest}[kind]
        text = path.read_bytes()
        cut = text.index(b'"', text.index(b'"') + 1)  # inside the first JSON string
        path.write_bytes(text[:cut] + b"\xff" + text[cut:])
        err = TestFileSystemErrors._fails_cleanly(capsys, *argv)
        assert "utf-8" in err.lower() and "Traceback" not in err


class TestNonFiniteTensors:
    """A non-finite value in a tensor file exits 2 with one line naming the tensor and
    the file, before any arithmetic could warn."""

    @pytest.mark.parametrize("command", ["loglik", "synth"])
    def test_checkpoint_blob(self, corpus, capsys, command):
        tmp_path, _, _ = corpus
        model = build_model(ModelConfig(**TINY_CONFIG), seed=0)
        model.stack.nets[0].layers[0].filter.v.data[0, 0, 0, 0] = np.nan
        save_checkpoint(model, tmp_path / "ck")
        args = {"loglik": ("--wav", tmp_path / "u0.wav"),
                "synth": ("--samples", 64, "--out", tmp_path / "x.wav")}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(command, "--checkpoint", tmp_path / "ck", *args)
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert "'flow0.layer0.filter.v'" in err and "ck.blob" in err

    def test_mel_file(self, corpus, capsys):
        tmp_path, _, _ = corpus
        cfg = ModelConfig(**{**TINY_CONFIG, "conditioned": True})
        save_checkpoint(build_model(cfg, seed=0), tmp_path / "ck")
        frames = np.zeros((16, 80))
        frames[3, 5] = np.inf
        save_tensors(tmp_path / "mel", {"mel": frames}, {"sample_rate": 22050})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("synth", "--checkpoint", tmp_path / "ck", "--mel", tmp_path / "mel",
                           "--out", tmp_path / "x.wav")
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1
        assert "'mel'" in err and "mel.blob" in err
        assert not (tmp_path / "x.wav").exists()


class TestWeightNormField:
    """Weight norm is always on: a config or checkpoint may say "weight_norm": true,
    as older ones do, and anything else exits 1 with one line."""

    def test_true_accepted(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({**TINY_CONFIG, "weight_norm": True}))
        assert run_cli("bench", "--config", config, "--seconds", 0.01) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("value", [False, "yes", None])
    def test_config_file(self, tmp_path, capsys, value):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({**TINY_CONFIG, "weight_norm": value}))
        err = TestFileSystemErrors._fails_cleanly(
            capsys, "bench", "--config", config, "--seconds", 0.01
        )
        assert "weight_norm" in err

    def test_checkpoint(self, tmp_path, capsys):
        save_checkpoint(build_model(ModelConfig(**TINY_CONFIG), seed=0), tmp_path / "ck")
        manifest = tmp_path / "ck.manifest.json"
        d = json.loads(manifest.read_text())
        d["model_config"]["weight_norm"] = False
        manifest.write_text(json.dumps(d))
        err = TestFileSystemErrors._fails_cleanly(
            capsys, "synth", "--checkpoint", tmp_path / "ck", "--samples", 64,
            "--out", tmp_path / "x.wav",
        )
        assert "weight_norm" in err


class TestTrainResume:
    """--resume takes the model config from its checkpoint; --config may only repeat it."""

    def _first_run(self, corpus):
        tmp_path, manifest, config = corpus
        code = run_cli(
            "train", "--config", config, "--data", manifest, "--out-dir", tmp_path / "r1",
            "--steps", 1, "--batch", 1, "--clip", 512, "--checkpoint-interval", 1,
        )
        assert code == 0
        return tmp_path / "r1" / "ckpt-000001"

    def test_resume_without_config(self, corpus, capsys):
        tmp_path, manifest, _ = corpus
        ckpt = self._first_run(corpus)
        code = run_cli(
            "train", "--data", manifest, "--out-dir", tmp_path / "r2", "--steps", 1,
            "--batch", 1, "--clip", 512, "--checkpoint-interval", 1, "--resume", ckpt,
        )
        assert code == 0
        assert (tmp_path / "r2" / "ckpt-000002.manifest.json").exists()
        capsys.readouterr()

    def test_config_differing_from_checkpoint(self, corpus, capsys):
        tmp_path, manifest, _ = corpus
        ckpt = self._first_run(corpus)
        capsys.readouterr()
        other = tmp_path / "other.json"
        other.write_text(json.dumps({**TINY_CONFIG, "residual_channels": 8}))
        err = TestFileSystemErrors._fails_cleanly(
            capsys, "train", "--config", other, "--data", manifest, "--out-dir", tmp_path / "r2",
            "--steps", 1, "--batch", 1, "--clip", 512, "--resume", ckpt,
        )
        assert "--config" in err and "--resume" in err
        assert not (tmp_path / "r2").exists()

    def test_neither_config_nor_resume(self, corpus, capsys):
        tmp_path, manifest, _ = corpus
        err = TestFileSystemErrors._fails_cleanly(
            capsys, "train", "--data", manifest, "--out-dir", tmp_path / "r", "--steps", 1,
        )
        assert "--config" in err and "--resume" in err
        assert not (tmp_path / "r").exists()


class TestMalformedTensorFiles:
    """Tensor files of the wrong structure exit 1 with one error line."""

    @pytest.mark.parametrize(
        "manifest",
        [
            {"format_version": 1},
            [1, 2],
            {"format_version": 1, "tensors": [{"name": "x"}]},
            {"format_version": 1, "tensors": [{"name": "x", "shape": [True], "offset": 0}]},
        ],
        ids=["no_tensors", "list", "bad_entry", "bool_in_shape"],
    )
    def test_bad_manifest(self, tmp_path, capsys, manifest):
        ckpt = tmp_path / "ck"
        save_checkpoint(build_model(ModelConfig(**TINY_CONFIG), seed=0), ckpt)
        Path(f"{ckpt}.manifest.json").write_text(json.dumps(manifest))
        TestFileSystemErrors._fails_cleanly(
            capsys, "synth", "--checkpoint", ckpt, "--samples", 64, "--out", tmp_path / "x.wav"
        )

    @pytest.mark.parametrize(
        "key,value",
        [("train_step", "x"), ("train_step", [1]), ("seed", None), ("seed", 2.5)],
        ids=["step_string", "step_list", "seed_null", "seed_float"],
    )
    def test_bad_checkpoint_integer(self, tmp_path, capsys, key, value):
        ckpt = tmp_path / "ck"
        save_checkpoint(build_model(ModelConfig(**TINY_CONFIG), seed=0), ckpt)
        manifest = Path(f"{ckpt}.manifest.json")
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), key: value}))
        err = TestFileSystemErrors._fails_cleanly(
            capsys, "synth", "--checkpoint", ckpt, "--samples", 64, "--out", tmp_path / "x.wav"
        )
        assert key in err

    @pytest.mark.parametrize(
        "tensors",
        [{"frames": np.zeros((16, 80))}, {"mel": np.zeros((16, 40))}, {"mel": np.zeros(16)}],
        ids=["no_mel", "40_bands", "1d"],
    )
    def test_bad_mel_tensor(self, tmp_path, capsys, tensors):
        cfg = ModelConfig(**{**TINY_CONFIG, "conditioned": True})
        save_checkpoint(build_model(cfg, seed=0), tmp_path / "ck")
        save_tensors(tmp_path / "mel", tensors, {"sample_rate": 22050})
        TestFileSystemErrors._fails_cleanly(
            capsys, "synth", "--checkpoint", tmp_path / "ck", "--mel", tmp_path / "mel",
            "--out", tmp_path / "x.wav",
        )

    @pytest.mark.parametrize(
        "extra",
        [{"n_samples": "abc"}, {"n_samples": -5}, {"sample_rate": "x"}],
        ids=["n_samples_abc", "n_samples_negative", "sample_rate_x"],
    )
    def test_bad_mel_manifest_integer(self, tmp_path, capsys, extra):
        cfg = ModelConfig(**{**TINY_CONFIG, "conditioned": True})
        save_checkpoint(build_model(cfg, seed=0), tmp_path / "ck")
        manifest = {"sample_rate": 22050, "n_samples": 256, **extra}
        save_tensors(tmp_path / "mel", {"mel": np.zeros((16, 80))}, manifest)
        err = TestFileSystemErrors._fails_cleanly(
            capsys, "synth", "--checkpoint", tmp_path / "ck", "--mel", tmp_path / "mel",
            "--out", tmp_path / "x.wav",
        )
        assert "not a positive integer" in err


class TestInstalledEntryPoint:
    def test_console_script(self, tmp_path):
        """Installing the package yields a `gridflow` command that runs.

        The package is installed from this source tree into `tmp_path` by its
        build backend, setuptools, and the generated launcher is run with only
        that install on the path, so the entry point and the shipped presets
        are the ones an install gives.
        """
        pytest.importorskip("setuptools")
        lib, bin_dir = tmp_path / "lib", tmp_path / "bin"
        install = subprocess.run(
            [
                sys.executable, "-c", "import setuptools; setuptools.setup()",
                "egg_info", "--egg-base", tmp_path,
                "build", "--build-base", tmp_path / "build",
                "install", "--single-version-externally-managed",
                "--record", tmp_path / "record.txt",
                "--install-lib", lib, "--install-scripts", bin_dir,
            ],
            cwd=Path(__file__).resolve().parents[1],
            capture_output=True, text=True,
        )
        assert install.returncode == 0, install.stderr
        proc = subprocess.run(
            [bin_dir / "gridflow", "presets"],
            cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(lib)},
        )
        assert proc.returncode == 0, proc.stderr
        assert "wf-h16-c64" in proc.stdout


def _mutants(data: bytes, rng, n: int, kind: str):
    """n seeded mutants of a file: cut short, one bit flipped and, for JSON and
    NDJSON files, one key dropped or one value replaced by a value of another type."""
    ops = ["truncate", "flip"] + (["drop", "retype"] if kind != "binary" else [])
    for i in range(n):
        op = ops[i % len(ops)]
        if op == "truncate":
            yield data[: int(rng.integers(len(data)))]
            continue
        if op == "flip":
            out = bytearray(data)
            out[int(rng.integers(len(out)))] ^= 1 << int(rng.integers(8))
            yield bytes(out)
            continue
        docs = [json.loads(doc) for doc in (data.splitlines() if kind == "ndjson" else [data])]
        slots = []  # (container, key) of every value in the documents

        def walk(node):
            for key in range(len(node)) if isinstance(node, list) else list(node):
                slots.append((node, key))
                if isinstance(node[key], (dict, list)):
                    walk(node[key])

        for doc in docs:
            walk(doc)
        node, key = slots[int(rng.integers(len(slots)))]
        if op == "drop":
            del node[key]
        else:
            others = [v for v in ("x", 3, 2.5, None, [1], {"a": 1}, True)
                      if type(v) is not type(node[key])]
            node[key] = others[int(rng.integers(len(others)))]
        yield "\n".join(json.dumps(doc) for doc in docs).encode()


KINDS = ["wav", "checkpoint_manifest", "checkpoint_blob", "config", "dataset", "mel"]


class TestMutatedFiles:
    """Seeded mutants of each file kind the CLI reads keep the exit-code contract:
    no exception, exit 0, 1 or 2, and exactly one stderr line on a non-zero exit
    (none on a zero exit), a warning counting as a line."""

    SEED = 20261022
    N_MUTANTS = 25

    @pytest.mark.parametrize("kind", KINDS)
    def test_mutants(self, tmp_path, capsys, kind):
        wav = tmp_path / "a.wav"
        t = np.arange(4096) / 22050.0
        write_wav(wav, Waveform(0.3 * np.sin(2 * np.pi * 220.0 * t), 22050))
        ckpt, cond_ckpt, config = tmp_path / "ck", tmp_path / "cond", tmp_path / "tiny.json"
        save_checkpoint(build_model(ModelConfig(**TINY_CONFIG), seed=0), ckpt)
        cond = ModelConfig(**{**TINY_CONFIG, "conditioned": True})
        save_checkpoint(build_model(cond, seed=0), cond_ckpt)
        config.write_text(json.dumps(TINY_CONFIG))
        data = tmp_path / "data.ndjson"
        write_dataset_manifest(data, [DatasetEntry("a.wav", 4096 / 22050.0)])
        assert run_cli("mel", "--wav", wav, "--out", tmp_path / "mel") == 0
        capsys.readouterr()
        loglik = ("loglik", "--checkpoint", ckpt, "--wav", wav)
        target, file_kind, argv = {
            "wav": (wav, "binary", loglik),
            "checkpoint_manifest": (Path(f"{ckpt}.manifest.json"), "json", loglik),
            "checkpoint_blob": (Path(f"{ckpt}.blob"), "binary", loglik),
            "config": (config, "json", ("bench", "--config", config, "--seconds", 0.01)),
            "dataset": (data, "ndjson", ("train", "--config", config, "--data", data,
                                         "--steps", 1, "--batch", 1, "--clip", 512)),
            "mel": (tmp_path / "mel.manifest.json", "json",
                    ("synth", "--checkpoint", cond_ckpt, "--mel", tmp_path / "mel",
                     "--out", tmp_path / "x.wav")),
        }[kind]
        rng = np.random.default_rng([self.SEED, KINDS.index(kind)])
        escapes = []
        for i, mutant in enumerate(_mutants(target.read_bytes(), rng, self.N_MUTANTS, file_kind)):
            target.write_bytes(mutant)
            run_dir = ("--out-dir", tmp_path / f"run{i}") if kind == "dataset" else ()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = run_cli(*argv, *run_dir)
                except Exception as e:  # an escape, listed with the others
                    code = f"{type(e).__name__}: {e}"
            err = capsys.readouterr().err
            lines = err.count("\n") + len(caught)
            if code not in (0, 1, 2) or lines != (code != 0):
                escapes.append((i, code, err.strip(), [str(w.message) for w in caught]))
        assert escapes == []
