"""Command-line interface: argument handling, outputs, and exit codes."""

import gc
import json
import os
import subprocess
import sys
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
        assert d["n_flows"] == 1
        assert d["speedup"] > 0
        assert d["real_time_factor"] > 0

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

    @pytest.mark.parametrize("std", ["nan", "inf"])
    def test_non_finite_latent_is_two(self, tmp_path, capsys, std):
        save_checkpoint(build_model(ModelConfig(**TINY_CONFIG), seed=0), tmp_path / "ck")
        out = tmp_path / "x.wav"
        with np.errstate(invalid="ignore"):
            code = run_cli(
                "synth", "--checkpoint", tmp_path / "ck", "--samples", 64,
                "--std", std, "--out", out,
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


class TestMalformedTensorFiles:
    """Tensor files of the wrong structure exit 1 with one error line."""

    @pytest.mark.parametrize(
        "manifest",
        [{"format_version": 1}, [1, 2], {"format_version": 1, "tensors": [{"name": "x"}]}],
        ids=["no_tensors", "list", "bad_entry"],
    )
    def test_bad_manifest(self, tmp_path, capsys, manifest):
        ckpt = tmp_path / "ck"
        save_checkpoint(build_model(ModelConfig(**TINY_CONFIG), seed=0), ckpt)
        Path(f"{ckpt}.manifest.json").write_text(json.dumps(manifest))
        TestFileSystemErrors._fails_cleanly(
            capsys, "synth", "--checkpoint", ckpt, "--samples", 64, "--out", tmp_path / "x.wav"
        )

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
