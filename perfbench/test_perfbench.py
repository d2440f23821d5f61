"""Self-tests of the benchmark: tiny smoke runs and checks that must fail.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import run as run_cli

run_cli.import_package()

import bench  # noqa: E402
import gridflow.model as gf_model  # noqa: E402
import tracing  # noqa: E402
from gridflow.io import ModelConfig  # noqa: E402

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

TINY = ModelConfig(height=4, n_flows=2, n_layers=2, residual_channels=4)
TINY_NAIVE = ModelConfig(height=4, n_flows=2, n_layers=2, residual_channels=4, conditioned=False)


def tiny(spec: bench.Workload) -> bench.Workload:
    """The workload's code path (dataset kind, naive model, ops per round) at toy sizes."""
    return dataclasses.replace(
        spec,
        config=TINY,
        synth_samples=1024,
        loglik_samples=1024,
        train_clip=256,
        naive_samples=16,
        naive_config=None if spec.naive_config is None else TINY_NAIVE,
    )


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    spec = tiny(bench.workloads()["vocode-h16"])
    return spec, bench.set_up(spec, 3, tmp_path_factory.mktemp("setup"))


@pytest.mark.parametrize("name", sorted(bench.workloads()))
def test_smoke_run_passes_every_check(name, tmp_path):
    spec = tiny(bench.workloads()[name])
    result = bench.run_workload(spec, seed=7, seconds=0.0, work=tmp_path / "w", trace=False)
    failed = [c for c in result["checks"] if not c[1]]
    assert not failed
    per_round = spec.passes * (spec.synth_per_round + 1 + spec.naive_per_round) + 1
    assert result["rounds"] == bench.MIN_TIMED_ROUNDS
    # the warm-up round inverts its synthesis in place of the loglik operation
    assert result["attempted"] == per_round * (bench.MIN_TIMED_ROUNDS + 1) - 1
    assert result["failed"] == 0
    names = {c[0] for c in result["checks"]}
    assert {
        "latent recovered",
        "base term",
        "adam update",
        "naive equals queued",
        "fp64 gradient",
    } <= names
    assert not (tmp_path / "w").exists()


def test_cli_prints_the_metrics_benchmark_json_names(tmp_path, monkeypatch, capsys):
    declared = json.loads(BENCHMARK_JSON.read_text())
    specs = {n: tiny(s) for n, s in bench.workloads().items()}
    monkeypatch.setattr(bench, "workloads", lambda: specs)
    monkeypatch.setattr(run_cli, "OUT", tmp_path)
    assert {w["name"] for w in declared["workloads"]} == set(specs)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", "train-h16", "--seed", "1", "--seconds", "0", "--trace", str(trace)]
        assert run_cli.main(argv) == 0
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0
        want = {m["name"]: m["unit"] for m in declared[key]}
        assert {k: m["unit"] for k, m in last["metrics"].items()} == want
        assert all(np.isfinite(m["value"]) for m in last["metrics"].values())
    assert (tmp_path / "train-h16.trace.json").is_file()


def test_tracer_wraps_and_restores_every_layer_function():
    def current():
        return [owner.__dict__[attr] for owner, attr, _, _ in tracing.LAYER_FUNCTIONS]

    before = current()
    tracer = tracing.Tracer()
    tracer.install()
    assert all(w.__wrapped__ is b for w, b in zip(current(), before))
    tracer.uninstall()
    assert current() == before


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["d", 5.0, 6.0, 0]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    table = tracing.summarize(spans, [(2, "n", 5)], {0})
    assert table["layers"]["b"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert table["counters"] == {"n": 5}


# ---------------------------------------------------------------------------
# each check fails on a deliberately corrupted output


def _synth(setup, request=0):
    spec, s = setup
    mel, n = s.synth_mels[0]
    rng = np.random.default_rng((3, bench.STREAM_LATENT, request))
    wav = gf_model.synthesize(s.model, mel, n, rng=rng)
    h = s.model.config.height
    z = bench.drawn_latent(3, request, (h, n // h), s.model.dtype)
    return s.model, mel, wav.samples, z


def _passed(checks):
    return {name: bool(ok) for name, ok, _ in checks}


def test_latent_check_passes_on_true_output(setup):
    model, mel, samples, z = _synth(setup)
    assert _passed(bench.check_latent_recovery(model, mel, samples, z)) == {
        "latent recovered": True,
        "base term": True,
    }


def test_latent_check_fails_on_perturbed_sample(setup):
    model, mel, samples, z = _synth(setup)
    bad = samples.copy()
    bad[len(bad) // 2] += 1e-2
    assert not _passed(bench.check_latent_recovery(model, mel, bad, z))["latent recovered"]


def test_latent_check_fails_on_mismatched_latent(setup):
    model, mel, samples, _ = _synth(setup)
    _, _, _, other = _synth(setup, request=1)
    assert not _passed(bench.check_latent_recovery(model, mel, samples, other))["latent recovered"]


def test_base_term_check_fails_on_wrong_report(setup, monkeypatch):
    model, mel, samples, z = _synth(setup)
    real = bench.stack_inverse

    def shifted(*args):
        z_out, report = real(*args)
        report.base_term += 1e-3 * abs(report.base_term)
        return z_out, report

    monkeypatch.setattr(bench, "stack_inverse", shifted)
    assert not _passed(bench.check_latent_recovery(model, mel, samples, z))["base term"]


def test_audio_check_fails_on_wrong_length_or_nan(setup):
    _, _, samples, _ = _synth(setup)
    wav = gf_model.Waveform(samples, 22050)
    assert bench.check_audio(wav, len(samples))[1]
    assert not bench.check_audio(wav, len(samples) + 1)[1]
    bad = samples.copy()
    bad[3] = np.nan
    assert not bench.check_audio(gf_model.Waveform(bad, 22050), len(samples))[1]


def test_engine_check_fails_on_perturbed_sample():
    x = np.linspace(-1, 1, 64, dtype=np.float32)
    assert bench.check_engines(x, x.copy())[1]
    y = x.copy()
    y[5] += 1e-3
    assert not bench.check_engines(x, y)[1]


def _train_step(setup, lr=None):
    spec, s = setup
    model = gf_model.load_checkpoint(s.checkpoint)
    params = model.parameters()
    state, config = bench.gf_train.AdamState(), bench.gf_train.TrainConfig()
    utt = s.dataset.utterances[0]
    for _ in range(2):  # the second step exercises the stored moments
        snapshot = bench.adam_snapshot(params, state)
        loss, tape = bench.ad.record_forward(
            lambda: bench.gf_train.clip_loss_terms(model, utt, 0, spec.train_clip), params
        )
        grads = bench.ad.backward(tape)
        step_config = config if lr is None else dataclasses.replace(config, learning_rate=lr)
        bench.gf_train.adam_step(params, grads, state, step_config)
    return snapshot, grads, params, state, config


def test_adam_check_passes_on_true_update(setup):
    assert bench.check_adam(*_train_step(setup))[1]


def test_adam_check_fails_on_wrong_update(setup):
    assert not bench.check_adam(*_train_step(setup, lr=2.2e-4))[1]
    snapshot, grads, params, state, config = _train_step(setup)
    params[0].data = params[0].data.copy()
    params[0].data.flat[0] += 1e-6
    assert not bench.check_adam(snapshot, grads, params, state, config)[1]


def test_gradient_check_fails_on_wrong_gradient(setup, monkeypatch):
    spec, s = setup
    wav = s.dataset.utterances[0].wav
    assert bench.check_gradient_fd(s.checkpoint, wav, bench.FD_CLIP, 3)[1]
    real = bench.ad.backward
    monkeypatch.setattr(
        bench.ad, "backward", lambda tape: {k: g * 1.001 for k, g in real(tape).items()}
    )
    assert not bench.check_gradient_fd(s.checkpoint, wav, bench.FD_CLIP, 3)[1]
