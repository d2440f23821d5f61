"""Workloads, set-up, timed operations and output checks of the gridflow benchmark.

A run sets up a workload several times (build the model from its preset
with seeded weights, save and load the checkpoint, make the inputs), runs
one untimed warm-up round, then whole timed rounds of the same operations
until the run length has passed, and last checks the outputs against
independent computations. Every input is made from the run's seed.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gridflow.autodiff as ad
import gridflow.conditioner as gf_cond
import gridflow.io as gf_io
import gridflow.model as gf_model
import gridflow.signal as gf_signal
import gridflow.train as gf_train
from gridflow.errors import EngineError
from gridflow.flow import LOG_2PI, SynthStats, stack_inverse

from tracing import Tracer

# independent random streams drawn from one run seed
STREAM_WEIGHTS, STREAM_INPUTS, STREAM_LATENT, STREAM_CLIPS, STREAM_FD = range(5)

# A fresh model's zero output head makes every flow the identity, so
# synthesis, inversion and the log-det would all be trivially right. The
# seeded head keeps log-sigma within a few tenths of 0, far from the sigma
# floor. Seeded biases keep pre-activations off exact zeros, where a ReLU
# kink would break the finite-difference gradient check.
HEAD_SCALE = 0.1
BIAS_SCALE = 0.02

# check tolerances, stated in the README
LATENT_TOL = 1e-4  # max |z_recovered - z_drawn|, as tier-1 criterion 1
ENGINE_TOL = 1e-4  # max |naive - queued| on the same latent and conditioner
BASE_TERM_RTOL = 1e-5  # fp32 sum of squares against the fp64 sum
ADAM_RTOL = 2.5e-7  # two fp32 ulps: the update is done in fp64, stored in fp32
FD_EPS = 1e-6  # small enough that the step rarely crosses a ReLU kink
FD_RTOL = 1e-5  # fp64 central difference against the tape gradient

SETUP_REPEATS = 3
N_INPUTS = 4  # distinct utterances per operation kind, used in turn
FD_CLIP = 128  # samples in the finite-difference check's clip
MIN_TIMED_ROUNDS = 1


@dataclass(frozen=True)
class Workload:
    """One set of inputs and operation sizes; every size is in samples."""

    name: str
    config: gf_io.ModelConfig
    synth_samples: int
    synth_per_round: int
    loglik_samples: int
    train_batch: int
    train_clip: int
    naive_samples: int
    naive_per_round: int = 1
    # the synth, loglik and naive ops repeat this often per round, spread
    # before and after the training step so that their repetitions straddle
    # the host's fast and slow spells of a few seconds
    passes: int = 1
    naive_config: gf_io.ModelConfig | None = None  # None: the workload's model
    wav_dataset: bool = False  # write the training utterances as WAV files


def workloads() -> dict[str, Workload]:
    h16 = gf_io.load_preset("wf-h16-c64")
    h64 = gf_io.load_preset("wf-h64-c64")
    # the largest shape tier-1 criterion 1 inverts with the naive engine
    criterion1 = gf_io.ModelConfig(
        height=16, n_flows=8, n_layers=4, residual_channels=4, conditioned=False
    )
    return {
        w.name: w
        for w in (
            Workload(
                name="vocode-h16",
                config=h16,
                synth_samples=11040,  # 0.5 s at 22,050 Hz, 690 columns
                synth_per_round=1,
                loglik_samples=11040,
                train_batch=1,
                train_clip=256,
                naive_samples=32,
                naive_per_round=2,
            ),
            Workload(
                name="train-h16",
                config=h16,
                synth_samples=1024,
                synth_per_round=1,
                loglik_samples=1024,
                train_batch=2,
                train_clip=2048,
                naive_samples=32,
                passes=3,
                wav_dataset=True,
            ),
            Workload(
                name="short-h64",
                config=h64,
                synth_samples=2048,  # 32 columns, 512 row steps
                synth_per_round=2,
                loglik_samples=2048,
                train_batch=1,
                train_clip=512,
                naive_samples=64,  # a 16 x 4 grid
                naive_per_round=3,
                naive_config=criterion1,
            ),
        )
    }


# ---------------------------------------------------------------------------
# inputs


def utterance(rng, n: int, sample_rate: int) -> np.ndarray:
    """Harmonic tone with vibrato and a few noise bursts, peak 0.5."""
    t = np.arange(n) / sample_rate
    f0 = rng.uniform(90.0, 280.0)
    freq = f0 * (1.0 + rng.uniform(0.01, 0.04) * np.sin(2 * np.pi * rng.uniform(4.0, 7.0) * t))
    phase = 2 * np.pi * np.cumsum(freq) / sample_rate
    x = sum(
        (rng.uniform(0.3, 1.0) / k) * np.sin(k * phase + rng.uniform(0, 2 * np.pi))
        for k in range(1, 7)
    )
    x = x * (0.6 + 0.4 * np.sin(2 * np.pi * rng.uniform(1.0, 3.0) * t) ** 2)
    for _ in range(3):
        length = int(rng.integers(n // 40 + 1, n // 10 + 2))
        start = int(rng.integers(0, max(n - length, 1)))
        x[start : start + length] += rng.standard_normal(min(length, n - start)) * 0.3
    return 0.5 * x / np.max(np.abs(x))


def rig_weights(model: gf_model.Model, rng) -> None:
    """Give every flow a seeded output head and every bias a seeded value."""
    for p in model.parameters():
        if p.name.endswith("out_head"):
            scale = HEAD_SCALE
        elif "bias" in p.name:
            scale = BIAS_SCALE
        else:
            continue
        p.data = (rng.standard_normal(p.data.shape) * scale).astype(p.data.dtype)


def drawn_latent(seed: int, request: int, shape, dtype) -> np.ndarray:
    """The latent `synthesize` draws for a request, drawn here by numpy alone."""
    return np.random.default_rng((seed, STREAM_LATENT, request)).standard_normal(shape).astype(
        dtype
    )


@dataclass
class Setup:
    model: gf_model.Model
    train_model: gf_model.Model  # its own copy: Adam steps must not move the synthesis weights
    naive_model: gf_model.Model
    checkpoint: Path
    synth_mels: list  # (mel, n_samples) per input
    naive_mels: list  # conditioned naive models only
    loglik_wavs: list[gf_signal.Waveform]
    dataset: gf_train.Dataset
    checks: list = field(default_factory=list)


def build_seeded(config, seed: int, base: Path, checks: list) -> gf_model.Model:
    """Build, rig, save, load back; the loaded model is the one used."""
    model = gf_model.build_model(config, seed=seed)
    rig_weights(model, np.random.default_rng((seed, STREAM_WEIGHTS)))
    gf_model.save_checkpoint(model, base)
    loaded = gf_model.load_checkpoint(base)
    same = all(
        np.array_equal(a.data, b.data) for a, b in zip(model.parameters(), loaded.parameters())
    )
    checks.append(("checkpoint round trip", same, f"{len(model.parameters())} tensors"))
    return loaded


def set_up(spec: Workload, seed: int, work: Path) -> Setup:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    checks: list = []
    ckpt = work / "model"
    model = build_seeded(spec.config, seed, ckpt, checks)
    train_model = gf_model.load_checkpoint(ckpt)
    naive_model = model
    if spec.naive_config is not None:
        naive_model = build_seeded(spec.naive_config, seed, work / "naive", checks)
    rate = spec.config.sample_rate
    rng = np.random.default_rng((seed, STREAM_INPUTS))
    synth_mels = []
    for _ in range(N_INPUTS):
        wav = gf_signal.Waveform(utterance(rng, spec.synth_samples, rate), rate)
        synth_mels.append((gf_cond.mel_spectrogram(wav, spec.config.mel), len(wav)))
    naive_mels = []
    if naive_model.upsampler is not None:
        n = max(spec.naive_samples, spec.config.mel.win)
        naive_mels = [
            gf_cond.mel_spectrogram(
                gf_signal.Waveform(utterance(rng, n, rate), rate), spec.config.mel
            )
            for _ in range(N_INPUTS)
        ]
    loglik_wavs = [
        gf_signal.Waveform(utterance(rng, spec.loglik_samples, rate), rate)
        for _ in range(N_INPUTS)
    ]
    train_len = max(3 * spec.train_clip, spec.config.mel.win, FD_CLIP)
    train_wavs = [
        gf_signal.Waveform(utterance(rng, train_len, rate), rate) for _ in range(N_INPUTS)
    ]
    min_length = max(spec.train_clip, FD_CLIP)
    if spec.wav_dataset:
        entries = []
        for i, wav in enumerate(train_wavs):
            path = work / f"utt{i}.wav"
            gf_signal.write_wav(path, wav)
            entries.append(gf_io.DatasetEntry(path=path.name, duration=wav.duration))
        gf_io.write_dataset_manifest(work / "train.ndjson", entries)
        dataset = gf_train.Dataset.from_entries(
            gf_io.read_dataset_manifest(work / "train.ndjson"), spec.config.mel, min_length
        )
    else:
        dataset = gf_train.Dataset([gf_train.Utterance(w, spec.config.mel) for w in train_wavs])
    return Setup(
        model, train_model, naive_model, ckpt, synth_mels, naive_mels, loglik_wavs, dataset, checks
    )


# ---------------------------------------------------------------------------
# checks: each returns (name, passed, detail)


def check_audio(wav, n_samples: int):
    ok = len(wav) == n_samples and bool(np.all(np.isfinite(wav.samples)))
    return ("audio length and finite", ok, f"{len(wav)} samples, requested {n_samples}")


def check_latent_recovery(model, mel, samples: np.ndarray, z_drawn: np.ndarray):
    """Density direction on the synthesized grid recovers the drawn latent;
    the likelihood's base term matches numpy on the recovered latent."""
    h = model.config.height
    grid = gf_signal.squeeze(np.asarray(samples, dtype=model.dtype), h)
    conds = gf_model.conditioner_grids(model, mel, grid.size)
    z, report = stack_inverse(grid, conds, model.stack)
    err = float(np.max(np.abs(z - z_drawn)))
    z64 = z.astype(np.float64)
    base = -0.5 * float(np.sum(z64 * z64)) - 0.5 * z.size * LOG_2PI
    base_err = abs(report.base_term - base) / abs(base)
    total_ok = report.total == report.log_det + report.base_term
    return [
        ("latent recovered", err <= LATENT_TOL, f"max err {err:.2e} (tol {LATENT_TOL:g})"),
        (
            "base term",
            base_err <= BASE_TERM_RTOL and total_ok,
            f"rel err {base_err:.2e} (tol {BASE_TERM_RTOL:g}), total = log_det + base: {total_ok}",
        ),
    ]


def check_report(report, n_dims: int):
    ok = (
        report.n_dims == n_dims
        and np.isfinite(report.total)
        and report.total == report.log_det + report.base_term
    )
    return ("likelihood report", ok, f"n_dims {report.n_dims}, total {report.total:.3f}")


def check_engines(naive: np.ndarray, queued: np.ndarray):
    err = float(np.max(np.abs(np.asarray(naive) - np.asarray(queued))))
    return ("naive equals queued", err <= ENGINE_TOL, f"max diff {err:.2e} (tol {ENGINE_TOL:g})")


def adam_snapshot(params, state: gf_train.AdamState):
    """References to the pre-step arrays; adam_step replaces rather than mutates them."""
    return {p.name: (p.data, state.m.get(p.name), state.v.get(p.name)) for p in params}, state.t


def check_adam(snapshot, grads, params, state, config: gf_train.TrainConfig):
    """Each parameter equals an Adam update computed here in numpy."""
    before, t0 = snapshot
    finite = all(np.all(np.isfinite(g)) for g in grads.values())
    t = t0 + 1 if finite else t0
    b1, b2 = config.beta1, config.beta2
    worst = 0.0
    for p in params:
        data0, m0, v0 = before[p.name]
        if finite:
            g = grads[p.name].astype(np.float64)
            m = (1.0 - b1) * g if m0 is None else b1 * m0 + (1.0 - b1) * g
            v = (1.0 - b2) * g * g if v0 is None else b2 * v0 + (1.0 - b2) * g * g
            m_hat, v_hat = m / (1.0 - b1**t), v / (1.0 - b2**t)
            step = config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps)
            expect = data0.astype(np.float64) - step
        else:
            expect = data0.astype(np.float64)
        err = np.abs(p.data.astype(np.float64) - expect) / np.maximum(np.abs(expect), 1e-30)
        worst = max(worst, float(err.max()))
    ok = worst <= ADAM_RTOL and state.t == t
    return ("adam update", ok, f"max rel err {worst:.2e} (tol {ADAM_RTOL:g}), step {state.t}")


def check_gradient_fd(checkpoint: Path, wav, clip: int, seed: int):
    """fp64 directional finite difference of the clip loss against the tape gradient."""
    model = gf_model.load_checkpoint(checkpoint, dtype=np.float64)
    utt = gf_train.Utterance(wav, model.config.mel)
    params = model.parameters()

    def loss_fn():
        return gf_train.clip_loss_terms(model, utt, 0, clip)

    _, tape = ad.record_forward(loss_fn, params)
    grads = ad.backward(tape)
    del tape
    rng = np.random.default_rng((seed, STREAM_FD))
    direction = {p.name: rng.standard_normal(p.data.shape) for p in params}
    norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
    analytic = sum(float(np.sum(grads[n] * d)) for n, d in direction.items()) / norm
    base = {p.name: p.data for p in params}
    losses = []
    for sign in (1.0, -1.0):
        for p in params:
            p.data = base[p.name] + (sign * FD_EPS / norm) * direction[p.name]
        losses.append(float(loss_fn().data))
    for p in params:
        p.data = base[p.name]
    numeric = (losses[0] - losses[1]) / (2 * FD_EPS)
    err = abs(numeric - analytic) / max(abs(analytic), 1e-12)
    return (
        "fp64 gradient",
        err <= FD_RTOL,
        f"directional derivative {analytic:.6e}, finite difference {numeric:.6e}, "
        f"rel err {err:.1e}",
    )


# ---------------------------------------------------------------------------
# the run


@dataclass
class Run:
    spec: Workload
    seed: int
    setup: Setup
    tracer: Tracer
    clip_rng: np.random.Generator
    adam: gf_train.AdamState = field(default_factory=gf_train.AdamState)
    train_config: gf_train.TrainConfig = field(default_factory=gf_train.TrainConfig)
    requests: int = 0
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)
    ops: list = field(default_factory=list)  # (phase, kind, span index, samples)
    last_synth: tuple | None = None  # (mel, samples, request)
    last_naive: tuple | None = None

    def op(self, phase: str, kind: str, samples: int, fn):
        self.attempted += 1
        with self.tracer.span(kind) as idx:
            try:
                out = fn()
            except EngineError:
                self.failed += 1
                return None
        self.ops.append((phase, kind, idx, samples))
        return out

    def count(self, amounts: dict[str, int]) -> None:
        """Counters of the operation just timed, attributed to its span."""
        idx = self.ops[-1][2]
        self.tracer.counters += [(idx, name, int(n)) for name, n in amounts.items()]

    def synth(self, phase: str):
        spec, s = self.spec, self.setup
        k = self.requests
        self.requests += 1
        mel, n = s.synth_mels[k % len(s.synth_mels)]
        rng = np.random.default_rng((self.seed, STREAM_LATENT, k))
        stats = SynthStats()
        wav = self.op(
            phase,
            "model.synthesize",
            n,
            lambda: gf_model.synthesize(s.model, mel, n, rng=rng, stats=stats),
        )
        if wav is not None:
            self.checks.append(check_audio(wav, n))
            self.count(
                {
                    "synth.row_steps": stats.row_steps,
                    "synth.row_flop": sum(stats.row_flops),
                    "synth.sigma_floored": stats.sigma_floored,
                }
            )
            self.last_synth = (mel, wav.samples, k)

    def naive(self, phase: str):
        s, n = self.setup, self.spec.naive_samples
        k = self.requests
        self.requests += 1
        mel = s.naive_mels[k % len(s.naive_mels)] if s.naive_mels else None
        rng = np.random.default_rng((self.seed, STREAM_LATENT, k))
        stats = SynthStats()
        wav = self.op(
            phase,
            "model.synthesize[naive]",
            n,
            lambda: gf_model.synthesize(
                s.naive_model, mel, n, rng=rng, engine="naive", stats=stats
            ),
        )
        if wav is not None:
            self.checks.append(check_audio(wav, n))
            self.count({"flow.full_net_evals": stats.full_net_evals})
            self.last_naive = (mel, wav.samples, k)

    def loglik(self, phase: str, i: int):
        wav = self.setup.loglik_wavs[i % len(self.setup.loglik_wavs)]
        model = self.setup.model
        report = self.op(phase, "model.loglik", len(wav), lambda: gf_model.loglik(model, wav))
        if report is not None:
            self.checks.append(check_report(report, len(wav)))

    def train(self, phase: str):
        spec, model = self.spec, self.setup.train_model
        hop = model.config.mel.hop
        batch = [
            gf_train.sample_clip(self.setup.dataset, spec.train_clip, hop, self.clip_rng)
            for _ in range(spec.train_batch)
        ]
        params = model.parameters()
        snapshot = adam_snapshot(params, self.adam)

        def loss_fn():
            total = None
            for utt, start in batch:
                term = gf_train.clip_loss_terms(model, utt, start, spec.train_clip)
                total = term if total is None else total + term
            return total * (1.0 / len(batch))

        def step():
            loss, tape = ad.record_forward(loss_fn, params)
            grads = ad.backward(tape)
            nodes = len(tape.nodes)
            nbytes = sum(node.out.data.nbytes for node in tape.nodes)
            del tape
            gf_train.adam_step(params, grads, self.adam, self.train_config)
            return loss, grads, nodes, nbytes

        skipped = self.adam.skipped
        out = self.op(phase, "train.step", spec.train_batch * spec.train_clip, step)
        if out is not None:
            loss, grads, nodes, nbytes = out
            self.count(
                {
                    "autodiff.tape_nodes": nodes,
                    "autodiff.tape_bytes": nbytes,
                    "train.skipped_updates": self.adam.skipped - skipped,
                }
            )
            finite = bool(np.isfinite(loss.data))
            self.checks.append(("train loss finite", finite, f"loss {float(loss.data):.4f}"))
            self.checks.append(check_adam(snapshot, grads, params, self.adam, self.train_config))

    def round(self, phase: str, index: int):
        spec = self.spec
        for p in range(spec.passes):
            for _ in range(spec.synth_per_round):
                self.synth(phase)
            if phase == "warmup" and p == 0:
                # inverting the synthesized grid runs the likelihood path at
                # the same size, so the check doubles as the likelihood's warm-up
                self.check_last_synth()
            else:
                self.loglik(phase, index * spec.passes + p)
            if p == 0:
                self.train(phase)
            for _ in range(spec.naive_per_round):
                self.naive(phase)

    def check_last_synth(self):
        s = self.setup
        mel, samples, k = self.last_synth
        h = s.model.config.height
        z = drawn_latent(self.seed, k, (h, len(samples) // h), s.model.dtype)
        self.checks += check_latent_recovery(s.model, mel, samples, z)

    def final_checks(self):
        s = self.setup
        mel, samples, k = self.last_naive
        rng = np.random.default_rng((self.seed, STREAM_LATENT, k))
        queued = gf_model.synthesize(s.naive_model, mel, len(samples), rng=rng)
        self.checks.append(check_engines(samples, queued.samples))
        wav = s.dataset.utterances[0].wav
        self.checks.append(check_gradient_fd(s.checkpoint, wav, FD_CLIP, self.seed))


def run_workload(spec: Workload, seed: int, seconds: float, work: Path, trace: bool) -> dict:
    tracer = Tracer()
    if trace:
        tracer.install()
    try:
        return _run(spec, seed, seconds, work, tracer)
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)


def _run(spec, seed, seconds, work, tracer) -> dict:
    setup_roots, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        with tracer.span("setup") as idx:
            setup = set_up(spec, seed, work)
        setup_roots.append(idx)
        setup_times.append(tracer.spans[idx][2] - tracer.spans[idx][1])
    clip_rng = np.random.default_rng((seed, STREAM_CLIPS))
    run = Run(spec, seed, setup, tracer, clip_rng, checks=list(setup.checks))
    run.round("warmup", 0)
    rounds = 0
    t0 = time.perf_counter()
    while rounds < MIN_TIMED_ROUNDS or time.perf_counter() - t0 < seconds:
        rounds += 1
        run.round("timed", rounds)
    timed_s = time.perf_counter() - t0
    run.final_checks()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops: dict[str, dict] = {}
    for phase, kind, idx, samples in run.ops:
        span = tracer.spans[idx]
        entry = ops.setdefault(kind, {"samples": samples, "warmup_s": [], "seconds": []})
        entry["seconds" if phase == "timed" else "warmup_s"].append(span[2] - span[1])
    for entry in ops.values():
        entry["median_s"] = statistics.median(entry["seconds"])
        entry["samples_per_s"] = entry["samples"] / entry["median_s"]
    return {
        "workload": spec.name,
        "seed": seed,
        "rounds": rounds,
        "timed_s": timed_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": peak_rss_mib,
        "ops": ops,
        "attempted": run.attempted,
        "failed": run.failed,
        "checks": run.checks,
        "setup_roots": setup_roots,
        "timed_roots": [idx for phase, _, idx, _ in run.ops if phase == "timed"],
        "tracer": tracer,
    }
