"""Command-line interface: train, synth, loglik, bench, verify, mel.

Every command takes --seed and --precision {fp32, fp64}. Exit codes: 0 on
success, 1 for usage and validation problems (bad option values, bad or
missing files, unwritable outputs, configs, shapes), 2 for numerical aborts
(non-finite values, failed checks at the numerical level).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .conditioner import MelSpectrogram, mel_spectrogram
from .errors import NumericalError, ValidationError
from .flow import SynthStats
from .io import (
    load_tensors,
    preset_names,
    read_dataset_manifest,
    resolve_config,
    save_tensors,
)
from .model import (
    build_model,
    check_sample_rate,
    count_parameters,
    load_checkpoint,
    loglik,
    synthesize,
)
from .signal import Waveform, read_wav, write_wav
from .train import Dataset, TrainConfig, train_loop
from .verify import run_checks

DTYPES = {"fp32": np.float32, "fp64": np.float64}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 0
    try:
        return args.fn(args)
    except (ValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 2


class Parser(argparse.ArgumentParser):
    """A usage error prints one "error: ..." line and exits 1, like any bad input."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = Parser(
        prog="gridflow",
        description="Likelihood-trained flow over squeezed waveform grids.",
    )
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--precision", choices=("fp32", "fp64"), default="fp32")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("train", help="maximum-likelihood training")
    common(p)
    p.add_argument("--config", help="preset name or JSON config path (optional with --resume)")
    p.add_argument("--data", required=True, help="dataset manifest (NDJSON)")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--lr", type=positive_float, default=2e-4)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--clip", type=int, default=16000)
    p.add_argument("--checkpoint-interval", type=int, default=500)
    p.add_argument("--resume", help="checkpoint base path to continue from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("synth", help="draw audio from a checkpoint")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--mel", help="mel tensor file base (from the mel command)")
    p.add_argument("--wav", help="WAV file to take the conditioning mel from")
    p.add_argument("--samples", type=positive_int, default=None, help="length when unconditioned")
    p.add_argument("--std", type=positive_float, default=1.0)
    p.add_argument("--engine", choices=("queued", "naive"), default="queued")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("loglik", help="exact log-likelihood of a waveform")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--wav", required=True)
    p.set_defaults(fn=cmd_loglik)

    p = sub.add_parser("bench", help="time naive vs queued synthesis")
    common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--config", help="bench a fresh model instead of a checkpoint")
    p.add_argument("--seconds", type=positive_float, default=0.25, help="audio length to generate")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("verify", help="run the built-in self checks")
    common(p)
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("mel", help="compute a mel spectrogram tensor file")
    common(p)
    p.add_argument("--wav", required=True)
    p.add_argument("--out", required=True, help="output tensor file base path")
    p.add_argument("--config", help="preset name or JSON config whose mel settings to use")
    p.set_defaults(fn=cmd_mel)

    p = sub.add_parser("presets", help="list built-in model configs")
    common(p)
    p.set_defaults(fn=cmd_presets)
    return parser


def cmd_train(args) -> int:
    dtype = DTYPES[args.precision]
    if args.resume:
        model = load_checkpoint(args.resume, dtype=dtype)
        if args.config and resolve_config(args.config) != model.config:
            raise ValidationError(f"--config {args.config} differs from the config in --resume")
    elif args.config:
        model = build_model(resolve_config(args.config), seed=args.seed, dtype=dtype)
    else:
        raise ValidationError("train needs --config or --resume")
    entries = read_dataset_manifest(args.data)
    dataset = Dataset.from_entries(
        entries, model.config.mel, min_length=max(args.clip, model.config.mel.win)
    )
    config = TrainConfig(
        learning_rate=args.lr,
        batch_size=args.batch,
        clip_length=args.clip,
        max_steps=args.steps,
        checkpoint_interval=args.checkpoint_interval,
        seed=args.seed,
        out_dir=args.out_dir,
    )

    def report(record):
        if args.json:
            print(json.dumps(record, sort_keys=True))
        else:
            print(
                f"step {record['step']:6d}  loss {record['loss']:.4f}  "
                f"ll/dim {record['loglik_per_dim']:.4f}  "
                f"grad {record['grad_norm']:.3e}  {record['seconds_per_step']:.2f}s"
            )

    n_params = count_parameters(model)
    if not args.json:
        print(f"model: {n_params / 1e6:.2f}M parameters, {model.stack.n_flows} flows")
    train_loop(model, dataset, config, on_metrics=report)
    return 0


def _mel_for_synth(args, model) -> tuple[MelSpectrogram | None, int]:
    if args.mel:
        tensors, manifest = load_tensors(args.mel)
        if "mel" not in tensors:
            raise ValidationError(f"no 'mel' tensor in {args.mel}")
        frames = tensors["mel"].astype(np.float64)
        n_mels = model.config.mel.n_mels
        if frames.ndim != 2 or frames.shape[1] != n_mels:
            raise ValidationError(
                f"mel tensor has shape {frames.shape}; the model needs (frames, {n_mels})"
            )
        for key in ("sample_rate", "n_samples"):
            value = manifest.get(key, 1)
            if type(value) is not int or value < 1:
                raise ValidationError(f"mel manifest: {key} is not a positive integer: {value!r}")
        rate = int(manifest.get("sample_rate", model.config.sample_rate))
        check_sample_rate(model, rate)
        n = int(manifest.get("n_samples", frames.shape[0] * model.config.mel.hop))
        return MelSpectrogram(frames, rate, model.config.mel), n
    if args.wav:
        wav = read_wav(args.wav)
        check_sample_rate(model, wav.sample_rate)
        return mel_spectrogram(wav, model.config.mel), len(wav)
    if model.upsampler is not None:
        raise ValidationError("conditioned model: give --mel or --wav")
    if args.samples is None:
        raise ValidationError("unconditioned model: give --samples")
    return None, args.samples


def cmd_synth(args) -> int:
    dtype = DTYPES[args.precision]
    model = load_checkpoint(args.checkpoint, dtype=dtype)
    mel, n_samples = _mel_for_synth(args, model)
    rng = np.random.default_rng(args.seed)
    stats = SynthStats()
    wav = synthesize(
        model, mel, n_samples, std=args.std, rng=rng, engine=args.engine, stats=stats
    )
    write_wav(args.out, wav)
    info = {
        "out": args.out,
        "n_samples": len(wav),
        "row_steps": stats.row_steps,
        "sigma_floored": stats.sigma_floored,
        "std": args.std,
        "engine": args.engine,
    }
    print(json.dumps(info, sort_keys=True) if args.json else f"wrote {args.out}: {len(wav)} samples")
    return 0


def cmd_loglik(args) -> int:
    dtype = DTYPES[args.precision]
    model = load_checkpoint(args.checkpoint, dtype=dtype)
    wav = read_wav(args.wav)
    report = loglik(model, wav)
    out = {
        "log_det": report.log_det,
        "base_term": report.base_term,
        "total": report.total,
        "per_dim": report.per_dim,
        "n_dims": report.n_dims,
    }
    if args.json:
        print(json.dumps(out, sort_keys=True))
    else:
        print(
            f"log-likelihood: {report.total:.2f} total over {report.n_dims} dims "
            f"({report.per_dim:.4f} per dim; log|det| {report.log_det:.2f})"
        )
    return 0


def cmd_bench(args) -> int:
    """Time `synthesize` with each engine on one mel and one latent draw."""
    dtype = DTYPES[args.precision]
    if args.checkpoint:
        model = load_checkpoint(args.checkpoint, dtype=dtype)
    elif args.config:
        model = build_model(resolve_config(args.config), seed=args.seed, dtype=dtype)
    else:
        raise ValidationError("bench needs --checkpoint or --config")
    h = model.config.height
    n = -(-max(int(args.seconds * model.config.sample_rate), h) // h) * h  # whole columns
    mel = None
    if model.upsampler is not None:
        # synthetic conditioning: mel of a quiet noise signal of matching length
        probe = np.random.default_rng(args.seed).standard_normal(max(n, model.config.mel.win))
        mel = mel_spectrogram(Waveform(probe * 0.01, model.config.sample_rate), model.config.mel)
    seconds, audio = {}, {}
    for engine in ("naive", "queued"):
        stats = SynthStats()
        rng = np.random.default_rng(args.seed + 1)  # both engines get the same latent
        t0 = time.perf_counter()
        audio[engine] = synthesize(model, mel, n, rng=rng, engine=engine, stats=stats).samples
        seconds[engine] = time.perf_counter() - t0
    err = np.max(np.abs(audio["naive"] - audio["queued"]))
    if err > 1e-3:
        raise ValidationError(f"engines disagree by {err:.3e}; refusing to report timings")
    d = {
        "n_samples": n,
        "height": h,
        "n_flows": model.stack.n_flows,
        "sequential_steps": stats.row_steps,  # the queued engine's
        "naive_seconds": seconds["naive"],
        "queued_seconds": seconds["queued"],
        "speedup": seconds["naive"] / seconds["queued"],
        "samples_per_second": n / seconds["queued"],
        "audio_seconds": n / model.config.sample_rate,
    }
    d["real_time_factor"] = d["audio_seconds"] / seconds["queued"]
    if args.json:
        print(json.dumps(d, sort_keys=True))
    else:
        print(
            f"{n} samples, {d['sequential_steps']} sequential steps: "
            f"naive {d['naive_seconds']:.3f}s, queued {d['queued_seconds']:.3f}s "
            f"({d['speedup']:.1f}x, {d['samples_per_second']:,.0f} samples/s)"
        )
    return 0


def cmd_verify(args) -> int:
    ok, results = run_checks(args.level)
    if args.json:
        print(
            json.dumps(
                {
                    "passed": bool(ok),
                    "checks": [
                        {"name": n, "passed": bool(p), "detail": d} for n, p, d in results
                    ],
                },
                sort_keys=True,
            )
        )
    else:
        for name, passed, detail in results:
            print(f"[{'pass' if passed else 'FAIL'}] {name}: {detail}")
        print(f"{sum(1 for r in results if r[1])}/{len(results)} checks passed")
    if ok:
        return 0
    return 2


def cmd_mel(args) -> int:
    wav = read_wav(args.wav)
    mel_cfg = resolve_config(args.config).mel if args.config else None
    mel = mel_spectrogram(wav, mel_cfg)
    save_tensors(
        args.out,
        {"mel": mel.frames.astype(np.float32)},
        {"sample_rate": wav.sample_rate, "n_samples": len(wav)},
    )
    info = {"out": args.out, "n_frames": mel.n_frames, "n_mels": mel.frames.shape[1]}
    print(json.dumps(info, sort_keys=True) if args.json else f"wrote {args.out}: {mel.n_frames} frames")
    return 0


def cmd_presets(args) -> int:
    names = preset_names()
    if args.json:
        print(json.dumps({"presets": names}))
    else:
        for n in names:
            print(n)
    return 0


if __name__ == "__main__":
    sys.exit(main())
