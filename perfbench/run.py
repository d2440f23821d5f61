"""Run one gridflow benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload vocode-h16 --seed 1 --seconds 5 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the layer functions are wrapped, spans are
kept in memory, and the metrics are the per-layer ones. Results, spans and
machine details are written to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # a second OpenBLAS thread doubles CPU time at these shapes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# (name, unit, better); the value is derived from the trace in per_layer()
PER_LAYER = [
    ("synth.compile_net_s", "s", "lower"),
    ("synth.synth_queued_self_s", "s", "lower"),
    ("synth.row_steps", "count", "lower"),
    ("synth.row_step_us", "us", "lower"),
    ("synth.row_flop", "flop", "lower"),
    ("synth.sigma_floored", "count", "lower"),
    ("flow.flow_forward_self_s", "s", "lower"),
    ("flow.full_net_evals", "count", "lower"),
    ("network.weight_norm_calls", "count", "lower"),
    ("network.weight_norm_s", "s", "lower"),
    ("flow.flow_inverse_self_s", "s", "lower"),
    ("network.net_forward_self_s", "s", "lower"),
    ("network.net_forward_calls", "count", "lower"),
    ("autodiff.conv2d_s", "s", "lower"),
    ("autodiff.conv2d_calls", "count", "lower"),
    ("autodiff.conv2d_flop", "flop", "lower"),
    ("autodiff.record_forward_s", "s", "lower"),
    ("autodiff.backward_s", "s", "lower"),
    ("autodiff.tape_nodes", "count", "lower"),
    ("autodiff.tape_mib", "MiB", "lower"),
    ("train.adam_step_s", "s", "lower"),
    ("train.skipped_updates", "count", "lower"),
    ("conditioner.mel_spectrogram_s", "s", "lower"),
    ("conditioner.upsample_s", "s", "lower"),
    ("conditioner.grids_s", "s", "lower"),
    ("model.build_model_s", "s", "lower"),
    ("model.save_checkpoint_s", "s", "lower"),
    ("model.load_checkpoint_s", "s", "lower"),
]

# end-to-end metric -> the operation whose timed repetitions give its rate
RATES = {
    "synth_samples_per_s": "model.synthesize",
    "loglik_samples_per_s": "model.loglik",
    "train_samples_per_s": "train.step",
    "naive_samples_per_s": "model.synthesize[naive]",
}


def import_package():
    """Import gridflow from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "gridflow" / "__init__.py").is_file():
        sys.exit(f"error: gridflow sources not found under {src}")
    sys.path.insert(0, str(src))
    import gridflow

    if Path(gridflow.__file__).resolve().parent != (src / "gridflow").resolve():
        sys.exit(f"error: imported gridflow from {gridflow.__file__}, not {src}")


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "dtype": "float32",
    }


def end_to_end(result: dict) -> dict:
    metrics = {}
    for name, kind in RATES.items():
        metrics[name] = {"value": result["ops"][kind]["samples_per_s"], "unit": "samples/s"}
    metrics["peak_rss_mib"] = {"value": result["peak_rss_mib"], "unit": "MiB"}
    metrics["setup_s"] = {"value": result["setup_s"], "unit": "s"}
    return metrics


def per_layer(result: dict) -> dict:
    """Per timed round, except the model.* set-up layers: per set-up."""
    from tracing import summarize

    spans, counters = result["tracer"].spans, result["tracer"].counters
    rounds = result["rounds"]
    run = summarize(spans, counters, set(result["timed_roots"]))
    setup = summarize(spans, counters, set(result["setup_roots"]))
    n_setups = len(result["setup_roots"])
    layers, counts = run["layers"], run["counters"]

    def layer(name, key):
        return layers.get(name, {}).get(key, 0)

    row_steps = layer("synth.row_step", "calls")
    values = {
        "synth.compile_net_s": layer("synth.compile_net", "total_s") / rounds,
        "synth.synth_queued_self_s": layer("synth.synth_queued", "self_s") / rounds,
        "synth.row_steps": counts.get("synth.row_steps", 0) / rounds,
        "synth.row_step_us": 1e6 * layer("synth.row_step", "total_s") / max(row_steps, 1),
        "synth.row_flop": counts.get("synth.row_flop", 0) / rounds,
        "synth.sigma_floored": counts.get("synth.sigma_floored", 0) / rounds,
        "flow.flow_forward_self_s": layer("flow.flow_forward", "self_s") / rounds,
        "flow.full_net_evals": counts.get("flow.full_net_evals", 0) / rounds,
        "network.weight_norm_calls": layer("network.weight_norm", "calls") / rounds,
        "network.weight_norm_s": layer("network.weight_norm", "total_s") / rounds,
        "flow.flow_inverse_self_s": layer("flow.flow_inverse", "self_s") / rounds,
        "network.net_forward_self_s": layer("network.net_forward", "self_s") / rounds,
        "network.net_forward_calls": layer("network.net_forward", "calls") / rounds,
        "autodiff.conv2d_s": layer("autodiff.conv2d", "total_s") / rounds,
        "autodiff.conv2d_calls": layer("autodiff.conv2d", "calls") / rounds,
        "autodiff.conv2d_flop": counts.get("autodiff.conv2d_flop", 0) / rounds,
        "autodiff.record_forward_s": layer("autodiff.record_forward", "total_s") / rounds,
        "autodiff.backward_s": layer("autodiff.backward", "total_s") / rounds,
        "autodiff.tape_nodes": counts.get("autodiff.tape_nodes", 0) / rounds,
        "autodiff.tape_mib": counts.get("autodiff.tape_bytes", 0) / rounds / 2**20,
        "train.adam_step_s": layer("train.adam_step", "total_s") / rounds,
        "train.skipped_updates": counts.get("train.skipped_updates", 0) / rounds,
        "conditioner.mel_spectrogram_s": layer("conditioner.mel_spectrogram", "total_s") / rounds,
        "conditioner.upsample_s": layer("conditioner.upsample", "total_s") / rounds,
        "conditioner.grids_s": layer("conditioner.grids", "total_s") / rounds,
    }
    for name in ("build_model", "save_checkpoint", "load_checkpoint"):
        total = setup["layers"].get(f"model.{name}", {}).get("total_s", 0.0)
        values[f"model.{name}_s"] = total / n_setups
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: {"value": values[name], "unit": units[name]} for name, _, _ in PER_LAYER}


def op_tables(result: dict, untraced: dict | None) -> tuple[list[str], dict]:
    """Per operation: traced and untraced time, and each layer's self time in it."""
    from tracing import summarize

    spans, counters = result["tracer"].spans, result["tracer"].counters
    by_kind: dict[str, set] = {}
    for idx in result["timed_roots"]:
        by_kind.setdefault(spans[idx][0], set()).add(idx)
    lines, tables = [], {}
    for kind, roots in by_kind.items():
        layers = summarize(spans, counters, roots)["layers"]
        traced = result["ops"][kind]["median_s"]
        op_total = layers[kind]["total_s"]
        unaccounted = layers[kind]["self_s"] / op_total
        base = (untraced or {}).get("ops", {}).get(kind, {}).get("median_s")
        head = f"{kind}: traced {traced:.4f} s/op"
        if base:
            head += f", untraced {base:.4f} s/op, tracing overhead {traced / base - 1:+.1%}"
        head += f", layers account for {1 - unaccounted:.1%}"
        lines.append(head)
        per_op = len(roots)
        rows = sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in rows:
            lines.append(
                f"    {name:32s} self {row['self_s'] / per_op:10.5f} s/op"
                f"  calls {row['calls'] / per_op:9.1f}/op"
            )
        tables[kind] = {
            "traced_median_s": traced,
            "untraced_median_s": base,
            "layer_share": 1 - unaccounted,
            "layers_per_op": {
                name: {k: v / per_op for k, v in row.items()} for name, row in rows
            },
        }
    return lines, tables


def check_summary(checks) -> dict:
    """Per check: how often it passed and failed, and its last detail."""
    out: dict[str, dict] = {}
    for name, ok, detail in checks:
        row = out.setdefault(name, {"passed": 0, "failed": 0})
        row["passed" if ok else "failed"] += 1
        row["detail"] = detail
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import bench

    specs = bench.workloads()
    if args.workload not in specs:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(specs)}")
    spec = specs[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{spec.name}-{os.getpid()}"
    result = bench.run_workload(spec, args.seed, args.seconds, work, trace=bool(args.trace))

    failed_checks = [c for c in result["checks"] if not c[1]]
    for name, _, detail in failed_checks:
        print(f"check failed: {name}: {detail}", file=sys.stderr)
    record = {
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": machine_info(),
        "rounds": result["rounds"],
        "timed_s": result["timed_s"],
        "ops": result["ops"],
        "checks": check_summary(result["checks"]),
    }
    if args.trace:
        metrics = per_layer(result)
        untraced_path = OUT / f"{spec.name}.json"
        untraced = json.loads(untraced_path.read_text()) if untraced_path.is_file() else None
        lines, record["operations"] = op_tables(result, untraced)
        print("\n".join(lines))
        tracer = result["tracer"]
        record["spans"] = tracer.spans
        record["counters"] = tracer.counters
        out_path = OUT / f"{spec.name}.trace.json"
    else:
        metrics = end_to_end(result)
        out_path = OUT / f"{spec.name}.json"
    record["metrics"] = metrics
    out_path.write_text(json.dumps(record) + "\n")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:14.4f} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not failed_checks,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if not failed_checks else 1


if __name__ == "__main__":
    sys.exit(main())
