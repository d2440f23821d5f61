"""Checkpoints, model configs, presets, and dataset manifests.

Tensor files are a pair: a JSON manifest (sorted keys, fixed separators, so
identical models produce identical bytes) and a raw blob of little-endian
float32 values. The manifest records format version, per-tensor name, shape
and byte offset, plus model hyperparameters, training step, and seed.
Distinct failure modes get distinct errors: version mismatch, missing
tensor, shape mismatch, truncated blob.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .conditioner import MelConfig
from .errors import CheckpointError, ValidationError

FORMAT_VERSION = 1


@dataclass
class ModelConfig:
    """Architecture hyperparameters; everything a checkpoint needs to rebuild."""

    height: int = 16
    n_flows: int = 8
    n_layers: int = 8
    residual_channels: int = 64
    kernel_h: int = 3
    kernel_w: int = 3
    sample_rate: int = 22050
    permutation_strategy: str = "auto"  # auto | none | reverse | bipartite_mix
    conditioned: bool = True
    weight_norm: bool = True
    mel: MelConfig = field(default_factory=MelConfig)
    dilations_h: list[int] | None = None  # None = schedule chosen from height

    def __post_init__(self):
        if isinstance(self.mel, dict):
            unknown = set(self.mel) - {f.name for f in fields(MelConfig)}
            if unknown:
                raise ValidationError(f"unknown mel config keys: {sorted(unknown)}")
            self.mel = MelConfig(**self.mel)
        if not isinstance(self.mel, MelConfig):
            raise ValidationError(f"mel must be an object of mel settings, got {self.mel!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and type(value) is not int:  # bool, "4" and 4.0 are not ints
                raise ValidationError(f"{f.name} must be an integer, got {value!r}")
        if self.height < 1 or self.n_flows < 1 or self.n_layers < 1:
            raise ValidationError("height, n_flows, n_layers must be >= 1")
        if self.residual_channels < 1 or self.kernel_h < 1 or self.sample_rate < 1:
            raise ValidationError("residual_channels, kernel_h, sample_rate must be >= 1")
        if self.kernel_w < 1 or self.kernel_w % 2 == 0:  # width taps are centred on the column
            raise ValidationError(f"kernel_w must be odd and >= 1, got {self.kernel_w}")
        if self.permutation_strategy not in ("auto", "none", "reverse", "bipartite_mix"):
            raise ValidationError(
                f"unknown permutation strategy {self.permutation_strategy!r}"
            )
        dil = self.dilations_h
        if dil is not None and not (
            isinstance(dil, list)
            and len(dil) == self.n_layers
            and all(type(d) is int and d >= 1 for d in dil)
        ):
            raise ValidationError(
                f"dilations_h must list one positive integer per layer, got {dil!r}"
            )


def config_from_dict(d: dict) -> ModelConfig:
    """Strict parse: unknown keys are errors, not silently dropped."""
    if not isinstance(d, dict):
        raise ValidationError(f"config is not a JSON object: {d!r}")
    unknown = set(d) - {f.name for f in fields(ModelConfig)}
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    return ModelConfig(**d)


def load_config(path) -> ModelConfig:
    try:
        d = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ValidationError(f"config is not valid JSON: {e}")
    return config_from_dict(d)


def preset_names() -> list[str]:
    root = resources.files("gridflow") / "presets"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_preset(name: str) -> ModelConfig:
    root = resources.files("gridflow") / "presets"
    path = root / f"{name}.json"
    if not path.is_file():
        raise ValidationError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    return config_from_dict(json.loads(path.read_text()))


def resolve_config(spec: str) -> ModelConfig:
    """Accept either a preset name or a path to a JSON config."""
    if Path(spec).is_file():
        return load_config(spec)
    return load_preset(spec)


# ---------------------------------------------------------------------------
# tensor files


def save_tensors(base_path, tensors: dict[str, np.ndarray], extra: dict | None = None):
    """Write <base>.manifest.json and <base>.blob (little-endian float32)."""
    base = Path(base_path)
    base.parent.mkdir(parents=True, exist_ok=True)
    entries = []
    chunks = []
    offset = 0
    for name in sorted(tensors):
        src = np.asarray(tensors[name])
        arr = np.ascontiguousarray(src, dtype="<f4")
        # ascontiguousarray promotes 0-d to 1-d; the manifest keeps the real shape
        entries.append({"name": name, "shape": list(src.shape), "offset": offset})
        chunks.append(arr.tobytes())
        offset += arr.nbytes
    manifest = dict(extra or {})
    manifest["format_version"] = FORMAT_VERSION
    manifest["tensors"] = entries
    Path(str(base) + ".manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
    )
    Path(str(base) + ".blob").write_bytes(b"".join(chunks))


def load_tensors(base_path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a tensor file pair back; returns (tensors, manifest)."""
    base = Path(base_path)
    man_path = Path(str(base) + ".manifest.json")
    blob_path = Path(str(base) + ".blob")
    if not man_path.is_file():
        raise CheckpointError(f"missing manifest: {man_path}")
    if not blob_path.is_file():
        raise CheckpointError(f"missing blob: {blob_path}")
    try:
        manifest = json.loads(man_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise CheckpointError(f"manifest is not valid JSON: {e}")
    if not isinstance(manifest, dict) or not isinstance(manifest.get("tensors"), list):
        raise CheckpointError(f"manifest is not an object with a 'tensors' list: {man_path}")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"format version mismatch: file has {version!r}, engine reads {FORMAT_VERSION}"
        )
    blob = blob_path.read_bytes()
    tensors = {}
    for entry in manifest["tensors"]:
        if not _is_tensor_entry(entry):
            raise CheckpointError(f"malformed tensor entry in {man_path}: {entry!r}")
        name, shape, offset = entry["name"], entry["shape"], entry["offset"]
        count = int(np.prod(shape)) if shape else 1
        end = offset + 4 * count
        if end > len(blob):
            raise CheckpointError(
                f"blob truncated: tensor {name!r} needs bytes up to {end}, "
                f"blob has {len(blob)}"
            )
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        tensors[name] = arr.reshape(shape).copy()
    return tensors, manifest


def _is_tensor_entry(entry) -> bool:
    """A {"name": str, "shape": [int >= 0, ...], "offset": int >= 0} manifest entry."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        return False
    shape, offset = entry.get("shape"), entry.get("offset")
    dims_ok = isinstance(shape, list) and all(isinstance(n, int) and n >= 0 for n in shape)
    return dims_ok and isinstance(offset, int) and offset >= 0


# ---------------------------------------------------------------------------
# dataset manifests


@dataclass
class DatasetEntry:
    path: str
    duration: float


def read_dataset_manifest(path) -> list[DatasetEntry]:
    """NDJSON, one {"path": ..., "duration": ...} per line; paths relative to the manifest."""
    man = Path(path)
    if not man.is_file():
        raise ValidationError(f"dataset manifest not found: {man}")
    try:
        lines = man.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise ValidationError(f"dataset manifest is not UTF-8 text: {e}")
    entries = []
    for ln, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
        except json.JSONDecodeError as e:
            raise ValidationError(f"manifest line {ln} is not valid JSON: {e}")
        duration = d.get("duration") if isinstance(d, dict) else None
        finite = type(duration) in (int, float) and math.isfinite(duration)
        if not finite or not isinstance(d.get("path"), str):
            raise ValidationError(
                f"manifest line {ln} needs a string 'path' and a finite number 'duration'"
            )
        wav_path = Path(d["path"])
        if not wav_path.is_absolute():
            wav_path = man.parent / wav_path
        entries.append(DatasetEntry(path=str(wav_path), duration=float(duration)))
    if not entries:
        raise ValidationError(f"dataset manifest is empty: {man}")
    return entries


def write_dataset_manifest(path, entries: list[DatasetEntry]) -> None:
    lines = [
        json.dumps({"path": e.path, "duration": e.duration}, sort_keys=True)
        for e in entries
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def config_to_dict(config: ModelConfig) -> dict:
    return asdict(config)
