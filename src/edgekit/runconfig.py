"""Line-oriented key=value run configuration with a strict schema.

Every key has a documented default; unknown keys are rejected so typos fail
loudly. `#` starts a comment, blank lines are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .model import ModelConfig
from .train import TrainConfig


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {s!r}")


def _parse_ints(s: str) -> tuple[int, ...]:
    return tuple(int(v) for v in s.split(","))


# key -> (parser, default, description)
SCHEMA: dict[str, tuple] = {
    "input_size": (int, 64, "square side of the native input and training crops"),
    "embed_dim": (int, 64, "token embedding width of both encoders"),
    "heads": (int, 8, "attention heads per block"),
    "head_dim": (int, 8, "per-head query/key/value width"),
    "mlp_ratio": (int, 4, "transformer MLP hidden width / embed_dim"),
    "global_taps": (_parse_ints, (2, 4, 6, 8),
                    "tapped block indices, coarse stage; the last is its depth"),
    "local_taps": (_parse_ints, (1, 2, 3, 4),
                   "tapped block indices, fine stage; the last is its depth"),
    "path_channels": (int, 16, "decoder aggregation-path width"),
    "smooth_channels": (int, 16, "decoder output feature width"),
    "side_channels": (int, 4, "width inside auxiliary side heads"),
    "window_divisor": (int, 2, "fine stage window grid divisor"),
    "eta": (float, 0.3, "annotator consensus threshold"),
    "lambda": (float, 0.4, "side-output loss weight"),
    "lr": (float, 5e-4, "base learning rate (polynomial decay)"),
    "lr_power": (float, 0.9, "polynomial decay exponent"),
    "momentum": (float, 0.9, "SGD momentum"),
    "weight_decay": (float, 2e-4, "L2 weight decay folded into the velocity"),
    "iterations": (int, 600, "iterations per training stage"),
    "batch_size": (int, 2, "training batch size"),
    "seed": (int, 0, "seed for weights, batches, and augmentation"),
    "flip": (_parse_bool, True, "random horizontal flips during training"),
    "ignore_band": (_parse_bool, False,
                    "exclude sub-threshold annotator pixels from the loss"),
    "data_dir": (str, "data", "dataset directory (images/ + gt/)"),
    "out_dir": (str, "runs", "output directory for checkpoints and CSVs"),
}


@dataclass
class RunConfig:
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    @staticmethod
    def defaults() -> "RunConfig":
        return RunConfig({k: v for k, (_, v, _) in SCHEMA.items()})

    @staticmethod
    def parse(text: str) -> "RunConfig":
        values = {k: v for k, (_, v, _) in SCHEMA.items()}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep:
                raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
            if key not in SCHEMA:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            parser = SCHEMA[key][0]
            try:
                values[key] = parser(value)
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
        return RunConfig(values)

    @staticmethod
    def load(path) -> "RunConfig":
        return RunConfig.parse(Path(path).read_text())

    def model_config(self) -> ModelConfig:
        """The model keys, each named like its field but ``input_size``
        (a square ``input_hw``)."""
        v = self.values
        same = {f.name: v[f.name] for f in fields(ModelConfig) if f.name in v}
        return ModelConfig(input_hw=(v["input_size"], v["input_size"]), **same)

    def train_config(self) -> TrainConfig:
        v = self.values
        return TrainConfig(eta=v["eta"], lam=v["lambda"], base_lr=v["lr"],
                           iterations_stage1=v["iterations"],
                           iterations_stage2=v["iterations"],
                           batch_size=v["batch_size"], crop=v["input_size"],
                           seed=v["seed"], flip=v["flip"],
                           use_ignore_band=v["ignore_band"],
                           momentum=v["momentum"],
                           weight_decay=v["weight_decay"],
                           lr_power=v["lr_power"])


def default_config_text() -> str:
    """All keys with defaults and help comments, ready to edit."""
    lines = []
    for key, (_, default, help_text) in SCHEMA.items():
        if isinstance(default, tuple):
            default = ",".join(str(x) for x in default)
        elif isinstance(default, bool):
            default = "true" if default else "false"
        lines.append(f"{key}={default}  # {help_text}")
    return "\n".join(lines) + "\n"
