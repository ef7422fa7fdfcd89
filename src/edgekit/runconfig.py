"""Line-oriented key=value run configuration with a strict schema.

Every key has the default and type of the ModelConfig or TrainConfig field it
sets; unknown keys are rejected so typos fail loudly. `#` starts a comment,
blank lines are ignored.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .model import ModelConfig, _parse, _render
from .train import TrainConfig

# key -> description, in the order `edgekit config` prints them
SCHEMA: dict[str, str] = {
    "input_size": "square side of the native input and training crops",
    "embed_dim": "token embedding width of both encoders",
    "heads": "attention heads per block",
    "head_dim": "per-head query/key/value width",
    "mlp_ratio": "transformer MLP hidden width / embed_dim",
    "global_taps": "tapped block indices, coarse stage; the last is its depth",
    "local_taps": "tapped block indices, fine stage; the last is its depth",
    "path_channels": "decoder aggregation-path width",
    "smooth_channels": "decoder output feature width",
    "side_channels": "width inside auxiliary side heads",
    "window_divisor": "fine stage window grid divisor",
    "eta": "annotator consensus threshold",
    "lambda": "side-output loss weight",
    "lr": "base learning rate (polynomial decay)",
    "lr_power": "polynomial decay exponent",
    "momentum": "SGD momentum",
    "weight_decay": "L2 weight decay folded into the velocity",
    "iterations": "iterations per training stage",
    "batch_size": "training batch size",
    "seed": "seed for weights, batches, and augmentation",
    "flip": "random horizontal flips during training",
    "ignore_band": "exclude sub-threshold annotator pixels from the loss",
    "data_dir": "dataset directory (images/ + gt/)",
    "out_dir": "output directory for checkpoints and CSVs",
}

# keys not named like their one field; the first gives the default
FIELDS: dict[str, tuple[str, ...]] = {
    "input_size": ("crop", "input_hw"),
    "lambda": ("lam",),
    "lr": ("base_lr",),
    "iterations": ("iterations_stage1", "iterations_stage2"),
    "ignore_band": ("use_ignore_band",),
}

PATHS = {"data_dir": "data", "out_dir": "runs"}  # the keys that set no field


@dataclass
class RunConfig:
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    @staticmethod
    def defaults() -> "RunConfig":
        known = {**asdict(ModelConfig()), **asdict(TrainConfig()), **PATHS}
        return RunConfig({key: known[FIELDS.get(key, (key,))[0]] for key in SCHEMA})

    @staticmethod
    def parse(text: str) -> "RunConfig":
        values = RunConfig.defaults().values
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
            try:
                values[key] = _parse(value, values[key])
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
        return RunConfig(values)

    @staticmethod
    def load(path) -> "RunConfig":
        return RunConfig.parse(Path(path).read_text())

    def _config(self, cls):  # `input_hw` is the square of `input_size`
        names = {f.name for f in fields(cls)}
        kwargs = {name: (value, value) if name == "input_hw" else value
                  for key, value in self.values.items()
                  for name in FIELDS.get(key, (key,)) if name in names}
        return cls(**kwargs)

    def model_config(self) -> ModelConfig:
        return self._config(ModelConfig)

    def train_config(self) -> TrainConfig:
        return self._config(TrainConfig)


def default_config_text() -> str:
    """All keys with defaults and help comments, ready to edit."""
    run = RunConfig.defaults()
    return "".join(f"{key}={_render(run[key])}  # {text}\n" for key, text in SCHEMA.items())
