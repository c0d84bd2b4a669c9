"""Run configuration: INI-style file, overridable by command-line flags.

Each key is declared once, with its type, default and checks, by the
dataclass that owns it. ``[model]`` keys are the fields of `ModelConfig`
except ``input_dim`` (from the features) and ``seed`` (from ``[run]``); the
field ``hidden_dim`` names its key ``hidden`` in its metadata. ``[training]``
keys are the fields of `TrainConfig` except ``seed``. Every other section's
keys are the `RunConfig` fields tagged with it. So the published
hyperparameters are written only as `ModelConfig` and `TrainConfig`
defaults. What the paper fixes is not a key: the encoder activation (relu),
meta-path attention's mean over drugs, and the meta-path neighbors (drugs
that share a path instance, cut to top-k PathSim). File values and
command-line overrides are parsed by field type; a bad section, key or
value raises `ConfigError` naming the file and the key.

Relative paths in a config file resolve against the file's directory; a
path given as a command-line override (``--out``) resolves against the
working directory. ``RunConfig.echo`` writes each path relative to the
config file's directory, as a POSIX string, so the echo that enters
checkpoints and ``summary.json`` is the same wherever the run directory
lies. A config not read from a file echoes its paths unchanged.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import MISSING, Field, dataclass, field, fields
from pathlib import Path

import numpy as np

from .autodiff import ParameterError
from .data import SplitError, check_drug_fraction, check_ratios
from .metapath import builtin_spec_names
from .model import ModelConfig
from .pipeline import InputPaths
from .train import TrainConfig

__all__ = ["RunConfig", "ConfigError"]


class ConfigError(Exception):
    pass


def _key(section: str, default=None, choices: tuple[str, ...] = ()):
    """A `RunConfig` field that config files set as ``[section] <name>``."""
    return field(default=default, metadata={"section": section, "choices": choices})


def _split(raw: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in raw.split(",") if s.strip())


# annotated field type -> parser of the string a file or a flag gives
_PARSE = {
    "int": int, "float": float, "str": str, "Path": Path, "Path | None": Path,
    "tuple[str, ...]": _split,
    "tuple[float, float, float]": lambda raw: tuple(float(s) for s in _split(raw)),
}

# sections whose keys are another dataclass's fields, less those set elsewhere
_OWNED = {"model": (ModelConfig, ("input_dim", "seed")),
          "training": (TrainConfig, ("seed",))}


@dataclass
class RunConfig:
    drug_protein: Path | None = _key("data")
    drug_side_effect: Path | None = _key("data")
    ppi: Path | None = _key("data")
    fingerprints: Path | None = _key("data")
    smiles: Path | None = _key("data")
    ddi: Path | None = _key("data")
    out_dir: Path = _key("output", Path("out"))
    feature_mode: str = _key("features", "espf", ("espf", "fingerprint"))
    espf_threshold: int = _key("features", 5)
    espf_max_size: int = _key("features", 512)
    metapaths: tuple[str, ...] = _key("metapaths", tuple(builtin_spec_names()))
    # ModelConfig and TrainConfig values set by the config file, by field name
    model: dict = field(default_factory=dict, metadata={"section": "model"})
    training: dict = field(default_factory=dict, metadata={"section": "training"})
    protocol: str = _key("split", "edges", ("edges", "coldstart"))
    ratios: tuple[float, float, float] = _key("split", (0.8, 0.1, 0.1))
    drug_fraction: float = _key("split", 0.2)
    seed: int = _key("run", 0)
    precision: str = _key("run", "32", ("32", "64"))
    # directory of the config file, the base that echo() writes paths against
    config_dir: Path | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        # no default section: its keys would turn up in every section
        parser = configparser.ConfigParser(default_section="")
        cfg = cls(config_dir=path.parent)
        try:
            parser.read(str(path), encoding="utf-8")  # str: errors quote the name
            for section in parser.sections():
                if section not in _SECTIONS:
                    raise ConfigError(f"unknown section [{section}]")
                for key in parser[section]:
                    f = _SECTIONS[section].get(key)
                    if f is None:
                        raise ConfigError(f"unknown key [{section}] {key}")
                    try:
                        value = _PARSE[f.type](parser[section][key])
                    except (configparser.Error, ValueError) as err:
                        raise ConfigError(f"[{section}] {key}: {err}") from None
                    if isinstance(value, Path):  # an absolute path stays as is
                        value = path.parent / value
                    cfg._values(section)[f.name] = value
            cfg.validate()
        except configparser.Error as err:  # from read(): names the file, may span lines
            raise ConfigError(" ".join(str(err).split())) from None
        except (ConfigError, UnicodeDecodeError) as err:
            raise ConfigError(f"{path}: {err}") from None
        return cfg

    def _values(self, section: str) -> dict:
        """Where a section's values live, by field name."""
        return getattr(self, section) if section in _OWNED else vars(self)

    def apply_overrides(self, **overrides) -> None:
        """Set fields from command-line strings; None leaves a field as is."""
        by_name = {f.name: f for f in fields(self)}
        for key, value in overrides.items():
            if value is not None:
                setattr(self, key, _PARSE[by_name[key].type](str(value)))
        self.validate()

    def validate(self) -> None:
        for f in fields(self):
            value, choices = getattr(self, f.name), f.metadata.get("choices")
            if choices and value not in choices:
                raise ConfigError(f"[{f.metadata['section']}] {f.name} must be "
                                  f"one of {', '.join(choices)}; got {value!r}")
        known = set(builtin_spec_names())
        for k, mp in enumerate(self.metapaths):
            if mp not in known:
                raise ConfigError(f"unknown meta-path {mp!r}; known: {sorted(known)}")
            if mp in self.metapaths[:k]:
                raise ConfigError(f"[metapaths] metapaths names {mp!r} twice")
        if not self.metapaths:
            raise ConfigError("at least one meta-path is required")
        # input_dim comes from the features; any valid value checks the rest
        for section, check in (("model", lambda: self.model_config(input_dim=1)),
                               ("training", self.train_config),
                               ("split", lambda: check_ratios(self.ratios)),
                               ("split", lambda: check_drug_fraction(self.drug_fraction))):
            try:
                check()
            except (ParameterError, SplitError) as err:
                raise ConfigError(f"[{section}] {err}") from None

    # ---- derived views

    @property
    def dtype(self):
        return np.float32 if self.precision == "32" else np.float64

    @property
    def graph_dir(self) -> Path:
        return self.out_dir / "graph"

    @property
    def features_file(self) -> Path:
        return self.out_dir / "features.tsv"

    @property
    def vocab_file(self) -> Path:
        return self.out_dir / "vocab.tsv"

    def input_paths(self) -> InputPaths:
        missing = [f.name for f in fields(InputPaths)
                   if f.default is MISSING and getattr(self, f.name) is None]
        if missing:
            raise ConfigError(f"config lacks [data] paths: {missing}")
        return InputPaths(**{f.name: getattr(self, f.name) for f in fields(InputPaths)})

    def model_config(self, input_dim: int) -> ModelConfig:
        return ModelConfig(input_dim=input_dim, seed=self.seed, **self.model)

    def train_config(self) -> TrainConfig:
        return TrainConfig(seed=self.seed, **self.training)

    def echo(self) -> dict[str, str]:
        """Flat section.key -> value view for manifests and checkpoints; paths
        relative to the config file's directory (``../...`` outside it)."""
        out = {}
        for section, keys in _SECTIONS.items():
            values = self._values(section)
            for key, f in keys.items():
                value = values.get(f.name, f.default)
                if value is None:
                    continue
                if isinstance(value, tuple):
                    value = ",".join(str(v) for v in value)
                elif isinstance(value, Path):
                    if self.config_dir is not None:
                        value = os.path.relpath(value, self.config_dir)
                    value = Path(value).as_posix()
                out[f"{section}.{key}"] = str(value)
        return out


def _sections() -> dict[str, dict[str, Field]]:
    """section -> key -> the dataclass field behind it, in file order."""
    out: dict[str, dict[str, Field]] = {}
    for f in fields(RunConfig):
        section = f.metadata.get("section")
        if section in _OWNED:
            owner, elsewhere = _OWNED[section]
            out[section] = {g.metadata.get("key", g.name): g for g in fields(owner)
                            if g.name not in elsewhere}
        elif section:
            out.setdefault(section, {})[f.name] = f
    return out


_SECTIONS = _sections()
