"""Run configuration: one strict JSON document holding every knob.

Unknown keys are rejected at every nesting level so an ablation typo fails
loudly instead of silently running the default. Defaults are the toy-scale
operating point (CPU training in minutes); the full-scale architecture
(channels 32-256, ResNet34 block counts, 512-dim embeddings, reduction 16)
stays expressible through the same document.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from dataclasses import dataclass, field

from .backbone import GCM_STAGES, INSERTION_POSITIONS
from .blocks import GcmBlock
from .errors import ConfigError
from .features import FbankConfig
from .optim import lr_schedule

@dataclass
class FeatureSection(FbankConfig):
    """The filterbank settings, checked as they are built, and the frames
    per training and scoring chunk."""

    chunk: int = 200


@dataclass
class DataSection:
    data_dir: str = "data"
    num_speakers: int = 20
    utts_per_speaker: int = 50
    eval_utts_per_speaker: int = 10
    duration_s: float = 2.1  # 208 frames: training crops the 200-frame chunk at random
    num_trials: int = 400


@dataclass
class BlockSection:
    kind: str = "dct_gcm"  # none | se | att_gcm | dct_gcm
    tfe: bool = False
    transform: str = "fc"  # fc | conv1d
    reduction: int = 4  # full-scale runs use 16
    attention_hidden_ratio: float = 0.125
    dct_components: int = 2
    tfe_groups: int = 8
    insertion: str = "after_bn"  # after_bn | before_bn | before_conv
    stages: str = "all"  # all | last


@dataclass
class ModelSection:
    stage_channels: list = field(default_factory=lambda: [8, 16, 32, 64])
    blocks_per_stage: list = field(default_factory=lambda: [2, 2, 2, 2])
    stage_strides: list = field(default_factory=lambda: [2, 2, 2, 1])
    stem_stride: list = field(default_factory=lambda: [2, 2])
    embed_dim: int = 128
    asp_hidden: int = 64
    block: BlockSection = field(default_factory=BlockSection)


@dataclass
class TrainSection:
    epochs: int = 4
    speakers_per_batch: int = 20  # full-scale runs use 16
    utts_per_speaker_batch: int = 2
    base_lr: float = 2e-3
    warmup_epochs: int = 1


@dataclass
class RunConfig:
    seed: int = 7
    out_dir: str = "runs/default"
    features: FeatureSection = field(default_factory=FeatureSection)
    data: DataSection = field(default_factory=DataSection)
    model: ModelSection = field(default_factory=ModelSection)
    train: TrainSection = field(default_factory=TrainSection)


_JSON_TYPES = {bool: "boolean", int: "integer", float: "number", str: "string",
               list: "array", dict: "object", type(None): "null"}


def _build(cls, doc: dict, where: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected an object, got {type(doc).__name__}")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}; known keys: {sorted(known)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for name, value in doc.items():
        if dataclasses.is_dataclass(hints[name]):
            kwargs[name] = _build(hints[name], value, f"{where}.{name}")
            continue
        # the field's declared type: a bool is no number, an integer is a
        # valid float, and null is allowed only where the default is None
        declared = typing.get_args(hints[name]) or (hints[name],)
        allowed = declared + (int,) if float in declared else declared
        if isinstance(value, bool) != (bool in allowed) or not isinstance(value, allowed):
            raise ConfigError(f"{where}.{name}: expected "
                              f"{' or '.join(_JSON_TYPES[t] for t in declared)}, "
                              f"got {_JSON_TYPES.get(type(value), type(value).__name__)}")
        kwargs[name] = value
    # a section may check its values as it is built (FeatureSection does)
    try:
        return cls(**kwargs)
    except (ArithmeticError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


_VALID = {
    "model.block.kind": ("none", *GcmBlock.CONTEXT_KINDS),
    "model.block.transform": GcmBlock.TRANSFORMS,
    "model.block.insertion": INSERTION_POSITIONS,
    "model.block.stages": GCM_STAGES,
}


def validate(cfg: RunConfig) -> RunConfig:
    for key, allowed in _VALID.items():
        value = functools.reduce(getattr, key.split("."), cfg)
        if value not in allowed:
            raise ConfigError(f"{key}: {value!r} not in {allowed}")
    if not (len(cfg.model.stage_channels) == len(cfg.model.blocks_per_stage)
            == len(cfg.model.stage_strides)):
        raise ConfigError("model: stage_channels, blocks_per_stage and stage_strides must align")
    if len(cfg.model.stem_stride) != 2:
        raise ConfigError("model.stem_stride must have two entries")
    tr = cfg.train
    # a batch needs two speakers with two utterances each, for the prototypical
    # loss; each test is written so that NaN fails it
    for name, ok, wanted in (
            ("epochs", tr.epochs >= 1, "at least 1"),
            ("speakers_per_batch", tr.speakers_per_batch >= 2, "at least 2"),
            ("utts_per_speaker_batch", tr.utts_per_speaker_batch >= 2, "at least 2"),
            ("base_lr", 0 < tr.base_lr < math.inf, "positive and finite"),
            ("warmup_epochs", tr.warmup_epochs >= 0, "non-negative")):
        if not ok:
            raise ConfigError(f"train.{name} must be {wanted}, got {getattr(tr, name)!r}")
    # the rate's extremes: the first and last epochs' (the lowest; a tiny base_lr
    # rounds them to 0) and the warm-up's end (base_lr * warmup_epochs)
    extremes = {0, min(tr.warmup_epochs, tr.epochs) - 1, tr.epochs - 1} - {-1}
    if not all(0 < lr_schedule(epoch, tr) < math.inf for epoch in extremes):
        raise ConfigError("train: the learning rate is 0 or infinite within train.epochs")
    if cfg.features.chunk < 1:
        raise ConfigError("features.chunk must be positive")
    d = cfg.data
    if d.num_speakers < 1 or d.utts_per_speaker < 1 or not d.duration_s > 0:
        raise ConfigError("data.num_speakers, data.utts_per_speaker and data.duration_s must be positive")
    # a trial list needs a target and a nontarget trial, and a target trial two
    # held-out utterances of one speaker
    if d.num_trials < 2 or d.eval_utts_per_speaker < 2:
        raise ConfigError("data.num_trials and data.eval_utts_per_speaker must be at least 2")
    if cfg.seed < 0:
        raise ConfigError("seed must be non-negative")
    return cfg


def from_dict(doc: dict) -> RunConfig:
    return validate(_build(RunConfig, doc, "config"))


def to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def load(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text ({exc.reason})") from None
    return from_dict(doc)


# block variant name -> (model.block.kind, model.block.tfe)
TOY_VARIANTS = {
    "se": ("se", False),
    "att_gcm": ("att_gcm", False),
    "att_gcm_tfe": ("att_gcm", True),
    "dct_gcm": ("dct_gcm", False),
    "dct_gcm_tfe": ("dct_gcm", True),
}
