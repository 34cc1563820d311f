import dataclasses
import hashlib
import itertools
import os

import numpy as np
import pytest

from tfctx import backbone, blocks, config, features, losses, train
from tfctx.tensor import Tensor


def micro_config(tmp_path, seed=11):
    cfg = config.RunConfig()
    cfg.seed = seed
    cfg.out_dir = str(tmp_path / "run")
    cfg.data.data_dir = str(tmp_path / "data")
    cfg.data.num_speakers = 3
    cfg.data.utts_per_speaker = 4
    cfg.data.eval_utts_per_speaker = 2
    cfg.data.duration_s = 0.6
    cfg.data.num_trials = 2
    cfg.features.chunk = 40
    cfg.train.epochs = 1
    cfg.train.speakers_per_batch = 3
    cfg.model.stage_channels = [2, 2, 4, 4]
    cfg.model.blocks_per_stage = [1, 1, 1, 1]
    cfg.model.embed_dim = 8
    cfg.model.asp_hidden = 4
    cfg.model.block.kind = "se"
    cfg.model.block.reduction = 2
    return config.validate(cfg)


def train_paths(cfg):
    with open(os.path.join(cfg.data.data_dir, train.TRAIN_MANIFEST)) as f:
        return [line.split()[1] for line in f if line.strip()]


def assert_same_features(got, want):
    assert got.keys() == want.keys()
    for rel in want:
        np.testing.assert_array_equal(got[rel], want[rel])


def fbanks_of(cfg, rels):
    """The features of each path, from compute_fbank without load_features."""
    fb_cfg = train.fbank_config(cfg)
    return {rel: features.mean_normalize(features.compute_fbank(
        features.read_wav(os.path.join(cfg.data.data_dir, rel)), fb_cfg)) for rel in rels}


class TestFeatureCache:
    """Features follow the current wavs and filterbank settings (named for
    the on-disk fbank cache these checks once guarded)."""

    def test_resynthesized_corpus_not_served_stale(self, tmp_path):
        cfg = micro_config(tmp_path, seed=1)
        train.synth_corpus(cfg, quiet=True)
        rels = train_paths(cfg)
        first = train.load_features(cfg, rels)

        cfg.seed = 2
        train.synth_corpus(cfg, quiet=True)
        want = fbanks_of(cfg, rels)
        assert_same_features(train.load_features(cfg, rels), want)
        assert any(not np.array_equal(first[rel], want[rel]) for rel in rels)

    def test_fbank_settings_not_served_stale(self, tmp_path):
        cfg = micro_config(tmp_path)
        train.synth_corpus(cfg, quiet=True)
        rels = train_paths(cfg)
        first = train.load_features(cfg, rels)
        for field, value in (("f_min", 100.0), ("f_max", 6000.0), ("log_floor", 1e-3)):
            setattr(cfg.features, field, value)
            got = train.load_features(cfg, rels)
            assert_same_features(got, fbanks_of(cfg, rels))
            assert any(not np.array_equal(first[rel], got[rel]) for rel in rels)
            first = got


class TestTrainLog:
    def test_rerun_replaces_log(self, tmp_path):
        cfg = micro_config(tmp_path)
        train.synth_corpus(cfg, quiet=True)
        log_path = os.path.join(cfg.out_dir, "train.log")

        cfg.train.epochs = 2
        train.train_run(cfg, cfg.out_dir, quiet=True)
        cfg.train.epochs = 1
        train.train_run(cfg, cfg.out_dir, quiet=True)
        fresh_dir = str(tmp_path / "fresh")
        train.train_run(cfg, fresh_dir, quiet=True)

        with open(log_path) as f:
            rerun = f.read()
        with open(os.path.join(fresh_dir, "train.log")) as f:
            fresh = f.read()
        assert rerun and rerun == fresh


# per BlockSection field: (settings under which the field is read, another
# valid value); the base is the tiny model below with a DCT-GCM block
LIVE_KNOBS = {
    "kind": ({}, "att_gcm"),
    "tfe": ({}, True),
    "transform": ({}, "conv1d"),
    "reduction": ({"transform": "fc"}, 4),
    "attention_hidden_ratio": ({"kind": "att_gcm"}, 0.5),
    "dct_components": ({"kind": "dct_gcm"}, 3),
    "tfe_groups": ({"tfe": True}, 4),
    "insertion": ({}, "before_bn"),
    "stages": ({}, "last"),
}


class TestEveryBlockKnobIsLive:
    """Changing any block field, where it is read, changes the model: its
    parameter shapes or its eval embedding of a fixed input."""

    @staticmethod
    def fingerprint(block_settings):
        cfg = config.RunConfig()
        cfg.features.n_mels = 16
        cfg.model.stage_channels = [4, 4, 8, 8]
        cfg.model.blocks_per_stage = [1, 1, 1, 1]
        cfg.model.embed_dim = 8
        cfg.model.asp_hidden = 4
        cfg.model.block.kind = "dct_gcm"
        cfg.model.block.reduction = 2
        cfg.model.block.tfe_groups = 2
        for name, value in block_settings.items():
            setattr(cfg.model.block, name, value)
        embedder = train.build_embedder(config.validate(cfg), np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(2, 1, 16, 12)))
        shapes = [(name, p.shape) for name, p in embedder.named_parameters()]
        return shapes, embedder.embed(x).data

    def test_every_field_listed(self):
        assert set(LIVE_KNOBS) == {f.name for f in dataclasses.fields(config.BlockSection)}

    @pytest.mark.parametrize("field", LIVE_KNOBS)
    def test_changes_the_model(self, field):
        base, value = LIVE_KNOBS[field]
        shapes, emb = self.fingerprint(base)
        new_shapes, new_emb = self.fingerprint({**base, field: value})
        assert new_shapes != shapes or not np.array_equal(new_emb, emb)


def layout_digest(embedder) -> str:
    """sha256 of the (name, shape) list a checkpoint of this embedder holds,
    in file order."""
    layout = [(name, p.shape) for name, p in embedder.named_parameters()]
    layout += [(name, a.shape) for name, a in embedder.named_state()]
    return hashlib.sha256(repr(layout).encode()).hexdigest()


# digests of the layouts of the 60 toy settings below (the defaults with each
# toy variant, insertion, stage set and transform) and of the full-scale config
TOY_LAYOUTS_SHA256 = "b804ea70f237fa7fac51a111a55f5dbeb8693d2e9fdf0da589f8cf389434d6e4"
FULL_SCALE_LAYOUT_SHA256 = "f2ef486a5cf94a68d0d746b5612bf4c4853f933f2b05c94b27027007c482a9c7"


class TestCheckpointLayout:
    """Checkpoint entry names, order and shapes are pinned: a renamed,
    reordered, added or dropped entry changes every checkpoint's bytes and
    breaks loading older files."""

    def test_toy_presets(self):
        digest = hashlib.sha256()
        for variant, insertion, stages, transform in itertools.product(
                sorted(config.TOY_VARIANTS), backbone.INSERTION_POSITIONS, backbone.GCM_STAGES,
                blocks.GcmBlock.TRANSFORMS):
            cfg = config.RunConfig()
            block = cfg.model.block
            block.kind, block.tfe = config.TOY_VARIANTS[variant]
            block.insertion, block.stages, block.transform = insertion, stages, transform
            embedder = train.build_embedder(config.validate(cfg), np.random.default_rng(0))
            digest.update(layout_digest(embedder).encode())
        assert digest.hexdigest() == TOY_LAYOUTS_SHA256

    def test_full_scale(self):
        cfg = config.load(os.path.join(os.path.dirname(os.path.dirname(__file__)),
                                       "configs", "full_scale.json"))
        embedder = train.build_embedder(cfg, np.random.default_rng(0))
        assert layout_digest(embedder) == FULL_SCALE_LAYOUT_SHA256

    def test_training_heads(self):
        head = losses.ClassifierHead(3, 8, np.random.default_rng(0))
        assert [n for n, _ in head.named_parameters()] == ["head.weight", "head.bias"]
        assert [n for n, _ in losses.ProtoParams().named_parameters()] == ["proto.scale",
                                                                           "proto.bias"]


class TestDctGridFromNetwork:
    """A DCT block's grid is the extent of the last stage's map for a
    ``chunk``-frame input."""

    @pytest.mark.parametrize("name,grid", [("toy.json", (4, 13)), ("full_scale.json", (8, 25))])
    def test_shipped_configs(self, monkeypatch, name, grid):
        cfg = config.load(os.path.join(os.path.dirname(os.path.dirname(__file__)),
                                       "configs", name))
        embedder = train.build_embedder(cfg, np.random.default_rng(0))
        contexts = [block.gcm.context for stage in embedder.stages for block in stage]
        assert {(c.big_f, c.big_t) for c in contexts} == {grid}
        seen = []
        call = blocks.GcmBlock.__call__
        monkeypatch.setattr(blocks.GcmBlock, "__call__",
                            lambda block, m: seen.append(m.shape[2:]) or call(block, m))
        x = np.random.default_rng(1).normal(size=(1, 1, cfg.features.n_mels, cfg.features.chunk))
        embedder.embed(Tensor(x))
        assert seen[-1] == grid


class TestRandomCrop:
    def test_default_utterance_is_longer_than_the_chunk(self):
        # a shorter utterance is tiled, so chunk_frames(..., "random") would never crop
        cfg = config.RunConfig()
        samples = features.synth_utterance(features.make_speaker_spec(0, cfg.seed), 0, cfg.seed,
                                           cfg.data.duration_s, cfg.features.sample_rate)
        fbank = features.compute_fbank(features.Waveform(samples, cfg.features.sample_rate),
                                       train.fbank_config(cfg))
        assert fbank.shape[1] > cfg.features.chunk
