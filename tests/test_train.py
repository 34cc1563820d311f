import os

import numpy as np

from tfctx import config, features, train


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


class TestFeatureCache:
    def test_resynthesized_corpus_not_served_stale(self, tmp_path):
        cfg = micro_config(tmp_path, seed=1)
        train.synth_corpus(cfg, quiet=True)
        rels = train_paths(cfg)
        first = train.load_features(cfg, rels)

        cfg.seed = 2
        train.synth_corpus(cfg, quiet=True)
        got = train.load_features(cfg, rels)
        want = train.load_features(cfg, rels, use_cache=False)
        assert_same_features(got, want)
        assert any(not np.array_equal(first[rel], want[rel]) for rel in rels)

    def test_fbank_settings_not_served_stale(self, tmp_path):
        cfg = micro_config(tmp_path)
        train.synth_corpus(cfg, quiet=True)
        rels = train_paths(cfg)
        train.load_features(cfg, rels)
        for field, value in (("f_min", 100.0), ("f_max", 6000.0), ("log_floor", 1e-3)):
            setattr(cfg.features, field, value)
            assert_same_features(train.load_features(cfg, rels),
                                 train.load_features(cfg, rels, use_cache=False))

    def test_unchanged_wavs_hit_the_cache(self, tmp_path, monkeypatch):
        cfg = micro_config(tmp_path)
        train.synth_corpus(cfg, quiet=True)
        rels = train_paths(cfg)
        want = train.load_features(cfg, rels)

        def no_fbank(*args):
            raise AssertionError("cache missed")

        monkeypatch.setattr(features, "compute_fbank", no_fbank)
        assert_same_features(train.load_features(cfg, rels), want)

    def test_torn_entry_is_a_miss_and_rewritten(self, tmp_path):
        cfg = micro_config(tmp_path)
        train.synth_corpus(cfg, quiet=True)
        rels = train_paths(cfg)
        train.load_features(cfg, rels)
        entry = os.path.join(train._cache_dir(cfg), rels[0] + ".tfd")
        whole = os.path.getsize(entry)
        with open(entry, "r+b") as f:
            f.truncate(whole // 2)  # a write cut short: the fbank's data is partial

        assert_same_features(train.load_features(cfg, rels),
                             train.load_features(cfg, rels, use_cache=False))
        assert os.path.getsize(entry) == whole
        assert not [name for name in os.listdir(os.path.dirname(entry)) if name.endswith(".tmp")]


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
