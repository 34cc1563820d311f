import contextlib
import hashlib
import io
import json
import math
import os
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfctx import backbone, cli, config, dct, features, metrics, optim, train
from tfctx import tensor as T
from tfctx.errors import ConfigError, DataError, NumericalError

from oracles import basis_weight, forge_checkpoint


def micro_doc(root, **train_overrides):
    return {
        "seed": 11,
        "out_dir": str(root / "run"),
        "data": {"data_dir": str(root / "data"), "num_speakers": 3,
                 "utts_per_speaker": 4, "eval_utts_per_speaker": 3,
                 "duration_s": 0.6, "num_trials": 10},
        "features": {"chunk": 40},
        "model": {"stage_channels": [2, 2, 4, 4], "blocks_per_stage": [1, 1, 1, 1],
                  "embed_dim": 8, "asp_hidden": 4,
                  "block": {"kind": "dct_gcm", "reduction": 2, "tfe_groups": 2}},
        "train": {"epochs": 1, "speakers_per_batch": 3, **train_overrides},
    }


def micro_config(tmp_path, **train_overrides):
    tmp_path.mkdir(parents=True, exist_ok=True)
    doc = micro_doc(tmp_path, **train_overrides)
    path = str(tmp_path / "config.json")
    with open(path, "w") as f:
        json.dump(doc, f)
    return path, doc


MICRO_DOC = micro_doc(pathlib.Path("unused"))


def _field_paths(doc, prefix=()):
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


# every section and field of the full micro config, defaults included
FIELD_PATHS = list(_field_paths(config.to_dict(config.from_dict(MICRO_DOC))))
NUMBERS = st.integers(-3, 64) | st.floats(-100, 100, allow_nan=False)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=2),
    max_leaves=6) | st.lists(st.integers(-3, 64), min_size=2, max_size=4)


class TestConfig:
    def test_round_trip_identical(self, tmp_path):
        path, _ = micro_config(tmp_path)
        cfg = config.load(path)
        doc1 = config.to_dict(cfg)
        doc2 = config.to_dict(config.from_dict(json.loads(json.dumps(config.to_dict(cfg)))))
        assert doc1 == doc2

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config.from_dict({"seeed": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="model.block"):
            config.from_dict({"model": {"block": {"reductoin": 4}}})

    def test_bad_enum_value(self):
        with pytest.raises(ConfigError, match="kind"):
            config.from_dict({"model": {"block": {"kind": "senet"}}})

    @pytest.mark.parametrize("field,value,message", [
        ("fft_size", 256, "fft_size 256 smaller than the 400-sample window"),
        ("f_min", 9000.0, r"mel range \[9000.0, 8000.0\] invalid"),
        ("win_ms", 1e305, "cannot convert float infinity to integer")],
        ids=["fft_size_256", "f_min_9000", "win_ms_overflow"])
    def test_bad_feature_setting_fails_at_load(self, field, value, message):
        """The features section is the filterbank's settings, checked as
        the loader builds it; a window too long to count in samples
        overflows there."""
        with pytest.raises(ConfigError, match=rf"^config.features: {message}"):
            config.from_dict({"features": {field: value}})

    def test_defaults_are_valid(self):
        cfg = config.from_dict({})
        assert cfg.features.chunk == 200
        assert cfg.features.n_mels == 64
        assert cfg.model.block.dct_components == 2
        assert cfg.model.block.tfe_groups == 8
        assert optim.AdamW.WEIGHT_DECAY == 5e-5
        assert cfg.train.utts_per_speaker_batch == 2

    @pytest.mark.parametrize("variant,kind,tfe", [
        ("se", "se", False), ("att_gcm", "att_gcm", False), ("att_gcm_tfe", "att_gcm", True),
        ("dct_gcm", "dct_gcm", False), ("dct_gcm_tfe", "dct_gcm", True)])
    def test_toy_preset_is_defaults_plus_operating_point(self, variant, kind, tfe):
        # a toy variant sets only the block kind and TFE; the defaults are the
        # toy operating point
        assert config.TOY_VARIANTS[variant] == (kind, tfe)
        cfg = config.RunConfig()
        cfg.model.block.kind, cfg.model.block.tfe = kind, tfe
        assert config.validate(cfg).train.speakers_per_batch == 20

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_bad_field_is_a_config_error(self, data):
        """Any one field of the micro config set to a small value of any
        JSON type is rejected by the loader, or builds the model and the
        filterbank, or fails to build them with a ConfigError; a config
        the loader accepts has a finite, positive rate in every epoch."""
        doc = config.to_dict(config.from_dict(MICRO_DOC))
        doc["train"]["epochs"] = 40  # the warm-up and two lr decays
        path = data.draw(st.sampled_from(FIELD_PATHS))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(NUMBERS | JSON_VALUES)
        try:
            cfg = config.from_dict(doc)
        except ConfigError:
            return
        tr = cfg.train
        for epoch in range(tr.epochs):
            lr = optim.lr_schedule(epoch, tr)
            assert math.isfinite(lr) and lr > 0, (epoch, lr)
        for build in (lambda: train.build_embedder(cfg, np.random.default_rng(0)),
                      lambda: train.fbank_config(cfg)):
            try:
                build()
            except ConfigError:
                pass

    def test_toy_preset_covers_five_variants(self):
        assert sorted(config.TOY_VARIANTS) == ["att_gcm", "att_gcm_tfe", "dct_gcm",
                                               "dct_gcm_tfe", "se"]


# sha256 prefixes of the micro config's manifests and trial list
CORPUS_DIGESTS = {"train_manifest.txt": "6ddd51f76c89330d", "eval_manifest.txt": "ff8fe65088f6d44a",
                  "trials.txt": "88d70be03553a456"}


class TestSynthData:
    def test_manifest_line_counts(self, tmp_path, capsys):
        path, doc = micro_config(tmp_path)
        assert cli.main(["synth-data", "--config", path]) == 0
        data_dir = doc["data"]["data_dir"]
        train_lines = open(os.path.join(data_dir, "train_manifest.txt")).read().splitlines()
        assert len(train_lines) == 3 * 4
        trials = metrics.read_trials(os.path.join(data_dir, "trials.txt"))
        assert len(trials) == 10
        assert trials.labels.sum() == 5

    def test_same_seed_identical_manifests(self, tmp_path):
        p1, d1 = micro_config(tmp_path / "a")
        p2, d2 = micro_config(tmp_path / "b")
        assert cli.main(["synth-data", "--config", p1]) == 0
        assert cli.main(["synth-data", "--config", p2]) == 0
        m1 = open(os.path.join(d1["data"]["data_dir"], "train_manifest.txt")).read()
        m2 = open(os.path.join(d2["data"]["data_dir"], "train_manifest.txt")).read()
        assert m1 == m2

    def test_corpus_bytes_pinned(self, tmp_path):
        path, doc = micro_config(tmp_path)
        assert cli.main(["synth-data", "--config", path]) == 0
        digests = {name: hashlib.sha256(open(os.path.join(doc["data"]["data_dir"], name),
                                             "rb").read()).hexdigest()[:16]
                   for name in (train.TRAIN_MANIFEST, train.EVAL_MANIFEST, train.TRIALS_FILE)}
        assert digests == CORPUS_DIGESTS

    def test_too_many_trials_writes_nothing(self, tmp_path, capsys):
        path, doc = micro_config(tmp_path)
        doc["data"]["num_trials"] = 40  # 20 target trials; 3 speakers x 3 utterances pair 9 ways
        with open(path, "w") as f:
            json.dump(doc, f)
        assert cli.main(["synth-data", "--config", path]) == cli.EXIT_DATA
        assert "same-speaker pairs" in capsys.readouterr().err
        assert not os.path.exists(doc["data"]["data_dir"])

    def test_trial_list_parses_back(self, tmp_path):
        path, doc = micro_config(tmp_path)
        cli.main(["synth-data", "--config", path])
        trials = metrics.read_trials(os.path.join(doc["data"]["data_dir"], "trials.txt"))
        assert set(trials.labels.tolist()) == {0, 1}

    def test_corpus_at_config_sample_rate_trains(self, tmp_path):
        path, doc = micro_config(tmp_path)
        doc["features"]["sample_rate"] = 8000
        with open(path, "w") as f:
            json.dump(doc, f)
        assert cli.main(["synth-data", "--config", path]) == 0
        wav = features.read_wav(os.path.join(doc["data"]["data_dir"], "wav", "spk000", "utt0000.wav"))
        assert wav.sample_rate == 8000
        assert cli.main(["train", "--config", path]) == 0


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("trained")
    path, doc = micro_config(tmp_path, epochs=3)
    assert cli.main(["synth-data", "--config", path]) == 0
    assert cli.main(["train", "--config", path]) == 0
    return path, doc


class TestTrainEval:

    def test_loss_decreases(self, trained):
        path, doc = trained
        log = open(os.path.join(doc["out_dir"], "train.log")).read().splitlines()
        first = float(log[0].split()[5])
        last = float(log[-1].split()[5])
        assert last < first

    def test_log_format(self, trained):
        path, doc = trained
        for line in open(os.path.join(doc["out_dir"], "train.log")):
            cols = line.split()
            assert len(cols) == 6
            int(cols[0]), int(cols[1])
            [float(c) for c in cols[2:]]

    def test_eval_outputs(self, trained, tmp_path, capsys):
        path, doc = trained
        ckpt = os.path.join(doc["out_dir"], "checkpoint.ckpt")
        trials = os.path.join(doc["data"]["data_dir"], "trials.txt")
        out = str(tmp_path / "eval")
        assert cli.main(["eval", "--config", path, "--checkpoint", ckpt,
                         "--trials", trials, "--out", out]) == 0
        printed = capsys.readouterr().out.strip().splitlines()[-1]
        report = open(os.path.join(out, "report.txt")).read().strip()
        assert printed == report
        assert report.startswith("EER=") and " minDCF=" in report
        det = open(os.path.join(out, "det.csv")).read().splitlines()
        assert det[0] == "far,frr"

    def test_self_trial_scores_one(self, trained, tmp_path, capsys):
        path, doc = trained
        data_dir = doc["data"]["data_dir"]
        eval_manifest = open(os.path.join(data_dir, "eval_manifest.txt")).read().splitlines()
        first_utts = [line.split()[1] for line in eval_manifest[:3]]
        trial_path = str(tmp_path / "self_trials.txt")
        with open(trial_path, "w") as f:
            f.write(f"1 {first_utts[0]} {first_utts[0]}\n")
            f.write(f"1 {first_utts[1]} {first_utts[1]}\n")
            f.write(f"0 {first_utts[0]} {first_utts[2]}\n")
        out = str(tmp_path / "self_eval")
        ckpt = os.path.join(doc["out_dir"], "checkpoint.ckpt")
        assert cli.main(["eval", "--config", path, "--checkpoint", ckpt,
                         "--trials", trial_path, "--out", out]) == 0
        scored = metrics.read_scores(os.path.join(out, "scores.txt"))
        self_scores = [s for e, t, s in scored if e == t]
        assert self_scores and all(abs(s - 1.0) < 1e-6 for s in self_scores)

    def test_missing_trial_audio_exit_code(self, trained, tmp_path, capsys):
        path, doc = trained
        data_dir = doc["data"]["data_dir"]
        eval_manifest = open(os.path.join(data_dir, "eval_manifest.txt")).read().splitlines()
        utts = [line.split()[1] for line in eval_manifest[:2]]
        trial_path = str(tmp_path / "missing_trials.txt")
        with open(trial_path, "w") as f:
            f.write(f"1 {utts[0]} {utts[0]}\n")
            f.write(f"0 {utts[0]} {utts[1]}\n")
            f.write(f"1 wav/spk000/uttXXXX.wav {utts[0]}\n")
        ckpt = os.path.join(doc["out_dir"], "checkpoint.ckpt")
        code = cli.main(["eval", "--config", path, "--checkpoint", ckpt,
                         "--trials", trial_path, "--out", str(tmp_path / "m_eval")])
        assert code == 2
        assert "uttXXXX" in capsys.readouterr().err

    @pytest.mark.parametrize("dropped", ["stage0.block0.conv1.weight",
                                         "stage0.block0.bn1.running_var"])
    def test_checkpoint_missing_entry_is_data_error(self, trained, tmp_path, capsys, dropped):
        path, doc = trained
        ckpt_doc, arrays = backbone.load_checkpoint(os.path.join(doc["out_dir"], "checkpoint.ckpt"))
        assert dropped in arrays
        broken = str(tmp_path / "broken.ckpt")
        backbone.save_checkpoint(broken, [(n, a) for n, a in arrays.items() if n != dropped], ckpt_doc)
        with pytest.raises(DataError, match=dropped):
            train.load_embedder(broken)
        trials = os.path.join(doc["data"]["data_dir"], "trials.txt")
        code = cli.main(["eval", "--config", path, "--checkpoint", broken,
                         "--trials", trials, "--out", str(tmp_path / "broken_eval")])
        assert code == cli.EXIT_DATA
        assert dropped in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_checkpoint_non_finite_entry_is_data_error(self, trained, tmp_path, capsys, bad):
        path, doc = trained
        name = "stage1.block0.conv2.weight"
        ckpt_doc, arrays = backbone.load_checkpoint(os.path.join(doc["out_dir"], "checkpoint.ckpt"))
        arrays[name] = arrays[name].copy()
        arrays[name].flat[3] = bad
        broken = str(tmp_path / "non_finite.ckpt")
        backbone.save_checkpoint(broken, arrays.items(), ckpt_doc)
        trials = os.path.join(doc["data"]["data_dir"], "trials.txt")
        code = cli.main(["eval", "--config", path, "--checkpoint", broken,
                         "--trials", trials, "--out", str(tmp_path / "non_finite_eval")])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and name in err and "non-finite" in err

    # (1,) would broadcast over the two channels and load silently
    @pytest.mark.parametrize("shape", [(1,), (), (3,)], ids=["one", "scalar", "three"])
    def test_checkpoint_state_shape_is_data_error(self, trained, tmp_path, capsys, shape):
        path, doc = trained
        name = "stage0.block0.bn1.running_mean"
        ckpt_doc, arrays = backbone.load_checkpoint(os.path.join(doc["out_dir"], "checkpoint.ckpt"))
        assert arrays[name].shape == (2,)
        arrays[name] = np.full(shape, 0.5)
        broken = str(tmp_path / "reshaped.ckpt")
        backbone.save_checkpoint(broken, arrays.items(), ckpt_doc)
        with pytest.raises(DataError, match=name):
            train.load_embedder(broken)
        trials = os.path.join(doc["data"]["data_dir"], "trials.txt")
        code = cli.main(["eval", "--config", path, "--checkpoint", broken,
                         "--trials", trials, "--out", str(tmp_path / "reshaped_eval")])
        assert code == cli.EXIT_DATA
        assert name in capsys.readouterr().err

    # a checkpoint written while these were fields names them at their one value
    @pytest.mark.parametrize("section,damage", [
        ((), {"name": "x"}), ((), {"seed": "seven"}), (("model", "block"), {"dct_grid": [4, 3]}),
        (("train",), {"lr_decay": 0.75, "lr_decay_every": 18, "weight_decay": 5e-5})],
        ids=["unknown_key", "seed_string", "dct_grid", "removed_train_fields"])
    def test_checkpoint_config_is_data_error(self, trained, tmp_path, capsys, section, damage):
        _, doc = trained
        ckpt_doc, arrays = backbone.load_checkpoint(os.path.join(doc["out_dir"], "checkpoint.ckpt"))
        target = ckpt_doc
        for key in section:
            target = target[key]
        target.update(damage)
        broken = str(tmp_path / "bad_config.ckpt")
        backbone.save_checkpoint(broken, arrays.items(), ckpt_doc)
        trials = os.path.join(doc["data"]["data_dir"], "trials.txt")
        code = cli.main(["eval", "--checkpoint", broken, "--trials", trials,
                         "--out", str(tmp_path / "bad_config_eval")])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and broken in err and "Traceback" not in err
        assert all(key in err for key in damage)

    @pytest.mark.parametrize("field,value", [("extent", 2**33), ("rank", 2**40),
                                             ("extent", 2**64 - 1)])
    def test_huge_tensor_header_exit_code(self, trained, tmp_path, capsys, field, value):
        path, doc = trained
        forged = str(tmp_path / "forged.ckpt")
        forge_checkpoint(forged, field, value)
        trials = os.path.join(doc["data"]["data_dir"], "trials.txt")
        code = cli.main(["eval", "--config", path, "--checkpoint", forged,
                         "--trials", trials, "--out", str(tmp_path / "forged_eval")])
        assert code == cli.EXIT_DATA
        assert "corrupt checkpoint" in capsys.readouterr().err

    def test_score_command_matches_eval(self, trained, tmp_path, capsys):
        path, doc = trained
        ckpt = os.path.join(doc["out_dir"], "checkpoint.ckpt")
        trials = os.path.join(doc["data"]["data_dir"], "trials.txt")
        out = str(tmp_path / "eval2")
        cli.main(["eval", "--config", path, "--checkpoint", ckpt, "--trials", trials, "--out", out])
        eval_report = capsys.readouterr().out.strip().splitlines()[-1]
        code = cli.main(["score", "--trials", trials, "--scores", os.path.join(out, "scores.txt")])
        assert code == 0
        assert capsys.readouterr().out.strip() == eval_report


class TestTrainAbort:
    def test_abort_names_only_this_runs_checkpoints(self, tmp_path, capsys, monkeypatch):
        """A rerun into a trained run's directory first removes that run's
        checkpoints; when it aborts, it names the last checkpoint it wrote
        itself, or says it wrote none."""
        path, doc = micro_config(tmp_path, epochs=3)
        out = doc["out_dir"]
        assert cli.main(["synth-data", "--config", path]) == 0
        assert cli.main(["train", "--config", path]) == 0
        assert "checkpoint_epoch002.ckpt" in os.listdir(out)

        step, steps = optim.AdamW.step, []

        def fails_in_epoch_1(opt):  # two steps per epoch
            steps.append(opt)
            if len(steps) == 3:
                raise NumericalError("planted")
            step(opt)

        with monkeypatch.context() as patch:
            patch.setattr(optim.AdamW, "step", fails_in_epoch_1)
            capsys.readouterr()
            assert cli.main(["train", "--config", path]) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert f"last good checkpoint: {os.path.join(out, 'checkpoint_epoch000.ckpt')}" in err
        assert sorted(os.listdir(out)) == ["checkpoint_epoch000.ckpt", "train.log"]

        doc["train"].update(base_lr=1e300, warmup_epochs=0)
        with open(path, "w") as f:
            json.dump(doc, f)
        assert cli.main(["train", "--config", path]) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "this run wrote no checkpoint" in err and "checkpoint_epoch" not in err
        assert os.listdir(out) == ["train.log"]


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    """One `tfctx sweep` over all five toy variants on one micro corpus:
    (exit code, stdout, config doc)."""
    path, doc = micro_config(tmp_path_factory.mktemp("swept"))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["sweep", "--config", path])
    return code, out.getvalue(), doc


class TestVariantSmoke:
    """Every toy variant trains and scores without shape errors, each a run
    of one sweep on a shared corpus."""

    @pytest.mark.parametrize("kind,tfe", [("se", False), ("att_gcm", False),
                                          ("att_gcm", True), ("dct_gcm", False),
                                          ("dct_gcm", True)])
    def test_variant(self, swept, kind, tfe):
        code, out, doc = swept
        assert code == 0  # exit 2 if any run skipped trials
        [variant] = [name for name, v in config.TOY_VARIANTS.items() if v == (kind, tfe)]
        run = os.path.join(doc["out_dir"], f"{variant}_after_bn")
        report = open(os.path.join(run, "eval", "report.txt")).read().strip()
        assert report.startswith("EER=")
        assert f"\n{variant}_after_bn " in out
        prefix, ordering = out.strip().splitlines()[-1].split(": ")
        assert prefix == "EER ordering (toy scale, not statistically meaningful)"
        assert f"{variant}_after_bn" in ordering.split(" < ")


class TestSweep:
    def test_insertion_ablation_run_names(self, tmp_path):
        _, doc = micro_config(tmp_path)
        positions = ["after_bn", "before_bn", "before_conv"]
        rows = train.sweep(config.from_dict(doc), ["att_gcm_tfe"], positions, quiet=True)
        assert [row.name for row in rows] == [f"att_gcm_tfe_{p}" for p in positions]
        for row in rows:
            assert not row.skipped
            assert row.report == open(os.path.join(
                doc["out_dir"], row.name, "eval", "report.txt")).read().strip()

    def test_corpus_of_other_settings_is_data_error(self, tmp_path):
        """A sweep of 4 speakers at seed 12 into a corpus synthesized for 3
        speakers at seed 11 refuses to train; the seed alone may differ."""
        path, doc = micro_config(tmp_path)
        assert cli.main(["synth-data", "--config", path]) == 0
        cfg = config.from_dict(doc)
        cfg.seed, cfg.data.num_speakers = 12, 4
        with pytest.raises(DataError, match="data.num_speakers 3"):
            train.sweep(cfg, ["se"], ["after_bn"], quiet=True)
        assert not os.path.exists(os.path.join(doc["out_dir"], "se_after_bn"))
        with open(os.path.join(doc["data"]["data_dir"], "corpus.json")) as f:
            recorded = json.load(f)
        assert recorded["seed"] == 11 and "data.data_dir" not in recorded
        cfg.data.num_speakers = 3
        [row] = train.sweep(cfg, ["se"], ["after_bn"], quiet=True)
        assert row.report.startswith("EER=") and not row.skipped

    @pytest.mark.parametrize("section,updates", [(("features",), {"fft_size": 256}),
                                                 (("model", "block"), {"reduction": 64})],
                             ids=["fft_size_256", "reduction_64"])
    def test_run_that_cannot_be_built_writes_nothing(self, tmp_path, capsys, section, updates):
        """A feature setting the filterbank rejects fails as the config
        loads, and a model setting no run can build fails before the corpus
        is synthesized: the sweep writes no corpus and no run."""
        path, doc = micro_config(tmp_path)
        target = doc
        for key in section:
            target = target[key]
        target.update(updates)
        with open(path, "w") as f:
            json.dump(doc, f)
        assert cli.main(["sweep", "--config", path]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not os.path.exists(doc["data"]["data_dir"])
        assert not os.path.exists(doc["out_dir"])

    @pytest.mark.parametrize("option,value", [("--variants", "bogus"), ("--insertions", "none")])
    def test_unknown_choice_is_usage_error(self, tmp_path, capsys, option, value):
        path, _ = micro_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--config", path, option, value])
        assert exc.value.code == 1
        assert not os.path.exists(tmp_path / "data")


class TestShippedConfigs:
    @pytest.mark.parametrize("name", ["toy.json", "full_scale.json"])
    def test_parses_and_validates(self, name):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        config.load(os.path.join(root, "configs", name))
        assert optim.AdamW.WEIGHT_DECAY == 5e-5

    def test_full_scale_settings(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cfg = config.load(os.path.join(root, "configs", "full_scale.json"))
        assert cfg.model.embed_dim == 512
        assert cfg.model.stage_channels == [32, 64, 128, 256]
        assert cfg.model.block.reduction == 16

    def test_toy_is_the_dct_gcm_toy_preset(self):
        # the defaults are the toy operating point with a DCT-GCM block
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "configs", "toy.json")) as f:
            doc = json.load(f)
        want = config.to_dict(config.RunConfig())
        assert want["model"]["block"]["kind"] == "dct_gcm"
        assert doc.pop("out_dir") == "runs/toy"
        del want["out_dir"]
        assert doc == want


class TestFullScaleConfig:
    def test_full_size_architecture_expressible(self):
        doc = {
            "model": {
                "stage_channels": [32, 64, 128, 256],
                "blocks_per_stage": [3, 4, 6, 3],
                "stage_strides": [1, 2, 2, 2],
                "stem_stride": [1, 1],
                "embed_dim": 512,
                "asp_hidden": 128,
                "block": {"kind": "att_gcm", "tfe": True, "reduction": 16},
            },
        }
        cfg = config.from_dict(doc)
        assert cfg.model.embed_dim == 512
        assert cfg.model.block.reduction == 16
        assert optim.AdamW.WEIGHT_DECAY == 5e-5  # published recipe value


class TestDeterminism:
    def test_train_byte_identical_checkpoints(self, tmp_path):
        path, doc = micro_config(tmp_path)
        cli.main(["synth-data", "--config", path])
        ckpt = os.path.join(doc["out_dir"], "checkpoint.ckpt")
        snapshots = []
        for _ in range(2):
            assert cli.main(["train", "--config", path]) == 0
            snapshots.append(open(ckpt, "rb").read())
        assert snapshots[0] == snapshots[1]

    def test_eval_byte_identical_scores(self, tmp_path):
        path, doc = micro_config(tmp_path)
        cli.main(["synth-data", "--config", path])
        cli.main(["train", "--config", path])
        ckpt = os.path.join(doc["out_dir"], "checkpoint.ckpt")
        trials = os.path.join(doc["data"]["data_dir"], "trials.txt")
        outs = []
        for sub in ("e1", "e2"):
            out = str(tmp_path / sub)
            assert cli.main(["eval", "--config", path, "--checkpoint", ckpt,
                             "--trials", trials, "--out", out]) == 0
            outs.append(open(os.path.join(out, "scores.txt"), "rb").read())
        assert outs[0] == outs[1]


class TestGradCheckCommand:
    def test_passes_and_lists_every_variant_once(self, capsys):
        assert cli.main(["grad-check", "--skip-full-network"]) == 0
        out = capsys.readouterr().out.splitlines()
        names = [line.split()[0] for line in out if line.strip()]
        for expected in ("se_fc", "se_conv1d", "att_gcm_fc", "att_gcm_conv1d", "att_gcm_tfe",
                         "dct_gcm_fc", "dct_gcm_conv1d", "dct_gcm_tfe",
                         "loss_softmax_ce", "loss_angular_proto"):
            assert names.count(expected) == 1
        assert all("PASS" in line for line in out if line.strip())

    def test_corrupted_gradient_detected(self, monkeypatch, capsys):
        """Negative control: break one backward rule, expect a FAIL exit."""
        true_tanh = T.tanh

        def bad_tanh(x):
            y = np.tanh(x.data)

            def vjp(g):
                x._accumulate(g * (1.0 - 0.9 * y * y))  # wrong local gradient

            return T.Tensor._from_op(y, (x,), vjp)

        monkeypatch.setattr(T, "tanh", bad_tanh)
        try:
            code = cli.main(["grad-check", "--skip-full-network"])
        finally:
            monkeypatch.setattr(T, "tanh", true_tanh)
        assert code == 3
        assert "FAIL" in capsys.readouterr().out


class TestExportDct:
    def test_fig_layout_export(self, tmp_path, capsys):
        out = str(tmp_path / "grids")
        assert cli.main(["export-dct", "--grid-f", "8", "--grid-t", "25",
                         "--components", "16", "--out", out]) == 0
        files = sorted(os.listdir(out))
        assert len(files) == 16
        assert files[0] == "dct_basis_000_i0_j0.csv"

    def test_k1_all_ones(self, tmp_path):
        out = str(tmp_path / "one")
        cli.main(["export-dct", "--grid-f", "4", "--grid-t", "6",
                  "--components", "1", "--out", out])
        grid = np.loadtxt(os.path.join(out, os.listdir(out)[0]), delimiter=",")
        np.testing.assert_allclose(grid, 1.0)

    def test_exported_values_match_formula(self, tmp_path):
        out = str(tmp_path / "check")
        cli.main(["export-dct", "--grid-f", "3", "--grid-t", "4",
                  "--components", "5", "--out", out])
        pairs = dct.component_order(3, 4)[:5]
        for rank, (i, j) in enumerate(pairs):
            grid = np.loadtxt(os.path.join(out, f"dct_basis_{rank:03d}_i{i}_j{j}.csv"),
                              delimiter=",")
            for f in range(3):
                for t in range(4):
                    assert grid[f, t] == pytest.approx(basis_weight(i, j, f, t, 3, 4), abs=1e-12)

    def test_negative_grid_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "negative"
        assert cli.main(["export-dct", "--grid-f", "-2", "--grid-t", "-3",
                         "--components", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_bad_component_count_is_usage_error(self, capsys):
        assert cli.main(["export-dct", "--grid-f", "2", "--grid-t", "2",
                         "--components", "5", "--out", "/tmp/never"]) == 1


# one config section's updates per case: a value that validate, the model or
# the filterbank cannot accept
BAD_CONFIGS = {
    "dct_components_100": (("model", "block"), {"dct_components": 100}),
    "dct_grid_0x3": (("model", "block"), {"dct_grid": [0, 3]}),
    # a removed field, at the value the network gives: the grid is derived
    "dct_grid_4x3": (("model", "block"), {"dct_grid": [4, 3]}),
    "tfe_groups_3": (("model", "block"), {"tfe": True, "tfe_groups": 3}),
    "reduction_8": (("model", "block"), {"reduction": 8}),
    "f_max_10": (("features",), {"f_max": 10}),
    "fft_size_128": (("features",), {"fft_size": 128}),
    "chunk_0": (("features",), {"chunk": 0}),
    "embed_dim_1": (("model",), {"embed_dim": 1}),
    "reduction_string": (("model", "block"), {"reduction": "4"}),
    "base_lr_0": (("train",), {"base_lr": 0.0}),
    "base_lr_negative": (("train",), {"base_lr": -1.0}),
    "warmup_epochs_negative": (("train",), {"warmup_epochs": -1}),
    "speakers_per_batch_1": (("train",), {"speakers_per_batch": 1}),
    # the smallest subnormal rate, decayed three times by epoch 55, rounds to 0
    "lr_rounds_to_0": (("train",), {"epochs": 56, "base_lr": 5e-324}),
    "lr_overflows": (("train",), {"epochs": 3, "warmup_epochs": 3, "base_lr": 1e308}),
}


@pytest.fixture(scope="module")
def micro_corpus(tmp_path_factory):
    path, doc = micro_config(tmp_path_factory.mktemp("corpus"))
    assert cli.main(["synth-data", "--config", path]) == 0
    return doc["data"]["data_dir"]


class TestExitCodes:
    @pytest.mark.parametrize("case", BAD_CONFIGS)
    def test_bad_value_is_config_error_before_reading(self, micro_corpus, tmp_path, capsys,
                                                      monkeypatch, case):
        section, updates = BAD_CONFIGS[case]

        def no_read(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(features, "read_wav", no_read)
        doc = micro_doc(tmp_path)
        doc["data"]["data_dir"] = micro_corpus
        target = doc
        for key in section:
            target = target[key]
        target.update(updates)
        path = str(tmp_path / "bad.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        assert cli.main(["train", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        # no audio was read (no_read did not run) and nothing was written for the run
        assert not os.path.exists(doc["out_dir"])

    @pytest.mark.parametrize("field,value", [("num_speakers", 0), ("utts_per_speaker", 0),
                                             ("duration_s", 0)])
    def test_nonpositive_corpus_size_is_config_error(self, tmp_path, capsys, field, value):
        path, doc = micro_config(tmp_path)
        doc["data"][field] = value
        with open(path, "w") as f:
            json.dump(doc, f)
        assert cli.main(["synth-data", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"data.{field}" in err
        assert not os.path.exists(doc["data"]["data_dir"])

    @pytest.mark.parametrize("field,value", [("num_trials", -4), ("num_trials", 0),
                                             ("num_trials", 1), ("eval_utts_per_speaker", 0),
                                             ("eval_utts_per_speaker", 1)])
    def test_too_few_trials_is_config_error_before_writing(self, tmp_path, capsys, field, value):
        path, doc = micro_config(tmp_path)
        doc["data"][field] = value
        with open(path, "w") as f:
            json.dump(doc, f)
        assert cli.main(["synth-data", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"data.{field}" in err
        assert not os.path.exists(os.path.join(doc["data"]["data_dir"], "wav"))

    # a 0xff byte can start no UTF-8 sequence
    @pytest.mark.parametrize("loader,code", [("manifest", 2), ("trials", 2), ("scores", 2),
                                             ("config", 1)])
    def test_invalid_utf8_is_data_or_config_error(self, tmp_path, capsys, loader, code):
        path, doc = micro_config(tmp_path)
        trials, scores = str(tmp_path / "trials.txt"), str(tmp_path / "scores.txt")
        with open(trials, "w") as f:
            f.write("1 a b\n0 a c\n")
        with open(scores, "w") as f:
            f.write("a b 0.9\na c 0.1\n")
        bad = {"manifest": os.path.join(doc["data"]["data_dir"], train.TRAIN_MANIFEST),
               "trials": trials, "scores": scores, "config": path}[loader]
        os.makedirs(os.path.dirname(bad), exist_ok=True)
        with open(bad, "wb") as f:
            f.write(b"spk000 wav/\xff.wav\n")
        argv = (["train", "--config", path] if loader in ("manifest", "config")
                else ["score", "--trials", trials, "--scores", scores])
        assert cli.main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("data error:" if code == 2 else "config error:")
        assert "not UTF-8 text" in err and "Traceback" not in err

    # a zero-byte file, a header cut inside the fmt chunk, and a fmt chunk
    # size (byte 17) that runs past the file
    @pytest.mark.parametrize("damage", [lambda raw: b"", lambda raw: raw[:24],
                                        lambda raw: raw[:17] + b"\x7c" + raw[18:]],
                             ids=["empty", "cut_header", "fmt_size"])
    def test_damaged_wav_is_data_error(self, tmp_path, capsys, damage):
        path, doc = micro_config(tmp_path)
        assert cli.main(["synth-data", "--config", path]) == 0
        manifest = features.read_manifest(os.path.join(doc["data"]["data_dir"], train.TRAIN_MANIFEST))
        wav = os.path.join(doc["data"]["data_dir"], manifest[0][1])
        raw = open(wav, "rb").read()
        with open(wav, "wb") as f:
            f.write(damage(raw))
        capsys.readouterr()
        assert cli.main(["train", "--config", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "RIFF/WAVE" in err and "Traceback" not in err

    def test_unknown_command_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 1

    # synth-data writes only under data.data_dir, and eval takes its seed
    # from the checkpoint: neither flag would change what the command does
    @pytest.mark.parametrize("argv", [["synth-data", "--out", "elsewhere"],
                                      ["eval", "--seed", "3", "--checkpoint", "m.ckpt",
                                       "--trials", "trials.txt"]],
                             ids=["synth_data_out", "eval_seed"])
    def test_flag_the_command_ignores_is_usage_error(self, tmp_path, capsys, argv):
        path, doc = micro_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--config", path])
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not os.path.exists(doc["data"]["data_dir"])

    def test_config_error(self, tmp_path, capsys):
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as f:
            json.dump({"definitely_not_a_key": 1}, f)
        assert cli.main(["synth-data", "--config", bad]) == 1

    def test_data_error(self, capsys):
        assert cli.main(["score", "--trials", "/nonexistent", "--scores", "/nonexistent"]) == 2
