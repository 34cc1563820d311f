"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. The toy end-to-end sweep is the long pole (several minutes
of CPU); deselect with `-m "not slow"` during development.
"""

import os
import time

import numpy as np
import pytest

from tfctx import blocks, config, dct, gradcheck, metrics, train
from tfctx.tensor import Tensor


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


class TestCriterion1SpecialCases:
    def test_identities(self):
        t0 = time.time()
        rng = np.random.default_rng(0)
        worst_att = 0.0
        worst_dct = 0.0
        for _ in range(20):
            c, f, t = (int(x) for x in rng.integers(2, 9, size=3))
            m = Tensor(rng.normal(size=(1, c, f, t)) * rng.uniform(0.5, 4.0))
            mean = blocks.se_squeeze(m).data

            att = blocks.AttentionContext(c, hidden=max(1, c // 2), rng=rng)
            att.proj.data[:] = 0.0
            att.proj_bias.data[:] = 0.0
            worst_att = max(worst_att, np.abs(att(m).data - mean).max())

            got = blocks.MultiDctContext(f, t, 1)(m).data
            worst_dct = max(worst_dct, np.abs(got - f * t * mean).max())
        elapsed = time.time() - t0
        _report("criterion 1: attention/DCT special-case identities",
                worst_att < 1e-10 and worst_dct < 1e-10 and elapsed < 5.0,
                f"att={worst_att:.2e} dct={worst_dct:.2e} in {elapsed:.1f}s")


class TestCriterion2DctCorrectness:
    def test_orthogonality_and_ordering(self):
        t0 = time.time()
        worst = 0.0
        for big_f in range(1, 17):
            for big_t in range(1, 17):
                grids = dct.basis_grids(big_f, big_t, big_f * big_t)
                flat = grids.reshape(len(grids), -1)
                gram = flat @ flat.T
                off = gram - np.diag(np.diag(gram))
                worst = max(worst, np.abs(off).max())

        prefix = dct.component_order(8, 25)[:5]
        order_ok = prefix == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1)]
        full = dct.component_order(8, 25)
        keys = [(i + j, i) for i, j in full]
        elapsed = time.time() - t0
        _report("criterion 2: DCT orthogonality and component ordering",
                worst < 1e-9 and order_ok and keys == sorted(keys) and elapsed < 10.0,
                f"max_offdiag={worst:.2e} prefix={prefix} in {elapsed:.1f}s")


class TestCriterion3GradientSuite:
    def test_every_variant(self):
        t0 = time.time()
        report = gradcheck.run_grad_checks()
        elapsed = time.time() - t0
        worst = max(report.values())
        for name, err in sorted(report.items()):
            print(f"    {name}: {err:.3e}")
        _report("criterion 3: gradient suite (blocks, losses, full toy network)",
                worst < 1e-4 and elapsed < 300.0,
                f"worst={worst:.2e} in {elapsed:.0f}s")


class TestCriterion4MetricOracles:
    def test_thousand_random_sets(self):
        rng = np.random.default_rng(99)
        worst_eer = 0.0
        worst_dcf = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 501))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0], labels[-1] = 1, 0
            scores = np.round(rng.normal(size=n), 2)
            trials = metrics.TrialSet(labels, tuple(map(str, range(n))), tuple(map(str, range(n))))

            eer, _ = metrics.compute_eer(trials, scores)
            dcf, _ = metrics.compute_min_dcf(trials, scores)

            thresholds = np.concatenate([np.unique(scores), [np.inf]])
            accept = scores[None, :] >= thresholds[:, None]
            far = (accept & (labels == 0)).sum(axis=1) / (labels == 0).sum()
            frr = (~accept & (labels == 1)).sum(axis=1) / (labels == 1).sum()
            diff = far - frr
            idx = int(np.flatnonzero(diff <= 0)[0])
            if diff[idx] == 0.0:
                want_eer = far[idx]
            else:
                d1, d2 = diff[idx - 1], diff[idx]
                s = d1 / (d1 - d2)
                want_eer = far[idx - 1] + s * (far[idx] - far[idx - 1])
            worst_eer = max(worst_eer, abs(eer - want_eer))

            thr2 = np.concatenate([[-np.inf], np.unique(scores), [np.inf]])
            accept2 = scores[None, :] >= thr2[:, None]
            far2 = (accept2 & (labels == 0)).sum(axis=1) / (labels == 0).sum()
            frr2 = (~accept2 & (labels == 1)).sum(axis=1) / (labels == 1).sum()
            want_dcf = ((0.01 * frr2 + 0.99 * far2) / 0.01).min()
            worst_dcf = max(worst_dcf, abs(dcf - want_dcf))

        hand = metrics.compute_eer(
            metrics.TrialSet(np.array([1, 1, 1, 0, 0, 0]), tuple("abcdef"), tuple("abcdef")),
            [0.9, 0.8, 0.7, 0.75, 0.6, 0.2])[0]
        _report("criterion 4: EER/minDCF oracle equivalence on 1000 random sets",
                worst_eer == 0.0 and worst_dcf == 0.0 and hand == 1 / 3,
                f"eer_dev={worst_eer:.2e} dcf_dev={worst_dcf:.2e} hand_case={hand:.6f}")


class TestCriterion5StructuralConstants:
    def test_eca_kernel_sizes(self):
        sizes = {c: blocks.eca_kernel_size(c) for c in (256, 64, 128)}
        _report("criterion 5a: adaptive kernel sizes (256, 64, 128)",
                sizes == {256: 5, 64: 3, 128: 3}, str(sizes))

    def test_attention_block_count_formula(self):
        ok = True
        details = []
        for c, r in ((32, 4), (64, 16), (256, 16)):
            hidden = c // 8
            block = blocks.GcmBlock(c, kind="att_gcm", transform="fc", reduction=r,
                                    attention_hidden=hidden, rng=np.random.default_rng(1))
            actual = sum(p.size for _, p in block.named_parameters())
            formula = 2 * c * c // r + hidden * (c + 2) + 1
            ok &= actual == formula
            details.append(f"C={c},r={r}: {actual}")
        _report("criterion 5b: attention block parameter formula", ok, "; ".join(details))

    def test_added_parameters_against_published_total(self):
        """Published figure: about 0.40M extra parameters for the attention
        block with enhancement inserted in every ResNet34 residual block.
        That total is only consistent with a square (hidden width = C)
        attention projection, so the comparison builds that shape
        (``attention_hidden_ratio`` 1.0) from the full-scale config, whose
        reduction is 16, and counts the walk of each built network. The
        run-config default (hidden = C/8) is a leaner choice and is
        reported alongside in the README.
        """
        path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs",
                            "full_scale.json")

        def count(kind, tfe, hidden_ratio):
            cfg = config.load(path)
            block = cfg.model.block
            block.kind, block.tfe, block.attention_hidden_ratio = kind, tfe, hidden_ratio
            embedder = train.build_embedder(config.validate(cfg), np.random.default_rng(0))
            return sum(p.size for _, p in embedder.named_parameters())

        added = count("att_gcm", True, 1.0) - count("none", False, 1.0)

        rel = abs(added - 400_000) / 400_000
        _report("criterion 5c: added parameters vs published 0.40M within 25%",
                rel < 0.25,
                f"added={added / 1e6:.3f}M rel_dev={rel:.1%}")


class TestCriterion6TfeInitIdentity:
    def test_sigmoid_one_damping(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(10):
            c = int(rng.choice([8, 16, 32]))
            f, t = (int(x) for x in rng.integers(2, 10, size=2))
            params = blocks.TfeParams(c, n_groups=8, rng=rng)
            x = rng.normal(size=(2, c, f, t)) * rng.uniform(0.5, 3.0)
            ctx = rng.normal(size=(2, c))
            out = blocks.tfe_enhance(Tensor(x), Tensor(ctx), params).data
            worst = max(worst, np.abs(out - 0.7310585786300049 * x).max())
        _report("criterion 6: enhancement at (scale,shift)=(0,1) damps by sigmoid(1)",
                worst < 1e-6, f"max_dev={worst:.2e}")


def toy_config(data_dir, out_dir, variant):
    """The package's defaults (the toy operating point) with one of its toy
    variants, trained for 7 epochs."""
    cfg = config.RunConfig()
    cfg.model.block.kind, cfg.model.block.tfe = config.TOY_VARIANTS[variant]
    cfg.out_dir = out_dir
    cfg.data.data_dir = data_dir
    cfg.train.epochs = 7
    return config.validate(cfg)


@pytest.mark.slow
class TestCriterion7ToyEndToEnd:
    def test_five_variants_under_ten_percent(self, tmp_path):
        t0 = time.time()
        data_dir = str(tmp_path / "data")
        base = toy_config(data_dir, str(tmp_path / "runs"), "se")
        rows = train.sweep(base, config.TOY_VARIANTS, [base.model.block.insertion], quiet=True)
        manifest = open(os.path.join(data_dir, train.TRAIN_MANIFEST)).read().splitlines()
        assert len(manifest) == 20 * 50
        trials = metrics.read_trials(os.path.join(data_dir, train.TRIALS_FILE))
        assert len(trials) == 400
        for row in rows:
            print(f"    {row.name:24s} {row.report}")
            assert not row.skipped
        eers = {row.name: row.eer for row in rows}
        elapsed = time.time() - t0
        ranking = " < ".join(sorted(eers, key=eers.get))
        print(f"    relative ordering (not gated): {ranking}")
        _report("criterion 7: all five toy variants reach EER < 10%",
                all(e < 0.10 for e in eers.values()) and elapsed < 1800.0,
                f"eers={ {k: round(v, 4) for k, v in eers.items()} } in {elapsed / 60:.1f}min")


@pytest.mark.slow
class TestCriterion8Determinism:
    def test_byte_identical_train_and_eval(self, tmp_path):
        cfg = toy_config(str(tmp_path / "data"), str(tmp_path / "runs"), "dct_gcm")
        cfg.data.num_speakers = 3
        cfg.data.utts_per_speaker = 4
        cfg.data.eval_utts_per_speaker = 3
        cfg.data.duration_s = 0.6
        cfg.data.num_trials = 10
        cfg.train.epochs = 1
        cfg.train.speakers_per_batch = 3
        cfg.model.stage_channels = [2, 2, 4, 4]
        cfg.model.blocks_per_stage = [1, 1, 1, 1]
        cfg.model.embed_dim = 8
        cfg.model.asp_hidden = 4
        cfg.model.block.reduction = 2
        cfg.model.block.tfe_groups = 2

        checkpoints, scores = [], []
        for _ in range(2):
            [row] = train.sweep(cfg, ["dct_gcm"], [cfg.model.block.insertion], quiet=True)
            run = os.path.join(cfg.out_dir, row.name)
            checkpoints.append(open(os.path.join(run, "checkpoint.ckpt"), "rb").read())
            scores.append(open(os.path.join(run, "eval", "scores.txt"), "rb").read())
        _report("criterion 8: byte-identical repeated train and eval",
                checkpoints[0] == checkpoints[1] and scores[0] == scores[1])
