import tracemalloc

import numpy as np
import pytest

from tfctx import backbone, blocks, losses, optim
from tfctx import tensor as T
from tfctx.errors import DataError, ShapeError
from tfctx.tensor import Tensor

from oracles import forge_checkpoint


def make_gcm_factory(**kwargs):
    seeds = iter(range(100, 10_000))

    def factory(channels):
        return blocks.GcmBlock(channels, rng=np.random.default_rng(next(seeds)), **kwargs)

    return factory


def toy_embedder(make_gcm=None, insertion="after_bn", seed=0, **overrides):
    kwargs = dict(mel_bins=16, stage_channels=[4, 4, 8, 8], blocks_per_stage=[1, 1, 1, 1],
                  stage_strides=[1, 2, 2, 1], stem_stride=(2, 2), embed_dim=8, asp_hidden=4,
                  make_gcm=make_gcm, insertion=insertion, rng=np.random.default_rng(seed))
    kwargs.update(overrides)
    return backbone.Embedder(**kwargs)


class TestResidualBlock:
    def test_zero_branch_is_relu_identity(self):
        block = backbone.ResidualBlock(3, 3, 1, rng=np.random.default_rng(1))
        block.conv1.weight.data[:] = 0.0
        block.conv2.weight.data[:] = 0.0
        x = np.random.default_rng(2).normal(size=(2, 3, 4, 5))
        out = block(Tensor(x), training=True)
        np.testing.assert_allclose(out.data, np.maximum(x, 0.0), atol=1e-12)

    def test_after_bn_gap_zero_transform_halves_branch(self):
        rng = np.random.default_rng(3)
        gcm = blocks.GcmBlock(3, kind="se", transform="fc", reduction=1, rng=rng)
        gcm.transform.w_in.data[:] = 0.0
        gcm.transform.w_out.data[:] = 0.0
        with_gcm = backbone.ResidualBlock(3, 3, 1, gcm, "after_bn", np.random.default_rng(4))
        without = backbone.ResidualBlock(3, 3, 1, rng=np.random.default_rng(4))
        x = np.random.default_rng(5).normal(size=(2, 3, 4, 5))

        # replay the plain branch by hand: halved before the residual add
        h = without.bn1(without.conv1(Tensor(x)), True)
        y_plain = without.bn2(without.conv2(Tensor(np.maximum(h.data, 0.0))), True)
        want = np.maximum(0.5 * y_plain.data + x, 0.0)
        np.testing.assert_allclose(with_gcm(Tensor(x), True).data, want, atol=1e-12)

    @pytest.mark.parametrize("insertion", ["after_bn", "before_bn", "before_conv"])
    def test_insertion_positions_same_shape(self, insertion):
        width = 4 if insertion == "before_conv" else 6  # before_conv sees the block input
        gcm = blocks.GcmBlock(width, kind="att_gcm", transform="fc", reduction=2,
                              attention_hidden=1, rng=np.random.default_rng(6))
        block = backbone.ResidualBlock(4, 6, 2, gcm, insertion, np.random.default_rng(7))
        out = block(Tensor(np.random.default_rng(8).normal(size=(2, 4, 8, 9))), True)
        assert out.shape == (2, 6, 4, 5)

    def test_unknown_insertion_rejected(self):
        gcm = blocks.GcmBlock(4, reduction=2, rng=np.random.default_rng(9))
        with pytest.raises(ValueError, match="insertion"):
            backbone.ResidualBlock(4, 4, 1, gcm, "none")


class TestAspPool:
    def test_constant_frames(self):
        pool = backbone.AttentiveStatsPool(3, 2, np.random.default_rng(10))
        frames = Tensor(np.full((1, 3, 7), 1.5))
        out = pool(frames).data[0]
        np.testing.assert_allclose(out[:3], 1.5, atol=1e-12)
        np.testing.assert_allclose(out[3:], 0.0, atol=2e-4)  # sqrt of the variance floor

    def test_zero_logits_is_uniform_stats(self):
        pool = backbone.AttentiveStatsPool(3, 2, np.random.default_rng(11))
        pool.proj.data[:] = 0.0
        pool.proj_bias.data[:] = 0.0
        x = np.random.default_rng(12).normal(size=(3, 9))
        out = pool(Tensor(x[None])).data[0]
        mu = x.mean(axis=1)
        sigma = np.sqrt(np.maximum((x * x).mean(axis=1) - mu ** 2, pool.VAR_FLOOR))
        np.testing.assert_allclose(out, np.concatenate([mu, sigma]), atol=1e-12)

    def test_matches_weighted_moment_oracle(self):
        pool = backbone.AttentiveStatsPool(4, 3, np.random.default_rng(13))
        x = np.random.default_rng(14).normal(size=(4, 6))
        out = pool(Tensor(x[None])).data[0]

        scores = np.array([
            pool.score_vec.data @ np.tanh(pool.proj.data @ x[:, t] + pool.proj_bias.data)
            + pool.score_bias.data[0]
            for t in range(6)
        ])
        w = np.exp(scores - scores.max())
        w /= w.sum()
        mu = x @ w
        var = (x * x) @ w - mu ** 2
        sigma = np.sqrt(np.maximum(var, pool.VAR_FLOOR))
        np.testing.assert_allclose(out, np.concatenate([mu, sigma]), atol=1e-10)

    def test_gradients(self):
        pool = backbone.AttentiveStatsPool(3, 2, np.random.default_rng(15))
        x = np.random.default_rng(16).normal(size=(1, 3, 5))
        target = Tensor(np.random.default_rng(17).normal(size=(1, 6)))
        fn = lambda t: T.mul(pool(t), target).sum()
        assert T.finite_diff_check(fn, Tensor(x)) < 1e-4


class TestEmbedder:
    def test_unit_norm_output(self):
        emb = toy_embedder()
        x = Tensor(np.random.default_rng(18).normal(size=(3, 1, 16, 20)))
        out = emb.embed(x)
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-6)
        assert out.shape == (3, 8)

    def test_embed_utterance_contract(self):
        emb = toy_embedder(seed=1)
        feats = Tensor(np.random.default_rng(19).normal(size=(1, 1, 16, 24)))
        vec = emb.embed(feats)
        assert vec.shape == (1, 8)
        assert np.linalg.norm(vec.data) == pytest.approx(1.0, abs=1e-6)

    def test_deterministic_bit_for_bit(self):
        feats = np.random.default_rng(20).normal(size=(1, 1, 16, 24))
        outs = []
        for _ in range(2):
            emb = toy_embedder(seed=7)
            outs.append(emb.embed(Tensor(feats.copy())).data.tobytes())
        assert outs[0] == outs[1]

    def test_wrong_mel_bins_rejected(self):
        emb = toy_embedder()
        with pytest.raises(ShapeError):
            emb.embed(Tensor(np.zeros((1, 1, 12, 20))))

    # ids name each kind by its context, as in test_blocks
    @pytest.mark.parametrize("kind,tfe", [
        pytest.param("se", False, id="gap-False"),
        pytest.param("att_gcm", False, id="attention-False"),
        pytest.param("att_gcm", True, id="attention-True"),
        pytest.param("dct_gcm", True, id="multi_dct-True")])
    def test_gcm_variants_preserve_shapes(self, kind, tfe):
        factory = make_gcm_factory(kind=kind, transform="fc", reduction=2, attention_hidden=1,
                                   dct_grid=(2, 3), dct_components=2, tfe=tfe, tfe_groups=2)
        emb = toy_embedder(make_gcm=factory, seed=2)
        plain = toy_embedder(seed=2)
        x = Tensor(np.random.default_rng(21).normal(size=(2, 1, 16, 20)))
        assert emb.embed(x).shape == plain.embed(x).shape

    def test_eval_embed_records_no_tape(self):
        factory = make_gcm_factory(kind="att_gcm", transform="fc", reduction=2,
                                   attention_hidden=1, tfe=True, tfe_groups=2)
        emb = toy_embedder(make_gcm=factory, seed=4)
        x = Tensor(np.random.default_rng(24).normal(size=(3, 1, 16, 20)))
        out = emb.embed(x, training=False)
        assert not out.requires_grad
        # the same eval-mode segments, recorded
        taped = x
        for segment in emb.segments(training=False):
            taped = segment(taped)
        assert taped.requires_grad
        assert out.data.tobytes() == taped.data.tobytes()

    def test_last_stage_only(self):
        factory = make_gcm_factory(kind="se", transform="fc", reduction=2)
        emb = toy_embedder(make_gcm=factory, gcm_stages="last", seed=3)
        names = [n for n, _ in emb.named_parameters() if ".gcm." in n]
        assert names and all(n.startswith("stage3.") for n in names)


class TestTapeMemory:
    """Deterministic heap peaks (tracemalloc, no timing) of a tiny Att+TFE
    embedder: a finished batch or step must not keep its graph alive while
    the next one records."""

    LABELS = [0, 0, 1, 1, 2, 2, 3, 3]

    @pytest.fixture
    def model(self):
        factory = make_gcm_factory(kind="att_gcm", transform="fc", reduction=2,
                                   attention_hidden=1, tfe=True, tfe_groups=2)
        emb = toy_embedder(make_gcm=factory, seed=8)
        head = losses.ClassifierHead(4, 8, np.random.default_rng(9))
        proto = losses.ProtoParams()
        opt = optim.AdamW(emb.named_parameters() + head.named_parameters()
                          + proto.named_parameters(), lr=1e-3)
        x = Tensor(np.random.default_rng(25).normal(size=(8, 1, 16, 40)))
        return emb, head, proto, opt, x

    @staticmethod
    def _peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_eval_batches_do_not_stack(self, model):
        emb, _, _, _, x = model

        def batches(k):
            out = None  # held across batches, as extract_embeddings does
            for _ in range(k):
                out = emb.embed(x, training=False)

        assert self._peak(batches, 3) <= 1.5 * self._peak(batches, 1)

    def test_train_steps_do_not_stack(self, model):
        emb, head, proto, opt, x = model

        def steps(k):
            total = None  # held across steps, as train_run does
            for _ in range(k):
                grouped = emb.embed(x, training=True).reshape((4, 2, 8))
                total = losses.combined_loss(grouped, self.LABELS, head, proto)[0]
                opt.zero_grad()
                total.backward()
                opt.step()

        steps(1)  # allocate gradients and optimizer moments outside the trace
        assert self._peak(steps, 3) <= 1.15 * self._peak(steps, 1)


class GatedConv(backbone.Conv2dLayer):
    """A conv that adds a parameter and a nested child and nothing else:
    no walk lists them."""

    def __init__(self, cin, cout, rng):
        super().__init__(cin, cout, rng=rng)
        self.gate = Tensor(np.full(cout, 0.5), requires_grad=True)
        self.norm = backbone.BatchNormLayer(cout)

    def __call__(self, x, training):
        y = self.norm(super().__call__(x), training)
        return T.mul(y, T.reshape(self.gate, (1, self.gate.shape[0], 1, 1)))


class TestModuleTree:
    def test_new_attributes_are_named_and_trained(self):
        rng = np.random.default_rng(30)
        layer = GatedConv(2, 3, rng)
        assert [n for n, _ in layer.named_parameters()] == ["weight", "gate", "norm.gamma",
                                                            "norm.beta"]
        assert [n for n, _ in layer.named_state()] == ["norm.running_mean", "norm.running_var"]
        before = {n: p.data.copy() for n, p in layer.named_parameters()}
        opt = optim.AdamW(layer.named_parameters(), lr=1e-2)
        target = Tensor(rng.normal(size=(2, 3, 4, 5)))
        T.mul(layer(Tensor(rng.normal(size=(2, 2, 4, 5))), True), target).sum().backward()
        opt.step()
        for name, p in layer.named_parameters():
            assert not np.array_equal(p.data, before[name]), name


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        emb = toy_embedder(seed=5)
        # make stats non-trivial
        emb.embed(Tensor(np.random.default_rng(22).normal(size=(2, 1, 16, 20))), training=True)
        path = str(tmp_path / "model.ckpt")
        entries = [(n, p.data) for n, p in emb.named_parameters()] + list(emb.named_state())
        config = {"seed": 5, "note": "toy"}
        backbone.save_checkpoint(path, entries, config)

        loaded_config, arrays = backbone.load_checkpoint(path)
        assert loaded_config == config
        for name, arr in entries:
            assert arrays[name].tobytes() == np.asarray(arr).tobytes()

        # loading into a differently seeded model reproduces outputs exactly
        other = toy_embedder(seed=99)
        other.load_arrays(arrays)
        x = Tensor(np.random.default_rng(23).normal(size=(1, 1, 16, 20)))
        np.testing.assert_array_equal(other.embed(x).data, emb.embed(x).data)

    def test_save_twice_identical_bytes(self, tmp_path):
        emb = toy_embedder(seed=6)
        entries = [(n, p.data) for n, p in emb.named_parameters()] + list(emb.named_state())
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        backbone.save_checkpoint(p1, entries, {"x": 1})
        backbone.save_checkpoint(p2, entries, {"x": 1})
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_mismatched_checkpoint_rejected(self, tmp_path):
        emb = toy_embedder(seed=7)
        path = str(tmp_path / "model.ckpt")
        backbone.save_checkpoint(path, [("bogus", np.zeros(3))], {})
        _, arrays = backbone.load_checkpoint(path)
        with pytest.raises(DataError):
            emb.load_arrays(arrays)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
    def test_non_finite_entry_is_data_error(self, tmp_path, bad):
        emb = toy_embedder(seed=8)
        entries = [(n, p.data.copy()) for n, p in emb.named_parameters()] + list(emb.named_state())
        name, arr = entries[5]
        arr.flat[0] = bad
        path = str(tmp_path / "model.ckpt")
        backbone.save_checkpoint(path, entries, {})
        with pytest.raises(DataError, match=f"{name} holds non-finite values"):
            backbone.load_checkpoint(path)

    def test_missing_file(self):
        with pytest.raises(DataError):
            backbone.load_checkpoint("/nonexistent/model.ckpt")

    @pytest.mark.parametrize("field,value", [("extent", 2**33), ("rank", 2**40),
                                             ("extent", 2**64 - 1), ("config_len", 2**62),
                                             ("name_len", 2**64 - 1)])
    def test_huge_header_field_is_data_error(self, tmp_path, field, value):
        path = str(tmp_path / "forged.ckpt")
        forge_checkpoint(path, field, value)
        with pytest.raises(DataError, match="corrupt checkpoint"):
            backbone.load_checkpoint(path)
