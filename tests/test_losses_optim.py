import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfctx import config, losses, optim
from tfctx import tensor as T
from tfctx.errors import NumericalError, ShapeError
from tfctx.tensor import Tensor


def unit_batch(n, m, d, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, m, d))
    return x / np.linalg.norm(x, axis=2, keepdims=True)


class TestSpeakerPrototype:
    def test_m2_is_first_utterance(self):
        batch = unit_batch(3, 2, 4, seed=1)
        got = losses.prototypes(Tensor(batch))
        for j in range(3):
            np.testing.assert_array_equal(got.data[j], batch[j, 0])

    def test_m3_hand_case(self):
        batch = np.zeros((1, 3, 2))
        batch[0, 0] = [1.0, 0.0]
        batch[0, 1] = [0.0, 1.0]
        batch[0, 2] = [0.7, 0.7]
        got = losses.prototypes(Tensor(batch))
        np.testing.assert_allclose(got.data[0], [0.5, 0.5])

    def test_matches_loop_oracle(self):
        batch = unit_batch(4, 5, 6, seed=2)
        got = losses.prototypes(Tensor(batch)).data
        for j in range(4):
            want = sum(batch[j, i] for i in range(4)) / 4
            np.testing.assert_allclose(got[j], want, atol=1e-12)

    def test_m1_rejected(self):
        with pytest.raises(ShapeError):
            losses.prototypes(Tensor(np.ones((2, 1, 3))))


class TestAngularProtoLoss:
    def test_single_speaker_is_zero(self):
        loss = losses.angular_proto_loss(Tensor(unit_batch(1, 2, 8, seed=3)),
                                         losses.ProtoParams())
        assert loss.item() == 0.0

    def test_two_orthogonal_speakers_closed_form(self):
        batch = np.zeros((2, 2, 4))
        batch[0, :, 0] = 1.0  # prototype and query identical, axis 0
        batch[1, :, 1] = 1.0  # orthogonal speaker on axis 1
        params = losses.ProtoParams()
        params.bias.data[:] = 0.0
        assert params.scale.data[0] == 10.0
        loss = losses.angular_proto_loss(Tensor(batch), params)
        assert loss.item() == pytest.approx(math.log(1 + math.exp(-10)), rel=1e-10)
        assert loss.item() == pytest.approx(4.5399e-5, abs=1e-9)

    def test_invariant_under_common_rescaling(self):
        batch = unit_batch(4, 3, 8, seed=4)
        params = losses.ProtoParams()
        base = losses.angular_proto_loss(Tensor(batch), params).item()
        for scale in (0.1, 3.0, 250.0):
            scaled = losses.angular_proto_loss(Tensor(scale * batch), params).item()
            assert scaled == pytest.approx(base, abs=1e-10)

    def test_zero_norm_embedding_rejected(self):
        batch = unit_batch(2, 2, 4, seed=5)
        batch[0, 1] = 0.0
        with pytest.raises(NumericalError):
            losses.angular_proto_loss(Tensor(batch), losses.ProtoParams())

    def test_gradients(self):
        batch = unit_batch(3, 2, 5, seed=6)
        params = losses.ProtoParams()

        fn = lambda t: losses.angular_proto_loss(t, params)
        assert T.finite_diff_check(fn, Tensor(batch)) < 1e-4

        x = Tensor(batch, requires_grad=True)
        errs = T.finite_diff_check_params(lambda: losses.angular_proto_loss(x, params),
                                          params.named_parameters())
        assert max(errs.values()) < 1e-4


class TestSoftmaxCeLoss:
    def test_uniform_logits(self):
        head = losses.ClassifierHead(7, 4, np.random.default_rng(7))
        head.weight.data[:] = 0.0
        emb = Tensor(np.random.default_rng(8).normal(size=(3, 4)))
        loss = losses.softmax_ce_loss(emb, [0, 3, 6], head)
        assert loss.item() == pytest.approx(math.log(7), rel=1e-12)

    @pytest.mark.parametrize("margin", [5.0, 10.0])
    def test_one_hot_margin_closed_form(self, margin):
        c = 4
        head = losses.ClassifierHead(c, c, np.random.default_rng(9))
        head.weight.data = margin * np.eye(c)
        head.bias.data[:] = 0.0
        emb = np.eye(c)[[1]]
        loss = losses.softmax_ce_loss(Tensor(emb), [1], head)
        assert loss.item() == pytest.approx(math.log(1 + (c - 1) * math.exp(-margin)), rel=1e-10)

    def test_margin_monotone(self):
        vals = []
        for margin in (5.0, 10.0):
            c = 4
            head = losses.ClassifierHead(c, c, np.random.default_rng(10))
            head.weight.data = margin * np.eye(c)
            head.bias.data[:] = 0.0
            vals.append(losses.softmax_ce_loss(Tensor(np.eye(c)[[2]]), [2], head).item())
        assert vals[1] < vals[0]

    def test_matches_per_sample_loop(self):
        rng = np.random.default_rng(11)
        head = losses.ClassifierHead(5, 3, rng)
        emb = rng.normal(size=(6, 3))
        labels = rng.integers(0, 5, size=6)
        got = losses.softmax_ce_loss(Tensor(emb), labels, head).item()
        total = 0.0
        for i in range(6):
            logits = head.weight.data @ emb[i] + head.bias.data
            p = np.exp(logits - logits.max())
            p /= p.sum()
            total += -math.log(p[labels[i]])
        assert got == pytest.approx(total / 6, abs=1e-12)

    def test_label_out_of_range(self):
        head = losses.ClassifierHead(3, 2, np.random.default_rng(12))
        with pytest.raises(ValueError):
            losses.softmax_ce_loss(Tensor(np.zeros((1, 2))), [3], head)


class TestCombinedLoss:
    def test_sum_of_components(self):
        batch = unit_batch(3, 2, 6, seed=13)
        labels = [0, 0, 1, 1, 2, 2]
        head = losses.ClassifierHead(3, 6, np.random.default_rng(14))
        params = losses.ProtoParams()
        total, ce, proto = losses.combined_loss(Tensor(batch), labels, head, params)
        flat = Tensor(batch.reshape(6, 6))
        assert ce == pytest.approx(losses.softmax_ce_loss(flat, labels, head).item(), abs=1e-12)
        assert proto == pytest.approx(losses.angular_proto_loss(Tensor(batch), params).item(), abs=1e-12)
        assert total.item() == pytest.approx(ce + proto, abs=1e-12)

    def test_gradient_is_sum_of_component_gradients(self):
        batch = unit_batch(3, 2, 6, seed=15)
        labels = [0, 0, 1, 1, 2, 2]
        head = losses.ClassifierHead(3, 6, np.random.default_rng(16))
        params = losses.ProtoParams()

        x = Tensor(batch, requires_grad=True)
        losses.combined_loss(x, labels, head, params)[0].backward()
        g_total = x.grad.copy()

        x = Tensor(batch, requires_grad=True)
        losses.softmax_ce_loss(T.reshape(x, (6, 6)), labels, head).backward()
        g_ce = x.grad.copy()

        x = Tensor(batch, requires_grad=True)
        losses.angular_proto_loss(x, params).backward()
        g_proto = x.grad.copy()

        np.testing.assert_allclose(g_total, g_ce + g_proto, atol=1e-12)


def adamw_on(*values, **hyper):
    """An AdamW over one tensor per initial value, named p0, p1, ..."""
    params = [Tensor(np.array(v, dtype=float), requires_grad=True) for v in values]
    return params, optim.AdamW([(f"p{i}", p) for i, p in enumerate(params)], **hyper)


class TestAdamW:
    def test_zero_gradient_pure_decay(self):
        (p, q), opt = adamw_on([2.0, -3.0], [2.0, -3.0], lr=0.1)
        p.grad = np.zeros(2)  # q has no gradient at all, which counts as zero
        opt.step()
        np.testing.assert_allclose(p.data, np.array([2.0, -3.0]) * (1 - 0.1 * optim.AdamW.WEIGHT_DECAY),
                                   atol=0)
        np.testing.assert_array_equal(q.data, p.data)

    def test_descends_convex_quadratic(self):
        (x,), opt = adamw_on([1.0], lr=0.05)
        x.grad = 2 * x.data.copy()
        opt.step()
        assert x.data[0] ** 2 < 1.0

    def test_ten_steps_match_reference_trace(self):
        rng = np.random.default_rng(17)
        lr = 1e-2
        b1, b2, eps, wd = (optim.AdamW.BETA1, optim.AdamW.BETA2, optim.AdamW.EPS,
                           optim.AdamW.WEIGHT_DECAY)
        assert (b1, b2, eps, wd) == (0.9, 0.999, 1e-8, 5e-5)
        (p,), opt = adamw_on(rng.normal(size=(4,)), lr=lr)
        ref = p.data.copy()
        grads = [rng.normal(size=(4,)) for _ in range(10)]

        m = np.zeros(4)
        v = np.zeros(4)
        for t, g in enumerate(grads, start=1):
            p.grad = g
            opt.step()
            ref *= 1 - lr * wd
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            ref -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        np.testing.assert_allclose(p.data, ref, atol=1e-12)

    def test_non_finite_gradient_aborts_without_touching_params(self):
        (p, q), opt = adamw_on([1.0], [2.0], lr=0.1)
        p.grad = np.array([0.5])  # finite, listed before the bad one
        q.grad = np.array([np.inf])
        with pytest.raises(NumericalError, match="p1"):
            opt.step()
        assert p.data[0] == 1.0 and q.data[0] == 2.0 and opt.step_count == 0
        assert not opt.m[0].any() and not opt.v[0].any()


# the full-scale train section (base 1e-3, 5 warm-up epochs) under the decay
# of 0.75 every 18 epochs
FULL_SCALE = config.load(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                      "configs", "full_scale.json")).train


class TestLrSchedule:
    @pytest.mark.parametrize("epoch,want", [
        (0, 2e-4), (4, 1e-3), (5, 1e-3), (22, 1e-3), (23, 7.5e-4), (41, 5.625e-4),
    ])
    def test_reference_points(self, epoch, want):
        assert optim.lr_schedule(epoch, FULL_SCALE) == pytest.approx(want, rel=1e-12)

    def test_negative_epoch(self):
        with pytest.raises(ValueError):
            optim.lr_schedule(-1, FULL_SCALE)

    @given(st.integers(5, 400))
    @settings(max_examples=60, deadline=None)
    def test_non_increasing_after_warmup(self, epoch):
        assert optim.lr_schedule(epoch + 1, FULL_SCALE) <= optim.lr_schedule(epoch, FULL_SCALE)
