import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfctx import blocks, dct
from tfctx import tensor as T
from tfctx.errors import ShapeError
from tfctx.tensor import Tensor

from oracles import adaptive_avg_pool, channel_correlation, dct2_pool


# test ids name each kind by its context: global average pooling, attention
# or multi-DCT pooling
CONTEXT_KINDS = [pytest.param("se", id="gap"), pytest.param("att_gcm", id="attention"),
                 pytest.param("dct_gcm", id="multi_dct")]


def rng_map(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestSeSqueeze:
    def test_constant_channel(self):
        m = Tensor(np.full((1, 3, 4, 5), 2.25))
        np.testing.assert_allclose(blocks.se_squeeze(m).data, 2.25)

    def test_hand_case(self):
        m = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert blocks.se_squeeze(m).data[0, 0] == pytest.approx(2.5)

    def test_matches_loop_oracle(self):
        x = rng_map((2, 3, 4, 6), seed=1)
        got = blocks.se_squeeze(Tensor(x)).data
        want = np.empty((2, 3))
        for n in range(2):
            for c in range(3):
                acc = 0.0
                for f in range(4):
                    for t in range(6):
                        acc += x[n, c, f, t]
                want[n, c] = acc / (4 * 6)
        np.testing.assert_allclose(got, want, atol=1e-12)


def attention_oracle(x, proj, proj_bias, score_vec, score_bias):
    """Explicit per-location attention pooling."""
    n, c, f, t = x.shape
    out = np.empty((n, c))
    for ni in range(n):
        scores = np.empty((f, t))
        for fi in range(f):
            for ti in range(t):
                vec = x[ni, :, fi, ti]
                scores[fi, ti] = score_vec @ np.tanh(proj @ vec + proj_bias) + score_bias
        e = np.exp(scores - scores.max())
        alpha = e / e.sum()
        for ci in range(c):
            out[ni, ci] = (alpha * x[ni, ci]).sum()
    return out


class TestAttentionContext:
    def test_zeroed_mlp_equals_mean(self):
        ctx = blocks.AttentionContext(3, hidden=2, rng=np.random.default_rng(5))
        ctx.proj.data[:] = 0.0
        ctx.proj_bias.data[:] = 0.0
        m = Tensor(rng_map((2, 3, 4, 5), seed=2))
        np.testing.assert_allclose(ctx(m).data, blocks.se_squeeze(m).data, atol=1e-10)

    def test_weights_sum_to_one(self):
        ctx = blocks.AttentionContext(4, hidden=1, rng=np.random.default_rng(6))
        w = ctx.weights(Tensor(rng_map((3, 4, 5, 6), seed=3)))
        np.testing.assert_allclose(w.data.sum(axis=(1, 2)), 1.0, atol=1e-12)

    def test_matches_loop_oracle(self):
        ctx = blocks.AttentionContext(4, hidden=3, rng=np.random.default_rng(7))
        x = rng_map((1, 4, 3, 5), seed=4)
        got = ctx(Tensor(x)).data
        want = attention_oracle(x, ctx.proj.data, ctx.proj_bias.data,
                                ctx.score_vec.data, ctx.score_bias.data[0])
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_channel_mismatch(self):
        ctx = blocks.AttentionContext(4, hidden=1)
        with pytest.raises(ShapeError):
            ctx(Tensor(np.zeros((2, 3, 4, 5))))


class TestEcaKernelSize:
    @pytest.mark.parametrize("channels,expected", [(256, 5), (64, 3), (128, 3)])
    def test_reference_sizes(self, channels, expected):
        assert blocks.eca_kernel_size(channels) == expected

    def test_always_odd_and_positive(self):
        for c in range(2, 2050):
            k = blocks.eca_kernel_size(c)
            assert k >= 1 and k % 2 == 1

    def test_too_few_channels(self):
        with pytest.raises(ValueError):
            blocks.eca_kernel_size(1)


class TestChannelExcite:
    def test_zero_fc_weights_give_half(self):
        tr = blocks.FcChannelTransform(6, reduction=2, rng=np.random.default_rng(8))
        tr.w_in.data[:] = 0.0
        tr.w_out.data[:] = 0.0
        out = T.sigmoid(tr.logits(Tensor(rng_map((1, 6), seed=5))))
        np.testing.assert_allclose(out.data, 0.5)

    def test_conv1d_impulse_is_plain_sigmoid(self):
        tr = blocks.Conv1dChannelTransform(64, rng=np.random.default_rng(9))
        assert tr.kernel.shape == (3,)
        tr.kernel.data[:] = [0.0, 1.0, 0.0]
        g = rng_map((1, 64), seed=6)
        out = T.sigmoid(tr.logits(Tensor(g)))
        np.testing.assert_allclose(out.data, 1 / (1 + np.exp(-g)), atol=1e-12)

    # an asymmetric kernel: a flipped (convolution) direction or a shifted
    # tap would move every output
    @pytest.mark.parametrize("channels,taps", [(64, [0.5, -1.25, 2.0]),
                                               (256, [0.5, -1.25, 2.0, 0.75, -3.0])])
    def test_conv1d_matches_loop_oracle(self, channels, taps):
        tr = blocks.Conv1dChannelTransform(channels, rng=np.random.default_rng(11))
        assert tr.kernel.shape == (len(taps),)
        tr.kernel.data[:] = taps
        g = rng_map((2, channels), seed=8)
        np.testing.assert_allclose(tr.logits(Tensor(g)).data,
                                   channel_correlation(g, np.array(taps)), rtol=0, atol=1e-12)

    def test_conv1d_gradients_at_three_taps(self):
        tr = blocks.Conv1dChannelTransform(64, rng=np.random.default_rng(12))
        assert tr.kernel.shape == (3,)
        x = rng_map((2, 64), seed=9)
        target = Tensor(rng_map((2, 64), seed=10))

        def loss_of(t):
            return T.mul(T.tanh(tr.logits(t)), target).sum()

        assert T.finite_diff_check(loss_of, Tensor(x)) < 1e-6
        fixed = Tensor(x)
        errors = T.finite_diff_check_params(lambda: loss_of(fixed), tr.named_parameters())
        assert errors["kernel"] < 1e-6

    def test_fc_matches_matrix_loop_oracle(self):
        tr = blocks.FcChannelTransform(32, reduction=16, rng=np.random.default_rng(10))
        g = rng_map((32,), seed=7)
        got = T.sigmoid(tr.logits(Tensor(g[None]))).data[0]
        hidden = np.maximum(tr.w_in.data @ g, 0.0)
        want = 1 / (1 + np.exp(-(tr.w_out.data @ hidden)))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_reduction_too_large(self):
        with pytest.raises(ShapeError):
            blocks.FcChannelTransform(8, reduction=16)


class TestChannelScale:
    def test_ones_identity(self):
        x = rng_map((1, 2, 3, 4), seed=8)
        out = blocks.channel_scale(Tensor(x), Tensor(np.ones((1, 2))))
        np.testing.assert_allclose(out.data, x)

    def test_zeros(self):
        out = blocks.channel_scale(Tensor(rng_map((1, 2, 3, 4), seed=9)), Tensor(np.zeros((1, 2))))
        np.testing.assert_allclose(out.data, 0.0)

    def test_elementwise_oracle(self):
        x = rng_map((3, 2, 4, 5), seed=10)
        s = rng_map((3, 2), seed=11)
        out = blocks.channel_scale(Tensor(x), Tensor(s))
        np.testing.assert_allclose(out.data, x * s[:, :, None, None], atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            blocks.channel_scale(Tensor(np.zeros((1, 2, 3, 4))), Tensor(np.ones((1, 3))))


class TestMultiDctContext:
    def test_k1_is_scaled_mean(self):
        m = Tensor(rng_map((1, 3, 4, 6), seed=12))
        ctx = blocks.MultiDctContext(4, 6, 1)(m)
        np.testing.assert_allclose(ctx.data, 4 * 6 * blocks.se_squeeze(m).data, atol=1e-10)

    def test_matches_brute_force(self):
        x = rng_map((1, 3, 4, 6), seed=13)
        got = blocks.MultiDctContext(4, 6, 4)(Tensor(x)).data
        want = np.array([[
            max(dct2_pool(x[0, c], grid) for grid in dct.basis_grids(4, 6, 4))
            for c in range(3)
        ]])
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_rescales_mismatched_extents(self):
        x = rng_map((1, 2, 8, 12), seed=14)
        got = blocks.MultiDctContext(4, 6, 3)(Tensor(x)).data
        want = np.array([[
            max(dct2_pool(adaptive_avg_pool(x[0, c], 4, 6), grid) for grid in dct.basis_grids(4, 6, 3))
            for c in range(2)
        ]])
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_toy_grid_matches_pool_then_project(self):
        # a stage-sized batch on the toy 4x13 grid; neither extent divides
        x = rng_map((40, 8, 16, 50), seed=17)
        got = blocks.MultiDctContext(4, 13, 4)(Tensor(x)).data
        want = np.array([[
            max(dct2_pool(adaptive_avg_pool(x[n, c], 4, 13), grid) for grid in dct.basis_grids(4, 13, 4))
            for c in range(8)
        ] for n in range(40)])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_off_grid_input_gradient(self):
        context = blocks.MultiDctContext(3, 4, 3)
        target = Tensor(rng_map((2, 5), seed=19))
        fn = lambda t: T.mul(context(t), target).sum()
        assert T.finite_diff_check(fn, Tensor(rng_map((2, 5, 7, 10), seed=18))) < 1e-6

    def test_empty_basis_rejected(self):
        # an empty set (K = 0), more grids than the grid has, or an empty grid
        for big_f, big_t, k in [(2, 2, 0), (2, 2, 5), (0, 3, 1)]:
            with pytest.raises(ValueError):
                blocks.MultiDctContext(big_f, big_t, k)


def tfe_oracle(x, ctx, params):
    """Direct numpy replay of the enhancement; returns (output, standardized
    scores per group) for invariant checks."""
    n, c, f, t = x.shape
    g, d = params.n_groups, params.group_dim
    xg = x.reshape(n, g, d, f, t)
    cg = ctx.reshape(n, g, d)
    out = np.empty_like(xg)
    hats = np.empty((n, g, f, t))
    for ni in range(n):
        for gi in range(g):
            unit = cg[ni, gi] / np.sqrt((cg[ni, gi] ** 2).sum() + blocks._NORM_GUARD_SQ)
            scores = np.einsum("d,dc,cft->ft", unit, params.mix.data[gi], xg[ni, gi])
            mu = scores.mean()
            sigma = np.sqrt(((scores - mu) ** 2).mean() + blocks._VAR_GUARD)
            hat = (scores - mu) / (sigma + blocks._STD_EPS)
            hats[ni, gi] = hat
            s = params.scale.data[gi] * hat + params.shift.data[gi]
            out[ni, gi] = xg[ni, gi] * (1 / (1 + np.exp(-s)))
    return out.reshape(n, c, f, t), hats


class TestTfeEnhance:
    def test_init_identity_damping(self):
        params = blocks.TfeParams(8, n_groups=4, rng=np.random.default_rng(15))
        x = rng_map((2, 8, 5, 6), seed=15)
        ctx = rng_map((2, 8), seed=16)
        out = blocks.tfe_enhance(Tensor(x), Tensor(ctx), params)
        np.testing.assert_allclose(out.data, 0.7310585786300049 * x, atol=1e-6)

    def test_matches_oracle_and_standardization(self):
        params = blocks.TfeParams(8, n_groups=2, scale_init=0.7, rng=np.random.default_rng(16))
        params.shift.data[...] = -0.3
        # large map values keep the score deviation far above eps, where the
        # standardized scores must have mean 0 and unit variance
        x = 100.0 * rng_map((2, 8, 6, 7), seed=17)
        ctx = rng_map((2, 8), seed=18)
        got = blocks.tfe_enhance(Tensor(x), Tensor(ctx), params).data
        want, hats = tfe_oracle(x, ctx, params)
        np.testing.assert_allclose(got, want, atol=1e-12)
        np.testing.assert_allclose(hats.mean(axis=(2, 3)), 0.0, atol=1e-10)
        np.testing.assert_allclose(hats.var(axis=(2, 3)), 1.0, atol=1e-6)

    def test_group_width_one_matches_oracle(self):
        """One channel per group, as at the toy net's first stage (C=8,
        8 groups): each score is the map itself times a signed scalar."""
        params = blocks.TfeParams(8, n_groups=8, scale_init=0.6, rng=np.random.default_rng(21))
        params.shift.data[...] = 0.4
        x = rng_map((2, 8, 4, 5), seed=22)
        ctx = rng_map((2, 8), seed=23)
        got = blocks.tfe_enhance(Tensor(x), Tensor(ctx), params).data
        want, _ = tfe_oracle(x, ctx, params)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_zero_context_group_is_benign(self):
        """A relu bottleneck can hand over an exactly-zero context; the
        enhancement must degrade to a uniform sigmoid(shift) gate."""
        params = blocks.TfeParams(4, n_groups=2, scale_init=0.5, rng=np.random.default_rng(30))
        params.shift.data[...] = 0.2
        x = rng_map((1, 4, 3, 4), seed=31)
        out = blocks.tfe_enhance(Tensor(x), Tensor(np.zeros((1, 4))), params)
        np.testing.assert_allclose(out.data, x / (1 + np.exp(-0.2)), atol=1e-9)

    def test_group_divisibility(self):
        with pytest.raises(ShapeError):
            blocks.TfeParams(10, n_groups=4)


class TestGcmBlock:
    def test_gap_zero_transform_halves(self):
        block = blocks.GcmBlock(4, kind="se", transform="fc", reduction=2,
                                rng=np.random.default_rng(18))
        block.transform.w_in.data[:] = 0.0
        block.transform.w_out.data[:] = 0.0
        x = rng_map((1, 4, 3, 5), seed=21)
        out = block(Tensor(x))
        np.testing.assert_allclose(out.data, 0.5 * x, atol=1e-12)

    def test_attention_equals_gap_when_mlp_zeroed(self):
        rng_state = np.random.default_rng(19)
        att = blocks.GcmBlock(4, kind="att_gcm", transform="fc", reduction=2, attention_hidden=1,
                              rng=rng_state)
        att.context.proj.data[:] = 0.0
        att.context.proj_bias.data[:] = 0.0
        gap = blocks.GcmBlock(4, kind="se", transform="fc", reduction=2)
        gap.transform.w_in.data[:] = att.transform.w_in.data
        gap.transform.w_out.data[:] = att.transform.w_out.data
        x = Tensor(rng_map((2, 4, 5, 6), seed=22))
        np.testing.assert_allclose(att(x).data, gap(x).data, atol=1e-10)

    def test_tfe_tap_is_pre_sigmoid_context(self):
        """Golden composition: the enhancement consumes the transformed
        context before the gate squashes it."""
        block = blocks.GcmBlock(8, kind="se", transform="fc", reduction=4,
                                tfe=True, tfe_groups=4, tfe_scale_init=0.9,
                                rng=np.random.default_rng(20))
        x = Tensor(rng_map((1, 8, 4, 5), seed=23))
        got = block(x)

        ctx = blocks.se_squeeze(x)
        logits = block.transform.logits(ctx)
        scaled = blocks.channel_scale(x, T.sigmoid(logits))
        want = blocks.tfe_enhance(scaled, logits, block.tfe)
        np.testing.assert_allclose(got.data, want.data, atol=1e-14)

    @pytest.mark.parametrize("kind", CONTEXT_KINDS)
    @pytest.mark.parametrize("tfe", [False, True])
    def test_shape_preserved(self, kind, tfe):
        block = blocks.GcmBlock(8, kind=kind, transform="fc", reduction=4, attention_hidden=1,
                                dct_grid=(3, 4), dct_components=2, tfe=tfe,
                                tfe_groups=4, rng=np.random.default_rng(21))
        for shape in [(1, 8, 3, 4), (2, 8, 5, 9), (1, 8, 2, 2)]:
            out = block(Tensor(rng_map(shape, seed=24)))
            assert out.shape == shape

    @pytest.mark.parametrize("kind", ["att_gcm", "dct_gcm"])
    def test_kind_without_its_width_or_grid_fails(self, kind):
        """The caller gives the attention width and the DCT grid; the
        block picks neither."""
        with pytest.raises(TypeError):
            blocks.GcmBlock(8, kind=kind, reduction=4)

    def test_rank3_map_rejected(self):
        block = blocks.GcmBlock(8, kind="se", transform="fc", reduction=4,
                                rng=np.random.default_rng(21))
        with pytest.raises(ShapeError):
            block(Tensor(rng_map((8, 3, 4), seed=24)))

    @given(st.integers(2, 4), st.integers(2, 5), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_attenuation_bound(self, f, t, seed):
        rng = np.random.default_rng(seed)
        scale, shift = rng.normal(), rng.normal()
        block = blocks.GcmBlock(4, kind="att_gcm", transform="fc", reduction=2,
                                attention_hidden=1, tfe=True, tfe_groups=2,
                                tfe_scale_init=scale, rng=rng)
        block.tfe.shift.data[...] = shift
        x = rng.normal(size=(2, 4, f, t))
        out = block(Tensor(x))
        assert (np.abs(out.data) <= np.abs(x) + 1e-15).all()


class TestParameterCount:
    def test_attention_fc_closed_form(self):
        c, r, hidden = 32, 4, 32 // 8
        block = blocks.GcmBlock(c, kind="att_gcm", transform="fc", reduction=r,
                                attention_hidden=hidden, rng=np.random.default_rng(23))
        assert sum(p.size for _, p in block.named_parameters()) == \
            2 * c * c // r + hidden * (c + 2) + 1


class TestBlockGradients:
    @pytest.mark.parametrize("kind,transform,tfe", [
        pytest.param("se", "fc", False, id="gap-fc-False"),
        pytest.param("att_gcm", "fc", False, id="attention-fc-False"),
        pytest.param("att_gcm", "conv1d", False, id="attention-conv1d-False"),
        pytest.param("dct_gcm", "fc", False, id="multi_dct-fc-False"),
        pytest.param("att_gcm", "fc", True, id="attention-fc-True"),
        pytest.param("dct_gcm", "conv1d", True, id="multi_dct-conv1d-True"),
    ])
    def test_input_gradient(self, kind, transform, tfe):
        block = blocks.GcmBlock(8, kind=kind, transform=transform, reduction=4, attention_hidden=1,
                                dct_grid=(3, 4), dct_components=3, tfe=tfe, tfe_groups=4,
                                tfe_scale_init=0.5, rng=np.random.default_rng(24))
        x = rng_map((1, 8, 3, 4), seed=25)
        target = Tensor(rng_map((1, 8, 3, 4), seed=26))

        def fn(t):
            return T.mul(block(t), target).sum()

        assert T.finite_diff_check(fn, Tensor(x)) < 1e-4

    def test_all_parameter_gradients(self):
        block = blocks.GcmBlock(8, kind="att_gcm", transform="fc", reduction=4,
                                attention_hidden=1, tfe=True, tfe_groups=4, tfe_scale_init=0.3,
                                rng=np.random.default_rng(25))
        x = Tensor(rng_map((1, 8, 3, 4), seed=27))
        target = Tensor(rng_map((1, 8, 3, 4), seed=28))

        def loss():
            return T.mul(block(x), target).sum()

        errors = T.finite_diff_check_params(loss, block.named_parameters())
        for name, err in errors.items():
            assert err < 1e-4, f"{name}: {err}"
