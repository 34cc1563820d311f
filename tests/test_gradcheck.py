"""The staged full-network gradient oracle against the whole-network re-run
it replaces, its segment-input cache, planted faults, and the one loss call
per evaluation that the benchmark's tracer counts."""

import pytest

from tfctx import gradcheck, losses
from tfctx import tensor as T

# micro-network seeds of run_grad_checks(1234), (34) and (1); the second
# fails TOLERANCE on a correct engine (ROADMAP item 3), with the same error
# either way
MICRO_SEEDS = [1434, 234, 201]


def hex_errors(errors):
    return [(name, float(err).hex()) for name, err in errors.items()]


def single_closure_errors(seed):
    """The oracle before staging: every evaluation embeds from the input."""
    embedder, head, proto, x, labels = gradcheck.micro_network(seed)

    def loss():
        emb = embedder.embed(x, training=True)
        return losses.combined_loss(emb.reshape((2, 2, 6)), labels, head, proto)[0]

    named = embedder.named_parameters() + head.named_parameters() + proto.named_parameters()
    return T.finite_diff_check_params(loss, named)


@pytest.mark.parametrize("seed", MICRO_SEEDS)
def test_staged_oracle_matches_whole_network_rerun(seed):
    loss = gradcheck.full_network_loss(seed)
    staged = T.finite_diff_check_params(loss, loss.named_parameters())
    assert hex_errors(staged) == hex_errors(single_closure_errors(seed))

    # every segment's input got cached, and after the pass each still holds
    # the bytes a fresh unperturbed forward computes
    assert len(loss.inputs) == len(loss.segments)
    fresh = loss.inputs[0]
    with T.no_grad():
        for cached, segment in zip(loss.inputs[1:], loss.segments):
            fresh = segment(fresh)
            assert cached.data.tobytes() == fresh.data.tobytes()


def scaled_vjp(t, factor=17.0):
    """Identity whose VJP passes back ``factor`` times the gradient."""
    def vjp(g):
        t._accumulate(g * factor)

    return T.Tensor._from_op(t.data, (t,), vjp)


@pytest.mark.parametrize("index", [0, -1], ids=["first", "last"])
def test_wrong_vjp_planted_in_a_segment_is_caught(index):
    loss = gradcheck.full_network_loss(1434)
    index %= len(loss.segments)
    own = [entry for entry in loss.named_parameters() if entry[2] == index]
    assert own
    assert max(T.finite_diff_check_params(loss, own).values()) < gradcheck.TOLERANCE

    segment = loss.segments[index]
    loss.segments[index] = T.Segment(segment.members(), lambda y: scaled_vjp(segment(y)))
    assert max(T.finite_diff_check_params(loss, own).values()) > gradcheck.TOLERANCE


def test_one_loss_call_per_evaluation(monkeypatch):
    """tfbench/tracer.py wraps the first positional argument of
    finite_diff_check_params in a pass-through that counts its calls as the
    benchmark's gradcheck.fd_evals; the full network makes one call per
    perturbed evaluation plus one analytic call, in one checker call."""
    checks, calls = [], []
    checker = T.finite_diff_check_params

    def traced(fn, *args, **kwargs):
        def counted(*a):
            calls.append(a)
            return fn(*a)

        checks.append(fn)
        return checker(counted, *args, **kwargs)

    monkeypatch.setattr(T, "finite_diff_check_params", traced)
    gradcheck._full_network_error(1434)
    entries = sum(p.data.size for _, p, _ in gradcheck.full_network_loss(1434).named_parameters())
    assert entries == 1011
    assert len(checks) == 1
    assert len(calls) == 2 * entries + 1
