"""Smoke test of the benchmark's tracer (``tfbench/tracer.py``) against the
current package: it patches tfctx callables by name, so a renamed or
removed one fails here, and leaving the tracer must restore every one. It
also reads layers by attribute name, so every traced layer of an embedder
must get a scope."""

import importlib.util
import os

import numpy as np
import pytest

from tfctx import backbone, blocks
from tfctx.tensor import Tensor

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "tfbench", "tracer.py")


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("tfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_enter_and_exit_restore_every_patched_attribute(tracer_module):
    tr = tracer_module.Tracer()
    with tr:
        patched = list(tr._patches)
        assert patched
        for owner, name, orig in patched:
            assert getattr(owner, name) is not orig, f"{owner.__name__}.{name} was not wrapped"
    assert not tr._patches
    for owner, name, orig in patched:
        assert getattr(owner, name) is orig, f"{owner.__name__}.{name} was not restored"
    names = {f"{owner.__name__.rsplit('.', 1)[-1]}.{name}" for owner, name, _ in patched}
    for expected in ("metrics.compute_eer", "metrics.det_points", "train.save_tensor",
                     "tensor.finite_diff_check_params", "GcmBlock.__call__"):
        assert expected in names


def reachable(root):
    """Every object reachable from root through instance attributes, lists
    and tuples; tensors are not entered."""
    seen, stack, out = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        out.append(obj)
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__") and not isinstance(obj, (type, Tensor)):
            stack.extend(vars(obj).values())
    return out


def test_every_traced_layer_of_an_embedder_gets_a_scope(tracer_module):
    def make_gcm(channels):
        return blocks.GcmBlock(channels, kind="att_gcm", reduction=2, attention_hidden=1,
                               tfe=True, tfe_groups=2, rng=np.random.default_rng(channels))

    tr = tracer_module.Tracer()
    with tr:
        embedder = backbone.Embedder(
            mel_bins=8, stage_channels=[2, 2, 4, 4], blocks_per_stage=[1, 2, 1, 1],
            stage_strides=[1, 2, 2, 1], stem_stride=(1, 1), embed_dim=4, asp_hidden=2,
            make_gcm=make_gcm, rng=np.random.default_rng(0))
    traced = (backbone.Conv2dLayer, backbone.BatchNormLayer, blocks.GcmBlock,
              backbone.AttentiveStatsPool)
    layers = [obj for obj in reachable(embedder) if isinstance(obj, traced)]
    for kind in traced:
        assert any(isinstance(layer, kind) for layer in layers), kind.__name__
    unscoped = [type(layer).__name__ for layer in layers if layer not in tr.scopes]
    assert not unscoped
