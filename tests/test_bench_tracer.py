"""Smoke test of the benchmark's tracer (``tfbench/tracer.py``) against the
current package: it patches tfctx callables by name, so a renamed or
removed one fails here, and leaving the tracer must restore every one."""

import importlib.util
import os

import pytest

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
