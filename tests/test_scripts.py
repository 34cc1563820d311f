"""Smoke test of the sweep scripts: they import and build valid configs,
and train nothing."""

import os

import pytest

from tfctx import backbone, config
from tfctx.errors import ConfigError

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.fixture
def scripts(monkeypatch):
    # ablate_insertion imports toy_sweep as a sibling module, as when run
    # from the scripts directory
    monkeypatch.syspath_prepend(SCRIPTS)
    import ablate_insertion
    import toy_sweep
    return toy_sweep, ablate_insertion


@pytest.mark.parametrize("name", sorted(config.TOY_VARIANTS))
def test_variant_config_validates(scripts, tmp_path, name):
    toy_sweep, _ = scripts
    cfg = toy_sweep.variant_config(str(tmp_path), name, 1, 3)
    config.validate(cfg)
    assert (cfg.model.block.kind, cfg.model.block.tfe) == config.TOY_VARIANTS[name]
    assert cfg.out_dir == os.path.join(str(tmp_path), name)


def test_ablation_positions_are_the_valid_insertions(scripts):
    _, ablate_insertion = scripts
    accepted = []
    for position in backbone.INSERTION_POSITIONS:
        cfg = config.toy_preset("att_gcm_tfe")
        cfg.model.block.insertion = position
        try:
            config.validate(cfg)
        except ConfigError:
            continue
        accepted.append(position)
    assert ablate_insertion.POSITIONS == tuple(accepted)
