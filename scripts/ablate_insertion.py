#!/usr/bin/env python3
"""Insertion-position ablation: train the attention+TFE variant with the
context block placed after the batch norm, before it, or before the first
convolution of each residual branch, and compare EER/minDCF. Uses the toy
preset (``config.toy_preset``) and the train-and-score loop of
toy_sweep.py.

    python scripts/ablate_insertion.py --workdir runs/ablate --epochs 7
"""

import argparse
import os

from tfctx import config
from toy_sweep import prepare_corpus, train_and_score, variant_config

POSITIONS = ("after_bn", "before_bn", "before_conv")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="runs/ablate")
    parser.add_argument("--epochs", type=int, default=7)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    trials = prepare_corpus(variant_config(args.workdir, "att_gcm_tfe", args.epochs, args.seed))
    print(f"{'position':12s} {'train':>8s} {'EER':>8s} {'minDCF':>8s}")
    for position in POSITIONS:
        cfg = variant_config(args.workdir, "att_gcm_tfe", args.epochs, args.seed)
        cfg.out_dir = os.path.join(args.workdir, position)
        cfg.model.block.insertion = position
        elapsed, eer, dcf = train_and_score(config.validate(cfg), trials)
        print(f"{position:12s} {elapsed:7.1f}s {100 * eer:7.2f}% {dcf:8.4f}")


if __name__ == "__main__":
    main()
