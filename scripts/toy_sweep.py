#!/usr/bin/env python3
"""Train and score every context-block variant on the synthetic corpus.

Builds the corpus once, trains SE / attention / attention+TFE / DCT /
DCT+TFE embedders with a shared seed and prints an EER/minDCF table.
Run from the repo root:

    python scripts/toy_sweep.py --workdir runs/sweep --epochs 7
"""

import argparse
import os
import sys
import time

from tfctx import config, metrics, train

def variant_config(workdir, name, epochs, seed):
    """The toy preset of one variant, trained under workdir/<name> on the
    corpus in workdir/data."""
    cfg = config.toy_preset(name)
    cfg.seed = seed
    cfg.out_dir = os.path.join(workdir, name)
    cfg.data.data_dir = os.path.join(workdir, "data")
    cfg.train.epochs = epochs
    return config.validate(cfg)


def prepare_corpus(cfg):
    """Synthesize the corpus under cfg.data.data_dir unless it is there;
    returns its trial list."""
    if not os.path.exists(os.path.join(cfg.data.data_dir, train.TRAIN_MANIFEST)):
        print("synthesizing corpus ...")
        train.synth_corpus(cfg)
    return metrics.read_trials(os.path.join(cfg.data.data_dir, train.TRIALS_FILE))


def train_and_score(cfg, trials):
    """Train cfg into cfg.out_dir and score its final checkpoint on the
    trials; returns (train seconds, EER, minDCF)."""
    t0 = time.time()
    ckpt = train.train_run(cfg, cfg.out_dir, quiet=True)
    elapsed = time.time() - t0
    embedder, ckpt_cfg = train.load_embedder(ckpt)
    _, eer, dcf, skipped = train.evaluate_run(ckpt_cfg, embedder, trials,
                                              os.path.join(cfg.out_dir, "eval"))
    if skipped:
        print(f"warning: {len(skipped)} utterances missing", file=sys.stderr)
    return elapsed, eer, dcf


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="runs/sweep")
    parser.add_argument("--epochs", type=int, default=7)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    trials = prepare_corpus(variant_config(args.workdir, "se", args.epochs, args.seed))
    print(f"{'variant':14s} {'train':>8s} {'EER':>8s} {'minDCF':>8s}")
    results = {}
    for name in config.TOY_VARIANTS:
        cfg = variant_config(args.workdir, name, args.epochs, args.seed)
        elapsed, eer, dcf = train_and_score(cfg, trials)
        results[name] = eer
        print(f"{name:14s} {elapsed:7.1f}s {100 * eer:7.2f}% {dcf:8.4f}")

    ordering = " < ".join(sorted(results, key=results.get))
    print(f"\nEER ordering (toy scale, not statistically meaningful): {ordering}")


if __name__ == "__main__":
    main()
