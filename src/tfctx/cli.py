"""Command-line entry point.

Subcommands: synth-data, train, eval, sweep, grad-check, export-dct, score.
Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure (non-finite loss or a failed gradient check).
"""

from __future__ import annotations

import argparse
import sys

from . import config as config_mod
from . import backbone, dct, gradcheck, metrics, train
from .errors import ConfigError, DataError, NumericalError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="tfctx", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, seed=True, out=True, checkpoint=False, trials=False):
        p.add_argument("--config", help="run-config JSON (defaults apply if omitted)")
        if seed:
            p.add_argument("--seed", type=int, help="override the config seed")
        if out:
            p.add_argument("--out", help="output directory (overrides config out_dir)")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="model checkpoint path")
        if trials:
            p.add_argument("--trials", required=True, help="trial list file")

    # synth-data writes only under data.data_dir; eval takes its seed from the checkpoint
    common(sub.add_parser("synth-data", help="generate the synthetic corpus, manifests and trials"),
           out=False)
    common(sub.add_parser("train", help="train an embedder on the synthetic corpus"))
    common(sub.add_parser("eval", help="score a trial list with a trained model"),
           seed=False, checkpoint=True, trials=True)

    p = sub.add_parser("sweep", help="train and score toy block variants at insertion positions")
    common(p)
    p.add_argument("--variants", nargs="+", choices=list(config_mod.TOY_VARIANTS),
                   default=list(config_mod.TOY_VARIANTS), help="toy variants (default: all)")
    p.add_argument("--insertions", nargs="+", choices=backbone.INSERTION_POSITIONS,
                   help="block insertion positions (default: the config's)")

    p = sub.add_parser("grad-check", help="complex-step check of every block, both losses and a micro network")
    p.add_argument("--seed", type=int, default=1234)

    p = sub.add_parser("export-dct", help="write DCT basis grids as CSV files")
    p.add_argument("--grid-f", type=int, default=8, help="frequency extent of the grid")
    p.add_argument("--grid-t", type=int, default=25, help="time extent of the grid")
    p.add_argument("--components", type=int, default=16, help="number of lowest components")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("score", help="compute EER/minDCF from existing score and trial files")
    p.add_argument("--trials", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--out", help="optional directory for report.txt and det.csv")
    return parser


def _load_config(args) -> config_mod.RunConfig:
    cfg = config_mod.load(args.config) if args.config else config_mod.RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    return cfg


def cmd_synth_data(args) -> int:
    cfg = _load_config(args)
    train.synth_corpus(cfg)
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args)
    print(f"checkpoint written to {train.train_run(cfg, cfg.out_dir)}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    embedder, ckpt_cfg = train.load_embedder(args.checkpoint)
    # the checkpoint owns the model/features; the caller picks data and output
    ckpt_cfg.data = cfg.data
    trials = metrics.read_trials(args.trials)
    report, _, _, skipped = train.evaluate_run(ckpt_cfg, embedder, trials, cfg.out_dir)
    print(report)
    if skipped:
        for rel in skipped:
            print(f"missing audio, trials skipped: {rel}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    rows = train.sweep(cfg, args.variants, args.insertions or [cfg.model.block.insertion])
    ordering = " < ".join(row.name for row in sorted(rows, key=lambda row: row.eer))
    print(f"\nEER ordering (toy scale, not statistically meaningful): {ordering}")
    skipped = sorted({rel for row in rows for rel in row.skipped})
    for rel in skipped:
        print(f"missing audio, trials skipped: {rel}", file=sys.stderr)
    return EXIT_DATA if skipped else EXIT_OK


def cmd_grad_check(args) -> int:
    report = gradcheck.run_grad_checks(seed=args.seed)
    width = max(len(n) for n in report)
    failed = False
    for name, err in report.items():
        ok = err < gradcheck.TOLERANCE
        failed |= not ok
        print(f"{name:<{width}}  max_rel_err={err:.3e}  {'PASS' if ok else 'FAIL'}")
    return EXIT_NUMERICAL if failed else EXIT_OK


def cmd_export_dct(args) -> int:
    try:
        paths = dct.export_basis_csv(args.grid_f, args.grid_t, args.components, args.out)
    except ValueError as exc:  # grid extents or component count out of range
        raise ConfigError(str(exc)) from None
    print(f"wrote {len(paths)} basis grids to {args.out}")
    return EXIT_OK


def cmd_score(args) -> int:
    trials = metrics.read_trials(args.trials)
    scores = metrics.match_scores(trials, metrics.read_scores(args.scores))
    report, _, _ = metrics.score_report(trials, scores, args.out)
    print(report)
    return EXIT_OK


_COMMANDS = {
    "synth-data": cmd_synth_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "grad-check": cmd_grad_check,
    "export-dct": cmd_export_dct,
    "score": cmd_score,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
