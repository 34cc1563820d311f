"""Training and evaluation pipeline glueing features, model, losses and
metrics together, driven by a RunConfig.

Everything is deterministic under the config seed: parameter init, batch
composition and chunk offsets all derive from one generator, and
evaluation embeds center chunks with frozen parameters.
"""

from __future__ import annotations

import copy
import dataclasses
import glob
import json
import os
import time
from typing import NamedTuple

import numpy as np

from . import backbone, blocks, features, losses, metrics, optim
from .config import TOY_VARIANTS, RunConfig, from_dict, to_dict, validate
from .errors import ConfigError, DataError, NumericalError
# save_tensor is unused here, but tfbench's tracer patches train.save_tensor by name
from .tensor import Tensor, save_tensor

TRAIN_MANIFEST = "train_manifest.txt"
EVAL_MANIFEST = "eval_manifest.txt"
TRIALS_FILE = "trials.txt"
CORPUS_FILE = "corpus.json"


def make_gcm_factory(cfg: RunConfig, rng: np.random.Generator):
    """The config's context-block constructor, or None for no blocks. A DCT
    block's grid is the last stage's map for a ``chunk``-frame input."""
    m, b = cfg.model, cfg.model.block
    if b.kind == "none":
        return None
    grid = tuple(backbone.final_extent(n, stem, m.stage_strides, m.blocks_per_stage)
                 for n, stem in zip((cfg.features.n_mels, cfg.features.chunk), m.stem_stride))

    def factory(channels: int) -> blocks.GcmBlock:
        hidden = max(1, int(round(channels * b.attention_hidden_ratio)))
        return blocks.GcmBlock(
            channels, kind=b.kind, transform=b.transform, reduction=b.reduction,
            attention_hidden=hidden, dct_components=b.dct_components,
            dct_grid=grid, tfe=b.tfe, tfe_groups=b.tfe_groups, rng=rng)

    return factory


# what the constructors raise on a value they cannot build from
_BUILD_ERRORS = (ArithmeticError, TypeError, ValueError)


def build_embedder(cfg: RunConfig, rng: np.random.Generator) -> backbone.Embedder:
    """The config's model; a value it cannot be built from is a ConfigError."""
    m = cfg.model
    try:
        return backbone.Embedder(
            mel_bins=cfg.features.n_mels, stage_channels=list(m.stage_channels),
            blocks_per_stage=list(m.blocks_per_stage), stage_strides=list(m.stage_strides),
            stem_stride=tuple(m.stem_stride), embed_dim=m.embed_dim, asp_hidden=m.asp_hidden,
            make_gcm=make_gcm_factory(cfg, rng), insertion=m.block.insertion,
            gcm_stages=m.block.stages, rng=rng)
    except _BUILD_ERRORS as exc:
        raise ConfigError(f"model: {exc}") from exc


def fbank_config(cfg: RunConfig) -> features.FbankConfig:
    """The config's filterbank settings, checked again, since a section
    changed after loading is not; invalid ones are a ConfigError."""
    try:
        return dataclasses.replace(cfg.features)
    except _BUILD_ERRORS as exc:
        raise ConfigError(f"features: {exc}") from exc


def load_features(cfg: RunConfig, rel_paths) -> dict[str, np.ndarray]:
    """Mean-normalized (n_mels, T) features of each unique relative path,
    computed from its wav."""
    fb_cfg = fbank_config(cfg)
    out = {}
    for rel in rel_paths:
        if rel not in out:
            wav = features.read_wav(os.path.join(cfg.data.data_dir, rel))
            out[rel] = features.mean_normalize(features.compute_fbank(wav, fb_cfg))
    return out


def _batches(entries, speakers_per_batch: int, m: int, rng: np.random.Generator):
    """One epoch of batches: every speaker's utterances shuffled and paired,
    rounds of shuffled speakers split into groups; a group smaller than two
    speakers is dropped (the prototypical loss needs competition)."""
    by_spk: dict[str, list[str]] = {}
    for spk, rel in entries:
        by_spk.setdefault(spk, []).append(rel)
    speakers = sorted(by_spk)
    pair_lists = {}
    for spk in speakers:
        utts = list(by_spk[spk])
        perm = rng.permutation(len(utts))
        shuffled = [utts[i] for i in perm]
        pair_lists[spk] = [shuffled[i: i + m] for i in range(0, len(shuffled) - m + 1, m)]
    rounds = max(len(p) for p in pair_lists.values())
    for r in range(rounds):
        avail = [spk for spk in speakers if len(pair_lists[spk]) > r]
        order = rng.permutation(len(avail))
        shuffled_spk = [avail[i] for i in order]
        for i in range(0, len(shuffled_spk), speakers_per_batch):
            group = shuffled_spk[i: i + speakers_per_batch]
            if len(group) >= 2:
                yield [(spk, pair_lists[spk][r]) for spk in group]


def _corpus_fields(cfg: RunConfig) -> dict:
    """The settings a synthesized corpus is made from, by config path: the
    data section without ``data_dir``, the sample rate and the seed."""
    fields = {f"data.{k}": v for k, v in dataclasses.asdict(cfg.data).items() if k != "data_dir"}
    fields["features.sample_rate"] = cfg.features.sample_rate
    fields["seed"] = cfg.seed
    return fields


def _check_corpus(cfg: RunConfig) -> None:
    """DataError if the corpus in data_dir was synthesized with other
    settings than the config's. The seed is not compared, so that several
    seeds can train on one corpus; a corpus without CORPUS_FILE passes."""
    path = os.path.join(cfg.data.data_dir, CORPUS_FILE)
    try:
        with open(path) as f:
            recorded = json.load(f)
    except FileNotFoundError:
        return
    except ValueError as exc:
        raise DataError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(recorded, dict):
        raise DataError(f"{path}: expected an object")
    wrong = [f"{k} {recorded.get(k)!r} (config: {v!r})"
             for k, v in _corpus_fields(cfg).items() if k != "seed" and recorded.get(k) != v]
    if wrong:
        raise DataError(f"the corpus in {cfg.data.data_dir} does not match the config: "
                        + ", ".join(wrong))


def train_run(cfg: RunConfig, out_dir: str, quiet: bool = False) -> str:
    """Train per the config; returns the final checkpoint path. Writes
    train.log and one checkpoint per epoch into out_dir, replacing an
    earlier run's log and removing its checkpoints. A non-finite loss or
    gradient aborts with a NumericalError naming this run's last checkpoint,
    if any. The model and the filterbank are built, and the corpus checked
    against the config, before any audio is read."""
    fbank_config(cfg)
    rng = np.random.default_rng(cfg.seed)
    embedder = build_embedder(cfg, rng)
    _check_corpus(cfg)
    manifest = features.read_manifest(os.path.join(cfg.data.data_dir, TRAIN_MANIFEST))
    speakers = sorted({spk for spk, _ in manifest})
    if len(speakers) < 2:
        raise DataError("training needs at least two speakers in the manifest")
    spk_index = {spk: i for i, spk in enumerate(speakers)}
    feats = load_features(cfg, [rel for _, rel in manifest])

    head = losses.ClassifierHead(len(speakers), cfg.model.embed_dim, rng)
    proto = losses.ProtoParams()

    named = embedder.named_parameters() + head.named_parameters() + proto.named_parameters()
    tr = cfg.train
    opt = optim.AdamW(named, lr=tr.base_lr)

    m = tr.utts_per_speaker_batch
    chunk = cfg.features.chunk
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "train.log")
    final_path = os.path.join(out_dir, "checkpoint.ckpt")
    config_doc = to_dict(cfg)
    # an earlier run's checkpoints would pass for this run's
    for name in glob.glob("checkpoint*.ckpt", root_dir=out_dir):
        if name == "checkpoint.ckpt" or name.startswith("checkpoint_epoch"):
            os.remove(os.path.join(out_dir, name))

    def save(path):
        entries = [(n, p.data) for n, p in named] + list(embedder.named_state())
        backbone.save_checkpoint(path, entries, config_doc)

    saved = None
    try:
        with open(log_path, "w") as log:
            step = 0
            last = None
            for epoch in range(tr.epochs):
                lr = optim.lr_schedule(epoch, tr)
                opt.lr = lr
                for batch in _batches(manifest, tr.speakers_per_batch, m, rng):
                    maps = np.stack([
                        features.chunk_frames(feats[rel], chunk, "random", rng)
                        for _, pair in batch for rel in pair
                    ])
                    labels = [spk_index[spk] for spk, pair in batch for _ in pair]
                    x = Tensor(maps[:, None, :, :])

                    emb = embedder.embed(x, training=True)
                    grouped = emb.reshape((len(batch), m, cfg.model.embed_dim))
                    total, ce, pl = losses.combined_loss(grouped, labels, head, proto)

                    opt.zero_grad()
                    total.backward()
                    opt.step()
                    proto.clamp_()

                    step += 1
                    last = (total.item(), ce, pl)
                    log.write(f"{epoch} {step} {lr:.8g} {ce:.8g} {pl:.8g} {last[0]:.8g}\n")
                    log.flush()
                if step == 0:
                    raise DataError("manifest cannot form a single batch "
                                    f"({m} utterances per speaker needed)")
                saved = os.path.join(out_dir, f"checkpoint_epoch{epoch:03d}.ckpt")
                save(saved)
                if not quiet:
                    print(f"epoch {epoch}: lr={lr:.3g} loss={last[0]:.4f} "
                          f"(ce={last[1]:.4f} proto={last[2]:.4f})")
    except NumericalError as exc:
        kept = f"last good checkpoint: {saved}" if saved else "this run wrote no checkpoint"
        raise NumericalError(f"training aborted: {exc}; {kept}") from None
    save(final_path)
    return final_path


def load_embedder(checkpoint_path: str) -> tuple[backbone.Embedder, RunConfig]:
    """The embedder a checkpoint holds, and the config embedded in it. An
    embedded config that is invalid or cannot build the model means a
    damaged checkpoint, so it is a DataError."""
    doc, arrays = backbone.load_checkpoint(checkpoint_path)
    try:
        cfg = from_dict(doc)
        embedder = build_embedder(cfg, np.random.default_rng(cfg.seed))
    except ConfigError as exc:
        raise DataError(f"{checkpoint_path}: damaged embedded config: {exc}") from None
    # the checkpoint also holds the training heads; load_arrays checks the rest
    names = {n for n, _ in embedder.named_parameters() + embedder.named_state()}
    embedder.load_arrays({n: a for n, a in arrays.items() if n in names})
    return embedder, cfg


# utterances per eval-mode forward pass
EMBED_BATCH = 32


def extract_embeddings(cfg: RunConfig, embedder: backbone.Embedder,
                       rel_paths) -> dict[str, np.ndarray]:
    """Frozen-parameter center-chunk embeddings for each unique path."""
    unique = sorted(set(rel_paths))
    feats = load_features(cfg, unique)
    chunk = cfg.features.chunk
    out = {}
    for i in range(0, len(unique), EMBED_BATCH):
        group = unique[i: i + EMBED_BATCH]
        maps = np.stack([features.chunk_frames(feats[rel], chunk, "center") for rel in group])
        emb = embedder.embed(Tensor(maps[:, None, :, :]), training=False)
        for rel, vec in zip(group, emb.data):
            out[rel] = vec.copy()
    return out


def evaluate_run(cfg: RunConfig, embedder: backbone.Embedder, trials: metrics.TrialSet,
                 out_dir: str):
    """Score the trial list; returns (report_line, eer, min_dcf, skipped_ids).

    Trials whose audio is missing are reported and skipped; the remaining
    trials are scored by cosine between center-chunk embeddings.
    """
    os.makedirs(out_dir, exist_ok=True)
    wanted = set(trials.enroll_ids) | set(trials.test_ids)
    present, skipped = [], []
    for rel in sorted(wanted):
        (present if os.path.exists(os.path.join(cfg.data.data_dir, rel)) else skipped).append(rel)
    if skipped:
        keep = [i for i in range(len(trials))
                if trials.enroll_ids[i] not in skipped and trials.test_ids[i] not in skipped]
        if not keep:
            raise DataError("every trial references missing audio")
        trials = metrics.TrialSet(trials.labels[keep],
                                  tuple(trials.enroll_ids[i] for i in keep),
                                  tuple(trials.test_ids[i] for i in keep))
    embeddings = extract_embeddings(cfg, embedder, present)
    scores = np.array([
        metrics.cosine_score(embeddings[e], embeddings[t])
        for e, t in zip(trials.enroll_ids, trials.test_ids)
    ])

    report, eer, dcf = metrics.score_report(trials, scores, out_dir)
    metrics.write_scores(os.path.join(out_dir, "scores.txt"), trials, scores)
    return report, eer, dcf, skipped


def synth_corpus(cfg: RunConfig, quiet: bool = False) -> None:
    """Deterministic corpus plus manifests, a balanced held-out trial list
    and CORPUS_FILE (the settings it was made from, which train_run checks)
    under cfg.data.data_dir. Trials are sampled first, before anything is written."""
    d = cfg.data
    _, heldout = features.corpus_entries(d.num_speakers, d.utts_per_speaker,
                                         d.eval_utts_per_speaker)
    ids_by_speaker: dict[str, list[str]] = {}
    for spk, rel in heldout:
        ids_by_speaker.setdefault(spk, []).append(rel)
    trials = metrics.sample_balanced_trials(ids_by_speaker, d.num_trials,
                                            np.random.default_rng(cfg.seed + 1))
    train, heldout = features.synth_dataset(
        d.data_dir, d.num_speakers, d.utts_per_speaker, d.duration_s,
        cfg.seed, d.eval_utts_per_speaker, cfg.features.sample_rate)
    features.write_manifest(os.path.join(d.data_dir, TRAIN_MANIFEST), train)
    features.write_manifest(os.path.join(d.data_dir, EVAL_MANIFEST), heldout)
    metrics.write_trials(os.path.join(d.data_dir, TRIALS_FILE), trials)
    with open(os.path.join(d.data_dir, CORPUS_FILE), "w") as f:
        json.dump(_corpus_fields(cfg), f, indent=1)
    if not quiet:
        print(f"wrote {len(train)} training and {len(heldout)} held-out utterances, "
              f"{len(trials)} trials under {d.data_dir}")


class SweepRow(NamedTuple):
    name: str  # <variant>_<insertion>, also the run's directory under the sweep's out_dir
    train_s: float
    eer: float
    min_dcf: float
    report: str
    skipped: list[str]


def sweep(base: RunConfig, variants, insertions, quiet: bool = False) -> list[SweepRow]:
    """Train and score one run per (variant, insertion) pair on the base
    config's corpus, synthesizing the corpus first if its train manifest is
    missing; prints the table of results unless quiet. Every run's model
    and filterbank are built first, so a run that cannot be built is a
    ConfigError before anything is written.

    Variants are names in ``config.TOY_VARIANTS``, which set the block kind
    and TFE on a copy of the base; everything else comes from the base.
    Each run trains into ``<base.out_dir>/<variant>_<insertion>`` and is
    scored on the corpus trial list into its ``eval`` subdirectory.
    """
    runs = []
    for variant in variants:
        for insertion in insertions:
            cfg = copy.deepcopy(base)
            cfg.model.block.kind, cfg.model.block.tfe = TOY_VARIANTS[variant]
            cfg.model.block.insertion = insertion
            cfg.out_dir = os.path.join(base.out_dir, f"{variant}_{insertion}")
            # train_run's prelude, for its ConfigError only
            fbank_config(validate(cfg))
            build_embedder(cfg, np.random.default_rng(cfg.seed))
            runs.append(cfg)
    if not os.path.exists(os.path.join(base.data.data_dir, TRAIN_MANIFEST)):
        synth_corpus(base, quiet=quiet)
    trials = metrics.read_trials(os.path.join(base.data.data_dir, TRIALS_FILE))

    if not quiet:
        print(f"{'run':24s} {'train':>8s} {'EER':>8s} {'minDCF':>8s}")
    rows = []
    for cfg in runs:
        t0 = time.perf_counter()
        ckpt = train_run(cfg, cfg.out_dir, quiet=True)
        train_s = time.perf_counter() - t0
        embedder, ckpt_cfg = load_embedder(ckpt)
        report, eer, dcf, skipped = evaluate_run(ckpt_cfg, embedder, trials,
                                                 os.path.join(cfg.out_dir, "eval"))
        row = SweepRow(os.path.basename(cfg.out_dir), train_s, eer, dcf, report, skipped)
        rows.append(row)
        if not quiet:
            print(f"{row.name:24s} {train_s:7.1f}s {100 * eer:7.2f}% {dcf:8.4f}")
    return rows
