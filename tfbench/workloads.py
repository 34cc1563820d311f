"""The three workloads: set-up rounds, timed units and correctness checks.

Each workload drives tfctx only through its public entry points. A run
sets up ``SETUP_ROUNDS`` times, each time from nothing in a fresh
directory (corpus synthesis, feature extraction, model or checkpoint
construction and one warm-up unit), and reports the median round. Timed
units follow the last round. In traced mode units alternate between
traced and untraced, so that the tracing overhead is measured in one
process under the same machine load.
"""

from __future__ import annotations

import contextlib
import glob
import os
import resource
import shutil
import statistics
import time

import numpy as np

import checks
from tfctx import backbone, config, features, gradcheck, losses, metrics, optim, train
from tfctx.tensor import Tensor
from tracer import Tracer, per_layer_names, summarize

SETUP_ROUNDS = 3
END_TO_END = [("setup_s", "s"), ("items_per_s", "1/s"), ("unit_ms_p50", "ms"), ("peak_rss_mb", "MB")]


class _Stop(Exception):
    """Raised from the optimizer hook to end a training run early."""


@contextlib.contextmanager
def _patched(owner, name, wrap):
    orig = getattr(owner, name)
    setattr(owner, name, wrap(orig))
    try:
        yield
    finally:
        setattr(owner, name, orig)


class Clock:
    """Unit timer. In traced mode units are traced in the pattern ABBA
    (traced, untraced, untraced, traced, ...), which cancels a linear drift
    of the machine and does not alias with a workload that alternates two
    kinds of units. A run ends at the first unit boundary after ``seconds``
    (and, traced, after at least one unit of each kind)."""

    def __init__(self, seconds: float, tracer: Tracer, traced: bool):
        self.seconds = seconds
        self.tracer = tracer
        self.traced = traced
        self.units: list[tuple[float, float, bool]] = []  # wall s, cpu s, traced
        self._t0 = None

    def begin(self) -> None:
        now = time.perf_counter()
        if self._t0 is None:
            self._t0 = now
        self._start, self._cpu = now, time.process_time()
        self.tracer.active = self.traced and len(self.units) % 4 in (0, 3)
        self.tracer.begin_unit(now)

    def lap(self) -> bool:
        """Close the current unit; True when the run is over."""
        now, cpu = time.perf_counter(), time.process_time()
        self.tracer.end_unit(now - self._start)
        self.units.append((now - self._start, cpu - self._cpu, self.tracer.active))
        self.tracer.active = False
        return now - self._t0 >= self.seconds and (not self.traced or len(self.units) >= 2)


def _toy_config(seed: int, tiny: bool) -> config.RunConfig:
    """The acceptance suite's toy operating point (20 speakers per batch, DCT
    grid 4x13); tiny shrinks the network to the determinism test's size."""
    cfg = config.RunConfig()
    cfg.seed = seed
    cfg.train.speakers_per_batch = 20
    cfg.model.block.dct_grid = [4, 13]
    if tiny:
        cfg.model.stage_channels = [2, 2, 4, 4]
        cfg.model.blocks_per_stage = [1, 1, 1, 1]
        cfg.model.embed_dim = 8
        cfg.model.asp_hidden = 4
        cfg.model.block.reduction = 2
        cfg.model.block.tfe_groups = 2
    return cfg


def _synth(cfg: config.RunConfig) -> tuple[list[str], float]:
    """Training corpus plus manifest; returns (paths, seconds)."""
    t0 = time.perf_counter()
    d = cfg.data
    entries, _ = features.synth_dataset(d.data_dir, d.num_speakers, d.utts_per_speaker,
                                        d.duration_s, cfg.seed)
    features.write_manifest(os.path.join(d.data_dir, train.TRAIN_MANIFEST), entries)
    return [rel for _, rel in entries], time.perf_counter() - t0


def _extract(cfg: config.RunConfig, rels) -> float:
    t0 = time.perf_counter()
    train.load_features(cfg, rels)
    return time.perf_counter() - t0


def _drop_feature_cache(data_dir: str) -> None:
    for path in glob.glob(os.path.join(data_dir, "fbank_cache_*")):
        shutil.rmtree(path)


class TrainDctTfe:
    """train.train_run with DCT-GCM+TFE; a unit is one optimizer step, timed
    between successive returns of AdamW.step (so a unit that ends an epoch
    includes its checkpoint)."""

    name = "train_dct_tfe"
    # the second step is the first with two graphs alive at once, so it
    # still grows the heap; timed steps start after it
    WARM_STEPS = 2
    # epochs are two steps, so epoch 1 holds the first timed unit, which a
    # traced run traces
    COMPARED_CHECKPOINT = "checkpoint_epoch001.ckpt"
    GRAD_ENTRIES = 6
    FD_STEPS = (1e-5, 1e-6)

    def __init__(self, root: str, seed: int, tiny: bool, block=("dct_gcm", True)):
        self.root = root
        self.seed = seed
        cfg = _toy_config(seed, tiny)
        cfg.out_dir = os.path.join(root, "train")
        cfg.data.num_speakers = 3 if tiny else 20
        cfg.data.utts_per_speaker = 4
        cfg.data.duration_s = 2.0
        cfg.train.epochs = 10_000  # runs are cut by time, never by the schedule
        cfg.model.block.kind, cfg.model.block.tfe = block
        self.cfg = config.validate(cfg)
        self.items_per_unit = min(cfg.data.num_speakers, cfg.train.speakers_per_batch) \
            * cfg.train.utts_per_speaker_batch
        self.rounds: list[dict] = []
        self.failed = 0

    def _on_step(self):
        if self._phase == "setup":
            self._warm_steps += 1
            if self._warm_steps < self.WARM_STEPS:
                return
            self._round_end = time.perf_counter()
            if len(self.rounds) < SETUP_ROUNDS - 1:
                raise _Stop
            self._phase = "timed"
            self._clock.begin()
        elif self._phase == "timed":
            if self._clock.lap():
                raise _Stop
            self._clock.begin()
        elif os.path.exists(os.path.join(self._reference_dir, self.COMPARED_CHECKPOINT)):
            raise _Stop

    def _step_hook(self):
        def wrap(orig):
            def step(opt):
                orig(opt)
                self._on_step()
            return step
        return _patched(optim.AdamW, "step", wrap)

    def _train(self, out_dir: str) -> None:
        with self._step_hook():
            try:
                train.train_run(self.cfg, out_dir, quiet=True)
            except _Stop:
                pass

    def execute(self, clock: Clock) -> None:
        self._clock = clock
        for r in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            self.cfg.data.data_dir = os.path.join(self.root, f"train_data{r}")
            rels, synth_s = _synth(self.cfg)
            fbank_s = _extract(self.cfg, rels)
            self._phase, self._warm_steps = "setup", 0
            self.run_dir = os.path.join(self.root, f"train_run{r}")
            self._train(self.run_dir)
            self.rounds.append(dict(total_s=self._round_end - t0, synth_s=synth_s / len(rels),
                                    fbank_s=fbank_s / len(rels)))

    def check(self, traced: bool) -> list[str]:
        with open(os.path.join(self.run_dir, "train.log")) as f:
            totals = [float(line.split()[5]) for line in f if line.strip()]
        failures = checks.check_losses(totals)
        failures += self._check_gradients()
        if traced:
            self._phase = "reference"
            self._reference_dir = os.path.join(self.root, "train_reference")
            self._train(self._reference_dir)
            name = self.COMPARED_CHECKPOINT
            paths = [os.path.join(d, name) for d in (self.run_dir, self._reference_dir)]
            if not all(os.path.exists(p) for p in paths):
                return failures + [f"traced or reference run left no {name}"]
            with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
                failures += checks.check_same_bytes(f"traced and untraced {name}", a.read(), b.read())
        return failures

    def _check_gradients(self) -> list[str]:
        """Autodiff against central differences of the same forward at
        seeded entries of the epoch-0 checkpoint's parameters.

        Central differences equal the derivative only where the loss is
        smooth within the step; an entry whose differences at the two
        steps disagree has a relu or max kink there and is replaced by the
        next seeded entry.
        """
        ckpt = os.path.join(self.run_dir, "checkpoint_epoch000.ckpt")
        embedder, cfg = train.load_embedder(ckpt)
        _, arrays = backbone.load_checkpoint(ckpt)
        manifest = features.read_manifest(os.path.join(cfg.data.data_dir, train.TRAIN_MANIFEST))
        speakers = sorted({spk for spk, _ in manifest})
        head = losses.ClassifierHead(len(speakers), cfg.model.embed_dim)
        proto = losses.ProtoParams()
        named = embedder.named_parameters() + head.named_parameters() + proto.named_parameters()
        for name, p in named:
            p.data = arrays[name].copy()

        group = speakers[:4]
        rels = [[rel for spk, rel in manifest if spk == s][:2] for s in group]
        feats = train.load_features(cfg, [r for pair in rels for r in pair])
        x = Tensor(np.stack([features.chunk_frames(feats[r], cfg.features.chunk, "center")
                             for pair in rels for r in pair])[:, None])
        labels = [speakers.index(s) for s in group for _ in range(2)]

        def loss():
            emb = embedder.embed(x, training=True)
            grouped = emb.reshape((len(group), 2, cfg.model.embed_dim))
            return losses.combined_loss(grouped, labels, head, proto)[0]

        def central(p, i, h):
            orig = p.data[i]
            p.data[i] = orig + h
            up = loss().item()
            p.data[i] = orig - h
            down = loss().item()
            p.data[i] = orig
            return (up - down) / (2 * h)

        for _, p in named:
            p.grad = None
        loss().backward()
        grads = {n: np.zeros_like(p.data) if p.grad is None else p.grad.copy() for n, p in named}
        for _, p in named:
            p.requires_grad = False
        rng = np.random.default_rng(self.seed)
        analytic, numeric, kinks = {}, {}, 0
        while len(numeric) < self.GRAD_ENTRIES:
            if kinks >= self.GRAD_ENTRIES:
                return [f"{kinks} seeded entries hit a kink; gradients not checked"]
            name, p = named[int(rng.integers(len(named)))]
            i = np.unravel_index(int(rng.integers(p.size)), p.shape)
            coarse, fine = (central(p, i, h) for h in self.FD_STEPS)
            if abs(coarse - fine) / max(1.0, abs(coarse), abs(fine)) >= gradcheck.TOLERANCE:
                kinks += 1
                continue
            key = f"{name}{tuple(map(int, i))}"
            analytic[key], numeric[key] = float(grads[name][i]), fine
        return checks.check_gradients(analytic, numeric, gradcheck.TOLERANCE)


class EvalAttTfe:
    """What `tfctx eval` does on an unseen corpus with Att-GCM+TFE; a unit is
    one full evaluation with no feature cache present."""

    name = "eval_att_tfe"
    SAMPLED = 3

    def __init__(self, root: str, seed: int, tiny: bool):
        self.root = root
        self.seed = seed
        cfg = _toy_config(seed, tiny)
        cfg.data.num_speakers = 4 if tiny else 16
        cfg.data.utts_per_speaker = 1
        cfg.data.eval_utts_per_speaker = 3 if tiny else 5
        cfg.data.duration_s = 2.5 if tiny else 3.0  # longer than the 200-frame chunk
        cfg.data.num_trials = 12 if tiny else 300
        cfg.model.block.kind = "att_gcm"
        cfg.model.block.tfe = True
        self.cfg = config.validate(cfg)
        self.out_dir = os.path.join(root, "eval_out")
        self.rounds: list[dict] = []
        self.failed = 0

    def _unit(self) -> None:
        embedder, ckpt_cfg = train.load_embedder(self.ckpt)
        ckpt_cfg.data = self.cfg.data
        trials = metrics.read_trials(self.trials_path)
        self.result = train.evaluate_run(ckpt_cfg, embedder, trials, self.out_dir)

    def execute(self, clock: Clock) -> None:
        for r in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            d = self.cfg.data
            d.data_dir = os.path.join(self.root, f"eval_data{r}")
            train.synth_corpus(self.cfg, quiet=True)
            synth_s = time.perf_counter() - t0
            heldout = [rel for _, rel in features.read_manifest(
                os.path.join(d.data_dir, train.EVAL_MANIFEST))]
            fbank_s = _extract(self.cfg, heldout)
            _drop_feature_cache(d.data_dir)
            embedder = train.build_embedder(self.cfg, np.random.default_rng(self.seed))
            self.ckpt = os.path.join(self.root, f"eval{r}.ckpt")
            backbone.save_checkpoint(
                self.ckpt, [(n, p.data) for n, p in embedder.named_parameters()]
                + list(embedder.named_state()), config.to_dict(self.cfg))
            self.trials_path = os.path.join(d.data_dir, train.TRIALS_FILE)
            self._unit()
            synthesized = d.num_speakers * (d.utts_per_speaker + d.eval_utts_per_speaker)
            self.rounds.append(dict(total_s=time.perf_counter() - t0,
                                    synth_s=synth_s / synthesized,
                                    fbank_s=fbank_s / len(heldout)))
        trials = metrics.read_trials(self.trials_path)
        self.utts = sorted(set(trials.enroll_ids) | set(trials.test_ids))
        self.items_per_unit = len(self.utts)
        while True:
            _drop_feature_cache(self.cfg.data.data_dir)
            clock.begin()
            self._unit()
            if clock.lap():
                break

    def check(self, traced: bool) -> list[str]:
        _, eer, dcf, skipped = self.result
        failures = [f"trials skipped: {skipped}"] if skipped else []
        rng = np.random.default_rng(self.seed)
        sampled = [self.utts[int(i)] for i in rng.choice(len(self.utts), self.SAMPLED, replace=False)]
        f = self.cfg.features
        for rel in sampled:
            path = os.path.join(self.cfg.data.data_dir, rel)
            samples, rate = checks.read_pcm16(path)
            oracle = checks.logmel(samples, rate, f.n_mels, f.win_ms, f.hop_ms, f.fft_size,
                                   f.f_min, f.f_max, f.log_floor)
            got = features.compute_fbank(features.read_wav(path), train.fbank_config(self.cfg))
            failures += checks.check_fbank(rel, oracle, got)

        embedder, _ = train.load_embedder(self.ckpt)
        batched = train.extract_embeddings(self.cfg, embedder, self.utts)
        alone = {rel: train.extract_embeddings(self.cfg, embedder, [rel])[rel] for rel in sampled}
        failures += checks.check_embeddings(batched, alone)

        labels, scores = checks.read_labelled_scores(
            self.trials_path, os.path.join(self.out_dir, "scores.txt"))
        return failures + checks.check_scores(labels, scores, eer, dcf)


class GradCheck:
    """gradcheck.run_grad_checks, the `tfctx grad-check` and criterion-3
    suite; a unit is one full pass."""

    name = "gradcheck"
    # the suite's own seed: at some other seeds a relu/max kink falls inside
    # the central-difference step and the full-network entry fails
    SUITE_SEED = 1234

    def __init__(self, root: str, seed: int, tiny: bool):
        self.root = root
        self.seed = seed
        cfg = config.RunConfig()
        cfg.seed = seed
        # short utterances: the synthesizer's temporaries grow with duration
        # and would otherwise set this workload's peak RSS
        cfg.data.num_speakers = 2 if tiny else 16
        cfg.data.utts_per_speaker = 2 if tiny else 4
        cfg.data.duration_s = 0.5
        self.cfg = config.validate(cfg)
        self.full_network = not tiny
        self.expected = [name for name, _ in gradcheck.BLOCK_VARIANTS] \
            + ["loss_softmax_ce", "loss_angular_proto"] \
            + (["full_network"] if self.full_network else [])
        self.items_per_unit = len(self.expected)
        self.rounds: list[dict] = []
        self.reports: list[dict] = []
        self.failed = 0

    def execute(self, clock: Clock) -> None:
        for r in range(SETUP_ROUNDS):
            t0 = time.perf_counter()
            self.cfg.data.data_dir = os.path.join(self.root, f"gradcheck_data{r}")
            rels, synth_s = _synth(self.cfg)
            fbank_s = _extract(self.cfg, rels)
            # warm-up: the micro network's forward and backward, then every
            # block and loss check once
            embedder, head, proto, x, labels = gradcheck.micro_network(self.seed)
            emb = embedder.embed(x, training=True)
            grouped = emb.reshape((len(labels) // 2, 2, emb.shape[1]))
            losses.combined_loss(grouped, labels, head, proto)[0].backward()
            gradcheck.run_grad_checks(self.SUITE_SEED, include_full_network=False)
            self.rounds.append(dict(total_s=time.perf_counter() - t0, synth_s=synth_s / len(rels),
                                    fbank_s=fbank_s / len(rels)))
        while True:
            clock.begin()
            self.reports.append(gradcheck.run_grad_checks(self.SUITE_SEED,
                                                          include_full_network=self.full_network))
            if clock.lap():
                break

    def check(self, traced: bool) -> list[str]:
        failures = []
        for report in self.reports:
            failures += checks.check_report(report, self.expected, gradcheck.TOLERANCE)
            self.failed += sum(not report.get(n, np.inf) < gradcheck.TOLERANCE
                               for n in self.expected)
        return failures


WORKLOADS = {w.name: w for w in (TrainDctTfe, EvalAttTfe, GradCheck)}


def process_age() -> float:
    """Seconds since this process started (the kernel's start time)."""
    with open("/proc/self/stat") as f:
        stat = f.read()
    start_ticks = int(stat[stat.rindex(")") + 2:].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def run(name: str, root: str, seed: int, seconds: float, traced: bool, tiny: bool) -> dict:
    """One benchmark run; returns the result object that run.py prints."""
    import_s = process_age()
    workload = WORKLOADS[name](root, seed, tiny)
    tracer = Tracer()
    clock = Clock(seconds, tracer, traced)
    with tracer:
        workload.execute(clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = workload.check(traced)
    bwd = tracer.replay_backward(seed=seed) if traced else {}

    walls = [w for w, _, t in clock.units if not t]
    if traced:
        values = summarize(tracer.units, bwd)
        values["setup.synth_ms_per_utt"] = statistics.median(
            r["synth_s"] for r in workload.rounds) * 1e3
        values["setup.fbank_ms_per_utt"] = statistics.median(
            r["fbank_s"] for r in workload.rounds) * 1e3
        values["unit_cpu_ms_p50"] = statistics.median(c for _, c, t in clock.units if not t) * 1e3
        values["trace.overhead_ms"] = (statistics.median(w for w, _, t in clock.units if t)
                                       - statistics.median(walls)) * 1e3
        names = [(n, unit) for n, unit, _ in per_layer_names()]
    else:
        values = {
            "setup_s": import_s + statistics.median(r["total_s"] for r in workload.rounds),
            "items_per_s": workload.items_per_unit * len(walls) / sum(walls),
            "unit_ms_p50": statistics.median(walls) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        names = END_TO_END
    return {
        "failures": failures,
        "correct": not failures,
        "attempted": workload.items_per_unit * len(clock.units),
        "failed": workload.failed,
        "metrics": {n: {"value": float(values[n]), "unit": unit} for n, unit in names},
    }
