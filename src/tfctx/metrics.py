"""Verification metrics over labelled trials: cosine scoring, equal error
rate, minimum normalized detection cost and DET operating points.

Conventions: a score threshold t accepts when score >= t, so
FAR(t) = fraction of nontargets >= t and FRR(t) = fraction of targets < t.
Thresholds sweep the observed scores (plus infinite sentinels where they
matter); when FAR and FRR never coincide exactly, the EER is linearly
interpolated between the two adjacent operating points that straddle the
crossing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .features import _read_records


@dataclass(frozen=True)
class TrialSet:
    """Labelled verification trials; labels are 1 for target, 0 otherwise."""

    labels: np.ndarray
    enroll_ids: tuple[str, ...]
    test_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.labels.size == 0:
            raise DataError("empty trial set")
        if not (len(self.enroll_ids) == len(self.test_ids) == self.labels.size):
            raise DataError("trial fields are not parallel")
        if not np.isin(self.labels, (0, 1)).all():
            raise DataError("trial labels must be 0 or 1")

    def __len__(self) -> int:
        return int(self.labels.size)


def _validate_scores(trials: TrialSet, scores) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (len(trials),):
        raise DataError(f"need one score per trial: {scores.shape} vs {len(trials)} trials")
    if not np.all(np.isfinite(scores)):
        raise DataError("scores contain non-finite values")
    if trials.labels.sum() == 0 or trials.labels.sum() == len(trials):
        raise DataError("need at least one target and one nontarget trial")
    return scores


def cosine_score(e1: np.ndarray, e2: np.ndarray) -> float:
    """Dot product of two unit-normalized embeddings."""
    e1 = np.asarray(e1, dtype=np.float64)
    e2 = np.asarray(e2, dtype=np.float64)
    if not np.any(e1) or not np.any(e2):
        raise ValueError("cosine scoring needs nonzero embeddings")
    return float(e1 @ e2)


def _operating_points(trials: TrialSet, scores: np.ndarray):
    """(thresholds, FAR, FRR) over the sweep ``[-inf, *unique(scores), inf]``,
    by increasing threshold, for validated scores."""
    target = np.sort(scores[trials.labels == 1])
    nontarget = np.sort(scores[trials.labels == 0])
    thresholds = np.concatenate([[-np.inf], np.unique(scores), [np.inf]])
    far = (nontarget.size - np.searchsorted(nontarget, thresholds, side="left")) / nontarget.size
    frr = np.searchsorted(target, thresholds, side="left") / target.size
    return thresholds, far, frr


def compute_eer(trials: TrialSet, scores) -> tuple[float, float]:
    """Equal error rate and its threshold.

    The sweep walks thresholds upward from the lowest observed score;
    FAR - FRR starts at +1 and ends at -1, so a sign change always exists.
    An exact zero gives the EER directly, otherwise the two straddling
    (FAR, FRR) points are joined and intersected with the FAR = FRR
    diagonal.
    """
    scores = _validate_scores(trials, scores)
    thresholds, far, frr = (a[1:] for a in _operating_points(trials, scores))
    diff = far - frr

    below = np.flatnonzero(diff <= 0.0)
    i = int(below[0])
    if diff[i] == 0.0:
        return float(far[i]), float(thresholds[i])
    # interpolate between point i-1 (diff > 0) and i (diff < 0)
    d1, d2 = diff[i - 1], diff[i]
    s = d1 / (d1 - d2)
    eer = float(far[i - 1] + s * (far[i] - far[i - 1]))
    t1, t2 = thresholds[i - 1], thresholds[i]
    threshold = float(t1) if np.isinf(t2) else float(t1 + s * (t2 - t1))
    return eer, threshold


# NIST SRE-style operating point of the normalized detection cost
P_TARGET = 0.01
C_MISS = 1.0
C_FA = 1.0


def compute_min_dcf(trials: TrialSet, scores) -> tuple[float, float]:
    """Minimum detection cost at (P_TARGET, C_MISS, C_FA) over observed
    thresholds plus both infinite sentinels, normalized by the better of
    the two default decisions."""
    scores = _validate_scores(trials, scores)
    thresholds, far, frr = _operating_points(trials, scores)
    dcf = C_MISS * P_TARGET * frr + C_FA * (1.0 - P_TARGET) * far
    dcf /= min(C_MISS * P_TARGET, C_FA * (1.0 - P_TARGET))
    i = int(np.argmin(dcf))
    return float(dcf[i]), float(thresholds[i])


def det_points(trials: TrialSet, scores) -> list[tuple[float, float]]:
    """(FAR, FRR) at every distinct observed score, by increasing
    threshold."""
    scores = _validate_scores(trials, scores)
    _, far, frr = _operating_points(trials, scores)
    return list(zip(far[1:-1].tolist(), frr[1:-1].tolist()))


# -- trial generation and file formats ---------------------------------------------


def sample_balanced_trials(ids_by_speaker: dict[str, list[str]], num_trials: int,
                           rng: np.random.Generator) -> TrialSet:
    """Equal numbers of same-speaker and cross-speaker pairs over the given
    utterance ids, without duplicate trials."""
    speakers = sorted(ids_by_speaker)
    if len(speakers) < 2:
        raise DataError("need at least two speakers for nontarget trials")
    half = num_trials // 2

    target_pool = [(a, b)
                   for spk in speakers
                   for idx, a in enumerate(ids_by_speaker[spk])
                   for b in ids_by_speaker[spk][idx + 1:]]
    if len(target_pool) < half:
        raise DataError(f"only {len(target_pool)} same-speaker pairs available, need {half}")
    chosen = rng.choice(len(target_pool), size=half, replace=False)
    labels, enrolls, tests = [], [], []
    for idx in chosen:
        a, b = target_pool[int(idx)]
        labels.append(1)
        enrolls.append(a)
        tests.append(b)

    seen = set()
    attempts = 0
    while len(seen) < num_trials - half:
        attempts += 1
        if attempts > 100 * num_trials:
            raise DataError("could not sample enough distinct nontarget pairs")
        sa, sb = rng.choice(len(speakers), size=2, replace=False)
        a = ids_by_speaker[speakers[int(sa)]][int(rng.integers(len(ids_by_speaker[speakers[int(sa)]])))]
        b = ids_by_speaker[speakers[int(sb)]][int(rng.integers(len(ids_by_speaker[speakers[int(sb)]])))]
        if (a, b) in seen:
            continue
        seen.add((a, b))
        labels.append(0)
        enrolls.append(a)
        tests.append(b)
    return TrialSet(np.array(labels), tuple(enrolls), tuple(tests))


def write_trials(path: str, trials: TrialSet) -> None:
    with open(path, "w") as f:
        for label, enroll, test in zip(trials.labels, trials.enroll_ids, trials.test_ids):
            f.write(f"{int(label)} {enroll} {test}\n")


def read_trials(path: str) -> TrialSet:
    labels, enrolls, tests = [], [], []
    for line_no, fields in _read_records(path, "trial list"):
        if len(fields) != 3 or fields[0] not in ("0", "1"):
            raise DataError(f"{path}:{line_no}: expected 'label(1|0) enroll_id test_id'")
        labels.append(int(fields[0]))
        enrolls.append(fields[1])
        tests.append(fields[2])
    return TrialSet(np.array(labels), tuple(enrolls), tuple(tests))


def write_scores(path: str, trials: TrialSet, scores) -> None:
    scores = np.asarray(scores, dtype=np.float64)
    with open(path, "w") as f:
        for enroll, test, score in zip(trials.enroll_ids, trials.test_ids, scores):
            f.write(f"{enroll} {test} {score:.10f}\n")


def read_scores(path: str) -> list[tuple[str, str, float]]:
    out = []
    for line_no, fields in _read_records(path, "score file"):
        if len(fields) != 3:
            raise DataError(f"{path}:{line_no}: expected 'enroll_id test_id score'")
        try:
            out.append((fields[0], fields[1], float(fields[2])))
        except ValueError:
            raise DataError(f"{path}:{line_no}: bad score {fields[2]!r}") from None
    return out


def match_scores(trials: TrialSet, scored: list[tuple[str, str, float]]) -> np.ndarray:
    """Align a score file with a trial list by (enroll, test) id pair; a
    pair may repeat, but two different scores for one are a DataError."""
    table = {}
    for e, t, s in scored:
        if table.setdefault((e, t), s) != s:
            raise DataError(f"two different scores for trial ({e}, {t}): {table[(e, t)]} and {s}")
    out = np.empty(len(trials))
    for i, (e, t) in enumerate(zip(trials.enroll_ids, trials.test_ids)):
        if (e, t) not in table:
            raise DataError(f"no score for trial ({e}, {t})")
        out[i] = table[(e, t)]
    return out


def format_report(eer: float, min_dcf: float, thr_eer: float, thr_dcf: float) -> str:
    return f"EER={eer:.6f} minDCF={min_dcf:.6f} thr_eer={thr_eer:.6f} thr_dcf={thr_dcf:.6f}"


def write_det_csv(path: str, points: list[tuple[float, float]]) -> None:
    with open(path, "w") as f:
        f.write("far,frr\n")
        for far, frr in points:
            f.write(f"{far:.10g},{frr:.10g}\n")


def score_report(trials: TrialSet, scores, out_dir: str | None = None) -> tuple[str, float, float]:
    """EER, minDCF and their report line; with ``out_dir``, also writes
    report.txt and det.csv there. Returns (report_line, eer, min_dcf)."""
    eer, thr_eer = compute_eer(trials, scores)
    dcf, thr_dcf = compute_min_dcf(trials, scores)
    report = format_report(eer, dcf, thr_eer, thr_dcf)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.txt"), "w") as f:
            f.write(report + "\n")
        write_det_csv(os.path.join(out_dir, "det.csv"), det_points(trials, scores))
    return report, eer, dcf
