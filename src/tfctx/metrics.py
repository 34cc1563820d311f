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


def _rates_at(thresholds: np.ndarray, target_scores: np.ndarray,
              nontarget_scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """FAR and FRR at each threshold; both score arrays must be sorted."""
    far = (nontarget_scores.size - np.searchsorted(nontarget_scores, thresholds, side="left")) \
        / nontarget_scores.size
    frr = np.searchsorted(target_scores, thresholds, side="left") / target_scores.size
    return far, frr


def _split_scores(trials: TrialSet, scores: np.ndarray):
    target = np.sort(scores[trials.labels == 1])
    nontarget = np.sort(scores[trials.labels == 0])
    return target, nontarget


def compute_eer(trials: TrialSet, scores) -> tuple[float, float]:
    """Equal error rate and its threshold.

    The sweep walks thresholds upward; FAR - FRR starts at +1 and ends at
    -1, so a sign change always exists. An exact zero gives the EER
    directly, otherwise the two straddling (FAR, FRR) points are joined and
    intersected with the FAR = FRR diagonal.
    """
    scores = _validate_scores(trials, scores)
    target, nontarget = _split_scores(trials, scores)
    thresholds = np.concatenate([np.unique(scores), [np.inf]])
    far, frr = _rates_at(thresholds, target, nontarget)
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


def compute_min_dcf(trials: TrialSet, scores, p_target: float = 0.01,
                    c_miss: float = 1.0, c_fa: float = 1.0) -> tuple[float, float]:
    """Minimum detection cost over observed thresholds plus both infinite
    sentinels, normalized by the better of the two default decisions."""
    scores = _validate_scores(trials, scores)
    target, nontarget = _split_scores(trials, scores)
    thresholds = np.concatenate([[-np.inf], np.unique(scores), [np.inf]])
    far, frr = _rates_at(thresholds, target, nontarget)
    dcf = c_miss * p_target * frr + c_fa * (1.0 - p_target) * far
    dcf /= min(c_miss * p_target, c_fa * (1.0 - p_target))
    i = int(np.argmin(dcf))
    return float(dcf[i]), float(thresholds[i])


def det_points(trials: TrialSet, scores) -> list[tuple[float, float]]:
    """(FAR, FRR) at every distinct observed score, by increasing
    threshold."""
    scores = _validate_scores(trials, scores)
    target, nontarget = _split_scores(trials, scores)
    thresholds = np.unique(scores)
    far, frr = _rates_at(thresholds, target, nontarget)
    return list(zip(far.tolist(), frr.tolist()))


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
    try:
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 3 or parts[0] not in ("0", "1"):
                    raise DataError(f"{path}:{line_no}: expected 'label(1|0) enroll_id test_id'")
                labels.append(int(parts[0]))
                enrolls.append(parts[1])
                tests.append(parts[2])
    except FileNotFoundError:
        raise DataError(f"trial list not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"trial list {path} is not UTF-8 text ({exc.reason})") from None
    if not labels:
        raise DataError(f"trial list is empty: {path}")
    return TrialSet(np.array(labels), tuple(enrolls), tuple(tests))


def write_scores(path: str, trials: TrialSet, scores) -> None:
    scores = np.asarray(scores, dtype=np.float64)
    with open(path, "w") as f:
        for enroll, test, score in zip(trials.enroll_ids, trials.test_ids, scores):
            f.write(f"{enroll} {test} {score:.10f}\n")


def read_scores(path: str) -> list[tuple[str, str, float]]:
    out = []
    try:
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 3:
                    raise DataError(f"{path}:{line_no}: expected 'enroll_id test_id score'")
                try:
                    out.append((parts[0], parts[1], float(parts[2])))
                except ValueError:
                    raise DataError(f"{path}:{line_no}: bad score {parts[2]!r}") from None
    except FileNotFoundError:
        raise DataError(f"score file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"score file {path} is not UTF-8 text ({exc.reason})") from None
    if not out:
        raise DataError(f"score file is empty: {path}")
    return out


def match_scores(trials: TrialSet, scored: list[tuple[str, str, float]]) -> np.ndarray:
    """Align a score file with a trial list by (enroll, test) id pair."""
    table = {(e, t): s for e, t, s in scored}
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
