"""Correctness checks of the benchmark.

Every check compares the program's output with an oracle computed here,
apart from tfctx, or with a property the method must have. None compares
with a stored copy of earlier output. Each returns a list of failure
messages; an empty list is a pass.
"""

from __future__ import annotations

import math
import wave

import numpy as np

FBANK_ATOL = 1e-8  # log-energy units; both sides are float64
EMBED_ATOL = 1e-9
METRIC_ATOL = 1e-12


# -- log-mel filterbank oracle ----------------------------------------------------


def read_pcm16(path: str) -> tuple[np.ndarray, int]:
    with wave.open(path, "rb") as f:
        raw = f.readframes(f.getnframes())
        rate = f.getframerate()
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0, rate


def logmel(samples: np.ndarray, sample_rate: int, n_mels: int, win_ms: float, hop_ms: float,
           fft_size: int, f_min: float, f_max: float | None, log_floor: float) -> np.ndarray:
    """(n_mels, frames) log mel energies: explicit framing, Hamming window,
    |rfft|^2, triangular filters linear in Hz between HTK-mel-spaced
    corners, log with an absolute floor."""
    f_max = sample_rate / 2 if f_max is None else f_max
    win = int(round(sample_rate * win_ms / 1000.0))
    hop = int(round(sample_rate * hop_ms / 1000.0))
    n_frames = 1 + (samples.size - win) // hop
    window = 0.54 - 0.46 * np.cos(2.0 * math.pi * np.arange(win) / (win - 1))
    frames = np.stack([samples[i * hop: i * hop + win] * window for i in range(n_frames)])
    power = np.abs(np.fft.rfft(frames, n=fft_size)) ** 2

    def mel(hz):
        return 2595.0 * math.log10(1.0 + hz / 700.0)

    corners = [700.0 * (10.0 ** (m / 2595.0) - 1.0)
               for m in np.linspace(mel(f_min), mel(f_max), n_mels + 2)]
    bins_hz = np.arange(fft_size // 2 + 1) * sample_rate / fft_size
    filters = np.zeros((n_mels, bins_hz.size))
    for m in range(n_mels):
        lo, mid, hi = corners[m], corners[m + 1], corners[m + 2]
        for k, hz in enumerate(bins_hz):
            if lo < hz < mid:
                filters[m, k] = (hz - lo) / (mid - lo)
            elif mid <= hz < hi:
                filters[m, k] = (hi - hz) / (hi - mid)
    return np.log(np.maximum(power @ filters.T, log_floor)).T


def check_fbank(name: str, oracle: np.ndarray, got: np.ndarray) -> list[str]:
    if oracle.shape != got.shape:
        return [f"fbank {name}: shape {got.shape}, oracle {oracle.shape}"]
    dev = float(np.max(np.abs(oracle - got)))
    return [] if dev <= FBANK_ATOL else [f"fbank {name}: max deviation {dev:.3e} from the oracle"]


# -- embeddings -------------------------------------------------------------------


def check_embeddings(batched: dict[str, np.ndarray], alone: dict[str, np.ndarray]) -> list[str]:
    """Batched embeddings are unit-norm, and an utterance embedded alone
    equals its row in the batch."""
    out = []
    for rel, vec in batched.items():
        if abs(float(np.linalg.norm(vec)) - 1.0) > EMBED_ATOL:
            out.append(f"embedding {rel}: norm {np.linalg.norm(vec):.12f}")
    for rel, vec in alone.items():
        dev = float(np.max(np.abs(vec - batched[rel])))
        if dev > EMBED_ATOL:
            out.append(f"embedding {rel}: alone differs from its batch row by {dev:.3e}")
    return out


# -- verification metrics -----------------------------------------------------------


def read_labelled_scores(trials_path: str, scores_path: str) -> tuple[np.ndarray, np.ndarray]:
    """Labels from a trial list and the matching scores from a score file."""
    with open(scores_path) as f:
        table = {(e, t): float(s) for e, t, s in (line.split() for line in f if line.strip())}
    labels, scores = [], []
    with open(trials_path) as f:
        for line in f:
            if line.strip():
                label, enroll, test = line.split()
                labels.append(int(label))
                scores.append(table[(enroll, test)])
    return np.array(labels), np.array(scores)


def brute_force_eer_min_dcf(labels: np.ndarray, scores: np.ndarray,
                            p_target: float = 0.01) -> tuple[float, float]:
    """EER (linear interpolation between the operating points that straddle
    FAR = FRR) and minDCF, by counting accepts at every threshold."""
    target, nontarget = labels == 1, labels == 0

    def rates(thresholds):
        accept = scores[None, :] >= thresholds[:, None]
        far = (accept & nontarget).sum(axis=1) / nontarget.sum()
        frr = (~accept & target).sum(axis=1) / target.sum()
        return far, frr

    far, frr = rates(np.concatenate([np.unique(scores), [np.inf]]))
    diff = far - frr
    i = int(np.flatnonzero(diff <= 0.0)[0])
    if diff[i] == 0.0:
        eer = float(far[i])
    else:
        s = diff[i - 1] / (diff[i - 1] - diff[i])
        eer = float(far[i - 1] + s * (far[i] - far[i - 1]))
    far, frr = rates(np.concatenate([[-np.inf], np.unique(scores), [np.inf]]))
    dcf = (p_target * frr + (1.0 - p_target) * far) / min(p_target, 1.0 - p_target)
    return eer, float(dcf.min())


def check_scores(labels: np.ndarray, scores: np.ndarray, eer: float, min_dcf: float) -> list[str]:
    want_eer, want_dcf = brute_force_eer_min_dcf(labels, scores)
    out = []
    if abs(want_eer - eer) > METRIC_ATOL:
        out.append(f"EER {eer!r} differs from the brute-force sweep {want_eer!r}")
    if abs(want_dcf - min_dcf) > METRIC_ATOL:
        out.append(f"minDCF {min_dcf!r} differs from the brute-force sweep {want_dcf!r}")
    return out


# -- training ---------------------------------------------------------------------


def check_gradients(analytic: dict[str, float], numeric: dict[str, float],
                    tolerance: float) -> list[str]:
    """Relative error |a - n| / max(1, |a|, |n|) per parameter entry."""
    out = []
    for key, a in analytic.items():
        n = numeric[key]
        err = abs(a - n) / max(1.0, abs(a), abs(n))
        if not err < tolerance:
            out.append(f"gradient {key}: autodiff {a:.8e} vs central difference {n:.8e}")
    return out


def check_losses(totals: list[float]) -> list[str]:
    """Every loss is finite, and the mean of the last tenth of the steps is
    below the mean of the first tenth."""
    if not totals:
        return ["no loss was logged"]
    if not all(math.isfinite(x) for x in totals):
        return ["a logged loss is not finite"]
    k = max(1, len(totals) // 10)
    first, last = sum(totals[:k]) / k, sum(totals[-k:]) / k
    return [] if last < first else [f"loss did not fall: first tenth {first:.4f}, last tenth {last:.4f}"]


def check_same_bytes(what: str, a: bytes, b: bytes) -> list[str]:
    return [] if a == b else [f"{what}: the two files differ"]


# -- gradient-check report ------------------------------------------------------------


def check_report(report: dict[str, float], expected: list[str], tolerance: float) -> list[str]:
    out = []
    if sorted(report) != sorted(expected):
        out.append(f"report names {sorted(report)}, expected {sorted(expected)}")
    out += [f"{name}: error {err:.3e} not under {tolerance:g}"
            for name, err in report.items() if not err < tolerance]
    return out
