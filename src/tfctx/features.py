"""Audio ingestion, log-mel filterbank extraction, frame utilities and the
synthetic speaker corpus generator.

The corpus substitutes for real speech at desk scale: each speaker is a
fixed set of 2-4 spectral resonances plus a pitch range and spectral tilt;
each utterance is a harmonic source with vibrato and slow amplitude
modulation shaped by the speaker's resonances, plus seeded noise. Two
speakers differ mainly in their resonance layout, which log-mel features
pick up directly.
"""

from __future__ import annotations

import functools
import math
import os
import wave
from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass
class Waveform:
    samples: np.ndarray
    sample_rate: int = 16000

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.size == 0:
            raise DataError("empty waveform")
        if self.sample_rate <= 0:
            raise DataError(f"bad sample rate {self.sample_rate}")


def read_wav(path: str) -> Waveform:
    """16-bit PCM mono RIFF only; samples scaled by 1/32768."""
    try:
        f = wave.open(path, "rb")
    except FileNotFoundError:
        raise DataError(f"audio file not found: {path}") from None
    # besides wave.Error, a header cut short raises EOFError and a chunk
    # size that runs past the file a bare RuntimeError
    except (wave.Error, EOFError, RuntimeError) as exc:
        raise DataError(f"{path}: not a readable RIFF/WAVE file ({exc!r})") from None
    with f:
        if f.getnchannels() != 1:
            raise DataError(f"{path}: only mono is supported, got {f.getnchannels()} channels")
        if f.getsampwidth() != 2:
            raise DataError(f"{path}: only 16-bit PCM is supported, got {8 * f.getsampwidth()}-bit")
        if f.getcomptype() != "NONE":
            raise DataError(f"{path}: compressed WAV ({f.getcomptype()}) is not supported")
        n = f.getnframes()
        raw = f.readframes(n)
        if len(raw) != 2 * n:
            raise DataError(f"{path}: truncated file")
        samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
        return Waveform(samples, f.getframerate())


def write_wav(path: str, samples: np.ndarray, sample_rate: int = 16000) -> None:
    quantized = np.clip(np.rint(np.asarray(samples) * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(path, "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(sample_rate)
        f.writeframes(quantized.tobytes())


# -- log-mel filterbanks ----------------------------------------------------------


@dataclass
class FbankConfig:
    sample_rate: int = 16000
    n_mels: int = 64
    win_ms: float = 25.0
    hop_ms: float = 10.0
    fft_size: int = 512
    f_min: float = 20.0
    f_max: float | None = None  # None: Nyquist
    log_floor: float = 1e-10

    def __post_init__(self):
        if not 0 <= self.f_min < self.top_hz <= self.sample_rate / 2:
            raise ValueError(f"mel range [{self.f_min}, {self.top_hz}] invalid for sr={self.sample_rate}")
        if self.fft_size < self.win_samples:
            raise ValueError(f"fft_size {self.fft_size} smaller than the {self.win_samples}-sample window")
        if self.win_samples < 1 or self.hop_samples < 1:
            raise ValueError(f"window {self.win_ms} ms and hop {self.hop_ms} ms must each span a sample")
        if not self.log_floor > 0:
            raise ValueError(f"log_floor must be positive, got {self.log_floor}")

    @property
    def top_hz(self) -> float:
        """The mel range's upper edge: ``f_max``, or Nyquist when it is None."""
        return self.sample_rate / 2 if self.f_max is None else self.f_max

    @property
    def win_samples(self) -> int:
        return int(round(self.sample_rate * self.win_ms / 1000.0))

    @property
    def hop_samples(self) -> int:
        return int(round(self.sample_rate * self.hop_ms / 1000.0))


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=None)
def mel_filterbank(sample_rate: int, n_mels: int, fft_size: int, f_min: float,
                   f_max: float) -> np.ndarray:
    """(n_mels, fft_size//2 + 1) triangular weights, linear in Hz between
    mel-spaced corner frequencies. Built once per argument tuple and
    read-only."""
    mels = np.linspace(hz_to_mel(f_min), hz_to_mel(f_max), n_mels + 2)
    corners = mel_to_hz(mels)
    bin_hz = np.arange(fft_size // 2 + 1) * sample_rate / fft_size
    weights = np.zeros((n_mels, bin_hz.size))
    for m in range(n_mels):
        left, center, right = corners[m], corners[m + 1], corners[m + 2]
        up = (bin_hz - left) / (center - left)
        down = (right - bin_hz) / (right - center)
        weights[m] = np.clip(np.minimum(up, down), 0.0, None)
    weights.setflags(write=False)
    return weights


def compute_fbank(wave_in: Waveform, cfg: FbankConfig) -> np.ndarray:
    """(n_mels, T) log filterbank energies: Hamming window, power spectrum,
    triangular mel weighting, log with an absolute floor."""
    if wave_in.sample_rate != cfg.sample_rate:
        raise DataError(f"waveform at {wave_in.sample_rate} Hz, config expects {cfg.sample_rate} Hz")
    x = wave_in.samples
    win, hop = cfg.win_samples, cfg.hop_samples
    if x.size < win:
        raise DataError(f"input of {x.size} samples is shorter than one {win}-sample window")
    n_frames = (x.size - win) // hop + 1
    frames = np.lib.stride_tricks.sliding_window_view(x, win)[::hop][:n_frames]
    spectrum = np.fft.rfft(frames * np.hamming(win), n=cfg.fft_size)
    power = spectrum.real ** 2 + spectrum.imag ** 2
    energies = power @ mel_filterbank(cfg.sample_rate, cfg.n_mels, cfg.fft_size, cfg.f_min, cfg.top_hz).T
    # a C-contiguous result fixes the order in which mean_normalize's
    # reduction accumulates, and so the features' bits
    return np.ascontiguousarray(np.log(np.maximum(energies, cfg.log_floor)).T)


def mean_normalize(fbank: np.ndarray) -> np.ndarray:
    """Subtract each frequency bin's mean over the utterance."""
    return fbank - fbank.mean(axis=1, keepdims=True)


def chunk_frames(fbank: np.ndarray, chunk: int = 200, mode: str = "center",
                 rng: np.random.Generator | None = None) -> np.ndarray:
    """Fixed-length frame slice: random offset for training, centered for
    evaluation; shorter inputs wrap around (circular padding)."""
    t = fbank.shape[1]
    if t < chunk:
        reps = -(-chunk // t)
        return np.tile(fbank, (1, reps))[:, :chunk].copy()
    if t == chunk:
        return fbank.copy()
    if mode == "random":
        if rng is None:
            raise ValueError("random chunking needs an rng")
        offset = int(rng.integers(0, t - chunk + 1))
    elif mode == "center":
        offset = (t - chunk) // 2
    else:
        raise ValueError(f"unknown chunk mode {mode!r}")
    return fbank[:, offset:offset + chunk].copy()


# -- synthetic speaker corpus -------------------------------------------------------


@dataclass
class SyntheticSpeakerSpec:
    speaker_id: str
    resonances_hz: np.ndarray
    bandwidths_hz: np.ndarray
    pitch_lo: float
    pitch_hi: float
    tilt: float
    noise_level: float

    def envelope(self, freqs: np.ndarray) -> np.ndarray:
        bumps = sum(np.exp(-0.5 * ((freqs - c) / b) ** 2)
                    for c, b in zip(self.resonances_hz, self.bandwidths_hz))
        return (0.05 + bumps) * (np.maximum(freqs, 50.0) / 1000.0) ** self.tilt


def make_speaker_spec(index: int, seed: int) -> SyntheticSpeakerSpec:
    rng = np.random.default_rng([seed, index])
    n_res = int(rng.integers(2, 5))
    centers = np.sort(rng.uniform(300.0, 3400.0, n_res))
    bands = rng.uniform(80.0, 300.0, n_res)
    pitch_lo = rng.uniform(85.0, 230.0)
    pitch_hi = pitch_lo * rng.uniform(1.08, 1.3)
    return SyntheticSpeakerSpec(
        speaker_id=f"spk{index:03d}", resonances_hz=centers, bandwidths_hz=bands,
        pitch_lo=pitch_lo, pitch_hi=pitch_hi, tilt=rng.uniform(-0.5, 0.5),
        noise_level=rng.uniform(0.005, 0.02))


# top of a synthetic voice's harmonics, above every speaker resonance (< 3400 Hz)
MAX_HARMONIC_HZ = 4200.0


def synth_utterance(spec: SyntheticSpeakerSpec, utt_index: int, seed: int,
                    duration_s: float, sample_rate: int = 16000) -> np.ndarray:
    """Harmonic source with vibrato and slow amplitude modulation, filtered
    by the speaker's resonance envelope, plus noise. Harmonics stop at
    ``MAX_HARMONIC_HZ`` and below Nyquist at the vibrato's peak, so none
    aliases. Deterministic in (seed, speaker, utterance)."""
    rng = np.random.default_rng([seed, int(spec.speaker_id[3:]), utt_index])
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate

    f0 = rng.uniform(spec.pitch_lo, spec.pitch_hi)
    vib_rate = rng.uniform(4.0, 6.0)
    vib_phase = rng.uniform(0.0, 2 * math.pi)
    vib_depth = 0.01
    inst_freq = f0 * (1.0 + vib_depth * np.sin(2 * math.pi * vib_rate * t + vib_phase))
    phase = 2 * math.pi * np.cumsum(inst_freq) / sample_rate

    top_hz = min(MAX_HARMONIC_HZ, sample_rate / 2 / (1.0 + vib_depth))
    n_harm = max(1, int(top_hz / f0))
    h = np.arange(1, n_harm + 1)
    amps = spec.envelope(h * f0) / np.sqrt(h)
    phases = rng.uniform(0.0, 2 * math.pi, n_harm)
    # one harmonic at a time into one buffer, in the row order of a sum
    # over axis 0, without a (harmonics x samples) temporary
    voiced = np.zeros(n)
    partial = np.empty(n)
    for k in range(n_harm):
        np.multiply(h[k], phase, out=partial)
        partial += phases[k]
        np.sin(partial, out=partial)
        partial *= amps[k]
        voiced += partial

    am_rate = rng.uniform(2.0, 6.0)
    am_phase = rng.uniform(0.0, 2 * math.pi)
    envelope = 1.0 + 0.25 * np.sin(2 * math.pi * am_rate * t + am_phase)

    signal = voiced * envelope + spec.noise_level * rng.standard_normal(n)
    return 0.7 * signal / np.abs(signal).max()


def corpus_entries(num_speakers: int, utts_per_speaker: int, eval_utts_per_speaker: int = 0):
    """(train_entries, eval_entries) of the synthetic corpus, each a list of
    (speaker_id, relative_path). They depend on the counts alone, so they
    are known before any audio is written."""
    train, heldout = [], []
    for si in range(num_speakers):
        spk = f"spk{si:03d}"
        for ui in range(utts_per_speaker + eval_utts_per_speaker):
            entry = (spk, os.path.join("wav", spk, f"utt{ui:04d}.wav"))
            (train if ui < utts_per_speaker else heldout).append(entry)
    return train, heldout


def synth_dataset(out_dir: str, num_speakers: int, utts_per_speaker: int,
                  duration_s: float, seed: int, eval_utts_per_speaker: int = 0,
                  sample_rate: int = 16000):
    """Write the corpus and return its ``corpus_entries``. Evaluation
    utterances are fresh draws from the same speakers, disjoint from
    training."""
    if num_speakers < 1 or utts_per_speaker < 1 or duration_s <= 0:
        raise ValueError("speaker/utterance counts and duration must be positive")
    train, heldout = corpus_entries(num_speakers, utts_per_speaker, eval_utts_per_speaker)
    rels_by_speaker: dict[str, list[str]] = {}
    for spk, rel in train + heldout:  # a speaker's training utterances first
        rels_by_speaker.setdefault(spk, []).append(rel)
    for si in range(num_speakers):
        spec = make_speaker_spec(si, seed)
        for ui, rel in enumerate(rels_by_speaker[spec.speaker_id]):
            path = os.path.join(out_dir, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            write_wav(path, synth_utterance(spec, ui, seed, duration_s, sample_rate), sample_rate)
    return train, heldout


def write_manifest(path: str, entries) -> None:
    with open(path, "w") as f:
        for speaker_id, rel in entries:
            f.write(f"{speaker_id} {rel}\n")


def _read_records(path: str, what: str) -> list[tuple[int, list[str]]]:
    """(line number, whitespace-split fields) of each non-blank line of a
    UTF-8 text file. A missing file, bad UTF-8 or a file with no records
    raises DataError, naming the file as ``what``."""
    try:
        with open(path, encoding="utf-8") as f:
            records = [(line_no, line.split()) for line_no, line in enumerate(f, 1) if line.strip()]
    except FileNotFoundError:
        raise DataError(f"{what} not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{what} {path} is not UTF-8 text ({exc.reason})") from None
    if not records:
        raise DataError(f"{what} is empty: {path}")
    return records


def read_manifest(path: str) -> list[tuple[str, str]]:
    entries = []
    for line_no, fields in _read_records(path, "manifest"):
        if len(fields) != 2:
            raise DataError(f"{path}:{line_no}: expected 'speaker_id path', got {len(fields)} fields")
        entries.append((fields[0], fields[1]))
    return entries
