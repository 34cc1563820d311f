import hashlib
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfctx import features
from tfctx.errors import DataError
from tfctx.features import FbankConfig, Waveform


def mel_filter_centers(cfg: FbankConfig) -> np.ndarray:
    """Center frequency (Hz) of each triangular filter."""
    mels = np.linspace(features.hz_to_mel(cfg.f_min), features.hz_to_mel(cfg.top_hz), cfg.n_mels + 2)
    return features.mel_to_hz(mels)[1:-1]


class TestWavIo:
    def test_scaling(self, tmp_path):
        path = str(tmp_path / "x.wav")
        import struct
        import wave as wave_mod
        with wave_mod.open(path, "wb") as f:
            f.setnchannels(1)
            f.setsampwidth(2)
            f.setframerate(16000)
            f.writeframes(struct.pack("<3h", 0, 16384, -32768))
        w = features.read_wav(path)
        np.testing.assert_allclose(w.samples, [0.0, 0.5, -1.0])
        assert w.sample_rate == 16000

    def test_stereo_rejected(self, tmp_path):
        path = str(tmp_path / "stereo.wav")
        import wave as wave_mod
        with wave_mod.open(path, "wb") as f:
            f.setnchannels(2)
            f.setsampwidth(2)
            f.setframerate(16000)
            f.writeframes(b"\x00\x00" * 8)
        with pytest.raises(DataError, match="mono"):
            features.read_wav(path)

    def test_not_a_wav(self, tmp_path):
        path = str(tmp_path / "junk.wav")
        with open(path, "wb") as f:
            f.write(b"this is not RIFF data")
        with pytest.raises(DataError):
            features.read_wav(path)

    def test_sine_round_trip_quantization_bound(self, tmp_path):
        t = np.arange(16000) / 16000.0
        sine = 0.9 * np.sin(2 * np.pi * 440.0 * t)
        path = str(tmp_path / "sine.wav")
        features.write_wav(path, sine, 16000)
        back = features.read_wav(path)
        assert np.abs(back.samples - sine).max() <= 1.0 / 32768

    def test_missing_file(self):
        with pytest.raises(DataError):
            features.read_wav("/no/such/file.wav")


class TestComputeFbank:
    def test_frame_count_formula(self):
        w = Waveform(np.zeros(16000) + 1e-6, 16000)
        fb = features.compute_fbank(w, FbankConfig())
        assert fb.shape == (64, (16000 - 400) // 160 + 1)
        assert fb.shape[1] == 98

    def test_pure_tone_peaks_at_nearest_center(self):
        cfg = FbankConfig()
        t = np.arange(16000) / 16000.0
        tone = 0.5 * np.sin(2 * np.pi * 1000.0 * t)
        fb = features.compute_fbank(Waveform(tone, 16000), cfg)
        centers = mel_filter_centers(cfg)
        nearest = int(np.argmin(np.abs(centers - 1000.0)))
        got = int(np.argmax(fb.mean(axis=1)))
        assert got == nearest

    def test_all_zero_input_hits_floor(self):
        cfg = FbankConfig()
        fb = features.compute_fbank(Waveform(np.zeros(8000), 16000), cfg)
        np.testing.assert_allclose(fb, np.log(cfg.log_floor))

    def test_too_short_input(self):
        with pytest.raises(DataError, match="shorter"):
            features.compute_fbank(Waveform(np.zeros(100), 16000), FbankConfig())

    def test_sample_rate_mismatch(self):
        with pytest.raises(DataError):
            features.compute_fbank(Waveform(np.zeros(8000), 8000), FbankConfig())

    @given(st.integers(0, 5), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_shift_covariance(self, extra_frames, seed):
        rng = np.random.default_rng(seed)
        cfg = FbankConfig()
        base = rng.normal(size=4000) * 0.1
        tail = rng.normal(size=extra_frames * cfg.hop_samples) * 0.1
        fb_base = features.compute_fbank(Waveform(base, 16000), cfg)
        fb_ext = features.compute_fbank(Waveform(np.concatenate([base, tail]), 16000), cfg)
        assert fb_ext.shape[1] == fb_base.shape[1] + extra_frames
        np.testing.assert_array_equal(fb_ext[:, :fb_base.shape[1]], fb_base)


class TestMeanNormalize:
    def test_constant_input_zeros(self):
        fb = np.full((4, 9), 3.5)
        np.testing.assert_allclose(features.mean_normalize(fb), 0.0)

    def test_per_bin_mean_is_zero(self):
        fb = np.random.default_rng(1).normal(size=(6, 11))
        out = features.mean_normalize(fb)
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-10)

    def test_matches_loop_oracle(self):
        fb = np.random.default_rng(2).normal(size=(3, 7))
        out = features.mean_normalize(fb)
        for f in range(3):
            row_mean = sum(fb[f]) / 7
            np.testing.assert_allclose(out[f], fb[f] - row_mean, atol=1e-12)

    def test_idempotent(self):
        fb = np.random.default_rng(3).normal(size=(5, 8))
        once = features.mean_normalize(fb)
        np.testing.assert_allclose(features.mean_normalize(once), once, atol=1e-12)


class TestChunkFrames:
    def test_exact_length_identity(self):
        fb = np.random.default_rng(5).normal(size=(4, 200))
        np.testing.assert_array_equal(features.chunk_frames(fb, 200), fb)

    def test_wrap_padding(self):
        fb = np.random.default_rng(6).normal(size=(2, 150))
        out = features.chunk_frames(fb, 200)
        np.testing.assert_array_equal(out[:, :150], fb)
        np.testing.assert_array_equal(out[:, 150:], fb[:, :50])

    def test_center_offset(self):
        fb = np.arange(500.0)[None, :].repeat(2, axis=0)
        out = features.chunk_frames(fb, 200, mode="center")
        assert out[0, 0] == 150.0

    def test_random_mode_uses_rng(self):
        fb = np.arange(500.0)[None, :]
        a = features.chunk_frames(fb, 200, mode="random", rng=np.random.default_rng(7))
        b = features.chunk_frames(fb, 200, mode="random", rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    @given(st.integers(1, 420), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_always_chunk_frames(self, t, seed):
        fb = np.random.default_rng(seed).normal(size=(3, t))
        out = features.chunk_frames(fb, 200, mode="random", rng=np.random.default_rng(seed))
        assert out.shape == (3, 200)


class TestSynthDataset:
    def test_deterministic_bytes(self, tmp_path):
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        for d in (d1, d2):
            features.synth_dataset(d, num_speakers=2, utts_per_speaker=2,
                                   duration_s=0.5, seed=7, eval_utts_per_speaker=1)
        for spk in ("spk000", "spk001"):
            for utt in range(3):
                rel = os.path.join("wav", spk, f"utt{utt:04d}.wav")
                a = open(os.path.join(d1, rel), "rb").read()
                b = open(os.path.join(d2, rel), "rb").read()
                assert a == b

    def test_corpus_bytes_are_pinned(self, tmp_path):
        # sha256 of the wavs as the (harmonics x samples) synthesizer wrote
        # them; the per-harmonic accumulation must write the same bytes
        features.synth_dataset(str(tmp_path), num_speakers=3, utts_per_speaker=2,
                               duration_s=1.0, seed=21, eval_utts_per_speaker=1)
        digest = hashlib.sha256()
        for spk in ("spk000", "spk001", "spk002"):
            for utt in range(3):
                with open(tmp_path / "wav" / spk / f"utt{utt:04d}.wav", "rb") as f:
                    digest.update(f.read())
        assert digest.hexdigest() == "2a4e3b85f39fe0481f1f10471e3047099eb317fb37fb0eaa3231d9a57f807e73"

    @pytest.mark.parametrize("speaker", [0, 1, 2])
    def test_utterance_peak_memory_under_a_dozen_buffers(self, speaker):
        # a 2.0 s utterance has 32000 samples and up to 49 harmonics; one
        # (harmonics x samples) temporary alone is 20-49 sample buffers
        spec = features.make_speaker_spec(speaker, 3)
        n = 32000
        features.synth_utterance(spec, 0, 3, 0.1)  # warm numpy's lazy set-up
        tracemalloc.start()
        try:
            samples = features.synth_utterance(spec, 0, 3, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert samples.shape == (n,)
        assert peak < 12 * 8 * n

    def test_entry_counts_and_split(self, tmp_path):
        train, heldout = features.synth_dataset(str(tmp_path), 3, 4, 0.4, seed=9,
                                                eval_utts_per_speaker=2)
        assert len(train) == 12 and len(heldout) == 6
        assert set(t[1] for t in train).isdisjoint(h[1] for h in heldout)

    def test_speakers_have_distinct_spectra(self, tmp_path):
        train, _ = features.synth_dataset(str(tmp_path), 2, 2, 0.5, seed=11)
        cfg = FbankConfig()
        means = {}
        for spk, rel in train:
            fb = features.compute_fbank(features.read_wav(os.path.join(str(tmp_path), rel)), cfg)
            means.setdefault(spk, []).append(fb.mean(axis=1))
        m0 = np.mean(means["spk000"], axis=0)
        m1 = np.mean(means["spk001"], axis=0)
        assert np.linalg.norm(m0 - m1) > 1.0

    def test_manifest_round_trip(self, tmp_path):
        train, _ = features.synth_dataset(str(tmp_path), 2, 3, 0.3, seed=13)
        path = str(tmp_path / "manifest.txt")
        features.write_manifest(path, train)
        assert features.read_manifest(path) == train

    def test_bad_manifest(self, tmp_path):
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as f:
            f.write("only_one_field\n")
        with pytest.raises(DataError):
            features.read_manifest(path)
