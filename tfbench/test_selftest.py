"""Fast self-test of the benchmark at shrunken sizes.

    python3 -m pytest -q tfbench/test_selftest.py

Every workload runs to its end in both modes and names every metric of
BENCHMARK.json with its unit; every correctness check passes on good input
and fails on deliberately corrupted input.
"""

import glob
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
from tfctx import features, gradcheck, metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_and_names_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert not glob.glob(os.path.join(ROOT, ".tfbench_runs", f"{workload}-*"))


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in _spec()["workloads"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "tfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(str(tmp_path), "train_dct_tfe", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- each check passes on good input and fails on corrupted input -----------------------


def _wav(tmp_path, name, seed):
    spec = features.make_speaker_spec(0, seed)
    path = str(tmp_path / name)
    features.write_wav(path, features.synth_utterance(spec, 0, seed, 0.5))
    return path


def test_fbank_check(tmp_path):
    cfg = features.FbankConfig()
    got = {}
    for name, seed in (("a.wav", 1), ("b.wav", 2)):
        path = _wav(tmp_path, name, seed)
        samples, rate = checks.read_pcm16(path)
        oracle = checks.logmel(samples, rate, cfg.n_mels, cfg.win_ms, cfg.hop_ms, cfg.fft_size,
                               cfg.f_min, None, cfg.log_floor)
        got[name] = (oracle, features.compute_fbank(features.read_wav(path), cfg))
    assert checks.check_fbank("a", *got["a.wav"]) == []
    assert checks.check_fbank("a", got["a.wav"][0], got["b.wav"][1])  # swapped fbank
    bumped = got["a.wav"][1].copy()
    bumped[5, 7] += 1e-6
    assert checks.check_fbank("a", got["a.wav"][0], bumped)


def test_embedding_check():
    rng = np.random.default_rng(0)
    rows = rng.normal(size=(4, 8))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    batched = {str(i): rows[i] for i in range(4)}
    assert checks.check_embeddings(batched, {"1": rows[1].copy()}) == []
    assert checks.check_embeddings(dict(batched, **{"2": 1.01 * rows[2]}), {})
    assert checks.check_embeddings(batched, {"1": rows[1] + 1e-6})


def test_score_check(tmp_path):
    rng = np.random.default_rng(1)
    labels = np.array([1, 0] * 50)
    ids = tuple(f"u{i}" for i in range(100))
    trials = metrics.TrialSet(labels, ids, tuple(reversed(ids)))
    scores = np.round(rng.normal(size=100) + labels, 3)
    trials_path, scores_path = str(tmp_path / "trials.txt"), str(tmp_path / "scores.txt")
    metrics.write_trials(trials_path, trials)
    metrics.write_scores(scores_path, trials, scores)
    eer, _ = metrics.compute_eer(trials, scores)
    dcf, _ = metrics.compute_min_dcf(trials, scores)
    read_labels, read_scores = checks.read_labelled_scores(trials_path, scores_path)
    assert checks.check_scores(read_labels, read_scores, eer, dcf) == []
    perturbed = read_scores.copy()
    perturbed[int(np.argmax(np.where(labels == 1, scores, -np.inf)))] = scores.min() - 1.0
    assert checks.check_scores(read_labels, perturbed, eer, dcf)


def test_gradient_check():
    analytic = {"w(0,)": 0.25, "b(1,)": -3.0}
    assert checks.check_gradients(analytic, dict(analytic), gradcheck.TOLERANCE) == []
    assert checks.check_gradients(analytic, {"w(0,)": 0.25, "b(1,)": -3.001}, gradcheck.TOLERANCE)


def test_loss_check():
    falling = [6.0 - 0.1 * i for i in range(30)]
    assert checks.check_losses(falling) == []
    assert checks.check_losses(falling[:10] + [float("nan")] + falling[10:])
    assert checks.check_losses(falling[::-1])


def test_report_check():
    expected = ["a", "b", "full_network"]
    report = {"a": 1e-9, "b": 2e-8, "full_network": 3e-7}
    assert checks.check_report(report, expected, gradcheck.TOLERANCE) == []
    assert checks.check_report({"a": 1e-9, "b": 2e-8}, expected, gradcheck.TOLERANCE)
    assert checks.check_report(dict(report, b=2e-3), expected, gradcheck.TOLERANCE)


def test_checkpoint_bytes_check():
    blob = bytes(range(256))
    assert checks.check_same_bytes("ckpt", blob, bytes(blob)) == []
    assert checks.check_same_bytes("ckpt", blob, blob[:100] + b"\x00" + blob[101:])
