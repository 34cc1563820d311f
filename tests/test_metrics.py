import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfctx import cli, metrics
from tfctx.errors import DataError
from tfctx.metrics import TrialSet


def make_trials(labels):
    labels = list(labels)
    ids = [f"u{i}" for i in range(len(labels))]
    return TrialSet(np.array(labels), tuple(ids), tuple(ids))


def rates_oracle(labels, scores, thresholds):
    """O(n*m) matrix sweep, independent of the sort/cumsum implementation."""
    labels = np.asarray(labels)
    scores = np.asarray(scores)
    accept = scores[None, :] >= thresholds[:, None]
    far = (accept & (labels == 0)).sum(axis=1) / (labels == 0).sum()
    frr = (~accept & (labels == 1)).sum(axis=1) / (labels == 1).sum()
    return far, frr


def eer_oracle(labels, scores):
    thresholds = np.concatenate([np.unique(scores), [np.inf]])
    far, frr = rates_oracle(labels, scores, thresholds)
    diff = far - frr
    for i in range(len(thresholds)):
        if diff[i] == 0.0:
            return far[i]
        if diff[i] < 0.0:
            d1, d2 = diff[i - 1], diff[i]
            s = d1 / (d1 - d2)
            return far[i - 1] + s * (far[i] - far[i - 1])
    raise AssertionError("no crossing found")


def min_dcf_oracle(labels, scores, p_target=0.01, c_miss=1.0, c_fa=1.0):
    thresholds = np.concatenate([[-np.inf], np.unique(scores), [np.inf]])
    far, frr = rates_oracle(labels, scores, thresholds)
    dcf = (c_miss * p_target * frr + c_fa * (1 - p_target) * far) \
        / min(c_miss * p_target, c_fa * (1 - p_target))
    return dcf.min()


class TestCosineScore:
    def test_identical(self):
        v = np.array([0.6, 0.8])
        assert metrics.cosine_score(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert metrics.cosine_score(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_value(self):
        assert metrics.cosine_score(np.array([0.6, 0.8]), np.array([1.0, 0.0])) == pytest.approx(0.6)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            metrics.cosine_score(np.zeros(3), np.ones(3))


class TestComputeEer:
    def test_perfect_separation(self):
        trials = make_trials([1, 1, 0, 0])
        eer, thr = metrics.compute_eer(trials, [0.9, 0.8, 0.2, 0.1])
        assert eer == 0.0
        assert 0.2 < thr <= 0.8

    def test_hand_case_third(self):
        trials = make_trials([1, 1, 1, 0, 0, 0])
        eer, _ = metrics.compute_eer(trials, [0.9, 0.8, 0.7, 0.75, 0.6, 0.2])
        assert eer == pytest.approx(1 / 3, abs=0)

    def test_all_scores_equal(self):
        trials = make_trials([1, 0, 1, 0])
        eer, _ = metrics.compute_eer(trials, [0.5, 0.5, 0.5, 0.5])
        assert eer == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            metrics.compute_eer(make_trials([1, 1]), [0.5, 0.6])

    def test_matches_oracle_on_random_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(2, 60))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0], labels[-1] = 1, 0
            scores = np.round(rng.normal(size=n), 2)  # force plenty of ties
            got, _ = metrics.compute_eer(make_trials(labels), scores)
            assert got == pytest.approx(eer_oracle(labels, scores), abs=1e-12)

    def test_label_swap_consistency_with_oracle(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=50)
        labels[0], labels[-1] = 1, 0
        scores = rng.normal(size=50)
        swapped = 1 - labels
        got, _ = metrics.compute_eer(make_trials(swapped), scores)
        assert got == pytest.approx(eer_oracle(swapped, scores), abs=1e-12)

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(-3000, 3000)), min_size=4, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_rank_invariance(self, pairs):
        labels = np.array([p[0] for p in pairs])
        if labels.sum() in (0, len(labels)):
            labels[0], labels[-1] = 1, 0
        # milli-spaced scores keep every transform injective in float64
        scores = np.array([p[1] for p in pairs]) / 1000.0
        trials = make_trials(labels)
        base, _ = metrics.compute_eer(trials, scores)
        for transform in (np.tanh, lambda s: 3.0 * s + 11.0, lambda s: np.exp(s / 4)):
            eer, _ = metrics.compute_eer(trials, transform(scores))
            assert eer == pytest.approx(base, abs=1e-9)
        assert 0.0 <= base <= 1.0


class TestMinDcf:
    def test_perfect_separation(self):
        trials = make_trials([1, 1, 0, 0])
        dcf, _ = metrics.compute_min_dcf(trials, [0.9, 0.8, 0.2, 0.1])
        assert dcf == 0.0

    def test_reject_everything_bound(self):
        # scores make every acceptance wrong: minimum sits at the FRR=1 sentinel
        trials = make_trials([1, 0])
        dcf, _ = metrics.compute_min_dcf(trials, [0.1, 0.9])
        assert dcf == pytest.approx(1.0)

    def test_never_exceeds_default_decision(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            labels = rng.integers(0, 2, size=30)
            if labels.sum() in (0, 30):
                labels[0], labels[-1] = 1, 0
            scores = rng.normal(size=30)
            dcf, _ = metrics.compute_min_dcf(make_trials(labels), scores)
            assert 0.0 <= dcf <= 1.0

    def test_matches_oracle_on_random_sets(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(2, 60))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0], labels[-1] = 1, 0
            scores = np.round(rng.normal(size=n), 2)
            got, _ = metrics.compute_min_dcf(make_trials(labels), scores)
            assert got == pytest.approx(min_dcf_oracle(labels, scores), abs=1e-12)


class TestDetPoints:
    def test_perfect_separation_touches_origin(self):
        trials = make_trials([1, 1, 0, 0])
        points = metrics.det_points(trials, [0.9, 0.8, 0.2, 0.1])
        assert (0.0, 0.0) in points

    def test_monotone(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 2, size=40)
        labels[0], labels[-1] = 1, 0
        scores = rng.normal(size=40)
        points = metrics.det_points(make_trials(labels), scores)
        fars = [p[0] for p in points]
        frrs = [p[1] for p in points]
        assert fars == sorted(fars, reverse=True)
        assert frrs == sorted(frrs)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 2, size=25)
        labels[0], labels[-1] = 1, 0
        scores = np.round(rng.normal(size=25), 1)
        points = metrics.det_points(make_trials(labels), scores)
        thresholds = np.unique(scores)
        far, frr = rates_oracle(labels, scores, thresholds)
        assert len(points) == len(thresholds)
        for (gf, gr), wf, wr in zip(points, far, frr):
            assert gf == wf and gr == wr


class TestTrialSampling:
    def test_balanced_and_distinct(self):
        ids = {f"s{i}": [f"s{i}_u{j}" for j in range(6)] for i in range(5)}
        trials = metrics.sample_balanced_trials(ids, 40, np.random.default_rng(6))
        assert len(trials) == 40
        assert trials.labels.sum() == 20
        spk = lambda uid: uid.split("_")[0]
        for label, e, t in zip(trials.labels, trials.enroll_ids, trials.test_ids):
            assert (spk(e) == spk(t)) == bool(label)

    def test_deterministic(self):
        ids = {f"s{i}": [f"s{i}_u{j}" for j in range(4)] for i in range(4)}
        a = metrics.sample_balanced_trials(ids, 12, np.random.default_rng(7))
        b = metrics.sample_balanced_trials(ids, 12, np.random.default_rng(7))
        assert a.enroll_ids == b.enroll_ids and a.test_ids == b.test_ids


class TestFileFormats:
    def test_trials_round_trip(self, tmp_path):
        trials = make_trials([1, 0, 1])
        path = str(tmp_path / "trials.txt")
        metrics.write_trials(path, trials)
        back = metrics.read_trials(path)
        assert back.enroll_ids == trials.enroll_ids
        np.testing.assert_array_equal(back.labels, trials.labels)

    def test_scores_round_trip_and_match(self, tmp_path):
        trials = make_trials([1, 0])
        path = str(tmp_path / "scores.txt")
        metrics.write_scores(path, trials, [0.25, -0.5])
        back = metrics.read_scores(path)
        matched = metrics.match_scores(trials, back)
        np.testing.assert_allclose(matched, [0.25, -0.5], atol=1e-10)

    def test_missing_score_detected(self, tmp_path):
        trials = make_trials([1, 0])
        with pytest.raises(DataError):
            metrics.match_scores(trials, [("u0", "u0", 0.5)])

    def test_conflicting_scores_for_one_trial(self, tmp_path, capsys):
        """A repeated trial repeats its line with the same score, which still
        scores; two different scores for one trial are a data error (exit 2)
        that names it."""
        trials = make_trials([1, 0])
        repeated = [("u0", "u0", 0.9), ("u1", "u1", 0.1), ("u0", "u0", 0.9)]
        np.testing.assert_array_equal(metrics.match_scores(trials, repeated), [0.9, 0.1])
        trial_path, score_path = str(tmp_path / "trials.txt"), str(tmp_path / "scores.txt")
        with open(trial_path, "w") as f:
            f.write("1 a b\n0 a c\n")
        with open(score_path, "w") as f:
            f.write("a b 0.9\na c 0.1\na b 0.0\n")
        assert cli.main(["score", "--trials", trial_path, "--scores", score_path]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: two different scores for trial (a, b)")

    def test_bad_trial_line(self, tmp_path):
        path = str(tmp_path / "bad.txt")
        with open(path, "w") as f:
            f.write("2 a b\n")
        with pytest.raises(DataError):
            metrics.read_trials(path)

    def test_report_template(self):
        line = metrics.format_report(0.1, 0.5, 0.25, 0.3)
        assert line == "EER=0.100000 minDCF=0.500000 thr_eer=0.250000 thr_dcf=0.300000"

    def test_det_csv(self, tmp_path):
        path = str(tmp_path / "det.csv")
        metrics.write_det_csv(path, [(1.0, 0.0), (0.5, 0.25)])
        lines = open(path).read().splitlines()
        assert lines[0] == "far,frr"
        assert len(lines) == 3
