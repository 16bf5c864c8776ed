import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nomadlite.degrade import ManifestRow
from nomadlite.errors import DataError, DegenerateInputError, JoinEmptyError
from nomadlite.evaluate import (
    MosRecord,
    _rank,
    aggregate_per_condition,
    monotonicity_report,
    pearson,
    read_mos,
    spearman,
)
from nomadlite.score import ScoreRow


def loop_rank(x: np.ndarray) -> np.ndarray:
    """The scan-loop fractional ranks that _rank replaced, kept as a reference."""
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


class TestRank:
    def test_matches_loop_reference_with_ties(self):
        # few distinct values, so most inputs have ties; -0.0 ties with 0.0
        values = np.array([-0.0, 0.0, -1.5, 0.25, 2.0, 1e-300, -1e300])
        rng = np.random.default_rng(0)
        for _ in range(2000):
            pool = values[: rng.integers(1, len(values) + 1)]
            x = pool[rng.integers(len(pool), size=rng.integers(1, 40))]
            assert np.array_equal(_rank(x), loop_rank(x))

    def test_simple(self):
        assert _rank(np.array([10.0, 30.0, 20.0])).tolist() == [1.0, 3.0, 2.0]

    def test_ties_share_mean_rank(self):
        assert _rank(np.array([1.0, 2.0, 2.0, 3.0])).tolist() == [1.0, 2.5, 2.5, 4.0]

    def test_all_tied(self):
        assert _rank(np.array([5.0, 5.0, 5.0])).tolist() == [2.0, 2.0, 2.0]


class TestPearson:
    def test_perfect(self):
        assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0, abs=1e-15)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-15)

    @given(st.floats(0.1, 10), st.floats(-5, 5))
    @settings(max_examples=30, deadline=None)
    def test_affine_invariance(self, a, b):
        x = [1.0, 4.0, 2.0, 8.0, 5.0]
        y = [2.0, 1.0, 7.0, 3.0, 4.0]
        base = pearson(x, y)
        assert pearson([a * v + b for v in x], y) == pytest.approx(base, abs=1e-12)

    def test_constant_raises(self):
        with pytest.raises(DegenerateInputError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])


class TestSpearman:
    def test_known_value(self):
        # ranks (1,2,3) vs (3,1,2): Pearson of ranks is exactly -1/2
        assert spearman([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5, abs=1e-15)

    def test_perfect_monotone(self):
        assert spearman([1, 2, 3, 4], [10, 100, 1000, 10000]) == pytest.approx(1.0, abs=1e-15)

    @given(st.permutations(list(range(6))))
    @settings(max_examples=30, deadline=None)
    def test_monotone_transform_invariance(self, perm):
        x = [float(p) for p in perm]
        y = [1.0, 5.0, 2.0, 9.0, 3.0, 7.0]
        base = spearman(x, y)
        assert spearman([np.exp(v) for v in x], y) == pytest.approx(base, abs=1e-12)

    def test_constant_raises(self):
        with pytest.raises(DegenerateInputError):
            spearman([2, 2, 2], [1, 2, 3])


class TestAggregate:
    def fixture_rows(self):
        # two conditions, three clips each, plus one unmatched clip
        scores = [ScoreRow(f"c{i}.wav", s, "nmr", "p") for i, s in
                  enumerate([0.1, 0.2, 0.3, 0.8, 0.9, 1.0])]
        scores.append(ScoreRow("orphan.wav", 0.5, "nmr", "p"))
        mos = [MosRecord(f"c{i}.wav", "mild" if i < 3 else "severe", m)
               for i, m in enumerate([4.5, 4.3, 4.4, 2.0, 1.8, 1.9])]
        return scores, mos

    def test_condition_means_and_correlations(self):
        scores, mos = self.fixture_rows()
        report = aggregate_per_condition(scores, mos)
        assert report.n_conditions == 2
        assert report.dropped_clips == 1
        by_id = {r.condition_id: r for r in report.per_condition}
        assert by_id["mild"].mean_score == pytest.approx(0.2, abs=1e-15)
        assert by_id["mild"].mean_mos == pytest.approx(4.4, abs=1e-15)
        assert by_id["severe"].mean_score == pytest.approx(0.9, abs=1e-15)
        # higher distance, lower MOS: perfect negative correlation
        assert report.pc == pytest.approx(-1.0, abs=1e-12)
        assert report.sc == pytest.approx(-1.0, abs=1e-12)

    def test_repeated_mos_clip_rejected(self):
        # the join used to keep the last row, so c0's condition read MOS 1.0
        scores, mos = self.fixture_rows()
        mos.append(MosRecord("c0.wav", "mild", 1.0))
        with pytest.raises(DataError, match="MOS file repeats clip path c0.wav"):
            aggregate_per_condition(scores, mos)

    def test_repeated_score_clip_rejected(self):
        # the join used to count the repeated clip twice in its condition's mean
        scores, mos = self.fixture_rows()
        scores.append(ScoreRow("c4.wav", 0.0, "nmr", "p"))
        with pytest.raises(DataError, match="score file repeats clip path c4.wav"):
            aggregate_per_condition(scores, mos)

    def test_no_overlap_raises(self):
        with pytest.raises(JoinEmptyError):
            aggregate_per_condition(
                [ScoreRow("a.wav", 0.1, "nmr", "p"), ScoreRow("b.wav", 0.2, "nmr", "p")],
                [MosRecord("z.wav", "c", 3.0)])


class TestMosCsv:
    def test_read(self, tmp_path):
        path = tmp_path / "mos.csv"
        path.write_text("clip_path,condition_id,mos\na.wav,noise_l0,1.5\nb.wav,clip_l2,3.25\n")
        recs = read_mos(path)
        assert recs == [MosRecord("a.wav", "noise_l0", 1.5),
                        MosRecord("b.wav", "clip_l2", 3.25)]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "mos.csv"
        path.write_text("clip,mos\na,1\n")
        with pytest.raises(ValueError):
            read_mos(path)


class TestMonotonicity:
    def manifest_and_scores(self, score_fn):
        manifest, scores = [], []
        for family, levels, direction in (
            ("noise", [0.0, 8.0, 15.0, 25.0, 40.0], -1.0),  # SNR up = distance down
            ("clip", [5.0, 10.0, 25.0, 40.0, 60.0], 1.0),
        ):
            for src in ("s0", "s1"):
                for li, lp in enumerate(levels):
                    path = f"{src}__{family}_l{li}.wav"
                    manifest.append(ManifestRow(path, src, family, li, lp, 0.5))
                    scores.append(ScoreRow(path, score_fn(family, lp, direction, src),
                                           "nmr", "p"))
        return manifest, scores

    def test_perfectly_monotone_scores(self):
        # distance-like oracle: strictly decreasing in SNR, increasing in clip %
        manifest, scores = self.manifest_and_scores(
            lambda fam, lp, d, src: d * lp)
        report = monotonicity_report(scores, manifest)
        assert report["noise"] == pytest.approx(-1.0, abs=1e-12)
        assert report["clip"] == pytest.approx(1.0, abs=1e-12)

    def test_random_scores_weak(self):
        rng = np.random.default_rng(0)
        manifest, scores = self.manifest_and_scores(
            lambda fam, lp, d, src: float(rng.random()))
        report = monotonicity_report(scores, manifest)
        assert abs(report["noise"]) < 0.9

    def test_clean_rows_ignored_and_unknown_clips_skipped(self):
        manifest = [ManifestRow("s__clean.wav", "s", "clean", 0, 0.0, 1.0),
                    ManifestRow("s__noise_l0.wav", "s", "noise", 0, 0.0, 0.4),
                    ManifestRow("s__noise_l1.wav", "s", "noise", 1, 8.0, 0.6)]
        scores = [ScoreRow("s__clean.wav", 0.0, "nmr", "p"),
                  ScoreRow("s__noise_l0.wav", 0.9, "nmr", "p"),
                  ScoreRow("s__noise_l1.wav", 0.5, "nmr", "p"),
                  ScoreRow("mystery.wav", 1.0, "nmr", "p")]
        report = monotonicity_report(scores, manifest)
        assert set(report) == {"noise"}
        assert report["noise"] == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("clips", [["/abs/s__noise_l0.wav", "/abs/s__noise_l1.wav"],
                                       ["s__clean.wav"]])
    def test_no_degraded_clip_joins_raises(self, clips):
        manifest = [ManifestRow("s__clean.wav", "s", "clean", 0, 0.0, 1.0),
                    ManifestRow("s__noise_l0.wav", "s", "noise", 0, 0.0, 0.4),
                    ManifestRow("s__noise_l1.wav", "s", "noise", 1, 8.0, 0.6)]
        scores = [ScoreRow(c, 0.5, "nmr", "p") for c in clips]
        with pytest.raises(JoinEmptyError):
            monotonicity_report(scores, manifest)

    def test_clip_under_two_families_rejected(self):
        # the join used to count the clip only under the family listed last
        manifest, scores = self.manifest_and_scores(lambda fam, lp, d, src: d * lp)
        manifest.append(ManifestRow("s0__noise_l1.wav", "s0", "clip", 1, 10.0, 0.5))
        with pytest.raises(DataError, match="manifest repeats clip path s0__noise_l1.wav"):
            monotonicity_report(scores, manifest)

    def test_repeated_score_clip_rejected(self):
        manifest, scores = self.manifest_and_scores(lambda fam, lp, d, src: d * lp)
        scores.append(scores[3])
        with pytest.raises(DataError, match="score file repeats clip path s0__noise_l3.wav"):
            monotonicity_report(scores, manifest)

    def test_degenerate_family_is_none(self):
        manifest = [ManifestRow(f"s__noise_l{i}.wav", "s", "noise", i, float(i), 0.5)
                    for i in range(3)]
        scores = [ScoreRow(f"s__noise_l{i}.wav", 0.7, "nmr", "p") for i in range(3)]
        assert monotonicity_report(scores, manifest)["noise"] is None
