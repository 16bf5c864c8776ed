import numpy as np
import pytest

from nomadlite import triplets
from nomadlite.degrade import ManifestRow
from nomadlite.errors import DataError, EmptyNegativeSetError, ExhaustedSamplerError, TooFewEntriesError
from nomadlite.triplets import (
    SampleSet,
    SamplerConfig,
    build_sample_sets,
    distances,
    generate_triplets,
    pick_positive,
    read_triplets,
    sample_easy_negative,
    sample_hard_negative,
    split_by_source,
    write_triplets,
)

# the worked example: anchor 0.80, others {0.78, 0.70, 0.83, 0.95}
HAND_SET = SampleSet("src", [f"c{i}" for i in range(5)], [0.80, 0.78, 0.70, 0.83, 0.95])


def row(source, family, level, q, path=None):
    return ManifestRow(path or f"{source}_{family}_{level}.wav", source, family, level, float(level), q)


class TestSampleSet:
    @pytest.mark.parametrize("q", [[0.5, 0.6], [0.5, 0.6, 0.7, 0.8], [[0.5, 0.6, 0.7]]])
    def test_q_length_must_match_clip_refs(self, q):
        with pytest.raises(ValueError, match="q has shape"):
            SampleSet("s", ["a", "b", "c"], q)

    def test_q_is_float64(self):
        assert SampleSet("s", ["a", "b"], [1, 0]).q.dtype == np.float64


class TestBuildSampleSets:
    def test_grouping(self):
        manifest = [row(f"s{i}", fam, lvl, 0.5)
                    for i in range(2) for fam in ("clip", "noise") for lvl in range(5)]
        sets = build_sample_sets(manifest)
        assert [s.source_id for s in sets] == ["s0", "s1"]
        assert all(len(s.clip_refs) == 10 for s in sets)

    def test_clean_rows_excluded(self):
        manifest = [row("s0", "clean", 0, 1.0)] + [row("s0", "clip", lvl, 0.5) for lvl in range(5)]
        sets = build_sample_sets(manifest)
        assert len(sets[0].clip_refs) == 5

    def test_small_source_skipped(self):
        manifest = [row("tiny", "clip", lvl, 0.5) for lvl in range(2)]
        manifest += [row("ok", "clip", lvl, 0.5) for lvl in range(5)]
        sets = build_sample_sets(manifest)
        assert [s.source_id for s in sets] == ["ok"]

    def test_q_passthrough_bit_exact(self):
        qs = [0.1234567890123, 0.5, 0.99999999]
        manifest = [row("s", "clip", i, q) for i, q in enumerate(qs)]
        sets = build_sample_sets(manifest)
        assert sets[0].q.tolist() == qs

    def test_repeated_clip_path_rejected(self):
        # two concatenated manifests: every anchor would find itself as its positive
        manifest = [row("s", "clip", lvl, 0.5 + 0.1 * lvl) for lvl in range(5)]
        with pytest.raises(DataError, match="s_clip_0.wav"):
            build_sample_sets(manifest + manifest)


class TestPickPositive:
    def test_hand_example(self):
        assert pick_positive(distances(HAND_SET, 0)) == 1  # 0.78, |d|=0.02

    def test_duplicate_q_wins(self):
        st = SampleSet("s", ["a", "b", "c"], [0.8, 0.7, 0.8])
        assert pick_positive(distances(st, 0)) == 2

    def test_tie_breaks_to_lower_index(self):
        st = SampleSet("s", ["a", "b", "c"], [0.5, 0.6, 0.4])
        assert pick_positive(distances(st, 0)) == 1


class TestEasyNegative:
    def test_hand_example_candidates(self):
        # with s=0.05 only 0.70 and 0.95 are admissible
        picks = {
            sample_easy_negative(distances(HAND_SET, 0), 1, 0.05, np.random.default_rng(seed))
            for seed in range(50)
        }
        assert picks == {2, 4}

    def test_zero_margin_degenerates(self):
        picks = {
            sample_easy_negative(distances(HAND_SET, 0), 1, 0.0, np.random.default_rng(seed))
            for seed in range(100)
        }
        assert picks == {2, 3, 4}  # everything farther than the positive

    def test_huge_margin_empties_set(self):
        with pytest.raises(EmptyNegativeSetError):
            sample_easy_negative(distances(HAND_SET, 0), 1, 0.5, np.random.default_rng(0))


class TestHardNegative:
    def test_hand_example(self):
        assert sample_hard_negative(distances(HAND_SET, 0), 1) == 3  # 0.83, |d|=0.03

    def test_three_entry_set(self):
        st = SampleSet("s", ["a", "b", "c"], [0.5, 0.52, 0.9])
        assert sample_hard_negative(distances(st, 0), 1) == 2

    def test_all_equal_distances(self):
        st = SampleSet("s", ["a", "b", "c"], [0.5, 0.6, 0.6])
        with pytest.raises(EmptyNegativeSetError):
            sample_hard_negative(distances(st, 0), 1)


def random_sets(rng, n_sets=4, max_entries=12):
    sets = []
    for i in range(n_sets):
        n = rng.integers(3, max_entries + 1)
        sets.append(SampleSet(f"s{i}", [f"s{i}_c{j}" for j in range(n)],
                              [float(rng.random()) for j in range(n)]))
    return sets


def oracle_candidates(q, anchor_idx, s):
    """Exhaustive enumeration of the positive and both negative candidate sets."""
    q_a = q[anchor_idx]
    d = [abs(x - q_a) for x in q]
    others = [i for i in range(len(q)) if i != anchor_idx]
    d_p = min(d[i] for i in others)
    positives = [i for i in others if d[i] == d_p]
    easy = [i for i in others if d[i] > d_p + s]
    beyond = [i for i in others if d[i] > d_p]
    hard = [i for i in beyond if d[i] == min(d[j] for j in beyond)] if beyond else []
    return positives, easy, hard


# The scan-loop sampler rules that the array versions replaced, kept as references.
def loop_pick_positive(sample_set, anchor_idx):
    q_a = sample_set.q[anchor_idx]
    best = None
    best_d = None
    for i, q in enumerate(sample_set.q):
        if i == anchor_idx:
            continue
        d = abs(q - q_a)
        if best_d is None or d < best_d:
            best, best_d = i, d
    if best is None:
        raise TooFewEntriesError("sample set needs at least 2 entries")
    return best


def loop_distances(sample_set, anchor_idx):
    q_a = sample_set.q[anchor_idx]
    return np.array([abs(q - q_a) for q in sample_set.q])


def loop_easy_negative(sample_set, anchor_idx, positive_idx, s, rng):
    d = loop_distances(sample_set, anchor_idx)
    d_p = d[positive_idx]
    candidates = [i for i in range(len(d)) if i != anchor_idx and d[i] > d_p + s]
    if not candidates:
        raise EmptyNegativeSetError("no entry beyond the easy margin")
    return candidates[rng.integers(len(candidates))]


def loop_hard_negative(sample_set, anchor_idx, positive_idx):
    d = loop_distances(sample_set, anchor_idx)
    d_p = d[positive_idx]
    best = None
    best_d = None
    for i in range(len(d)):
        if i == anchor_idx or d[i] <= d_p:
            continue
        if best_d is None or d[i] < best_d:
            best, best_d = i, d[i]
    if best is None:
        raise EmptyNegativeSetError("no entry strictly beyond the positive's distance")
    return best


def outcome(fn, *args):
    try:
        return fn(*args)
    except (EmptyNegativeSetError, TooFewEntriesError) as e:
        return type(e)


class TestLoopReferences:
    """Each array rule picks what its loop picked, on tie-heavy sets: every q
    lies on a grid of 5 values, so equal distances are the rule."""

    @pytest.mark.parametrize("s", [0.0, 0.05, 0.2, 0.4])
    def test_sampler_rules_match_loops(self, s):
        grid = [0.1, 0.3, 0.5, 0.7, 0.9]
        rng = np.random.default_rng(int(s * 100))
        for trial in range(400):
            n = rng.integers(1, 13)
            st = SampleSet("s", [f"c{j}" for j in range(n)], [grid[rng.integers(5)] for j in range(n)])
            anchor = int(rng.integers(len(st.clip_refs)))
            d = distances(st, anchor)
            p = outcome(pick_positive, d)
            assert p == outcome(loop_pick_positive, st, anchor)
            if p is TooFewEntriesError:
                continue
            assert outcome(sample_hard_negative, d, p) == \
                outcome(loop_hard_negative, st, anchor, p)
            ours, theirs = np.random.default_rng(trial), np.random.default_rng(trial)
            for _ in range(3):
                assert outcome(sample_easy_negative, d, p, s, ours) == \
                    outcome(loop_easy_negative, st, anchor, p, s, theirs)
                assert ours.bit_generator.state == theirs.bit_generator.state


class TestSamplerConfig:
    @pytest.mark.parametrize("s", [float("nan"), float("inf")])
    def test_non_finite_margin_rejected(self, s):
        # a NaN margin fails every easy draw, so every triplet would come out hard
        with pytest.raises(ValueError, match="s must be finite"):
            SamplerConfig(s=s)

    @pytest.mark.parametrize("rng_seed", [-1, 0.5, True])
    def test_seed_not_a_nonnegative_int_rejected(self, rng_seed):
        with pytest.raises(ValueError, match="rng_seed"):
            SamplerConfig(rng_seed=rng_seed)


class TestGenerateTriplets:
    @pytest.mark.parametrize("count", [2.5, True])
    def test_count_not_a_positive_int_rejected(self, count):
        with pytest.raises(ValueError, match="count"):
            generate_triplets([HAND_SET], SamplerConfig(), count)

    def test_deterministic(self):
        sets = random_sets(np.random.default_rng(0))
        cfg = SamplerConfig(rng_seed=42)
        a = generate_triplets(sets, cfg, 100)
        b = generate_triplets(sets, cfg, 100)
        assert a == b

    def test_records_satisfy_invariants(self):
        sets = random_sets(np.random.default_rng(1), n_sets=6)
        by_id = {s.source_id: s for s in sets}
        records = generate_triplets(sets, SamplerConfig(rng_seed=7), 300)
        assert len(records) == 300
        for r in records:
            st = by_id[r.source_id]
            refs = set(st.clip_refs)
            assert {r.anchor_path, r.positive_path, r.negative_path} <= refs
            assert abs(r.q_p - r.q_a) <= abs(r.q_n - r.q_a)
            if r.strategy == "easy":
                assert abs(r.q_n - r.q_a) > abs(r.q_p - r.q_a) + 0.05 - 1e-12

    def test_strategy_mix(self):
        sets = random_sets(np.random.default_rng(2), n_sets=8)
        records = generate_triplets(sets, SamplerConfig(strategy_mix=0.5, rng_seed=3), 1000)
        easy = sum(1 for r in records if r.strategy == "easy")
        assert 400 < easy < 600

    def test_exhausted_sampler(self):
        # all entries share one q value: no negative can ever exist
        st = SampleSet("s", [f"c{i}" for i in range(5)], [0.5] * 5)
        with pytest.raises(ExhaustedSamplerError):
            generate_triplets([st], SamplerConfig(rng_seed=0), 10)

    def test_distances_built_once_per_attempt(self, monkeypatch):
        calls, real = [], triplets.distances

        def counting_distances(sample_set, anchor_idx):
            calls.append(anchor_idx)
            return real(sample_set, anchor_idx)

        monkeypatch.setattr(triplets, "distances", counting_distances)
        # every hard attempt succeeds here: all anchors have distinct distances to the others
        ok = SampleSet("s", ["a", "b", "c", "d"], [0.1, 0.2, 0.4, 0.8])
        generate_triplets([ok], SamplerConfig(strategy_mix=0.0, rng_seed=0), 50)
        assert len(calls) == 50
        # every attempt fails here, so the sampler gives up after its attempt budget
        calls.clear()
        flat = SampleSet("s", [f"c{i}" for i in range(5)], [0.5] * 5)
        with pytest.raises(ExhaustedSamplerError):
            generate_triplets([flat], SamplerConfig(rng_seed=0), 1)
        assert len(calls) == triplets.MAX_ATTEMPTS_PER_TRIPLET

    def test_sampler_matches_oracle(self):
        # randomized small sets: sampler picks always lie in the enumerated
        # candidate sets
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = rng.integers(3, 13)
            q = [float(rng.random()) for j in range(n)]
            st = SampleSet("s", [f"c{j}" for j in range(n)], q)
            anchor = int(rng.integers(len(q)))
            positives, easy, hard = oracle_candidates(q, anchor, 0.05)
            d = distances(st, anchor)
            p = pick_positive(d)
            assert p == positives[0]  # lowest-index tie break
            if easy:
                assert sample_easy_negative(d, p, 0.05, rng) in easy
            else:
                with pytest.raises(EmptyNegativeSetError):
                    sample_easy_negative(d, p, 0.05, rng)
            if hard:
                assert sample_hard_negative(d, p) == hard[0]
            else:
                with pytest.raises(EmptyNegativeSetError):
                    sample_hard_negative(d, p)


class TestSplitAndIo:
    def test_split_is_source_disjoint(self):
        sets = random_sets(np.random.default_rng(3), n_sets=10)
        records = generate_triplets(sets, SamplerConfig(rng_seed=1), 500)
        train, val = split_by_source(records, 0.8, rng_seed=5)
        assert {r.source_id for r in train} & {r.source_id for r in val} == set()
        assert len(train) + len(val) == len(records)

    def test_csv_roundtrip(self, tmp_path):
        sets = random_sets(np.random.default_rng(4))
        records = generate_triplets(sets, SamplerConfig(rng_seed=2), 50)
        path = tmp_path / "t.csv"
        write_triplets(records, path)
        assert read_triplets(path) == records
