import numpy as np
import pytest

from stresstwin.errors import EmptyDataset, InvalidParam, TooManyFeatures
from stresstwin.forest import (
    Dataset,
    DecisionTree,
    ForestParams,
    RandomForest,
    predict_proba,
    train_forest,
)
from stresstwin.shapley import (
    SAMPLE_CHUNK,
    _distinct_pairs,
    _mean_tree_phi,
    _path_groups,
    _subset_values,
    brute_force_shap,
    forest_shap,
    shap_summary,
    tree_shap,
)


def random_tree(seed, n_features=13, depth=4, n=60):
    """Genuine covers: grow a capped tree on random data."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, n_features))
    y = rng.integers(1, 6, n)
    y[0], y[1] = 1, 2  # ensure two classes
    params = ForestParams(n_trees=1, mtry=n_features, min_samples_leaf=2, max_depth=depth)
    return train_forest(Dataset(X, y), params, seed=seed), rng.normal(0, 1, n_features)


def single_leaf_tree(cls=3, cover=5.0):
    hist = np.zeros((1, 5))
    hist[0, cls - 1] = cover
    return DecisionTree(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.zeros(1),
        left=np.array([-1], dtype=np.int32),
        right=np.array([-1], dtype=np.int32),
        cover=np.array([cover]),
        hist=hist,
        max_depth=0,
    )


def depth1_tree(feature=2, thr=0.0, left_cover=3.0, right_cover=7.0):
    hist = np.zeros((3, 5))
    hist[1, 0] = left_cover  # left leaf all class 1
    hist[2, 4] = right_cover  # right leaf all class 5
    hist[0] = hist[1] + hist[2]
    return DecisionTree(
        feature=np.array([feature, -1, -1], dtype=np.int32),
        threshold=np.array([thr, 0.0, 0.0]),
        left=np.array([1, -1, -1], dtype=np.int32),
        right=np.array([2, -1, -1], dtype=np.int32),
        cover=np.array([left_cover + right_cover, left_cover, right_cover]),
        hist=hist,
        max_depth=1,
    )


def repeated_feature_tree(inner=-1.0):
    """Splits feature 0 at 0 and again at ``inner`` on the path through feature 1."""
    feature = np.array([0, 1, -1, 0, -1, -1, -1], dtype=np.int32)
    threshold = np.array([0.0, 0.0, 0.0, inner, 0.0, 0.0, 0.0])
    left = np.array([1, 3, -1, 5, -1, -1, -1], dtype=np.int32)
    right = np.array([2, 4, -1, 6, -1, -1, -1], dtype=np.int32)
    hist = np.zeros((7, 5))
    hist[2] = [0, 0, 1, 2, 5]
    hist[4] = [1, 3, 1, 0, 0]
    hist[5] = [3, 0, 0, 0, 0]
    hist[6] = [0, 4, 0, 0, 0]
    hist[3] = hist[5] + hist[6]
    hist[1] = hist[3] + hist[4]
    hist[0] = hist[1] + hist[2]
    return DecisionTree(
        feature=feature,
        threshold=threshold,
        left=left,
        right=right,
        cover=hist.sum(axis=1),
        hist=hist,
        max_depth=3,
    )


class TestTreeShap:
    def test_single_leaf(self):
        tree = single_leaf_tree()
        phi, phi0 = tree_shap(tree, np.zeros(4), 4)
        assert np.all(phi == 0.0)
        assert phi0[2] == 1.0

    def test_depth1_only_split_feature_attributed(self):
        tree = depth1_tree(feature=2)
        x = np.array([0.0, 0.0, -1.0, 0.0])
        phi, phi0 = tree_shap(tree, x, 4)
        nonzero = np.nonzero(np.abs(phi).sum(axis=1) > 1e-15)[0]
        assert nonzero.tolist() == [2]
        # local accuracy: x goes left -> all class 1
        assert abs(phi0[0] + phi[:, 0].sum() - 1.0) < 1e-12

    def test_oracle_equivalence_100_trees(self):
        max_diff = 0.0
        for seed in range(100):
            forest, x = random_tree(seed)
            tree = forest.trees[0]
            phi_fast, _ = tree_shap(tree, x, 13)
            phi_brute = brute_force_shap(tree, x, 13)
            max_diff = max(max_diff, float(np.abs(phi_fast - phi_brute).max()))
        assert max_diff < 1e-9

    def test_duplicate_split_features_on_path(self):
        # few features force repeated splits along a path
        for seed in range(20):
            rng = np.random.default_rng(seed + 500)
            X = rng.normal(0, 1, (80, 3))
            y = rng.integers(1, 6, 80)
            y[0], y[1] = 1, 2
            forest = train_forest(
                Dataset(X, y), ForestParams(n_trees=1, mtry=3, min_samples_leaf=2, max_depth=5), seed
            )
            tree = forest.trees[0]
            feats_per_path = tree.feature[tree.feature >= 0]
            x = rng.normal(0, 1, 3)
            phi_fast, _ = tree_shap(tree, x, 3)
            phi_brute = brute_force_shap(tree, x, 3)
            assert np.abs(phi_fast - phi_brute).max() < 1e-9

    def test_missing_cover_rejected(self):
        tree = depth1_tree()
        tree.cover[0] = 99.0  # break the partition
        with pytest.raises(InvalidParam, match="covers do not sum"):
            tree_shap(tree, np.zeros(4), 4)

    def test_symmetry_under_feature_swap(self):
        tree_a = depth1_tree(feature=0)
        tree_b = depth1_tree(feature=1)
        x = np.array([-1.0, -1.0])
        phi_a, _ = tree_shap(tree_a, x, 2)
        phi_b, _ = tree_shap(tree_b, x, 2)
        assert np.allclose(phi_a[0], phi_b[1])
        assert np.allclose(phi_a[1], phi_b[0])


class TestBatchedPaths:
    @pytest.mark.parametrize("inner", [-1.0, 1.0])
    def test_repeated_feature_merged_on_path(self, inner):
        # x0 on each side of both splits of feature 0: off-path samples give
        # the merged element a zero one-fraction. inner=1 nests a split looser
        # than its parent's bound, which only the intersected bounds honour.
        tree = repeated_feature_tree(inner)
        forest = RandomForest(trees=[tree], n_features=2)
        X = np.array([[x0, x1] for x0 in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5) for x1 in (-1.0, 1.0)])
        proba = predict_proba(forest, X)
        for x, p in zip(X, proba):
            phi, phi0 = tree_shap(tree, x, 2)
            assert np.abs(phi - brute_force_shap(tree, x, 2)).max() < 1e-12
            assert np.abs(phi0 + phi.sum(axis=0) - p).max() < 1e-12

    @pytest.mark.parametrize("n_samples", [1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1])
    def test_summary_matches_per_sample_and_oracle(self, n_samples):
        rng = np.random.default_rng(n_samples)
        X = rng.normal(0, 1, (120, 3))
        y = rng.integers(1, 6, 120)
        y[:5] = [1, 2, 3, 4, 5]
        forest = train_forest(Dataset(X, y), ForestParams(n_trees=6, mtry=2, min_samples_leaf=2), seed=3)
        probes = rng.normal(0, 1, (n_samples, 3))
        names = ["a", "b", "c"]
        summary, beeswarm = shap_summary(forest, Dataset(probes, np.ones(n_samples, dtype=int)), names)
        phis = []
        for x in probes:
            phi = forest_shap(forest, x).phi
            oracle = sum(brute_force_shap(t, x, 3) for t in forest.trees) / len(forest.trees)
            assert np.abs(phi - oracle).max() < 1e-9
            phis.append(phi)
        for row in beeswarm:
            phi = phis[row["sample_index"]][names.index(row["feature"]), row["predicted_class"] - 1]
            assert abs(row["phi"] - phi) < 1e-9
        mean_abs = np.abs(phis).mean(axis=0)
        for row in summary:
            for c in range(1, 6):
                assert abs(row[f"class_{c}"] - mean_abs[names.index(row["feature"]), c - 1]) < 1e-9


# --- distinct path patterns against the per-sample evaluation ---------------------


def reference_group_phi(group, X, n_features):
    """EXTEND and UNWOUND for every (sample, path) pair of a path group, as
    the explainer did before it deduplicated patterns: the oracle for it."""
    n_samples = X.shape[0]
    n_paths, u = group.feature.shape
    xf = X[:, group.feature]
    one = ((xf > group.lo) & (xf <= group.hi)).astype(np.float64)
    zero = group.zero
    pw = np.zeros((n_samples, n_paths, u + 1))
    pw[:, :, 0] = 1.0
    for e in range(1, u + 1):
        k = np.arange(e + 1)
        old = pw[:, :, : e + 1]
        new = zero[:, e - 1 : e] * old * (e - k) / (e + 1.0)
        new[:, :, 1:] += one[:, :, e - 1 : e] * old[:, :, :-1] * k[1:] / (e + 1.0)
        pw[:, :, : e + 1] = new
    next_one = np.broadcast_to(pw[:, :, u : u + 1], one.shape)
    total_one = np.zeros_like(one)
    total_zero = np.zeros_like(one)
    for k in range(u - 1, -1, -1):
        pk = pw[:, :, k : k + 1]
        tmp = next_one * (u + 1.0) / (k + 1.0)
        total_one += tmp
        next_one = pk - tmp * zero * (u - k) / (u + 1.0)
        total_zero += (pk / zero) / ((u - k) / (u + 1.0))
    w = np.where(one != 0.0, total_one, total_zero) * (one - zero)
    per_path = np.zeros((n_samples, n_paths, n_features))
    per_path[:, np.arange(n_paths)[:, None], group.feature] = w
    return np.matmul(per_path.transpose(0, 2, 1), group.value)


def reference_mean_tree_phi(table, X, n_features):
    groups = _path_groups(table)
    phi = np.zeros((X.shape[0], n_features, 5))
    for start in range(0, X.shape[0], SAMPLE_CHUNK):
        chunk = X[start : start + SAMPLE_CHUNK]
        for group in groups:
            phi[start : start + SAMPLE_CHUNK] += reference_group_phi(group, chunk, n_features)
    return phi


def chain_tree(depth):
    """Splits feature d at 0 on the right path at depth d, so its deepest
    path holds ``depth`` distinct features, more than one pattern word."""
    n = 2 * depth + 1
    feature = np.full(n, -1, dtype=np.int32)
    threshold = np.zeros(n)
    left = np.full(n, -1, dtype=np.int32)
    right = np.full(n, -1, dtype=np.int32)
    hist = np.zeros((n, 5))
    for d in range(depth):
        node = 2 * d
        feature[node], left[node], right[node] = d, node + 1, node + 2
        hist[node + 1, d % 5] = 1.0 + d % 3
    hist[n - 1, 4] = 2.0
    for d in range(depth - 1, -1, -1):
        hist[2 * d] = hist[2 * d + 1] + hist[2 * d + 2]
    return DecisionTree(feature, threshold, left, right, hist.sum(axis=1), hist, depth)


def probes(forest, n, seed, spread=1.5):
    """Random rows, rows exactly on a split threshold, and duplicated rows."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0, spread, (n, forest.n_features))
    for i, tree in enumerate(forest.trees):
        split = np.nonzero(tree.feature >= 0)[0]
        if split.size:
            node = split[(3 * i) % split.size]
            X[i % n, tree.feature[node]] = tree.threshold[node]
    X[n // 2 :: 3] = X[0]
    return X


def repeats_a_feature(tree, node=0, above=()):
    """Whether a split of ``tree`` reuses a feature split above it on its path."""
    f = int(tree.feature[node])
    if f < 0:
        return False
    return f in above or any(repeats_a_feature(tree, int(c), above + (f,)) for c in (tree.left[node], tree.right[node]))


def noisy_levels(n, n_features, seed):
    """Features and 1..5 labels from noisy thresholds, so trees grow several levels."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, n_features))
    score = X[:, 0] + 0.5 * X[:, 1] * X[:, -1] + rng.normal(0, 0.4, n)
    return X, np.digitize(score, [-1.0, -0.3, 0.3, 1.0]) + 1


def assert_phi_matches_reference(forest, X):
    got = _mean_tree_phi(forest._table, X, forest.n_features)
    ref = reference_mean_tree_phi(forest._table, X, forest.n_features)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


class TestDistinctPatterns:
    @pytest.mark.parametrize("n_samples", [1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, 3 * SAMPLE_CHUNK + 5])
    def test_repeated_feature_paths(self, n_samples):
        # three features and deep trees: most paths split a feature twice
        rng = np.random.default_rng(n_samples)
        X = rng.normal(0, 1, (150, 3))
        y = rng.integers(1, 6, 150)
        forest = train_forest(Dataset(X, y), ForestParams(n_trees=8, mtry=2, min_samples_leaf=1), seed=1)
        assert any(repeats_a_feature(tree) for tree in forest.trees)
        assert_phi_matches_reference(forest, probes(forest, n_samples, n_samples))

    @pytest.mark.parametrize("n_samples", [1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1])
    def test_thirteen_features_on_thresholds(self, n_samples):
        forest = train_forest(
            Dataset(*noisy_levels(200, 13, 4)), ForestParams(n_trees=30, mtry=3, min_samples_leaf=2), seed=4
        )
        assert_phi_matches_reference(forest, probes(forest, n_samples, 7))

    @pytest.mark.parametrize("inner", [-1.0, 1.0])
    def test_hand_built_repeated_feature(self, inner):
        forest = RandomForest(trees=[repeated_feature_tree(inner), depth1_tree(feature=1)], n_features=2)
        X = np.array([[x0, x1] for x0 in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5) for x1 in (-1.0, 0.0, 1.0)])
        assert_phi_matches_reference(forest, np.vstack([X, X[::-1]]))

    def test_path_longer_than_a_pattern_word(self):
        depth = 70
        forest = RandomForest(trees=[chain_tree(depth)], n_features=depth)
        rng = np.random.default_rng(0)
        X = np.where(rng.random((SAMPLE_CHUNK + 3, depth)) < 0.9, 1.0, -1.0)
        X[1] = X[0]
        X[2, :] = 1.0  # reaches the deepest leaf
        X[3, :] = 0.0  # on every threshold
        assert max(g.feature.shape[1] for g in _path_groups(forest._table)) == depth
        assert_phi_matches_reference(forest, X)

    @pytest.mark.parametrize("u", [1, 3, 70])
    def test_codes_equal_exactly_when_path_and_pattern_do(self, u):
        rng = np.random.default_rng(u)
        inside = rng.random((9, 5, u)) < 0.8
        inside[4] = inside[1]
        inside[7, 2] = inside[0, 2]
        first, code = _distinct_pairs(inside)
        pairs = inside.reshape(-1, u)
        path = np.tile(np.arange(5), 9)
        keys = [(int(p), row.tobytes()) for p, row in zip(path, pairs)]
        flat = code.ravel()
        for i in range(len(keys)):
            for j in range(len(keys)):
                assert (flat[i] == flat[j]) == (keys[i] == keys[j])
        assert sorted(set(flat.tolist())) == list(range(first.size))
        assert all(keys[first[c]] == keys[i] for i, c in enumerate(flat))


class TestBruteForce:
    def test_single_leaf_zero(self):
        phi = brute_force_shap(single_leaf_tree(), np.zeros(3), 3)
        assert np.all(phi == 0.0)

    def test_hand_enumerated_depth1(self):
        # d=2, split on feature 0 at 0, x goes left (all class 1).
        # v(empty)=0.3, v({0})=1, v({1})=0.3, v({0,1})=1 for class 1,
        # so phi_0 = 0.7 and phi_1 = 0.
        tree = depth1_tree(feature=0, left_cover=3.0, right_cover=7.0)
        x = np.array([-1.0, 0.0])
        phi = brute_force_shap(tree, x, 2)
        assert abs(phi[0, 0] - 0.7) < 1e-12
        assert abs(phi[1, 0]) < 1e-12

    def test_efficiency_axiom(self):
        for seed in range(25):
            forest, x = random_tree(seed, n_features=6)
            tree = forest.trees[0]
            phi = brute_force_shap(tree, x, 6)
            v = _subset_values(tree, x, 6)
            v_empty, v_full = v[0], v[(1 << 6) - 1]
            assert np.abs(v_empty + phi.sum(axis=0) - v_full).max() < 1e-12

    def test_too_many_features(self):
        with pytest.raises(TooManyFeatures):
            brute_force_shap(single_leaf_tree(), np.zeros(16), 16)


class TestForestShap:
    def test_identical_trees_equal_single(self):
        tree = depth1_tree(feature=1)
        forest = RandomForest(trees=[tree, tree, tree], n_features=4)
        x = np.array([0.0, 5.0, 0.0, 0.0])
        single_phi, single_phi0 = tree_shap(tree, x, 4)
        exp = forest_shap(forest, x)
        assert np.allclose(exp.phi, single_phi)
        assert np.allclose(exp.phi0, single_phi0)

    def test_local_accuracy_100_samples(self):
        rng = np.random.default_rng(77)
        X = rng.normal(0, 1, (300, 5))
        y = rng.integers(1, 6, 300)
        y[:5] = [1, 2, 3, 4, 5]
        forest = train_forest(
            Dataset(X, y), ForestParams(n_trees=30, mtry=2, min_samples_leaf=2), seed=4
        )
        probes = rng.normal(0, 1, (100, 5))
        proba = predict_proba(forest, probes)
        worst = 0.0
        for i in range(100):
            exp = forest_shap(forest, probes[i])
            recon = exp.phi0 + exp.phi.sum(axis=0)
            worst = max(worst, float(np.abs(recon - proba[i]).max()))
        assert worst < 1e-9

    def test_never_split_feature_has_zero_phi(self):
        rng = np.random.default_rng(5)
        X = rng.normal(0, 1, (150, 4))
        X[:, 3] = 1.25  # constant; no split can use it
        y = rng.integers(1, 4, 150)
        y[:3] = [1, 2, 3]
        forest = train_forest(Dataset(X, y), ForestParams(n_trees=15, mtry=4), seed=0)
        for _ in range(10):
            exp = forest_shap(forest, rng.normal(0, 1, 4))
            assert np.all(exp.phi[3] == 0.0)

    def test_per_class_accessor(self):
        tree = depth1_tree()
        forest = RandomForest(trees=[tree], n_features=4)
        exp = forest_shap(forest, np.zeros(4))
        phi_c1, phi0_c1 = exp.for_class(1)
        assert phi_c1.shape == (4,)
        assert isinstance(phi0_c1, float)


class TestNonFiniteInput:
    """A non-finite feature has no path; it is rejected as predict_proba rejects it."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_like_predict_proba(self, bad):
        forest, x = random_tree(12, n_features=5)
        tree = forest.trees[0]
        x[1] = bad
        with pytest.raises(InvalidParam, match="must be finite") as from_proba:
            predict_proba(forest, x)
        with pytest.raises(InvalidParam) as from_forest:
            forest_shap(forest, x)
        with pytest.raises(InvalidParam) as from_tree:
            tree_shap(tree, x, 5)
        assert str(from_forest.value) == str(from_tree.value) == str(from_proba.value)


class TestShapSummary:
    def test_constant_forest_all_zero(self):
        forest = RandomForest(trees=[single_leaf_tree()], n_features=3)
        ds = Dataset(np.random.default_rng(0).normal(0, 1, (20, 3)), np.full(20, 3))
        summary, beeswarm = shap_summary(forest, ds, ["a", "b", "c"])
        assert all(row["total_mean_abs_phi"] == 0.0 for row in summary)
        assert len(beeswarm) == 60

    def test_split_feature_dominates(self):
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (200, 3))
        y = np.where(X[:, 1] > 0, 4, 1)
        forest = train_forest(Dataset(X, y), ForestParams(n_trees=20, mtry=3), seed=0)
        summary, _ = shap_summary(forest, Dataset(X, y), ["f0", "f1", "f2"])
        assert summary[0]["feature"] == "f1"

    def test_empty_dataset(self):
        forest = RandomForest(trees=[single_leaf_tree()], n_features=3)
        with pytest.raises(EmptyDataset):
            shap_summary(forest, Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int)), ["a", "b", "c"])
