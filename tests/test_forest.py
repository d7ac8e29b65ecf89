import json

import numpy as np
import pytest

from stresstwin.errors import (
    DegenerateData,
    DimensionMismatch,
    EmptyDataset,
    InvalidParam,
)
from stresstwin.forest import (
    Dataset,
    DecisionTree,
    ForestParams,
    RandomForest,
    _canonical_order,
    _gini_cuts,
    _split_threshold,
    evaluate,
    forest_from_dict,
    forest_to_dict,
    load_forest,
    predict,
    predict_levels,
    predict_proba,
    record_level_split,
    save_forest,
    stratified_split,
    train_forest,
)
from stresstwin.shapley import forest_shap
from tests.test_shapley import depth1_tree, repeated_feature_tree, single_leaf_tree

SMALL = ForestParams(n_trees=20, mtry=2, min_samples_leaf=2)


def best_split_reference(xs, ys, n_classes, min_leaf):
    """Split scan as a plain loop over cut positions: the oracle for one row of _gini_cuts."""
    n = xs.shape[0]
    left = np.zeros(n_classes)
    right = np.zeros(n_classes)
    for c in ys:
        right[c] += 1.0
    best_g, best_thr, found = np.inf, 0.0, False
    for i in range(n - 1):
        left[ys[i]] += 1.0
        right[ys[i]] -= 1.0
        nl = i + 1.0
        nr = n - nl
        if xs[i + 1] == xs[i] or nl < min_leaf or nr < min_leaf:
            continue
        sl = sum(left[k] * left[k] for k in range(n_classes))
        sr = sum(right[k] * right[k] for k in range(n_classes))
        g = (nl - sl / nl + nr - sr / nr) / n
        if g < best_g:
            best_g, best_thr, found = g, _split_threshold(xs[i], xs[i + 1]), True
    return best_g, best_thr, found


def best_cut(g, xs, row):
    """(g, threshold, found) of one row of a _gini_cuts scan, as best_split_reference reports it."""
    if g.shape[1] == 0 or g[row].min() == np.inf:
        return np.inf, 0.0, False
    i = int(np.argmin(g[row]))
    return g[row, i], _split_threshold(xs[row, i], xs[row, i + 1]), True


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 40])
@pytest.mark.parametrize("seed", range(5))
def test_best_split_matches_reference_loop(n, seed):
    rng = np.random.default_rng(seed)
    # few distinct values, so runs of ties straddle the candidate cuts; three
    # rows scanned together, as a node scans its candidate features
    xs = np.sort(rng.integers(0, max(2, n // 2), (3, n)).astype(np.float64) * 0.1, axis=1)
    ys = rng.integers(0, 5, (3, n))
    for min_leaf in sorted({0, 1, max(1, n // 2), (n + 1) // 2, n}):
        g, cum = _gini_cuts(xs, ys, min_leaf)
        assert g.shape == (3, n - 1)
        for row in range(3):
            assert best_cut(g, xs, row) == best_split_reference(xs[row], ys[row], 5, min_leaf)
            alone, _ = _gini_cuts(xs[row : row + 1], ys[row : row + 1], min_leaf)
            assert alone.tobytes() == g[row : row + 1].tobytes()
            for i in range(n):
                assert cum[row, :, i].tolist() == np.bincount(ys[row, : i + 1], minlength=5).tolist()


# --- presorted builder against the per-node sort ---------------------------------


class ReferenceTreeBuilder:
    """Recursive builder that sorts each node's samples per candidate feature,
    as the trainer did before it presorted: the oracle for the presorted one."""

    def __init__(self, X, y_codes, rng, params):
        self.X, self.y, self.rng, self.params = X, y_codes, rng, params
        self.feature, self.threshold, self.left, self.right, self.cover, self.hist = [], [], [], [], [], []
        self.max_depth = 0

    def build(self, indices):
        self._grow(indices, 0)
        return DecisionTree(
            feature=np.asarray(self.feature, dtype=np.int32),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int32),
            right=np.asarray(self.right, dtype=np.int32),
            cover=np.asarray(self.cover, dtype=np.float64),
            hist=np.asarray(self.hist, dtype=np.float64),
            max_depth=self.max_depth,
        )

    def _grow(self, indices, depth):
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.cover.append(float(indices.size))
        self.hist.append(np.bincount(self.y[indices], minlength=5).astype(float))
        self.max_depth = max(self.max_depth, depth)
        p = self.params
        pure = np.count_nonzero(self.hist[node]) <= 1
        depth_capped = p.max_depth is not None and depth >= p.max_depth
        if pure or depth_capped or indices.size < 2 * p.min_samples_leaf:
            return node
        n_features = self.X.shape[1]
        candidates = np.sort(self.rng.choice(n_features, size=min(p.mtry, n_features), replace=False))
        best = (np.inf, 0.0, -1)
        for f in candidates:
            xs = self.X[indices, f]
            order = np.argsort(xs, kind="mergesort")
            g, thr, found = best_split_reference(xs[order], self.y[indices][order], 5, p.min_samples_leaf)
            if found and g < best[0]:
                best = (g, thr, int(f))
        if best[2] < 0:
            return node
        _, thr, f = best
        mask = self.X[indices, f] <= thr
        left_node = self._grow(indices[mask], depth + 1)
        right_node = self._grow(indices[~mask], depth + 1)
        self.feature[node] = f
        self.threshold[node] = thr
        self.left[node] = left_node
        self.right[node] = right_node
        return node


def reference_trees(dataset, params, seed):
    """The trees train_forest grows, grown one at a time by ReferenceTreeBuilder."""
    ds = _canonical_order(dataset)
    n = len(ds)
    trees = []
    for t in range(params.n_trees):
        rng = np.random.default_rng(seed + t)
        boot = rng.integers(0, n, size=n)
        trees.append(ReferenceTreeBuilder(ds.X, ds.y - 1, rng, params).build(np.sort(boot)))
    return trees


def tied_dataset(n=90, seed=0):
    """13 features of four levels each (runs of ties), one constant column, and
    duplicated rows, some with a different label, keyed out of order."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, (n, 13)).astype(np.float64) * 0.25
    X[:, 5] = 1.5
    X[-12:] = X[:12]
    score = X[:, 0] + X[:, 1] - X[:, 2] + rng.normal(0, 0.3, n)
    y = np.digitize(score, [-0.2, 0.3, 0.8, 1.3]) + 1
    y[-3:] = y[:3] % 5 + 1
    keys = [("rec", float(k)) for k in rng.permutation(n)]
    return Dataset(X, y, keys)


def assert_same_trees(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        for name in ("feature", "threshold", "left", "right", "cover", "hist"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name
        assert a.max_depth == b.max_depth


@pytest.mark.parametrize("max_depth", [None, 0, 1, 3])
@pytest.mark.parametrize("min_leaf", [1, 2, 5])
@pytest.mark.parametrize("mtry", [1, 2, 3, 13])
def test_presorted_tree_matches_per_node_sort(mtry, min_leaf, max_depth):
    params = ForestParams(n_trees=1, mtry=mtry, min_samples_leaf=min_leaf, max_depth=max_depth)
    ds = tied_dataset(seed=mtry * 10 + min_leaf)
    assert_same_trees(train_forest(ds, params, seed=3).trees, reference_trees(ds, params, 3))


@pytest.mark.parametrize(
    "params",
    [
        ForestParams(n_trees=20, mtry=3, min_samples_leaf=2),
        ForestParams(n_trees=20, mtry=1, min_samples_leaf=1),
        ForestParams(n_trees=20, mtry=13, min_samples_leaf=5, max_depth=3),
    ],
    ids=["default_like", "one_candidate", "all_candidates_capped"],
)
def test_presorted_forest_matches_per_node_sort(params):
    ds = tied_dataset(n=120, seed=11)
    assert_same_trees(train_forest(ds, params, seed=2025).trees, reference_trees(ds, params, 2025))


def two_blob_dataset(n=200, seed=0, with_keys=False):
    """Linearly separable two-class set in two features."""
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack(
        [
            rng.normal(-2.0, 0.5, (half, 2)),
            rng.normal(+2.0, 0.5, (n - half, 2)),
        ]
    )
    y = np.array([1] * half + [3] * (n - half))
    keys = [("rec", float(i)) for i in range(n)] if with_keys else None
    return Dataset(X, y, keys)


class TestStratifiedSplit:
    def test_proportions(self):
        y = np.array([1] * 80 + [2] * 20)
        ds = Dataset(np.zeros((100, 2)), y)
        train, test = stratified_split(ds, 0.7, seed=1)
        assert int(np.sum(train.y == 1)) == 56
        assert int(np.sum(train.y == 2)) == 14
        assert int(np.sum(test.y == 1)) == 24
        assert int(np.sum(test.y == 2)) == 6

    def test_single_sample_goes_to_train(self):
        ds = Dataset(np.zeros((1, 2)), np.array([4]))
        train, test = stratified_split(ds, 0.7, seed=0)
        assert len(train) == 1
        assert len(test) == 0

    def test_deterministic(self):
        ds = two_blob_dataset(101, seed=5)
        a = stratified_split(ds, 0.7, seed=9)
        b = stratified_split(ds, 0.7, seed=9)
        assert np.array_equal(a[0].X, b[0].X)
        assert np.array_equal(a[1].X, b[1].X)

    def test_disjoint_and_exhaustive(self):
        ds = two_blob_dataset(157, seed=2, with_keys=True)
        train, test = stratified_split(ds, 0.7, seed=3)
        assert len(train) + len(test) == len(ds)
        assert set(train.keys).isdisjoint(test.keys)

    def test_empty(self):
        ds = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
        with pytest.raises(EmptyDataset):
            stratified_split(ds, 0.7, seed=0)


class TestRecordSplit:
    def test_records_stay_together(self):
        rng = np.random.default_rng(0)
        keys = [(f"r{i % 7}", float(i)) for i in range(140)]
        ds = Dataset(rng.normal(0, 1, (140, 3)), rng.integers(1, 4, 140), keys)
        train, test = record_level_split(ds, 0.7, seed=1)
        train_recs = {k[0] for k in train.keys}
        test_recs = {k[0] for k in test.keys}
        assert train_recs.isdisjoint(test_recs)


class TestTrainForest:
    def test_single_class_rejected(self):
        ds = Dataset(np.random.default_rng(0).normal(0, 1, (30, 2)), np.full(30, 2))
        with pytest.raises(DegenerateData):
            train_forest(ds, SMALL, seed=0)

    def test_separable_training_accuracy(self):
        ds = two_blob_dataset(200, seed=1)
        forest = train_forest(ds, SMALL, seed=0)
        assert np.mean(predict_levels(forest, ds.X) == ds.y) == 1.0

    def test_deterministic_serialization(self):
        ds = two_blob_dataset(120, seed=3)
        a = json.dumps(forest_to_dict(train_forest(ds, SMALL, seed=7)), sort_keys=True)
        b = json.dumps(forest_to_dict(train_forest(ds, SMALL, seed=7)), sort_keys=True)
        assert a == b

    def test_row_permutation_invariance_with_keys(self):
        ds = two_blob_dataset(80, seed=4, with_keys=True)
        perm = np.random.default_rng(9).permutation(len(ds))
        shuffled = ds.subset(perm)
        a = forest_to_dict(train_forest(ds, SMALL, seed=2))
        b = forest_to_dict(train_forest(shuffled, SMALL, seed=2))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_non_finite_rejected(self):
        X = np.zeros((10, 2))
        X[0, 0] = np.nan
        ds = Dataset(X, np.array([1, 2] * 5))
        with pytest.raises(InvalidParam):
            train_forest(ds, SMALL, seed=0)

    def test_covers_partition(self):
        ds = two_blob_dataset(150, seed=6)
        forest = train_forest(ds, SMALL, seed=1)
        for tree in forest.trees:
            internal = np.nonzero(tree.feature >= 0)[0]
            for node in internal:
                assert tree.cover[tree.left[node]] + tree.cover[tree.right[node]] == tree.cover[node]
            leaves = np.nonzero(tree.feature < 0)[0]
            assert np.allclose(tree.hist[leaves].sum(axis=1), tree.cover[leaves])

    def test_adjacent_float_split_keeps_both_children(self):
        # the midpoint of these two adjacent floats rounds onto the larger one
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        assert 0.5 * (a + b) == b
        X = np.array([[a]] * 6 + [[b]] * 6)
        ds = Dataset(X, np.array([1] * 6 + [2] * 6))
        g, _ = _gini_cuts(X[:, 0][None, :], (ds.y - 1)[None, :], 1)
        assert best_cut(g, X[:, 0][None, :], 0)[1] == a
        forest = train_forest(ds, ForestParams(n_trees=1, mtry=1, min_samples_leaf=1), seed=0)
        tree = forest.trees[0]
        assert tree.feature[0] == 0 and tree.threshold[0] == a
        assert np.all(tree.cover > 0)
        assert np.all(np.isfinite(predict_proba(forest, X)))
        exp = forest_shap(forest, X[-1])
        assert np.all(np.isfinite(exp.phi))


class TestPredict:
    def test_probabilities_sum_to_one(self):
        ds = two_blob_dataset(100, seed=2)
        forest = train_forest(ds, SMALL, seed=0)
        rng = np.random.default_rng(1)
        proba = predict_proba(forest, rng.normal(0, 2, (50, 2)))
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(proba >= 0.0)

    def test_tie_breaks_to_lower_level(self):
        # two stumps voting for different classes with full confidence
        from stresstwin.forest import DecisionTree, RandomForest

        def pure_leaf(cls):
            hist = np.zeros((1, 5))
            hist[0, cls - 1] = 4.0
            return DecisionTree(
                feature=np.array([-1], dtype=np.int32),
                threshold=np.zeros(1),
                left=np.array([-1], dtype=np.int32),
                right=np.array([-1], dtype=np.int32),
                cover=np.array([4.0]),
                hist=hist,
                max_depth=0,
            )

        forest = RandomForest(trees=[pure_leaf(1), pure_leaf(2)], n_features=2)
        level, proba = predict(forest, [0.0, 0.0])
        assert level == 1
        assert proba[0] == proba[1] == 0.5

    def test_single_pure_tree(self):
        from stresstwin.forest import DecisionTree, RandomForest

        hist = np.zeros((1, 5))
        hist[0, 2] = 7.0
        tree = DecisionTree(
            feature=np.array([-1], dtype=np.int32),
            threshold=np.zeros(1),
            left=np.array([-1], dtype=np.int32),
            right=np.array([-1], dtype=np.int32),
            cover=np.array([7.0]),
            hist=hist,
            max_depth=0,
        )
        level, proba = predict(RandomForest(trees=[tree], n_features=3), [0.0, 0.0, 0.0])
        assert level == 3
        assert proba[2] == 1.0

    def test_dimension_mismatch(self):
        ds = two_blob_dataset(60, seed=8)
        forest = train_forest(ds, SMALL, seed=0)
        with pytest.raises(DimensionMismatch):
            predict(forest, [1.0, 2.0, 3.0])

    def test_dummy_constant_feature_exact_with_full_mtry(self):
        # when every split sees all candidates, a constant feature can never
        # win a split and the grown trees are identical
        ds = two_blob_dataset(120, seed=5)
        aug = Dataset(np.hstack([ds.X, np.full((len(ds), 1), 3.33)]), ds.y)
        rng = np.random.default_rng(0)
        probe = rng.normal(0, 2, (40, 2))
        probe_aug = np.hstack([probe, np.full((40, 1), 3.33)])
        base_forest = train_forest(ds, ForestParams(n_trees=10, mtry=2), seed=3)
        aug_forest = train_forest(aug, ForestParams(n_trees=10, mtry=3), seed=3)
        assert np.array_equal(
            predict_proba(base_forest, probe), predict_proba(aug_forest, probe_aug)
        )

    def test_dummy_constant_feature_statistical_with_subsampling(self):
        # with mtry below the feature count the dummy rations candidate
        # slots, so require statistical agreement over seeds on the data
        # distribution plus the hard guarantee that it is never split on
        ds = two_blob_dataset(120, seed=5)
        aug = Dataset(np.hstack([ds.X, np.full((len(ds), 1), 3.33)]), ds.y)
        probe = ds.X[::3]
        probe_aug = np.hstack([probe, np.full((len(probe), 1), 3.33)])
        p_base = np.zeros((len(probe), 5))
        p_aug = np.zeros((len(probe), 5))
        seeds = range(30)
        for s in seeds:
            params = ForestParams(n_trees=10, mtry=2, min_samples_leaf=2)
            p_base += predict_proba(train_forest(ds, params, seed=s), probe)
            p_aug += predict_proba(train_forest(aug, params, seed=s), probe_aug)
        p_base /= len(seeds)
        p_aug /= len(seeds)
        assert np.mean(np.abs(p_base - p_aug)) < 0.02
        for s in (0, 13):
            forest = train_forest(aug, ForestParams(n_trees=10, mtry=2), seed=s)
            for tree in forest.trees:
                assert not np.any(tree.feature == 2)


class TestEvaluate:
    def test_perfect_predictor(self):
        ds = two_blob_dataset(200, seed=1)
        forest = train_forest(ds, SMALL, seed=0)
        report = evaluate(forest, ds)
        assert report.accuracy == 1.0
        off_diag = report.confusion.sum() - np.trace(report.confusion)
        assert off_diag == 0

    def test_constant_predictor_on_balanced_set(self):
        # all-level-1 training forces constant predictions; balanced 5-class
        # test set then scores exactly 0.2
        from stresstwin.forest import DecisionTree, RandomForest

        hist = np.zeros((1, 5))
        hist[0, 0] = 10.0
        tree = DecisionTree(
            feature=np.array([-1], dtype=np.int32),
            threshold=np.zeros(1),
            left=np.array([-1], dtype=np.int32),
            right=np.array([-1], dtype=np.int32),
            cover=np.array([10.0]),
            hist=hist,
            max_depth=0,
        )
        forest = RandomForest(trees=[tree], n_features=2)
        test = Dataset(np.zeros((50, 2)), np.array([1, 2, 3, 4, 5] * 10))
        report = evaluate(forest, test)
        assert report.accuracy == 0.2

    def test_confusion_always_5x5(self):
        ds = two_blob_dataset(100, seed=0)
        forest = train_forest(ds, SMALL, seed=0)
        report = evaluate(forest, ds)
        assert report.confusion.shape == (5, 5)
        assert report.confusion.sum() == len(ds)

    def test_empty(self):
        ds = two_blob_dataset(100, seed=0)
        forest = train_forest(ds, SMALL, seed=0)
        with pytest.raises(EmptyDataset):
            evaluate(forest, Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int)))


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        ds = two_blob_dataset(100, seed=1)
        forest = train_forest(ds, SMALL, seed=5)
        path = tmp_path / "model.json"
        save_forest(forest, path)
        loaded = load_forest(path)
        rng = np.random.default_rng(2)
        X = rng.normal(0, 2, (20, 2))
        assert np.array_equal(predict_proba(forest, X), predict_proba(loaded, X))

    def test_retraining_byte_identical_files(self, tmp_path):
        ds = two_blob_dataset(100, seed=1)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_forest(train_forest(ds, SMALL, seed=5), p1)
        save_forest(train_forest(ds, SMALL, seed=5), p2)
        assert p1.read_bytes() == p2.read_bytes()


# --- packed node table ------------------------------------------------------------


def predict_proba_reference(forest, X):
    """Each tree walked on its own, one level at a time: the oracle for the packed table."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    acc = np.zeros((X.shape[0], 5))
    for tree in forest.trees:
        node = np.zeros(X.shape[0], dtype=np.int64)
        active = tree.feature[node] >= 0
        while np.any(active):
            rows = np.nonzero(active)[0]
            cur = node[rows]
            go_left = X[rows, tree.feature[cur]] <= tree.threshold[cur]
            node[rows] = np.where(go_left, tree.left[cur], tree.right[cur])
            active = tree.feature[node] >= 0
        acc += tree.hist[node] / tree.cover[node][:, None]
    return acc / len(forest.trees)


def five_class_dataset(n=160, n_features=4, seed=0):
    """Labels from noisy thresholds on the features, so trees grow several levels."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, n_features))
    score = X[:, 0] + 0.5 * X[:, 1] * X[:, -1] + rng.normal(0, 0.4, n)
    y = np.digitize(score, [-1.0, -0.3, 0.3, 1.0]) + 1
    return Dataset(X, y)


def probes_on_thresholds(forest, n, seed):
    """Random rows, plus rows whose value sits exactly on a split threshold."""
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1.5, (n, forest.n_features))
    for i, tree in enumerate(forest.trees):
        split = np.nonzero(tree.feature >= 0)[0]
        if split.size:
            node = split[i % split.size]
            X[i % n, tree.feature[node]] = tree.threshold[node]
    return X


class TestPackedTable:
    @pytest.mark.parametrize(
        "params",
        [
            ForestParams(n_trees=12, mtry=2, min_samples_leaf=1),
            ForestParams(n_trees=9, mtry=4, min_samples_leaf=3, max_depth=3),
            ForestParams(n_trees=5, mtry=1, min_samples_leaf=2, max_depth=1),
            ForestParams(n_trees=4, mtry=2, min_samples_leaf=2, max_depth=0),
        ],
        ids=["deep", "capped", "stumps", "single_leaves"],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_random_forests_match_per_tree_walk(self, params, seed):
        forest = train_forest(five_class_dataset(seed=seed), params, seed=seed)
        X = probes_on_thresholds(forest, 60, seed)
        assert np.array_equal(predict_proba(forest, X), predict_proba_reference(forest, X))

    def test_hundred_trees_sum_in_tree_order(self):
        # a pairwise sum over as many trees as the default forest differs in the last bits
        forest = train_forest(five_class_dataset(seed=9), ForestParams(n_trees=100, mtry=2), seed=9)
        X = probes_on_thresholds(forest, 120, 9)
        assert np.array_equal(predict_proba(forest, X), predict_proba_reference(forest, X))

    def test_max_depth_zero_is_the_root_histogram(self):
        forest = train_forest(five_class_dataset(), ForestParams(n_trees=3, max_depth=0), seed=0)
        assert all(tree.n_nodes == 1 for tree in forest.trees)
        proba = predict_proba(forest, np.zeros((2, 4)))
        expected = sum(tree.hist[0] / tree.cover[0] for tree in forest.trees) / 3
        assert np.array_equal(proba, np.vstack([expected, expected]))

    def test_hand_built_trees_of_mixed_depth(self):
        trees = [
            single_leaf_tree(cls=2),
            depth1_tree(feature=1, thr=0.25),
            repeated_feature_tree(-1.0),
            repeated_feature_tree(1.0),
            depth1_tree(feature=0, thr=-0.5, left_cover=2.0, right_cover=9.0),
        ]
        forest = RandomForest(trees=trees, n_features=2)
        grid = (-2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5)
        X = np.array([[a, b] for a in grid for b in grid])
        assert np.array_equal(predict_proba(forest, X), predict_proba_reference(forest, X))

    def test_row_on_threshold_goes_left(self):
        forest = RandomForest(trees=[depth1_tree(feature=0, thr=0.75)], n_features=1)
        X = [[0.75], [np.nextafter(0.75, 1.0)]]
        proba = predict_proba(forest, X)
        assert proba[0].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0]  # the left leaf
        assert proba[1].tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]
        assert np.array_equal(proba, predict_proba_reference(forest, X))

    @pytest.mark.parametrize("n_rows", [0, 1, 257])
    def test_row_counts(self, n_rows):
        forest = train_forest(five_class_dataset(seed=5), SMALL, seed=3)
        X = np.random.default_rng(n_rows).normal(0, 1.5, (n_rows, 4))
        proba = predict_proba(forest, X)
        assert proba.shape == (n_rows, 5)
        assert np.array_equal(proba, predict_proba_reference(forest, X))

    @pytest.mark.parametrize("n_trees", [1, 100])
    def test_one_row_and_a_large_batch(self, n_trees):
        forest = train_forest(five_class_dataset(seed=11), ForestParams(n_trees=n_trees, mtry=2), seed=11)
        if n_trees > 1:
            assert len({tree.max_depth for tree in forest.trees}) > 1  # trees of unequal depth
        X = probes_on_thresholds(forest, 5000, 11)
        ref = predict_proba_reference(forest, X)
        assert np.array_equal(predict_proba(forest, X), ref)
        for i in range(0, 5000, 250):
            level, proba = predict(forest, X[i])
            assert np.array_equal(proba, ref[i])
            assert level == int(np.argmax(ref[i])) + 1

    def test_one_row_through_hand_built_trees(self):
        trees = [depth1_tree(feature=0, thr=0.5), repeated_feature_tree(0.0), single_leaf_tree(cls=4)]
        for forest in (RandomForest(trees=trees[:1], n_features=2), RandomForest(trees=trees, n_features=2)):
            for x in ([0.5, -1.0], [np.nextafter(0.5, 1.0), 2.0], [-3.0, 0.0]):
                _, proba = predict(forest, x)
                assert np.array_equal(proba, predict_proba_reference(forest, [x])[0])

    def test_base_value_sums_the_roots_in_tree_order(self):
        forest = train_forest(five_class_dataset(seed=9), ForestParams(n_trees=100, mtry=2, max_depth=0), seed=9)
        expected = np.zeros(5)
        for tree in forest.trees:
            expected += tree.hist[0] / tree.cover[0]
        # with every tree a single leaf, the base value is the prediction, bit for bit
        phi0 = forest_shap(forest, np.zeros(4)).phi0
        assert np.array_equal(phi0, expected / 100)
        assert np.array_equal(phi0, predict_proba(forest, np.zeros((1, 4)))[0])

    def test_round_tripped_forest(self, tmp_path):
        forest = train_forest(five_class_dataset(seed=6), SMALL, seed=4)
        save_forest(forest, tmp_path / "model.json")
        loaded = load_forest(tmp_path / "model.json")
        X = probes_on_thresholds(loaded, 40, 6)
        assert np.array_equal(predict_proba(loaded, X), predict_proba_reference(forest, X))

    def test_rows_are_independent(self):
        # the simulator's batched level map and per-window scoring must agree
        forest = train_forest(five_class_dataset(seed=7), SMALL, seed=1)
        X = probes_on_thresholds(forest, 50, 7)
        proba = predict_proba(forest, X)
        for i in range(X.shape[0]):
            assert np.array_equal(proba[i], predict_proba(forest, X[i : i + 1])[0])
        assert predict_levels(forest, X).tolist() == [predict(forest, x)[0] for x in X]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, bad):
        forest = train_forest(five_class_dataset(), SMALL, seed=0)
        X = np.zeros((3, 4))
        X[2, 1] = bad
        with pytest.raises(InvalidParam, match="must be finite"):
            predict_proba(forest, X)

    def test_wrong_width_rejected(self):
        forest = train_forest(five_class_dataset(), SMALL, seed=0)
        with pytest.raises(DimensionMismatch):
            predict_proba(forest, np.zeros((3, 5)))


def _corrupt(tree: dict, fault: str) -> None:
    """Apply one single-field edit to a serialized tree whose node 0 is a split."""
    leaf = tree["feature"].index(-1)
    if fault == "child_out_of_range":
        tree["left"][0] = len(tree["feature"])
    elif fault == "child_before_parent":
        tree["right"][0] = 0
    elif fault == "right_minus_one":
        tree["right"][0] = -1
    elif fault == "feature_out_of_range":
        tree["feature"][0] = 13
    elif fault == "feature_below_minus_one":
        tree["feature"][0] = -2
    elif fault == "lengths_disagree":
        tree["threshold"].pop()
    elif fault == "hist_not_five_classes":
        tree["hist"] = [row[:4] for row in tree["hist"]]
    elif fault == "leaf_cover_zero":
        tree["cover"][leaf] = 0.0
    elif fault == "covers_do_not_partition":
        tree["cover"][0] += 1.0
    elif fault == "max_depth_too_small":
        tree["max_depth"] -= 1
    elif fault == "max_depth_too_large":
        tree["max_depth"] += 1
    elif fault == "feature_true":  # np.asarray would read it as feature 1
        tree["feature"][0] = True
    elif fault == "feature_fractional":  # or as feature 2
        tree["feature"][0] = 2.5
    elif fault == "left_float":
        tree["left"][0] = float(tree["left"][0])
    elif fault == "threshold_string":
        tree["threshold"][0] = str(tree["threshold"][0])
    elif fault == "hist_true":
        tree["hist"][leaf][0] = True
    elif fault == "max_depth_fractional":
        tree["max_depth"] += 0.5
    else:
        raise AssertionError(fault)


MODEL_FAULTS = (
    "child_out_of_range",
    "child_before_parent",
    "right_minus_one",
    "feature_out_of_range",
    "feature_below_minus_one",
    "lengths_disagree",
    "hist_not_five_classes",
    "leaf_cover_zero",
    "covers_do_not_partition",
    "max_depth_too_small",
    "max_depth_too_large",
    "feature_true",
    "feature_fractional",
    "left_float",
    "threshold_string",
    "hist_true",
    "max_depth_fractional",
)


class TestModelStructure:
    def _payload(self):
        forest = train_forest(five_class_dataset(n_features=13, seed=2), SMALL, seed=2)
        return json.loads(json.dumps(forest_to_dict(forest)))

    @pytest.mark.parametrize("fault", MODEL_FAULTS)
    def test_corrupt_model_rejected(self, fault):
        payload = self._payload()
        _corrupt(payload["trees"][3], fault)
        with pytest.raises(InvalidParam, match="^tree 3: "):
            forest_from_dict(payload)

    def test_missing_key_rejected(self):
        payload = self._payload()
        del payload["trees"][0]["cover"]
        with pytest.raises(InvalidParam, match="malformed model"):
            forest_from_dict(payload)

    @pytest.mark.parametrize("payload", [[], "model", 5])
    def test_non_object_rejected(self, payload):
        with pytest.raises(InvalidParam, match="a model is a JSON object"):
            forest_from_dict(payload)

    def test_no_trees_rejected(self):
        payload = self._payload()
        payload["trees"] = []
        with pytest.raises(InvalidParam, match="at least one tree"):
            forest_from_dict(payload)

    def test_shared_child_rejected(self):
        # both children of the root are node 1: node 2 is nobody's child
        tree = depth1_tree()
        tree.right[0] = 1
        with pytest.raises(InvalidParam, match="child of exactly one split"):
            RandomForest(trees=[single_leaf_tree(), tree], n_features=4)

    def test_hand_built_forest_checked_too(self):
        # the walk's step count comes from the nodes, so a wrong max_depth is an error
        tree = repeated_feature_tree()
        tree.max_depth = 2
        with pytest.raises(InvalidParam, match="tree 1: max_depth is 2 but its nodes reach depth 3"):
            RandomForest(trees=[depth1_tree(feature=0), tree], n_features=2)

