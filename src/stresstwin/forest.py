"""From-scratch random forest with deterministic training and node covers.

Trees store per-node sample covers and class histograms because the
explanation pass weights conditional expectations by them. Training is a
pure function of (data, params, seed): bootstrap and feature draws use one
Generator per tree seeded ``seed + tree_index``, and the dataset is
canonically sorted by key before any index is drawn. The split scan scores
every candidate threshold of a node at once, in numpy. The trees grow on
forked workers (``fanout.fork_map``), one per usable core; since each reads
only the dataset and its own Generator, the forest is still a pure function
of the seed, whichever worker grows which tree.

Prediction steps one packed node table for the whole forest: every tree's
nodes concatenated with offsets, each leaf a self-loop (threshold ``+inf``,
both children itself), so a fixed number of steps moves every (row, tree)
pair at once. This is the tensorised traversal of Hummingbird (Nakandala et
al., OSDI 2020). Leaf values are summed in tree order, so the probabilities
are bitwise those of a per-tree walk.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateData,
    DimensionMismatch,
    EmptyDataset,
    InvalidParam,
)
from .fanout import fork_map

CLASSES = (1, 2, 3, 4, 5)
N_CLASSES = len(CLASSES)
MODEL_FORMAT_VERSION = 1


@dataclass
class Dataset:
    """Feature matrix with 1..5 labels and optional (record, window) keys."""

    X: np.ndarray
    y: np.ndarray
    keys: list | None = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.ndim != 2 or self.X.shape[0] != self.y.shape[0]:
            raise InvalidParam("X and y shapes disagree")
        if self.keys is not None and len(self.keys) != self.y.shape[0]:
            raise InvalidParam("keys length disagrees with sample count")

    def __len__(self) -> int:
        return int(self.y.shape[0])

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=np.int64)
        keys = [self.keys[i] for i in indices] if self.keys is not None else None
        return Dataset(self.X[indices], self.y[indices], keys)


@dataclass
class DecisionTree:
    """Flat-array binary tree; feature == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    cover: np.ndarray
    hist: np.ndarray  # per-node class counts, rows sum to cover
    max_depth: int

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)


@dataclass
class _NodeTable:
    """Every tree's nodes in one set of arrays; leaves loop onto themselves."""

    feature: np.ndarray  # (nodes,) int64, 0 at leaves
    threshold: np.ndarray  # (nodes,) +inf at leaves
    left: np.ndarray  # (nodes,) int64 node index, itself at leaves
    right: np.ndarray
    value: np.ndarray  # (nodes, 5) hist / cover
    roots: np.ndarray  # (trees,) int64
    depth: int  # steps that bring every root to its leaf


@dataclass
class RandomForest:
    """Trees plus their packed node table, built and checked once at construction.

    Build a new forest rather than editing ``trees`` in place: prediction
    reads the table, not the trees.
    """

    trees: list
    n_features: int
    classes: tuple = CLASSES
    seed: int = 0
    params: dict = field(default_factory=dict)
    _table: _NodeTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._table = _pack(self.trees, self.n_features)


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    mtry: int = 3
    min_samples_leaf: int = 2
    max_depth: int | None = None

    def as_dict(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "mtry": self.mtry,
            "min_samples_leaf": self.min_samples_leaf,
            "max_depth": self.max_depth,
        }


# --- stratified split --------------------------------------------------------


def stratified_split(dataset: Dataset, train_fraction: float = 0.7, seed: int = 0):
    """Per-class split preserving proportions; the remainder goes to train."""
    if len(dataset) == 0:
        raise EmptyDataset("cannot split an empty dataset")
    if not 0.0 < train_fraction < 1.0:
        raise InvalidParam(f"train fraction {train_fraction} outside (0, 1)")
    rng = np.random.default_rng(seed)
    train_idx: list = []
    test_idx: list = []
    for cls in np.unique(dataset.y):
        idx = np.nonzero(dataset.y == cls)[0]
        perm = rng.permutation(idx)
        n_test = int(math.floor(idx.size * (1.0 - train_fraction) + 1e-9))
        test_idx.extend(perm[:n_test].tolist())
        train_idx.extend(perm[n_test:].tolist())
    return dataset.subset(sorted(train_idx)), dataset.subset(sorted(test_idx))


def record_level_split(dataset: Dataset, train_fraction: float = 0.7, seed: int = 0):
    """Leakage-safe variant: whole records land on one side of the split."""
    if dataset.keys is None:
        raise InvalidParam("record-level split needs dataset keys")
    records = sorted({k[0] for k in dataset.keys})
    rng = np.random.default_rng(seed)
    order = [records[i] for i in rng.permutation(len(records))]
    counts = {r: 0 for r in records}
    for k in dataset.keys:
        counts[k[0]] += 1
    target = train_fraction * len(dataset)
    train_records, acc = set(), 0
    for r in order:
        if acc >= target:
            break
        train_records.add(r)
        acc += counts[r]
    train_idx = [i for i, k in enumerate(dataset.keys) if k[0] in train_records]
    test_idx = [i for i, k in enumerate(dataset.keys) if k[0] not in train_records]
    if not test_idx or not train_idx:
        raise DegenerateData("record-level split left one side empty")
    return dataset.subset(train_idx), dataset.subset(test_idx)


# --- best split scan ---------------------------------------------------------


def _split_threshold(lo, hi):
    """Midpoint of two distinct sorted values, or lo when it rounds onto hi.

    ``0.5 * (lo + hi)`` equals ``hi`` for adjacent floats whose lower value
    has an odd mantissa (and overflows for huge ones); ``x <= hi`` would then
    send every sample left.
    """
    mid = 0.5 * (lo + hi)
    return mid if mid < hi else lo


def _best_split(xs, ys, n_classes, min_leaf):
    n = xs.shape[0]
    if n < 2:
        return np.inf, 0.0, False
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), ys] = 1.0
    cum = np.cumsum(onehot, axis=0)
    left = cum[:-1]
    right = cum[-1] - left
    nl = np.arange(1, n, dtype=np.float64)
    nr = n - nl
    valid = (xs[1:] != xs[:-1]) & (nl >= min_leaf) & (nr >= min_leaf)
    if not np.any(valid):
        return np.inf, 0.0, False
    g = (nl - (left**2).sum(axis=1) / nl + nr - (right**2).sum(axis=1) / nr) / n
    g = np.where(valid, g, np.inf)
    i = int(np.argmin(g))
    return float(g[i]), float(_split_threshold(xs[i], xs[i + 1])), True


# --- packed node table ---------------------------------------------------------


def _pack(trees, n_features: int) -> _NodeTable:
    """Check that every tree's arrays form one tree and concatenate them.

    Raises InvalidParam naming the first bad tree, so a corrupt model never
    reaches prediction: an index out of range would raise IndexError or wrap
    round silently, and a zero cover would give NaN probabilities.
    """
    if not trees:
        raise InvalidParam("a forest needs at least one tree")
    for t, tree in enumerate(trees):
        n = tree.feature.size
        columns = (tree.feature, tree.threshold, tree.left, tree.right, tree.cover)
        if n == 0 or any(np.shape(a) != (n,) for a in columns):
            raise InvalidParam(f"tree {t}: node arrays are empty or differ in length")
        if np.shape(tree.hist) != (n, N_CLASSES):
            raise InvalidParam(f"tree {t}: hist has shape {np.shape(tree.hist)}, not ({n}, {N_CLASSES})")
    sizes = np.array([tree.n_nodes for tree in trees], dtype=np.int64)
    roots = np.cumsum(sizes) - sizes
    tree_of = np.repeat(np.arange(len(trees)), sizes)
    offset = roots[tree_of]
    own = np.arange(offset.size, dtype=np.int64)
    feature = np.concatenate([tree.feature for tree in trees]).astype(np.int64)
    threshold = np.concatenate([tree.threshold for tree in trees]).astype(np.float64)
    left = np.concatenate([tree.left for tree in trees]).astype(np.int64) + offset
    right = np.concatenate([tree.right for tree in trees]).astype(np.int64) + offset
    cover = np.concatenate([tree.cover for tree in trees]).astype(np.float64)
    hist = np.concatenate([tree.hist for tree in trees]).astype(np.float64)

    def check(bad, what):
        if np.any(bad):
            raise InvalidParam(f"tree {tree_of[np.argmax(bad)]}: {what}")

    check((feature < -1) | (feature >= n_features), f"a feature index is outside [-1, {n_features})")
    split = feature >= 0
    end = offset + sizes[tree_of]
    check(
        split & ((left <= own) | (left >= end) | (right <= own) | (right >= end)),
        "a split's child is not after it in the tree's node arrays",
    )
    # with children after their parent, one parent per non-root node makes
    # each tree's arrays one tree, reached from its root without a cycle
    parents = np.bincount(np.concatenate([left[split], right[split]]), minlength=own.size)
    check(parents != (own != offset), "a node is not the child of exactly one split")
    check(~(cover > 0) | ~np.isfinite(cover), "a node's cover is not positive and finite")
    check(~np.all(np.isfinite(hist), axis=1), "a node's class histogram is not finite")

    depth = np.zeros(own.size, dtype=np.int64)
    frontier, level = roots, 0
    while frontier.size:
        depth[frontier] = level
        inner = frontier[split[frontier]]
        frontier, level = np.concatenate([left[inner], right[inner]]), level + 1
    reached = np.maximum.reduceat(depth, roots)
    stored = np.array([tree.max_depth for tree in trees])
    if np.any(reached != stored):
        t = int(np.argmax(reached != stored))
        raise InvalidParam(f"tree {t}: max_depth is {stored[t]} but its nodes reach depth {reached[t]}")

    leaf = ~split
    feature[leaf] = 0
    threshold[leaf] = np.inf
    left[leaf] = own[leaf]
    right[leaf] = own[leaf]
    return _NodeTable(feature, threshold, left, right, hist / cover[:, None], roots, level - 1)


# --- training ----------------------------------------------------------------


class _TreeBuilder:
    def __init__(self, X, y_codes, rng, params: ForestParams):
        self.X = X
        self.y = y_codes
        self.rng = rng
        self.params = params
        self.feature: list = []
        self.threshold: list = []
        self.left: list = []
        self.right: list = []
        self.cover: list = []
        self.hist: list = []
        self.max_depth = 0

    def build(self, indices) -> DecisionTree:
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

    def _new_node(self, indices) -> int:
        node = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.cover.append(float(indices.size))
        self.hist.append(np.bincount(self.y[indices], minlength=N_CLASSES).astype(float))
        return node

    def _grow(self, indices, depth: int) -> int:
        node = self._new_node(indices)
        self.max_depth = max(self.max_depth, depth)
        p = self.params
        hist = self.hist[node]
        pure = np.count_nonzero(hist) <= 1
        depth_capped = p.max_depth is not None and depth >= p.max_depth
        if pure or depth_capped or indices.size < 2 * p.min_samples_leaf:
            return node

        n_features = self.X.shape[1]
        mtry = min(p.mtry, n_features)
        candidates = np.sort(self.rng.choice(n_features, size=mtry, replace=False))
        best = (np.inf, 0.0, -1)
        for f in candidates:
            xs = self.X[indices, f]
            order = np.argsort(xs, kind="mergesort")
            g, thr, found = _best_split(
                np.ascontiguousarray(xs[order]),
                np.ascontiguousarray(self.y[indices][order]),
                N_CLASSES,
                p.min_samples_leaf,
            )
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


def _canonical_order(dataset: Dataset) -> Dataset:
    if dataset.keys is None:
        return dataset
    order = sorted(range(len(dataset)), key=lambda i: dataset.keys[i])
    return dataset.subset(order)


def train_forest(dataset: Dataset, params: ForestParams | None = None, seed: int = 0) -> RandomForest:
    """Grow a deterministic bootstrap ensemble on rule-labeled windows."""
    params = params or ForestParams()
    if len(dataset) == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    if not np.all(np.isfinite(dataset.X)):
        raise InvalidParam("training features must be finite")
    present = np.unique(dataset.y)
    if present.size < 2:
        raise DegenerateData(f"training data holds a single class {present.tolist()}")
    if not set(present.tolist()) <= set(CLASSES):
        raise InvalidParam(f"labels {present.tolist()} outside 1..5")

    ds = _canonical_order(dataset)
    y_codes = ds.y - 1
    n = len(ds)

    def grow(t):
        rng = np.random.default_rng(seed + t)
        boot = rng.integers(0, n, size=n)
        return _TreeBuilder(ds.X, y_codes, rng, params).build(np.sort(boot))

    return RandomForest(
        trees=fork_map(grow, range(params.n_trees)),
        n_features=ds.X.shape[1],
        classes=CLASSES,
        seed=seed,
        params=params.as_dict(),
    )


# --- prediction and evaluation ------------------------------------------------


def predict_proba(forest: RandomForest, X) -> np.ndarray:
    """Mean over trees of leaf class-histogram proportions, shape (n, 5)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != forest.n_features:
        raise DimensionMismatch(f"expected {forest.n_features} features, got {X.shape[1]}")
    if not np.all(np.isfinite(X)):
        raise InvalidParam("prediction input must be finite")
    table = forest._table
    node = np.repeat(table.roots[None, :], X.shape[0], axis=0)
    rows = np.arange(X.shape[0])[:, None]
    # a leaf keeps itself (x <= +inf), so depth steps leave every pair on its leaf
    for _ in range(table.depth):
        go_left = X[rows, table.feature[node]] <= table.threshold[node]
        node = np.where(go_left, table.left[node], table.right[node])
    acc = np.zeros((X.shape[0], N_CLASSES))
    for t in range(table.roots.size):  # tree by tree: the sums are bitwise a per-tree walk's
        acc += table.value[node[:, t]]
    return acc / table.roots.size


def predict(forest: RandomForest, x):
    """(level, per-class probabilities) for one sample; ties take the lower level."""
    proba = predict_proba(forest, np.asarray(x, dtype=np.float64).reshape(1, -1))[0]
    return int(CLASSES[int(np.argmax(proba))]), proba


def predict_levels(forest: RandomForest, X) -> np.ndarray:
    proba = predict_proba(forest, X)
    return np.asarray(CLASSES, dtype=np.int64)[np.argmax(proba, axis=1)]


@dataclass
class EvalReport:
    confusion: np.ndarray  # 5x5, rows true level, columns predicted
    accuracy: float
    per_class: dict

    def as_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "confusion": self.confusion.tolist(),
            "per_class": self.per_class,
        }


def evaluate(forest: RandomForest, test: Dataset) -> EvalReport:
    if len(test) == 0:
        raise EmptyDataset("cannot evaluate on an empty dataset")
    pred = predict_levels(forest, test.X)
    confusion = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    for t, p in zip(test.y, pred):
        confusion[t - 1, p - 1] += 1
    accuracy = float(np.trace(confusion)) / len(test)
    per_class = {}
    for c in CLASSES:
        i = c - 1
        tp = float(confusion[i, i])
        col = float(confusion[:, i].sum())
        row = float(confusion[i, :].sum())
        per_class[c] = {
            "precision": tp / col if col else 0.0,
            "recall": tp / row if row else 0.0,
        }
    return EvalReport(confusion=confusion, accuracy=accuracy, per_class=per_class)


# --- serialization -------------------------------------------------------------


def forest_to_dict(forest: RandomForest) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "n_features": forest.n_features,
        "classes": list(forest.classes),
        "seed": forest.seed,
        "params": forest.params,
        "trees": [
            {
                "feature": t.feature.tolist(),
                "threshold": t.threshold.tolist(),
                "left": t.left.tolist(),
                "right": t.right.tolist(),
                "cover": t.cover.tolist(),
                "hist": t.hist.tolist(),
                "max_depth": t.max_depth,
            }
            for t in forest.trees
        ],
    }


def forest_from_dict(payload: dict) -> RandomForest:
    """The forest a model payload describes; InvalidParam when it is malformed."""
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise InvalidParam(f"unknown model format {payload.get('format_version')!r}")
    try:
        trees = [
            DecisionTree(
                feature=np.asarray(t["feature"], dtype=np.int32),
                threshold=np.asarray(t["threshold"], dtype=np.float64),
                left=np.asarray(t["left"], dtype=np.int32),
                right=np.asarray(t["right"], dtype=np.int32),
                cover=np.asarray(t["cover"], dtype=np.float64),
                hist=np.asarray(t["hist"], dtype=np.float64),
                max_depth=int(t["max_depth"]),
            )
            for t in payload["trees"]
        ]
        n_features = int(payload["n_features"])
        classes = tuple(payload["classes"])
        seed = int(payload["seed"])
        params = dict(payload["params"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidParam(f"malformed model: {type(exc).__name__}: {exc}") from exc
    # the forest packs its trees, checking that each one's arrays form a tree
    return RandomForest(trees, n_features, classes, seed, params)


def save_forest(forest: RandomForest, path) -> None:
    text = json.dumps(forest_to_dict(forest), sort_keys=True, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write(text)


def load_forest(path) -> RandomForest:
    with open(path) as fh:
        return forest_from_dict(json.load(fh))
