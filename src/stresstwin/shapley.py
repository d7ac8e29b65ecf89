"""Exact path-dependent Shapley attributions with node-cover conditional expectations.

The attributions are those of Algorithm 2 of Lundberg et al. (TreeSHAP,
arXiv:1905.04610), evaluated path by path as in GPUTreeShap (Mitchell et al.,
arXiv:2010.13972). Every tree is split into its root-to-leaf paths. A path
element holds a feature, the bounds ``lo < x <= hi`` that keep a sample on
the path, and the zero fraction ``cover[child] / cover[parent]``; a feature
that repeats on a path is merged into one element by intersecting its bounds
and multiplying its zero fractions. For a sample, an element's one fraction
is 1 when ``x[f]`` lies within its bounds and 0 otherwise. EXTEND builds the
path's permutation weights from these fractions, starting from the dummy
root element's ``[1]``; the UNWOUND sum of each element, times
``one - zero`` and the leaf value, is that feature's share of the leaf.

Paths of equal length are evaluated together as numpy arrays, so a whole
forest is explained over a whole dataset without a Python loop per sample or
tree. A path's weights depend only on the path and on which of its elements
a sample satisfies, its pattern of one fractions: within a group, each
(sample, path) pair's pattern is written as bits, and EXTEND and UNWOUND run
once per distinct (path, pattern) pair (on the seed-2025 synthetic test set,
about one pair in six). The samples then gather their weights, a chunk at a
time, for the scatter onto features and the product with the leaf values.
Every step is elementwise or per chunk, so the attributions are bitwise
those of evaluating every pair.

``brute_force_shap`` is the independent oracle: it scores every feature
subset by cover-weighted descent and applies the classic weighted-subset sum.
Both operate on class-probability outputs so local accuracy holds against
``predict_proba``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyDataset, InvalidParam, TooManyFeatures
from .forest import CLASSES, N_CLASSES, RandomForest, _pack, predict_proba

MAX_BRUTE_FORCE_FEATURES = 15

# Samples scattered and multiplied together; keeps each (samples, paths,
# features) array of a path group within a few hundred kB for forests of
# about a hundred trees.
SAMPLE_CHUNK = 16


@dataclass
class ShapExplanation:
    """Per-class feature attributions: phi (n_features, n_classes) plus base."""

    phi: np.ndarray
    phi0: np.ndarray

    def for_class(self, level: int):
        i = CLASSES.index(level)
        return self.phi[:, i], float(self.phi0[i])


# --- batched path evaluation ----------------------------------------------------


@dataclass
class _PathGroup:
    """Paths with the same number of merged elements (dummy root excluded)."""

    feature: np.ndarray  # (paths, length) int
    lo: np.ndarray  # (paths, length)
    hi: np.ndarray  # (paths, length)
    zero: np.ndarray  # (paths, length)
    value: np.ndarray  # (paths, n_classes) leaf values divided by the tree count


def _path_groups(table) -> list:
    """Split every tree of a packed node table (``forest._pack``, checked
    there) into root-to-leaf paths with repeated features merged."""
    values = table.value * (1.0 / table.roots.size)
    feature = table.feature.tolist()
    threshold = table.threshold.tolist()
    left = table.left.tolist()
    right = table.right.tolist()
    cover = table.cover.tolist()
    by_length: dict = {}
    for root in table.roots.tolist():
        stack = [(root, {})]
        while stack:
            node, elements = stack.pop()
            if left[node] == node:  # a leaf loops onto itself
                if elements:
                    by_length.setdefault(len(elements), []).append((elements, values[node]))
                continue
            f = feature[node]
            thr = threshold[node]
            lo, hi, zero = elements.get(f, (-math.inf, math.inf, 1.0))
            for child, child_lo, child_hi in (
                (left[node], lo, min(hi, thr)),
                (right[node], max(lo, thr), hi),
            ):
                merged = dict(elements)
                merged[f] = (child_lo, child_hi, zero * (cover[child] / cover[node]))
                stack.append((child, merged))
    groups = []
    for length in sorted(by_length):
        paths = by_length[length]
        bounds = np.array([list(elements.values()) for elements, _ in paths])
        groups.append(
            _PathGroup(
                feature=np.array([list(elements) for elements, _ in paths], dtype=np.int64),
                lo=bounds[:, :, 0],
                hi=bounds[:, :, 1],
                zero=bounds[:, :, 2],
                value=np.array([value for _, value in paths]),
            )
        )
    return groups


def _path_weights(one: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """Each element's UNWOUND sum times ``one - zero``: its weight in its path's leaf value.

    ``one`` and ``zero`` are (pairs, elements) arrays of one and zero
    fractions, one row per (sample, path) pair; every operation is
    elementwise along the rows, so a row's weights do not depend on the rows
    evaluated with it.
    """
    n_pairs, u = one.shape
    # EXTEND: pw[k] after adding element e is
    # zero_e * pw[k] * (e - k) / (e + 1) + one_e * pw[k - 1] * k / (e + 1)
    pw = np.zeros((n_pairs, u + 1))
    pw[:, 0] = 1.0
    for e in range(1, u + 1):
        k = np.arange(e + 1)
        old = pw[:, : e + 1]
        new = zero[:, e - 1 : e] * old * (e - k) / (e + 1.0)
        new[:, 1:] += one[:, e - 1 : e] * old[:, :-1] * k[1:] / (e + 1.0)
        pw[:, : e + 1] = new

    # UNWOUND sum of every element at once; one fractions are 0 or 1, so the
    # one_f != 0 branch divides by 1 and the other branch needs no next_one.
    next_one = np.broadcast_to(pw[:, u : u + 1], one.shape)
    total_one = np.zeros_like(one)
    total_zero = np.zeros_like(one)
    for k in range(u - 1, -1, -1):
        pk = pw[:, k : k + 1]
        tmp = next_one * (u + 1.0) / (k + 1.0)
        total_one += tmp
        next_one = pk - tmp * zero * (u - k) / (u + 1.0)
        total_zero += (pk / zero) / ((u - k) / (u + 1.0))
    return np.where(one != 0.0, total_one, total_zero) * (one - zero)


def _distinct_pairs(inside: np.ndarray):
    """(first, code) over the (sample, path) pairs of ``inside`` (samples, paths, elements).

    Pairs on the same path whose samples satisfy the same elements share one
    code: ``code`` (samples, paths) gives each pair's code and
    ``first[code]`` one pair of that code, as a flat pair index. The bit
    patterns are folded in words narrow enough that a code shifted by a word
    stays within int64, so any path length works.
    """
    n_samples, n_paths, u = inside.shape
    flat = inside.reshape(-1, u)
    code = np.tile(np.arange(n_paths, dtype=np.int64), n_samples)
    width = 62 - flat.shape[0].bit_length()
    for start in range(0, u, width):
        bits = flat[:, start : start + width]
        word = bits @ (1 << np.arange(bits.shape[1], dtype=np.int64))
        distinct, code = np.unique((code << bits.shape[1]) | word, return_inverse=True)
    first = np.empty(distinct.size, dtype=np.int64)
    first[code] = np.arange(code.size)
    return first, code.reshape(n_samples, n_paths)


def _group_phi(group: _PathGroup, X: np.ndarray, n_features: int) -> np.ndarray:
    """Attributions (samples, n_features, n_classes) of one path group.

    The weights are computed once per distinct (path, pattern) pair; the
    arrays that grow with the paths times the features stay per chunk.
    """
    n_samples = X.shape[0]
    n_paths, u = group.feature.shape
    inside = np.empty((n_samples, n_paths, u), dtype=bool)
    for start in range(0, n_samples, SAMPLE_CHUNK):
        xf = X[start : start + SAMPLE_CHUNK, group.feature]
        inside[start : start + SAMPLE_CHUNK] = (xf > group.lo) & (xf <= group.hi)
    first, code = _distinct_pairs(inside)
    one = inside.reshape(-1, u)[first].astype(np.float64)
    weights = _path_weights(one, group.zero[first % n_paths])

    # merged features are unique within a path, so a plain scatter suffices
    phi = np.empty((n_samples, n_features, N_CLASSES))
    paths = np.arange(n_paths)[:, None]
    for start in range(0, n_samples, SAMPLE_CHUNK):
        w = weights[code[start : start + SAMPLE_CHUNK]]
        per_path = np.zeros((w.shape[0], n_paths, n_features))
        per_path[:, paths, group.feature] = w
        phi[start : start + SAMPLE_CHUNK] = np.matmul(per_path.transpose(0, 2, 1), group.value)
    return phi


def _mean_tree_phi(table, X: np.ndarray, n_features: int) -> np.ndarray:
    """Mean over a packed table's trees of the attributions, shape (samples, n_features, n_classes).

    The groups are added in the same order for every sample, whatever the
    number of samples.
    """
    phi = np.zeros((X.shape[0], n_features, N_CLASSES))
    for group in _path_groups(table):
        phi += _group_phi(group, X, n_features)
    return phi


def _point(x, n_features: int) -> np.ndarray:
    """x as a float vector of n_features finite values, as predict_proba requires."""
    x = np.asarray(x, dtype=np.float64)
    if x.size != n_features:
        raise DimensionMismatch(f"expected {n_features} features, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise InvalidParam("prediction input must be finite")
    return x


def tree_shap(tree, x, n_features: int):
    """Exact path-dependent attributions for one tree at one point.

    Returns (phi, phi0): phi has shape (n_features, n_classes), and
    phi0 + phi.sum(axis=0) equals the tree's class probabilities at x.
    """
    x = _point(x, n_features)
    table = _pack([tree], n_features)
    phi = _mean_tree_phi(table, x.reshape(1, -1), n_features)[0]
    return phi, table.value[0]


# --- exhaustive oracle ---------------------------------------------------------


def _subset_values(tree, x, n_features: int) -> np.ndarray:
    """v(S) for every feature subset: descend following x on S, cover-average off S."""
    n_masks = 1 << n_features
    masks = np.arange(n_masks, dtype=np.int64)
    v = np.zeros((n_masks, N_CLASSES))
    values = tree.hist / tree.cover[:, None]
    stack = [(0, np.ones(n_masks))]
    while stack:
        node, w = stack.pop()
        if tree.feature[node] < 0:
            v += w[:, None] * values[node][None, :]
            continue
        f = int(tree.feature[node])
        go_left = x[f] <= tree.threshold[node]
        bit = ((masks >> f) & 1).astype(bool)
        cf_left = tree.cover[tree.left[node]] / tree.cover[node]
        cf_right = tree.cover[tree.right[node]] / tree.cover[node]
        w_left = w * np.where(bit, 1.0 if go_left else 0.0, cf_left)
        w_right = w * np.where(bit, 0.0 if go_left else 1.0, cf_right)
        stack.append((int(tree.left[node]), w_left))
        stack.append((int(tree.right[node]), w_right))
    return v


def brute_force_shap(tree, x, n_features: int):
    """Shapley values by full subset enumeration; oracle for tree_shap.

    phi_j = sum over S not containing j of |S|!(d-|S|-1)!/d! * (v(S+j) - v(S)).
    The tree is checked as a forest's trees are (``forest._pack``), and then
    walked as it is stored, not through the packed table.
    """
    if n_features > MAX_BRUTE_FORCE_FEATURES:
        raise TooManyFeatures(f"{n_features} features exceeds 2^{MAX_BRUTE_FORCE_FEATURES} enumeration")
    x = np.asarray(x, dtype=np.float64)
    if x.size != n_features:
        raise DimensionMismatch(f"expected {n_features} features, got {x.size}")
    _pack([tree], n_features)
    d = n_features
    v = _subset_values(tree, x, d)
    masks = np.arange(1 << d, dtype=np.int64)
    popcount = np.zeros(masks.size, dtype=np.int64)
    for b in range(d):
        popcount += (masks >> b) & 1
    fact = np.array([math.factorial(k) for k in range(d + 1)], dtype=np.float64)
    phi = np.zeros((d, N_CLASSES))
    for j in range(d):
        without_j = masks[(masks >> j) & 1 == 0]
        s = popcount[without_j]
        weight = fact[s] * fact[d - s - 1] / fact[d]
        diff = v[without_j | (1 << j)] - v[without_j]
        phi[j] = (weight[:, None] * diff).sum(axis=0)
    return phi


# --- forest-level aggregation ---------------------------------------------------


def forest_shap(forest: RandomForest, x) -> ShapExplanation:
    """Mean of per-tree attributions, matching probability averaging."""
    x = _point(x, forest.n_features)
    table = forest._table
    phi = _mean_tree_phi(table, x.reshape(1, -1), forest.n_features)[0]
    phi0 = table.mean_over_trees(table.roots)
    return ShapExplanation(phi=phi, phi0=phi0)


def shap_summary(forest: RandomForest, dataset, feature_names) -> tuple:
    """Aggregate attributions over a dataset.

    Returns (summary_rows, beeswarm_rows): the summary holds mean |phi| per
    class for each feature, sorted by total influence; beeswarm rows carry
    one (feature, sample, phi, value, predicted class) point each, with phi
    taken for the sample's predicted class.
    """
    if len(dataset) == 0:
        raise EmptyDataset("cannot summarize an empty dataset")
    X = dataset.X
    n, d = X.shape
    proba = predict_proba(forest, X)
    pred_levels = np.asarray(CLASSES)[np.argmax(proba, axis=1)]
    phi = _mean_tree_phi(forest._table, X, d)
    beeswarm = []
    for i in range(n):
        cls_idx = int(pred_levels[i]) - 1
        for j in range(d):
            beeswarm.append(
                {
                    "feature": feature_names[j],
                    "sample_index": i,
                    "phi": float(phi[i, j, cls_idx]),
                    "feature_value": float(X[i, j]),
                    "predicted_class": int(pred_levels[i]),
                }
            )
    mean_abs = np.abs(phi).sum(axis=0) / n
    totals = mean_abs.sum(axis=1)
    order = np.argsort(-totals, kind="mergesort")
    summary = []
    for j in order:
        row = {"feature": feature_names[j], "total_mean_abs_phi": float(totals[j])}
        for c in CLASSES:
            row[f"class_{c}"] = float(mean_abs[j, c - 1])
        summary.append(row)
    return summary, beeswarm
