"""The slow reference for FF-tree induction: the learner as it was before
``fortdefense.models`` switched to histogram split finding, which argsorts
the remaining rows of every feature at every level of every tree.

Copied unchanged from ``fortdefense.models`` (``_best_split_numeric``,
``_best_split_categorical``, ``learn_ff_tree``, ``learn_stacked``); the
pieces the two learners share (``Cue``, ``FFTree``, ``_majority``,
``_balanced_accuracy``, ``batch_predict``, the combiner) are imported.
Tests compare the histogram learner against it; nothing in the package
imports this module.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from fortdefense.features import CATEGORICAL_FEATURES, N_FEATURES
from fortdefense.models import (
    N_ACTIONS,
    Cue,
    FFTree,
    StackedModel,
    _balanced_accuracy,
    _build_combiner,
    _majority,
    batch_predict,
)


def _best_split_numeric(values: np.ndarray, labels: np.ndarray):
    """Best ``<= threshold`` split -> (balanced_accuracy, threshold) or None."""
    order = np.argsort(values, kind="stable")
    sv, sy = values[order], labels[order]
    boundaries = np.nonzero(sv[:-1] < sv[1:])[0]
    if boundaries.size == 0:
        return None
    prefix = np.cumsum(sy)
    n = len(sy)
    pos_total = int(prefix[-1])
    if pos_total == 0 or pos_total == n:
        return None
    n_l = boundaries + 1
    pos_l = prefix[boundaries]
    ba = _balanced_accuracy(pos_l, n_l, pos_total - pos_l, n - n_l, pos_total, n)
    k = int(np.argmax(ba))  # first max -> smallest threshold on ties
    threshold = (sv[boundaries[k]] + sv[boundaries[k] + 1]) / 2
    return float(ba[k]), float(threshold)


def _best_split_categorical(values: np.ndarray, labels: np.ndarray):
    """Best ``== category`` split -> (balanced_accuracy, category) or None."""
    n = len(labels)
    pos_total = int(labels.sum())
    if pos_total == 0 or pos_total == n:
        return None
    best = None
    for cat in sorted(set(values.tolist())):
        mask = values == cat
        n_l = int(mask.sum())
        if n_l == 0 or n_l == n:
            continue
        pos_l = int(labels[mask].sum())
        ba = float(
            _balanced_accuracy(
                np.array([pos_l]),
                np.array([n_l]),
                np.array([pos_total - pos_l]),
                np.array([n - n_l]),
                pos_total,
                n,
            )[0]
        )
        if best is None or ba > best[0]:
            best = (ba, float(cat))
    return best


def learn_ff_tree(
    X: np.ndarray,
    y: np.ndarray,
    max_leaves: int = N_FEATURES,
    categorical: frozenset[int] = frozenset(),
) -> FFTree:
    """Greedy deterministic FF-tree induction on binary labels."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(y) == 0:
        raise ValueError("cannot learn from an empty example set")
    if max_leaves < 2:
        raise ValueError("max_leaves must be at least 2")
    remaining = np.arange(len(y))
    cues: list[Cue] = []
    while len(cues) < max_leaves - 1:
        labels = y[remaining]
        if labels.min() == labels.max():
            break
        best = None  # (ba, feature, is_cat, threshold)
        for f in range(X.shape[1]):
            vals = X[remaining, f]
            if f in categorical:
                found = _best_split_categorical(vals, labels)
            else:
                found = _best_split_numeric(vals, labels)
            if found is None:
                continue
            ba, threshold = found
            if best is None or ba > best[0] + 1e-12:
                best = (ba, f, f in categorical, threshold)
        if best is None or best[0] <= 0.5 + 1e-12:
            break
        _, f, is_cat, threshold = best
        vals = X[remaining, f]
        test = (vals == threshold) if is_cat else (vals <= threshold)
        for side in (True, False):
            side_labels = labels[test == side]
            assert len(side_labels) > 0
        pos_t, n_t = int(labels[test].sum()), int(test.sum())
        pos_f, n_f = int(labels[~test].sum()), int((~test).sum())
        purity_t = max(pos_t, n_t - pos_t) / n_t
        purity_f = max(pos_f, n_f - pos_f) / n_f
        exit_side = purity_t >= purity_f
        if exit_side:
            exit_label = _majority(pos_t, n_t)
            keep = ~test
        else:
            exit_label = _majority(pos_f, n_f)
            keep = test
        cues.append(Cue(f, is_cat, float(threshold), bool(exit_side), exit_label))
        remaining = remaining[keep]
    labels = y[remaining]
    final_label = _majority(int(labels.sum()), len(labels)) if len(labels) else 0
    return FFTree(tuple(cues), final_label)


def learn_stacked(X: np.ndarray, y: np.ndarray, max_leaves: int = N_FEATURES) -> StackedModel:
    """Train the eight one-vs-rest FF trees plus the combiner."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(y) == 0:
        raise ValueError("cannot learn from an empty example set")
    trees = tuple(
        learn_ff_tree(X, (y == k).astype(int), max_leaves, CATEGORICAL_FEATURES)
        for k in range(N_ACTIONS)
    )
    votes = np.column_stack([batch_predict(t, X) for t in trees])
    groups: dict[tuple[int, ...], Counter] = {}
    for row, label in zip(votes, y):
        groups.setdefault(tuple(int(v) for v in row), Counter())[int(label)] += 1
    combiner = _build_combiner(groups, tuple(range(N_ACTIONS)), N_ACTIONS)
    return StackedModel(trees=trees, combiner=combiner, train_count=len(y))
