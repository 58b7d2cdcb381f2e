"""Fast-and-frugal action models of other agents, and their bookkeeping.

A *fast-and-frugal tree* is a binary classifier evaluated as an ordered cue
list: each level inspects one feature, one test outcome exits immediately
with a label, the other falls through to the next cue; a final leaf catches
whatever remains.  The leaf budget is the attribute count (39).

A *stacked model* predicts one of the eight action kinds with eight
one-vs-rest FF trees whose binary votes feed a small top-down decision tree
(the combiner).  Induction is deterministic and greedy: each level takes
the cue whose split of the rows remaining at that level has the highest
balanced accuracy (of the two-sided majority classifier), with these
rules:

- a numeric cue ``value <= t`` may split between any two consecutive
  values present among the remaining rows, with ``t`` their midpoint;
- a categorical cue ``value == c`` may use any category present among the
  remaining rows, except one that holds every remaining row;
- within a feature the first maximum wins: the smallest threshold, or the
  lowest category;
- across features, in index order, a later feature replaces the best so
  far only when it scores more than ``1e-12`` higher, so scores that
  differ only by float rounding keep the lower feature index;
- induction stops when the remaining rows are one class, the leaf budget
  is spent, or the best score is at most ``0.5 + 1e-12``.

The combiner maximizes information gain with the same cross-feature
margin and predicts the lowest-indexed action on count ties.

Split finding is exact histogram induction (as in LightGBM, Ke et al.,
NeurIPS 2017, without its binning): ``learn_stacked`` rank-codes every
feature column once, each column's distinct values a range of integer
bins, and that one code table serves all eight trees.  A level's per-bin
row and positive counts come from ``np.bincount``; the root's row counts
are shared by the eight trees, and each later level subtracts the
histogram of the rows the new cue exits.  The trees grow a level at a
time, and one vectorized pass over the histograms scores every numeric
boundary and every category of every feature for every growing tree, so
a level costs a fixed number of array operations whatever the feature
and tree count, with the same floats as a per-feature sort-and-scan.
The eight trees of a small refit grow together; on a large example set,
where a tree's rows alone fill the :data:`_PAIR_BLOCK`, one at a time.
Induction also yields each tree's votes on its training rows, which the
combiner is fitted on.

A stacked model predicts from a flat table built once per model: per
tree, its cues as ``(feature, categorical, threshold, exit_side,
exit_label)`` tuples and its final label, read against the row as Python
floats.  The votes equal ``FFTree.predict``'s, walked through the same
``CombinerNode.predict``.

Agreement trackers keep a sliding window of :data:`WINDOW_DEFAULT` (30)
prediction-matched-observation flags per (agent, model) pair; the windowed
fraction drives keep / switch / learn-a-new-model decisions at the fixed
threshold :data:`THETA_DEFAULT` (0.5).  A tracker read back from a library
file keeps the window it was saved with.  Incremental updates refit on a retained reservoir
(up to 5,000 examples) plus a fresh buffer (200), keeping the old model
when its held-out accuracy is better; the holdout is every fifth example.

Libraries serialize to a versioned JSON file.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from fortdefense.features import CATEGORICAL_FEATURES, N_FEATURES

N_ACTIONS = 8
WINDOW_DEFAULT = 30
THETA_DEFAULT = 0.5
RESERVOIR_SIZE = 5000
BUFFER_SIZE = 200
FORMAT_VERSION = 1
# Rows per histogram gather and values per rank-coding sort: induction's
# temporary index arrays stay a few hundred KB however large the data set,
# so learning raises no process's peak memory.
_HISTOGRAM_BLOCK = 512
_RANK_BLOCK = 1 << 14
# (tree, row) pairs that one level of joint induction handles: the eight
# trees of a small refit learn together, those of a large set one by one.
_PAIR_BLOCK = 1 << 13


# ---------------------------------------------------------------------------
# fast-and-frugal trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cue:
    """One level of an FF tree.

    The test is ``value == threshold`` for categorical features and
    ``value <= threshold`` otherwise; when the test outcome equals
    ``exit_side`` evaluation stops with ``exit_label``.
    """

    feature: int
    categorical: bool
    threshold: float
    exit_side: bool
    exit_label: int

    def test(self, value: float) -> bool:
        if self.categorical:
            return value == self.threshold
        return value <= self.threshold


@dataclass(frozen=True)
class FFTree:
    cues: tuple[Cue, ...]
    final_label: int

    @property
    def n_leaves(self) -> int:
        return len(self.cues) + 1

    def predict(self, vec: Sequence[float]) -> int:
        for cue in self.cues:
            if cue.test(vec[cue.feature]) == cue.exit_side:
                return cue.exit_label
        return self.final_label

    def predict_traced(self, vec: Sequence[float]) -> tuple[int, list[int]]:
        """Prediction plus the features actually inspected, in order."""
        inspected: list[int] = []
        for cue in self.cues:
            inspected.append(cue.feature)
            if cue.test(vec[cue.feature]) == cue.exit_side:
                return cue.exit_label, inspected
        return self.final_label, inspected


def _majority(pos: int, total: int) -> int:
    """Majority binary label; exact ties resolve to 0 (the lower label)."""
    return 1 if 2 * pos > total else 0


def _balanced_accuracy(pos_l, n_l, pos_r, n_r, pos_total, n_total):
    """Balanced accuracy of the two-sided majority classifier (vectorized)."""
    neg_total = n_total - pos_total
    maj_l, maj_r = 2 * pos_l > n_l, 2 * pos_r > n_r
    correct_pos = np.where(maj_l, pos_l, 0) + np.where(maj_r, pos_r, 0)
    correct_neg = np.where(maj_l, 0, n_l - pos_l) + np.where(maj_r, 0, n_r - pos_r)
    return (correct_pos / pos_total + correct_neg / neg_total) / 2


@dataclass(frozen=True)
class _Bins:
    """Rank codes of a feature matrix, shared by every tree learned on it.

    Each column's distinct values, ascending, are consecutive bins, and the
    columns' bin ranges follow column order; ``codes[i, f]`` is the bin of
    ``X[i, f]``.
    """

    codes: np.ndarray  # n x F bin ids, int32 or narrower
    values: np.ndarray  # per bin: its value
    feature: np.ndarray  # per bin: its column
    counts: np.ndarray  # per bin: rows of the whole matrix in it
    categorical: np.ndarray  # per column: whether it is categorical
    starts: np.ndarray  # per column: its first bin

    def histogram(self, rows: np.ndarray, owners=None, n_owners: int = 1) -> np.ndarray:
        """Per-bin counts of the rows indexed by ``rows``, gathered
        ``_HISTOGRAM_BLOCK`` rows at a time to bound the bin-id copies.
        With ``owners`` (one per row, each below ``n_owners``) the counts
        are split by owner: one row of counts per owner."""
        size = len(self.values)
        counts = np.zeros(n_owners * size, dtype=np.int64)
        for start in range(0, len(rows), _HISTOGRAM_BLOCK):
            block = self.codes[rows[start : start + _HISTOGRAM_BLOCK]]
            if n_owners > 1:
                block = block + owners[start : start + _HISTOGRAM_BLOCK, None] * size
            counts += np.bincount(block.ravel(), minlength=len(counts))
        return counts if owners is None else counts.reshape(n_owners, size)


def _rank_codes(X: np.ndarray, categorical: frozenset[int]) -> _Bins:
    """Rank-code ``X`` a block of columns at a time, each block at most
    ``_RANK_BLOCK`` values so that its sort order stays small."""
    n_rows, n_columns = X.shape
    codes = np.empty(X.shape, dtype=np.uint16 if n_rows <= 1 << 16 else np.int32)
    values, counts, sizes = [], [], []
    step = max(1, _RANK_BLOCK // max(n_rows, 1))
    for lo in range(0, n_columns, step):
        block = np.ascontiguousarray(X[:, lo : lo + step].T)  # a column a row
        order = np.argsort(block, axis=1, kind="stable")
        ordered = np.take_along_axis(block, order, axis=1)
        new = np.ones(block.shape, dtype=bool)  # a value opens a bin
        np.not_equal(ordered[:, 1:], ordered[:, :-1], out=new[:, 1:])
        np.put_along_axis(codes[:, lo : lo + step].T, order, np.cumsum(new, axis=1) - 1, axis=1)
        opens = np.flatnonzero(new)  # column by column
        values.append(ordered.ravel()[opens])
        counts.append(np.diff(opens, append=new.size))
        sizes += new.sum(axis=1).tolist()
    if sum(sizes) > 1 << 16:
        codes = codes.astype(np.int32)
    starts = np.cumsum([0] + sizes[:-1])
    codes += starts.astype(codes.dtype)
    return _Bins(
        codes=codes,
        values=np.concatenate(values),
        feature=np.repeat(np.arange(n_columns), sizes),
        counts=np.concatenate(counts),
        categorical=np.isin(np.arange(n_columns), list(categorical)),
        starts=starts,
    )


def _feature_splits(bins: _Bins, count: np.ndarray, pos: np.ndarray, n, n_pos):
    """Every feature's best split for each of several trees, all scored in
    one pass: row ``t`` of ``count`` and ``pos`` holds the per-bin
    histograms of tree ``t``'s ``n[t]`` rows and of the ``n_pos[t]``
    positive ones among them.  A single row of ``count`` is shared by
    trees of the same rows (the root's).

    Returns per tree ``(features, accuracies, thresholds)``, ascending by
    feature, for the features that have a split: a numeric boundary
    between two values present among the rows, or a category not holding
    every row.  Within a feature the first maximum wins.
    """
    n, n_pos = np.asarray(n)[:, None], np.asarray(n_pos)[:, None]
    # only the bins that hold a row of some tree
    held = np.flatnonzero(count.any(axis=0))
    count, pos, f, values = count[:, held], pos[:, held], bins.feature[held], bins.values[held]
    starts, last = np.searchsorted(held, bins.starts), len(held) - 1
    cat = bins.categorical[f]
    # every column's bins hold all n rows, so a running count over the
    # bins, less n per earlier column, counts the rows <= a value
    n_count = n[: len(count)]
    n_l = np.where(cat, count, np.cumsum(count, axis=1) - f * n_count)
    pos_l = np.where(cat, pos, np.cumsum(pos, axis=1) - f * n_pos)
    present = count > 0
    ba = _balanced_accuracy(pos_l, n_l, n_pos - pos_l, n - n_l, n_pos, n)
    # an absent value, or no row on the right
    np.copyto(ba, -1.0, where=~present | (n_l >= n_count))
    best = np.maximum.reduceat(ba, starts, axis=1)
    index = np.arange(last + 1)
    first = np.minimum.reduceat(np.where(ba == best[:, f], index, last), starts, axis=1)
    # a numeric split's upper value is that of the next present bin
    following = np.minimum.accumulate(np.where(present, index, last)[:, ::-1], axis=1)[:, ::-1]
    upper = np.take_along_axis(following, np.minimum(first + 1, last), axis=1)
    value = values[first]
    thresholds = np.where(bins.categorical, value, (value + values[upper]) / 2)
    out = []
    for accuracies, cuts in zip(best.tolist(), thresholds.tolist()):
        split = [g for g, a in enumerate(accuracies) if a >= 0]
        out.append((split, [accuracies[g] for g in split], [cuts[g] for g in split]))
    return out


def _cue_tests(bins: _Bins, X: np.ndarray, cues: dict, tree_of, row_of) -> np.ndarray:
    """Each (tree, row) pair's outcome of its tree's new cue; ``cues`` maps
    a tree to the cue's ``(feature, threshold)``."""
    size = max(cues) + 1
    feature, threshold = np.zeros(size, dtype=int), np.zeros(size)
    categorical = np.zeros(size, dtype=bool)
    for t, (f, cut) in cues.items():
        feature[t], threshold[t], categorical[t] = f, cut, bins.categorical[f]
    values, cuts = X[row_of, feature[tree_of]], threshold[tree_of]
    if not categorical.any():
        return values <= cuts
    return np.where(categorical[tree_of], values == cuts, values <= cuts)


def _learn_trees(
    bins: _Bins, X: np.ndarray, labels: np.ndarray, max_leaves: int
) -> tuple[list[FFTree], np.ndarray]:
    """FF-tree induction, one tree per row of the boolean matrix ``labels``
    (trees x rows of ``X``), all trees a level at a time: one
    :func:`_feature_splits` pass scores every growing tree's level.

    Returns the trees and their votes on the rows of ``X`` (trees x rows),
    which induction knows: each row's exit label, or the tree's final
    label for the rows no cue exits.
    """
    if max_leaves < 2:
        raise ValueError("max_leaves must be at least 2")
    k, n_rows = labels.shape
    n, n_pos = [n_rows] * k, labels.sum(axis=1).tolist()
    cues: list[list[Cue]] = [[] for _ in range(k)]
    votes = np.zeros((k, n_rows), dtype=np.int8)
    # every tree's remaining rows, as (tree, row) pairs
    tree_of, row_of = np.repeat(np.arange(k), n_rows), np.tile(np.arange(n_rows), k)
    positive = labels.ravel()
    count = bins.counts[None]  # the root's counts, shared by every tree
    pos = bins.histogram(row_of[positive], tree_of[positive], k)
    growing = [t for t in range(k) if 0 < n_pos[t] < n[t]]
    holding = list(range(k))  # the trees with rows left
    for depth in range(max_leaves):
        chosen = {}  # tree -> (feature, threshold)
        if growing and depth < max_leaves - 1:
            splits = _feature_splits(
                bins,
                count[growing] if len(count) > 1 else count,
                pos[growing],
                [n[t] for t in growing],
                [n_pos[t] for t in growing],
            )
            for t, found in zip(growing, splits):
                best = None  # (ba, feature, threshold)
                for f, ba, threshold in zip(*found):
                    if best is None or ba > best[0] + 1e-12:
                        best = (ba, f, threshold)
                if best is not None and best[0] > 0.5 + 1e-12:
                    chosen[t] = best[1:]
        stopping = [t for t in holding if t not in chosen]
        if stopping:
            # the rows left to a tree that stops take its final label
            final = np.full(k, -1)
            for t in stopping:
                final[t] = _majority(n_pos[t], n[t])
            label = final[tree_of]
            stop = label >= 0
            votes[tree_of[stop], row_of[stop]] = label[stop]
            stay = ~stop
            tree_of, row_of, positive = tree_of[stay], row_of[stay], positive[stay]
            holding = list(chosen)
        if not chosen:
            break
        test = _cue_tests(bins, X, chosen, tree_of, row_of)
        n_true = np.bincount(tree_of[test], minlength=k).tolist()
        pos_true = np.bincount(tree_of[test & positive], minlength=k).tolist()
        exit_side, exit_label = np.zeros(k, dtype=bool), np.zeros(k, dtype=int)
        for t, (f, cut) in chosen.items():
            n_t, pos_t = n_true[t], pos_true[t]
            n_f, pos_f = n[t] - n_t, n_pos[t] - pos_t
            assert n_t > 0 and n_f > 0
            side = max(pos_t, n_t - pos_t) / n_t >= max(pos_f, n_f - pos_f) / n_f
            if side:
                label, n[t], n_pos[t] = _majority(pos_t, n_t), n_f, pos_f
            else:
                label, n[t], n_pos[t] = _majority(pos_f, n_f), n_t, pos_t
            cues[t].append(Cue(f, bool(bins.categorical[f]), cut, side, label))
            exit_side[t], exit_label[t] = side, label
        exits = test == exit_side[tree_of]
        gone_tree, gone_row = tree_of[exits], row_of[exits]
        votes[gone_tree, gone_row] = exit_label[gone_tree]
        count = count - bins.histogram(gone_row, gone_tree, k)
        gone_pos = positive[exits]
        pos -= bins.histogram(gone_row[gone_pos], gone_tree[gone_pos], k)
        stay = ~exits
        tree_of, row_of, positive = tree_of[stay], row_of[stay], positive[stay]
        growing = [t for t in chosen if 0 < n_pos[t] < n[t]]
    trees = [FFTree(tuple(c), _majority(n_pos[t], n[t])) for t, c in enumerate(cues)]
    return trees, votes


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
    (tree,), _ = _learn_trees(_rank_codes(X, categorical), X, (y == 1)[None], max_leaves)
    return tree


def batch_predict(tree: FFTree, X: np.ndarray) -> np.ndarray:
    """Vectorized FF-tree evaluation over the rows of ``X``."""
    n = X.shape[0]
    out = np.full(n, tree.final_label, dtype=int)
    remaining = np.arange(n)
    for cue in tree.cues:
        if remaining.size == 0:
            break
        vals = X[remaining, cue.feature]
        test = (vals == cue.threshold) if cue.categorical else (vals <= cue.threshold)
        exits = test == cue.exit_side
        out[remaining[exits]] = cue.exit_label
        remaining = remaining[~exits]
    return out


# ---------------------------------------------------------------------------
# combiner decision tree (over the 8 expert votes)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CombinerNode:
    """Internal node (feature set, label None) or leaf (feature None)."""

    feature: Optional[int] = None
    label: Optional[int] = None
    low: Optional["CombinerNode"] = None
    high: Optional["CombinerNode"] = None

    def predict(self, votes: Sequence[int]) -> int:
        node = self
        while node.feature is not None:
            node = node.high if votes[node.feature] else node.low
        return node.label


def _entropy(counts: dict) -> float:
    total = sum(counts.values())
    h = 0.0
    for c in counts.values():
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def _majority_action(counts: dict) -> int:
    return min(counts, key=lambda a: (-counts[a], a))


def _add_counts(total: dict, counts: dict) -> None:
    """Add ``counts`` into ``total``, a new action entered last (the
    entropies sum in that order)."""
    for a, c in counts.items():
        total[a] = total.get(a, 0) + c


def _build_combiner(groups: dict, available: tuple[int, ...], depth: int) -> CombinerNode:
    """``groups`` maps vote tuples to dicts of true-action counts."""
    total: dict[int, int] = {}
    for c in groups.values():
        _add_counts(total, c)
    if len(total) == 1 or not available or depth == 0:
        return CombinerNode(label=_majority_action(total))
    n = sum(total.values())
    base = _entropy(total)
    best = None  # (gain, feature)
    for f in available:
        sides: tuple[dict, dict] = ({}, {})
        for votes, c in groups.items():
            _add_counts(sides[votes[f]], c)
        cond = sum((sum(side.values()) / n) * _entropy(side) for side in sides if side)
        gain = base - cond
        if best is None or gain > best[0] + 1e-12:
            best = (gain, f)
    if best is None or best[0] <= 1e-12:
        return CombinerNode(label=_majority_action(total))
    _, f = best
    rest = tuple(g for g in available if g != f)
    lows = {v: c for v, c in groups.items() if v[f] == 0}
    highs = {v: c for v, c in groups.items() if v[f] == 1}
    fallback = CombinerNode(label=_majority_action(total))
    return CombinerNode(
        feature=f,
        low=_build_combiner(lows, rest, depth - 1) if lows else fallback,
        high=_build_combiner(highs, rest, depth - 1) if highs else fallback,
    )


# ---------------------------------------------------------------------------
# stacked model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StackedModel:
    trees: tuple[FFTree, ...]
    combiner: CombinerNode
    train_count: int
    # per tree: its cues as (feature, categorical, threshold, exit_side,
    # exit_label) tuples, and its final label
    _table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = tuple(
            (
                tuple(
                    (c.feature, c.categorical, c.threshold, c.exit_side, c.exit_label)
                    for c in tree.cues
                ),
                tree.final_label,
            )
            for tree in self.trees
        )
        object.__setattr__(self, "_table", table)

    def predict(self, vec: Sequence[float]) -> int:
        """Each tree's vote, as ``FFTree.predict`` gives it, walked through
        the combiner; an ndarray row is read as Python floats."""
        row = vec.tolist() if isinstance(vec, np.ndarray) else vec
        votes = []
        for cues, vote in self._table:
            for f, categorical, threshold, exit_side, exit_label in cues:
                value = row[f]
                if ((value == threshold) if categorical else (value <= threshold)) == exit_side:
                    vote = exit_label
                    break
            votes.append(vote)
        return self.combiner.predict(votes)


def learn_stacked(X: np.ndarray, y: np.ndarray, max_leaves: int = N_FEATURES) -> StackedModel:
    """Train the eight one-vs-rest FF trees plus the combiner."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if len(y) == 0:
        raise ValueError("cannot learn from an empty example set")
    bins = _rank_codes(X, CATEGORICAL_FEATURES)
    labels = y == np.arange(N_ACTIONS)[:, None]
    trees, votes = [], np.empty(labels.shape, dtype=np.int8)
    step = max(1, _PAIR_BLOCK // len(y))
    for lo in range(0, N_ACTIONS, step):
        block, votes[lo : lo + step] = _learn_trees(bins, X, labels[lo : lo + step], max_leaves)
        trees += block
    votes = votes.T
    # the combiner's entropies sum in insertion order, so groups and their
    # labels are entered in order of first appearance, as a row loop would
    pairs = (y << votes.shape[1]) + _vote_keys(votes)
    _, first, sizes = np.unique(pairs, return_index=True, return_counts=True)
    groups: dict[tuple[int, ...], dict[int, int]] = {}
    for i, size in sorted(zip(first.tolist(), sizes.tolist())):
        groups.setdefault(tuple(votes[i].tolist()), {})[int(y[i])] = size
    combiner = _build_combiner(groups, tuple(range(N_ACTIONS)), N_ACTIONS)
    return StackedModel(trees=tuple(trees), combiner=combiner, train_count=len(y))


def predict_action(model: StackedModel, vec: Sequence[float]) -> int:
    return model.predict(vec)


def _votes(trees: Sequence[FFTree], X: np.ndarray) -> np.ndarray:
    """Every tree's vote on every row of ``X``: an n x len(trees) matrix."""
    return np.column_stack([batch_predict(t, X) for t in trees])


def _vote_keys(votes: np.ndarray) -> np.ndarray:
    """Each row of 0/1 votes as one integer, tree k's vote its bit k."""
    return votes @ (1 << np.arange(votes.shape[1]))


def batch_predict_action(model: StackedModel, X: np.ndarray) -> np.ndarray:
    """``model.predict`` over the rows of ``X``: the trees vote in batch,
    then each distinct vote pattern walks the combiner once."""
    votes = _votes(model.trees, X)
    _, first, inverse = np.unique(_vote_keys(votes), return_index=True, return_inverse=True)
    labels = [model.combiner.predict(v) for v in votes[first].tolist()]
    return np.array(labels, dtype=int)[inverse]


def accuracy(model: StackedModel, X: np.ndarray, y: np.ndarray) -> float:
    if len(y) == 0:
        return 0.0
    predicted = batch_predict_action(model, np.asarray(X, dtype=float))
    return int(np.count_nonzero(predicted == np.asarray(y))) / len(y)


# ---------------------------------------------------------------------------
# agreement tracking and model selection
# ---------------------------------------------------------------------------


class AgreementTracker:
    """Sliding window of prediction-matches-observation flags."""

    def __init__(self, window: int = WINDOW_DEFAULT, flags: Iterable[int] = ()):
        if window < 1:
            raise ValueError("window must be positive")
        self.window = window
        self.flags: deque[int] = deque(flags, maxlen=window)

    @property
    def fraction(self) -> float:
        """Windowed agreement mean; an empty window reports 1.0 so a model
        is trusted until evidence accumulates."""
        if not self.flags:
            return 1.0
        return sum(self.flags) / len(self.flags)

    def update(self, predicted: int, actual: int) -> float:
        self.flags.append(int(predicted == actual))
        return self.fraction


@dataclass
class ModelLibrary:
    models: dict[int, StackedModel] = field(default_factory=dict)
    assignment: dict[int, int] = field(default_factory=dict)
    trackers: dict[tuple[int, int], AgreementTracker] = field(default_factory=dict)

    def tracker(self, agent: int, type_id: int) -> AgreementTracker:
        key = (agent, type_id)
        if key not in self.trackers:
            self.trackers[key] = AgreementTracker()
        return self.trackers[key]

    def next_type_id(self) -> int:
        return max(self.models, default=-1) + 1


def select_or_flag(lib: ModelLibrary) -> dict:
    """Per assigned agent: keep the current model while its agreement is
    at least :data:`THETA_DEFAULT`, else switch to the model agreeing most
    (ties to the lowest type id) if that one reaches the threshold, else
    flag for a new one.  An untracked (agent, model) pair counts as full
    agreement."""
    decisions = {}
    for agent in sorted(lib.assignment):
        current = lib.assignment[agent]
        if _fraction(lib, agent, current) >= THETA_DEFAULT:
            decisions[agent] = ("keep", current)
            continue
        best = None  # (fraction, type_id)
        for type_id in sorted(lib.models):
            frac = _fraction(lib, agent, type_id)
            if frac >= THETA_DEFAULT and (best is None or frac > best[0]):
                best = (frac, type_id)
        if best is not None:
            decisions[agent] = ("switch", best[1])
        else:
            decisions[agent] = ("flag_new_model", None)
    return decisions


def _fraction(lib: ModelLibrary, agent: int, type_id: int) -> float:
    tracker = lib.trackers.get((agent, type_id))
    return 1.0 if tracker is None else tracker.fraction


# ---------------------------------------------------------------------------
# incremental refit
# ---------------------------------------------------------------------------


def incremental_update(
    model: Optional[StackedModel],
    buffer: Sequence[tuple[Sequence[float], int]],
    reservoir: Sequence[tuple[Sequence[float], int]],
) -> StackedModel:
    """Refit on reservoir + buffer; keep the old model if it holds up better.

    Every fifth combined example is held out for the comparison; with no
    prior model (or too few examples to hold any out) the refit is returned
    directly, so an empty reservoir reduces to ``learn_stacked``.
    """
    combined = list(reservoir) + list(buffer)
    if not combined:
        raise ValueError("no examples to update from")
    X = np.array([v for v, _ in combined], dtype=float)
    y = np.array([int(lab) for _, lab in combined], dtype=int)
    if model is None:
        return learn_stacked(X, y)
    hold = np.arange(len(y)) % 5 == 4
    if not hold.any():
        return learn_stacked(X, y)
    new_model = learn_stacked(X[~hold], y[~hold])
    if accuracy(new_model, X[hold], y[hold]) >= accuracy(model, X[hold], y[hold]):
        return new_model
    return model


# ---------------------------------------------------------------------------
# serialization (versioned JSON)
# ---------------------------------------------------------------------------


def _tree_to_dict(tree: FFTree) -> dict:
    return {"cues": [asdict(c) for c in tree.cues], "final_label": tree.final_label}


def _tree_from_dict(d: dict) -> FFTree:
    return FFTree(tuple(Cue(**c) for c in d["cues"]), d["final_label"])


def _node_to_dict(node: CombinerNode) -> dict:
    if node.feature is None:
        return {"label": node.label}
    return {
        "feature": node.feature,
        "low": _node_to_dict(node.low),
        "high": _node_to_dict(node.high),
    }


def _node_from_dict(d: dict) -> CombinerNode:
    if "feature" not in d:
        return CombinerNode(label=d["label"])
    return CombinerNode(
        feature=d["feature"],
        low=_node_from_dict(d["low"]),
        high=_node_from_dict(d["high"]),
    )


def model_to_dict(model: StackedModel) -> dict:
    return {
        "trees": [_tree_to_dict(t) for t in model.trees],
        "combiner": _node_to_dict(model.combiner),
        "train_count": model.train_count,
    }


def model_from_dict(d: dict) -> StackedModel:
    return StackedModel(
        trees=tuple(_tree_from_dict(t) for t in d["trees"]),
        combiner=_node_from_dict(d["combiner"]),
        train_count=d["train_count"],
    )


def save_library(lib: ModelLibrary, path) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "models": {str(t): model_to_dict(m) for t, m in sorted(lib.models.items())},
        "assignment": {str(a): t for a, t in sorted(lib.assignment.items())},
        "trackers": [
            {"agent": a, "type": t, "window": tr.window, "flags": list(tr.flags)}
            for (a, t), tr in sorted(lib.trackers.items())
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_library(path) -> ModelLibrary:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model file version {payload.get('format_version')!r}"
        )
    lib = ModelLibrary()
    for t, d in payload["models"].items():
        lib.models[int(t)] = model_from_dict(d)
    for a, t in payload["assignment"].items():
        lib.assignment[int(a)] = int(t)
    for row in payload["trackers"]:
        lib.trackers[(row["agent"], row["type"])] = AgreementTracker(
            window=row["window"], flags=row["flags"]
        )
    return lib
