"""Tests for fast-and-frugal trees, the stacked action model, agreement
tracking, and model-library bookkeeping.

Oracles used here:
* exhaustive single-cue search over all (feature, threshold) pairs for the
  perfectly separable dataset;
* brute-force window means for agreement fractions;
* recorded cue paths for prediction invariance under off-path mutations;
* ``reference_models``, the argsort learner the histogram learner replaced,
  for equal trees, models and per-feature splits;
* the per-row ``StackedModel.predict`` loop for batch prediction;
* ``FFTree.predict`` votes walked through ``CombinerNode.predict`` for the
  stacked model's flat cue table, on drawn models and rows.
"""

import functools
import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import reference_models as ref
from fortdefense.env import GridConfig
from fortdefense.features import CATEGORICAL_FEATURES, N_FEATURES
from fortdefense.loop import run_games
from fortdefense.models import (
    AgreementTracker,
    CombinerNode,
    Cue,
    FFTree,
    ModelLibrary,
    StackedModel,
    THETA_DEFAULT,
    _feature_splits,
    _rank_codes,
    accuracy,
    batch_predict_action,
    incremental_update,
    learn_ff_tree,
    learn_stacked,
    load_library,
    model_to_dict,
    predict_action,
    save_library,
    select_or_flag,
)

N_ACTIONS = 8


def random_features(rng: np.random.RandomState, n: int) -> np.ndarray:
    """Feature-shaped random matrix with categorical slots kept categorical."""
    X = rng.uniform(-5, 25, size=(n, N_FEATURES))
    for j in CATEGORICAL_FEATURES:
        hi = 8 if j == N_FEATURES - 1 else 4
        X[:, j] = rng.randint(0, hi, size=n)
    return X


# ---------------------------------------------------------------------------
# FF trees
# ---------------------------------------------------------------------------


def test_single_class_input_gives_depth_zero_tree():
    X = np.zeros((10, N_FEATURES))
    tree1 = learn_ff_tree(X, np.ones(10, dtype=int))
    tree0 = learn_ff_tree(X, np.zeros(10, dtype=int))
    assert tree1.cues == () and tree1.final_label == 1
    assert tree0.cues == () and tree0.final_label == 0
    assert tree1.n_leaves == 1


def brute_force_best_single_cue(X, y):
    """Exhaustive search for the best 2-leaf split; returns best accuracy."""
    best = 0.0
    n = len(y)
    for f in range(X.shape[1]):
        vals = sorted(set(X[:, f]))
        cands = [(a + b) / 2 for a, b in zip(vals, vals[1:])] + list(vals)
        for t in cands:
            for test in (X[:, f] <= t, X[:, f] == t):
                for side_label in (0, 1):
                    pred = np.where(test, side_label, 1 - side_label)
                    best = max(best, float(np.mean(pred == y)))
    return best


def test_perfect_single_threshold_dataset():
    rng = np.random.RandomState(0)
    X = random_features(rng, 200)
    k = 7
    y = (X[:, k] > 3.3).astype(int)
    assert brute_force_best_single_cue(X, y) == 1.0
    tree = learn_ff_tree(X, y, categorical=CATEGORICAL_FEATURES)
    assert len(tree.cues) == 1
    assert tree.cues[0].feature == k
    pred = np.array([tree.predict(row) for row in X])
    assert np.array_equal(pred, y)


def test_leaf_budget_and_structure_on_random_inputs():
    for seed in range(12):
        rng = np.random.RandomState(seed)
        X = random_features(rng, 120)
        y = rng.randint(0, 2, size=120)
        tree = learn_ff_tree(X, y, categorical=CATEGORICAL_FEATURES)
        assert tree.n_leaves <= N_FEATURES
        for cue in tree.cues:
            assert cue.exit_label in (0, 1)
            assert isinstance(cue.exit_side, bool)
        assert tree.final_label in (0, 1)


def test_training_is_deterministic():
    rng = np.random.RandomState(3)
    X = random_features(rng, 150)
    y = (X[:, 2] + X[:, 5] > 18).astype(int)
    t1 = learn_ff_tree(X.copy(), y.copy(), categorical=CATEGORICAL_FEATURES)
    t2 = learn_ff_tree(X.copy(), y.copy(), categorical=CATEGORICAL_FEATURES)
    assert t1 == t2


def test_frugal_evaluation_inspects_at_most_leaves_minus_one_cues():
    rng = np.random.RandomState(5)
    X = random_features(rng, 300)
    y = rng.randint(0, 2, size=300)
    tree = learn_ff_tree(X, y, categorical=CATEGORICAL_FEATURES)
    for row in X[:50]:
        label, inspected = tree.predict_traced(row)
        assert label in (0, 1)
        assert len(inspected) <= tree.n_leaves - 1
        assert len(inspected) <= len(tree.cues)


def test_max_leaves_two_gives_single_cue():
    rng = np.random.RandomState(8)
    X = random_features(rng, 100)
    y = ((X[:, 1] > 10) ^ (X[:, 2] > 12)).astype(int)
    tree = learn_ff_tree(X, y, max_leaves=2, categorical=CATEGORICAL_FEATURES)
    assert len(tree.cues) <= 1


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        learn_ff_tree(np.zeros((0, N_FEATURES)), np.zeros(0, dtype=int))


# ---------------------------------------------------------------------------
# stacked model
# ---------------------------------------------------------------------------


def test_constant_action_learns_constant_model():
    rng = np.random.RandomState(1)
    X = random_features(rng, 60)
    y = np.full(60, 4, dtype=int)
    model = learn_stacked(X, y)
    for row in random_features(np.random.RandomState(2), 20):
        assert predict_action(model, row) == 4


def test_separable_actions_memorized():
    rng = np.random.RandomState(4)
    X = random_features(rng, 400)
    y = np.clip((X[:, 0] // 8).astype(int) % 4, 0, 3)
    model = learn_stacked(X, y)
    acc = np.mean([predict_action(model, row) == lab for row, lab in zip(X, y)])
    assert acc >= 0.95


def test_prediction_ignores_features_off_the_cue_paths():
    rng = np.random.RandomState(6)
    X = random_features(rng, 300)
    y = ((X[:, 3] > 9).astype(int) * 3 + (X[:, 12] > 12).astype(int)).astype(int)
    model = learn_stacked(X, y)
    used = set()
    for tree in model.trees:
        for cue in tree.cues:
            used.add(cue.feature)
    row = X[17].copy()
    base = predict_action(model, row)
    mutated = row.copy()
    for j in range(N_FEATURES):
        if j not in used:
            mutated[j] += 1000.0
    assert predict_action(model, mutated) == base


def test_stacked_prediction_deterministic_and_total():
    rng = np.random.RandomState(7)
    X = random_features(rng, 200)
    y = rng.randint(0, N_ACTIONS, size=200)
    model = learn_stacked(X, y)
    probe = random_features(np.random.RandomState(9), 40)
    for row in probe:
        a = predict_action(model, row)
        assert a == predict_action(model, row)
        assert 0 <= a < N_ACTIONS


def test_noisy_data_beats_uniform_guessing():
    rng = np.random.RandomState(10)
    X = random_features(rng, 4000)
    clean = (np.abs(X[:, 2]) // 4).astype(int) % N_ACTIONS
    noise_mask = rng.uniform(size=4000) < 0.4
    y = np.where(noise_mask, rng.randint(0, N_ACTIONS, size=4000), clean)
    train, hold = slice(0, 3200), slice(3200, 4000)
    model = learn_stacked(X[train], y[train])
    acc = np.mean([predict_action(model, row) == lab for row, lab in zip(X[hold], y[hold])])
    assert acc > 0.3  # far above the degenerate 1/8


def test_learn_stacked_empty_rejected():
    with pytest.raises(ValueError):
        learn_stacked(np.zeros((0, N_FEATURES)), np.zeros(0, dtype=int))


# ---------------------------------------------------------------------------
# agreement tracking
# ---------------------------------------------------------------------------


def test_agreement_fraction_matches_arithmetic():
    t = AgreementTracker(window=10)
    for _ in range(10):
        t.update(3, 3)
    assert t.fraction == 1.0
    t2 = AgreementTracker(window=10)
    outcomes = [1, 1, 1, 1, 1, 1, 1, 0, 0, 0]
    for ok in outcomes:
        t2.update(0, 0 if ok else 1)
    assert t2.fraction == pytest.approx(0.7)


def test_window_rollover_matches_brute_force():
    rng = random.Random(12)
    t = AgreementTracker(window=7)
    shadow = []
    for i in range(100):
        pred, actual = rng.randint(0, 7), rng.randint(0, 7)
        frac = t.update(pred, actual)
        shadow.append(int(pred == actual))
        assert frac == pytest.approx(sum(shadow[-7:]) / len(shadow[-7:]))
        assert 0.0 <= frac <= 1.0


def test_empty_tracker_reports_full_agreement():
    assert AgreementTracker(window=5).fraction == 1.0


# ---------------------------------------------------------------------------
# model selection
# ---------------------------------------------------------------------------


def _library_with_fractions(agent, fractions):
    rng = np.random.RandomState(0)
    X = random_features(rng, 30)
    y = np.zeros(30, dtype=int)
    model = learn_stacked(X, y)
    lib = ModelLibrary()
    for type_id in fractions:
        lib.models[type_id] = model
    lib.assignment[agent] = sorted(fractions)[0]
    for type_id, frac in fractions.items():
        tr = AgreementTracker(window=10)
        hits = round(frac * 10)
        for i in range(10):
            tr.update(0, 0 if i < hits else 1)
        lib.trackers[(agent, type_id)] = tr
    return lib


def test_keep_current_model_above_threshold():
    lib = _library_with_fractions(5, {0: 0.9, 1: 0.2})
    decisions = select_or_flag(lib)
    assert decisions[5] == ("keep", 0)


def test_switch_to_better_model():
    lib = _library_with_fractions(5, {0: 0.3, 1: 0.8})
    decisions = select_or_flag(lib)
    assert decisions[5] == ("switch", 1)


def test_switch_tie_goes_to_lowest_type_id():
    lib = _library_with_fractions(5, {0: 0.3, 1: 0.8, 2: 0.8})
    assert select_or_flag(lib)[5] == ("switch", 1)


def test_flag_new_model_when_all_below_threshold():
    lib = _library_with_fractions(5, {0: 0.2, 1: 0.2})
    assert select_or_flag(lib)[5] == ("flag_new_model", None)


def test_agreement_exactly_at_the_threshold_keeps_the_model():
    # the rule is ``>=``: 5 hits in a window of 10 is THETA_DEFAULT itself
    assert THETA_DEFAULT == 0.5
    lib = _library_with_fractions(5, {0: 0.5, 1: 0.9})
    assert select_or_flag(lib)[5] == ("keep", 0)


# ---------------------------------------------------------------------------
# incremental update
# ---------------------------------------------------------------------------


def test_incremental_update_without_prior_model_reduces_to_learn_stacked():
    rng = np.random.RandomState(14)
    X = random_features(rng, 100)
    y = (X[:, 1] > 10).astype(int) * 2
    updated = incremental_update(None, list(zip(X, y)), reservoir=[])
    direct = learn_stacked(X, y)
    assert updated.trees == direct.trees
    assert updated.combiner == direct.combiner


def test_incremental_update_same_distribution_keeps_accuracy():
    rng = np.random.RandomState(15)
    X = random_features(rng, 2000)
    y = ((X[:, 2] > 10).astype(int) * 5 + (X[:, 4] > 10).astype(int)).astype(int)
    model = learn_stacked(X[:1000], y[:1000])
    base_acc = np.mean(
        [predict_action(model, r) == lab for r, lab in zip(X[1500:], y[1500:])]
    )
    reservoir = list(zip(X[:1000], y[:1000]))
    buffer = list(zip(X[1000:1200], y[1000:1200]))
    updated = incremental_update(model, buffer, reservoir=reservoir)
    new_acc = np.mean(
        [predict_action(updated, r) == lab for r, lab in zip(X[1500:], y[1500:])]
    )
    assert new_acc >= base_acc - 0.02


def test_incremental_update_adapts_to_changed_policy():
    rng = np.random.RandomState(16)
    X_old = random_features(rng, 800)
    y_old = np.full(800, 1, dtype=int)
    X_new = random_features(rng, 800)
    y_new = np.full(800, 6, dtype=int)
    model = learn_stacked(X_old, y_old)
    before = np.mean([predict_action(model, r) == lab for r, lab in zip(X_new, y_new)])
    updated = incremental_update(model, list(zip(X_new[:200], y_new[:200])), reservoir=[])
    after = np.mean([predict_action(updated, r) == lab for r, lab in zip(X_new, y_new)])
    assert after > before


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_library_round_trip(tmp_path):
    rng = np.random.RandomState(17)
    X = random_features(rng, 300)
    y = ((X[:, 0] > 9).astype(int) * 7).astype(int)
    lib = ModelLibrary()
    lib.models[0] = learn_stacked(X, y)
    lib.assignment[3] = 0
    lib.trackers[(3, 0)] = AgreementTracker(window=30)
    lib.trackers[(3, 0)].update(1, 1)
    path = tmp_path / "models.json"
    save_library(lib, path)
    loaded = load_library(path)
    assert loaded.assignment == {3: 0}
    assert loaded.trackers[(3, 0)].fraction == 1.0
    probe = random_features(np.random.RandomState(18), 25)
    for row in probe:
        assert predict_action(loaded.models[0], row) == predict_action(lib.models[0], row)


def test_library_version_check(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 99}')
    with pytest.raises(ValueError):
        load_library(path)


# ---------------------------------------------------------------------------
# bulk invariants (randomized; the acceptance gate re-runs these at >= 10k)
# ---------------------------------------------------------------------------


def test_randomized_invariant_sweep():
    rng = np.random.RandomState(20)
    cases = 0
    for trial in range(25):
        X = random_features(rng, 80)
        y = rng.randint(0, 2, size=80)
        tree = learn_ff_tree(X, y, categorical=CATEGORICAL_FEATURES)
        assert tree.n_leaves <= N_FEATURES
        for row in X[:20]:
            label, inspected = tree.predict_traced(row)
            assert len(inspected) <= max(len(tree.cues), 0)
            assert label in (0, 1)
            cases += 1
    assert cases == 500


# ---------------------------------------------------------------------------
# histogram induction against the argsort reference
# ---------------------------------------------------------------------------

#: The six golden scripted games of ``test_policies`` (GridConfig(), episode
#: seed 1000, all scripted), pooled in this order.
SCRIPTED_POLICIES = ("B1240", "B1600", "B220", "B650", "P1", "P2")


@functools.lru_cache(maxsize=None)
def scripted_examples() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per role, the feature matrix and action labels of those games."""
    pooled = {"guard": [], "attacker": []}
    for policy in SCRIPTED_POLICIES:
        sink = {"guard": [], "attacker": []}
        run_games(GridConfig(), policy, 1, seed=1000, ad_hoc=False, example_sink=sink)
        for role in pooled:
            pooled[role] += sink[role]
    return {
        role: (
            np.array([v for v, _ in examples], dtype=float),
            np.array([k for _, k in examples], dtype=int),
        )
        for role, examples in pooled.items()
    }


COLUMN_KINDS = ("spread", "coarse", "constant", "copy", "category")


def draw_column(kind: str, rng: np.random.Generator, X: list, n: int) -> np.ndarray:
    """One feature column: spread-out floats, a few repeated levels, a
    constant, an exact or monotone copy of an earlier column, or a
    small-integer category."""
    if kind == "spread":
        return rng.uniform(-5, 25, n).round(int(rng.integers(0, 4)))
    if kind == "coarse":
        return rng.choice(rng.uniform(-5, 25, int(rng.integers(1, 6))), n)
    if kind == "constant":
        return np.full(n, float(rng.integers(-3, 4)))
    if kind == "copy" and X:
        source = X[int(rng.integers(0, len(X)))]
        return source if rng.integers(0, 2) else source * 2.0 + 1.0
    return rng.integers(0, int(rng.integers(1, 9)), n).astype(float)


def draw_labels(data, rng: np.random.Generator, X: np.ndarray, categories, n_labels: int):
    """Random labels, a single class, or labels carried only by a
    categorical column (with a little noise)."""
    n = len(X)
    how = data.draw(st.sampled_from(("random", "one-class", "category-signal")))
    if how == "one-class":
        return np.full(n, int(rng.integers(0, n_labels)))
    if how == "category-signal" and categories:
        column = X[:, sorted(categories)[int(rng.integers(0, len(categories)))]]
        y = column.astype(int) % n_labels
        noise = rng.random(n) < 0.1
        return np.where(noise, rng.integers(0, n_labels, n), y)
    return rng.integers(0, int(rng.integers(2, n_labels + 1)), n)


@st.composite
def feature_matrices(draw, n_columns=None):
    """(X, categorical columns, rng) with 1..400 rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 400))
    if n_columns is None:
        kinds = draw(st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=8))
        categorical = frozenset(
            f for f, kind in enumerate(kinds) if kind == "category" or rng.random() < 0.1
        )
    else:
        kinds = draw(
            st.lists(st.sampled_from(COLUMN_KINDS), min_size=n_columns, max_size=n_columns)
        )
        categorical = CATEGORICAL_FEATURES
        kinds = ["category" if f in categorical else k for f, k in enumerate(kinds)]
    columns: list = []
    for kind in kinds:
        columns.append(draw_column(kind, rng, columns, n))
    return np.column_stack(columns), categorical, rng


@settings(max_examples=250, deadline=None, derandomize=True)
@given(data=st.data(), drawn=feature_matrices(), max_leaves=st.integers(2, 39))
def test_ff_tree_equals_the_argsort_learner(data, drawn, max_leaves):
    X, categorical, rng = drawn
    y = draw_labels(data, rng, X, categorical, 2)
    assert learn_ff_tree(X, y, max_leaves, categorical) == ref.learn_ff_tree(
        X, y, max_leaves, categorical
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), drawn=feature_matrices(N_FEATURES), max_leaves=st.integers(2, 39))
def test_stacked_model_equals_the_argsort_learner(data, drawn, max_leaves):
    X, categorical, rng = drawn
    y = draw_labels(data, rng, X, categorical, 8)
    assert learn_stacked(X, y, max_leaves) == ref.learn_stacked(X, y, max_leaves)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    role=st.sampled_from(("guard", "attacker")),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 400),
    max_leaves=st.integers(2, 39),
)
def test_learners_agree_on_subsets_of_scripted_examples(role, seed, n, max_leaves):
    X, y = scripted_examples()[role]
    rows = np.random.default_rng(seed).choice(len(y), min(n, len(y)), replace=False)
    X, y = X[rows], y[rows]
    assert learn_stacked(X, y, max_leaves) == ref.learn_stacked(X, y, max_leaves)
    k = int(y[0])
    assert learn_ff_tree(X, y == k, max_leaves, CATEGORICAL_FEATURES) == ref.learn_ff_tree(
        X, y == k, max_leaves, CATEGORICAL_FEATURES
    )


@st.composite
def near_ties(draw):
    """Balanced labels (m of each) and two two-valued columns whose splits
    have the same balanced accuracy, (a + b) / 2m, in exact arithmetic,
    reached through different counts: a positives and b negatives
    classified right.  Their float scores can differ in the last place,
    which only the cross-feature margin ignores."""
    m = draw(st.integers(2, 100))
    total = draw(st.integers(m + 1, 2 * m))
    pos_index, neg_index = np.arange(m), np.arange(m)
    columns = []
    for reverse in (False, True):
        a = draw(st.integers(total - m, m))
        b = total - a
        pos_lo = pos_index >= m - a if reverse else pos_index < a
        neg_lo = neg_index >= b if reverse else neg_index < m - b
        columns.append(np.concatenate([pos_lo, neg_lo]).astype(float))
    X = np.column_stack(columns)
    y = np.repeat([1, 0], m)
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(2 * m)
    categorical = draw(st.sampled_from([frozenset(), frozenset({0}), frozenset({1})]))
    return X[order], y[order], categorical


@settings(max_examples=150, deadline=None, derandomize=True)
@given(drawn=near_ties(), max_leaves=st.integers(2, 4))
def test_a_later_feature_needs_more_than_the_margin(drawn, max_leaves):
    X, y, categorical = drawn
    assert learn_ff_tree(X, y, max_leaves, categorical) == ref.learn_ff_tree(
        X, y, max_leaves, categorical
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), drawn=feature_matrices())
def test_every_feature_split_equals_the_argsort_scan(data, drawn):
    """One scoring pass over a histogram of any row subset gives every
    feature the split the per-feature argsort scan finds."""
    X, categorical, rng = drawn
    y = draw_labels(data, rng, X, categorical, 2)
    rows = np.flatnonzero(rng.random(len(y)) < data.draw(st.floats(0.05, 1.0)))
    labels = y[rows]
    assume(len(rows) and 0 < labels.sum() < len(rows))
    bins = _rank_codes(X, categorical)
    (found,) = _feature_splits(
        bins,
        bins.histogram(rows)[None],
        bins.histogram(rows[labels == 1])[None],
        [len(rows)],
        [int(labels.sum())],
    )
    want = {}
    for f in range(X.shape[1]):
        scan = ref._best_split_categorical if f in categorical else ref._best_split_numeric
        split = scan(X[rows, f], labels)
        if split is not None:
            want[f] = split
    assert {f: (ba, t) for f, ba, t in zip(*found)} == want


def test_feature_splits_keep_the_first_maximum():
    """A symmetric column ties its lowest and highest boundaries; the
    smallest threshold and the lowest tied category win."""
    X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    y = np.array([1, 0, 0, 1])
    bins = _rank_codes(X, frozenset({1}))
    rows = np.arange(4)
    ((features, accuracies, thresholds),) = _feature_splits(
        bins, bins.histogram(rows)[None], bins.histogram(rows[y == 1])[None], [4], [2]
    )
    assert features == [0, 1]
    assert accuracies == [0.75, 0.75]
    assert thresholds == [0.5, 0.0]


def test_rank_codes_give_each_column_its_own_bins():
    X = np.array([[3.0, 7.0], [1.0, 7.0], [3.0, 5.0]])
    bins = _rank_codes(X, frozenset({1}))
    assert bins.codes.tolist() == [[1, 3], [0, 3], [1, 2]]
    assert bins.codes.dtype == np.uint16
    assert bins.values.tolist() == [1.0, 3.0, 5.0, 7.0]
    assert bins.feature.tolist() == [0, 0, 1, 1]
    assert bins.counts.tolist() == [1, 2, 1, 2]
    assert bins.categorical.tolist() == [False, True]
    assert bins.histogram(np.array([0, 2])).tolist() == [0, 2, 1, 1]


# ---------------------------------------------------------------------------
# batch prediction
# ---------------------------------------------------------------------------


def row_predictions(model: StackedModel, X: np.ndarray) -> list[int]:
    return [model.predict(row) for row in X]


@pytest.mark.parametrize("seed", range(6))
def test_batch_prediction_equals_the_row_loop_on_random_examples(seed):
    rng = np.random.RandomState(seed)
    X = random_features(rng, 300)
    y = np.where(rng.uniform(size=300) < 0.3, rng.randint(0, N_ACTIONS, 300), (X[:, 2] // 5) % 8)
    model = learn_stacked(X[:200], y[:200].astype(int))
    probe = random_features(rng, 100)
    assert batch_predict_action(model, probe).tolist() == row_predictions(model, probe)
    assert batch_predict_action(model, X).tolist() == row_predictions(model, X)
    hits = sum(p == lab for p, lab in zip(row_predictions(model, X[200:]), y[200:]))
    assert accuracy(model, X[200:], y[200:]) == hits / 100


@pytest.mark.parametrize("role", ["guard", "attacker"])
def test_batch_prediction_equals_the_row_loop_on_scripted_examples(role):
    X, y = scripted_examples()[role]
    model = learn_stacked(X[::2], y[::2])
    assert batch_predict_action(model, X).tolist() == row_predictions(model, X)
    hits = sum(p == lab for p, lab in zip(row_predictions(model, X[1::2]), y[1::2]))
    assert accuracy(model, X[1::2], y[1::2]) == hits / len(y[1::2])
    assert batch_predict_action(model, X[:0]).tolist() == []
    assert accuracy(model, X[:0], y[:0]) == 0.0


#: Cue thresholds and row values share a few levels, so that categorical
#: cues match and numeric cues meet their threshold exactly.
LEVELS = (-2.5, -0.0, 0.0, 1.0, 2.0, 3.5, 7.0)

drawn_cues = st.builds(
    Cue,
    feature=st.integers(0, N_FEATURES - 1),
    categorical=st.booleans(),
    threshold=st.sampled_from(LEVELS) | st.floats(-10, 10),
    exit_side=st.booleans(),
    exit_label=st.integers(0, 1),
)
drawn_trees = st.builds(
    FFTree, cues=st.lists(drawn_cues, max_size=5).map(tuple), final_label=st.integers(0, 1)
)
drawn_combiners = st.recursive(
    st.builds(CombinerNode, label=st.integers(0, N_ACTIONS - 1)),
    lambda nodes: st.builds(
        CombinerNode, feature=st.integers(0, N_ACTIONS - 1), low=nodes, high=nodes
    ),
    max_leaves=16,
)
drawn_models = st.builds(
    StackedModel,
    trees=st.lists(drawn_trees, min_size=N_ACTIONS, max_size=N_ACTIONS).map(tuple),
    combiner=drawn_combiners,
    train_count=st.just(0),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    model=drawn_models,
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 8),
    form=st.sampled_from((np.array, list, tuple)),
)
def test_the_flat_cue_table_predicts_as_the_trees_and_the_combiner(model, seed, n_rows, form):
    """The stacked model's flat prediction equals each tree's vote walked
    through the combiner, on an ndarray, list or tuple row, and equals
    batch prediction over the rows."""
    rng = np.random.default_rng(seed)
    X = np.where(
        rng.random((n_rows, N_FEATURES)) < 0.5,
        rng.choice(LEVELS, (n_rows, N_FEATURES)),
        rng.uniform(-10, 10, (n_rows, N_FEATURES)),
    )
    rows = X.tolist()
    walked = [model.combiner.predict([t.predict(form(row)) for t in model.trees]) for row in rows]
    assert [model.predict(form(row)) for row in rows] == walked
    assert [predict_action(model, row) for row in X] == walked
    assert batch_predict_action(model, X).tolist() == walked


# ---------------------------------------------------------------------------
# golden learned models
# ---------------------------------------------------------------------------

# sha256 of ``json.dumps(model_to_dict(learn_stacked(X, y)), sort_keys=True)``
# per role, on the examples of the six golden scripted games pooled in
# SCRIPTED_POLICIES order.  A change to induction that keeps every learned
# model keeps these values.
GOLDEN_MODELS_SEED1000 = {
    "guard": "ec0e53e493faa9e874e00564d1213142d72c11879854492298d9a73f9699d04c",
    "attacker": "22b6201fbd291d0bb00bdbb50c2e7c69d47e7f074782162a018afa76acd37267",
}


@pytest.mark.parametrize("role", sorted(GOLDEN_MODELS_SEED1000))
def test_golden_learned_model(role):
    X, y = scripted_examples()[role]
    text = json.dumps(model_to_dict(learn_stacked(X, y)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_MODELS_SEED1000[role]
