"""Tree and forest prediction oracle: the original per-row node walk.

Production prediction traverses flattened node arrays level by level
(:class:`repro.ml.tree.FlatTree`, the forest's stacked node table).
These functions walk the Python node objects one row at a time instead,
as the code did before vectorization; tests compare the two bit for bit
and patch them in for the methods they mirror.
"""

from __future__ import annotations

import numpy as np

from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import RegressionTree


def tree_predict(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    """:meth:`RegressionTree.predict` by walking nodes row by row."""
    if tree._root is None:
        raise RuntimeError("tree has not been fitted")
    X = tree._validate_X(X)
    out = np.empty(X.shape[0])
    for i, row in enumerate(X):
        node = tree._root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        out[i] = node.value
    return out


def forest_predict_per_tree(
    forest: RandomForestRegressor, X: np.ndarray
) -> np.ndarray:
    """:meth:`RandomForestRegressor.predict_per_tree` from node walks."""
    if not forest._trees:
        raise RuntimeError("forest has not been fitted")
    X = forest._trees[0]._validate_X(X)
    return np.stack([tree_predict(tree, X) for tree in forest._trees])


def forest_predict(forest: RandomForestRegressor, X: np.ndarray) -> np.ndarray:
    """:meth:`RandomForestRegressor.predict` from node walks."""
    return forest_predict_per_tree(forest, X).mean(axis=0)


def install(monkeypatch) -> None:
    """Route every tree and forest prediction through the node walk."""
    monkeypatch.setattr(RegressionTree, "predict", tree_predict)
    monkeypatch.setattr(RandomForestRegressor, "predict", forest_predict)
    monkeypatch.setattr(
        RandomForestRegressor, "predict_per_tree", forest_predict_per_tree
    )
