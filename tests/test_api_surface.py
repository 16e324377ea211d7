"""The public surface, counted: a new knob or export changes a pin here.

A settable value is a parameter of a function, or a field of a dataclass,
that a module names in its ``__all__``. Counting them with ``inspect``
keeps a count that a change to the library's options must move in plain
view.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np

import mkfilter
from mkfilter.clustering import NODE_DTYPE


def settable_values() -> dict[str, int]:
    """By ``module.name``: the parameters of each function and the fields of
    each dataclass named in a module's ``__all__``."""
    counts = {}
    for info in pkgutil.iter_modules(mkfilter.__path__):
        module = importlib.import_module(f"mkfilter.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if dataclasses.is_dataclass(obj):
                count = len(dataclasses.fields(obj))
            elif inspect.isfunction(obj):
                count = len(inspect.signature(obj).parameters)
            else:
                continue
            counts[f"{info.name}.{name}"] = count
    return counts


def test_settable_values_are_pinned():
    counts = settable_values()
    assert sum(counts.values()) == 160
    # the one-cluster calls read the tree's constants
    assert {name: counts[f"clustering.{name}"] for name in (
        "Histogram", "ClusterConfig", "build_histogram", "initial_gauss_pair",
        "em_similarity_cluster", "proximity_cluster")} == {
        "Histogram": 3, "ClusterConfig": 3, "build_histogram": 1,
        "initial_gauss_pair": 1, "em_similarity_cluster": 3,
        "proximity_cluster": 2}


def test_package_exports_are_pinned():
    assert len(mkfilter.__all__) == 43
    assert len(set(mkfilter.__all__)) == len(mkfilter.__all__)
    for name in mkfilter.__all__:
        assert hasattr(mkfilter, name), name


def test_node_table_columns_are_pinned():
    assert NODE_DTYPE.names == ("level", "parent", "size", "mu", "delta",
                                "em_iterations")
    assert {NODE_DTYPE[name] for name in NODE_DTYPE.names} == {
        np.dtype(np.int64), np.dtype(np.float64)}
