"""The public surface, counted: a new knob or export changes a pin here.

A settable value is a parameter of a function, a field of a dataclass or
NamedTuple, or a constructor parameter of another class, that a module
names in its ``__all__`` (the package's own ``__all__`` included). Counting
them with ``inspect`` keeps a count that a change to the library's options
must move in plain view.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np

import mkfilter
from mkfilter.clustering import NODE_DTYPE
from mkfilter.filters import weighted_mean_filter


def settable_values() -> dict[str, int]:
    """By defining ``module.name``: the parameters of each function, the
    fields of each dataclass or NamedTuple and the constructor parameters
    of each other class (exceptions aside) named in an ``__all__``."""
    counts = {}
    modules = [mkfilter] + [importlib.import_module(f"mkfilter.{info.name}")
                            for info in pkgutil.iter_modules(mkfilter.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if dataclasses.is_dataclass(obj):
                count = len(dataclasses.fields(obj))
            elif isinstance(obj, type) and issubclass(obj, tuple):
                count = len(obj._fields)
            elif inspect.isfunction(obj) or (
                    isinstance(obj, type)
                    and not issubclass(obj, BaseException)):
                count = len(inspect.signature(obj).parameters)
            else:
                continue
            counts[f"{obj.__module__.removeprefix('mkfilter.')}.{name}"] = count
    return counts


def test_settable_values_are_pinned():
    counts = settable_values()
    assert sum(counts.values()) == 164
    # the one-cluster calls read the tree's constants
    assert {name: counts[f"clustering.{name}"] for name in (
        "Histogram", "ClusterConfig", "build_histogram", "initial_gauss_pair",
        "em_similarity_cluster", "proximity_cluster")} == {
        "Histogram": 3, "ClusterConfig": 3, "build_histogram": 1,
        "initial_gauss_pair": 1, "em_similarity_cluster": 2,
        "proximity_cluster": 2}


def test_package_exports_are_pinned():
    assert len(mkfilter.__all__) == 42
    assert len(set(mkfilter.__all__)) == len(mkfilter.__all__)
    for name in mkfilter.__all__:
        assert hasattr(mkfilter, name), name


def test_engine_call_form_is_pinned():
    # perfbench/tracer.py's _window_counts reads the radius from the third
    # positional argument or the `radius` keyword to count the window taps
    assert tuple(inspect.signature(weighted_mean_filter).parameters) == (
        "image", "field", "radius", "h_x")


def test_node_table_columns_are_pinned():
    assert NODE_DTYPE.names == ("level", "parent", "size", "mu", "delta",
                                "em_iterations")
    assert {NODE_DTYPE[name] for name in NODE_DTYPE.names} == {
        np.dtype(np.int64), np.dtype(np.float64)}
