"""The level-batched context tree against the per-cluster oracle.

The corpus is the benchmark's tree inputs: both ``mkf-deep`` inputs (40 px,
depth 7) in all eight orientations, the ``mkf-wide`` input (256 px, depth
2), and 24 px sweep trees at three noise levels, two cluster sizes and both
connectivities. Level maps, the node table's ``level``, ``parent``, ``size``
and ``eligible`` columns and the iteration count of every EM fit must be
identical; node means and deviations are summed in another order
(``np.bincount`` instead of per-node pairwise sums), so they must agree
within 1e-12 relative.

On every oracle tree the kernel field must match a per-leaf walk up the
node table, the form the whole-array field replaced: delta exactly, psi
within one ulp (the walk squares with ``** 2``, which calls libm ``pow``;
the field multiplies, which is correctly rounded).

On the same trees, a depth-7 tree truncated to depth d must be exactly the
tree a fresh depth-d build gives, with the same kernel field and filtered
output: the depth sweep filters with truncated trees.
"""

import dataclasses
import math

import numpy as np
import pytest

from tree_oracle import reference_tree

from mkfilter import (ClusterConfig, ConfigError, Raster, build_cluster_tree,
                      build_kernel_field, load_pgm, mkf_denoise, mkf_filter,
                      save_pgm)
from mkfilter import clustering
from mkfilter.bench import derive_seed
from mkfilter.clustering import EM_MAX_ITERATIONS
from mkfilter.noise import NoiseSpec, apply_noise
from mkfilter.phantoms import bsd_style, piecewise_mosaic

PHANTOM_SEED = 3
LEVEL = 1000.0
DEEP = {"bsd_style": (bsd_style, 11), "piecewise_mosaic": (piecewise_mosaic, 12)}


def deep_input(name):
    make, noise_seed = DEEP[name]
    return apply_noise(make(40, 40, seed=PHANTOM_SEED),
                       NoiseSpec("integral", LEVEL, noise_seed)).data


def dihedral(values, k):
    out = np.rot90(values, k % 4)
    return np.ascontiguousarray(out.T if k % 8 >= 4 else out)


def reference_kernel_records(tree):
    """(delta, psi) by leaf id, one leaf at a time: a leaf is a node no
    other node names as parent; it climbs to its nearest eligible ancestor
    (the root at last), and psi comes from (parent, grandparent), or from
    (own, parent) at level 1 or 2, or is 1 at the root."""
    rows = tree.nodes.tolist()  # (level, parent, size, mu, delta, eligible)
    floor = tree.sigma_floor
    parents = {row[1] for row in rows}
    records = {}
    for leaf in (i for i in range(len(rows)) if i not in parents):
        node = leaf
        while not rows[node][5] and rows[node][1] >= 0:
            node = rows[node][1]
        level, parent = rows[node][:2]
        own = max(rows[node][4], floor)
        if parent < 0:
            pair = (own, own)
        elif level <= 2:
            pair = (own, max(rows[parent][4], floor))
        else:
            pair = (max(rows[parent][4], floor),
                    max(rows[rows[parent][1]][4], floor))
        records[leaf] = (own, (pair[0] / pair[1]) ** 2)
    return records


def assert_kernel_field_matches_walk(tree):
    want = reference_kernel_records(tree)
    got = build_kernel_field(tree)
    assert got.ids.tolist() == sorted(want)
    for leaf, delta, psi in zip(got.ids.tolist(), got.delta.tolist(),
                                got.psi.tolist()):
        assert delta == want[leaf][0]
        assert abs(psi - want[leaf][1]) <= math.ulp(want[leaf][1])


def assert_same_tree(tree, ref, ref_fits):
    assert len(tree.levels) == len(ref.levels)
    for got, want in zip(tree.levels, ref.levels):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert tree.nodes.dtype == ref.nodes.dtype
    assert len(tree.nodes) == len(ref.nodes)
    for name in ("level", "parent", "size", "eligible"):
        assert np.array_equal(tree.nodes[name], ref.nodes[name])
    for name in ("mu", "delta"):
        got, want = tree.nodes[name], ref.nodes[name]
        # math.isclose(rel_tol=1e-12, abs_tol=0), node by node
        assert np.all(np.abs(got - want)
                      <= 1e-12 * np.maximum(np.abs(got), np.abs(want)))
    assert list(tree.em_iterations) == ref_fits
    assert_kernel_field_matches_walk(tree)


@pytest.mark.parametrize("orientation", range(8))
@pytest.mark.parametrize("name", sorted(DEEP))
def test_deep_trees_match_oracle(name, orientation):
    values = dihedral(deep_input(name), orientation)
    cfg = ClusterConfig(max_depth=7)
    assert_same_tree(build_cluster_tree(Raster(values), cfg),
                     *reference_tree(values, cfg))


def test_wide_tree_matches_oracle():
    values = apply_noise(bsd_style(256, 256, seed=PHANTOM_SEED),
                         NoiseSpec("integral", LEVEL, 11)).data
    cfg = ClusterConfig(max_depth=2)
    assert_same_tree(build_cluster_tree(Raster(values), cfg),
                     *reference_tree(values, cfg))


def sweep_input(tmp_path, level):
    path = tmp_path / "bsd.pgm"
    save_pgm(bsd_style(24, 24, seed=PHANTOM_SEED), path)  # 8-bit, as the CLI reads it
    return apply_noise(load_pgm(path), NoiseSpec(
        "integral", level, derive_seed(0, "bsd", int(level))))


SWEEP_CELLS = pytest.mark.parametrize(
    "level, max_cluster, neighborhood",
    [(level, max_cluster, neighborhood) for level in (10.0, 300.0, 1000.0)
     for max_cluster in (20, 100) for neighborhood in (4, 8)])


@SWEEP_CELLS
def test_sweep_trees_match_oracle(tmp_path, level, max_cluster, neighborhood):
    noisy = sweep_input(tmp_path, level)
    cfg = ClusterConfig(max_depth=7, max_cluster=max_cluster,
                        neighborhood=neighborhood)
    assert_same_tree(build_cluster_tree(noisy, cfg),
                     *reference_tree(noisy.data, cfg))


def assert_truncations_match_fresh_builds(image, cfg):
    deep = build_cluster_tree(image, cfg)
    assert deep.truncated(cfg.max_depth) is deep
    for depth in range(2, cfg.max_depth):
        tree = deep.truncated(depth)
        fresh = mkf_denoise(image, dataclasses.replace(cfg, max_depth=depth))
        want = fresh.tree
        assert (tree.depth, tree.sigma_floor) == (want.depth, want.sigma_floor)
        assert len(tree.levels) == len(want.levels) == depth + 1
        for got, expected in zip(tree.levels, want.levels):
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
        assert np.array_equal(tree.nodes, want.nodes)  # floats exactly
        assert tree.em_iterations == want.em_iterations
        assert tree.level_fits == want.level_fits
        got = mkf_filter(image, tree)
        for column in ("ids", "delta", "psi"):
            assert np.array_equal(getattr(got.field, column),
                                  getattr(fresh.field, column))
        assert np.array_equal(got.field.leaf_map, fresh.field.leaf_map)
        assert np.array_equal(got.raster.data, fresh.raster.data)
    # truncating leaves the deep tree intact
    assert np.array_equal(deep.nodes, build_cluster_tree(image, cfg).nodes)


@pytest.mark.parametrize("name", sorted(DEEP))
def test_deep_tree_truncations_match_fresh_builds(name):
    assert_truncations_match_fresh_builds(Raster(deep_input(name)),
                                          ClusterConfig(max_depth=7))


@SWEEP_CELLS
def test_sweep_tree_truncations_match_fresh_builds(tmp_path, level,
                                                   max_cluster, neighborhood):
    assert_truncations_match_fresh_builds(
        sweep_input(tmp_path, level),
        ClusterConfig(max_depth=7, max_cluster=max_cluster,
                      neighborhood=neighborhood))


@pytest.mark.parametrize("depth", (0, 1, 4))
def test_truncation_depth_out_of_range(depth):
    tree = build_cluster_tree(Raster(deep_input("bsd_style")),
                              ClusterConfig(max_depth=3))
    with pytest.raises(ConfigError, match="truncation depth"):
        tree.truncated(depth)


@pytest.mark.parametrize("name, fits, iterations, cap_hits", [
    ("bsd_style", 45, 9512, 12),
    ("piecewise_mosaic", 53, 15278, 21),
])
def test_em_work_on_deep_inputs_is_pinned(name, fits, iterations, cap_hits):
    """EM work of the mkf-deep trees, as the per-cluster construction
    recorded it: 98 fits, 24,790 iterations and 33 cap hits in all."""
    tree = build_cluster_tree(Raster(deep_input(name)), ClusterConfig(max_depth=7))
    counts = np.asarray(tree.em_iterations)
    assert counts.size == fits
    assert counts.sum() == iterations
    assert np.count_nonzero(counts >= EM_MAX_ITERATIONS) == cap_hits


@pytest.mark.parametrize("name, fits, iterations", [
    ("bsd_style", 28, 6480),
    ("piecewise_mosaic", 38, 9766),
])
def test_em_work_run_on_deep_inputs_is_pinned(monkeypatch, name, fits,
                                              iterations):
    """EM work the mkf-deep trees actually run: a splittable cluster that
    a fit left whole keeps that fit at every deeper level, so 17 of 45 and
    15 of 53 recorded fits are not run again."""
    run = []
    segmented_em = clustering._segmented_em

    def spy(*args, **kwargs):
        result = segmented_em(*args, **kwargs)
        run.extend(trace.size for trace in result.log_likelihood)
        return result

    monkeypatch.setattr(clustering, "_segmented_em", spy)
    build_cluster_tree(Raster(deep_input(name)), ClusterConfig(max_depth=7))
    assert len(run) == fits
    assert sum(run) == iterations
