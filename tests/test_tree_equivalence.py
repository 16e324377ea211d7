"""The level-batched context tree against the per-cluster oracle.

The corpus is the benchmark's tree inputs: both ``mkf-deep`` inputs (40 px,
depth 7) in all eight orientations, the ``mkf-wide`` input (256 px, depth
2), and 24 px sweep trees at three noise levels and two cluster sizes. A
hypothesis property adds small piecewise-constant integer rasters under
small random configurations. Level maps, the config and the node
table's ``level``, ``parent`` and ``size`` columns must be identical;
node means and deviations are summed in another order (``np.bincount``
instead of per-node pairwise sums), so they must agree
within 1e-12 relative. The oracle fits every splittable cluster at every
level; the tree fits a cluster that a fit left whole only once, so its
``em_iterations`` must equal the oracle's where it fitted, and where it
carried a fit the oracle's refit must count what that fit counted.

Every EM call that builds the benchmark's trees must also give the
frozen EM loop's results (``em_oracle``), byte for byte.

On every oracle tree the kernel field must match a per-leaf walk up the
node table, the form the whole-array field replaced: delta exactly, psi
within one ulp (the walk squares with ``** 2``, which calls libm ``pow``;
the field multiplies, which is correctly rounded).

On the same inputs, a depth-7 tree built at ``min_cluster`` 1, cut to any
shallower depth, larger ``max_cluster`` and other ``min_cluster``, must be
exactly the tree a fresh build there gives, with the same kernel field and
filtered output: every bench cell filters with cuts of one tree. A second
property checks the same on the small rasters.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from em_oracle import segmented_em as frozen_em
from tree_oracle import reference_tree

from mkfilter import (ClusterConfig, ConfigError, Raster, build_cluster_tree,
                      build_kernel_field, load_pgm, mkf_denoise, mkf_filter,
                      save_pgm)
from mkfilter import clustering
from mkfilter.bench import derive_seed
from mkfilter.clustering import (BIN_WIDTH, EM_MAX_ITERATIONS,
                                 write_tree_dump)
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
    (of more than ``min_cluster`` pixels; the root at last), and psi comes
    from (parent, grandparent), or from (own, parent) at level 1 or 2, or
    is 1 at the root."""
    rows = tree.nodes.tolist()  # (level, parent, size, mu, delta, em_iter.)
    floor, least = BIN_WIDTH, tree.config.min_cluster
    parents = {row[1] for row in rows}
    records = {}
    for leaf in (i for i in range(len(rows)) if i not in parents):
        node = leaf
        while rows[node][2] <= least and rows[node][1] >= 0:
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


def fit_sources(tree):
    """By node id, the node whose EM fit the node's pixels got: itself
    where it was fitted; where it was not, its parent's source if it is
    its parent's only child and not on the last level (same pixels, so
    still splittable); -1 where no fit applies."""
    count, parent = tree.nodes["em_iterations"], tree.nodes["parent"]
    children = np.bincount(parent[parent >= 0], minlength=parent.size)
    inner = tree.nodes["level"] < tree.depth
    source = np.full(parent.size, -1)
    for node, up in enumerate(parent.tolist()):
        if count[node] >= 0:
            source[node] = node
        elif inner[node] and up >= 0 and children[up] == 1:
            source[node] = source[up]
    return source


def recorded_fits(tree):
    """The iteration count of the fit of every splittable cluster, fitted
    or carried, by node id: the work a per-cluster construction runs."""
    source = fit_sources(tree)
    return tree.nodes["em_iterations"][source[source >= 0]]


def assert_same_tree(tree, ref):
    assert tree.config == ref.config
    assert tree.depth == ref.depth
    assert len(tree.levels) == len(ref.levels)
    for got, want in zip(tree.levels, ref.levels):
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
    assert tree.nodes.dtype == ref.nodes.dtype
    assert len(tree.nodes) == len(ref.nodes)
    for name in ("level", "parent", "size"):
        assert np.array_equal(tree.nodes[name], ref.nodes[name])
    for name in ("mu", "delta"):
        got, want = tree.nodes[name], ref.nodes[name]
        # math.isclose(rel_tol=1e-12, abs_tol=0), node by node
        assert np.all(np.abs(got - want)
                      <= 1e-12 * np.maximum(np.abs(got), np.abs(want)))
    # fitted or carrying a fit exactly where the oracle fits, with its counts
    want = ref.nodes["em_iterations"]
    assert np.array_equal(fit_sources(tree) >= 0, want >= 0)
    assert np.array_equal(recorded_fits(tree), want[want >= 0])
    assert_kernel_field_matches_walk(tree)


@pytest.mark.parametrize("orientation", range(8))
@pytest.mark.parametrize("name", sorted(DEEP))
def test_deep_trees_match_oracle(name, orientation):
    values = dihedral(deep_input(name), orientation)
    cfg = ClusterConfig(max_depth=7)
    assert_same_tree(build_cluster_tree(Raster(values), cfg),
                     reference_tree(values, cfg))


def wide_input():
    return apply_noise(bsd_style(256, 256, seed=PHANTOM_SEED),
                       NoiseSpec("integral", LEVEL, 11)).data


def test_wide_tree_matches_oracle():
    values = wide_input()
    cfg = ClusterConfig(max_depth=2)
    assert_same_tree(build_cluster_tree(Raster(values), cfg),
                     reference_tree(values, cfg))


def sweep_input(tmp_path, level):
    path = tmp_path / "bsd.pgm"
    save_pgm(bsd_style(24, 24, seed=PHANTOM_SEED), path)  # 8-bit, as the CLI reads it
    return apply_noise(load_pgm(path), NoiseSpec(
        "integral", level, derive_seed(0, "bsd", int(level))))


SWEEP_CELLS = pytest.mark.parametrize(
    "level, max_cluster",
    [(level, max_cluster) for level in (10.0, 300.0, 1000.0)
     for max_cluster in (20, 100)])


@SWEEP_CELLS
def test_sweep_trees_match_oracle(tmp_path, level, max_cluster):
    noisy = sweep_input(tmp_path, level)
    cfg = ClusterConfig(max_depth=7, max_cluster=max_cluster)
    assert_same_tree(build_cluster_tree(noisy, cfg),
                     reference_tree(noisy.data, cfg))


def assert_same_cut(tree, want):
    """Byte for byte: the config, the level maps with their dtype, and the
    node table with its floats and ``em_iterations``."""
    assert tree.config == want.config
    assert tree.depth == want.depth
    assert len(tree.levels) == len(want.levels)
    for got, expected in zip(tree.levels, want.levels):
        assert got.dtype == expected.dtype == np.int64
        assert np.array_equal(got, expected)
    assert tree.leaf_map.dtype == want.leaf_map.dtype
    assert np.array_equal(tree.leaf_map, want.leaf_map)
    assert tree.nodes.dtype == want.nodes.dtype
    assert np.array_equal(tree.nodes, want.nodes)  # floats exactly


def assert_cuts_match_fresh_builds(image, max_cluster):
    """A depth-7 tree at ``max_cluster`` and ``min_cluster`` 1, cut at
    every depth to that size and two larger ones, at the default
    ``min_cluster``: the same tree, kernel field and output as a fresh
    build."""
    source = ClusterConfig(max_depth=7, max_cluster=max_cluster, min_cluster=1)
    deep = build_cluster_tree(image, source)
    nodes = deep.nodes.copy()
    cut = deep.cut(source)
    # a cut filters the node table: it derives no level map of the source
    assert "levels" not in deep.__dict__
    assert_same_cut(cut, deep)
    for depth in range(2, 8):
        for size in (max_cluster, max_cluster + 20, 5 * max_cluster):
            cfg = ClusterConfig(max_depth=depth, max_cluster=size)
            tree = deep.cut(cfg)
            fresh = mkf_denoise(image, cfg)
            assert_same_cut(tree, fresh.tree)
            got = mkf_filter(image, tree)
            for column in ("ids", "delta", "psi"):
                assert np.array_equal(getattr(got.field, column),
                                      getattr(fresh.field, column))
            assert np.array_equal(got.field.leaf_map, fresh.field.leaf_map)
            assert np.array_equal(got.raster.data, fresh.raster.data)
    # cutting leaves the deep tree intact
    assert np.array_equal(deep.nodes, nodes)


@pytest.mark.parametrize("name", sorted(DEEP))
def test_deep_tree_cuts_match_fresh_builds(name):
    assert_cuts_match_fresh_builds(Raster(deep_input(name)), 20)


@SWEEP_CELLS
def test_sweep_tree_cuts_match_fresh_builds(tmp_path, level, max_cluster):
    assert_cuts_match_fresh_builds(sweep_input(tmp_path, level), max_cluster)


@st.composite
def piecewise_rasters(draw):
    """Integer rasters up to 24 px a side: a grid of up to 5 x 5 constant
    blocks, plus a few single-pixel spots, so that flat clusters, tied
    values and one-pixel-wide regions are common."""
    height, width = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    by, bx = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    blocks = np.array(draw(st.lists(st.integers(0, 40), min_size=by * bx,
                                    max_size=by * bx)), dtype=np.float64)
    rows = np.arange(height) * by // height
    cols = np.arange(width) * bx // width
    values = blocks.reshape(by, bx)[rows[:, None], cols[None, :]]
    for y, x, v in draw(st.lists(st.tuples(st.integers(0, height - 1),
                                           st.integers(0, width - 1),
                                           st.integers(0, 40)), max_size=6)):
        values[y, x] = v
    return values


SMALL_CONFIGS = st.builds(
    lambda depth, min_cluster, extra: ClusterConfig(
        max_depth=depth, min_cluster=min_cluster,
        max_cluster=min_cluster + extra),
    st.integers(2, 6), st.integers(1, 4), st.integers(1, 8))


@settings(max_examples=40, deadline=None)
@given(values=piecewise_rasters(), cfg=SMALL_CONFIGS)
def test_small_trees_match_oracle(values, cfg):
    """Carried fits next to split clusters and one-pixel-wide clusters at
    the border, on inputs no fixed case covers."""
    assert_same_tree(build_cluster_tree(Raster(values), cfg),
                     reference_tree(values, cfg))


@st.composite
def cut_configs(draw):
    """A source config at ``min_cluster`` 1 and a config it can be cut to:
    no deeper, no smaller ``max_cluster``, any valid ``min_cluster``."""
    depth, size = draw(st.integers(2, 6)), draw(st.integers(2, 12))
    cut_size = draw(st.integers(size, size + 40))
    return (ClusterConfig(max_depth=depth, max_cluster=size, min_cluster=1),
            ClusterConfig(max_depth=draw(st.integers(2, depth)),
                          max_cluster=cut_size,
                          min_cluster=draw(st.integers(1, cut_size - 1))))


@settings(max_examples=60, deadline=None)
@given(values=piecewise_rasters(), configs=cut_configs())
def test_small_tree_cuts_match_fresh_builds(values, configs):
    """A cut is the fresh build byte for byte, so ``min_cluster`` sets only
    the config and a larger ``max_cluster`` only holds clusters whole."""
    source, cfg = configs
    assert_same_cut(build_cluster_tree(Raster(values), source).cut(cfg),
                    build_cluster_tree(Raster(values), cfg))


@pytest.mark.parametrize("min_cluster", [1, 4, 9])
def test_cut_tree_dumps_match_fresh_builds(tmp_path, min_cluster):
    """The tree dump reads eligibility from the config: the dump of a cut
    at any ``min_cluster`` is the dump of a fresh build there, byte for
    byte, and its last column is 1 exactly where ``size`` exceeds
    ``min_cluster``."""
    image = Raster(deep_input("bsd_style"))
    deep = build_cluster_tree(image, ClusterConfig(max_depth=7, max_cluster=10,
                                                   min_cluster=1))
    cut_path, fresh_path = tmp_path / "cut.txt", tmp_path / "fresh.txt"
    for depth in (2, 4, 7):
        for size in (10, 20, 60):
            cfg = ClusterConfig(max_depth=depth, max_cluster=size,
                                min_cluster=min_cluster)
            write_tree_dump(deep.cut(cfg), cut_path)
            write_tree_dump(build_cluster_tree(image, cfg), fresh_path)
            assert cut_path.read_bytes() == fresh_path.read_bytes()
            rows = [line.split() for line in
                    cut_path.read_text(encoding="ascii").splitlines()]
            assert [row[6] for row in rows] == [
                str(int(int(row[3]) > min_cluster)) for row in rows]
            assert {row[6] for row in rows} == {"0", "1"}


@pytest.mark.parametrize("cfg", [
    ClusterConfig(max_depth=4),
    ClusterConfig(max_depth=3, max_cluster=19),
    ClusterConfig(max_depth=2, max_cluster=10, min_cluster=1),
], ids=["deeper", "finer", "shallower-but-finer"])
def test_cut_rejects_a_deeper_or_finer_config(cfg):
    tree = build_cluster_tree(Raster(deep_input("bsd_style")),
                              ClusterConfig(max_depth=3))
    with pytest.raises(ConfigError, match="has no cut"):
        tree.cut(cfg)


@pytest.mark.parametrize("name, fits, iterations, cap_hits", [
    ("bsd_style", 45, 9512, 12),
    ("piecewise_mosaic", 53, 15278, 21),
])
def test_em_work_on_deep_inputs_is_pinned(name, fits, iterations, cap_hits):
    """EM work of the mkf-deep trees, as the per-cluster construction
    runs it: 98 fits, 24,790 iterations and 33 cap hits in all."""
    tree = build_cluster_tree(Raster(deep_input(name)), ClusterConfig(max_depth=7))
    counts = recorded_fits(tree)
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
        run.extend(result.iterations.tolist())
        return result

    monkeypatch.setattr(clustering, "_segmented_em", spy)
    tree = build_cluster_tree(Raster(deep_input(name)),
                              ClusterConfig(max_depth=7))
    counts = tree.nodes["em_iterations"]
    counts = counts[counts >= 0]
    assert (counts.size, counts.sum()) == (fits, iterations)
    assert counts.tolist() == run


def test_em_calls_match_the_frozen_loop(monkeypatch):
    """Every EM call that builds the benchmark's trees (both mkf-deep
    inputs at depth 7, the mkf-wide input at depth 2) gives the frozen
    loop's theta, labels, iterations and degenerate flags, byte for byte.
    These layouts reach what the hypothesis layouts do not: up to 30
    segments and 1,314 bins, the 500-iteration cap, and lone tails, where
    one segment runs on alone after a phase with several."""
    calls = []
    segmented_em = clustering._segmented_em

    def spy(*args, **kwargs):
        result = segmented_em(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(clustering, "_segmented_em", spy)
    for values, depth in [(deep_input("bsd_style"), 7),
                          (deep_input("piecewise_mosaic"), 7),
                          (wide_input(), 2)]:
        build_cluster_tree(Raster(values), ClusterConfig(max_depth=depth))
    monkeypatch.undo()
    lone_tails = 0
    for args, kwargs, got in calls:
        want = frozen_em(*args, **kwargs)
        for name in ("theta", "labels", "iterations", "degenerate"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        ran = got.iterations[~got.degenerate]
        lone_tails += ran.size > 1 and np.count_nonzero(ran == ran.max()) == 1
    assert len(calls) == 15
    assert max(args[0].starts.size for args, _, _ in calls) == 30
    assert max(args[0].centers.size for args, _, _ in calls) == 1314
    assert max(got.iterations.max() for _, _, got in calls) == EM_MAX_ITERATIONS
    assert lone_tails == 6


def test_levels_after_the_last_fit_are_copied(monkeypatch):
    """Once a level has no cluster to fit, no later level splits: the tree
    copies that level down instead of running connectivity and statistics
    again. This phantom fits its last clusters at level 3."""
    image = bsd_style(16, 16, seed=0)
    calls = []
    connected_regions = clustering._connected_regions

    def spy(*args):
        calls.append(args)
        return connected_regions(*args)

    monkeypatch.setattr(clustering, "_connected_regions", spy)
    tree = build_cluster_tree(image, ClusterConfig(max_depth=2000))
    assert len(calls) == 4
    assert tree.depth == 2000
    monkeypatch.undo()
    cfg = ClusterConfig(max_depth=200)
    assert_same_tree(build_cluster_tree(image, cfg),
                     reference_tree(image.data, cfg))
    assert_same_cut(tree.cut(cfg), build_cluster_tree(image, cfg))


@pytest.mark.parametrize("image, source, cfg", [
    (bsd_style(16, 16, seed=0), (2000, 10), (2000, 40, 9)),
    # the last split leaves a fit on a cluster of more than 9 pixels that
    # it left whole; the first level with no split has no fit to copy
    (apply_noise(bsd_style(16, 16, seed=3), NoiseSpec("integral", 10.0, 3)),
     (12, 4), (12, 9, 8)),
    # this phantom's last fit builds level 4: the build copies no level
    (bsd_style(16, 16, seed=0), (4, 10), (3, 40, 9)),
], ids=["deep", "whole-fit", "fit-to-last-level"])
def test_cut_copies_the_levels_after_the_last_split(image, source, cfg):
    """A cut by size holds clusters that this tree splits, and copies the
    levels below the first with no split, as a build does. It filters the
    node table and derives no level map of this tree. In the tree and in
    its cut the leaves are the node table's last rows, and the kernel
    field reads the same ids from the leaf map."""
    tree = build_cluster_tree(image, ClusterConfig(*source, min_cluster=1))
    cfg = ClusterConfig(*cfg)
    cut = tree.cut(cfg)
    assert "levels" not in tree.__dict__
    assert_same_cut(cut, build_cluster_tree(image, cfg))
    for t in (tree, cut):
        last_rows = range(len(t.nodes) - len(t.leaves()), len(t.nodes))
        assert (build_kernel_field(t).ids.tolist() == t.leaves().tolist()
                == list(last_rows))
