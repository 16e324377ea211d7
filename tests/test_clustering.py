"""Histogram/EM/proximity operations and cluster-tree invariants."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import ndimage

from tree_oracle import reference_em, reference_flood

import mkfilter
from mkfilter import (ClusterConfig, ClusterNode, ClusterTree, ConfigError,
                      GaussComponent, GaussPair, Raster, build_cluster_tree,
                      build_histogram, context_of, em_similarity_cluster,
                      initial_gauss_pair, proximity_cluster)
from mkfilter.clustering import EM_MAX_ITERATIONS, _segmented_em

# ---------------------------------------------------------------------------
# oracles


def em_over_raw_values(values, mu, sigma, weight, tol, sigma_floor,
                       max_iter=500):
    """Plain-loop EM over the raw samples (no histogram), used as the
    independent reference for the binned implementation."""
    values = list(values)
    mu, sigma, weight = list(mu), list(sigma), list(weight)
    for _ in range(max_iter):
        resp = []
        for v in values:
            dens = [
                w / (s * math.sqrt(2 * math.pi))
                * math.exp(-0.5 * ((v - m) / s) ** 2)
                for m, s, w in zip(mu, sigma, weight)
            ]
            total = dens[0] + dens[1]
            resp.append((dens[0] / total, dens[1] / total))
        new_mu, new_sigma, new_weight = [], [], []
        for c in (0, 1):
            mass = sum(r[c] for r in resp)
            new_weight.append(mass / len(values))
            m = sum(r[c] * v for r, v in zip(resp, values)) / mass
            var = sum(r[c] * (v - m) ** 2 for r, v in zip(resp, values)) / mass
            new_mu.append(m)
            new_sigma.append(max(math.sqrt(var), sigma_floor))
        shift = max(
            max(abs(a - b) for a, b in zip(new_mu, mu)),
            max(abs(a - b) for a, b in zip(new_sigma, sigma)),
            max(abs(a - b) for a, b in zip(new_weight, weight)),
        )
        mu, sigma, weight = new_mu, new_sigma, new_weight
        if shift < tol:
            break
    return mu, sigma, weight


def flood_fill_components(labels, neighborhood):
    """Connected components of each input label via scipy flood fill."""
    structure = (np.ones((3, 3), dtype=bool) if neighborhood == 8
                 else np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool))
    out = np.full(labels.shape, -1, dtype=np.int64)
    next_id = 0
    for value in np.unique(labels):
        comp, count = ndimage.label(labels == value, structure=structure)
        for c in range(1, count + 1):
            out[comp == c] = next_id
            next_id += 1
    return out


def row_major_components(labels, neighborhood):
    """The flood-fill oracle's components, renumbered in row-major order of
    each component's first pixel."""
    comp = flood_fill_components(labels, neighborhood).ravel()
    _, first = np.unique(comp, return_index=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[comp].reshape(np.shape(labels))


def partitions_equal(a, b):
    """Two label maps induce the same partition of the pixels."""
    a, b = np.asarray(a).ravel(), np.asarray(b).ravel()
    pair_ab = {}
    pair_ba = {}
    for x, y in zip(a.tolist(), b.tolist()):
        if pair_ab.setdefault(x, y) != y or pair_ba.setdefault(y, x) != x:
            return False
    return True


# ---------------------------------------------------------------------------
# histogram


def test_histogram_single_value():
    h = build_histogram([5, 5, 5], 1.0)
    assert h.centers.tolist() == [5.5]
    assert h.counts.tolist() == [3.0]


def test_histogram_bin_width_two():
    h = build_histogram([0, 1, 2, 3], 2.0)
    assert h.centers.tolist() == [1.0, 3.0]
    assert h.counts.tolist() == [2.0, 2.0]


def test_histogram_spans_signed_range():
    h = build_histogram([-3000.0, 3000.0], 1.0)
    assert h.centers.size == 2
    assert h.centers[1] - h.centers[0] == 6000.0


def test_histogram_weights_sum_to_pixel_count():
    rng = np.random.default_rng(7)
    for _ in range(20):
        pixels = rng.normal(0, 50, rng.integers(1, 400))
        h = build_histogram(pixels, 1.0)
        assert h.counts.sum() == pixels.size


# ---------------------------------------------------------------------------
# EM similarity clustering


def test_initial_pair_rule():
    pair = initial_gauss_pair(255.0, 1.0)
    assert (pair.theta1.mu, pair.theta2.mu) == (85.0, 170.0)
    assert (pair.theta1.sigma, pair.theta2.sigma) == (255.0, 255.0)
    assert (pair.theta1.weight, pair.theta2.weight) == (0.5, 0.5)


def test_em_two_modes_match_raw_value_oracle():
    values = [0.0] * 100 + [255.0] * 100
    hist = build_histogram(values, 1.0)
    init = initial_gauss_pair(255.0, 1.0)
    result = em_similarity_cluster(hist, init, 1e-4)
    mu_ref, _, _ = em_over_raw_values(
        values, (85.0, 170.0), (255.0, 255.0), (0.5, 0.5), 1e-4, 1.0)
    # oracle converges onto the two modes (0, 255); the binned fit agrees
    # to within half a bin
    assert abs(mu_ref[0] - 0.0) < 1e-6 and abs(mu_ref[1] - 255.0) < 1e-6
    assert abs(result.pair.theta1.mu - mu_ref[0]) <= 0.5 + 1e-9
    assert abs(result.pair.theta2.mu - mu_ref[1]) <= 0.5 + 1e-9
    assert result.labels.tolist() == [0, 1]  # one label per mode
    assert not result.degenerate


def test_em_single_bin_degenerates():
    hist = build_histogram([7.0, 7.2, 7.4], 1.0)
    result = em_similarity_cluster(hist, initial_gauss_pair(7.4, 1.0), 1e-4)
    assert result.degenerate
    assert result.labels.tolist() == [0]
    assert result.pair.theta2.weight == 0.0
    assert result.pair.theta1.weight == 1.0


def test_em_log_likelihood_non_decreasing():
    rng = np.random.default_rng(11)
    for _ in range(10):
        values = np.concatenate([
            rng.normal(rng.uniform(0, 100), rng.uniform(1, 20), 150),
            rng.normal(rng.uniform(120, 255), rng.uniform(1, 20), 150),
        ])
        hist = build_histogram(values, 1.0)
        init = initial_gauss_pair(float(values.max()), 1.0)
        result = em_similarity_cluster(hist, init, 1e-6)
        diffs = np.diff(result.log_likelihood)
        assert diffs.min() > -1e-9


def test_em_sigma_respects_floor():
    values = [0.0] * 50 + [200.0] * 50
    hist = build_histogram(values, 1.0)
    result = em_similarity_cluster(hist, initial_gauss_pair(200.0, 1.0), 1e-4)
    assert result.pair.theta1.sigma >= 1.0
    assert result.pair.theta2.sigma >= 1.0


def pair_array(pair):
    """(mu, sigma, weight) x component."""
    comps = (pair.theta1, pair.theta2)
    return np.array([[getattr(c, name) for c in comps]
                     for name in ("mu", "sigma", "weight")])


def test_segmented_em_matches_one_histogram_fits():
    """A K-segment batch gives each segment the fit it gets alone, and the
    per-cluster loop oracle agrees on labels, pair and iteration count."""
    rng = np.random.default_rng(31)
    samples = [
        np.concatenate([rng.normal(40, 8, 120), rng.normal(190, 15, 80)]),
        rng.uniform(0, 255, 300),
        np.full(12, 7.25),  # one bin
        rng.normal(100, 3, 60),
        np.concatenate([rng.normal(-900, 40, 90), rng.normal(1200, 90, 60)]),
        np.array([3.0, 3.5]),  # one bin
        np.concatenate([rng.normal(60, 2, 30), rng.normal(64, 2, 30)]),
    ]
    inits = [initial_gauss_pair(float(v.max()), 1.0) for v in samples]
    # a far, narrow second component gets no mass: that fit stops at once
    samples.append(rng.normal(50, 5, 40))
    inits.append(GaussPair(GaussComponent(50.0, 5.0, 0.5),
                           GaussComponent(1e6, 1.0, 0.5)))
    # equal components tie on every bin; ties go to the first component
    samples.append(rng.normal(80, 10, 50))
    inits.append(GaussPair(GaussComponent(80.0, 10.0, 0.5),
                           GaussComponent(80.0, 10.0, 0.5)))
    hists = [build_histogram(v, 1.0) for v in samples]
    starts = np.cumsum([0] + [h.centers.size for h in hists[:-1]])
    fits = _segmented_em(np.concatenate([h.centers for h in hists]),
                         np.concatenate([h.counts for h in hists]), starts,
                         np.stack([pair_array(p) for p in inits], axis=-1),
                         1e-4, 1.0, EM_MAX_ITERATIONS)
    ends = list(starts[1:]) + [None]
    for k, (hist, init) in enumerate(zip(hists, inits)):
        trace = fits.log_likelihood[k]
        for single in (em_similarity_cluster(hist, init, 1e-4),
                       reference_em(hist, init, 1e-4, 1.0)):
            assert np.array_equal(fits.labels[starts[k]:ends[k]], single.labels)
            assert bool(fits.degenerate[k]) == single.degenerate
            assert trace.size == single.log_likelihood.size
            np.testing.assert_allclose(fits.theta[:, :, k],
                                       pair_array(single.pair),
                                       rtol=1e-12, atol=0.0)
        if trace.size > 1:
            assert np.diff(trace).min() > -1e-9
    assert fits.degenerate.tolist() == [False, False, True, False, False,
                                        True, False, False, False]
    assert fits.theta[2, :, 2].tolist() == [1.0, 0.0]
    assert fits.log_likelihood[-2].size == 1
    assert fits.theta[:, 1, -2].tolist() == [1e6, 1.0, 0.5]
    assert not fits.labels[starts[-1]:].any()


# ---------------------------------------------------------------------------
# proximity clustering


def test_opposite_corners_split():
    labels = np.full((3, 3), 1)
    labels[0, 0] = labels[2, 2] = 0
    out = proximity_cluster(labels, 8)
    assert np.unique(out).size == 3
    assert partitions_equal(out, flood_fill_components(labels, 8))


def test_uniform_map_single_label():
    out = proximity_cluster(np.zeros((5, 7), dtype=int), 8)
    assert np.unique(out).size == 1


def test_checkerboard_four_connectivity():
    labels = np.indices((4, 4)).sum(axis=0) % 2
    out = proximity_cluster(labels, 4)
    assert np.unique(out).size == 16
    assert partitions_equal(out, flood_fill_components(labels, 4))


def test_checkerboard_eight_connectivity_keeps_two():
    labels = np.indices((4, 4)).sum(axis=0) % 2
    out = proximity_cluster(labels, 8)
    assert np.unique(out).size == 2


def test_proximity_matches_flood_fill_oracle_on_random_maps():
    rng = np.random.default_rng(3)
    for neighborhood in (4, 8):
        for _ in range(15):
            labels = rng.integers(0, 3, size=(10, 12))
            out = proximity_cluster(labels, neighborhood)
            ref = flood_fill_components(labels, neighborhood)
            assert partitions_equal(out, ref)
            assert np.unique(out).size >= np.unique(labels).size


def spiral(size):
    """Two interleaved one-pixel spirals, key 1 starting at the top-left
    corner and key 0 just below it: each is one region whose far end lies
    (size/2)^2 steps along its path from its first pixel."""
    grid = np.zeros((size, size), dtype=np.int64)
    y, x, dy, dx = 0, 0, 0, 1
    grid[y, x] = 1
    while True:
        for _ in range(2):  # step ahead, else turn clockwise and try once more
            ny, nx, ay, ax = y + dy, x + dx, y + 2 * dy, x + 2 * dx
            if (0 <= ny < size and 0 <= nx < size and not grid[ny, nx]
                    and not (0 <= ay < size and 0 <= ax < size and grid[ay, ax])):
                y, x = ny, nx
                grid[y, x] = 1
                break
            dy, dx = dx, -dy
        else:
            return grid


@pytest.mark.parametrize("neighborhood", (4, 8))
def test_proximity_labels_follow_row_major_first_pixel(neighborhood):
    rng = np.random.default_rng(37)
    maps = [
        np.array([[5]]),
        np.array([[0, 0, 1, 1, 0, 2, 2, 0]]),
        np.array([[0, 0, 1, 1, 0, 2, 2, 0]]).T,
        spiral(17),
        np.indices((5, 6)).sum(axis=0) % 2,
    ] + [rng.integers(0, 3, size=shape) for shape in
         [(1, 9), (9, 1), (6, 6), (10, 12), (13, 7)] * 4]
    for labels in maps:
        out = proximity_cluster(labels, neighborhood)
        assert out.dtype == np.int64 and out.shape == labels.shape
        assert np.array_equal(out, row_major_components(labels, neighborhood))
        assert np.array_equal(out, reference_flood(labels, neighborhood))


def test_proximity_exact_labels_on_small_maps():
    assert proximity_cluster(np.array([[5]]), 4).tolist() == [[0]]
    row = np.array([[0, 0, 1, 1, 0, 2, 2, 0]])
    assert proximity_cluster(row, 8).tolist() == [[0, 0, 1, 1, 2, 3, 3, 4]]
    assert proximity_cluster(row.T, 4).ravel().tolist() == [0, 0, 1, 1, 2, 3, 3, 4]
    board = np.indices((3, 4)).sum(axis=0) % 2
    assert np.array_equal(proximity_cluster(board, 4),
                          np.arange(12).reshape(3, 4))
    assert np.array_equal(proximity_cluster(board, 8), board)
    for neighborhood in (4, 8):
        assert np.array_equal(proximity_cluster(spiral(17), neighborhood),
                              1 - spiral(17))


def test_tree_build_leaves_scipy_sparse_unimported():
    code = ("import sys, numpy as np, mkfilter\n"
            "mkfilter.build_cluster_tree(mkfilter.Raster("
            "np.random.default_rng(0).uniform(0, 255, (32, 32))),"
            " mkfilter.ClusterConfig(max_depth=3))\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
    src = os.path.dirname(os.path.dirname(mkfilter.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_proximity_rejects_bad_neighborhood():
    with pytest.raises(ConfigError):
        proximity_cluster(np.zeros((2, 2), dtype=int), 6)


# ---------------------------------------------------------------------------
# tree construction


def two_region_image():
    img = np.zeros((8, 8))
    img[:, 4:] = 200.0
    return Raster(img)


def test_two_region_tree():
    cfg = ClusterConfig(max_depth=2, max_cluster=4, min_cluster=3)
    tree = build_cluster_tree(two_region_image(), cfg)
    level1 = [n for n in tree.nodes.values() if n.level == 1]
    assert len(level1) == 2
    assert sorted(n.mu for n in level1) == [0.0, 200.0]
    assert all(n.delta == 0.0 for n in level1)
    # the kernel consumer sees the floored deviation
    for n in level1:
        assert context_of(tree, tree.nodes[n.children[0]].id)[0] == 1.0


def test_constant_image_is_single_chain():
    cfg = ClusterConfig(max_depth=4, max_cluster=10, min_cluster=2)
    tree = build_cluster_tree(Raster(np.full((6, 6), 9.0)), cfg)
    for level in range(cfg.max_depth + 1):
        nodes = [n for n in tree.nodes.values() if n.level == level]
        assert len(nodes) == 1
        assert np.unique(tree.levels[level]).size == 1
    assert len(tree.nodes) == cfg.max_depth + 1


def test_invalid_config_rejected_before_work():
    with pytest.raises(ConfigError):
        build_cluster_tree(two_region_image(),
                           ClusterConfig(max_depth=1))
    with pytest.raises(ConfigError):
        build_cluster_tree(two_region_image(),
                           ClusterConfig(neighborhood=5))


def _check_tree_invariants(tree: ClusterTree, cfg: ClusterConfig, n_pixels):
    for level, label_map in enumerate(tree.levels):
        ids, counts = np.unique(label_map, return_counts=True)
        # partition: sizes recorded on the nodes match the map
        assert counts.sum() == n_pixels
        for node_id, count in zip(ids, counts):
            node = tree.nodes[node_id]
            assert node.level == level
            assert node.size == count
            assert node.delta >= 0.0
            assert node.eligible == (node.size > cfg.min_cluster)
        if level > 0:
            # refinement: every cluster nests in exactly one parent cluster
            prev = tree.levels[level - 1]
            for node_id in ids:
                parents = np.unique(prev[label_map == node_id])
                assert parents.size == 1
                assert tree.nodes[node_id].parent == parents[0]
    for node in tree.nodes.values():
        if node.children:
            assert node.size == sum(tree.nodes[c].size for c in node.children)
        if node.parent is not None:
            assert node.level == tree.nodes[node.parent].level + 1
    # connectivity: at every level, each cluster is one flood-fill component
    structure = np.ones((3, 3), dtype=bool) if cfg.neighborhood == 8 else \
        np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
    for label_map in tree.levels:
        for node_id in np.unique(label_map):
            _, count = ndimage.label(label_map == node_id,
                                     structure=structure)
            assert count == 1


def test_tree_invariants_on_random_rasters():
    rng = np.random.default_rng(19)
    cfg = ClusterConfig(max_depth=3, max_cluster=12, min_cluster=4)
    for _ in range(10):
        img = Raster(rng.integers(0, 256, size=(16, 16)).astype(float))
        tree = build_cluster_tree(img, cfg)
        _check_tree_invariants(tree, cfg, 256)


def test_tree_is_deterministic():
    rng = np.random.default_rng(23)
    img = Raster(rng.integers(0, 256, size=(20, 20)).astype(float))
    cfg = ClusterConfig(max_depth=3, max_cluster=15, min_cluster=4)
    t1 = build_cluster_tree(img, cfg)
    t2 = build_cluster_tree(img, cfg)
    assert len(t1.nodes) == len(t2.nodes)
    for node_id, node in t1.nodes.items():
        other = t2.nodes[node_id]
        assert (node.level, node.size, node.parent) == \
            (other.level, other.size, other.parent)
        assert node.mu == other.mu and node.delta == other.delta
    for m1, m2 in zip(t1.levels, t2.levels):
        assert np.array_equal(m1, m2)


# ---------------------------------------------------------------------------
# context queries


def _hand_tree(spec):
    """Build a chain tree from (level, delta, size, eligible) tuples."""
    nodes = {}
    for i, (level, delta, size, eligible) in enumerate(spec):
        parent = i - 1 if i > 0 else None
        nodes[i] = ClusterNode(id=i, level=level, mu=0.0, delta=delta,
                               size=size, parent=parent,
                               children=[i + 1] if i + 1 < len(spec) else [],
                               eligible=eligible)
    depth = spec[-1][0]
    maps = [np.zeros((1, 1), dtype=np.int64)] * (depth + 1)
    return ClusterTree(nodes=nodes, levels=maps, depth=depth, sigma_floor=1.0)


def test_context_full_chain():
    tree = _hand_tree([(0, 40.0, 100, True), (1, 20.0, 60, True),
                       (2, 10.0, 30, True), (3, 5.0, 15, True)])
    assert context_of(tree, 3) == (5.0, 10.0, 20.0)


def test_context_level_two_falls_back_to_pair():
    tree = _hand_tree([(0, 20.0, 100, True), (1, 10.0, 60, True),
                       (2, 5.0, 30, True)])
    assert context_of(tree, 2) == (5.0, 10.0)


def test_context_ineligible_leaf_inherits_ancestor():
    tree = _hand_tree([(0, 40.0, 100, True), (1, 20.0, 60, True),
                       (2, 10.0, 30, True), (3, 5.0, 4, False)])
    # effective node is the level-2 ancestor, which itself falls back
    assert context_of(tree, 3) == (10.0, 20.0)


def test_context_floors_deviations():
    tree = _hand_tree([(0, 20.0, 100, True), (1, 0.0, 60, True),
                       (2, 0.0, 30, True)])
    assert context_of(tree, 2) == (1.0, 1.0)


def test_context_unknown_leaf():
    tree = _hand_tree([(0, 20.0, 100, True), (1, 10.0, 60, True),
                       (2, 5.0, 30, True)])
    with pytest.raises(KeyError):
        context_of(tree, 99)
