"""The level-batched context tree against the per-cluster oracle.

The corpus is the benchmark's tree inputs: both ``mkf-deep`` inputs (40 px,
depth 7) in all eight orientations, the ``mkf-wide`` input (256 px, depth
2), and 24 px sweep trees at three noise levels, two cluster sizes and both
connectivities. Level maps, topology and the iteration count of every EM fit
must be identical; node means and deviations are summed in another order
(``np.bincount`` instead of per-node pairwise sums), so they must agree
within 1e-12 relative.
"""

import math

import numpy as np
import pytest

from tree_oracle import reference_tree

from mkfilter import ClusterConfig, Raster, build_cluster_tree, load_pgm, save_pgm
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


def assert_same_tree(tree, ref, ref_fits):
    assert len(tree.levels) == len(ref.levels)
    for got, want in zip(tree.levels, ref.levels):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert tree.nodes.keys() == ref.nodes.keys()
    for node_id, node in tree.nodes.items():
        other = ref.nodes[node_id]
        assert (node.level, node.parent, node.size, node.eligible,
                node.children) == (other.level, other.parent, other.size,
                                   other.eligible, other.children)
        assert math.isclose(node.mu, other.mu, rel_tol=1e-12, abs_tol=0.0)
        assert math.isclose(node.delta, other.delta, rel_tol=1e-12, abs_tol=0.0)
    assert list(tree.em_iterations) == ref_fits


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


@pytest.mark.parametrize("neighborhood", (4, 8))
@pytest.mark.parametrize("max_cluster", (20, 100))
@pytest.mark.parametrize("level", (10.0, 300.0, 1000.0))
def test_sweep_trees_match_oracle(tmp_path, level, max_cluster, neighborhood):
    path = tmp_path / "bsd.pgm"
    save_pgm(bsd_style(24, 24, seed=PHANTOM_SEED), path)  # 8-bit, as the CLI reads it
    noisy = apply_noise(load_pgm(path), NoiseSpec(
        "integral", level, derive_seed(0, "bsd", int(level))))
    cfg = ClusterConfig(max_depth=7, max_cluster=max_cluster,
                        neighborhood=neighborhood)
    assert_same_tree(build_cluster_tree(noisy, cfg),
                     *reference_tree(noisy.data, cfg))


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
