"""Reference context tree: one EM fit per cluster and a Python flood fill.

This is the straightforward per-cluster construction that the level-batched
``mkfilter.clustering.build_cluster_tree`` must reproduce. It is kept as an
independent oracle, the way ``brute_force_filter`` serves the window engine:
it shares only the data types (node table, histogram, EM result) and the
EM starting rule with the library, never the histogram, EM, connectivity
or statistics code. It writes every level's label map itself, so the
tree's maps, which it derives from its leaf map, are checked against
maps made independently.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

from mkfilter.clustering import (BIN_WIDTH, EM_TOL, NEIGHBORHOOD, NODE_DTYPE,
                                 ClusterConfig, EmResult,
                                 Histogram, initial_gauss_pair)


def reference_em(hist: Histogram, init: np.ndarray, tol: float,
                 sigma_floor: float, max_iterations: int = 500) -> EmResult:
    """Two-component EM over one histogram, one loop iteration per step.
    ``init`` and the result's ``theta`` are (mu, sigma, weight) x
    component."""
    x = hist.centers
    n = hist.counts
    mu, sigma, w = np.array(init, dtype=np.float64)
    sigma = np.maximum(sigma, sigma_floor)
    if x.size == 1:
        theta = np.array([mu, sigma, [1.0, 0.0]])
        return EmResult(theta, np.zeros(1, dtype=np.int64), True, np.empty(0), 0)

    total = n.sum()

    trace = []
    resp = np.full((2, x.size), 0.5)
    for _ in range(max_iterations):
        with np.errstate(divide="ignore"):
            log_p = (
                np.log(w)[:, None]
                - np.log(sigma)[:, None]
                - 0.5 * math.log(2.0 * math.pi)
                - 0.5 * ((x[None, :] - mu[:, None]) / sigma[:, None]) ** 2
            )
        top = log_p.max(axis=0)
        log_norm = top + np.log(np.exp(log_p - top).sum(axis=0))
        resp = np.exp(log_p - log_norm)
        trace.append(float((n * log_norm).sum()))

        mass = (n * resp).sum(axis=1)
        if mass.min() <= 0.0:
            break
        w_new = mass / total
        mu_new = (n * resp * x).sum(axis=1) / mass
        var = (n * resp * (x[None, :] - mu_new[:, None]) ** 2).sum(axis=1) / mass
        sigma_new = np.maximum(np.sqrt(var), sigma_floor)

        shift = max(
            np.abs(mu_new - mu).max(),
            np.abs(sigma_new - sigma).max(),
            np.abs(w_new - w).max(),
        )
        mu, sigma, w = mu_new, sigma_new, w_new
        if shift < tol:
            break

    labels = np.where(resp[0] >= resp[1], 0, 1).astype(np.int64)
    return EmResult(np.array([mu, sigma, w]), labels, False, np.asarray(trace),
                    len(trace))


def reference_flood(keys: np.ndarray, neighborhood: int) -> np.ndarray:
    """Label maximal connected regions of equal ``keys`` by a stack flood
    fill, issuing labels in row-major order of each region's first pixel."""
    height, width = keys.shape
    size = height * width
    flat = keys.ravel().tolist()
    out = [-1] * size
    # (column shift, flat-index shift); the column shift rejects row wraps
    steps = [(0, -width), (0, width), (-1, -1), (1, 1)]
    if neighborhood == 8:
        steps += [(-1, -width - 1), (1, -width + 1),
                  (-1, width - 1), (1, width + 1)]
    next_label = 0
    for start in range(size):
        if out[start] >= 0:
            continue
        key = flat[start]
        out[start] = next_label
        stack = [start]
        while stack:
            i = stack.pop()
            x = i % width
            for dx, di in steps:
                nx = x + dx
                if nx < 0 or nx >= width:
                    continue
                j = i + di
                if 0 <= j < size and out[j] < 0 and flat[j] == key:
                    out[j] = next_label
                    stack.append(j)
        next_label += 1
    return np.asarray(out, dtype=np.int64).reshape(height, width)


def reference_tree(values: np.ndarray, cfg: ClusterConfig):
    """Per-cluster tree construction, fitting every splittable cluster
    afresh at every level; each fit's iteration count goes into its
    cluster's ``em_iterations``. Returns the node table, the list of
    level maps it wrote, the config and the depth, by those names."""
    height, width = values.shape
    flat = values.ravel()
    rows: list[list] = []  # one NODE_DTYPE row per node, by id

    def new_node(level, member_idx, parent):
        pix = flat[member_idx]
        rows.append([level, parent, member_idx.size, float(pix.mean()),
                     float(pix.std()), -1])
        return len(rows) - 1

    all_idx = np.arange(flat.size)
    root = new_node(0, all_idx, -1)
    levels = [np.full((height, width), root, dtype=np.int64)]
    members = {root: all_idx}
    for level in range(1, cfg.max_depth + 1):
        side = np.zeros(flat.size, dtype=np.int64)
        for node_id in sorted(members):
            idx = members[node_id]
            if idx.size <= cfg.max_cluster:
                continue
            pix = flat[idx]
            base = math.floor(pix.min() / BIN_WIDTH) * BIN_WIDTH
            bins = np.floor((pix - base) / BIN_WIDTH).astype(np.int64)
            occupied, inverse, counts = np.unique(
                bins, return_inverse=True, return_counts=True)
            hist = Histogram(centers=base + (occupied + 0.5) * BIN_WIDTH,
                             counts=counts.astype(np.float64),
                             starts=np.zeros(1, dtype=np.int64))
            init = initial_gauss_pair(float(pix.max()))
            result = reference_em(hist, init, EM_TOL, BIN_WIDTH)
            rows[node_id][5] = result.iterations
            if result.degenerate:
                continue
            pixel_side = result.labels[inverse]
            if pixel_side.min() == pixel_side.max():
                continue  # every pixel landed on one component: unsplittable
            side[idx] = pixel_side

        keys = levels[-1] * 2 + side.reshape(height, width)
        regions = reference_flood(keys, NEIGHBORHOOD).ravel()
        order = np.argsort(regions, kind="stable")
        bounds = np.searchsorted(regions[order], np.arange(regions.max() + 2))
        label_map = np.empty(flat.size, dtype=np.int64)
        new_members = {}
        prev_map = levels[-1].ravel()
        for region in range(regions.max() + 1):
            idx = order[bounds[region]:bounds[region + 1]]
            node_id = new_node(level, idx, int(prev_map[idx[0]]))
            label_map[idx] = node_id
            new_members[node_id] = idx
        levels.append(label_map.reshape(height, width))
        members = new_members

    return SimpleNamespace(
        nodes=np.array(list(map(tuple, rows)), dtype=NODE_DTYPE),
        levels=levels, config=cfg, depth=cfg.max_depth)
