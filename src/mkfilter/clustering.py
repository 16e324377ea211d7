"""Hierarchical image-context clustering.

An image is split top-down into a tree of intensity-coherent, spatially
connected clusters. Each round applies two stages:

1. similarity clustering: a two-component 1D Gaussian mixture is fitted
   (EM over the intensity histogram) and every pixel is hard-assigned to
   the more probable component;
2. proximity clustering: spatially disconnected groups of same-labelled
   pixels are separated into their own clusters.

Clusters that are already small enough, or whose intensities cannot be
split, are carried down unchanged, so every level's label map partitions
the image and level t refines level t-1. The finished tree doubles as the
per-pixel "context": a leaf's own deviation plus those of its ancestors
drive the range kernels in :mod:`mkfilter.filters`.

A level is built in whole-array numpy steps, not one cluster at a time:
one histogram pass that counts the pixels by a single (cluster, bin) key,
one segmented EM over the histograms of all splittable clusters, one
connectivity pass, a union-find over the image's horizontal runs of equal
labels, and one ``np.bincount`` pass for the node statistics. A
splittable cluster that its fit left whole reaches the next level with the
same pixels and keeps that fit there instead of being fitted again; once
a level has no cluster left to fit, the levels below it are copies of it.
The EM keeps the bins' centres and counts as one row per component, so
that most of its calls take same-shape operands, and reuses the M step's
``x - mu`` in the next E step. A lone active segment's parameters
broadcast over its bins instead of being gathered, and one reduction per
iteration tells that no segment finishes; the active layout is rebuilt
only when that test fails and a segment does leave.
``build_histogram``, ``em_similarity_cluster`` and ``proximity_cluster``
are the one-cluster cases of the same code, at the same constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConfigError, require_addressable
from .raster import Raster

__all__ = [
    "Histogram",
    "ClusterConfig",
    "NODE_DTYPE",
    "ClusterTree",
    "EmResult",
    "build_histogram",
    "initial_gauss_pair",
    "em_similarity_cluster",
    "proximity_cluster",
    "build_cluster_tree",
    "write_tree_dump",
]

EM_MAX_ITERATIONS = 500

# A histogram counts its (segment, bin) keys while the key space stays
# within this many keys per value (or per 1024 values on small inputs).
_KEYS_PER_VALUE = 8


@dataclass(frozen=True)
class Histogram:
    """Weighted intensity bins of one or more segments (clusters), back to
    back; centers carry the mass of their members. Segment s owns the bins
    from ``starts[s]`` to the next start."""

    centers: np.ndarray
    counts: np.ndarray
    starts: np.ndarray


NEIGHBORHOOD = 8  # every tree's connectivity in the proximity stage
BIN_WIDTH = 1.0  # histogram precision; doubles as the kernels' sigma floor
EM_TOL = 1e-4  # EM stops when no parameter moves more than this


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs for tree construction.

    max_depth        deepest clustering round (level 0 is the whole image)
    max_cluster      clusters larger than this keep splitting
    min_cluster      clusters at or below this defer statistics to an ancestor
    """

    max_depth: int = 2
    max_cluster: int = 20
    min_cluster: int = 9
    neighborhood: ClassVar[int] = NEIGHBORHOOD

    def __post_init__(self) -> None:
        if self.max_depth < 2:
            raise ConfigError(f"max_depth must be >= 2, got {self.max_depth}")
        if self.min_cluster < 1:
            raise ConfigError(f"min_cluster must be >= 1, got {self.min_cluster}")
        if self.max_cluster <= self.min_cluster:
            raise ConfigError(
                f"max_cluster ({self.max_cluster}) must exceed "
                f"min_cluster ({self.min_cluster})"
            )


NODE_DTYPE = np.dtype([("level", np.int64), ("parent", np.int64),
                       ("size", np.int64), ("mu", np.float64),
                       ("delta", np.float64), ("em_iterations", np.int64)])
"""One row per cluster, indexed by node id; ``parent`` is -1 for the root.
A cluster is eligible for its own kernel when ``size`` exceeds its tree's
``config.min_cluster``; that is read, not stored.
``em_iterations`` counts the iterations of the EM fit run on the cluster to
split it at the next level (0 for a single bin, ``EM_MAX_ITERATIONS`` at the
cap); it is -1 where no fit ran: on a cluster that is not splittable, or
that carries the fit that left its parent whole (same pixels, same fit)."""


@dataclass
class ClusterTree:
    """Cluster hierarchy plus one label map per level.

    ``nodes`` is the node table: a read-only structured array of
    :data:`NODE_DTYPE`, one row per cluster, indexed by node id. Ids are
    issued level by level, so the rows of levels 0..t are a prefix of the
    table. ``levels[t]`` assigns every pixel the id of its level-t
    cluster, so each map partitions the image. A build at ``config`` gives it.
    """

    nodes: np.ndarray
    levels: list[np.ndarray]
    config: ClusterConfig

    @property
    def depth(self) -> int:
        """The last level: every leaf sits there."""
        return len(self.levels) - 1

    def cut(self, cfg: ClusterConfig) -> "ClusterTree":
        """The tree :func:`build_cluster_tree` gives at ``cfg``, which may
        be no deeper than ``config`` and have no smaller ``max_cluster``.
        A fit sees only its cluster's pixels, so that build splits every
        cluster as this one does until it has at most ``cfg.max_cluster``
        pixels and then holds it; ``min_cluster`` is read from ``config``
        alone. Later levels copy their clusters' rows, ids in first-pixel order."""
        own = self.config
        if cfg.max_depth > own.max_depth or cfg.max_cluster < own.max_cluster:
            raise ConfigError(f"a tree built at {own} has no cut at {cfg}")
        depth, size = cfg.max_depth, self.nodes["size"]
        holds = (size <= cfg.max_cluster) & (size > own.max_cluster)
        # the first held cluster's level is the last of this tree's own
        last = int(self.nodes["level"][holds].min(initial=depth))
        # the levels below the first with no split copy it, in both trees
        split = np.diff(np.bincount(self.nodes["level"]), append=0) > 0
        stop = min(depth, max(last + 1, int(np.argmin(split)) + 1))
        maps = np.empty((depth - last, self.levels[0].size), np.int64)
        # each pixel's cluster: its node in this tree, and its cut id
        owner = previous = self.levels[last].ravel()
        tables = [self.nodes[:owner.max() + 1]]
        for level, out in zip(range(last + 1, stop + 1), maps):
            owner = np.where(holds[owner], owner, self.levels[level].ravel())
            ids, first, inverse = np.unique(owner, return_index=True,
                                            return_inverse=True)
            order = np.argsort(first)
            table = self.nodes[ids[order]]
            table["level"] = level
            table["parent"] = previous[first[order]]
            previous = np.add(np.argsort(order)[inverse], previous.max() + 1,
                              out=out)
            tables.append(table)
        nodes = _repeat_last_level(np.concatenate(tables), maps, stop - last,
                                   len(tables[-1]))
        nodes["em_iterations"][(nodes["size"] <= cfg.max_cluster)
                               | (nodes["level"] == depth)] = -1
        nodes.flags.writeable = maps.flags.writeable = False
        return ClusterTree(nodes=nodes, levels=self.levels[:last + 1] + list(
            maps.reshape(-1, *self.levels[0].shape)), config=cfg)

    def leaves(self) -> np.ndarray:
        """Ids of the leaf clusters: every leaf sits at the last level."""
        return np.flatnonzero(self.nodes["level"] == self.depth)


@dataclass(frozen=True)
class EmResult:
    """Fitted two-component mixtures. ``theta`` is (mu, sigma, weight) x
    component, with a trailing segment axis when the fit started with
    one; ``degenerate`` (a single bin), ``log_likelihood`` (one entry per
    EM iteration) and ``iterations`` (the iterations run, 0 for a single
    bin) are then per segment too. ``log_likelihood`` is None where the
    fit was run without recording it."""

    theta: np.ndarray
    labels: np.ndarray  # per-bin hard labels, 0 -> first component
    degenerate: bool | np.ndarray
    log_likelihood: np.ndarray | list[np.ndarray] | None
    iterations: int | np.ndarray


# ---------------------------------------------------------------------------
# similarity clustering


def _segment_histograms(values: np.ndarray, segment: np.ndarray,
                        n_segments: int):
    """Bin each segment's values into width-``BIN_WIDTH`` bins anchored at
    floor(min/BIN_WIDTH)*BIN_WIDTH of that segment.

    The occupied bins of all segments are laid out back to back, segment
    by segment and ascending within a segment; every segment must be
    non-empty. They are the occupied values of the key
    ``segment * stride + bin``, which one ``np.bincount`` counts: the
    occupied keys ascend, so a running count of them ranks each value's
    key. Only a key space far larger than the number of values (it may
    even pass the int64 range) ranks the bins and then the keys with
    ``np.unique`` instead. Returns the :class:`Histogram` and ``inverse``,
    each value's bin.
    """
    lowest = np.full(n_segments, np.inf)
    np.minimum.at(lowest, segment, values)
    bases = np.floor(lowest / BIN_WIDTH) * BIN_WIDTH
    bins = np.floor((values - bases[segment]) / BIN_WIDTH)
    if not np.abs(bins).max() < 2.0 ** 63:  # also catches nan and inf
        raise ConfigError(f"bin width {BIN_WIDTH} gives bin indices beyond "
                          "the int64 range")
    bins = bins.astype(np.int64)
    low = int(bins.min())
    stride = int(bins.max()) - low + 1
    if n_segments * stride <= _KEYS_PER_VALUE * max(values.size, 1024):
        key = segment * stride + (bins - low)
        tally = np.bincount(key)
        occupied = tally > 0
        inverse = (np.cumsum(occupied) - 1)[key]
        head = np.flatnonzero(occupied)
        counts = tally[head]
        bin_of = np.arange(low, low + stride)  # the bin of each key offset
    else:
        bin_of, offset = np.unique(bins, return_inverse=True)
        stride = bin_of.size
        head, inverse, counts = np.unique(segment * stride + offset,
                                          return_inverse=True,
                                          return_counts=True)
    bin_segment, offset = np.divmod(head, stride)
    centers = bases[bin_segment] + (bin_of[offset] + 0.5) * BIN_WIDTH
    starts = np.flatnonzero(np.diff(bin_segment, prepend=-1))
    return Histogram(centers, counts.astype(np.float64), starts), inverse


def build_histogram(pixels) -> Histogram:
    """Bin intensities into width-``BIN_WIDTH`` bins anchored at
    floor(min/BIN_WIDTH)*BIN_WIDTH; weights are member counts."""
    values = np.asarray(pixels, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("histogram needs at least one pixel")
    return _segment_histograms(
        values, np.zeros(values.size, dtype=np.int64), 1)[0]


def initial_gauss_pair(i_max) -> np.ndarray:
    """EM starting point: means at one and two thirds of the maximal
    intensity, deviations at the maximal intensity's magnitude, equal
    weights. The EM floors the deviations at ``BIN_WIDTH``.

    ``i_max`` is one cluster's maximum, or an array of them; the result is
    (mu, sigma, weight) x component, plus that array's segment axis.
    """
    i_max = np.asarray(i_max, dtype=np.float64)
    sigma = np.abs(i_max)
    return np.array([[i_max / 3.0, 2.0 * i_max / 3.0], [sigma, sigma],
                     np.full((2,) + i_max.shape, 0.5)])


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _segmented_em(hist: Histogram, theta, tol: float, sigma_floor: float,
                  max_iterations: int, *, trace: bool = False) -> EmResult:
    """Fit one two-component mixture per histogram segment, all segments in
    the same whole-array steps.

    ``theta`` holds the starting (mu, sigma, weight) x component, shape
    (3, 2, segments), or (3, 2) for a one-segment histogram; the result
    has the same shape. A segment leaves the active set when its
    parameters move less than ``tol``, when a component loses all support
    (its parameters then stay as they were), or at the iteration cap.
    Each iteration first takes one reduction, the smallest of the active
    segments' largest parameter moves (a lone segment's largest move);
    only when it falls below ``tol`` (or is nan), or at the cap, does the
    full test run, and the active layout is rebuilt only when a segment
    leaves. Per layout the work arrays, two parameter buffers (current
    and next) and their views are made once, and every step writes into
    them. The bins' centres and counts are stored once per component,
    (2, bins), so the per-bin products take same-shape operands, and the
    constants are 0-d arrays. The M step writes ``x - mu`` of the new
    means into a kept buffer, which the next E step divides by sigma; only
    a layout's first iteration subtracts afresh. Several active segments
    gather their parameters for each bin; a lone one broadcasts its
    parameter columns over its bins instead. Each segment runs exactly the
    float operations of a fit on its own histogram, in the same order.
    Each segment's iteration count is recorded as it leaves; its
    log-likelihood per iteration only with ``trace``.
    """
    x, n = hist.centers, hist.counts
    n_bins = np.diff(np.append(hist.starts, x.size))
    n_seg = n_bins.size
    theta = np.array(theta, dtype=np.float64)
    one = theta.ndim == 2
    theta = theta.reshape(3, 2, n_seg)
    theta[1] = np.maximum(theta[1], sigma_floor)
    degenerate = n_bins == 1
    theta[2][:, degenerate] = [[1.0], [0.0]]
    bin_seg = np.repeat(np.arange(n_seg), n_bins)
    labels = np.zeros(x.size, dtype=np.int64)
    iterations = np.zeros(n_seg, dtype=np.int64)
    trace_seg: list[np.ndarray] = []
    trace_ll: list[np.ndarray] = []

    # 0-d operands: a Python float is converted again on every call
    half, half_log_2pi, floor = map(np.array, (0.5, _HALF_LOG_2PI,
                                               sigma_floor))
    is_active = ~degenerate
    active = np.flatnonzero(is_active)
    iteration = 0
    # zero weights give log(0) = -inf cleanly; a segment whose component
    # lost all mass divides by zero, and its new parameters are discarded
    with np.errstate(divide="ignore", invalid="ignore"):
        while active.size and iteration < max_iterations:
            # layout of the active segments' bins, rebuilt when one finishes
            bins = np.flatnonzero(is_active[bin_seg])
            local = np.repeat(np.arange(active.size), n_bins[active])
            local_starts = np.append(0, np.cumsum(n_bins[active])[:-1])
            # centres, counts and totals once per component, so that the
            # per-bin and per-segment operands share their shapes
            xa, na = np.tile(x[bins], (2, 1)), np.tile(n[bins], (2, 1))
            total = np.tile(np.add.reduceat(na[0], local_starts), (2, 1))
            # a lone segment's parameter columns broadcast over its bins
            gather = local if active.size > 1 else None
            # two parameter buffers, current and next, (mu, sigma, weight)
            # x component x segment, with the views each step takes
            pair = np.empty((2, 3, 2, active.size))
            pair[0] = theta[:, :, active]
            views = [(p, p[0], p[1], p[2], p[1:]) for p in pair]
            current = 0
            # work arrays of the layout; log_p turns into resp in place
            step = np.empty_like(pair[0])
            step_rows, step_all = step.reshape(6, -1), step.reshape(-1)
            log_th = np.empty_like(pair[0, 1:])
            log_sigma, log_weight = log_th
            const = np.empty_like(pair[0, 0])
            log_p, work, diff = np.empty((3, 2, bins.size))
            log_p0, log_p1 = log_p
            work0, work1 = work
            top, log_norm = np.empty((2, bins.size))
            # n_resp and n_resp * x per component, summed in one reduceat
            weighted = np.empty((4, bins.size))
            n_resp, n_resp_x = weighted[:2], weighted[2:]
            sums = np.empty((4, active.size))
            mass, mass_x = sums[:2], sums[2:]
            # x - mu; from then on the M step leaves it for the next E step
            np.subtract(xa, _per_bin(pair[0, 0], gather), out=diff)
            while True:
                iteration += 1
                th, _, sigma, _, sigma_weight = views[current]
                # E step in log space, per bin with its segment's parameters
                np.log(sigma_weight, out=log_th)
                np.subtract(log_weight, log_sigma, out=const)
                np.subtract(const, half_log_2pi, out=const)
                np.divide(diff, _per_bin(sigma, gather), out=work)
                np.square(work, out=work)
                np.multiply(work, half, out=work)
                np.subtract(_per_bin(const, gather), work, out=log_p)
                np.maximum(log_p0, log_p1, out=top)
                np.subtract(log_p, top, out=work)
                np.exp(work, out=work)
                np.add(work0, work1, out=log_norm)
                np.log(log_norm, out=log_norm)
                np.add(top, log_norm, out=log_norm)
                np.subtract(log_p, log_norm, out=log_p)
                resp = np.exp(log_p, out=log_p)
                if trace:
                    trace_seg.append(active)
                    trace_ll.append(np.add.reduceat(na[0] * log_norm,
                                                    local_starts))

                # M step, the deviation clamped at the floor
                new, mu, sigma, weight, _ = views[1 - current]
                np.multiply(na, resp, out=n_resp)
                np.multiply(n_resp, xa, out=n_resp_x)
                np.add.reduceat(weighted, local_starts, axis=1, out=sums)
                np.divide(mass_x, mass, out=mu)
                np.subtract(xa, _per_bin(mu, gather), out=diff)
                np.square(diff, out=work)
                np.multiply(n_resp, work, out=work)
                np.add.reduceat(work, local_starts, axis=1, out=sigma)
                np.divide(sigma, mass, out=sigma)
                np.sqrt(sigma, out=sigma)
                np.maximum(sigma, floor, out=sigma)
                np.divide(mass, total, out=weight)
                np.subtract(new, th, out=step)
                np.abs(step, out=step)
                # One reduction tells that no segment finishes: the largest
                # move of a lone segment, else the smallest of the segments'
                # largest moves. It also sees ``lost``: a component without
                # mass has only zero terms n_resp * x, so its new mean is
                # 0 / 0 = nan, its segment's move is nan, and nan >= tol
                # is false.
                if gather is None:
                    going = np.maximum.reduce(step_all) >= tol
                else:
                    going = np.minimum.reduce(
                        np.maximum.reduce(step_rows, axis=0)) >= tol
                if iteration == max_iterations or not going:
                    shift = np.maximum.reduce(step_rows, axis=0)
                    lost = np.minimum(mass[0], mass[1]) <= 0.0
                    done = lost | (shift < tol)
                    if iteration == max_iterations:
                        done[:] = True
                    if done.any():
                        new[:, :, lost] = th[:, :, lost]
                        th = new
                        break
                current = 1 - current
            theta[:, :, active] = th
            finished = done[local]
            labels[bins[finished]] = np.where(
                resp[0, finished] >= resp[1, finished], 0, 1)
            left = active[done]
            iterations[left] = iteration
            is_active[left] = False
            active = active[~done]

    traces = _split_traces(trace_seg, trace_ll, iterations) if trace else None
    if one:
        return EmResult(theta[:, :, 0], labels, bool(degenerate[0]),
                        None if traces is None else traces[0],
                        int(iterations[0]))
    return EmResult(theta, labels, degenerate, traces, iterations)


def _per_bin(columns: np.ndarray, local: np.ndarray | None) -> np.ndarray:
    """Each bin's parameters from per-segment columns (last axis): gathered
    by ``local``, the layout's segment of each bin, or the columns of a lone
    segment as they are, to broadcast over its bins."""
    return columns if local is None else columns.take(local, axis=-1)


def _split_traces(trace_seg, trace_ll, iterations) -> list[np.ndarray]:
    """Regroup per-iteration log-likelihood rows into one trace per
    segment, of its iteration count."""
    if not trace_seg:
        return [np.empty(0) for _ in iterations]
    order = np.argsort(np.concatenate(trace_seg), kind="stable")
    return np.split(np.concatenate(trace_ll)[order],
                    np.cumsum(iterations)[:-1])


def em_similarity_cluster(hist: Histogram, init: np.ndarray, *,
                          max_iterations: int = EM_MAX_ITERATIONS) -> EmResult:
    """Fit a two-component mixture to the histogram and hard-label each bin.

    This is the segmented EM that :func:`build_cluster_tree` runs over a
    whole level; ``init`` is the (3, 2) start of a one-segment histogram
    (see :func:`initial_gauss_pair`), or has a segment axis. As in the
    tree, a fit stops when no parameter moves by ``EM_TOL``, and the start
    and every M-step clamp each deviation at ``BIN_WIDTH``; because the
    clamp is the constrained maximizer of the expected complete-data
    log-likelihood, the recorded log-likelihood sequence is
    non-decreasing. Ties in the posterior go to the first component. A
    single-bin histogram cannot be split and yields a degenerate result
    with all mass on the first component.
    """
    return _segmented_em(hist, init, EM_TOL, BIN_WIDTH, max_iterations,
                         trace=True)


# ---------------------------------------------------------------------------
# proximity clustering


def _connected_regions(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Label each maximal 8-connected region of equal ``keys``: the region of
    every pixel, numbered in row-major order of each region's first pixel,
    and the flat index of each region's first pixel.

    A union-find over horizontal runs of equal keys, in whole-array steps.
    Runs are numbered in row-major order; a run joins the runs of the next
    row through vertical and diagonal equal-key edges. An edge whose two
    pixels both continue the runs of the edge just to its left joins the
    same two runs, so only edges at a run start are kept. Every root is
    hooked onto the smallest root it shares an edge with, then pointers
    jump until each run points at its root; this repeats until no edge
    joins two roots. Roots only ever move to smaller run ids, so a
    region's root is its first run, which starts at the region's first
    pixel.
    """
    height, width = keys.shape
    starts = np.empty(keys.shape, dtype=bool)
    starts[:, :1] = True
    np.not_equal(keys[:, 1:], keys[:, :-1], out=starts[:, 1:])
    run = (np.cumsum(starts) - 1).reshape(height, width)
    run_start = np.flatnonzero(starts)
    heads, tails = [], []
    for dx in (0, 1, -1):  # edges to the next row: down, down-right, down-left
        a = (slice(0, height - 1), slice(max(0, -dx), width - max(0, dx)))
        b = (slice(1, height), slice(max(0, dx), width - max(0, -dx)))
        joins = (keys[a] == keys[b]) & (starts[a] | starts[b])
        heads.append(run[a][joins])
        tails.append(run[b][joins])
    head, tail = np.concatenate(heads), np.concatenate(tails)
    root = np.arange(run_start.size)
    while True:
        root_head, root_tail = root[head], root[tail]
        apart = root_head != root_tail
        if not apart.any():
            break
        # edges inside one tree stay inside it; drop them
        head, tail = head[apart], tail[apart]
        root_head, root_tail = root_head[apart], root_tail[apart]
        np.minimum.at(root, np.maximum(root_head, root_tail),
                      np.minimum(root_head, root_tail))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    is_root = root == np.arange(root.size)
    region = (np.cumsum(is_root) - 1)[root]
    return region[run].ravel(), run_start[is_root]


def proximity_cluster(labels: np.ndarray, neighborhood: int) -> np.ndarray:
    """Give each maximal 8-connected region of same-labelled pixels its own
    fresh label. The output refines the input partition, never merges.

    Fresh labels are issued in row-major order of each region's first
    pixel, so the result is deterministic. ``neighborhood`` must be
    ``NEIGHBORHOOD``, the trees' connectivity.
    """
    if neighborhood != NEIGHBORHOOD:
        raise ConfigError(f"neighborhood must be {NEIGHBORHOOD}, "
                          f"got {neighborhood}")
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ConfigError(f"label map must be 2D, got shape {labels.shape}")
    region, _ = _connected_regions(labels)
    return region.reshape(labels.shape)


# ---------------------------------------------------------------------------
# tree construction


def _node_stats(values: np.ndarray, label: np.ndarray, count: int):
    """Size, mean and (population) deviation of each label's pixels;
    ConfigError when the values are too large for finite deviations."""
    size = np.bincount(label, minlength=count)
    with np.errstate(over="ignore"):  # an overflow leaves a delta of inf
        mean = np.bincount(label, weights=values, minlength=count) / size
        dev = values - mean[label]
        delta = np.sqrt(np.bincount(label, weights=dev * dev, minlength=count) / size)
    if not np.isfinite(delta).all():
        raise ConfigError("cluster deviations overflow the float64 range")
    return size, mean, delta


def _split_sides(values: np.ndarray, label: np.ndarray,
                 fit: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """EM component (0/1) of every pixel within its cluster, for all
    clusters marked in ``fit`` in one histogram pass and one segmented EM;
    0 for pixels of every other cluster. Also returns each fit's iteration
    count, by cluster.

    A splittable cluster that an earlier fit left whole is not marked: its
    pixels, histogram and EM start are those of that fit, so the tree
    keeps that fit's single side instead.
    """
    side = np.zeros(values.size, dtype=np.int64)
    members = np.flatnonzero(fit[label])
    if members.size == 0:
        return side, []
    segment = (np.cumsum(fit) - 1)[label[members]]
    n_seg = int(np.count_nonzero(fit))
    pix = values[members]
    hist, inverse = _segment_histograms(pix, segment, n_seg)
    i_max = np.full(n_seg, -np.inf)
    np.maximum.at(i_max, segment, pix)
    fits = _segmented_em(hist, initial_gauss_pair(i_max), EM_TOL, BIN_WIDTH,
                         EM_MAX_ITERATIONS)
    # a degenerate or one-sided fit gives all its pixels one side, which
    # leaves the cluster whole
    side[members] = fits.labels[inverse]
    return side, fits.iterations


def build_cluster_tree(image: Raster, cfg: ClusterConfig) -> ClusterTree:
    """Grow the full context tree for one image.

    Level 0 is a single root cluster. At each subsequent level every
    cluster larger than ``cfg.max_cluster`` is split by EM + connectivity;
    everything else is carried down as a single child, so all leaves end
    at level ``cfg.max_depth`` and every level map partitions the image.
    Node statistics are the sample mean/deviation of the node's own pixels.

    Each level is processed as a whole: one histogram pass and one
    segmented EM over the splittable clusters that no earlier fit left
    whole, one connectivity pass over the image, one statistics pass.
    From the first level with no such cluster on, every level is a copy
    of the one before (see :func:`_repeat_last_level`).
    Each fit's iteration count goes into its cluster's ``em_iterations``.
    Node ids are issued level by level, in row-major order of each
    cluster's first pixel.
    """
    height, width = image.data.shape
    flat = image.data.ravel()

    tables: list[np.ndarray] = []
    # every level's map in one block, allocated before the first level, so
    # that a depth whose maps the machine cannot hold fails at once
    require_addressable("the level maps", cfg.max_depth + 1, height, width)
    maps = np.empty((cfg.max_depth + 1, flat.size), dtype=np.int64)

    def add_level(level, label, parents):
        """Append the level's node rows, from its level-local pixel labels."""
        first_id = sum(map(len, tables))
        table = np.empty(parents.size, dtype=NODE_DTYPE)
        table["size"], table["mu"], table["delta"] = _node_stats(
            flat, label, parents.size)
        table["level"] = level
        table["parent"] = parents
        table["em_iterations"] = -1
        tables.append(table)
        np.add(label, first_id, out=maps[level])
        return table["size"]

    label = np.zeros(flat.size, dtype=np.int64)
    size = add_level(0, label, np.full(1, -1))
    # per cluster: left whole by an earlier fit, which it carries
    carried = np.zeros(1, dtype=bool)
    level = 1
    while level <= cfg.max_depth:
        splittable = size > cfg.max_cluster
        fit = splittable & ~carried
        if not fit.any():
            break
        side, fitted = _split_sides(flat, label, fit)
        tables[-1]["em_iterations"][fit] = fitted
        keys = (label * 2 + side).reshape(height, width)
        previous = label
        label, first_pixel = _connected_regions(keys)
        parent = previous[first_pixel]
        # a splittable cluster with one child was left whole by its fit
        carried = (splittable
                   & (np.bincount(parent, minlength=size.size) == 1))[parent]
        size = add_level(level, label, maps[level - 1][first_pixel])
        level += 1

    nodes = _repeat_last_level(np.concatenate(tables), maps, level, size.size)
    nodes.flags.writeable = False
    maps.flags.writeable = False
    return ClusterTree(nodes=nodes, config=cfg,
                       levels=list(maps.reshape(-1, height, width)))


def _repeat_last_level(nodes: np.ndarray, maps: np.ndarray, first: int,
                       count: int) -> np.ndarray:
    """Fill ``maps``, one row per level, from row ``first`` on, and append
    those levels' node rows to ``nodes``, as copies of row ``first - 1``'s
    level, whose ``count`` clusters are the last rows of ``nodes``.

    A level with no cluster to fit splits none, so each later level has the
    same clusters, pixel order and statistics, and nothing to fit either:
    a copy takes the next ``count`` ids and names its original as parent.
    """
    repeats = maps.shape[0] - first
    if repeats == 0:
        return nodes
    out = np.empty(nodes.size + repeats * count, dtype=NODE_DTYPE)
    out[:nodes.size] = nodes
    copies = out[nodes.size:]
    copies.reshape(repeats, count)[:] = nodes[nodes.size - count:]
    copies["level"] += np.repeat(np.arange(1, repeats + 1), count)
    copies["parent"] = np.arange(nodes.size - count, out.size - count)
    np.add(maps[first - 1], count * np.arange(1, repeats + 1)[:, None],
           out=maps[first:])
    return out


# ---------------------------------------------------------------------------
# export


def write_tree_dump(tree: ClusterTree, path) -> None:
    """One node per line: `id level parent size mu delta eligible`, where
    eligible is 1 if size exceeds the tree's ``min_cluster``, else 0."""
    columns = (tree.nodes[name].tolist() for name in
               ("level", "parent", "size", "mu", "delta"))
    least = tree.config.min_cluster
    with open(path, "w", encoding="ascii") as fh:
        for node_id, (level, parent, size, mu, delta) in enumerate(
                zip(*columns)):
            fh.write(f"{node_id} {level} {parent} {size} "
                     f"{mu:.17g} {delta:.17g} {int(size > least)}\n")
