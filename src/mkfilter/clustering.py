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
same pixels and keeps that fit there instead of being fitted again. In
the EM, a lone active segment's parameters broadcast over its bins
instead of being gathered, and one reduction per iteration tells that no
segment finishes; the active layout is rebuilt only when that test fails
and a segment does leave.
``build_histogram``, ``em_similarity_cluster`` and ``proximity_cluster``
are the one-cluster cases of the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_bandwidth, require_positive
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
    bin_width: float


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs for tree construction.

    max_depth        deepest clustering round (level 0 is the whole image)
    max_cluster      clusters larger than this keep splitting
    min_cluster      clusters at or below this defer statistics to an ancestor
    neighborhood     4- or 8-connectivity for the proximity stage
    bin_width        intensity histogram precision; doubles as the sigma floor
    em_tol           EM stops when no parameter moves more than this
    """

    max_depth: int = 2
    max_cluster: int = 20
    min_cluster: int = 9
    neighborhood: int = 8
    bin_width: float = 1.0
    em_tol: float = 1e-4

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
        if self.neighborhood not in (4, 8):
            raise ConfigError(f"neighborhood must be 4 or 8, got {self.neighborhood}")
        # bin_width is also the deviation floor of the range kernels
        require_bandwidth(bin_width=self.bin_width)
        require_positive(em_tol=self.em_tol)


NODE_DTYPE = np.dtype([("level", np.int64), ("parent", np.int64),
                       ("size", np.int64), ("mu", np.float64),
                       ("delta", np.float64), ("eligible", np.bool_),
                       ("em_iterations", np.int64)])
"""One row per cluster, indexed by node id; ``parent`` is -1 for the root.
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
    cluster, so each map partitions the image. ``sigma_floor`` is the
    lower bound applied to deviations whenever they feed a kernel (a zero
    sample deviation would otherwise collapse the range kernel).
    """

    nodes: np.ndarray
    levels: list[np.ndarray]
    sigma_floor: float

    @property
    def depth(self) -> int:
        """The last level: every leaf sits there."""
        return len(self.levels) - 1

    def truncated(self, depth: int) -> "ClusterTree":
        """The tree :func:`build_cluster_tree` gives at ``max_depth=depth``.

        Levels are built one after another and ``max_depth`` only stops the
        loop, so a shallower tree is an exact prefix of a deeper one: the
        same level maps, node ids, statistics and EM fits. Its node table
        is the prefix of this one up to the last level-`depth` node, with
        no fit on that level, which a depth-`depth` build never splits.
        """
        if not 2 <= depth <= self.depth:
            raise ConfigError(
                f"truncation depth must be in [2, {self.depth}], got {depth}")
        if depth == self.depth:
            return self
        nodes = self.nodes[:int(self.levels[depth].max()) + 1].copy()
        nodes["em_iterations"][nodes["level"] == depth] = -1
        nodes.flags.writeable = False
        return ClusterTree(nodes=nodes, levels=self.levels[:depth + 1],
                           sigma_floor=self.sigma_floor)

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
                        n_segments: int, bin_width: float):
    """Bin each segment's values into width-`bin_width` bins anchored at
    floor(min/bin_width)*bin_width of that segment.

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
    bases = np.floor(lowest / bin_width) * bin_width
    bins = np.floor((values - bases[segment]) / bin_width)
    if not np.abs(bins).max() < 2.0 ** 63:  # also catches nan and inf
        raise ConfigError(f"bin width {bin_width} gives bin indices beyond "
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
    centers = bases[bin_segment] + (bin_of[offset] + 0.5) * bin_width
    starts = np.flatnonzero(np.diff(bin_segment, prepend=-1))
    return (Histogram(centers, counts.astype(np.float64), starts, bin_width),
            inverse)


def build_histogram(pixels, bin_width: float) -> Histogram:
    """Bin intensities into width-`bin_width` bins anchored at
    floor(min/bin_width)*bin_width; weights are member counts."""
    values = np.asarray(pixels, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("histogram needs at least one pixel")
    return _segment_histograms(
        values, np.zeros(values.size, dtype=np.int64), 1, bin_width)[0]


def initial_gauss_pair(i_max, sigma_floor: float) -> np.ndarray:
    """EM starting point: means at one and two thirds of the maximal
    intensity, deviations at the maximal intensity, equal weights.

    ``i_max`` is one cluster's maximum, or an array of them; the result is
    (mu, sigma, weight) x component, plus that array's segment axis.
    """
    i_max = np.asarray(i_max, dtype=np.float64)
    sigma = np.maximum(np.abs(i_max), sigma_floor)
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
    segments' largest parameter moves; only when it falls below ``tol``
    (or is nan), or at the cap, does the full test run, and the active
    layout is rebuilt only when a segment leaves. Per layout the work
    arrays are allocated once and every step writes into them. Several
    active segments gather their parameters for each bin; a lone one
    broadcasts its parameter columns over its bins instead. Each segment
    runs exactly the float operations of a fit on its own histogram, in
    the same order. Each segment's iteration count is recorded as it
    leaves; its log-likelihood per iteration only with ``trace``.
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
            xa, na = x[bins], n[bins]
            total = np.add.reduceat(na, local_starts)
            th = theta[:, :, active]
            # a lone segment's parameter columns broadcast over its bins
            gather = local if active.size > 1 else None
            # work arrays of the layout; log_p turns into resp in place
            new, step = np.empty((2,) + th.shape)
            step_rows = step.reshape(6, -1)
            log_th = np.empty_like(th[1:])
            log_sigma, log_weight = log_th
            const = np.empty_like(th[0])
            log_p, work = np.empty((2, 2, xa.size))
            log_p0, log_p1 = log_p
            work0, work1 = work
            top, log_norm = np.empty((2, xa.size))
            # n_resp and n_resp * x per component, summed in one reduceat
            weighted = np.empty((4, xa.size))
            n_resp, n_resp_x = weighted[:2], weighted[2:]
            sums = np.empty((4, active.size))
            mass, mass_x = sums[:2], sums[2:]
            while True:
                iteration += 1
                # E step in log space, per bin with its segment's parameters
                np.log(th[1:], out=log_th)
                np.subtract(log_weight, log_sigma, out=const)
                np.subtract(const, _HALF_LOG_2PI, out=const)
                mu_sigma = _per_bin(th[:2], gather)
                np.subtract(xa, mu_sigma[0], out=work)
                np.divide(work, mu_sigma[1], out=work)
                np.square(work, out=work)
                np.multiply(work, 0.5, out=work)
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
                    trace_ll.append(np.add.reduceat(na * log_norm,
                                                    local_starts))

                # M step, the deviation clamped at the floor
                np.multiply(na, resp, out=n_resp)
                np.multiply(n_resp, xa, out=n_resp_x)
                np.add.reduceat(weighted, local_starts, axis=1, out=sums)
                mu, sigma = new[0], new[1]
                np.divide(mass_x, mass, out=mu)
                np.subtract(xa, _per_bin(mu, gather), out=work)
                np.square(work, out=work)
                np.multiply(n_resp, work, out=work)
                np.add.reduceat(work, local_starts, axis=1, out=sigma)
                np.divide(sigma, mass, out=sigma)
                np.sqrt(sigma, out=sigma)
                np.maximum(sigma, sigma_floor, out=sigma)
                np.divide(mass, total, out=new[2])
                np.subtract(new, th, out=step)
                np.abs(step, out=step)
                shift = np.maximum.reduce(step_rows, axis=0)
                # One reduction tells that no segment finishes. It also
                # sees ``lost``: a component without mass has only zero
                # terms n_resp * x, so its new mean is 0 / 0 = nan, the
                # segment's shift is nan, and nan >= tol is false.
                if (iteration == max_iterations
                        or not np.minimum.reduce(shift) >= tol):
                    lost = np.minimum(mass[0], mass[1]) <= 0.0
                    done = lost | (shift < tol)
                    if iteration == max_iterations:
                        done[:] = True
                    if done.any():
                        new[:, :, lost] = th[:, :, lost]
                        th = new
                        break
                th, new = new, th
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


def em_similarity_cluster(
    hist: Histogram,
    init: np.ndarray,
    tol: float,
    sigma_floor: float | None = None,
    max_iterations: int = EM_MAX_ITERATIONS,
) -> EmResult:
    """Fit a two-component mixture to the histogram and hard-label each bin.

    This is the segmented EM that :func:`build_cluster_tree` runs over a
    whole level; ``init`` is the (3, 2) start of a one-segment histogram
    (see :func:`initial_gauss_pair`), or has a segment axis. The M-step clamps
    each deviation at ``sigma_floor`` (default: the bin width); because the
    clamp is the constrained maximizer of the expected complete-data
    log-likelihood, the recorded log-likelihood sequence is
    non-decreasing. Ties in the posterior go to the first component. A
    single-bin histogram cannot be split and yields a degenerate result
    with all mass on the first component.
    """
    if sigma_floor is None:
        sigma_floor = hist.bin_width
    return _segmented_em(hist, init, tol, sigma_floor, max_iterations,
                         trace=True)


# ---------------------------------------------------------------------------
# proximity clustering


def _connected_regions(keys: np.ndarray,
                       neighborhood: int) -> tuple[np.ndarray, np.ndarray]:
    """Label each maximal connected region of equal ``keys``: the region of
    every pixel, numbered in row-major order of each region's first pixel,
    and the flat index of each region's first pixel.

    A union-find over horizontal runs of equal keys, in whole-array steps.
    Runs are numbered in row-major order; a run joins the runs of the next
    row through vertical (and, for 8-connectivity, diagonal) equal-key
    edges. An edge whose two pixels both continue the runs of the edge just
    to its left joins the same two runs, so only edges at a run start are
    kept. Every root is hooked onto the smallest root it shares an edge
    with, then pointers jump until each run points at its root; this
    repeats until no edge joins two roots. Roots only ever move to smaller
    run ids, so a region's root is its first run, which starts at the
    region's first pixel.
    """
    height, width = keys.shape
    starts = np.empty(keys.shape, dtype=bool)
    starts[:, :1] = True
    np.not_equal(keys[:, 1:], keys[:, :-1], out=starts[:, 1:])
    run = (np.cumsum(starts) - 1).reshape(height, width)
    run_start = np.flatnonzero(starts)
    steps = ((1, 0),) + (((1, 1), (1, -1)) if neighborhood == 8 else ())
    heads, tails = [], []
    for dy, dx in steps:  # edges towards the next row, one direction at a time
        a = (slice(0, height - dy), slice(max(0, -dx), width - max(0, dx)))
        b = (slice(dy, height), slice(max(0, dx), width - max(0, -dx)))
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
    """Give each maximal connected region of same-labelled pixels its own
    fresh label. The output refines the input partition, never merges.

    Fresh labels are issued in row-major order of each region's first
    pixel, so the result is deterministic.
    """
    if neighborhood not in (4, 8):
        raise ConfigError(f"neighborhood must be 4 or 8, got {neighborhood}")
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ConfigError(f"label map must be 2D, got shape {labels.shape}")
    region, _ = _connected_regions(labels, neighborhood)
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


def _split_sides(values: np.ndarray, label: np.ndarray, fit: np.ndarray,
                 cfg: ClusterConfig) -> tuple[np.ndarray, list[int]]:
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
    hist, inverse = _segment_histograms(pix, segment, n_seg, cfg.bin_width)
    i_max = np.full(n_seg, -np.inf)
    np.maximum.at(i_max, segment, pix)
    fits = _segmented_em(hist, initial_gauss_pair(i_max, cfg.bin_width),
                         cfg.em_tol, cfg.bin_width, EM_MAX_ITERATIONS)
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
    Each fit's iteration count goes into its cluster's ``em_iterations``.
    Node ids are issued level by level, in row-major order of each
    cluster's first pixel.
    """
    height, width = image.data.shape
    flat = image.data.ravel()

    tables: list[np.ndarray] = []
    levels = []

    def add_level(level, label, parents):
        """Append the level's node rows, from its level-local pixel labels."""
        first_id = sum(map(len, tables))
        table = np.empty(parents.size, dtype=NODE_DTYPE)
        table["size"], table["mu"], table["delta"] = _node_stats(
            flat, label, parents.size)
        table["level"] = level
        table["parent"] = parents
        table["eligible"] = table["size"] > cfg.min_cluster
        table["em_iterations"] = -1
        tables.append(table)
        label_map = (label + first_id).reshape(height, width)
        label_map.flags.writeable = False
        levels.append(label_map)
        return table["size"]

    label = np.zeros(flat.size, dtype=np.int64)
    size = add_level(0, label, np.full(1, -1))
    # per cluster: left whole by an earlier fit, which it carries
    carried = np.zeros(1, dtype=bool)
    for level in range(1, cfg.max_depth + 1):
        splittable = size > cfg.max_cluster
        fit = splittable & ~carried
        side, fitted = _split_sides(flat, label, fit, cfg)
        tables[-1]["em_iterations"][fit] = fitted
        keys = (label * 2 + side).reshape(height, width)
        previous = label
        label, first_pixel = _connected_regions(keys, cfg.neighborhood)
        parent = previous[first_pixel]
        # a splittable cluster with one child was left whole by its fit
        carried = (splittable
                   & (np.bincount(parent, minlength=size.size) == 1))[parent]
        size = add_level(level, label, levels[-1].ravel()[first_pixel])

    nodes = np.concatenate(tables)
    nodes.flags.writeable = False
    return ClusterTree(nodes=nodes, levels=levels, sigma_floor=cfg.bin_width)


# ---------------------------------------------------------------------------
# export


def write_tree_dump(tree: ClusterTree, path) -> None:
    """One node per line: `id level parent size mu delta eligible`."""
    columns = (tree.nodes[name].tolist() for name in
               ("level", "parent", "size", "mu", "delta", "eligible"))
    with open(path, "w", encoding="ascii") as fh:
        for node_id, (level, parent, size, mu, delta, eligible) in enumerate(
                zip(*columns)):
            fh.write(f"{node_id} {level} {parent} {size} "
                     f"{mu:.17g} {delta:.17g} {int(eligible)}\n")
