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
The EM keeps the bins' centres and counts as one row per component and
reaches each per-bin parameter as two component rows, so that no per-bin
call takes a broadcast operand, and it reuses the M step's ``x - mu`` in
the next E step. A lone active segment's rows are 0-d views of its
parameters; several segments gather theirs into one kept buffer. A quick
test per iteration tells that no segment finishes; the active layout is
rebuilt only when that test fails and a segment does leave.
``build_histogram``, ``em_similarity_cluster`` and ``proximity_cluster``
are the one-cluster cases of the same code, at the same constants.

The per-pixel passes bound their working memory: they write their
results into the buffers of their inputs where those are no longer
needed (the bins into one float buffer, the keys of a level into its
sides, the union-find's roots into its edges, the squared deviations
into one buffer) and drop each array once it has been used; the node
rows of every level are written once, into the final table. At 256 px,
depth 2, a build peaks at about 6 image sizes (8 bytes per pixel) above
its input, of which its output, the node table and the leaf map (level
maps are derived on use), takes 2; at 512 px, depth 7, at about 20, of
which the output takes 11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
    """Cluster hierarchy: its node table and its leaf map.

    ``nodes`` is the node table: a read-only structured array of
    :data:`NODE_DTYPE`, one row per cluster, indexed by node id. Ids are
    issued level by level, so the rows of levels 0..t are a prefix of the
    table. ``leaf_map`` (read-only) assigns every pixel the id of its leaf,
    and ``levels[t]``, derived from both, the id of its level-t cluster;
    each map partitions the image. A build at ``config`` gives it.
    """

    nodes: np.ndarray
    leaf_map: np.ndarray
    config: ClusterConfig

    @property
    def depth(self) -> int:
        """The last level: every leaf sits there."""
        return self.config.max_depth

    @cached_property
    def levels(self) -> tuple[np.ndarray, ...]:
        """Read-only map of every level, derived once: a pixel's level-t id
        is its leaf's level-t ancestor, one gather up ``parent`` per level."""
        ancestor = self.leaves()  # the table's last rows
        index = self.leaf_map.ravel() - ancestor[0]
        maps = np.empty((self.depth + 1, index.size), dtype=np.int64)
        for out in maps[::-1]:
            ancestor.take(index, out=out)
            ancestor = self.nodes["parent"][ancestor]
        maps.flags.writeable = False
        return tuple(maps.reshape(-1, *self.leaf_map.shape))

    def cut(self, cfg: ClusterConfig) -> "ClusterTree":
        """The tree :func:`build_cluster_tree` gives at ``cfg``, which may
        be no deeper than ``config`` and have no smaller ``max_cluster``.
        A fit sees only its cluster's pixels, so that build splits every
        cluster as this one does until it has at most ``cfg.max_cluster``
        pixels and then holds it; ``min_cluster`` is read from ``config``
        alone. The cut filters this tree's rows: below a held cluster only
        the chain of first children (they hold its first pixel) is kept, as
        its copies, so ids stay in first-pixel order, as in the build."""
        own = self.config
        if cfg.max_depth > own.max_depth or cfg.max_cluster < own.max_cluster:
            raise ConfigError(f"a tree built at {own} has no cut at {cfg}")
        depth = cfg.max_depth
        # row ends of levels 0..depth; a level has at most one row per pixel
        ends = np.cumsum(np.bincount(
            self.nodes["level"][:(depth + 1) * self.leaf_map.size]))
        rows = self.nodes[:ends[depth]]
        parent, ids = rows["parent"], np.arange(rows.size)
        under = np.append(False, rows["size"][parent[1:]] <= cfg.max_cluster)
        # ids follow first pixels: a parent's smallest child holds its first
        first = np.full(rows.size, rows.size)
        np.minimum.at(first, parent[1:], ids[1:])
        is_first = first[parent] == ids
        # a held parent passes on its owner, and its copy to its first child
        owner, keep = ids.copy(), ~under
        for span in map(slice, ends[:depth], ends[1:]):
            owner[span] = np.where(under[span], owner[parent[span]], ids[span])
            keep[span] |= keep[parent[span]] & is_first[span]
        cut_id = np.cumsum(keep) - 1
        nodes = rows[owner[keep]]
        nodes["level"] = rows["level"][keep]
        nodes["parent"][1:] = cut_id[parent[keep][1:]]
        nodes["em_iterations"][(nodes["size"] <= cfg.max_cluster)
                               | (nodes["level"] == depth)] = -1
        # each owner's id is now that of its copy at the last level
        last = slice(ends[depth - 1], ends[depth])
        cut_id[owner[last][keep[last]]] = cut_id[last][keep[last]]
        ancestor = self.leaves()
        index = self.leaf_map - ancestor[0]
        for _ in range(self.depth - depth):
            ancestor = self.nodes["parent"][ancestor]
        leaf_map = cut_id[owner[ancestor]].take(index, mode="clip", out=index)
        nodes.flags.writeable = leaf_map.flags.writeable = False
        return ClusterTree(nodes=nodes, leaf_map=leaf_map, config=cfg)

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
    # floor((values - base) / BIN_WIDTH), in one buffer
    bins = bases.take(segment)
    np.subtract(values, bins, out=bins)
    np.divide(bins, BIN_WIDTH, out=bins)
    np.floor(bins, out=bins)
    # both ends within the int64 range; nan fails both tests
    if not (bins.max() < 2.0 ** 63 and -bins.min() < 2.0 ** 63):
        raise ConfigError(f"bin width {BIN_WIDTH} gives bin indices beyond "
                          "the int64 range")
    key = bins.astype(np.int64)
    del bins
    low = int(key.min())
    stride = int(key.max()) - low + 1
    if n_segments * stride <= _KEYS_PER_VALUE * max(values.size, 1024):
        # segment * stride + (bin - low), in place
        key -= low
        key += segment * stride
        tally = np.bincount(key)
        occupied = tally > 0
        rank = np.cumsum(occupied)
        rank -= 1
        # keys are in range by construction; "clip" lets take write over
        # the keys it reads, where "raise" would buffer its output
        inverse = rank.take(key, mode="clip", out=key)
        head = np.flatnonzero(occupied)
        counts = tally[head]
        bin_of = np.arange(low, low + stride)  # the bin of each key offset
    else:
        bin_of, offset = np.unique(key, return_inverse=True)
        del key
        stride = bin_of.size
        offset += segment * stride
        head, inverse, counts = np.unique(offset, return_inverse=True,
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
    Each iteration first takes a quick test: the smallest of the active
    segments' largest parameter moves (two reductions), or a lone
    segment's six moves read as Python floats. Only when it fails, or at
    the cap, does the full test run, and the active layout is rebuilt only
    when a segment leaves. Per layout the work arrays, two parameter
    buffers (current and next) and their views are made once, and every
    step writes into them. The bins' centres and counts are stored once
    per component, (2, bins), the constants are 0-d arrays, and each
    per-bin parameter (mu, sigma, the log-constant) is reached as two
    component rows, so that no per-bin call broadcasts: a lone segment's
    0-d views, or the rows of one kept (2, bins) buffer that a gather
    fills. The M step writes ``x - mu`` of the new means into a kept
    buffer, which the next E step divides by sigma; only a layout's first
    iteration subtracts afresh. Each segment runs exactly the float
    operations of a fit on its own histogram, in the same order.
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
    # the ufuncs as locals: a call then looks up no global and no attribute
    add, subtract, divide, maximum = np.add, np.subtract, np.divide, np.maximum
    multiply, square, sqrt, absolute = np.multiply, np.square, np.sqrt, np.abs
    log, exp, reduceat = np.log, np.exp, np.add.reduceat
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
            xa0, xa1 = xa
            total = np.tile(np.add.reduceat(na[0], local_starts), (2, 1))
            # two parameter buffers, current and next, (mu, sigma, weight)
            # x component x segment, and the log-constant per component
            pair = np.empty((2, 3, 2, active.size))
            pair[0] = theta[:, :, active]
            const = np.empty_like(pair[0, 0])
            # per-bin parameters as component rows; several segments
            # gather each into one kept buffer before its use
            gather = active.size > 1
            per_bin = np.empty((2, bins.size)) if gather else None

            def rows(column):
                """The kept buffer's rows, or a lone segment's 0-d views."""
                return (tuple(per_bin) if gather
                        else (column[0, 0, ...], column[1, 0, ...]))

            views = [(p, p[0], p[1], p[2], p[1:], rows(p[0]), rows(p[1]))
                     for p in pair]
            const0, const1 = rows(const)
            current = 0
            # work arrays of the layout; log_p turns into resp in place
            step = np.empty_like(pair[0])
            step_rows, step_all = step.reshape(6, -1), step.reshape(-1)
            log_th = np.empty_like(pair[0, 1:])
            log_sigma, log_weight = log_th
            log_p, work, diff = np.empty((3, 2, bins.size))
            log_p0, log_p1 = log_p
            work0, work1 = work
            diff0, diff1 = diff
            top, log_norm = np.empty((2, bins.size))
            # n_resp and n_resp * x per component, summed in one reduceat
            weighted = np.empty((4, bins.size))
            n_resp, n_resp_x = weighted[:2], weighted[2:]
            sums = np.empty((4, active.size))
            mass, mass_x = sums[:2], sums[2:]
            # x - mu; from then on the M step leaves it for the next E step
            _, mu, _, _, _, (mu0, mu1), _ = views[0]
            if gather:
                mu.take(local, axis=-1, mode="clip", out=per_bin)
            subtract(xa0, mu0, out=diff0)
            subtract(xa1, mu1, out=diff1)
            while True:
                iteration += 1
                (th, _, sigma, _, sigma_weight, _,
                 (sigma0, sigma1)) = views[current]
                # E step in log space, per bin with its segment's parameters
                log(sigma_weight, out=log_th)
                subtract(log_weight, log_sigma, out=const)
                subtract(const, half_log_2pi, out=const)
                if gather:
                    sigma.take(local, axis=-1, mode="clip", out=per_bin)
                divide(diff0, sigma0, out=work0)
                divide(diff1, sigma1, out=work1)
                square(work, out=work)
                multiply(work, half, out=work)
                if gather:
                    const.take(local, axis=-1, mode="clip", out=per_bin)
                subtract(const0, work0, out=log_p0)
                subtract(const1, work1, out=log_p1)
                maximum(log_p0, log_p1, out=top)
                subtract(log_p0, top, out=work0)
                subtract(log_p1, top, out=work1)
                exp(work, out=work)
                add(work0, work1, out=log_norm)
                log(log_norm, out=log_norm)
                add(top, log_norm, out=log_norm)
                subtract(log_p0, log_norm, out=log_p0)
                subtract(log_p1, log_norm, out=log_p1)
                resp = exp(log_p, out=log_p)
                if trace:
                    trace_seg.append(active)
                    trace_ll.append(reduceat(na[0] * log_norm, local_starts))

                # M step, the deviation clamped at the floor
                new, mu, sigma, weight, _, (mu0, mu1), _ = views[1 - current]
                multiply(na, resp, out=n_resp)
                multiply(n_resp, xa, out=n_resp_x)
                reduceat(weighted, local_starts, axis=1, out=sums)
                divide(mass_x, mass, out=mu)
                if gather:
                    mu.take(local, axis=-1, mode="clip", out=per_bin)
                subtract(xa0, mu0, out=diff0)
                subtract(xa1, mu1, out=diff1)
                square(diff, out=work)
                multiply(n_resp, work, out=work)
                reduceat(work, local_starts, axis=1, out=sigma)
                divide(sigma, mass, out=sigma)
                sqrt(sigma, out=sigma)
                maximum(sigma, floor, out=sigma)
                divide(mass, total, out=weight)
                subtract(new, th, out=step)
                absolute(step, out=step)
                # A quick test tells that no segment finishes: the smallest
                # of the segments' largest moves, or a lone segment's six
                # moves read as floats. It also sees ``lost``: a component
                # without mass has only zero terms n_resp * x, so its new
                # mean is 0 / 0 = nan, its segment's move is nan, and
                # nan >= tol is false. Python's max may pass over a nan,
                # but the sum carries it, and nan == nan is false.
                if gather:
                    going = np.minimum.reduce(
                        np.maximum.reduce(step_rows, axis=0)) >= tol
                else:
                    moves = step_all.tolist()
                    going = max(moves) >= tol and sum(moves) == sum(moves)
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


def _split_traces(trace_seg, trace_ll, iterations) -> list[np.ndarray]:
    """Regroup per-iteration log-likelihood rows into one trace per
    segment, of its iteration count."""
    if not trace_seg:
        return [np.empty(0) for _ in iterations]
    order = np.argsort(np.concatenate(trace_seg), kind="stable")
    return np.split(np.concatenate(trace_ll)[order],
                    np.cumsum(iterations)[:-1])


def em_similarity_cluster(hist: Histogram, init: np.ndarray) -> EmResult:
    """Fit a two-component mixture to the histogram and hard-label each bin.

    This is the segmented EM that :func:`build_cluster_tree` runs over a
    whole level; ``init`` is the (3, 2) start of a one-segment histogram
    (see :func:`initial_gauss_pair`), or has a segment axis. As in the
    tree, a fit stops when no parameter moves by ``EM_TOL`` or at
    ``EM_MAX_ITERATIONS``, and the start and every M-step clamp each
    deviation at ``BIN_WIDTH``; because the clamp is the constrained
    maximizer of the expected complete-data log-likelihood, the recorded
    log-likelihood sequence is non-decreasing. Ties in the posterior go
    to the first component. A single-bin histogram cannot be split and
    yields a degenerate result with all mass on the first component.
    """
    return _segmented_em(hist, init, EM_TOL, BIN_WIDTH, EM_MAX_ITERATIONS,
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
    pixel. Each round overwrites every edge with the roots of its two
    ends, which it joins alike, and the run ids with the region ids at
    the end, so that no copy of the edges or of the run map is held.
    """
    height, width = keys.shape
    starts = np.empty(keys.shape, dtype=bool)
    starts[:, :1] = True
    np.not_equal(keys[:, 1:], keys[:, :-1], out=starts[:, 1:])
    run = np.cumsum(starts).reshape(height, width)
    run -= 1
    run_start = np.flatnonzero(starts)
    # one pair of masks serves the three directions in turn
    same, either = np.empty((2, height - 1, width), dtype=bool)
    heads, tails = [], []
    for dx in (0, 1, -1):  # edges to the next row: down, down-right, down-left
        a = (slice(0, height - 1), slice(max(0, -dx), width - max(0, dx)))
        b = (slice(1, height), slice(max(0, dx), width - max(0, -dx)))
        joins = np.equal(keys[a], keys[b], out=same[:, :width - abs(dx)])
        joins &= np.logical_or(starts[a], starts[b],
                               out=either[:, :width - abs(dx)])
        heads.append(run[a][joins])
        tails.append(run[b][joins])
    del same, either, starts, joins
    head = np.concatenate(heads)
    del heads
    tail = np.concatenate(tails)
    del tails
    root = np.arange(run_start.size)
    while True:
        # an edge joins what its ends' roots join: keep the roots in its
        # place ("clip": the ids are in range, and take writes in place)
        root.take(head, mode="clip", out=head)
        root.take(tail, mode="clip", out=tail)
        apart = head != tail
        if not apart.any():
            break
        # edges inside one tree stay inside it; drop them
        head = head[apart]
        tail = tail[apart]
        del apart
        low = np.minimum(head, tail)
        np.maximum(head, tail, out=head)
        tail = low
        np.minimum.at(root, head, low)
        del low
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    is_root = root == np.arange(root.size)
    region = np.cumsum(is_root)
    region -= 1
    region = region.take(root)
    return region.take(run, mode="clip", out=run).ravel(), run_start[is_root]


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
        # the squared deviations, in one buffer
        dev = mean.take(label)
        np.subtract(values, dev, out=dev)
        np.multiply(dev, dev, out=dev)
        delta = np.sqrt(np.bincount(label, weights=dev, minlength=count) / size)
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
    members = np.flatnonzero(fit[label])
    if members.size == 0:
        return np.zeros(values.size, dtype=np.int64), []
    n_seg = int(np.count_nonzero(fit))
    # each member's segment: the rank of its cluster among the fitted ones
    segment = label.take(members)
    rank = np.cumsum(fit)
    rank -= 1
    rank.take(segment, mode="clip", out=segment)
    pix = values.take(members)
    i_max = np.full(n_seg, -np.inf)
    np.maximum.at(i_max, segment, pix)
    hist, inverse = _segment_histograms(pix, segment, n_seg)
    del pix, segment
    fits = _segmented_em(hist, initial_gauss_pair(i_max), EM_TOL, BIN_WIDTH,
                         EM_MAX_ITERATIONS)
    # a degenerate or one-sided fit gives all its pixels one side, which
    # leaves the cluster whole
    side = np.zeros(values.size, dtype=np.int64)
    side[members] = fits.labels.take(inverse, mode="clip", out=inverse)
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
    of the one before, written into the node table in place.
    Each fit's iteration count goes into its cluster's ``em_iterations``.
    Node ids are issued level by level, in row-major order of each
    cluster's first pixel.
    """
    height, width = image.data.shape
    flat = image.data.ravel()

    tables: list[np.ndarray] = []
    # a depth whose level maps the machine cannot hold fails at once: the
    # maps stay derivable from the tree
    require_addressable("the level maps", cfg.max_depth + 1, height, width)

    def add_level(level, label, parents):
        """Append the level's node rows, from its level-local pixel labels."""
        table = np.empty(parents.size, dtype=NODE_DTYPE)
        table["size"], table["mu"], table["delta"] = _node_stats(
            flat, label, parents.size)
        table["level"] = level
        table["parent"] = parents
        table["em_iterations"] = -1
        tables.append(table)
        return table["size"]

    label = np.zeros(flat.size, dtype=np.int64)
    size = add_level(0, label, np.full(1, -1))
    first_id = 0  # of the last level built
    # per cluster: left whole by an earlier fit, which it carries
    carried = np.zeros(1, dtype=bool)
    level = 1
    while level <= cfg.max_depth:
        splittable = size > cfg.max_cluster
        fit = splittable & ~carried
        if not fit.any():
            break
        keys, fitted = _split_sides(flat, label, fit)
        tables[-1]["em_iterations"][fit] = fitted
        # side + 2 * label, in the sides' buffer; a key halved is its label
        keys += label
        keys += label
        del label
        label, first_pixel = _connected_regions(keys.reshape(height, width))
        parent = keys.take(first_pixel) // 2
        del keys
        # a splittable cluster with one child was left whole by its fit
        carried = (splittable
                   & (np.bincount(parent, minlength=size.size) == 1))[parent]
        parent += first_id
        first_id += size.size
        size = add_level(level, label, parent)
        level += 1

    # Every level's table is joined into the node table once, and dropped.
    # A level with no cluster to fit splits none, so each later level has
    # the same clusters, pixel order and statistics: its copy rows take the
    # next ids and name their originals as parents.
    count, kept = size.size, sum(map(len, tables))
    repeats = cfg.max_depth + 1 - level
    nodes = np.empty(kept + repeats * count, dtype=NODE_DTYPE)
    np.concatenate(tables, out=nodes[:kept])
    tables.clear()
    copies = nodes[kept:].reshape(repeats, count)
    copies[:] = nodes[kept - count:kept]
    copies["level"] += np.arange(1, repeats + 1)[:, None]
    nodes["parent"][kept:] = np.arange(kept - count, len(nodes) - count)
    # the leaves are the table's last rows, in the last built level's order
    label += len(nodes) - count
    nodes.flags.writeable = label.flags.writeable = False
    return ClusterTree(nodes=nodes, leaf_map=label.reshape(height, width),
                       config=cfg)


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
