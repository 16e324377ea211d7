"""Frozen EM oracle: the segmented EM loop as it stood before its
iteration was reworked for cheaper numpy calls.

``segmented_em`` is a verbatim copy of that loop (renamed from
``_segmented_em``), kept so that the library's loop can be checked byte for
byte against it: the rework must run the same float operations in the same
order. It shares only the data types (histogram, EM result) with the
library.
"""

from __future__ import annotations

import math

import numpy as np

from mkfilter.clustering import EmResult, Histogram


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def segmented_em(hist: Histogram, theta, tol: float, sigma_floor: float,
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
