"""Reference denoisers the multi-kernel filter is compared against.

- tv_denoise: ROF total-variation model minimized by explicit gradient
  descent on the epsilon-smoothed energy, forward differences, mirror
  boundaries. Larger lambda means stronger fidelity (less smoothing).
- cf_gaussian_denoise: Gaussian-curvature filter. The grid is split into
  four interleaved subsets updated in sequence; every pixel moves by the
  smallest-magnitude projection distance onto the eight local tangent
  plane candidates of its 3x3 neighborhood (the first of equal
  magnitude on a tie). Constants and planar ramps are exact fixed points
  (boundaries use odd reflection, which planes survive; plain mirroring
  would not preserve them at the borders).
- bf_denoise: classic bilateral filtering, the shared engine's one-leaf
  kernel field.

TV and CF read and write only contiguous 1-D slices. numpy runs a 2-D
strided view one row at a time, and at 64 to 128 pixels a row that loop
costs more than the arithmetic. TV works on the raveled image, and CF on
four phase planes of the padded image, split by row and column parity, in
which each of a subset's nine neighbours is one flat slice. A flat slice
also covers cells between rows (TV's row wraps, the planes' border and
padding cells); they never reach a real pixel, and never raise an overflow
that the row-by-row form would not. Every real pixel gets the same float
operations in the same order, so rasters and energy traces are
bit-identical to the row-by-row forms, signed zeros included.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, overflow_is_config_error, require_addressable,
                     require_positive)
from .filters import BfParams, KernelField, weighted_mean_filter
from .raster import Raster

__all__ = [
    "TvParams",
    "CfParams",
    "tv_denoise",
    "tv_denoise_trace",
    "cf_gaussian_denoise",
    "bf_denoise",
    "write_energy_csv",
]

TV_EPSILON = 1e-6


@dataclass(frozen=True)
class TvParams:
    lam: float = 1.25
    iters: int = 100
    step: float = 0.1

    def __post_init__(self) -> None:
        require_positive(lam=self.lam, step=self.step)
        if self.iters < 1:
            raise ConfigError(f"iters must be >= 1, got {self.iters}")


@dataclass(frozen=True)
class CfParams:
    iters: int = 10

    def __post_init__(self) -> None:
        if self.iters < 1:
            raise ConfigError(f"iters must be >= 1, got {self.iters}")


# ---------------------------------------------------------------------------
# total variation


def _gradient_norm(u: np.ndarray, width: int, work) -> np.ndarray:
    """Smoothed |grad u| of the raveled image u, with rows of `width`
    pixels, into the norm array of work = (gx, gy, norm, tmp), with u's
    forward differences in gx and gy (the mirror boundary makes each row's
    last gx and the last row's gy zero); tmp is scratch.

    The x-difference across a row wrap, from a row's last pixel to the
    next row's first, is computed with the others and then zeroed. Under
    the overflow guard it raises only where the row-wise form raises the
    same error: for a finite u it overflows only if the two pixels are over
    1.7e308 apart, so one of the fewer than 2**63 real differences on a
    path between them exceeds 1e155, and its square overflows.
    """
    gx, gy, norm, tmp = work
    np.subtract(u[1:], u[:-1], out=gx[:-1])
    gx[width - 1::width] = 0.0
    np.subtract(u[width:], u[:-width], out=gy[:-width])
    gy[-width:] = 0.0
    np.multiply(gx, gx, out=norm)
    norm += np.multiply(gy, gy, out=tmp)
    norm += TV_EPSILON * TV_EPSILON
    return np.sqrt(norm, out=norm)


def _rof_energy(u: np.ndarray, observed: np.ndarray, lam: float, width: int,
                work, residual: np.ndarray) -> float:
    """The energy of the raveled u, leaving u's gradient state behind: gx,
    gy and norm in work as _gradient_norm fills them, and u - observed in
    residual."""
    # an overflow, or inf - inf in a difference of an overflowed candidate,
    # is an infinite or nan energy, which the step halving rejects
    with np.errstate(over="ignore", invalid="ignore"):
        tv = _gradient_norm(u, width, work).sum()
        np.subtract(u, observed, out=residual)
        fidelity = 0.5 * lam * np.square(residual, out=work[3]).sum()
    return float(tv + fidelity)


def tv_denoise_trace(image: Raster, p: TvParams = TvParams()) -> tuple[Raster, np.ndarray]:
    """ROF descent returning the result and the per-iteration energy trace.

    The descent is explicit with two safeguards that keep the recorded
    energy non-increasing for any input: the step is capped at 1/lam (the
    fidelity term would diverge beyond that for large lambda), and an
    iteration whose full step would raise the energy retries with the step
    halved. The configured step is the starting point of that schedule; at
    the defaults neither safeguard fires until the iterate is nearly
    converged.

    Each iteration takes u's forward differences, gradient norm and
    residual u - observed from the energy evaluation that accepted u, which
    computed them from u itself with the same operations, so the reuse is
    bit-exact. They are recomputed, under the overflow guard, only after a
    stationary iteration (the work arrays then hold a rejected candidate)
    or when u's energy is not finite: a finite energy is a finite sum of
    norms, so the guarded recomputation could not have overflowed.
    """
    require_addressable("the energy trace", p.iters + 1)
    height, width = image.data.shape
    observed = image.data.ravel()
    u = observed.copy()
    # every array of the descent is allocated once and computed in place:
    # fresh 128 px temporaries on each iteration had the C allocator map
    # and unmap, and so page-fault, each of them again
    candidate, grad, residual = (np.empty_like(u) for _ in range(3))
    work = gx, gy, norm, tmp = tuple(np.empty_like(u) for _ in range(4))
    step = min(p.step, 1.0 / p.lam)
    trace = np.empty(p.iters + 1)
    trace[0] = _rof_energy(u, observed, p.lam, width, work, residual)
    # whether work and residual hold u's gradient state, free of overflow
    reuse = np.isfinite(trace[0])
    for it in range(1, p.iters + 1):
        if not reuse:
            with overflow_is_config_error("the TV gradient norm"):
                _gradient_norm(u, width, work)
            np.subtract(u, observed, out=residual)
        px = np.divide(gx, norm, out=gx)
        py = np.divide(gy, norm, out=gy)
        np.negative(px, out=grad)
        grad -= py
        # each row's last px now carries into the next row's first pixel:
        # x + -0.0 is x for every x, signed zeros and nan included
        px[width - 1::width] = -0.0
        grad[1:] += px[:-1]
        grad[width:] += py[:-width]
        grad += np.multiply(p.lam, residual, out=tmp)

        np.subtract(u, np.multiply(step, grad, out=candidate), out=candidate)
        energy = _rof_energy(candidate, observed, p.lam, width, work, residual)
        for _ in range(60):
            if energy <= trace[it - 1]:
                break
            step *= 0.5
            np.subtract(u, np.multiply(step, grad, out=candidate),
                        out=candidate)
            energy = _rof_energy(candidate, observed, p.lam, width, work,
                                 residual)
        if energy <= trace[it - 1]:
            u, candidate = candidate, u
            trace[it] = energy
            reuse = np.isfinite(energy)
        else:
            trace[it] = trace[it - 1]  # stationary to float precision
            reuse = False  # work holds the last rejected candidate's state
    return image.with_data(u.reshape(height, width)), trace


def tv_denoise(image: Raster, p: TvParams = TvParams()) -> Raster:
    return tv_denoise_trace(image, p)[0]


# ---------------------------------------------------------------------------
# Gaussian-curvature filter

# the four interleaved subsets, updated in this order
_CF_SUBSETS = ((0, 0), (1, 1), (0, 1), (1, 0))
# An iteration that starts with every magnitude below this one cannot
# overflow, so its passes skip the check of their real pixels: a pass's
# border reflection at most triples the interior's largest magnitude, a
# candidate is at most four times its inputs, and an update leaves the
# interior at most five times as large, so the fourth pass stays below
# 12 * 5**3 = 1500 times the bound.
_CF_SAFE = 1e305


def _cf_border(planes: np.ndarray, height: int, width: int) -> list:
    """The refresh of the one-pixel border of the padded image held in
    planes, as ``np.pad(interior, 1, mode="reflect", reflect_type="odd")``
    pads: (pad, edge, next) views, rows first, over the interior columns,
    then columns over the padded rows; each pad value is 2 * edge - next,
    and a length-1 side, whose next is None, copies its edge instead."""
    def row(r):  # its odd columns, then its even ones
        return (planes[r % 2, 1, r // 2, :(width + 1) // 2],
                planes[r % 2, 0, r // 2, 1:width // 2 + 1])

    def column(c):  # both row parities, the zero padding row included
        return (planes[:, c % 2, :, c // 2],)

    return [(p, e, q if size > 1 else None)
            for line, size in ((row, height), (column, width))
            for pad, edge, inner in ((0, 1, 2), (size + 1, size, size - 1))
            for p, e, q in zip(line(pad), line(edge), line(inner))]


def _reflect_border(border: list) -> None:
    """Refresh the border from the views that _cf_border returns."""
    for pad, edge, inner in border:
        if inner is None:
            pad[...] = edge
        else:
            np.multiply(edge, 2.0, out=pad)
            pad -= inner


def _cf_views(planes: np.ndarray, stack: np.ndarray, magnitude: np.ndarray,
              flags: np.ndarray, height: int, width: int, oy: int, ox: int):
    """The views one pass over subset (oy, ox) reads and writes, or None
    for an empty subset: the subset c and its eight neighbours as flat
    slices of planes, the candidate and magnitude rows of the (8, plane
    size) work arrays, and the subset's real pixels in c and in the
    candidates.

    The subset is one phase plane's interior and each neighbour is one
    phase plane shifted, so every read is one flat slice running from the
    subset's first pixel to its last. The slice also covers the border and
    padding cells between two plane rows."""
    plane_width = planes.shape[3]
    rows, cols = (height - oy + 1) // 2, (width - ox + 1) // 2
    if not rows or not cols:
        return None
    size = (rows - 1) * plane_width + cols
    flat = planes.reshape(2, 2, -1)

    def shifted(dy, dx):
        y, x = 1 + oy + dy, 1 + ox + dx
        start = y // 2 * plane_width + x // 2
        return flat[y % 2, x % 2, start:start + size]

    real = stack[:, :rows * plane_width].reshape(8, rows, plane_width)
    i, j = (1 + oy) // 2, (1 + ox) // 2
    return (shifted(0, 0),
            tuple(shifted(dy, dx) for dy, dx in ((-1, 0), (1, 0), (0, -1),
                                                 (0, 1), (-1, -1), (-1, 1),
                                                 (1, -1), (1, 1))),
            stack[:, :size], magnitude[:, :size], flags[:, :, :size],
            planes[(1 + oy) % 2, (1 + ox) % 2, i:i + rows, j:j + cols],
            real[:, :, :cols])


def _cf_pass(views, checked: bool) -> None:
    """Move one subset's pixels, given by the views of _cf_views, by their
    minimal projection distance.

    The border and padding cells between two plane rows are computed and
    written like the subset's pixels. No real pixel reads a padding cell,
    which sees zero neighbours above and below and so stays zero, and a
    real pixel reads a border cell only after the next border refresh has
    rewritten it. Their candidates may overflow where no real pixel's
    does, so the pass ignores overflow. When `checked`, it then raises
    FloatingPointError, as the overflow guard would have, if a real pixel's
    candidate or update is not finite: from finite inputs, an overflow
    leaves an inf.
    """
    c, (n, s, w, e, nw, ne, sw, se), candidates, magnitude, flags, real_c, \
        real_candidates = views
    with np.errstate(over="ignore", invalid="ignore"):
        # 0.5 * (a + b) - c for the four lines through c
        for k, (a, b) in enumerate(((n, s), (w, e), (nw, se), (ne, sw))):
            np.add(a, b, out=candidates[k])
            candidates[k] *= 0.5
            candidates[k] -= c
        # a + b - corner - c for the four planes of a corner triangle
        for k, (a, b, corner) in enumerate(
                ((n, w, nw), (n, e, ne), (w, s, sw), (e, s, se)), start=4):
            np.add(a, b, out=candidates[k])
            candidates[k] -= corner
            candidates[k] -= c
        # the candidate of least magnitude, the first plane winning ties as
        # argmin does. It is the least magnitude with that plane's sign, so
        # only the sign is chosen: planes 6 down to 0 each set it where they
        # reach the least magnitude, on bytes, which is cheaper than
        # choosing floats or argmin plus a gather
        mag = np.abs(candidates, out=magnitude)
        least = mag.min(axis=0)
        ties = np.equal(mag, least, out=flags[0])
        signs = np.signbit(candidates, out=flags[1])
        sign = signs[7]
        for k in range(6, -1, -1):
            sign ^= (sign ^ signs[k]) & ties[k]
        c += np.negative(least, out=least, where=sign)
    if checked and not (np.isfinite(real_candidates).all()
                        and np.isfinite(real_c).all()):
        raise FloatingPointError("overflow in the curvature filter")


def cf_gaussian_denoise(image: Raster, p: CfParams = CfParams()) -> Raster:
    height, width = image.data.shape
    # the image padded by one pixel and then to even sides, split by row
    # and column parity into four phase planes of one shape: planes[a, b,
    # i, j] is padded pixel (2i + a, 2j + b). They hold the iterate between
    # passes; they and the candidate stacks are allocated once, since
    # fresh 256 KiB stacks on every pass had the C allocator map and
    # page-fault them again
    plane_rows, plane_width = (height + 3) // 2, (width + 3) // 2
    padded = np.zeros((2 * plane_rows, 2 * plane_width))
    padded[1:height + 1, 1:width + 1] = image.data
    planes = padded.reshape(plane_rows, 2, plane_width, 2).transpose(
        1, 3, 0, 2).copy()
    shape = (8, plane_rows * plane_width)
    stack, magnitude = np.empty(shape), np.empty(shape)
    flags = np.empty((2, *shape), dtype=bool)
    border = _cf_border(planes, height, width)
    passes = [views for oy, ox in _CF_SUBSETS
              if (views := _cf_views(planes, stack, magnitude, flags,
                                     height, width, oy, ox)) is not None]
    with overflow_is_config_error("the curvature filter update"):
        for _ in range(p.iters):
            # nan fails the comparison too
            checked = not max(planes.max(), -planes.min()) < _CF_SAFE
            for views in passes:
                _reflect_border(border)
                _cf_pass(views, checked)
    padded = planes.transpose(2, 0, 3, 1).reshape(padded.shape)
    return image.with_data(padded[1:height + 1, 1:width + 1])


# ---------------------------------------------------------------------------
# bilateral baseline


def bf_denoise(image: Raster, p: BfParams = BfParams()) -> Raster:
    """The one-leaf kernel field: delta = h_I and psi = 1 at every pixel."""
    field = KernelField(np.zeros(image.data.shape, np.int64), [p.h_I], [1.0])
    return weighted_mean_filter(image, field, p.radius, p.h_x)


def write_energy_csv(trace, path) -> None:
    """Energy trace rows `iter,energy` (iteration 0 is the input energy)."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "energy"])
        for i, e in enumerate(trace):
            writer.writerow([i, repr(float(e))])
