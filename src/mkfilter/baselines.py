"""Reference denoisers the multi-kernel filter is compared against.

- tv_denoise: ROF total-variation model minimized by explicit gradient
  descent on the epsilon-smoothed energy, forward differences, mirror
  boundaries. Larger lambda means stronger fidelity (less smoothing).
- cf_gaussian_denoise: Gaussian-curvature filter. The grid is split into
  four interleaved subsets updated in sequence; every pixel moves by the
  smallest-magnitude projection distance onto the eight local tangent
  plane candidates of its 3x3 neighborhood. Constants and planar ramps
  are exact fixed points (boundaries use odd reflection, which planes
  survive; plain mirroring would not preserve them at the borders).
- bf_denoise: classic bilateral filtering, delegated to the shared engine.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, overflow_is_config_error, require_positive
from .filters import BfParams, weighted_mean_filter
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


def _gradient_norm(u: np.ndarray, work) -> np.ndarray:
    """Smoothed |grad u| into the norm array of work = (gx, gy, norm, tmp),
    with u's forward differences in gx and gy (the mirror boundary makes
    the last column of gx and the last row of gy zero); tmp is scratch."""
    gx, gy, norm, tmp = work
    np.subtract(u[:, 1:], u[:, :-1], out=gx[:, :-1])
    gx[:, -1] = 0.0
    np.subtract(u[1:], u[:-1], out=gy[:-1])
    gy[-1] = 0.0
    np.multiply(gx, gx, out=norm)
    norm += np.multiply(gy, gy, out=tmp)
    norm += TV_EPSILON * TV_EPSILON
    return np.sqrt(norm, out=norm)


def _rof_energy(u: np.ndarray, observed: np.ndarray, lam: float,
                work) -> float:
    # an overflow, or inf - inf in a difference of an overflowed candidate,
    # is an infinite or nan energy, which the step halving rejects
    with np.errstate(over="ignore", invalid="ignore"):
        tv = _gradient_norm(u, work).sum()
        residual = np.subtract(u, observed, out=work[3])
        fidelity = 0.5 * lam * np.square(residual, out=residual).sum()
    return float(tv + fidelity)


def rof_energy(u: np.ndarray, observed: np.ndarray, lam: float) -> float:
    """Smoothed ROF energy: sum of |grad u| plus (lam/2) * squared residual."""
    return _rof_energy(u, observed, lam,
                       tuple(np.empty_like(u) for _ in range(4)))


def tv_denoise_trace(image: Raster, p: TvParams = TvParams()) -> tuple[Raster, np.ndarray]:
    """ROF descent returning the result and the per-iteration energy trace.

    The descent is explicit with two safeguards that keep the recorded
    energy non-increasing for any input: the step is capped at 1/lam (the
    fidelity term would diverge beyond that for large lambda), and an
    iteration whose full step would raise the energy retries with the step
    halved. The configured step is the starting point of that schedule; at
    the defaults neither safeguard fires until the iterate is nearly
    converged.
    """
    observed = image.data
    u = observed.copy()
    # every array of the descent is allocated once and computed in place:
    # fresh 128 px temporaries on each iteration had the C allocator map
    # and unmap, and so page-fault, each of them again
    candidate, grad = np.empty_like(u), np.empty_like(u)
    work = gx, gy, norm, tmp = tuple(np.empty_like(u) for _ in range(4))
    step = min(p.step, 1.0 / p.lam)
    trace = np.empty(p.iters + 1)
    trace[0] = _rof_energy(u, observed, p.lam, work)
    for it in range(1, p.iters + 1):
        with overflow_is_config_error("the TV gradient norm"):
            _gradient_norm(u, work)
        px = np.divide(gx, norm, out=gx)
        py = np.divide(gy, norm, out=gy)
        np.negative(px, out=grad)
        grad -= py
        grad[:, 1:] += px[:, :-1]
        grad[1:, :] += py[:-1, :]
        grad += np.multiply(p.lam, np.subtract(u, observed, out=tmp), out=tmp)

        np.subtract(u, np.multiply(step, grad, out=candidate), out=candidate)
        energy = _rof_energy(candidate, observed, p.lam, work)
        for _ in range(60):
            if energy <= trace[it - 1]:
                break
            step *= 0.5
            np.subtract(u, np.multiply(step, grad, out=candidate),
                        out=candidate)
            energy = _rof_energy(candidate, observed, p.lam, work)
        if energy <= trace[it - 1]:
            u, candidate = candidate, u
            trace[it] = energy
        else:
            trace[it] = trace[it - 1]  # stationary to float precision
    return image.with_data(u), trace


def tv_denoise(image: Raster, p: TvParams = TvParams()) -> Raster:
    return tv_denoise_trace(image, p)[0]


# ---------------------------------------------------------------------------
# Gaussian-curvature filter

# the four interleaved subsets, updated in this order
_CF_SUBSETS = ((0, 0), (1, 1), (0, 1), (1, 0))


def _reflect_border(p: np.ndarray) -> None:
    """Refresh the one-pixel border of p from its interior, as
    ``np.pad(interior, 1, mode="reflect", reflect_type="odd")`` pads: rows
    first, then columns over the padded rows, each pad value 2 * edge -
    next; a length-1 side copies its edge instead."""
    for q in (p[:, 1:-1], p.T):
        if q.shape[0] == 3:
            q[0] = q[-1] = q[1]
        else:
            np.multiply(q[1], 2.0, out=q[0])
            q[0] -= q[2]
            np.multiply(q[-2], 2.0, out=q[-1])
            q[-1] -= q[-3]


def _cf_pass(p: np.ndarray, stack: np.ndarray, magnitude: np.ndarray,
             oy: int, ox: int) -> None:
    """Move one subset's pixels, the interior of the padded image p, by
    their minimal projection distance. ``stack`` and ``magnitude`` are
    (8, rows, cols) work arrays at least as large as any subset."""
    _reflect_border(p)
    height, width = p.shape[0] - 2, p.shape[1] - 2
    yc = slice(1 + oy, 1 + height, 2)
    xc = slice(1 + ox, 1 + width, 2)
    yn = slice(yc.start - 1, yc.stop - 1, 2)
    ys = slice(yc.start + 1, yc.stop + 1, 2)
    xw = slice(xc.start - 1, xc.stop - 1, 2)
    xe = slice(xc.start + 1, xc.stop + 1, 2)
    c = p[yc, xc]
    n = p[yn, xc]
    s = p[ys, xc]
    w = p[yc, xw]
    e = p[yc, xe]
    nw = p[yn, xw]
    ne = p[yn, xe]
    sw = p[ys, xw]
    se = p[ys, xe]
    rows, cols = c.shape
    candidates = stack[:, :rows, :cols]
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
    pick = np.argmin(np.abs(candidates, out=magnitude[:, :rows, :cols]),
                     axis=0)
    c += np.take_along_axis(candidates, pick[None], axis=0)[0]


def cf_gaussian_denoise(image: Raster, p: CfParams = CfParams()) -> Raster:
    height, width = image.data.shape
    # the padded image holds the iterate in its interior; it and the
    # candidate stacks are allocated once, since fresh 256 KiB stacks on
    # every pass had the C allocator map and page-fault them again
    padded = np.empty((height + 2, width + 2))
    padded[1:-1, 1:-1] = image.data
    shape = (8, (height + 1) // 2, (width + 1) // 2)
    stack, magnitude = np.empty(shape), np.empty(shape)
    with overflow_is_config_error("the curvature filter update"):
        for _ in range(p.iters):
            for oy, ox in _CF_SUBSETS:
                _cf_pass(padded, stack, magnitude, oy, ox)
    return image.with_data(padded[1:-1, 1:-1])


# ---------------------------------------------------------------------------
# bilateral baseline


def bf_denoise(image: Raster, p: BfParams = BfParams()) -> Raster:
    return weighted_mean_filter(image, p, p.radius)


def write_energy_csv(trace, path) -> None:
    """Energy trace rows `iter,energy` (iteration 0 is the input energy)."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "energy"])
        for i, e in enumerate(trace):
            writer.writerow([i, repr(float(e))])
