"""Minimal hand-emitted SVG line charts (no plotting dependency).

A chart is a pure function of its input series, so emitting the same data
twice produces byte-identical SVG.
"""

from __future__ import annotations

__all__ = ["line_chart"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd",
            "#ff7f0e", "#17becf", "#8c564b", "#7f7f7f")


def _span(lo: float, hi: float):
    """``(lo, hi)`` with hi > lo: an empty span widens to lo + 1, or where
    that rounds back to lo, by half of lo's magnitude towards zero."""
    if hi <= lo:
        lo, hi = (lo, lo + 1.0) if lo + 1.0 > lo else sorted((lo, lo / 2.0))
    return lo, hi


def _ticks(lo: float, hi: float) -> list[float]:
    """Five evenly spaced ticks from lo to hi."""
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def line_chart(series: dict[str, list[tuple[float, float]]],
               title: str, x_label: str, y_label: str) -> str:
    """Render named (x, y) polylines with axes, ticks, and a legend."""
    width, height = 720, 440
    left, right, top, bottom = 70, 20, 40, 50
    plot_w = width - left - right
    plot_h = height - top - bottom

    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    if not xs:
        xs = ys = [0.0, 1.0]
    x_lo, x_hi = _span(min(xs), max(xs))
    y_lo, y_hi = _span(min(ys), max(ys))
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x: float) -> float:
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return top + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    axis = 'stroke="#333" stroke-width="1"'
    out.append(f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" '
               f'y2="{top + plot_h}" {axis}/>')
    out.append(f'<line x1="{left}" y1="{top}" x2="{left}" '
               f'y2="{top + plot_h}" {axis}/>')
    for tx in _ticks(x_lo, x_hi):
        out.append(f'<line x1="{px(tx):.1f}" y1="{top + plot_h}" '
                   f'x2="{px(tx):.1f}" y2="{top + plot_h + 5}" {axis}/>')
        out.append(f'<text x="{px(tx):.1f}" y="{top + plot_h + 20}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{tx:g}</text>')
    for ty in _ticks(y_lo, y_hi):
        out.append(f'<line x1="{left - 5}" y1="{py(ty):.1f}" x2="{left}" '
                   f'y2="{py(ty):.1f}" {axis}/>')
        out.append(f'<text x="{left - 8}" y="{py(ty) + 4:.1f}" '
                   f'text-anchor="end" font-family="sans-serif" '
                   f'font-size="11">{ty:.4g}</text>')
    out.append(f'<text x="{left + plot_w / 2:.1f}" y="{height - 12}" '
               f'text-anchor="middle" font-family="sans-serif" '
               f'font-size="12">{x_label}</text>')
    out.append(f'<text x="18" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 18 {top + plot_h / 2:.1f})">{y_label}</text>')

    for i, (name, pts) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        pts = sorted(pts)
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        out.append(f'<polyline points="{coords}" fill="none" '
                   f'stroke="{color}" stroke-width="1.8"/>')
        ly = top + 14 + 16 * i
        lx = left + plot_w - 150
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                   f'y2="{ly - 4}" stroke="{color}" stroke-width="2.5"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                   f'font-size="11">{name}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
