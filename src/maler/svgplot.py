"""Minimal deterministic SVG line plots for regret curves."""

from __future__ import annotations

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# Canvas size in pixels, and the number of tick intervals on each axis.
WIDTH, HEIGHT = 720, 440
TICKS = 5


def _ticks(lo: float, hi: float) -> list:
    if hi <= lo:
        hi = lo + 1.0
    span = (hi - lo) / TICKS
    return [lo + span * i for i in range(TICKS + 1)]


def render_lines(series: dict, title: str, xlabel: str, ylabel: str) -> str:
    """Render named float series as one SVG document string."""
    ml, mr, mt, mb = 64, 160, 40, 48
    pw, ph = WIDTH - ml - mr, HEIGHT - mt - mb
    xmax = max((len(v) for v in series.values()), default=1)
    ymin = min((min(v) for v in series.values() if len(v)), default=0.0)
    ymax = max((max(v) for v in series.values() if len(v)), default=1.0)
    ymin = min(ymin, 0.0)
    if ymax <= ymin:
        ymax = ymin + 1.0

    def sx(i: float) -> float:
        return ml + pw * (i / max(xmax - 1, 1))

    def sy(v: float) -> float:
        return mt + ph * (1.0 - (v - ymin) / (ymax - ymin))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{ml}" y="{mt - 16}" font-size="14">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    for v in _ticks(ymin, ymax):
        y = sy(v)
        out.append(f'<line x1="{ml}" y1="{y:.2f}" x2="{ml + pw}" y2="{y:.2f}" stroke="#ddd"/>')
        out.append(f'<text x="{ml - 8}" y="{y + 4:.2f}" text-anchor="end">{v:.4g}</text>')
    for v in _ticks(0, xmax - 1):
        x = sx(v)
        out.append(f'<line x1="{x:.2f}" y1="{mt}" x2="{x:.2f}" y2="{mt + ph}" stroke="#eee"/>')
        out.append(f'<text x="{x:.2f}" y="{mt + ph + 18}" text-anchor="middle">{v:.4g}</text>')
    out.append(
        f'<text x="{ml + pw / 2:.2f}" y="{HEIGHT - 10}" text-anchor="middle">{xlabel}</text>'
    )
    out.append(
        f'<text x="16" y="{mt + ph / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt + ph / 2:.2f})">{ylabel}</text>'
    )
    for j, (name, vals) in enumerate(series.items()):
        color = PALETTE[j % len(PALETTE)]
        pts = " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(vals))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 16 + 18 * j
        out.append(f'<line x1="{ml + pw + 12}" y1="{ly}" x2="{ml + pw + 36}" y2="{ly}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{ml + pw + 42}" y="{ly + 4}">{name}</text>')
    out.append("</svg>")
    return "\n".join(out)
