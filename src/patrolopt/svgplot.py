"""Hand-rolled SVG output: instance maps with routes, and cost-vs-horizon curves.

Everything is assembled from formatted strings with fixed precision, so the
same inputs always produce the same bytes.  No plotting stack, no fonts to
rasterize, nothing non-deterministic.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

from .graph import DEPOT, FleetPlan
from .instance_io import Instance

AGENT_COLORS = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
PLANNER_COLORS = {"tocp": "#d62728", "top": "#1f77b4", "greedy": "#2ca02c"}


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def render_instance(instance: Instance, plan: Optional[FleetPlan] = None) -> str:
    """Map of the graph with optional agent routes drawn over it."""
    size = 640.0
    margin = 50.0
    xs = [p[0] for p in instance.positions]
    ys = [p[1] for p in instance.positions]
    lo = min(min(xs), min(ys)) - 0.6
    hi = max(max(xs), max(ys)) + 0.6
    span = max(hi - lo, 1e-9)
    scale = (size - 2 * margin) / span

    def sx(x: float) -> float:
        return margin + (x - lo) * scale

    def sy(y: float) -> float:
        # Flip so larger y draws upward.
        return size - margin - (y - lo) * scale

    def pos(v: int) -> Tuple[float, float]:
        x, y = instance.positions[v - 1]
        return sx(x), sy(y)

    parts: List[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(size)}" '
        f'height="{int(size)}" viewBox="0 0 {int(size)} {int(size)}">'
    )
    parts.append(f'<rect width="{int(size)}" height="{int(size)}" fill="white"/>')
    parts.append(
        f'<text x="{_fmt(margin)}" y="24" font-family="monospace" font-size="14">'
        f"N={instance.num_vertices} M={instance.num_agents} "
        f"l_max={instance.l_max:.2f} H={instance.horizon}</text>"
    )
    for (i, j, _l) in instance.edges:
        (x1, y1), (x2, y2) = pos(i), pos(j)
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="#cccccc" stroke-width="1.2"/>'
        )
    if plan is not None:
        for idx, route in enumerate(plan.routes):
            color = AGENT_COLORS[idx % len(AGENT_COLORS)]
            # Small per-agent sideways shift so overlapping routes stay visible.
            shift = 2.6 * (idx - (len(plan.routes) - 1) / 2.0)
            for a, b in zip(route, route[1:]):
                (x1, y1), (x2, y2) = pos(a), pos(b)
                dx, dy = x2 - x1, y2 - y1
                norm = max((dx * dx + dy * dy) ** 0.5, 1e-9)
                ox, oy = -dy / norm * shift, dx / norm * shift
                parts.append(
                    f'<line x1="{_fmt(x1 + ox)}" y1="{_fmt(y1 + oy)}" '
                    f'x2="{_fmt(x2 + ox)}" y2="{_fmt(y2 + oy)}" '
                    f'stroke="{color}" stroke-width="2.2" stroke-opacity="0.85"/>'
                )
            parts.append(
                f'<text x="{_fmt(size - margin - 150)}" y="{_fmt(28.0 + 16 * idx)}" '
                f'font-family="monospace" font-size="12" fill="{color}">'
                f"agent {idx + 1}: len {plan.lengths[idx]:.2f}</text>"
            )
    must = set(instance.must_visit)
    for v in range(1, instance.num_vertices + 1):
        x, y = pos(v)
        if v == DEPOT:
            parts.append(
                f'<rect x="{_fmt(x - 8)}" y="{_fmt(y - 8)}" width="16" height="16" '
                f'fill="#222222"/>'
            )
            label_fill = "white"
        else:
            stroke = "#d62728" if v in must else "#333333"
            width = "3" if v in must else "1.5"
            parts.append(
                f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="9" fill="white" '
                f'stroke="{stroke}" stroke-width="{width}"/>'
            )
            label_fill = "#333333"
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y + 3.5)}" font-family="monospace" '
            f'font-size="9" text-anchor="middle" fill="{label_fill}">{v}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_cost_curves(table: List[Dict]) -> str:
    """Mean episode cost against horizon, one polyline per planner.

    table rows: {"planner": str, "H": int, "mean_cost": float}.
    """
    width, height = 560.0, 400.0
    ml, mr, mt, mb = 70.0, 30.0, 30.0, 60.0
    horizons = sorted({row["H"] for row in table})
    planners = sorted({row["planner"] for row in table})
    if not horizons:
        raise ValueError("no rows to plot")
    max_cost = max(row["mean_cost"] for row in table)
    max_cost = max(max_cost * 1.1, 1e-9)

    def px(h: float) -> float:
        if len(horizons) == 1:
            return ml + (width - ml - mr) / 2.0
        return ml + (h - horizons[0]) / (horizons[-1] - horizons[0]) * (width - ml - mr)

    def py(c: float) -> float:
        return height - mb - (c / max_cost) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(width)}" '
        f'height="{int(height)}" viewBox="0 0 {int(width)} {int(height)}">',
        f'<rect width="{int(width)}" height="{int(height)}" fill="white"/>',
        f'<line x1="{_fmt(ml)}" y1="{_fmt(height - mb)}" x2="{_fmt(width - mr)}" '
        f'y2="{_fmt(height - mb)}" stroke="black" stroke-width="1.5"/>',
        f'<line x1="{_fmt(ml)}" y1="{_fmt(height - mb)}" x2="{_fmt(ml)}" '
        f'y2="{_fmt(mt)}" stroke="black" stroke-width="1.5"/>',
    ]
    for h in horizons:
        parts.append(
            f'<text x="{_fmt(px(h))}" y="{_fmt(height - mb + 18)}" '
            f'font-family="monospace" font-size="11" text-anchor="middle">{h}</text>'
        )
        parts.append(
            f'<line x1="{_fmt(px(h))}" y1="{_fmt(height - mb)}" x2="{_fmt(px(h))}" '
            f'y2="{_fmt(height - mb + 5)}" stroke="black" stroke-width="1"/>'
        )
    for k in range(5):
        c = max_cost * k / 4.0
        parts.append(
            f'<text x="{_fmt(ml - 8)}" y="{_fmt(py(c) + 3.5)}" font-family="monospace" '
            f'font-size="11" text-anchor="end">{c:.1f}</text>'
        )
        parts.append(
            f'<line x1="{_fmt(ml - 5)}" y1="{_fmt(py(c))}" x2="{_fmt(ml)}" '
            f'y2="{_fmt(py(c))}" stroke="black" stroke-width="1"/>'
        )
    parts.append(
        f'<text x="{_fmt((ml + width - mr) / 2)}" y="{_fmt(height - 16)}" '
        f'font-family="monospace" font-size="13" text-anchor="middle">horizon H</text>'
    )
    parts.append(
        f'<text x="18" y="{_fmt((mt + height - mb) / 2)}" font-family="monospace" '
        f'font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {_fmt((mt + height - mb) / 2)})">mean total cost</text>'
    )
    by_planner: Dict[str, List[Tuple[int, float]]] = {p: [] for p in planners}
    for row in table:
        by_planner[row["planner"]].append((row["H"], row["mean_cost"]))
    for idx, planner in enumerate(planners):
        pts = sorted(by_planner[planner])
        color = PLANNER_COLORS.get(planner, AGENT_COLORS[idx % len(AGENT_COLORS)])
        path = " ".join(f"{_fmt(px(h))},{_fmt(py(c))}" for h, c in pts)
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="2.2"/>'
        )
        for h, c in pts:
            parts.append(
                f'<circle cx="{_fmt(px(h))}" cy="{_fmt(py(c))}" r="3.5" fill="{color}"/>'
            )
        parts.append(
            f'<text x="{_fmt(width - mr - 110)}" y="{_fmt(mt + 16 * idx + 8)}" '
            f'font-family="monospace" font-size="12" fill="{color}">{planner}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(text: str, path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)
