"""Deterministic SVG rendering of a script environment.

Fixed 512x512 viewport.  The world window is fitted to the euclidean points
with a 10% margin and squared up to keep the aspect ratio; euclidean lines
are clipped against it; ideal points are drawn as fixed-length arrows from
the centroid of the euclidean points.  A figure with no euclidean point is
placed about the origin.  Identical environments produce byte-identical
files.
"""

from __future__ import annotations

import math
from pathlib import Path

from .elements import Line, Point
from .errors import DomainError, RenderError
from .metric import view
from .multivector import DEFAULT_TOL, near_zero

VIEW = 512.0
_POINT_RADIUS = 4.0
_ARROW_LEN = 0.18 * VIEW
_LABEL_OFFSET = (6.0, -6.0)


def _fmt(v: float) -> str:
    out = f"{v:.2f}"
    return "0.00" if out == "-0.00" else out


def _gather(env: dict, tol: float):
    """Insertion-ordered drawables: (kind, name, payload)."""
    drawables = []
    for name, value in env.items():
        if isinstance(value, (Point, Line)):
            ideal, shown = view(value, tol)
            if isinstance(value, Point):
                drawables.append(("arrow" if ideal else "point", name, shown))
            elif not ideal:
                drawables.append(("line", name, shown))
    return drawables


def _world_window(xs, ys):
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    span = max(x1 - x0, y1 - y0)
    if span <= 0.0:
        span = 2.0
        x0, x1 = x0 - 1.0, x1 + 1.0
        y0, y1 = y0 - 1.0, y1 + 1.0
    pad = 0.1 * span
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    # square up, centered, so x and y scales agree
    w, h = x1 - x0, y1 - y0
    side = max(w, h)
    x0 -= 0.5 * (side - w)
    x1 += 0.5 * (side - w)
    y0 -= 0.5 * (side - h)
    y1 += 0.5 * (side - h)
    return x0, x1, y0, y1


def _clip_line(a: float, b: float, c: float, window, tol: float):
    """Intersections of the normalized line ax + by + c = 0 with the window
    border, if visible.  A normal component counts against 1 and a crossing's
    distance outside the border against the window's span."""
    x0, x1, y0, y1 = window
    span = max(x1 - x0, y1 - y0)
    candidates = []
    if not near_zero(b, 1.0, tol):
        for x in (x0, x1):
            y = -(a * x + c) / b
            if y0 <= y <= y1 or near_zero(max(y0 - y, y - y1), span, tol):
                candidates.append((x, y))
    if not near_zero(a, 1.0, tol):
        for y in (y0, y1):
            x = -(b * y + c) / a
            if x0 <= x <= x1 or near_zero(max(x0 - x, x - x1), span, tol):
                candidates.append((x, y))
    best = None
    for i in range(len(candidates)):
        for j in range(i + 1, len(candidates)):
            p, q = candidates[i], candidates[j]
            d = math.hypot(p[0] - q[0], p[1] - q[1])
            if best is None or d > best[0]:
                best = (d, p, q)
    if best is None or near_zero(best[0], span, tol):
        return None
    return best[1], best[2]


def build_svg(env: dict, tol: float = DEFAULT_TOL) -> str:
    """Compose the SVG document for the drawable elements of env."""
    try:
        drawables = _gather(env, tol)
    except DomainError as exc:  # a shown coordinate overflows
        raise RenderError(f"cannot draw the figure: {exc}") from exc
    if not drawables:
        raise RenderError("nothing to render")
    xs, ys = zip(*([p for kind, _, p in drawables if kind == "point"] or [(0.0, 0.0)]))
    window = _world_window(xs, ys)
    x0, x1, y0, _ = window
    width = x1 - x0  # 0 when the unit pad is lost next to a huge coordinate
    if not 0.0 < width < math.inf:
        raise RenderError("the figure is too large to fit the viewport")
    scale = VIEW / width

    def to_px(x: float, y: float) -> tuple[float, float]:
        return (x - x0) * scale, VIEW - (y - y0) * scale

    anchor = to_px(sum(xs) / len(xs), sum(ys) / len(ys))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{VIEW:.0f}" '
        f'height="{VIEW:.0f}" viewBox="0 0 {VIEW:.0f} {VIEW:.0f}">',
        f'<rect width="{VIEW:.0f}" height="{VIEW:.0f}" fill="white"/>',
    ]
    labels = []

    def label(px: float, py: float, name: str):
        labels.append(
            f'<text x="{_fmt(px + _LABEL_OFFSET[0])}" y="{_fmt(py + _LABEL_OFFSET[1])}" '
            f'font-family="monospace" font-size="12" fill="#111111">{name}</text>'
        )

    for kind, name, payload in drawables:
        if kind == "point":
            px, py = to_px(*payload)
            parts.append(
                f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(_POINT_RADIUS)}" '
                f'fill="#1f77b4"/>'
            )
            label(px, py, name)
        elif kind == "line":
            clip = _clip_line(*payload, window, tol)
            if clip is None:
                continue
            (wx1, wy1), (wx2, wy2) = clip
            px1, py1 = to_px(wx1, wy1)
            px2, py2 = to_px(wx2, wy2)
            parts.append(
                f'<line x1="{_fmt(px1)}" y1="{_fmt(py1)}" x2="{_fmt(px2)}" '
                f'y2="{_fmt(py2)}" stroke="#333333" stroke-width="1.5"/>'
            )
            label(0.75 * px1 + 0.25 * px2, 0.75 * py1 + 0.25 * py2, name)
        else:  # arrow
            ux, uy = payload
            tip = (anchor[0] + _ARROW_LEN * ux, anchor[1] - _ARROW_LEN * uy)
            # head: two barbs splayed back from the tip
            back = (-ux, uy)
            left = (-uy, -ux)
            barb = 8.0
            b1 = (tip[0] + barb * (back[0] + 0.5 * left[0]), tip[1] + barb * (back[1] + 0.5 * left[1]))
            b2 = (tip[0] + barb * (back[0] - 0.5 * left[0]), tip[1] + barb * (back[1] - 0.5 * left[1]))
            parts.append(
                '<path d="M {} {} L {} {} M {} {} L {} {} M {} {} L {} {}" '
                'stroke="#d62728" fill="none" stroke-width="1.5"/>'.format(
                    _fmt(anchor[0]), _fmt(anchor[1]), _fmt(tip[0]), _fmt(tip[1]),
                    _fmt(tip[0]), _fmt(tip[1]), _fmt(b1[0]), _fmt(b1[1]),
                    _fmt(tip[0]), _fmt(tip[1]), _fmt(b2[0]), _fmt(b2[1]),
                )
            )
            label(*tip, name)
    parts.extend(labels)
    parts.append("</svg>")
    return "".join(f"{p}\n" for p in parts)


def render_svg(env: dict, path, tol: float = DEFAULT_TOL) -> None:
    """Write the rendered environment to path; byte-identical for equal input."""
    text = build_svg(env, tol)
    Path(path).write_text(text, encoding="utf-8")
