"""Deterministic SVG rendering of a script environment.

Fixed 512x512 viewport.  The world window is fitted to the euclidean points
with a 10% margin and squared up to keep the aspect ratio; euclidean lines
are clipped against it; ideal points are drawn as fixed-length arrows from
the centroid of the euclidean points.  A figure with no euclidean point is
placed about the origin.  Each element is labelled with its name, XML-escaped.
Identical environments produce byte-identical files.
"""

import math
from itertools import combinations

from .elements import Line, Point
from .errors import DomainError, RenderError
from .metric import view
from .multivector import DEFAULT_TOL, near_zero

VIEW = 512.0
_ARROW_LEN = 0.18 * VIEW


def _world_window(xs, ys):
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    span = max(x1 - x0, y1 - y0)
    if span <= 0.0:
        span, x0, x1, y0, y1 = 2.0, x0 - 1.0, x1 + 1.0, y0 - 1.0, y1 + 1.0
    pad = 0.1 * span
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    # square up, centered, so x and y scales agree
    w, h = x1 - x0, y1 - y0
    side = max(w, h)
    dx, dy = 0.5 * (side - w), 0.5 * (side - h)
    return x0 - dx, x1 + dx, y0 - dy, y1 + dy


def _clip_line(a: float, b: float, c: float, window, tol: float):
    """The two points where the normalized line ax + by + c = 0 crosses the
    window border, if visible.  A normal component counts against 1 and a
    crossing's distance outside the border against the window's span."""
    x0, x1, y0, y1 = window
    span = max(x1 - x0, y1 - y0)
    ends = []
    if not near_zero(b, 1.0, tol):  # the left border, then the right
        y = -(a * x0 + c) / b
        if y0 <= y <= y1 or near_zero(max(y0 - y, y - y1), span, tol):
            ends.append((x0, y))
        y = -(a * x1 + c) / b
        if y0 <= y <= y1 or near_zero(max(y0 - y, y - y1), span, tol):
            ends.append((x1, y))
    if not near_zero(a, 1.0, tol):  # the bottom border, then the top
        x = -(b * y0 + c) / a
        if x0 <= x <= x1 or near_zero(max(x0 - x, x - x1), span, tol):
            ends.append((x, y0))
        x = -(b * y1 + c) / a
        if x0 <= x <= x1 or near_zero(max(x0 - x, x - x1), span, tol):
            ends.append((x, y1))
    if len(ends) > 2:
        # a corner within tol of the line is a crossing of both its borders:
        # keep the farthest pair, the first of equals
        ends = max(combinations(ends, 2), key=lambda pair: math.dist(*pair))
    return None if len(ends) < 2 or near_zero(math.dist(*ends), span, tol) else ends


# one format per element; every number has two decimals, so a negative zero
# reads -0.00 wherever it is, and no name passes through these strings
_HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>\n<svg xmlns="http://www.w3.org/2000/svg" width="512" '
    'height="512" viewBox="0 0 512 512">\n<rect width="512" height="512" fill="white"/>\n'
)
_CIRCLE = '<circle cx="%.2f" cy="%.2f" r="4.00" fill="#1f77b4"/>\n'
_LINE = '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#333333" stroke-width="1.5"/>\n'
# an arrow's template gets its figure's anchor, "%.2f %.2f", in place of {},
# and each of its three %s the same tip, formatted once
_ARROW = (
    '<path d="M {} L %s M %s L %.2f %.2f M %s L %.2f %.2f" '
    'stroke="#d62728" fill="none" stroke-width="1.5"/>\n'
)
_LABEL = '<text x="%.2f" y="%.2f" font-family="monospace" font-size="12" fill="#111111">'


def build_svg(env: dict, tol: float = DEFAULT_TOL) -> str:
    """Compose the SVG document for the drawable elements of env, each
    labelled with its name, a str."""
    drawn, xs, ys = [], [], []  # (shape template, name, fields), in env order
    try:
        for name, value in env.items():
            if isinstance(value, Point):
                ideal, fields = view(value, tol)
                if not ideal:
                    xs.append(fields[0])
                    ys.append(fields[1])
                drawn.append((_ARROW if ideal else _CIRCLE, name, fields))
            elif isinstance(value, Line):
                ideal, fields = view(value, tol)
                if not ideal:
                    drawn.append((_LINE, name, fields))
    except DomainError as exc:  # a shown element overflows or has no unit form
        raise RenderError(f"cannot draw the figure: {exc}") from exc
    if not drawn:
        raise RenderError("nothing to render")
    if not xs:
        xs = ys = [0.0]
    window = _world_window(xs, ys)
    x0, x1, y0, _ = window
    width = x1 - x0  # 0 when the unit pad is lost next to a huge coordinate
    if not 0.0 < width < math.inf:
        raise RenderError("the figure is too large to fit the viewport")
    scale = VIEW / width
    ax = (sum(xs) / len(xs) - x0) * scale
    ay = VIEW - (sum(ys) / len(ys) - y0) * scale
    # rounding next to a huge coordinate can also leave the squared-up window
    # shorter than the points' height, or the anchor, their centroid, outside
    # them, and a subnormal width makes the scale inf: the topmost point and
    # the anchor must print within the viewport
    top = VIEW - (max(ys) - y0) * scale
    if not all([0.0 <= float("%.2f" % v) <= VIEW for v in (top, ax, ay)]):
        raise RenderError("the figure is too large to fit the viewport")
    # the anchor is formatted once for the figure, and each tip once per arrow
    arrow = _ARROW.format("%.2f %.2f" % (ax, ay))
    shapes, nums, names, at = [], [], [], []  # at: each label's x and y
    for shape, name, (f0, f1, f2) in drawn:
        if shape is _CIRCLE:
            px, py = (f0 - x0) * scale, VIEW - (f1 - y0) * scale
            nums += (px, py)
        elif shape is _LINE:
            clip = _clip_line(f0, f1, f2, window, tol)
            if clip is None:
                continue
            (wx1, wy1), (wx2, wy2) = clip
            px1, py1 = (wx1 - x0) * scale, VIEW - (wy1 - y0) * scale
            px2, py2 = (wx2 - x0) * scale, VIEW - (wy2 - y0) * scale
            nums += (px1, py1, px2, py2)
            px, py = 0.75 * px1 + 0.25 * px2, 0.75 * py1 + 0.25 * py2
        else:  # arrow from the anchor; head: two barbs splayed back from the tip
            px, py = ax + _ARROW_LEN * f0, ay - _ARROW_LEN * f1
            lx, ly = px + 8.0 * (-f0 - 0.5 * f1), py + 8.0 * (f1 - 0.5 * f0)
            rx, ry = px + 8.0 * (0.5 * f1 - f0), py + 8.0 * (f1 + 0.5 * f0)
            tip = "%.2f %.2f" % (px, py)
            # the shaft, then each barb from the tip
            nums += (tip, tip, lx, ly, tip, rx, ry)
            shape = arrow
        shapes.append(shape)
        names.append(name)
        at += (px + 6.0, py - 6.0)
    body = ("".join(shapes) % tuple(nums)).replace("-0.00", "0.00")
    heads = ("\n".join([_LABEL] * len(names)) % tuple(at)).replace("-0.00", "0.00").split("\n")
    text = "".join(names)
    if "&" in text or "<" in text or ">" in text:  # a name from a library caller
        names = [n.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;") for n in names]
    labels = "".join([f"{head}{name}</text>\n" for head, name in zip(heads, names)])
    return f"{_HEAD}{body}{labels}</svg>\n"


def render_svg(env: dict, path, tol: float = DEFAULT_TOL) -> None:
    """Write the rendered environment to path; byte-identical for equal input."""
    text = build_svg(env, tol)
    try:
        f = open(path, "w", encoding="utf-8")
    except ValueError as exc:  # a NUL byte in the path
        raise RenderError(f"{exc}: {path!r}") from exc
    with f:
        f.write(text)
