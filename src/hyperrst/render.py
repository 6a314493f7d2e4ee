"""SVG rendering of d=1 trees in the Poincare disc.

Edges are drawn as circular arcs orthogonal to the unit circle (hyperbolic
geodesics), or optionally as polylines sampling the monotone star paths.
Subtrees hanging off each root child get their own hue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from xml.sax.saxutils import escape

import numpy as np

from . import rst
from .hgeom import GeometryError

COLLINEAR_TOL = 1e-9
POLYLINE_SEGMENTS = 32  # straight pieces per star-path polyline edge


@dataclass(frozen=True)
class SvgScene:
    disc_px: float = 800.0
    edge_style: str = "geodesic-arc"  # or "star-path-polyline"
    colors: bool = True

    def __post_init__(self):
        if self.edge_style not in ("geodesic-arc", "star-path-polyline"):
            raise GeometryError(f"unknown edge style {self.edge_style!r}")
        if not self.disc_px > 0:
            raise GeometryError(f"disc_px must be > 0, not {self.disc_px!r}")


@dataclass(frozen=True)
class GeodesicArc:
    """Arc data for the circle through two disc points orthogonal to the
    boundary; `line` marks the degenerate diameter case."""

    p1: tuple
    p2: tuple
    line: bool
    center: tuple | None = None
    radius: float | None = None


def geodesic_arc(b1: np.ndarray, b2: np.ndarray) -> GeodesicArc:
    """Solve 2 c . b_i = |b_i|^2 + 1 for the orthogonal-circle center c.

    The system degenerates exactly when b1, b2 and the disc center are
    collinear; the geodesic is then a diameter segment.
    """
    b1 = np.asarray(b1, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    det = 2.0 * (b1[0] * b2[1] - b1[1] * b2[0])
    if abs(det) < COLLINEAR_TOL:
        return GeodesicArc(p1=tuple(b1), p2=tuple(b2), line=True)
    rhs1 = float(b1 @ b1) + 1.0
    rhs2 = float(b2 @ b2) + 1.0
    cx = (rhs1 * b2[1] - rhs2 * b1[1]) / det
    cy = (rhs2 * b1[0] - rhs1 * b2[0]) / det
    c = np.array([cx, cy])
    radius = math.sqrt(float(c @ c) - 1.0)
    return GeodesicArc(p1=tuple(b1), p2=tuple(b2), line=False, center=(cx, cy), radius=radius)


def _svg_coords(p) -> tuple:
    # SVG y grows downward; flip to keep the mathematical orientation
    return p[0], -p[1]


def _arc_path(arc: GeodesicArc) -> str:
    x1, y1 = _svg_coords(arc.p1)
    x2, y2 = _svg_coords(arc.p2)
    if arc.line:
        return f"M {x1:.6f} {y1:.6f} L {x2:.6f} {y2:.6f}"
    cx, cy = _svg_coords(arc.center)
    # W3C endpoint parameterization: with large-arc 0, the sweep flag follows
    # the side of the chord the center sits on
    hx, hy = (x1 - x2) / 2.0, (y1 - y2) / 2.0
    mx, my = (x1 + x2) / 2.0, (y1 + y2) / 2.0
    side = (cx - mx) * hy - (cy - my) * hx
    sweep = 1 if side > 0 else 0
    r = arc.radius
    return f"M {x1:.6f} {y1:.6f} A {r:.6f} {r:.6f} 0 0 {sweep} {x2:.6f} {y2:.6f}"


def _component_hues(tree: rst.RadialTree) -> tuple:
    """Root-child subtree id per node and golden-angle hue per subtree."""
    comp = np.arange(len(tree))
    for layer in tree.layers[1:]:
        comp[layer] = comp[tree.parent[layer]]
    roots = tree.root_children()
    hue = {int(r): (k * 137.508) % 360.0 for k, r in enumerate(roots)}
    return comp, hue


def _star_polylines(tree: rst.RadialTree) -> list:
    """The d attribute of every edge's star-path polyline: POLYLINE_SEGMENTS + 1
    points per edge, from the child to the parent, all edges in one pass."""
    n = len(tree)
    k = POLYLINE_SEGMENTS + 1
    t = np.tile(np.linspace(0.0, 1.0, k), n)
    rho, _, dirs = rst.star_points(tree, np.repeat(np.arange(n), k), t)
    pts = np.tanh(rho / 2.0)[:, None] * dirs
    # the origin, the end of a root edge, is (0, 0) and not a signed zero
    pts[rho == 0.0] = 0.0
    x, y = _svg_coords(pts.T)
    coords = [f"{a:.6f} {b:.6f}" for a, b in zip(x.tolist(), y.tolist())]
    return ["M " + " L ".join(coords[i * k : (i + 1) * k]) for i in range(n)]


def require_disc(d: int) -> None:
    """Refuse any dimension but d = 1, the one the Poincare disc draws."""
    if d != 1:
        raise GeometryError("SVG rendering is defined for d = 1 only")


def render_svg(tree: rst.RadialTree, scene: SvgScene) -> str:
    """Figure-style Poincare disc rendering; pure function of (tree, scene)."""
    require_disc(tree.cloud.config.d)
    n = len(tree)
    ball = np.tanh(tree.radii / 2.0)[:, None] * tree.dirs
    comp, hue = _component_hues(tree) if n else (np.empty(0, dtype=np.int64), {})
    if scene.edge_style == "star-path-polyline":
        paths = _star_polylines(tree)
    else:
        ends = [ball[p] if p != rst.ROOT else np.zeros(2) for p in tree.parent]
        paths = [_arc_path(geodesic_arc(b, e)) for b, e in zip(ball, ends)]
    half = 1.05
    size = scene.disc_px
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:g}" height="{size:g}" '
        f'viewBox="{-half} {-half} {2 * half} {2 * half}">',
        '<circle cx="0" cy="0" r="1" fill="white" stroke="black" stroke-width="0.004"/>',
    ]
    for i in range(n):
        color = f"hsl({hue[int(comp[i])]:.1f},70%,40%)" if scene.colors else "black"
        parts.append(f'<path d="{escape(paths[i])}" fill="none" stroke="{color}" stroke-width="0.0025"/>')
    for i in range(n):
        x, y = _svg_coords(ball[i])
        parts.append(f'<circle cx="{x:.6f}" cy="{y:.6f}" r="0.003" fill="black"/>')
    parts.append('<circle cx="0" cy="0" r="0.006" fill="red"/>')
    parts.append("</svg>")
    return "\n".join(parts)
