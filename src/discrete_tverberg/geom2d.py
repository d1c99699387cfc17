"""Exact planar primitives on integer coordinates.

The rational kernel scales 2-d inputs by a common denominator and hands the
resulting integer points to these helpers: the hull, its edges as integer
halfspaces (which :func:`.exact_geometry.hull_facets` reads for the
separators and the enumerator's facets), and convex coefficients over a
fan triangle.  Everything here is exact pure-Python integer arithmetic.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

IntPt = tuple  # tuple[int, int]


def cross3(o: IntPt, a: IntPt, b: IntPt) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull2d(pts: Sequence[IntPt]) -> list:
    """Strict convex hull, counterclockwise, collinear points dropped.

    Degenerate inputs degrade gracefully: one vertex for a single repeated
    point, two endpoints for a collinear set.
    """
    P = sorted(set(pts))
    if len(P) <= 1:
        return list(P)
    lo = []
    for p in P:
        while len(lo) >= 2 and cross3(lo[-2], lo[-1], p) <= 0:
            lo.pop()
        lo.append(p)
    hi = []
    for p in reversed(P):
        while len(hi) >= 2 and cross3(hi[-2], hi[-1], p) <= 0:
            hi.pop()
        hi.append(p)
    return lo[:-1] + hi[:-1]


def hull_edges(hull: Sequence[IntPt]) -> list:
    """Integer ``(normal, offset)`` per edge of a :func:`hull2d` hull, with
    the hull on the ``normal . x >= offset`` side.

    A polygon has one per counterclockwise edge, a segment two (one per
    side of its line), a point none.
    """
    out = []
    for a, b in zip(hull, hull[1:] + hull[:1]):
        if a != b:
            normal = (a[1] - b[1], b[0] - a[0])
            out.append((normal, normal[0] * a[0] + normal[1] * a[1]))
    return out


def fan_combination(q: IntPt, hull: Sequence[IntPt]) -> Optional[list]:
    """Convex coefficients for q over hull vertices, or None if outside.

    q and the vertices are integer tuples.  Returns [(vertex, Fraction
    coefficient)] with positive coefficients summing to one; at most three
    vertices appear (a fan triangle).
    """
    h = len(hull)
    if h == 1:
        return [(q, Fraction(1))] if q == hull[0] else None
    if h == 2:
        a, b = hull
        ux, uy = b[0] - a[0], b[1] - a[1]
        t = ux * (q[0] - a[0]) + uy * (q[1] - a[1])
        if cross3(a, b, q) or not 0 <= t <= ux * ux + uy * uy:
            return None
        t = Fraction(t, ux * ux + uy * uy)
        return [(v, c) for v, c in ((a, 1 - t), (b, t)) if c > 0]
    v0 = hull[0]
    for i in range(1, h - 1):
        vi = hull[i]
        vj = hull[i + 1]
        if cross3(v0, vi, q) < 0 or cross3(vi, vj, q) < 0 or cross3(vj, v0, q) < 0:
            continue
        det = cross3(v0, vi, vj)
        beta = Fraction(cross3(v0, q, vj), det)
        gamma = Fraction(cross3(v0, vi, q), det)
        alpha = 1 - beta - gamma
        return [(v, c) for v, c in ((v0, alpha), (vi, beta), (vj, gamma)) if c > 0]
    return None


def bulk_depth_values(points: Sequence[IntPt], queries: Sequence[IntPt]) -> list:
    """Depths of many query points against one deduplicated point set.

    Values only, no witnesses: the count of
    :func:`.exact_geometry.depth_count` plus the query itself when it is
    one of the points.  No engine code calls it; it stays only because the
    benchmark's per-layer trace (``perfbench/layers.py``) wraps it by name.
    """
    from .exact_geometry import depth_count  # exact_geometry imports this module

    out = []
    for qx, qy in queries:
        W = [(x - qx, y - qy) for x, y in points if x != qx or y != qy]
        out.append(len(points) - len(W) + depth_count(W, 2)[0])
    return out
