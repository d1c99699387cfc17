"""Exact planar primitives on integer coordinates.

The rational kernel scales 2-d inputs by a common denominator and hands the
resulting integer points to these helpers.  Everything here is exact
pure-Python integer arithmetic.
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


def _between_on_segment(q: IntPt, a: IntPt, b: IntPt) -> bool:
    if cross3(a, b, q) != 0:
        return False
    ux, uy = b[0] - a[0], b[1] - a[1]
    t = ux * (q[0] - a[0]) + uy * (q[1] - a[1])
    return 0 <= t <= ux * ux + uy * uy


def separating_halfspace2d(q: IntPt, hull: Sequence[IntPt]) -> tuple:
    """Integer (normal, offset) with hull on the >= side and q strictly below.

    Precondition: q lies outside the hull.
    """
    h = len(hull)
    if h == 1:
        a = hull[0]
        n = (a[0] - q[0], a[1] - q[1])
        return n, n[0] * a[0] + n[1] * a[1]
    if h == 2:
        a, b = hull
        c = cross3(a, b, q)
        if c < 0:
            n = (-(b[1] - a[1]), b[0] - a[0])
            return n, n[0] * a[0] + n[1] * a[1]
        if c > 0:
            n = (b[1] - a[1], -(b[0] - a[0]))
            return n, n[0] * a[0] + n[1] * a[1]
        u = (b[0] - a[0], b[1] - a[1])
        t = u[0] * (q[0] - a[0]) + u[1] * (q[1] - a[1])
        if t < 0:
            return u, u[0] * a[0] + u[1] * a[1]
        n = (-u[0], -u[1])
        return n, n[0] * b[0] + n[1] * b[1]
    for i in range(h):
        a = hull[i]
        b = hull[(i + 1) % h]
        if cross3(a, b, q) < 0:
            n = (-(b[1] - a[1]), b[0] - a[0])
            return n, n[0] * a[0] + n[1] * a[1]
    raise ValueError("point is inside the hull; no separator exists")


def fan_combination(q: IntPt, hull: Sequence[IntPt]) -> Optional[list]:
    """Convex coefficients for q over hull vertices, or None if outside.

    Returns [(vertex, Fraction coefficient)] with positive coefficients
    summing to one; at most three vertices appear (a fan triangle).
    """
    h = len(hull)
    if h == 1:
        return [(tuple(hull[0]), Fraction(1))] if tuple(q) == tuple(hull[0]) else None
    if h == 2:
        a, b = hull
        if not _between_on_segment(q, a, b):
            return None
        ux, uy = b[0] - a[0], b[1] - a[1]
        t = Fraction(ux * (q[0] - a[0]) + uy * (q[1] - a[1]), ux * ux + uy * uy)
        out = []
        if 1 - t > 0:
            out.append((tuple(a), 1 - t))
        if t > 0:
            out.append((tuple(b), t))
        return out
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
        out = []
        for v, coeff in ((v0, alpha), (vi, beta), (vj, gamma)):
            if coeff > 0:
                out.append((tuple(v), coeff))
        return out
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
