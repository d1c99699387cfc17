"""Exact planar primitives on integer coordinates.

The rational kernel scales 2-d inputs by a common denominator and hands the
resulting integer points to these helpers.  Everything here is exact
pure-Python integer arithmetic.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
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


def _primitive2(v: IntPt) -> IntPt:
    g = gcd(abs(v[0]), abs(v[1]))
    if g > 1:
        return (v[0] // g, v[1] // g)
    return (v[0], v[1])


def _witness_vector(r: IntPt, t: IntPt, W: Sequence[IntPt]) -> IntPt:
    # Concrete direction realizing the count at "r nudged toward t":
    # K*r + t with K past every |t.w| keeps sign(v.w) = sign(r.w) whenever
    # r.w != 0 and equal to sign(t.w) on the boundary class.
    k = 1
    for w in W:
        tw = abs(t[0] * w[0] + t[1] * w[1])
        if tw >= k:
            k = tw + 1
    return _primitive2((k * r[0] + t[0], k * r[1] + t[1]))


def depth2d_min_count(W: Sequence[IntPt]) -> tuple:
    """Minimum over directions v of #{w in W : v.w > 0}, plus a witness v.

    W holds nonzero integer vectors.  Candidate directions are the rays
    orthogonal to each w, each evaluated just past the ray (the orthogonal
    nudge breaks boundary ties exactly); every open sector of the circular
    arrangement starts at such a ray, so the scan is exhaustive.  Ties
    between minimizing candidates resolve to the lexicographically smallest
    primitive witness vector.
    """
    rays = {}
    for w in W:
        rays.setdefault(_primitive2((-w[1], w[0])), None)
        rays.setdefault(_primitive2((w[1], -w[0])), None)
    best_count = None
    best_witness = None
    for r in rays:
        t = (-r[1], r[0])
        cnt = 0
        for w in W:
            rw = r[0] * w[0] + r[1] * w[1]
            if rw > 0:
                cnt += 1
            elif rw == 0 and t[0] * w[0] + t[1] * w[1] > 0:
                cnt += 1
        if best_count is None or cnt < best_count:
            best_count = cnt
            best_witness = _witness_vector(r, t, W)
        elif cnt == best_count:
            wv = _witness_vector(r, t, W)
            if wv < best_witness:
                best_witness = wv
    return best_count, best_witness


def bulk_depth_values(points: Sequence[IntPt], queries: Sequence[IntPt]) -> list:
    """Depths of many query points against one deduplicated point set.

    Values only, no witnesses: the count of :func:`depth2d_min_count` plus
    the query itself when it is one of the points.
    """
    out = []
    for qx, qy in queries:
        W = [(x - qx, y - qy) for x, y in points if x != qx or y != qy]
        z = len(points) - len(W)
        out.append(z + depth2d_min_count(W)[0] if W else z)
    return out


def scan_columns(hull: Sequence[IntPt], den: int, xs: range, ys: range) -> list:
    """Integer points (x, y), x in xs and y in ys, with den*(x, y) in the hull.

    The hull comes from :func:`hull2d`, so it lies left of each edge a->b:
    cross(b - a, den*(x, y) - a) >= 0.  In the column at x a rightward edge
    makes that a lower bound on y and a leftward edge an upper bound.  A
    vertical edge of a convex polygon sits at its least or greatest x, so
    xs must be the integer x-extent of hull/den; ys clips every column.
    """
    edges = [(a, b) for a, b in zip(hull, hull[1:] + hull[:1]) if a[0] != b[0]]
    out = []
    for x in xs:
        lo, hi = ys.start, ys.stop - 1
        for (ax, ay), (bx, by) in edges:
            ex = bx - ax
            num = (by - ay) * (den * x - ax) + ex * ay
            if ex > 0:
                lo = max(lo, -(-num // (ex * den)))
            else:
                hi = min(hi, num // (ex * den))
        out.extend((x, y) for y in range(lo, hi + 1))
    return out
