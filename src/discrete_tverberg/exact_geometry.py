"""Exact convex-position tests, certificates, and halfspace depth.

All geometry runs over Fraction coordinates.  Planar inputs are scaled to
integers and dispatched to :mod:`.geom2d`; higher dimensions use a phase-1
simplex for membership, and depth outside the plane uses a wall
recursion.  Every verdict carries a certificate that can be re-checked
independently of the code that produced it.

Conventions:
  * a separating halfspace keeps the point SET on the ``normal . x >= offset``
    side and the query strictly below;
  * duplicate input points collapse before extreme points or depth are
    counted;
  * depth witnesses are halfspaces with the query on the boundary and a
    generic normal (no other point of the set on the boundary hyperplane),
    so re-counting the closed side reproduces the depth exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from . import geom2d
from .linprog import ExactSimplex, solve_feasibility
from .vectors import (
    ONE,
    ZERO,
    Vec,
    frac,
    int_scaled,
    is_zero,
    vdot,
    vec,
    vsub,
)


def _dedup(points: Sequence[Vec]) -> list:
    seen = {}
    for p in points:
        seen.setdefault(p, None)
    return list(seen)


def _as_points(points) -> list:
    return [vec(p) for p in points]


def _check_dims(query: Vec, pts: Sequence[Vec]) -> None:
    d = len(query)
    if any(len(p) != d for p in pts):
        raise ValueError("dimension mismatch between query and point set")


# ---------------------------------------------------------------------------
# certificate types


@dataclass(frozen=True)
class ConvexCombination:
    """Convex combination with strictly positive coefficients.

    ``terms`` pairs support points with weights; weights sum to one.
    """

    terms: tuple  # ((Vec, Fraction), ...)

    def point(self) -> Vec:
        dim = len(self.terms[0][0])
        acc = [ZERO] * dim
        for v, c in self.terms:
            for i in range(dim):
                acc[i] += c * v[i]
        return tuple(acc)

    def support(self) -> list:
        return [v for v, _ in self.terms]

    def verify(self, target) -> bool:
        target = vec(target)
        if not self.terms:
            return False
        total = ZERO
        seen = set()
        for v, c in self.terms:
            if c <= 0 or v in seen:
                return False
            seen.add(v)
            total += c
        return total == 1 and self.point() == target


@dataclass(frozen=True)
class Halfspace:
    """Closed halfspace ``{x : normal . x >= offset}``."""

    normal: Vec
    offset: Fraction

    def contains(self, x) -> bool:
        return vdot(self.normal, vec(x)) >= self.offset

    def strictly_excludes(self, x) -> bool:
        return vdot(self.normal, vec(x)) < self.offset

    def verify_separation(self, query, points) -> bool:
        if is_zero(self.normal):
            return False
        if not self.strictly_excludes(vec(query)):
            return False
        return all(self.contains(p) for p in _as_points(points))


@dataclass(frozen=True)
class MembershipCertificate:
    inside: bool
    combination: Optional[ConvexCombination] = None
    separator: Optional[Halfspace] = None

    def verify(self, query, points) -> bool:
        query = vec(query)
        pts = set(_as_points(points))
        if self.inside:
            if self.combination is None or not self.combination.verify(query):
                return False
            return all(v in pts for v in self.combination.support())
        if self.separator is None:
            return False
        return self.separator.verify_separation(query, pts)


@dataclass(frozen=True)
class DepthResult:
    """Halfspace depth together with a minimizing witness halfspace.

    The witness contains the query on its boundary and exactly ``depth``
    distinct points of the reference set on its closed side.
    """

    depth: int
    witness: Halfspace

    def verify(self, query, points) -> bool:
        query = vec(query)
        if is_zero(self.witness.normal):
            return False
        if not self.witness.contains(query):
            return False
        inside = sum(1 for a in _dedup(_as_points(points)) if self.witness.contains(a))
        return inside == self.depth


@dataclass(frozen=True)
class AnchoredReduction:
    """Support found by :func:`anchored_reduce`.

    ``y = anchor_coeff * anchor + sum(c * b for b, c in terms)``; ``points``
    lists the set points used.  ``fallback`` marks supports that exceeded
    the dimension target.
    """

    terms: tuple  # ((Vec, Fraction), ...) over set points, coefficients > 0
    anchor_coeff: Fraction
    fallback: bool

    @property
    def points(self) -> tuple:
        return tuple(v for v, _ in self.terms)


@dataclass(frozen=True)
class AffineHull:
    origin: Vec
    basis: tuple  # linearly independent direction vectors
    dim: int


# ---------------------------------------------------------------------------
# membership


def _lifted_columns(pts: Sequence[Vec]):
    return [tuple(p) + (ONE,) for p in pts]


def _membership_lp(query: Vec, pts: list) -> MembershipCertificate:
    res = solve_feasibility(_lifted_columns(pts), tuple(query) + (ONE,))
    if res.feasible:
        terms = tuple((pts[j], c) for j, c in enumerate(res.solution) if c > 0)
        return MembershipCertificate(True, combination=ConvexCombination(terms))
    y = res.farkas
    # y . (a, 1) <= 0 for every point while y . (query, 1) > 0, so -y_head
    # puts the set weakly above y_tail and the query strictly below.
    normal = tuple(-c for c in y[:-1])
    return MembershipCertificate(False, separator=Halfspace(normal, y[-1]))


def _membership_1d(query: Vec, pts: list) -> MembershipCertificate:
    q = query[0]
    xs = sorted(p[0] for p in pts)
    lo, hi = xs[0], xs[-1]
    if q < lo:
        return MembershipCertificate(False, separator=Halfspace((ONE,), lo))
    if q > hi:
        return MembershipCertificate(False, separator=Halfspace((-ONE,), -hi))
    below = max(x for x in xs if x <= q)
    if below == q:
        comb = ConvexCombination((((q,), ONE),))
        return MembershipCertificate(True, combination=comb)
    above = min(x for x in xs if x >= q)
    lam = Fraction(above - q, above - below)
    comb = ConvexCombination((((below,), lam), ((above,), 1 - lam)))
    return MembershipCertificate(True, combination=comb)


def _membership_2d(query: Vec, pts: list) -> MembershipCertificate:
    ints, den = int_scaled(pts + [query])
    q_int = ints[-1]
    back = {}
    for ip, p in zip(ints[:-1], pts):
        back.setdefault(ip, p)
    hull = geom2d.hull2d(ints[:-1])
    combo = geom2d.fan_combination(q_int, hull)
    if combo is not None:
        terms = tuple((back[v], c) for v, c in combo)
        return MembershipCertificate(True, combination=ConvexCombination(terms))
    n, c = geom2d.separating_halfspace2d(q_int, hull)
    return MembershipCertificate(
        False, separator=Halfspace((frac(n[0]), frac(n[1])), Fraction(c, den))
    )


def membership(query, points) -> MembershipCertificate:
    """Decide ``query in conv(points)`` with a certificate either way."""
    query = vec(query)
    pts = _dedup(_as_points(points))
    if not pts:
        raise ValueError("membership against an empty point set")
    _check_dims(query, pts)
    d = len(query)
    if d == 1:
        return _membership_1d(query, pts)
    if d == 2:
        return _membership_2d(query, pts)
    return _membership_lp(query, pts)


def caratheodory_reduce(query, points):
    """Support of at most ``dim + 1`` affinely independent points for query.

    Returns ``(support_points, combination)``.  Raises ``ValueError`` when
    the query lies outside the hull.
    """
    query = vec(query)
    pts = _dedup(_as_points(points))
    if query in set(pts):
        comb = ConvexCombination(((query, ONE),))
        return [query], comb
    cert = membership(query, pts)
    if not cert.inside:
        raise ValueError("query lies outside the convex hull")
    return cert.combination.support(), cert.combination


def anchored_reduce(query, anchor, points) -> AnchoredReduction:
    """Write ``query`` over ``anchor`` plus at most ``dim`` set points.

    Raises ``ValueError`` if query is not in ``conv(points + [anchor])``.

    A basic solution supports at most ``dim + 1`` lifted columns, so once
    the anchor column sits in the basis at most ``dim`` set points carry
    weight.  When the solved basis excludes the anchor it is pivoted in by
    a ratio test; if no pivot entry is positive the ``dim + 1``-point
    support is returned with ``fallback=True`` instead of failing, and the
    caller compensates (the partition engine re-verifies hulls directly).
    """
    query = vec(query)
    anchor = vec(anchor)
    pts = _dedup(_as_points(points))
    _check_dims(query, pts + [anchor])
    if query == anchor:
        return AnchoredReduction((), ONE, False)
    if query in set(pts):
        return AnchoredReduction(((query, ONE),), ZERO, False)
    d = len(query)
    columns = _lifted_columns([anchor] + pts)
    tab = ExactSimplex(columns, tuple(query) + (ONE,))
    if not tab.solve():
        raise ValueError("query lies outside the anchored hull")
    x = tab.solution()
    if sum(1 for c in x[1:] if c > 0) > d and x[0] == 0:
        if tab.force_into_basis(0):
            x = tab.solution()
    terms = tuple((pts[j - 1], c) for j, c in enumerate(x) if j > 0 and c > 0)
    return AnchoredReduction(terms, x[0], len(terms) > d)


# ---------------------------------------------------------------------------
# hull structure


def extreme_points(points) -> list:
    """Points that are vertices of the hull, in first-seen input order.

    Duplicates are treated as one point.
    """
    pts = _dedup(_as_points(points))
    if len(pts) <= 1:
        return pts
    d = len(pts[0])
    if d == 1:
        xs = [p[0] for p in pts]
        ext = {(min(xs),), (max(xs),)}
        return [p for p in pts if p in ext]
    if d == 2:
        ints, _ = int_scaled(pts)
        on_hull = set(geom2d.hull2d(ints))
        return [p for i, p in zip(ints, pts) if i in on_hull]
    out = []
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1:]
        if not membership(p, others).inside:
            out.append(p)
    return out


def _facets3d(pts: list) -> Optional[list]:
    # A plane through three points supports the hull when no point lies
    # strictly on one of its sides; three non-collinear points on it make
    # its face a facet.  Each triple stops at the first point on either side
    # once the other side has been seen.
    found = {}
    n = len(pts)
    for i in range(n):
        ax, ay, az = a = pts[i]
        for j in range(i + 1, n):
            ux, uy, uz = pts[j][0] - ax, pts[j][1] - ay, pts[j][2] - az
            for k in range(j + 1, n):
                vx, vy, vz = pts[k][0] - ax, pts[k][1] - ay, pts[k][2] - az
                normal = (uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx)
                if normal == (0, 0, 0):
                    continue
                nx, ny, nz = normal
                offset = nx * ax + ny * ay + nz * az
                above = below = False
                for px, py, pz in pts:
                    s = nx * px + ny * py + nz * pz - offset
                    if s > 0:
                        if below:
                            break
                        above = True
                    elif s < 0:
                        if above:
                            break
                        below = True
                else:
                    if not (above or below):
                        return None  # every point on one plane
                    sign = -1 if below else 1
                    g = gcd(nx, ny, nz) * sign
                    found.setdefault((tuple(c // g for c in normal), offset // g), None)
    return list(found) or None


def hull_facets(ints: Sequence[tuple]) -> Optional[list]:
    """Integer halfspaces that cut the points' bounding box to their hull.

    ``ints`` are distinct integer points.  Returns ``[(normal, offset)]``
    with ``normal . x >= offset`` on the hull, such that the bounding box of
    the points intersected with these halfspaces is the convex hull, or
    None when no such list is computed here: 3-d points that lie in one
    plane (a line or a point included), and every d >= 4.  In 1-d the box
    is the hull; in 2-d the halfspaces are the counterclockwise edges of
    :func:`geom2d.hull2d` (a segment's two edges bound its line, whose box
    is the segment); in 3-d they are the primitive facet normals.
    """
    d = len(ints[0])
    if d == 1:
        return []
    if d == 2:
        hull = geom2d.hull2d(ints)
        out = []
        for a, b in zip(hull, hull[1:] + hull[:1]):
            if a != b:
                normal = (a[1] - b[1], b[0] - a[0])
                out.append((normal, normal[0] * a[0] + normal[1] * a[1]))
        return out
    if d == 3:
        return _facets3d(ints)
    return None


def centroid(points) -> Vec:
    pts = _as_points(points)
    if not pts:
        raise ValueError("centroid of an empty point set")
    n = len(pts)
    return tuple(Fraction(sum(p[i] for p in pts), n) for i in range(len(pts[0])))


def rank_of_vectors(vectors) -> int:
    """Rank over the rationals, by Gaussian elimination."""
    rows = [list(vec(v)) for v in vectors]
    rank = 0
    col = 0
    width = len(rows[0]) if rows else 0
    while rank < len(rows) and col < width:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                f = rows[r][col] / prow[col]
                for c in range(col, width):
                    rows[r][c] -= f * prow[c]
        rank += 1
        col += 1
    return rank


def affine_hull(points) -> AffineHull:
    """Exact affine basis of the flat spanned by the points."""
    pts = _dedup(_as_points(points))
    if not pts:
        raise ValueError("affine hull of an empty point set")
    origin = pts[0]
    basis = []
    for p in pts[1:]:
        candidate = vsub(p, origin)
        if rank_of_vectors(basis + [candidate]) > len(basis):
            basis.append(candidate)
    return AffineHull(origin, tuple(basis), len(basis))


def affine_rank(points) -> int:
    """Dimension of the affine hull (0 for a single point)."""
    return affine_hull(points).dim


def affinely_independent(points) -> bool:
    pts = _as_points(points)
    if len(pts) != len(set(pts)):
        return False
    return affine_rank(pts) == len(pts) - 1


# ---------------------------------------------------------------------------
# halfspace depth


def _idot(a: tuple, b: tuple) -> int:
    return sum(x * y for x, y in zip(a, b))


def _canon_primitive(w: tuple) -> tuple:
    g = 0
    for c in w:
        g = gcd(g, abs(c))
    out = tuple(c // g for c in w)
    for c in out:
        if c != 0:
            return out if c > 0 else tuple(-x for x in out)
    raise ValueError("zero vector has no direction")


def _primitive_signed(w: tuple) -> tuple:
    g = 0
    for c in w:
        g = gcd(g, abs(c))
    return w if g == 1 else tuple(c // g for c in w)


def _min_open_count(W: list) -> tuple:
    """(min over generic v of #{w : v.w > 0}, integer witness v).

    W is a nonempty multiset of nonzero integer vectors.  When all vectors
    share a line the two directions are compared directly.  Otherwise the
    minimum is attained just off some wall ``u-perp``: side counts of u's
    parallel class plus the recursive minimum of the other vectors
    projected into the wall.  Witnesses rebuild as ``M * v_sub + sign * u``
    with M large enough to preserve every projected sign, which keeps them
    generic (nonzero against every w) at every level.  Ties resolve to the
    lexicographically smallest primitive witness.
    """
    keys = [_canon_primitive(w) for w in W]
    classes = {}
    for key, w in zip(keys, W):
        classes.setdefault(key, []).append(w)
    if len(classes) == 1:
        (rep, members), = classes.items()
        pos = sum(1 for w in members if _idot(w, rep) > 0)
        neg = len(members) - pos
        if pos < neg:
            return pos, rep
        if neg < pos:
            return neg, tuple(-c for c in rep)
        return pos, min(rep, tuple(-c for c in rep))
    best_count = None
    best_witness = None
    for u, members in classes.items():
        uu = _idot(u, u)
        nonpar = [(w, _idot(u, w)) for key, w in zip(keys, W) if key != u]
        projected = [
            _primitive_signed(tuple(uu * w[i] - uw * u[i] for i in range(len(u))))
            for w, uw in nonpar
        ]
        sub_count, v_sub = _min_open_count(projected)
        m = 1 + max(abs(uw) for _, uw in nonpar)
        pos = sum(1 for w in members if _idot(w, u) > 0)
        for sigma, par in ((1, pos), (-1, len(members) - pos)):
            cnt = sub_count + par
            if best_count is not None and cnt > best_count:
                continue
            witness = _primitive_signed(
                tuple(m * v_sub[i] + sigma * u[i] for i in range(len(u)))
            )
            if best_count is None or cnt < best_count or witness < best_witness:
                best_count = cnt
                best_witness = witness
    return best_count, best_witness


def depth_count(W: list, d: int) -> tuple:
    """(min over generic v of #{w : v.w > 0}, integer witness v).

    W is a multiset of nonzero integer vectors in dimension d: the
    differences from a query to the other points, whose depth is this
    count plus one when the query is itself a point.  Planar input takes
    :func:`geom2d.depth2d_min_count`, every other dimension the wall
    recursion; an empty W gives the count 0 and the first axis.
    """
    if not W:
        return 0, (1,) + (0,) * (d - 1)
    if d == 2:
        return geom2d.depth2d_min_count(W)
    return _min_open_count(W)


def depth(query, points) -> DepthResult:
    """Exact halfspace depth of ``query`` in the distinct points of the set.

    Minimum over closed halfspaces containing the query of how many
    distinct set points land in the halfspace; the returned witness
    attains the minimum with the query on its boundary.
    """
    query = vec(query)
    pts = _dedup(_as_points(points))
    _check_dims(query, pts)
    z = 1 if query in set(pts) else 0
    W, _ = int_scaled([vsub(p, query) for p in pts if p != query])
    count, witness = depth_count(W, len(query))
    normal = tuple(frac(c) for c in witness)
    return DepthResult(z + count, Halfspace(normal, vdot(normal, query)))
