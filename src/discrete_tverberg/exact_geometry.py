"""Exact convex-position tests, certificates, and halfspace depth.

All geometry runs over Fraction coordinates.  Planar inputs are scaled to
integers and dispatched to :mod:`.geom2d`; higher dimensions use a phase-1
simplex for membership.  Depth runs on integer difference vectors in one
kernel for every dimension: a wall descent over direction classes that
solves each plane it reaches in one pass (the generic wall recursion
stays as its test reference).  Every verdict carries a certificate that
can be re-checked independently of the code that produced it.

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
from operator import mul
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
    """Rank over the rationals of int or Fraction vectors, by fraction-free
    Gaussian elimination."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                break
        else:
            continue
        prow = rows[r]
        rows[r] = rows[rank]
        rows[rank] = prow
        rank += 1
        if rank == len(rows):
            break
        for r in range(rank, len(rows)):
            f = rows[r][col]
            if f != 0:
                rows[r] = [prow[col] * x - f * y for x, y in zip(rows[r], prow)]
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
    return sum(map(mul, a, b))


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


def _line_side(rep: tuple, pos: int, neg: int) -> tuple:
    """(count, witness) for vectors on one line: ``pos`` of them point
    along ``rep``, ``neg`` against it; the emptier side wins, and
    ``min(rep, -rep)`` on a tie."""
    flip = tuple(-c for c in rep)
    if pos < neg:
        return pos, rep
    if neg < pos:
        return neg, flip
    return pos, min(rep, flip)


def _min_open_count(W: list) -> tuple:
    """(min over generic v of #{w : v.w > 0}, integer witness v).

    W is a nonempty multiset of nonzero integer vectors.  When all vectors
    share a line the two directions are compared directly.  Otherwise the
    minimum is attained just off some wall ``u-perp``: side counts of u's
    parallel class plus the recursive minimum of the other vectors
    projected into the wall.  Witnesses rebuild as ``M * v_sub + sign * u``
    with M large enough to preserve every projected sign, which keeps them
    generic (nonzero against every w) at every level.  Ties resolve to the
    lexicographically smallest primitive witness.  No engine code calls
    it: it is the reference that tests hold :func:`depth_count` to in 1-4
    d.
    """
    keys = [_canon_primitive(w) for w in W]
    classes = {}
    for key, w in zip(keys, W):
        classes.setdefault(key, []).append(w)
    if len(classes) == 1:
        (rep, members), = classes.items()
        pos = sum(1 for w in members if _idot(w, rep) > 0)
        return _line_side(rep, pos, len(members) - pos)
    best = None
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
        best = _off_wall(best, sub_count, v_sub, m, u, pos, len(members) - pos)
    return best


def _off_wall(best, sub_count, v_sub, m, u, pos, neg) -> tuple:
    """Fold the two witnesses just off the wall ``u-perp`` into ``best``.

    ``M * v_sub + u`` counts ``sub_count + pos`` and ``M * v_sub - u``
    counts ``sub_count + neg``; ``best`` is the ``(count, witness)`` so far
    or None, and keeps the smaller count, then the lexicographically
    smaller primitive witness.
    """
    for cnt, sigma in ((sub_count + pos, 1), (sub_count + neg, -1)):
        if best is not None and cnt > best[0]:
            continue
        witness = _primitive_signed(tuple(m * a + sigma * b for a, b in zip(v_sub, u)))
        if best is None or (cnt, witness) < best:
            best = (cnt, witness)
    return best


def _descend(classes: dict, rank: int) -> tuple:
    """``(count, witness thunk)`` of the wall recursion on direction classes
    of the given rank: a line is :func:`_line_side`, a plane :func:`_planar`.

    Above that each class u gets its wall once: the other classes projected
    to ``canon(uu.r - (u.r).u)``, which are primitive, so the wall's largest
    multiples are 1.  All walls are counted first; the witness is rebuilt
    only from walls whose count plus ``min(along, against)`` is the
    minimum, since no other wall's candidates can win :func:`_off_wall`.
    """
    if rank == 1:
        (rep, (pos, neg, _)), = classes.items()
        count, side = _line_side(rep, pos, neg)
        return count, lambda: side
    if rank == 2:
        return _planar(classes)
    walls = []
    zero = [0] * len(next(iter(classes)))
    for u, (upos, uneg, _) in classes.items():
        uu = _idot(u, u)
        wall = {}
        m = 0
        # _idot and the canonical form are inlined: this loop is most of a
        # 3-d query
        for r, (pos, neg, t) in classes.items():
            if r is u:
                continue
            ur = sum(map(mul, u, r))
            m = max(m, abs(ur) * t)
            p = [uu * a - ur * b for a, b in zip(r, u)]
            g = gcd(*p)
            if p < zero:
                g = -g
                pos, neg = neg, pos
            key = tuple(p) if g == 1 else tuple([c // g for c in p])
            c = wall.get(key)
            if c is None:
                wall[key] = [pos, neg, 1]
            else:
                c[0] += pos
                c[1] += neg
        sub_count, sub_witness = _descend(wall, rank - 1)
        walls.append((sub_count + min(upos, uneg), sub_count, sub_witness, m + 1, u))
    low = min(wall[0] for wall in walls)

    def witness():
        best = None
        for total, sub_count, sub_witness, m, u in walls:
            if total == low:
                upos, uneg, _ = classes[u]
                best = _off_wall(best, sub_count, sub_witness(), m, u, upos, uneg)
        return best[1]
    return low, witness


def _planar(classes: dict) -> tuple:
    """:func:`_descend` for classes that span a plane.

    Below class v the recursion meets one line, the plane's normal to v;
    each class lies on the side given by the sign of its 2-d cross product
    with v, on two coordinates that embed the plane, so one pass counts
    every class.  The pass keeps only each class's total; the witness
    recounts the sides of the tied classes.  :func:`_line_side` does not
    depend on the line's orientation; the witness orients it along
    ``vv.r - (v.r).v``.
    """
    keys = iter(classes)
    a, b = next(keys), next(keys)
    i, j = next((i, j) for i in range(len(a)) for j in range(i + 1, len(a))
                if a[i] * b[j] != a[j] * b[i])
    flat = [(r[i], r[j], rpos, rneg) for r, (rpos, rneg, _) in classes.items()]
    n = sum(rpos + rneg for _, _, rpos, rneg in flat)
    totals = []
    for vi, vj, vpos, vneg in flat:
        pos = 0  # the rest of the other classes' vectors are on the neg side
        for ri, rj, rpos, rneg in flat:
            s = vi * rj - vj * ri
            if s > 0:
                pos += rpos
            elif s < 0:  # zero only for v itself
                pos += rneg
        neg = n - vpos - vneg - pos
        # min(pos, neg) + min(vpos, vneg) without two calls per class
        totals.append((pos if pos < neg else neg) + (vpos if vpos < vneg else vneg))
    low = min(totals)

    def witness():
        best = None
        for (v, (vpos, vneg, _)), total in zip(classes.items(), totals):
            if total != low:
                continue
            vi, vj = v[i], v[j]
            pos = m = 0
            for r, (rpos, rneg, t) in classes.items():
                s = vi * r[j] - vj * r[i]
                if s:
                    pos += rpos if s > 0 else rneg
                    m = max(m, abs(sum(map(mul, v, r))) * t)
            neg = n - vpos - vneg - pos
            r = next(r for r in classes if r is not v)
            vv, vr = _idot(v, v), _idot(v, r)
            line = _primitive_signed(tuple(vv * x - vr * y for x, y in zip(r, v)))
            if vi * r[j] < vj * r[i]:
                pos, neg = neg, pos
            best = _off_wall(best, min(pos, neg), _line_side(line, pos, neg)[1],
                             m + 1, v, vpos, vneg)
        return best[1]
    return low, witness


def depth_count(W: list, d: int) -> tuple:
    """(min over generic v of #{w : v.w > 0}, thunk of an integer witness v).

    W is a multiset of nonzero integer tuples in dimension d: the
    differences from a query to the other points, whose depth is this
    count plus one when the query is itself a point.  The vectors are
    grouped into direction classes (primitive, first nonzero coordinate
    positive), each with how many vectors point along and against it and
    its largest multiple, and :func:`_descend` runs the wall recursion
    :func:`_min_open_count` on them in every dimension: the same count,
    and a thunk that builds the same witness only when called.  An empty
    W gives the count 0 and the first axis.
    """
    if not W:
        return 0, lambda: (1,) + (0,) * (d - 1)
    classes = {}  # direction class -> [along, against, largest multiple]
    zero = (0,) * d
    for w in W:
        t = gcd(*w)
        if w < zero:
            t = -t
        key = w if t == 1 else tuple([c // t for c in w])
        c = classes.get(key)
        if c is None:
            classes[key] = [1, 0, t] if t > 0 else [0, 1, -t]
        else:
            c[t < 0] += 1
            if abs(t) > c[2]:
                c[2] = abs(t)
    # the rank of the keys' d x c transpose takes at most d short pivots
    rank = 1 if len(classes) == 1 else rank_of_vectors(zip(*classes))
    return _descend(classes, rank)


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
    normal = tuple(frac(c) for c in witness())
    return DepthResult(z + count, Halfspace(normal, vdot(normal, query)))
