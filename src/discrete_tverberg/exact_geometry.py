"""Exact convex-position tests, certificates, and halfspace depth.

The public functions take rational points and return Fraction
certificates; the work runs on the points scaled once to integers.
Membership is one integer kernel (:func:`_convex_weights`) in every
dimension.  Hulls are exact integer H-representations in every dimension
and every flat (:func:`hull_facets`, beneath-beyond from 3-d), which also
give the extreme points without an LP.  Depth runs on integer
difference vectors in one kernel for every dimension: a wall descent over
direction classes that solves each plane it reaches in one pass (the
generic wall recursion stays as its test reference).  Every verdict
carries a certificate that can be re-checked independently of the code
that produced it.

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

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import mul, sub
from typing import Optional, Sequence

from . import geom2d
from .linprog import ExactSimplex, pivot, solve_feasibility
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
            if len(v) != dim:
                raise ValueError("combination terms of mixed dimension")
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
    lists the at most ``dim`` set points used.
    """

    terms: tuple  # ((Vec, Fraction), ...) over set points, coefficients > 0
    anchor_coeff: Fraction

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


def _convex_weights(q: tuple, pts: Sequence[tuple], den: int):
    """``q in conv(pts)`` on integers: convex weights as ``(index,
    Fraction)`` pairs, or a separating :class:`Halfspace` in the caller's
    frame.  q and the distinct pts are ``den`` times the caller's points.

    1-d is an interval, 2-d the :mod:`.geom2d` fan and hull edges, and from
    3-d a phase-1 LP on the columns ``(p, den)``: ``den`` times the system
    ``(x, 1)``, so no weight depends on den, nor a separator but a 2-d one,
    a hull edge, which another den scales by a positive factor.
    """
    d = len(q)
    if d == 1:
        (x,) = q
        xs = [p[0] for p in pts]
        lo, hi = min(xs), max(xs)
        if x < lo:
            return Halfspace((ONE,), Fraction(lo, den))
        if x > hi:
            return Halfspace((-ONE,), Fraction(-hi, den))
        below, i = max((v, i) for i, v in enumerate(xs) if v <= x)
        if below == x:
            return [(i, ONE)]
        above, j = min((v, j) for j, v in enumerate(xs) if v >= x)
        lam = Fraction(above - x, above - below)
        return [(i, lam), (j, 1 - lam)]
    if d == 2:
        hull = geom2d.hull2d(pts)
        combo = geom2d.fan_combination(q, hull)
        if combo is not None:
            index = {p: i for i, p in enumerate(pts)}
            return [(index[v], c) for v, c in combo]
        for n, c in geom2d.hull_edges(hull):
            if n[0] * q[0] + n[1] * q[1] < c:
                break
        else:  # a point, or a segment with q on its line: a side of its box
            n, c = next(
                (n, c)
                for n in ((1, 0), (-1, 0), (0, 1), (0, -1))
                for c in [min(n[0] * x + n[1] * y for x, y in hull)]
                if n[0] * q[0] + n[1] * q[1] < c
            )
        return Halfspace((frac(n[0]), frac(n[1])), Fraction(c, den))
    res = solve_feasibility([p + (den,) for p in pts], q + (den,))
    if res.feasible:
        return [(j, c) for j, c in enumerate(res.solution) if c > 0]
    # y . (p, den) <= 0 for every point while y . (q, den) > 0, so -y_head
    # puts the set weakly above y_tail and the query strictly below.
    return Halfspace(tuple(-c for c in res.farkas[:-1]), res.farkas[-1])


def _certificate(query: Vec, pts: list) -> MembershipCertificate:
    """:func:`membership` of a coerced query and distinct coerced points."""
    if not pts:
        raise ValueError("membership against an empty point set")
    _check_dims(query, pts)
    ints, den = int_scaled(pts + [query])
    res = _convex_weights(ints[-1], ints[:-1], den)
    if isinstance(res, Halfspace):
        return MembershipCertificate(False, separator=res)
    terms = tuple((pts[j], c) for j, c in res)
    return MembershipCertificate(True, combination=ConvexCombination(terms))


def membership(query, points) -> MembershipCertificate:
    """Decide ``query in conv(points)`` with a certificate either way, by
    one integer scaling around :func:`_convex_weights`."""
    return _certificate(vec(query), _dedup(_as_points(points)))


def caratheodory_reduce(query, points):
    """Support of at most ``dim + 1`` affinely independent points for query.

    Returns ``(support_points, combination)``, the query alone if it is a
    point.  Raises ``ValueError`` when the query lies outside the hull.
    """
    query = vec(query)
    pts = _dedup(_as_points(points))
    if query in set(pts):
        return [query], ConvexCombination(((query, ONE),))
    cert = _certificate(query, pts)
    if not cert.inside:
        raise ValueError("query lies outside the convex hull")
    return cert.combination.support(), cert.combination


def anchored_reduce(query, anchor, points) -> AnchoredReduction:
    """Write ``query`` over ``anchor`` plus at most ``dim`` set points, by
    one integer scaling around :func:`_anchored_weights`.

    Raises ``ValueError`` if query is not in ``conv(points + [anchor])``.
    """
    query = vec(query)
    anchor = vec(anchor)
    pts = _dedup(_as_points(points))
    _check_dims(query, pts + [anchor])
    ints, den = int_scaled(pts + [anchor, query])
    res = _anchored_weights(ints[-1], ints[-2], ints[:-2], den)
    if res is None:
        raise ValueError("query lies outside the anchored hull")
    terms, coeff = res
    return AnchoredReduction(tuple((pts[j], c) for j, c in terms), coeff)


def _anchored_weights(q: tuple, a: tuple, pts: Sequence[tuple], den: int):
    """``q`` over the anchor ``a`` plus at most ``dim`` of the distinct
    ``pts``, all integers ``den`` times the caller's: ``(terms, anchor
    weight)``, terms as ``(index, Fraction)`` pairs, or None when q is
    outside ``conv(pts + [a])``.

    The LP on the columns ``(a, den)`` and ``(p, den)`` is ``den`` times the
    system ``(x, 1)``, so no pivot or weight depends on den.  A basic
    solution has at most ``dim + 1`` columns.  With more than ``dim`` points
    at positive levels none is artificial, and the anchor's column, its
    affine coordinates over them, sums to 1: a ratio test pivots it in,
    leaving at most ``dim`` points.
    """
    if q == a:
        return [], ONE
    if q in pts:
        return [(pts.index(q), ONE)], ZERO
    d = len(q)
    tab = ExactSimplex([p + (den,) for p in [a, *pts]], q + (den,))
    if not tab.solve():
        return None
    x = tab.solution()
    if sum(1 for c in x[1:] if c > 0) > d and x[0] == 0:
        tab.force_into_basis(0)
        x = tab.solution()
    return [(j - 1, c) for j, c in enumerate(x) if j > 0 and c > 0], x[0]


# ---------------------------------------------------------------------------
# hull structure


def extreme_points(points) -> list:
    """The vertices of the hull, in first-seen input order, duplicates as
    one point, by one integer scaling around :func:`_vertices`."""
    pts = _dedup(_as_points(points))
    if len(pts) <= 1:
        return pts
    _check_dims(pts[0], pts)
    return [pts[i] for i in _vertices(int_scaled(pts)[0])]


def _vertices(ints: Sequence[tuple]) -> list:
    """The indices, in order, of the vertices of the hull of two or more
    distinct integer points: the points at which the normals of the tight
    :func:`hull_facets` halfspaces have rank d.  No LP is solved."""
    facets = hull_facets(ints)
    return [
        i for i, x in enumerate(ints)
        if rank_of_vectors([n for n, c in facets if _idot(n, x) == c]) == len(x)
    ]


def hull_facets(ints: Sequence[tuple]) -> list:
    """The integer H-representation of the hull of distinct integer points.

    Returns primitive ``(normal, offset)`` pairs, with ``normal . x >=
    offset`` on the hull, whose intersection is the hull in every d: never
    None.  One elimination pass (:func:`_echelon`) finds the affine rank r,
    r + 1 affinely independent points and r pivot coordinates, on which the
    points' flat projects injectively.  On those coordinates the hull is
    an interval at r = 1, the :func:`geom2d.hull_edges` of
    :func:`geom2d.hull2d` at r = 2 and :func:`_beneath_beyond` from r = 3.
    At r = d these are the unique facets; a flat (r < d) lifts them with
    zeros and adds each of d - r integer equations (:func:`_kernel`) as two
    opposite halfspaces.
    """
    origin = ints[0]
    d = len(origin)
    picked, cols = _echelon(tuple(map(sub, p, origin)) for p in ints[1:])
    r = len(picked)
    pts = ints if r == d else [tuple(p[c] for c in cols) for p in ints]
    if r == 1:
        xs = [x for x, in pts]
        facets = [((1,), min(xs)), ((-1,), -max(xs))]
    elif r == 2:
        facets = [
            ((n[0] // g, n[1] // g), c // g)
            for n, c in geom2d.hull_edges(geom2d.hull2d(pts)) for g in [gcd(*n)]
        ]
    elif r:
        facets = _beneath_beyond(pts, [pts[0]] + [pts[i + 1] for i in picked])
    else:
        facets = []
    if r == d:
        return facets
    facets = [
        (tuple(n[cols.index(j)] if j in cols else 0 for j in range(d)), c)
        for n, c in facets
    ]
    for e in _kernel([tuple(map(sub, ints[i + 1], origin)) for i in picked], d):
        c = sum(map(mul, e, origin))
        facets += [(e, c), (tuple([-a for a in e]), -c)]
    return facets


def _beneath_beyond(pts: list, simplex: list) -> list:
    """Facets of the hull of distinct integer points in d >= 3 dimensions,
    ``simplex`` d + 1 affinely independent ones among them.

    The boundary is kept as simplices: d vertex indices and the facet's
    primitive normal, the :func:`_kernel` of d - 1 differences, oriented
    toward ``inner``, d + 1 times the centroid of the first simplex.  The
    other points come farthest from that centroid first (then in
    lexicographic order), so that more of them are inside when they come.
    A facet is visible from a point strictly beyond it; the ridges that
    appear once among the visible facets are the horizon, and each spans a
    new facet with the point.  Coplanar simplices merge at the end.
    """
    d = len(pts[0])
    first = set(simplex)
    inner = [sum(col) for col in zip(*simplex)]
    pts = simplex + sorted(
        (p for p in pts if p not in first),
        key=lambda p: (-sum(((d + 1) * x - y) ** 2 for x, y in zip(p, inner)), p),
    )

    def facet(verts: tuple) -> tuple:
        a = pts[verts[0]]
        [n] = _kernel([[x - y for x, y in zip(pts[v], a)] for v in verts[1:]], d)
        c = sum(map(mul, n, a))
        if sum(map(mul, n, inner)) < (d + 1) * c:
            n, c = tuple([-x for x in n]), -c
        return verts, n, c

    facets = [facet(f) for f in combinations(range(d + 1), d)]
    for i in range(d + 1, len(pts)):
        p = pts[i]
        visible, kept = [], []
        for f in facets:
            (visible if sum(map(mul, f[1], p)) < f[2] else kept).append(f)
        if visible:
            ridges = Counter(r for f in visible for r in combinations(f[0], d - 1))
            facets = kept + [facet(r + (i,)) for r, t in ridges.items() if t == 1]
    return list(dict.fromkeys((n, c) for _, n, c in facets))


def _kernel(rows: list, d: int) -> list:
    """Primitive integer vectors spanning the orthogonal complement in Z^d
    of the independent integer ``rows`` (a list that this rewrites).

    Fraction-free Gauss-Jordan (:func:`.linprog.pivot`) leaves row i with
    the denominator ``det`` in its pivot column c_i and zeros in the other
    pivot columns, so each free column f gives a kernel vector: ``det`` at
    f and ``-row_i[f]`` at c_i.
    """
    det, cols = 1, []
    for i, row in enumerate(rows):
        c = 0
        while not row[c]:
            c += 1
        det = pivot(rows, i, c, det)
        cols.append(c)
    out = []
    for f in range(d):
        if f not in cols:
            x = [0] * d
            x[f] = det
            for c, row in zip(cols, rows):
                x[c] = -row[f]
            out.append(_primitive_signed(tuple(x)))
    return out


def centroid(points) -> Vec:
    pts = _as_points(points)
    if not pts:
        raise ValueError("centroid of an empty point set")
    _check_dims(pts[0], pts)
    return tuple(Fraction(sum(col), len(pts)) for col in zip(*pts))


def _echelon(vectors) -> tuple:
    """``(picked, cols)``: the indices, in order, of the vectors outside the
    span of the earlier ones, and the pivot column of each, by one
    fraction-free elimination pass; the picked vectors are nonsingular on
    their pivot columns.  Stops once the rank is the vectors' length."""
    rows, picked = [], []
    for i, v in enumerate(vectors):
        for c, row in rows:
            f = v[c]
            if f:
                p = row[c]
                v = [p * a - f * b for a, b in zip(v, row)]
        for c, a in enumerate(v):
            if a:
                rows.append((c, v))
                picked.append(i)
                break
        else:
            continue
        if len(rows) == len(v):
            break
    return picked, [c for c, _ in rows]


def rank_of_vectors(vectors) -> int:
    """Rank over the rationals of int or Fraction vectors (:func:`_echelon`)."""
    return len(_echelon(vectors)[0])


def affine_hull(points) -> AffineHull:
    """Exact affine basis of the flat spanned by the points."""
    pts = _dedup(_as_points(points))
    if not pts:
        raise ValueError("affine hull of an empty point set")
    _check_dims(pts[0], pts)
    origin = pts[0]
    diffs = [vsub(p, origin) for p in pts[1:]]
    basis = tuple(diffs[i] for i in _echelon(diffs)[0])
    return AffineHull(origin, basis, len(basis))


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


def _primitive_signed(w: tuple) -> tuple:
    g = gcd(*w)
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


def _descend(classes: dict, rank: int, floor: int) -> tuple:
    """``(count, witness thunk)`` of the wall recursion on direction classes
    of the given rank: a line is :func:`_line_side`, a plane :func:`_planar`.

    Above that each class u gets its wall once: the other classes projected
    to ``canon(uu.r - (u.r).u)``, which are primitive, so the wall's largest
    multiples are 1.  All walls are counted first; the witness is rebuilt
    only from walls whose count plus ``min(along, against)`` is the
    minimum, since no other wall's candidates can win :func:`_off_wall`.

    The floor contract: the count is exact whenever it is at least
    ``floor``; otherwise the result is some value below ``floor``, with no
    witness (None) if the descent stopped.  Each wall is descended with the floor less
    ``min(along, against)``, and the descent stops at the first wall whose
    total falls below the floor, since the minimum is then below it too.
    A result that stopped nowhere counted every wall exactly, so it is the
    floor-0 count with the same thunk.  A line is always exact.
    """
    if rank == 1:
        (rep, (pos, neg, _)), = classes.items()
        count, side = _line_side(rep, pos, neg)
        return count, lambda: side
    if rank == 2:
        return _planar(classes, floor)
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
        near = min(upos, uneg)
        sub_count, sub_witness = _descend(wall, rank - 1, floor - near)
        if sub_count + near < floor:
            return sub_count + near, None
        walls.append((sub_count + near, sub_count, sub_witness, m + 1, u))
    low = min(wall[0] for wall in walls)

    def witness():
        best = None
        for total, sub_count, sub_witness, m, u in walls:
            if total == low:
                upos, uneg, _ = classes[u]
                best = _off_wall(best, sub_count, sub_witness(), m, u, upos, uneg)
        return best[1]
    return low, witness


def _planar(classes: dict, floor: int) -> tuple:
    """:func:`_descend` for classes that span a plane, with its floor
    contract: the pass stops at the first class whose total is below the
    floor and returns that total and no witness.

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
        total = (pos if pos < neg else neg) + (vpos if vpos < vneg else vneg)
        if total < floor:
            return total, None
        totals.append(total)
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


def depth_count(W: list, d: int, floor: int = 0) -> tuple:
    """(min over generic v of #{w : v.w > 0}, thunk of an integer witness v).

    W is a multiset of nonzero integer tuples in dimension d: the
    differences from a query to the other points, whose depth is this
    count plus one when the query is itself a point.  The vectors are
    grouped into direction classes (primitive, first nonzero coordinate
    positive), each with how many vectors point along and against it and
    its largest multiple, and :func:`_descend` runs the wall recursion on
    them in every dimension.  The minimum is attained just off some wall
    ``u-perp``: the side counts of u's class plus the minimum of the other
    vectors projected into the wall.  The witness is ``M v_sub +- u``, with
    M large enough to keep every projected sign, and ties resolve to the
    lexicographically smallest primitive witness; the thunk builds it only
    when called.  (The tests hold this to the plain recursion on the
    vectors, ``_min_open_count`` in ``tests/test_properties.py``.)  An
    empty W gives the count 0 and the first axis.

    With a ``floor`` the count is exact, with the same thunk, whenever it
    is at least ``floor``; below that the result is some value below
    ``floor`` whose thunk may be None, since the descent stops at its first
    wall below the floor.  The default floor 0 is always exact.
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
    return _descend(classes, rank, floor)


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
