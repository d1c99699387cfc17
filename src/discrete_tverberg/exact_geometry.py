"""Exact convex-position tests, certificates, and halfspace depth.

The public functions take rational points and return Fraction
certificates; the work runs on the points scaled once to integers.
Membership is one integer kernel (:func:`_convex_weights`) in every
dimension.  Hulls are exact integer H-representations in every dimension
and every flat (:func:`hull_facets`, beneath-beyond from 3-d), which also
give the extreme points and the membership separators without an LP.  Depth runs on integer
difference vectors in one kernel for every dimension: a wall descent over
direction classes that solves each plane it reaches by one angular sweep
(the generic wall recursion stays as its test reference).  Every verdict
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

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat
from functools import cmp_to_key
from math import atan2, gcd, lcm
from operator import mul, sub
from typing import Optional, Sequence

from . import geom2d
# nothing here calls solve_feasibility: the per-layer trace (perfbench/layers.py)
# wraps this name
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
    return list(dict.fromkeys(points))


def _first_seen(rows: Sequence[tuple]) -> list:
    """The index of each distinct integer row's first occurrence, in order:
    :func:`_dedup` on the rows a batch of points scales to, which hash
    more than ten times faster than tuples of Fractions."""
    first = {}
    for i, row in enumerate(rows):
        first.setdefault(row, i)
    return list(first.values())


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


# ---------------------------------------------------------------------------
# membership


def _convex_weights(q: tuple, pts: Sequence[tuple], den: int) -> Optional[list]:
    """``q in conv(pts)`` on integers: convex weights as ``(index,
    Fraction)`` pairs, or None when q is outside.  q and the distinct pts
    are ``den`` times the caller's points.  One query of
    :func:`_convex_weights_each`."""
    return next(_convex_weights_each((q,), pts, den))


def _convex_weights_each(qs: Sequence[tuple], pts: Sequence[tuple], den: int):
    """:func:`_convex_weights` of each query of qs over the same pts, in
    order.  A generator, so a query is solved only once its answer is asked
    for.

    2-d is the :mod:`.geom2d` fan of one hull, built once for all the
    queries.  1-d is an interval and from 3-d a phase-1 LP on the columns
    ``(p, den)``, ``den`` times the system ``(x, 1)``, so no weight depends
    on den; both solve each query on its own, and the LP reads its weights
    off :meth:`.linprog.ExactSimplex.support`.
    """
    d = len(pts[0])
    if d == 2:
        hull = geom2d.hull2d(pts)
        index = {p: i for i, p in enumerate(pts)}
        for q in qs:
            combo = geom2d.fan_combination(q, hull)
            yield None if combo is None else [(index[v], c) for v, c in combo]
        return
    for q in qs:
        if d == 1:
            yield _interval_weights(q[0], [p[0] for p in pts])
            continue
        tab = ExactSimplex([p + (den,) for p in pts], q + (den,))
        yield tab.support() if tab.solve() else None


def _interval_weights(x: int, xs: list) -> Optional[list]:
    """:func:`_convex_weights` of x over the distinct integers xs."""
    if not min(xs) <= x <= max(xs):
        return None
    below, i = max((v, i) for i, v in enumerate(xs) if v <= x)
    if below == x:
        return [(i, ONE)]
    above, j = min((v, j) for j, v in enumerate(xs) if v >= x)
    lam = Fraction(above - x, above - below)
    return [(i, lam), (j, 1 - lam)]


def _verify_weights(q: tuple, pts: Sequence[tuple], terms: Sequence) -> bool:
    """:meth:`ConvexCombination.verify` on integers: whether the ``(index,
    Fraction)`` terms over the distinct integer points ``pts`` are a convex
    combination equal to q.

    With L the weights' common denominator and a_j = c_j L: the indices are
    distinct, every a_j > 0, the a_j sum to L and sum a_j p_j = L q.  For a
    linear injective map x = B p (the lattice's, or a scaling) this holds
    exactly when the combination of the points B p verifies for B q.
    """
    L = lcm(*(c.denominator for _, c in terms))
    a = [c.numerator * (L // c.denominator) for _, c in terms]
    idx = [j for j, _ in terms]
    if len(set(idx)) != len(idx) or min(a, default=0) <= 0 or sum(a) != L:
        return False
    acc = [0] * len(q)
    for x, j in zip(a, idx):
        for i, c in enumerate(pts[j]):
            acc[i] += x * c
    return acc == [L * c for c in q]


def _combination(query: Vec, pts: list) -> tuple:
    """``(combination, q, sub, den)``: :func:`_convex_weights` of a coerced
    query over coerced points as a :class:`ConvexCombination`, None when
    the query is outside, and the integers ``q`` and ``sub`` it was solved
    on, ``den`` times the query and the points.  The points are scaled
    once and deduplicated on their integer rows (:func:`_first_seen`), so
    sub and the combination's support keep each point's first occurrence."""
    if not pts:
        raise ValueError("membership against an empty point set")
    _check_dims(query, pts)
    ints, den = int_scaled(pts + [query])
    q = ints.pop()
    first = _first_seen(ints)
    sub = [ints[i] for i in first]
    res = _convex_weights(q, sub, den)
    comb = None if res is None else ConvexCombination(
        tuple((pts[first[j]], c) for j, c in res))
    return comb, q, sub, den


def membership(query, points) -> MembershipCertificate:
    """Decide ``query in conv(points)`` with a certificate either way, by
    one integer scaling around :func:`_convex_weights`.  Outside, the
    separator is the first of the hull's :func:`hull_facets` that the query
    violates, by one rule in every dimension and on every flat."""
    comb, q, sub, den = _combination(vec(query), _as_points(points))
    if comb is not None:
        return MembershipCertificate(True, combination=comb)
    n, c = next((n, c) for n, c in hull_facets(sub) if _idot(n, q) < c)
    return MembershipCertificate(False, separator=Halfspace(vec(n), Fraction(c, den)))


def caratheodory_reduce(query, points):
    """Support of at most ``dim + 1`` affinely independent points for query.

    Returns ``(support_points, combination)``, the query alone if it is a
    point.  Raises ``ValueError`` when the query lies outside the hull.
    """
    query = vec(query)
    pts = _as_points(points)
    if query in pts:
        return [query], ConvexCombination(((query, ONE),))
    comb = _combination(query, pts)[0]
    if comb is None:
        raise ValueError("query lies outside the convex hull")
    return comb.support(), comb


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
    x = tab.support()
    if len(x) > d and x[0][0] != 0:  # more than d points, anchor weight 0
        if not tab.force_into_basis(0):
            raise AssertionError("the anchor's column did not enter the basis")
        x = tab.support()
    if x[0][0] == 0:
        return [(j - 1, c) for j, c in x[1:]], x[0][1]
    return [(j - 1, c) for j, c in x], ZERO


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
        if len(_echelon(n for n, c in facets if _idot(n, x) == c)[0]) == len(x)
    ]


def hull_facets(ints: Sequence[tuple]) -> list:
    """The integer H-representation of the hull of distinct integer points.

    Returns primitive ``(normal, offset)`` pairs, with ``normal . x >=
    offset`` on the hull, whose intersection is the hull in every d: never
    None.  One elimination pass (:func:`_echelon`) finds the affine rank r,
    r + 1 affinely independent points and r pivot coordinates, on which the
    points' flat projects injectively.  On those coordinates the hull is
    an interval at r = 1, the :func:`geom2d.hull_edges` of
    :func:`geom2d.hull2d` at r = 2 and :func:`_beneath_beyond` from r = 3,
    which eliminates once per facet of its first simplex and reads every
    later facet off a horizon ridge: r + 2 eliminations in all.
    At r = d these are the unique facets; a flat (r < d) lifts them with
    zeros and adds each of d - r integer equations (the pass's
    :func:`_kernel`) as two opposite halfspaces.  The order of the list is
    deterministic, and :func:`membership` separates by its first violated
    halfspace.
    """
    origin = ints[0]
    d = len(origin)
    echelon = _echelon(tuple(map(sub, p, origin)) for p in ints[1:])
    picked, cols = echelon[:2]
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
    for e in _kernel(echelon, d):
        c = sum(map(mul, e, origin))
        facets += [(e, c), (tuple([-a for a in e]), -c)]
    return facets


def _beneath_beyond(pts: list, simplex: list) -> list:
    """Facets of the hull of distinct integer points in d >= 3 dimensions,
    ``simplex`` d + 1 affinely independent ones among them.

    The boundary is kept as simplices ``[verts, n, c, h]``: d sorted vertex
    indices, the facet's primitive inner normal n and offset c, and the
    height ``n . p - c`` of the point p being added.  The first simplex's
    d + 1 facets take n from the :func:`_kernel` of d - 1 differences,
    oriented toward ``inner``, d + 1 times its barycentre.  The other points
    come farthest from that barycentre first (then in lexicographic order),
    so that more of them are inside when they come.

    A facet is visible from a point strictly beyond it (h < 0).  Every
    ridge lies on exactly two simplices, which ``on`` maps it to (ridges of
    removed simplices stay there, but no later simplex has one).  A ridge
    of a visible F whose other simplex G is kept is on the horizon, and
    spans a new facet with p.  F and G are not coplanar, since only one is
    visible, nor opposite, since the hull is full-dimensional, so n_F and
    n_G are independent.  The new facet's normal and offset are
    ``h_G n_F - h_F n_G`` and ``h_G c_F - h_F c_G`` over the normal's gcd:
    the normal vanishes on the ridge's differences and on p - a for a
    ridge vertex a, and is nonzero as h_F < 0.  With h_G >= 0 it is a
    nonnegative combination of two inner normals, so it points inward: the
    primitive normal that :func:`_kernel` gives, found without an
    elimination.  New facets follow the kept ones, in the order of their
    horizon ridges over the visible facets.  Coplanar simplices merge at
    the end.
    """
    d = len(pts[0])
    first = set(simplex)
    inner = [sum(col) for col in zip(*simplex)]
    pts = simplex + sorted(
        (p for p in pts if p not in first),
        key=lambda p: (-sum(((d + 1) * x - y) ** 2 for x, y in zip(p, inner)), p),
    )

    def facet(verts: tuple) -> list:
        a = pts[verts[0]]
        [n] = _kernel(_echelon([x - y for x, y in zip(pts[v], a)] for v in verts[1:]), d)
        c = sum(map(mul, n, a))
        if sum(map(mul, n, inner)) < (d + 1) * c:
            n, c = tuple([-x for x in n]), -c
        return [verts, n, c, 0]

    facets = [facet(f) for f in combinations(range(d + 1), d)]
    on = {}
    for f in facets:
        for r in combinations(f[0], d - 1):
            on.setdefault(r, []).append(f)
    for i in range(d + 1, len(pts)):
        p = pts[i]
        visible, kept = [], []
        for f in facets:
            f[3] = h = sum(map(mul, f[1], p)) - f[2]
            (visible if h < 0 else kept).append(f)
        for F in visible:
            _, nf, cf, hf = F
            for r in combinations(F[0], d - 1):
                a, b = on[r]
                G = b if a is F else a
                _, ng, cg, hg = G
                if hg < 0:
                    continue
                n = [hg * x - hf * y for x, y in zip(nf, ng)]
                g = gcd(*n)
                f = [r + (i,), tuple([x // g for x in n]), (hg * cf - hf * cg) // g, 0]
                on[r] = [G, f]
                for k in range(d - 1):
                    on.setdefault(r[:k] + r[k + 1:] + (i,), []).append(f)
                kept.append(f)
        facets = kept
    return list(dict.fromkeys((n, c) for _, n, c, _ in facets))


def _kernel(echelon: tuple, d: int) -> list:
    """Primitive integer vectors spanning the orthogonal complement in Z^d
    of the vectors of an :func:`_echelon` result: its row i holds ``det`` in
    its pivot column c_i and zeros in the other pivot columns, so each free
    column f gives a kernel vector: ``det`` at f and ``-row_i[f]`` at c_i.
    """
    _, cols, rows, det = echelon
    out = []
    for f in range(d):
        if f not in cols:
            x = [0] * d
            x[f] = det
            for c, row in zip(cols, rows):
                x[c] = -row[f]
            out.append(_primitive_signed(tuple(x)))
    return out


def _echelon(vectors) -> tuple:
    """``(picked, cols, rows, det)``: the indices, in order, of the integer
    vectors outside the span of the earlier ones, the pivot column of each,
    and the picked vectors reduced over ``det``, their determinant on the
    pivot columns: row i is ``det`` at column ``cols[i]`` and 0 at the other
    pivot columns.  One fraction-free Gauss-Jordan pass: each vector, as it
    comes, is brought over ``det``, cleared on the pivot columns so far, and
    pivoted in at its first nonzero entry (:func:`.linprog.pivot`).  Stops
    once the rank is the vectors' length."""
    picked, cols, rows, det = [], [], [], 1
    for i, v in enumerate(vectors):
        w = [det * a for a in v]
        for c, row in zip(cols, rows):
            f = v[c]
            if f:
                w = [a - f * b for a, b in zip(w, row)]
        c = next((c for c, a in enumerate(w) if a), None)
        if c is None:
            continue
        picked.append(i)
        cols.append(c)
        rows.append(w)
        det = pivot(rows, len(rows) - 1, c, det)
        if len(rows) == len(w):
            break
    return picked, cols, rows, det


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


def _classes(vectors: list, multiples: bool) -> dict:
    """The direction classes of ``(w, along, against)`` integer tuples: each
    w's canonical primitive form (first nonzero coordinate positive) maps
    to ``[along, against, largest multiple]``, summed over the w of the
    class.  The largest multiple is 1 unless ``multiples``."""
    classes = {}
    zero = (0,) * len(vectors[0][0])
    for w, x, y in vectors:
        t = gcd(*w)
        if w < zero:
            t = -t
            x, y = y, x
        key = w if t == 1 else tuple([c // t for c in w])
        t = abs(t) if multiples else 1
        c = classes.get(key)
        if c is None:
            classes[key] = [x, y, t]
        else:
            c[0] += x
            c[1] += y
            if t > c[2]:
                c[2] = t
    return classes


def _descend(classes: dict, rank: int, floor: int) -> tuple:
    """``(count, witness thunk)`` of the wall recursion on direction classes
    of rank 1 or at least 3: a line is :func:`_line_side`.

    Above that each class u gets its wall once: the other classes projected
    to ``uu.r - (u.r).u``, with their side counts.  From rank 4 a wall is
    the :func:`_classes` of those projections again, whose largest
    multiples are 1; at rank 3 it is a plane, which :func:`_planar` sweeps
    as it is, in 3-d on the two coordinates other than u's first nonzero
    one.  All walls are counted first; the witness is rebuilt only from
    walls whose count plus ``min(along, against)`` is the minimum, since no
    other wall's candidates can win :func:`_off_wall`.

    The floor contract: the count is exact whenever it is at least
    ``floor``; otherwise it is some value below ``floor`` and the thunk
    builds a witness whose open count is that value.  Each wall is
    descended with the floor less ``min(along, against)``, and the descent
    stops at the first wall whose total falls below the floor, since the
    minimum is then below it too; that wall's :func:`_off_wall` witness,
    on its sub-witness, opens exactly its total.  A result that stopped
    nowhere counted every wall exactly, so it is the floor-0 count with
    the same thunk.  A line is always exact.
    """
    if rank == 1:
        (rep, (pos, neg, _)), = classes.items()
        count, side = _line_side(rep, pos, neg)
        return count, lambda: side
    walls = []
    d = len(next(iter(classes)))
    for u, (upos, uneg, _) in classes.items():
        uu = _idot(u, u)
        wall = []
        m = 0
        # _idot is inlined: this loop is most of a 3-d query
        for r, (pos, neg, t) in classes.items():
            if r is not u:
                ur = sum(map(mul, u, r))
                m = max(m, abs(ur) * t)
                wall.append(([uu * a - ur * b for a, b in zip(r, u)], pos, neg))
        near = min(upos, uneg)
        if rank > 3:
            wall = _classes([(tuple(p), x, y) for p, x, y in wall], False)
            sub_count, sub_witness = _descend(wall, rank - 1, floor - near)
        else:
            # in 3-d u-perp projects one to one off u's first nonzero axis
            i, j = _plane_frame(wall) if d > 3 else (1, 2) if u[0] else (0, 2) if u[1] else (0, 1)
            sub_count, sub_witness = _planar(wall, i, j, floor - near, True)
        walls.append((sub_count + near, sub_count, sub_witness, m + 1, u))
        if sub_count + near < floor:
            break
    low = min(wall[0] for wall in walls)

    def witness():
        best = None
        for total, sub_count, sub_witness, m, u in walls:
            if total == low:
                upos, uneg, _ = classes[u]
                best = _off_wall(best, sub_count, sub_witness(), m, u, upos, uneg)
        return best[1]
    return low, witness


def _plane_frame(plane: list) -> tuple:
    """Two coordinates (i, j) on which the plane spanned by the vectors r of
    ``(r, along, against)`` projects one to one."""
    a = plane[0][0]
    return next((i, j) for b, _, _ in plane for i, j in combinations(range(len(a)), 2)
                if a[i] * b[j] != a[j] * b[i])


def _angle_hint(flat: list) -> list:
    """The float angle, in (-pi/2, pi/2], of each ``(a, b, along,
    against)`` of :func:`_planar`'s sweep: only a hint for its sort, whose
    order the sweep checks exactly.  OverflowError when an entry is beyond
    float range."""
    return [atan2(b, a) for a, b, _, _ in flat]


def _turned(r, i: int, j: int) -> tuple:
    """The primitive form of r, negated unless ``(r_i, r_j)`` is in the
    half-plane a > 0 or a = 0 < b of :func:`_planar`'s sweep."""
    a, b = r[i], r[j]
    return _primitive_signed(tuple([-c for c in r]) if a < 0 or not a and b < 0 else tuple(r))


def _planar(plane: list, i: int, j: int, floor: int, wall: bool) -> tuple:
    """The wall recursion's ``(count, witness thunk)`` for nonzero integer
    vectors that span a plane or a line, by one angular sweep, with
    :func:`_descend`'s floor contract.

    ``plane`` holds ``(r, along, against)``: ``along`` vectors point along
    r and ``against`` ones against it.  The coordinates i and j embed the
    plane, and each r is turned into the half-plane a > 0 or a = 0 < b of
    its ``(a, b) = (r_i, r_j)`` and sorted by angle there, so parallel
    vectors sit together and each run of them is a direction class v.
    Below v the recursion meets one line, the plane's normal to v; the
    classes after v lie on its positive side with their along vectors and
    the classes before v with their against ones, so running sums give
    every class's total ``min(pos, neg) + min(along, against)``.  The float
    angle is only a hint (:func:`_angle_hint`): the order is accepted once
    every adjacent pair's integer cross product is at least 0, and
    otherwise, or when an entry overflows a float, the sort is redone on
    the cross products.

    As a pass over the classes in input order (of their first vectors)
    would, the count is the total of the first class below ``floor``, or
    the least total when there is none.  The witness builds on the counts
    of the classes of that total (only the first class below the floor,
    when there is one) as the one just off the class's wall, and takes M =
    1 + max |v.r| over the vectors r off the class: the raw vectors, or
    their primitive forms in a ``wall``, whose projections the thunk
    normalises only when it is called.  :func:`_line_side` does not depend
    on the line's orientation; the witness orients it along ``vv.r -
    (v.r).v``.  A single class is a line: :func:`_line_side` of its
    direction.
    """
    flat = []  # (a, b, along, against), (a, b) in the half-plane
    n = 0
    for r, x, y in plane:
        a, b = r[i], r[j]
        flat.append((-a, -b, y, x) if a < 0 or not a and b < 0 else (a, b, x, y))
        n += x + y
    try:
        runs = _runs(flat, sorted(range(len(flat)), key=_angle_hint(flat).__getitem__))
    except OverflowError:
        runs = None
    if runs is None:
        runs = _runs(flat, sorted(range(len(flat)), key=cmp_to_key(
            lambda s, t: flat[s][1] * flat[t][0] - flat[s][0] * flat[t][1])))
    if len(runs) == 1:
        (k, x, y), = runs
        count, side = _line_side(_turned(plane[k][0], i, j), x, y)
        return count, lambda: side
    along = sum(run[1] for run in runs)
    before_x = before_y = 0
    sides = []  # (first index, total, pos, along, against) of each class
    for k, x, y in runs:
        pos = along - before_x - x + before_y
        neg = n - x - y - pos
        # min(pos, neg) + min(x, y) without two calls per class
        sides.append((k, (pos if pos < neg else neg) + (x if x < y else y), pos, x, y))
        before_x += x
        before_y += y
    stop = min((side for side in sides if side[1] < floor), default=None)
    low = stop[1] if stop else min(side[1] for side in sides)

    def witness():
        best = None
        for k, total, pos, vpos, vneg in [stop] if stop else sides:
            if total != low:
                continue
            v = _turned(plane[k][0], i, j)
            neg = n - vpos - vneg - pos
            off = [r for r, _, _ in plane if v[i] * r[j] != v[j] * r[i]]
            r = off[0]
            if wall:
                off = map(_primitive_signed, off)
            m = max(abs(sum(map(mul, v, w))) for w in off)
            vv, vr = _idot(v, v), _idot(v, r)
            line = _primitive_signed(tuple(vv * x - vr * y for x, y in zip(r, v)))
            if v[i] * r[j] < v[j] * r[i]:
                pos, neg = neg, pos
            best = _off_wall(best, min(pos, neg), _line_side(line, pos, neg)[1],
                             m + 1, v, vpos, vneg)
        return best[1]
    return low, witness


def _runs(flat: list, order: list) -> Optional[list]:
    """The direction classes of :func:`_planar`'s sweep, in the angular
    order, as ``[first index, along, against]`` for the entries of flat
    taken in ``order``; None unless every adjacent pair's cross product is
    at least 0, that is unless ``order`` is angular."""
    runs = []
    ra = rb = None
    for k in order:
        a, b, x, y = flat[k]
        if ra is not None:
            c = ra * b - rb * a
            if c < 0:
                return None
            if not c:
                run[1] += x
                run[2] += y
                if k < run[0]:
                    run[0] = k
                continue
        run = [k, x, y]
        runs.append(run)
        ra, rb = a, b
    return runs


def depth_count(W: list, d: int, floor: int = 0) -> tuple:
    """(min over generic v of #{w : v.w > 0}, thunk of an integer witness v).

    W is a multiset of nonzero integer tuples in dimension d: the
    differences from a query to the other points, whose depth is this
    count plus one when the query is itself a point.  In 2-d the vectors
    go to one :func:`_planar` sweep as they are, and build no class.
    Otherwise they are grouped into direction classes (:func:`_classes`),
    each with how many vectors point along and against it and its largest
    multiple; classes that span a plane send W to the sweep, and any
    others go to the wall recursion of :func:`_descend`.  The minimum is
    attained just off some wall ``u-perp``: the side counts of u's class
    plus the minimum of the other vectors projected into the wall.  The
    witness is ``M v_sub +- u``, with M large enough to keep every
    projected sign, and ties resolve to the lexicographically smallest
    primitive witness; the thunk builds it only when called.  (The tests
    hold this to the plain recursion on the vectors, ``_min_open_count``
    in ``tests/test_properties.py``.)  An empty W gives the count 0 and
    the first axis.

    With a ``floor`` the count is exact, with the same thunk, whenever it
    is at least ``floor``; below that the descent stops at its first wall
    below the floor, and the result is some value below ``floor`` that is
    the open count of its thunk's witness.  So a query that stops still
    gives a direction v, and #{p : v.p >= v.x} bounds the depth of every
    x.  The default floor 0 is always exact.
    """
    if not W:
        return 0, lambda: (1,) + (0,) * (d - 1)
    plane = list(zip(W, repeat(1), repeat(0)))
    if d == 2:
        return _planar(plane, 0, 1, floor, False)
    classes = _classes(plane, True)
    # distinct classes are pairwise independent: up to 2, the rank is min(c, d)
    rank = min(len(classes), d)
    if rank > 2:
        rank = len(_echelon(classes)[0])
    if rank == 2:
        return _planar(plane, *_plane_frame(plane), floor, False)
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
