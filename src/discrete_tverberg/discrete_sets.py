"""Discrete ground sets: lattices, lattice differences, and their bounds.

A ground set S is either a lattice L = B * Z^r, a difference
L \\ (L_1 | ... | L_m) with each L_i a sublattice of L, or the mixed
product Z^a x R^b.  The first two are enumerable inside polytopes; the
mixed variant exists only to evaluate bound formulas.

Bound formulas implemented here:
  * quantitative Helly for a rank-r lattice: (2^r - 2) * ceil(2(k+1)/3) + 2,
    with the k=1 classical bound 2^r available in best mode;
  * lattice difference: (2^(m+1) k + 1)^r, which in fact bounds the largest
    k-hollow set directly;
  * mixed, k=1 only: (b+1) 2^a;
  * Tverberg composition: helly_bound * (m-1) * k * r + k, plus the
    strict lower bound 2^r (m-1) for lattices at k=1, r the lattice's rank.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, prod
from operator import mul, sub
from typing import Optional, Sequence

from .errors import CapExceededError
# membership is imported only for the benchmark's per-layer trace
# (perfbench/layers.py), which wraps it; nothing here calls it.
from .exact_geometry import _echelon, extreme_points, hull_facets, membership
from .geom2d import hull2d, hull_edges
from .vectors import ONE, ZERO, Vec, column_dots, frac, int_scaled, vec


class LatticeBasis:
    """Lattice B * Z^r given by r independent rational vectors in R^dim.

    Keeps B and a transform T with T @ B = [I_r; 0] as integer rows over
    denominators D_B and D.  B's rows are read by :meth:`scaled_point`.
    T's rows are read by :func:`lattice_box`, the one way a point enters
    the frame, which maps a batch of points at once; by
    :meth:`scaled_coords`, which maps one integer vector for the sublattice
    test :meth:`contains_scaled`; and by :meth:`ambient_normal` and
    :func:`_line_progression`.  :meth:`_lattice_z` is the one congruence
    test.
    """

    def __init__(self, vectors: Sequence, dim: Optional[int] = None):
        vecs = [vec(v) for v in vectors]
        if not vecs:
            raise ValueError("a lattice needs at least one basis vector")
        self.dim = dim if dim is not None else len(vecs[0])
        if any(len(v) != self.dim for v in vecs):
            raise ValueError("basis vectors of mixed dimension")
        self.rank = len(vecs)
        self.vectors = tuple(vecs)
        ints, self._den = int_scaled(vecs)
        self._int_rows = list(zip(*ints))  # D_B B, row by row
        self._t_rows, self._t_den = self._reduce()

    @classmethod
    def identity(cls, dim: int) -> "LatticeBasis":
        rows = [
            tuple(ONE if i == j else ZERO for i in range(dim)) for j in range(dim)
        ]
        return cls(rows, dim)

    def _reduce(self) -> tuple:
        """``(rows, den)``: T as integer rows over one positive denominator,
        so that ``T B = den [I_r; 0]``; ValueError on a dependent basis.

        The rows are the I part of the :func:`_echelon` rows of ``[D_B B |
        D_B I]``, those that pivot on B's columns first, in column order (a
        dependent basis has fewer).  On a rank-deficient lattice the first
        r rows are replaced by the one choice inside span(B): the reduced
        right parts of the rows ``[G | D_B^2 B^t]``, G the Gram matrix of
        ``D_B B``.  Those rows no longer depend on the elimination's picks,
        so neither does the normal ``T^t v`` of a frame normal v that is 0
        past the rank (:meth:`ambient_normal`).  The rows past the rank
        vanish exactly on the span, so their scale is free.
        """
        d, r = self.dim, self.rank
        _, cols, rows, det = _echelon(
            row + tuple(self._den if t == i else 0 for t in range(d))
            for i, row in enumerate(self._int_rows)
        )
        if sum(c < r for c in cols) < r:
            raise ValueError("basis vectors are linearly dependent")
        rows = [row[r:] for _, row in sorted(zip(cols, rows))]
        if r < d:
            basis = list(zip(*self._int_rows))  # D_B b_j
            _, _, head, det = _echelon(
                tuple(sum(map(mul, a, b)) for b in basis) + tuple(self._den * x for x in a)
                for a in basis
            )  # G is invertible, so row j pivots on column j
            rows[:r] = [row[r:] for row in head]
        sign = -1 if det < 0 else 1
        return [[sign * x for x in row] for row in rows], sign * det

    def scaled_coords(self, x: Sequence[int]) -> list:
        """The integer rows of ``D T x`` for an integer vector x."""
        return [sum(map(mul, row, x)) for row in self._t_rows]

    def scaled_point(self, z: Sequence[int]) -> tuple:
        """The integers ``D_B B z`` for integer lattice coordinates z."""
        return tuple(sum(map(mul, row, z)) for row in self._int_rows)

    def ambient_normal(self, v: Sequence[int]) -> Vec:
        """``D T^t v``, the ambient normal of the lattice-frame normal v.

        When v is 0 past the rank (the normal of points on the lattice's
        span) this is the one normal n in span(B) with ``n . b_j = D v_j``,
        since T's first rows lie in span(B) (:meth:`_reduce`).
        """
        return vec(sum(map(mul, v, col)) for col in zip(*self._t_rows))

    def _lattice_z(self, t: Sequence[int], m: int) -> Optional[tuple]:
        """The integer z with ``t = m (z, 0)``, or None when the frame rows
        t past the rank are not 0 or the others not multiples of m."""
        r = self.rank
        if any(t[r:]) or any(c % m for c in t[:r]):
            return None
        return tuple(c // m for c in t[:r])

    def contains_scaled(self, x: Sequence[int]) -> bool:
        """Whether the integer vector x lies in the lattice."""
        return self._lattice_z(self.scaled_coords(x), self._t_den) is not None

    def from_lattice(self, z: Sequence) -> Vec:
        if len(z) != self.rank:
            raise ValueError("lattice coordinates do not match the rank")
        return tuple(Fraction(c, self._den) for c in self.scaled_point(z))

    def contains(self, x) -> bool:
        [t], den = lattice_box(self, [vec(x)])
        return self._lattice_z(t, den) is not None

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticeBasis):
            return NotImplemented
        return self.dim == other.dim and self.vectors == other.vectors

    def __hash__(self) -> int:
        return hash((self.dim, self.vectors))

    def __repr__(self) -> str:
        return f"LatticeBasis({list(self.vectors)!r}, dim={self.dim})"


@dataclass(frozen=True)
class DiscreteSetSpec:
    dim: int
    variant: str  # "lattice" | "difference" | "mixed"
    base: Optional[LatticeBasis] = None
    sublattices: tuple = ()
    a: Optional[int] = None
    b: Optional[int] = None

    def __post_init__(self):
        if self.variant in ("lattice", "difference"):
            if self.base is None:
                object.__setattr__(self, "base", LatticeBasis.identity(self.dim))
            if self.base.dim != self.dim:
                raise ValueError("lattice dimension does not match spec dimension")
            removed = [_re_expressed(self.base, sub) for sub in self.sublattices]
            object.__setattr__(self, "_removed", removed)
            if self.variant == "lattice" and self.sublattices:
                raise ValueError("plain lattice cannot carry sublattices")
            if self.variant == "difference" and not self.sublattices:
                raise ValueError("difference variant needs at least one sublattice")
        elif self.variant == "mixed":
            if self.a is None or self.b is None or self.a < 0 or self.b < 0:
                raise ValueError("mixed variant needs nonnegative factors a, b")
            if self.a + self.b != self.dim:
                raise ValueError("mixed factors must sum to the dimension")
        else:
            raise ValueError(f"unknown variant {self.variant!r}")

    @property
    def enumerable(self) -> bool:
        return self.variant in ("lattice", "difference")

    @property
    def rank(self) -> int:
        if self.base is not None:
            return self.base.rank
        return self.dim

    def removes(self, z: Sequence[int]) -> bool:
        """Whether the base lattice's point B z is in a removed sublattice."""
        return any(sub.contains_scaled(z) for sub in self._removed)

    def removed_on_lines(self, lines: list) -> int:
        """How many of the points ``head + (z,)``, lo <= z <= hi, of the
        lines ``(head, lo, hi)`` :meth:`removes` removes, counted without
        testing them one by one.

        On a line each removed sublattice holds an arithmetic progression
        of z, one z, every z or none (:func:`_line_progression`); the union
        over the sublattices is counted by inclusion-exclusion, intersecting
        the progressions by the Chinese remainder theorem (:func:`_crt`).
        """
        total = 0
        for head, lo, hi in lines:
            sets = [_line_progression(sub, head) for sub in self._removed]
            for size in range(1, len(sets) + 1):
                for group in itertools.combinations(sets, size):
                    p = functools.reduce(_crt, group)
                    if p is not None:
                        r, P = p
                        n = (hi - r) // P - (lo - 1 - r) // P if P else int(lo <= r <= hi)
                        total += n if size % 2 else -n
        return total


def _line_progression(sub: LatticeBasis, head: Sequence[int]) -> Optional[tuple]:
    """``(r, P)`` such that the integer ``head + (z,)`` is in the lattice
    exactly when z = r mod P (every z when P = 1, z = r alone when P = 0),
    or None when no z is.

    The congruence test :meth:`LatticeBasis._lattice_z` of the frame rows
    ``T (head, z) = a + z c`` is linear in z: each row below the rank asks
    ``c z = -a (mod D)``, each row past it ``a + z c = 0``.
    """
    m, prog = sub._t_den, (0, 1)
    for i, row in enumerate(sub._t_rows):
        a, c = sum(map(mul, row, head)), row[-1]  # map stops at the head's end
        if i < sub.rank:
            g = gcd(c, m)
            step = m // g
            cond = None if a % g else (-a // g * pow(c // g, -1, step) % step, step)
        elif c:
            cond = None if a % c else (-a // c, 0)
        else:
            cond = None if a else (0, 1)
        prog = _crt(prog, cond)
    return prog


def _crt(p: Optional[tuple], q: Optional[tuple]) -> Optional[tuple]:
    """The intersection of two :func:`_line_progression` sets, None when it
    is empty or either set is None."""
    if p is None or q is None:
        return None
    if not q[1]:
        p, q = q, p
    (r, P), (s, Q) = p, q
    if not P:  # r alone
        return p if ((r - s) % Q == 0 if Q else r == s) else None
    g = gcd(P, Q)
    if (s - r) % g:
        return None
    t = (s - r) // g * pow(P // g, -1, Q // g) % (Q // g)
    return (r + P * t) % (P // g * Q), P // g * Q


def _re_expressed(base: LatticeBasis, sub: LatticeBasis) -> LatticeBasis:
    """sub in base's lattice coordinates, by one :func:`lattice_box` map of
    its basis; ValueError unless a sublattice."""
    coords, den = lattice_box(base, sub.vectors)
    zs = [base._lattice_z(t, den) for t in coords]
    if None in zs:
        raise ValueError("sublattice basis vector is not a lattice member")
    return LatticeBasis(zs, base.rank)


def _as_basis(basis, dim: int):
    if basis is None or isinstance(basis, LatticeBasis):
        return basis
    return LatticeBasis(basis, dim)


def lattice_set(dim: int, basis=None) -> DiscreteSetSpec:
    return DiscreteSetSpec(dim=dim, variant="lattice", base=_as_basis(basis, dim))


def difference_set(dim: int, sublattices, basis=None) -> DiscreteSetSpec:
    base = _as_basis(basis, dim)
    subs = tuple(
        s if isinstance(s, LatticeBasis) else LatticeBasis(s, dim) for s in sublattices
    )
    return DiscreteSetSpec(dim=dim, variant="difference", base=base, sublattices=subs)


def mixed_set(a: int, b: int) -> DiscreteSetSpec:
    return DiscreteSetSpec(dim=a + b, variant="mixed", a=a, b=b)


def _coords_in_set(spec: DiscreteSetSpec, points: list) -> tuple:
    """``(coords, den, zs)``: each point's frame row from one
    :func:`lattice_box` map, and its lattice coordinates z (B z = x) if it
    is in S, else None, by :meth:`LatticeBasis._lattice_z` with
    ``spec.removes(z)`` false.  At ``den == 1`` on a full-rank lattice every
    row is its own z, and without sublattices nothing is removed, so
    neither test is made point by point there."""
    if not spec.enumerable:
        raise ValueError("pointwise membership is defined only for enumerable sets")
    lat = spec.base
    coords, den = lattice_box(lat, points)
    if den == 1 and lat.rank == lat.dim:
        zs = coords
    else:
        zs = [lat._lattice_z(t, den) for t in coords]
    if spec.sublattices:
        zs = [None if z is None or spec.removes(z) else z for z in zs]
    return coords, den, zs


def _in_set(pts: list, zs: list) -> list:
    if None in zs:
        raise ValueError(f"point {pts[zs.index(None)]} is not in the ground set")
    return zs


def lattice_coords(spec: DiscreteSetSpec, points) -> list:
    """The integer lattice coordinates z, B z = x, of points x of S, all
    mapped at once; ValueError naming the first point not in S."""
    pts = [vec(p) for p in points]
    return _in_set(pts, _coords_in_set(spec, pts)[2])


def distinct_lattice_coords(spec: DiscreteSetSpec, pts: Sequence[Vec]) -> tuple:
    """``(zs, coords, den)``: :func:`lattice_coords` of points, already
    coerced by :func:`vec`, that must be pairwise distinct, ValueError first
    if two coincide, with the frame rows and den of the one
    :func:`lattice_box` map that decided them.  The rows are distinct
    exactly when the points are (the map is injective), so the points are
    hashed only when the map raises (a point of another dimension, or S not
    enumerable), to name duplicates before that."""
    try:
        coords, den, zs = _coords_in_set(spec, pts)
    except ValueError:
        _require_distinct(pts)
        raise
    _require_distinct(coords)
    return _in_set(pts, zs), coords, den


def _require_distinct(items: list) -> None:
    if len(set(items)) != len(items):
        raise ValueError("input points must be pairwise distinct")


# ---------------------------------------------------------------------------
# polytopes and enumeration


@dataclass(frozen=True)
class PolytopeV:
    """Polytope as a vertex list (points need not be extreme)."""

    vertices: tuple

    def __post_init__(self):
        pts = tuple(vec(v) for v in self.vertices)
        if not pts:
            raise ValueError("a polytope needs at least one vertex")
        if any(len(v) != len(pts[0]) for v in pts):
            raise ValueError("vertices of mixed dimension")
        object.__setattr__(self, "vertices", pts)

    @property
    def dim(self) -> int:
        return len(self.vertices[0])


def box_polytope(bounds: Sequence) -> PolytopeV:
    """Axis box as a PolytopeV; bounds is a (lo, hi) pair per coordinate."""
    iv = []
    for lo, hi in bounds:
        lo, hi = frac(lo), frac(hi)
        if lo > hi:
            raise ValueError("empty box bound")
        iv.append((lo, hi))
    return PolytopeV(tuple(itertools.product(*iv)))


def lattice_box(lat: LatticeBasis, vertices: Sequence[Vec]) -> tuple:
    """``(coords, den)``: the vertices v in the lattice frame, as integer
    tuples ``den * T v`` (T maps B z to (z, 0)).

    The one way a point enters a lattice's frame (ValueError on a vertex of
    another dimension): the vertices are scaled to integers once, and each
    of T's rows maps all of their columns at once (:func:`column_dots`), as
    :meth:`LatticeBasis.scaled_coords` would map each vertex.
    """
    if any(len(v) != lat.dim for v in vertices):
        raise ValueError("point dimension does not match the lattice")
    ints, scale = int_scaled(vertices)
    cols = list(zip(*ints))
    rows = list(zip(*[column_dots(row, cols) for row in lat._t_rows])) if ints else []
    return rows, lat._t_den * scale


def _frame(spec: DiscreteSetSpec, points: Sequence[Vec]) -> tuple:
    """``(rows, den)`` of :func:`lattice_box` for the base lattice of an
    enumerable S, the map whose rows :func:`_intersection_lines` scans."""
    if not spec.enumerable:
        raise ValueError("enumeration is defined only for enumerable sets")
    return lattice_box(spec.base, points)


def _intersection_lines(
    spec: DiscreteSetSpec, rows: list, den: int, hulls: Sequence[Sequence[int]],
    cap: Optional[int] = None,
) -> list:
    """The lattice coordinates z of the points of the base lattice common
    to the hulls, as the lines ``(head, lo, hi)`` of :func:`_scan_lines`.
    Each hull lists indices into ``rows``, frame rows of one ``den`` from
    one map (:func:`_frame`), so a point set is mapped once for every hull
    taken of it.

    Every hull's integer H-representation (:func:`hull_facets` of its
    distinct rows) cuts the intersection of the hulls' integer bounding
    boxes (valid even off the lattice span, since T is linear), which
    holds at most ``cap`` points, line by line along the last lattice
    coordinate; no hull is built when the boxes do not meet.  A point of S
    is ``den (z, 0)`` in that frame, so on a rank-deficient lattice only
    the first ``rank`` entries of a normal count.  The lines keep the
    points a difference set removes (:func:`_points_on_lines`).
    """
    # a vertex is keyed on its integer frame row, since a tuple of
    # Fractions hashes over ten times slower
    hull_coords = [list(dict.fromkeys([rows[i] for i in hull])) for hull in hulls]
    # per lattice coordinate, each hull's column of frame entries
    columns = zip(*(list(zip(*c))[: spec.rank] for c in hull_coords))
    ranges = [
        range(_ceil_div(max(map(min, cols)), den), min(map(max, cols)) // den + 1)
        for cols in columns
    ]
    total = prod(map(len, ranges))
    if not total:
        return []  # the boxes do not meet: no hull needs building
    if cap is not None and total > cap:
        raise CapExceededError(
            f"enumeration box holds {total} candidates, cap is {cap}"
        )
    facets = [f for c in hull_coords for f in hull_facets(c)]
    return _scan_lines(facets, den, ranges)


def hull_frame(spec: DiscreteSetSpec, points: Sequence[Vec]) -> tuple:
    """``(coords, den)``: the distinct frame rows of points, already
    coerced by :func:`vec`, in their first order, from one :func:`_frame`
    map; ValueError when there are none."""
    if not points:
        raise ValueError("a polytope needs at least one vertex")
    rows, den = _frame(spec, points)
    return list(dict.fromkeys(rows)), den


def lattice_lines_in_polytope(
    spec: DiscreteSetSpec, polytope: PolytopeV, cap: Optional[int] = None
) -> tuple:
    """``(lines, coords, den)``: the :func:`_intersection_lines` of the one
    hull of the polytope's vertices, and their :func:`hull_frame`."""
    coords, den = hull_frame(spec, polytope.vertices)
    return _intersection_lines(spec, coords, den, [range(len(coords))], cap), coords, den


def search_lines(spec: DiscreteSetSpec, coords: list, den: int) -> tuple:
    """``(lines, firsts, count)`` for the hull of the distinct frame rows
    ``coords`` of one ``den`` (a :func:`hull_frame`): its lattice lines
    ``(head, lo, hi)`` in lexicographic order of head, a sequence of the
    first entry of each head (None when heads are empty, at rank 1), and
    the number of points of S on the lines.

    When S is a rank-2 lattice with nothing removed and the hull's vertices
    are ``den (z, 0)``, the hull is a lattice polygon in lattice
    coordinates (:func:`_lattice_polygon`): the count is Pick's
    (:func:`_pick_count`) and the lines, one per column of its box, are cut
    by its edges only when first read (:class:`_PolygonLines`), so a line
    nobody reads costs nothing.  Any other hull is scanned
    (:func:`_intersection_lines`), and the points a difference set removes
    are counted off its lines (:meth:`DiscreteSetSpec.removed_on_lines`).
    """
    hull = _lattice_polygon(spec, coords, den)
    if hull is not None:
        lines = _PolygonLines(hull)
        return lines, lines.firsts, _pick_count(hull)
    lines = _intersection_lines(spec, coords, den, [range(len(coords))])
    count = sum(hi - lo + 1 for _, lo, hi in lines)
    if spec.sublattices:
        count -= spec.removed_on_lines(lines)
    firsts = [head[0] for head, _, _ in lines] if spec.rank > 1 else None
    return lines, firsts, count


def _lattice_polygon(spec: DiscreteSetSpec, coords: list, den: int) -> Optional[list]:
    """The :func:`hull2d` of the lattice coordinates z of the hull's
    vertices, counterclockwise, when S is a rank-2 lattice with nothing
    removed and every vertex's frame row is ``den (z, 0)``; else None."""
    if spec.rank != 2 or spec.sublattices:
        return None
    if spec.dim > 2:
        if any(any(t[2:]) for t in coords):
            return None
        coords = [t[:2] for t in coords]
    hull = hull2d(coords)
    if any(a % den or b % den for a, b in hull):
        return None
    return [(a // den, b // den) for a, b in hull]


def _pick_count(hull: list) -> int:
    """The lattice points of a lattice polygon, its :func:`hull2d`, by
    Pick's theorem: with A its area and B the lattice points on its
    boundary, ``A + B / 2 + 1``.  B is the sum of the edges' gcds, so the
    same sum gives a segment ``gcd + 1`` (two opposite edges, no area) and
    a point 1."""
    twice_area = boundary = 0
    for (ax, ay), (bx, by) in zip(hull, hull[1:] + hull[:1]):
        twice_area += ax * by - ay * bx
        boundary += gcd(bx - ax, by - ay)
    return (twice_area + boundary) // 2 + 1


class _PolygonLines:
    """The lines ``(head, lo, hi)`` of a lattice polygon (its
    :func:`hull2d`), one per column of its box, empty ones (hi < lo)
    included: line i is the column ``z_0 = firsts[i]``, cut by the
    polygon's edges (:func:`_clip_line`) when it is first read, and kept.
    Its nonempty lines are those :func:`_scan_lines` lists."""

    def __init__(self, hull: list):
        xs, ys = zip(*hull)
        self.firsts = range(min(xs), max(xs) + 1)
        self._ys = min(ys), max(ys)
        # an edge (n, c) holds n_1 y >= c - n_0 x on column x; an edge along
        # a column (n_1 = 0) bounds only x, which firsts already does
        self._edges = [(n[1], c, n[0]) for n, c in hull_edges(hull) if n[1]]
        self._lines = {}

    def __len__(self) -> int:
        return len(self.firsts)

    def __getitem__(self, i: int) -> tuple:
        line = self._lines.get(i)
        if line is None:
            x = self.firsts[i]
            lo, hi = _clip_line(*self._ys, [(a, c - b * x) for a, c, b in self._edges])
            line = self._lines[i] = ((x,), lo, hi)
        return line


def _points_on_lines(spec: DiscreteSetSpec, lines: list) -> list:
    """The lattice coordinates of S on the lines, in their order."""
    zs = [head + (z,) for head, lo, hi in lines for z in range(lo, hi + 1)]
    if spec.sublattices:
        zs = [z for z in zs if not spec.removes(z)]
    return zs


def enumerate_in_polytope(
    spec: DiscreteSetSpec, polytope: PolytopeV, cap: Optional[int] = None
) -> list:
    """All points of S inside the polytope, sorted lexicographically: the
    points B z for the z of :func:`lattice_lines_in_polytope` in S."""
    lines, _, _ = lattice_lines_in_polytope(spec, polytope, cap)
    return _ambient_points(spec.base, _points_on_lines(spec, lines))


def _ambient_points(lat: LatticeBasis, zs: list) -> list:
    """The points B z, sorted lexicographically."""
    points = sorted(map(lat.scaled_point, zs))
    return [tuple(Fraction(c, lat._den) for c in p) for p in points]


def _clip_line(lo: int, hi: int, cuts) -> tuple:
    """The integers z of ``[lo, hi]`` with ``a z >= b`` for every ``(a, b)``
    in cuts, as ``(lo, hi)``, empty when ``hi < lo``: a positive a raises
    lo to a ceiling, a negative one lowers hi to a floor, and a zero one
    keeps the interval or empties it."""
    for a, b in cuts:
        if a > 0:
            b = -(-b // a)
            if b > lo:
                lo = b
        elif a < 0:
            b //= a
            if b < hi:
                hi = b
        elif b > 0:
            return lo, lo - 1
    return lo, hi


def _scan_lines(facets: list, den: int, ranges: list) -> list:
    """The nonempty lines ``(head, lo, hi)`` of the box inside every facet,
    in lexicographic order of head: its integer points are
    ``head + (z,)``, lo <= z <= hi.

    z is inside the facet ``(normal, offset)`` when
    ``normal . (den * (z, 0)) >= offset``: a normal may be longer than the
    box's k coordinates, since a point of S is (z, 0) in the lattice frame,
    and its entries past k are not read.  Each line of the box along its
    last coordinate is cut by every facet (:func:`_clip_line`) at the
    facet's offset less ``normal . (den * head)``.  When only the head's
    last coordinate steps, that rest decreases by the facet's step, ``den``
    times the normal's entry there; it is recomputed when an earlier
    coordinate changes, and for the first head (the only one, and empty,
    when k = 1).
    """
    *heads, last = ranges
    k = len(ranges)
    n_heads = [tuple([den * c for c in n[:k - 1]]) for n, _ in facets]
    steps = [h[-1] for h in n_heads] if k > 1 else None
    lasts = [den * n[k - 1] for n, _ in facets]
    offsets = [off for _, off in facets]
    out = []
    outer = rests = None
    for head in itertools.product(*heads):
        if head[:-1] == outer:
            rests = list(map(sub, rests, steps))
        else:
            outer = head[:-1]
            rests = [off - sum(map(mul, n, head)) for n, off in zip(n_heads, offsets)]
        lo, hi = _clip_line(last.start, last.stop - 1, zip(lasts, rests))
        if lo <= hi:
            out.append((head, lo, hi))
    return out


# ---------------------------------------------------------------------------
# hollow / Hoffman predicates


@dataclass(frozen=True)
class HollowCertificate:
    """Asserts k-hollowness of ``points`` when ``len(nonvertex_points) < k``."""

    points: tuple
    k: int
    nonvertex_points: tuple

    @property
    def asserts_hollow(self) -> bool:
        return len(self.nonvertex_points) < self.k

    def verify(self, spec: DiscreteSetSpec) -> bool:
        """Whether the points lie in S and ``nonvertex_points`` lists exactly
        the points of S in conv(points) other than its vertices, as
        :func:`count_nonvertex` finds them."""
        pts = [vec(p) for p in self.points]
        if not pts:
            return not self.nonvertex_points
        if None in _coords_in_set(spec, pts)[2]:
            return False  # count_nonvertex refuses a point not in S
        _, cert = count_nonvertex(spec, pts)
        return sorted(self.nonvertex_points) == list(cert.nonvertex_points)


def count_nonvertex(
    spec: DiscreteSetSpec, points, cap: Optional[int] = None
) -> tuple:
    """|(conv(P) minus hull vertices) . S| with the witnessing point list.

    Non-extreme members of P count (the vertex set is the extreme points of
    P itself).  Returns ``(count, HollowCertificate)`` where the
    certificate's k is the smallest k for which P is k-hollow.
    """
    pts = [vec(p) for p in points]
    if not pts:
        raise ValueError("empty point set")
    lattice_coords(spec, pts)
    verts = set(extreme_points(pts))
    inside = enumerate_in_polytope(spec, PolytopeV(tuple(pts)), cap=cap)
    nonvertex = tuple(q for q in inside if q not in verts)
    cert = HollowCertificate(tuple(pts), len(nonvertex) + 1, nonvertex)
    return len(nonvertex), cert


def is_k_hollow(points, spec: DiscreteSetSpec, k: int, cap: Optional[int] = None) -> bool:
    if k < 1:
        raise ValueError("k must be at least 1")
    count, _ = count_nonvertex(spec, points, cap=cap)
    return count < k


def is_k_hoffman(points, spec: DiscreteSetSpec, k: int, cap: Optional[int] = None) -> bool:
    """Fewer than k points of S lie in the intersection of the leave-one-out
    hulls of P, by one scan of its lines (:func:`_intersection_lines`) on
    the frame rows of the one map that checks that P lies in S."""
    if k < 1:
        raise ValueError("k must be at least 1")
    pts = [vec(p) for p in points]
    if len(pts) < 2:
        raise ValueError("Hoffman predicate needs at least two points")
    if len(pts) != len(set(pts)):
        raise ValueError("duplicate points")
    rows, den, zs = _coords_in_set(spec, pts)
    _in_set(pts, zs)
    n = len(rows)
    hulls = [[j for j in range(n) if j != i] for i in range(n)]
    lines = _intersection_lines(spec, rows, den, hulls, cap)
    return len(_points_on_lines(spec, lines)) < k


def hollow_search(
    spec: DiscreteSetSpec,
    box: Sequence,
    k: int,
    mode: str = "exhaustive",
    ground_cap: int = 20,
) -> HollowCertificate:
    """Maximum (exhaustive) or single-point-maximal (greedy) k-hollow set.

    The ground set is S intersected with the axis box.  Exhaustive mode
    walks subsets in decreasing size and returns the first k-hollow one
    (combinations in lexicographic ground order, so the result is
    deterministic); it refuses ground sets larger than ``ground_cap``, and
    a negative cap with ValueError.  Greedy mode makes one pass over the
    ground set: a non-vertex of conv(P) stays one in every larger hull, so
    a point refused once stays refused.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if ground_cap < 0:
        raise ValueError("cap 'ground_cap' must be nonnegative")
    ground = enumerate_in_polytope(spec, box_polytope(box))
    if mode == "exhaustive":
        if len(ground) > ground_cap:
            raise CapExceededError(
                f"ground set has {len(ground)} points, cap is {ground_cap}"
            )
        for size in range(len(ground), 0, -1):
            for subset in itertools.combinations(ground, size):
                count, cert = count_nonvertex(spec, subset)
                if count < k:
                    return replace(cert, k=k)
        return HollowCertificate((), k, ())
    if mode == "greedy":
        chosen: list = []
        for q in ground:
            count, _ = count_nonvertex(spec, chosen + [q])
            if count < k:
                chosen.append(q)
                chosen.sort()
        _, cert = count_nonvertex(spec, chosen) if chosen else (0, HollowCertificate((), k, ()))
        return replace(cert, k=k)
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# bound formulas


def _ceil_div(num: int, den: int) -> int:
    return -(-num // den)


def helly_upper_bound(spec: DiscreteSetSpec, k: int, mode: str = "paper") -> int:
    """Closed-form upper bound for the quantitative Helly number of S."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if mode not in ("paper", "best"):
        raise ValueError(f"unknown mode {mode!r}")
    if spec.variant == "lattice":
        r = spec.rank
        value = (2 ** r - 2) * _ceil_div(2 * (k + 1), 3) + 2
        if mode == "best" and k == 1:
            value = min(value, 2 ** r)
        return value
    if spec.variant == "difference":
        r = spec.rank
        m = len(spec.sublattices)
        return (2 ** (m + 1) * k + 1) ** r
    # mixed
    if k != 1:
        raise ValueError("mixed-variant bound applies only to k = 1")
    return (spec.b + 1) * 2 ** spec.a


def tverberg_upper_bound(
    spec: DiscreteSetSpec, m: int, k: int, mode: str = "paper"
) -> int:
    """Points guaranteeing an m-partition with k common S-points in the
    hulls: h (m - 1) k r + k, with h :func:`helly_upper_bound` and r the
    rank of S's lattice (the dimension for a mixed set).

    Why r and not the ambient d: S and the points lie in span(B), and
    z -> B z maps R^r linearly and one to one onto it, the lattice
    coordinates of S onto S.  A closed halfspace of R^d holding a point w
    of the span holds the whole span or meets it in a closed halfspace of
    it, so depth is the same over R^d, within the span and on the lattice
    coordinates, and so are hulls.  The instance is thus one over Z^r (less
    the removed sublattices), whose Helly number h is taken in rank r, and
    the paper's bound in dimension r applies, with the witness threshold
    (m - 1) k r + 1.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    return helly_upper_bound(spec, k, mode) * (m - 1) * k * spec.rank + k


def eckhoff_lower_bound(spec: DiscreteSetSpec, m: int) -> int:
    """Strict lower bound: with this many points a partition can still fail.

    Applies to lattices at k = 1: 2^r (m - 1) for a rank-r lattice.  z ->
    B z maps Z^r one to one onto it and keeps hulls (see
    :func:`tverberg_upper_bound`), so a point set of Z^r that admits no
    partition maps to one of the lattice that admits none.  A difference
    set is refused.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if spec.variant != "lattice":
        raise ValueError("lower bound applies only to lattices")
    return 2 ** spec.rank * (m - 1)
