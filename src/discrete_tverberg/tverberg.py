"""Constructive quantitative Tverberg partitions over discrete sets.

The pipeline: find k points of S deep inside the input hull (depth at
least (m-1)kr + 1, r the rank of S's lattice), then peel off m-1 small
parts whose hulls keep all k witnesses, leaving the rest as the final
part.  Each peel costs every witness at most kr depth (at most r when
k = 1, where a part is one Caratheodory support), so the witnesses stay
inside every remainder hull by arithmetic.  The search and the peel work
on lattice coordinates: the instance's, kept from its validation
(:func:`distinct_lattice_coords`) or from the sample pool it was drawn
from, and, in the peel, the witnesses', kept from their search.  Each
witness is solved once over each remainder, which checks that it stayed
inside.  When k = 1 the part is the support of that solve, whose weights
certify it; when k >= 2 the part covers the witnesses (:func:`_cover`,
which always does) and they are solved again over it.  The last
remainder's solves are its certificates, and every certificate is checked
on those lattice coordinates.

Status semantics: a returned outcome is either a fully certified
partition or an honest "no_partition_found" (possible only below the
proven point threshold).  Above the threshold a failed witness search is
a bug by the underlying theorem, reported as TheoremViolationError.
"""
from __future__ import annotations

import functools
import itertools
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from functools import cached_property
from operator import mul, sub
from typing import Callable, Optional, Sequence

# depth, enumerate_in_polytope, membership, caratheodory_reduce and
# anchored_reduce are imported only for the benchmark's per-layer trace
# (perfbench/layers.py), which wraps them under these names; nothing here
# calls them.  extract_part, below, is the only cover entry point kept for
# that trace: the peel in tverberg_partition calls _cover directly.
from .discrete_sets import (
    DiscreteSetSpec,
    _clip_line,
    _PolygonLines,
    distinct_lattice_coords,
    enumerate_in_polytope,
    hull_frame,
    search_lines,
    tverberg_upper_bound,
)
from .errors import PartitionConstructionError, TheoremViolationError
from .exact_geometry import (
    ConvexCombination,
    DepthResult,
    Halfspace,
    _anchored_weights,
    _check_dims,
    _convex_weights_each,
    _verify_weights,
    _vertices,
    anchored_reduce,
    caratheodory_reduce,
    depth,
    depth_count,
    membership,
)
from .vectors import ONE, Vec, column_dots, int_scaled, require_int, vdot, vec


@dataclass(frozen=True)
class Instance:
    spec: DiscreteSetSpec
    points: tuple
    m: int
    k: int

    def __post_init__(self):
        pts = tuple(vec(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if require_int(self.m, "m") < 1 or require_int(self.k, "k") < 1:
            raise ValueError("m and k must be at least 1")
        if not pts:
            raise ValueError("an instance needs at least one point")
        # each point's lattice coordinates, on which the witness search and
        # the peel run; distinctness is checked first
        object.__setattr__(self, "_coords", tuple(distinct_lattice_coords(self.spec, pts)))

    @classmethod
    def _from_pool(cls, pool, indices: Sequence[int], m: int, k: int) -> "Instance":
        """The instance of the points ``pool.points[i]``, i in indices, built
        without validation: each point's lattice coordinates are
        ``pool.coords[i]``, not mapped.  Sound only for a pool of points
        of S, pairwise distinct, with their lattice coordinates (what
        :func:`.harness.sample_pool` returns), distinct indices, and m and k
        already checked, so its one caller is :func:`.harness.generate_instance`.
        """
        inst = object.__new__(cls)
        points = tuple([pool.points[i] for i in indices])
        zs = tuple([pool.coords[i] for i in indices])
        for name, value in (("spec", pool.spec), ("points", points), ("m", m), ("k", k),
                            ("_coords", zs)):
            object.__setattr__(inst, name, value)
        return inst

    @property
    def dim(self) -> int:
        return self.spec.dim


@dataclass(frozen=True)
class DeepWitness:
    """A point of S, its exact depth, the lattice coordinates z (B z =
    point) the search ranked it by, and a thunk of the ambient normal of
    its depth query's witness; :attr:`depth_result`, which no trial output
    holds, is built from it when first read, and then kept.  Equality sees
    only the point and depth.
    """

    point: Vec
    depth: int
    normal: Callable[[], Vec] = field(repr=False, compare=False)
    z: tuple = field(repr=False, compare=False)

    @cached_property
    def depth_result(self) -> DepthResult:
        normal = self.normal()
        return DepthResult(self.depth, Halfspace(normal, vdot(normal, self.point)))


@dataclass(frozen=True)
class WitnessSearch:
    witnesses: tuple  # DeepWitness, deepest first (ties: lex smaller point)
    insufficient: bool
    candidates_scanned: int
    # the hull2d of the points' lattice coordinates, when the search built
    # it (S a rank-2 lattice with nothing removed), for the peel's first solve
    polygon: Optional[list] = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class PartitionResult:
    """Certified m-partition: parts index into the instance's point list."""

    parts: tuple  # m tuples of sorted input indices
    witnesses: tuple  # k points of S
    certificates: tuple  # certificates[i][j]: witness j in conv(part i)
    stats: dict


@dataclass(frozen=True)
class TverbergOutcome:
    status: str  # "ok" | "no_partition_found"
    result: Optional[PartitionResult] = None
    reason: Optional[str] = None
    witness_search: Optional[WitnessSearch] = None


@functools.cache
def _level_directions(d: int) -> tuple:
    """The level polytopes' directions in dimension d, one of each +-u:
    every primitive direction with at most two nonzero entries, each of
    absolute value at most 2.  The axes come first, then for each pair of
    axes e_i, e_j (i < j) the a e_i + b e_j with a > 0."""
    axes = [tuple(int(j == i) for j in range(d)) for i in range(d)]
    return tuple(axes + [
        tuple(a * x + b * y for x, y in zip(u, v))
        for u, v in itertools.combinations(axes, 2)
        for a, b in ((1, 1), (1, -1), (1, 2), (1, -2), (2, 1), (2, -1))
    ])


def _bound_levels(lines, firsts, coords: list, den: int, rank: int, lowest: int,
                  dirs: Sequence):
    """Yield ``(t, level)`` from the top level down to ``lowest``: level
    lazily yields the lattice coordinates z of bound t on the hull lines
    ``(head, lo, hi)`` of :func:`search_lines` in lexicographic order, once
    the higher levels are read.  With proj_u the sorted u.p over the n
    distinct coords, the bound is at least t exactly when ``proj_u[t - 1]
    <= den u.(z, 0) <= proj_u[n - t]`` for each u of dirs, whose first
    entry is the first axis: two cuts per u on a line (:func:`_clip_line`).
    Above the top some window is empty; a level cuts only the lines whose
    head is in the first axis's window (a bisection of the heads' first
    entries ``firsts``); a line's head dot products are taken when it is
    first cut.
    """
    n = len(coords)
    cols = list(zip(*coords))
    projs = [sorted(column_dots(u, cols)) for u in dirs]
    top = next(t for t in range(n, 0, -1) if all(p[t - 1] <= p[n - t] for p in projs))
    # the cuts u.x >= proj_u[t - 1] and -u.x >= -proj_u[n - t] of each u
    lasts = [c * den * u[rank - 1] for u in dirs for c in (1, -1)]
    dots = {}  # each cut line's head dot products, taken once
    inner = [(0, -1)] * len(lines)  # each line's interval of Q_(t+1)

    def level(t):
        offsets = [x for p in projs for x in (p[t - 1], -p[n - t])]
        span = range(len(lines))
        if firsts is not None:  # the heads are sorted by their first entry
            span = range(bisect_left(firsts, -(-offsets[0] // den)),
                         bisect_right(firsts, -offsets[1] // den))
        for i in span:
            head, lo, hi = lines[i]
            if i not in dots:
                # map stops at the head's end; u's last entry is in lasts
                h = [den * sum(map(mul, u, head)) for u in dirs]
                dots[i] = [x for s in h for x in (s, -s)]
            lo, hi = _clip_line(lo, hi, zip(lasts, map(sub, offsets, dots[i])))
            if lo > hi:
                continue
            a, b = inner[i]
            inner[i] = lo, hi
            if a > b:
                a = b = hi + 1
            for z in itertools.chain(range(lo, a), range(b + 1, hi + 1)):
                yield head + (z,)

    for t in range(top, max(lowest, 1) - 1, -1):
        yield t, level(t)


def find_deep_witnesses(
    points: Sequence, spec: DiscreteSetSpec, threshold: int, k: int,
    frame: Optional[tuple] = None,
) -> WitnessSearch:
    """The k deepest points of S inside conv(points), depth >= threshold.

    Candidates are ranked by depth (descending) with lexicographic point
    order breaking ties.  When fewer than k candidates reach the
    threshold, all that do are returned and the search is marked
    insufficient.  ``candidates_scanned`` is the number of lattice points
    of S in the hull, as :func:`search_lines` counts them: by Pick's
    theorem on a rank-2 lattice, else line by line.

    The search runs on distinct integer rows of one den: ``frame``, when
    the caller has them (an :class:`Instance` gives its points' lattice
    coordinates z with den 1), else the points' :func:`hull_frame` in the
    lattice frame x -> T x, where a candidate B z is den (z, 0).  Both maps
    are linear and injective on S's span, so depth is unchanged (see
    :func:`tverberg_upper_bound`); the rows' width sets a candidate's
    padding past the rank and the dimension of its depth query.  Exact
    depth is computed only for candidates that can still be ranked.  Each
    candidate q gets the upper bound min over u of #{p : u.p >= u.q}, u
    ranging over both signs of :func:`_level_directions`: the axes and
    every primitive u with two nonzero entries in {+-1, +-2}; the closed
    halfspace {u.x >= u.q} contains q, so its count is at least depth(q).
    The candidates whose bound is at least t form the level polytope Q_t,
    the hull cut by two integer halfspaces per u, and Q_(t+1) is inside
    Q_t.
    So on each hull line the candidates of bound t are Q_t's interval less
    Q_(t+1)'s, and walking the levels down, each level's lines in
    lexicographic order (:func:`_bound_levels`), visits the candidates in
    the order of a stable sort by descending bound, without bounding the
    others.  The visit stops at the first bound below the threshold, or
    below the k-th best exact depth once k candidates reached the
    threshold: no later candidate can then reach, or tie with, a chosen
    one.  Each visited candidate q is scaled to the rows and its depth
    is asked of :func:`depth_count`, on the differences p - q built from the
    points' columns shifted by q, less q's own row when q is a point (the
    coords are distinct, so a dict finds it), with a floor: the cutoff
    (the threshold, or the k-th best depth once there are k), plus one
    when there are k and the candidate's ambient point is
    lexicographically after the k-th's, since a tie then cannot displace
    it.  Below the floor the query stops at its first wall below it and
    the candidate is dropped; at or above it the depth is exact and the
    candidate is ranked with its witness thunk.  A stopped query still
    returns a witness v whose closed halfspace through the candidate holds
    fewer than ``need`` points, and the search keeps it as a cut ``(v,
    sorted v.p)``, the v.p taken from the points' columns
    (:func:`column_dots`): for any later candidate q the closed halfspace
    {v.x >= v.q} contains q, so ``#{p : v.p >= v.q}`` (a bisection) is at
    least depth(q), and a candidate that some cut puts below its own floor
    is skipped without a query, since the query would drop it.  The cut
    that skipped it moves to the front of the list.  Only the stopped
    queries call their witness thunks.  A chosen witness keeps its z, on
    which the peel solves, and its thunk; its halfspace is built when its
    :attr:`DeepWitness.depth_result` is first read, with the ambient normal
    T^t v (:meth:`LatticeBasis.ambient_normal`).  On the standard lattice T
    is the identity and the witness is the one :func:`depth` returns.
    """
    coords, den = frame or hull_frame(spec, [vec(p) for p in points])
    lines, firsts, scanned = search_lines(spec, coords, den)
    polygon = lines.hull if isinstance(lines, _PolygonLines) else None
    if k < 1:
        return WitnessSearch((), False, scanned, polygon)
    lat = spec.base
    width = len(coords[0])
    pad = (0,) * (width - lat.rank)
    # (-depth, scaled ambient point, z, witness thunk), best first, at most
    # k; the prefix is unique, so two thunks are never compared
    top = []
    cutoff = threshold
    n = len(coords)
    cuts = []  # (v, sorted v.p) of each stopped query's witness v
    dirs = _level_directions(width)
    cols = list(zip(*coords))
    index = {p: i for i, p in enumerate(coords)}  # the coords are distinct
    for bound, level in _bound_levels(lines, firsts, coords, den, lat.rank, threshold,
                                      dirs):
        if bound < cutoff:
            break  # before the level's lines are cut
        for z in level:
            if spec.removes(z):
                continue  # removed from a difference set
            point = lat.scaled_point(z)
            # a tie with the k-th witness displaces it only from before it
            need = cutoff + 1 if len(top) == k and point > top[-1][1] else cutoff
            q = tuple(den * c for c in z) + pad
            hit = next((i for i, (v, proj) in enumerate(cuts)
                        if n - bisect_left(proj, sum(map(mul, v, q))) < need), None)
            if hit is not None:
                cuts.insert(0, cuts.pop(hit))
                continue
            W = list(zip(*[map(sub, col, itertools.repeat(c)) for col, c in zip(cols, q)]))
            i = index.get(q)
            if i is not None:
                del W[i]
            on_vertex = n - len(W)
            count, witness = depth_count(W, width, need - on_vertex)
            value = count + on_vertex
            if value >= need:
                insort(top, (-value, point, z, witness))
                del top[k:]
                if len(top) == k:
                    cutoff = -top[-1][0]
            else:
                v = witness()
                cuts.append((v, sorted(column_dots(v, cols))))
    chosen = tuple(
        DeepWitness(lat.from_lattice(z), -neg_value,
                    lambda witness=witness: lat.ambient_normal(witness()), z)
        for neg_value, _, z, witness in top)
    return WitnessSearch(chosen, len(chosen) < k, scanned, polygon)


def _weights(targets: Sequence[tuple], sub: Sequence[tuple], den: int,
             hull: Optional[list] = None) -> list:
    """Each target's convex weights over the distinct points ``sub`` as
    :func:`caratheodory_reduce` gives them, all integers ``den`` times the
    caller's, up to the first target outside ``conv(sub)``, whose entry is
    then None.  A target that is a point of sub is that point alone; the
    others are asked of one :func:`_convex_weights_each` pass in order,
    which in 2-d builds sub's hull once for all of them, or takes it as
    ``hull`` when the caller has it."""
    solved = _convex_weights_each([q for q in targets if q not in sub], sub, den, hull)
    out = []
    for q in targets:
        out.append([(sub.index(q), ONE)] if q in sub else next(solved))
        if out[-1] is None:
            break
    return out


def _cover(targets: list, sub: list, den: int, weights: list) -> tuple:
    """``(cover, certificates)`` for integer targets inside the distinct
    integer points ``sub``, both ``den`` times the caller's, given their
    :func:`_weights` over sub: indices into sub in the order found, and the
    targets' weights over the sorted cover.

    One distinct target is covered by its support.  Its weights there are
    the given ones, in their order, re-indexed onto the sorted cover: a
    support with positive weights is affinely independent, so no other
    weights exist.  Two or more distinct targets are covered by at most n d
    points, each of their n hull vertices y written over their barycentre
    a plus at most d points (:func:`_anchored_weights`, scaled by n).  This
    always covers: (1) no y is a, so each ``y = alpha_y a + sum_j c_yj p_j``
    has ``alpha_y < 1``; (2) averaging over y, ``(1 - mean alpha) a = (1/n)
    sum_y sum_j c_yj p_j``, so a is in the cover's hull; (3) so is every y,
    hence every target; (4) no reduction is None, as each y is a target in
    conv(sub).  Their weights over the cover are solved (:func:`_weights`).
    """
    ext = sorted(set(targets))
    if len(ext) == 1:
        cover = list(dict.fromkeys(j for j, _ in weights[0]))
        pos = {j: i for i, j in enumerate(sorted(cover))}
        return cover, [[(pos[j], c) for j, c in w] for w in weights]
    ext = [ext[i] for i in _vertices(ext)]
    n = len(ext)
    a = tuple(map(sum, zip(*ext)))
    sub_n = [tuple([n * c for c in p]) for p in sub]
    cover = {}
    for y in ext:
        y = tuple([n * c for c in y])
        terms, _ = _anchored_weights(y, a, sub_n, n * den)
        cover.update(dict.fromkeys(j for j, _ in terms))
    return list(cover), _weights(targets, [sub[j] for j in sorted(cover)], den)


def extract_part(
    witness_points: Sequence, remaining: Sequence, k: int, d: int
) -> list:
    """The points of a part whose hull covers the first witness (k=1, size
    <= d+1) or all of them (size <= kd): their :func:`_cover` in remaining,
    by one integer scaling, in the order found."""
    P = [vec(p) for p in (witness_points[:1] if k == 1 else witness_points)]
    A = list(dict.fromkeys(vec(a) for a in remaining))
    if not P or not A:
        raise ValueError("empty witness or ground set")
    _check_dims(P[0], A + P)
    ints, den = int_scaled(A + P)
    sub, targets = ints[:len(A)], ints[len(A):]
    weights = _weights(targets, sub, den)
    if weights[-1] is None:
        raise ValueError("witness set is not inside the ground hull")
    cover, _ = _cover(targets, sub, den, weights)
    return [A[j] for j in cover]


def _witness_depth_threshold(m: int, k: int, r: int) -> int:
    """(m - 1) k r + 1, the depth each witness needs, with r the rank of S's
    lattice: every one of the m - 1 peels costs it at most kr.

    The peel solves on lattice coordinates in Z^r, where x = B z is linear
    and injective, so depth and hulls are those of the ambient points (see
    :func:`tverberg_upper_bound`): a part is a Caratheodory support of at
    most r + 1 points when k = 1, costing a witness at most r, and at most
    kr points otherwise (:func:`_cover`'s anchored reductions).
    """
    return (m - 1) * k * r + 1


def tverberg_partition(instance: Instance) -> TverbergOutcome:
    """Certified m-partition with >= k common S-points in all part hulls.

    Deterministic: identical instances give identical outcomes.  Raises
    TheoremViolationError when the witness search falls short despite the
    instance meeting the proven size bound, and PartitionConstructionError
    when a witness fails to certify: a bug, which no retry hides.
    """
    spec, pts, m, k = instance.spec, list(instance.points), instance.m, instance.k
    threshold = _witness_depth_threshold(m, k, spec.rank)
    search = find_deep_witnesses(pts, spec, threshold, k, frame=(instance._coords, 1))
    bound = tverberg_upper_bound(spec, m, k, "paper")
    if search.insufficient:
        if len(pts) >= bound:
            raise TheoremViolationError(
                f"only {len(search.witnesses)} of {k} witnesses reached depth "
                f"{threshold} on {len(pts)} points (bound {bound}); this "
                "contradicts the guarantee and means a bug"
            )
        return TverbergOutcome(
            "no_partition_found",
            reason=(
                f"{len(search.witnesses)} of {k} candidate points reached depth "
                f"{threshold}; instance has {len(pts)} points, below the "
                f"guarantee threshold {bound}"
            ),
            witness_search=search,
        )
    witnesses = [w.point for w in search.witnesses]
    ints, targets = instance._coords, [w.z for w in search.witnesses]

    def certify(indices: Sequence[int], weights: list) -> tuple:
        """The witnesses' :func:`_weights` over the input points at the sorted
        ``indices`` as combinations, each checked once on the lattice
        coordinates it was solved on (:func:`_verify_weights`, which holds
        exactly when :meth:`ConvexCombination.verify` does, since B is
        linear and injective); PartitionConstructionError if one fails."""
        zs = [ints[i] for i in indices]
        certs = []
        for w, t, res in zip(witnesses, targets, weights):
            if res is None:
                raise PartitionConstructionError(
                    f"witness {w} is outside the hull of input points {indices}"
                )
            if not _verify_weights(t, zs, res):
                raise PartitionConstructionError(
                    f"certificate for witness {w} failed to verify"
                )
            certs.append(ConvexCombination(tuple((pts[indices[j]], c) for j, c in res)))
        return tuple(certs)

    # each witness is solved once over each remainder, which checks that it
    # stayed inside; a k = 1 part keeps that solve's weights as its
    # certificate, a k >= 2 part is solved again; only the last remainder's
    # solves are certified, as they are its certificates.  The first
    # remainder is every point, whose planar hull the search may have built
    remaining, sub, hull = list(range(len(pts))), ints, search.polygon
    parts = []  # (sorted input indices, certificates)
    while True:
        weights = _weights(targets, sub, 1, hull)
        hull = None
        if len(parts) == m - 1 or weights[-1] is None:
            break
        cover, part_weights = _cover(targets, sub, 1, weights)
        part = sorted(remaining[j] for j in cover)
        parts.append((tuple(part), certify(part, part_weights)))
        remaining = [i for i in remaining if i not in part]
        if not remaining:
            raise PartitionConstructionError(
                "extraction consumed every remaining point"
            )
        sub = [ints[i] for i in remaining]
    parts.append((tuple(remaining), certify(remaining, weights)))
    parts_idx, certificates = zip(*parts)
    stats = {
        "part_sizes": [len(idxs) for idxs in parts_idx],
        "witness_depths": [w.depth for w in search.witnesses],
        "candidates_scanned": search.candidates_scanned,
        "threshold": threshold,
        "guarantee_bound": bound,
    }
    result = PartitionResult(parts_idx, tuple(witnesses), certificates, stats)
    return TverbergOutcome("ok", result=result, witness_search=search)

