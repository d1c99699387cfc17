"""Constructive quantitative Tverberg partitions over discrete sets.

The pipeline: find k points of S deep inside the input hull (depth at
least (m-1)kd + 1), then peel off m-1 small parts whose hulls keep all k
witnesses, leaving the rest as the final part.  Each peel costs every
witness at most kd depth (at most d when k = 1, where parts are affinely
independent Caratheodory supports), so the witnesses stay inside every
remainder hull by arithmetic.  The peel scales the points and witnesses
to integers once and solves each witness over each remainder once: that
combination is the exact check that the witness stayed inside, for k = 1
the next part, and for the last remainder its certificate.  Extraction
for k >= 2 retries with different anchors before giving up.

Status semantics: a returned outcome is either a fully certified
partition or an honest "no_partition_found" (possible only below the
proven point threshold).  Above the threshold a failed witness search is
a bug by the underlying theorem, reported as TheoremViolationError.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from math import inf
from operator import mul, sub
from typing import Optional, Sequence

# depth and enumerate_in_polytope are not called here; the benchmark's
# per-layer trace (perfbench/layers.py) wraps them under these names.
from .discrete_sets import (
    DiscreteSetSpec,
    PolytopeV,
    enumerate_in_polytope,
    lattice_points_in_polytope,
    set_contains,
    tverberg_upper_bound,
)
from .errors import PartitionConstructionError, TheoremViolationError
from .exact_geometry import (
    ConvexCombination,
    DepthResult,
    Halfspace,
    _convex_weights,
    anchored_reduce,
    caratheodory_reduce,
    centroid,
    depth,
    depth_count,
    extreme_points,
    membership,
)
from .vectors import ONE, Vec, int_scaled, require_int, vdot, vec


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
        if len(set(pts)) != len(pts):
            raise ValueError("input points must be pairwise distinct")
        if any(len(p) != self.spec.dim for p in pts):
            raise ValueError("point dimension does not match the ground set")
        for p in pts:
            if not set_contains(self.spec, p):
                raise ValueError(f"input point {p} is not in the ground set")

    @property
    def dim(self) -> int:
        return self.spec.dim


@dataclass(frozen=True)
class DeepWitness:
    point: Vec
    depth_result: DepthResult


@dataclass(frozen=True)
class WitnessSearch:
    witnesses: tuple  # DeepWitness, deepest first (ties: lex smaller point)
    insufficient: bool
    candidates_scanned: int


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


def _depth_upper_bounds(
    points: Sequence[tuple], zs: Sequence[tuple], den: int, t: int
) -> list:
    """Per lattice coordinate z, the least #{p : u.p >= den u.(z, 0)} over
    the bound directions u, for every z whose least count is at least t;
    every other z gets t - 1.

    points are distinct integer points of the lattice frame, scaled by
    den; each u and -u are counted from one sorted list proj of u.p, so a
    count of at least t on both sides needs
    ``proj[t - 1] <= den u.(z, 0) <= proj[n - t]``.  A z dropped at its
    first direction outside that window is not counted further.
    """
    n = len(points)
    if t > n:
        return [t - 1] * len(zs)
    d = len(points[0])
    axes = [tuple(int(j == i) for j in range(d)) for i in range(d)]
    dirs = axes + [
        tuple(a + sign * b for a, b in zip(u, v))
        for u, v in itertools.combinations(axes, 2)
        for sign in (1, -1)
    ]
    bounds = [n] * len(zs)
    alive = range(len(zs))
    for u in dirs:
        proj = sorted(sum(map(mul, u, p)) for p in points)
        lo, hi = (proj[t - 1], proj[n - t]) if t > 0 else (-inf, inf)
        scaled = [den * c for c in u]
        kept = []
        for i in alive:
            s = sum(map(mul, scaled, zs[i]))
            if s < lo or s > hi:
                bounds[i] = t - 1
                continue
            kept.append(i)
            ge = n - bisect_left(proj, s)
            bounds[i] = min(bounds[i], ge, bisect_right(proj, s))
        alive = kept
    return bounds


def find_deep_witnesses(
    points: Sequence, spec: DiscreteSetSpec, threshold: int, k: int
) -> WitnessSearch:
    """The k deepest points of S inside conv(points), depth >= threshold.

    Candidates are ranked by depth (descending) with lexicographic point
    order breaking ties.  When fewer than k candidates reach the
    threshold, all that do are returned and the search is marked
    insufficient.

    The search runs on integers in the lattice frame x -> T x of
    :func:`lattice_points_in_polytope`, where the points are its vertex
    coordinates and a candidate B z is den (z, 0); T is linear and
    invertible, so depth is unchanged.  Exact depth is computed only for
    candidates that can still be ranked.  Each candidate q gets the upper
    bound min over u of #{p : u.p >= u.q}, u ranging over the +-axes and
    the +-pairwise sums and differences of axes; the closed halfspace
    {u.x >= u.q} contains q, so its count is at least depth(q).
    Only candidates whose bound reaches the threshold get an exact bound.
    Candidates are visited by descending bound, and the visit stops at the
    first bound below the threshold, or below the k-th best exact depth
    once k candidates reached the threshold: no later candidate can then
    reach, or tie with, a chosen one.  Each visited candidate is scaled
    into the frame and its depth is asked of :func:`depth_count` with a
    floor: the cutoff (the threshold, or the k-th best depth once there
    are k), plus one when there are k and the candidate's ambient point is
    lexicographically after the k-th's, since a tie then cannot displace
    it.  Below the floor the query stops at its first wall below it and
    the candidate is dropped; at or above it the depth is exact and the
    candidate is ranked with its witness thunk.  Only the chosen build
    their witness normal v, as the ambient normal T^t v.  On the standard
    lattice T is the identity and the witness is the one :func:`depth`
    returns.
    """
    pts = [vec(p) for p in points]
    zs, coords, den = lattice_points_in_polytope(spec, PolytopeV(tuple(pts)))
    if k < 1:
        return WitnessSearch((), False, len(zs))
    lat = spec.base
    bounds = _depth_upper_bounds(coords, zs, den, threshold)
    pad = (0,) * (spec.dim - lat.rank)
    # (-depth, ambient point times lat._den, witness thunk), best first, at
    # most k; the prefix is unique, so two thunks are never compared
    top = []
    cutoff = threshold
    for i in sorted(range(len(zs)), key=bounds.__getitem__, reverse=True):
        if bounds[i] < cutoff:
            break
        point = tuple(sum(map(mul, row, zs[i])) for row in zip(*lat._int_vectors))
        # a tie with the k-th witness displaces it only from before it
        need = cutoff + 1 if len(top) == k and point > top[-1][1] else cutoff
        q = tuple(den * c for c in zs[i]) + pad
        W = [tuple(map(sub, p, q)) for p in coords if p != q]
        on_vertex = len(coords) - len(W)
        count, witness = depth_count(W, spec.dim, need - on_vertex)
        value = count + on_vertex
        if value >= need:
            insort(top, (-value, point, witness))
            del top[k:]
            if len(top) == k:
                cutoff = -top[-1][0]
    chosen = []
    for neg_value, scaled, witness in top:
        point = tuple(Fraction(c, lat._den) for c in scaled)
        v = witness()
        normal = vec(sum(map(mul, v, col)) for col in zip(*lat._t_rows))
        result = DepthResult(-neg_value, Halfspace(normal, vdot(normal, point)))
        chosen.append(DeepWitness(point, result))
    return WitnessSearch(tuple(chosen), len(chosen) < k, len(zs))


def colorful_cover(witness_points: Sequence, ground: Sequence) -> tuple:
    """Small B within ground with all witness points in conv(B).

    Targets |B| <= n*d for n hull vertices of the witness set by writing
    each vertex over an interior anchor plus <= d ground points; if every
    anchored reduction meets its target, a strict separator of any witness
    from conv(B) would have to cut the anchor averaging argument, which is
    impossible, and the exact verification below confirms it.  Anchors are
    retried and the final fallback is a plain Caratheodory support per
    vertex (<= n*(d+1) points, always valid).

    Returns ``(points, fallback)``.
    """
    P = [vec(p) for p in witness_points]
    A = [vec(a) for a in ground]
    if not P:
        raise ValueError("empty witness set")
    for p in P:
        if not membership(p, A).inside:
            raise ValueError("witness set is not inside the ground hull")
    uniq = sorted(set(P))
    if len(uniq) == 1:
        support, _ = caratheodory_reduce(uniq[0], A)
        return support, False
    ext = sorted(extreme_points(uniq))
    d = len(P[0])
    anchors = [centroid(ext)] + ext
    for anchor in anchors:
        cover: dict = {}
        fallback = False
        for y in ext:
            red = anchored_reduce(y, anchor, A)
            fallback = fallback or red.fallback
            for b in red.points:
                cover.setdefault(b, None)
        chosen = list(cover)
        if chosen and all(membership(y, chosen).inside for y in ext):
            return chosen, fallback
    cover = {}
    for y in ext:
        support, _ = caratheodory_reduce(y, A)
        for b in support:
            cover.setdefault(b, None)
    return list(cover), True


def extract_part(
    witness_points: Sequence, remaining: Sequence, k: int, d: int
) -> tuple:
    """One part: hull covers the witnesses, size <= d+1 (k=1) or <= k(d+1).

    Returns ``(points, fallback)``.
    """
    if k == 1:
        support, _ = caratheodory_reduce(vec(witness_points[0]), remaining)
        return support, False
    return colorful_cover(witness_points, remaining)


def tverberg_partition(instance: Instance) -> TverbergOutcome:
    """Certified m-partition with >= k common S-points in all part hulls.

    Deterministic: identical instances give identical outcomes.  Raises
    TheoremViolationError when the witness search falls short despite the
    instance meeting the proven size bound, and PartitionConstructionError
    when extraction invalidates a witness and no retry policy recovers.
    """
    spec, pts, m, k = instance.spec, list(instance.points), instance.m, instance.k
    d = instance.dim
    threshold = (m - 1) * k * d + 1
    search = find_deep_witnesses(pts, spec, threshold, k)
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
    ints, den = int_scaled(pts + witnesses)
    targets = ints[len(pts):]

    def certify(indices: Sequence[int]) -> tuple:
        """Each witness's combination over the input points at the sorted
        ``indices``, as :func:`caratheodory_reduce` gives it; raises
        PartitionConstructionError when a witness is outside their hull."""
        sub = [ints[i] for i in indices]
        certs = []
        for w, q in zip(witnesses, targets):
            weights = [(sub.index(q), ONE)] if q in sub else _convex_weights(q, sub, den)
            if isinstance(weights, Halfspace):
                raise PartitionConstructionError(
                    f"witness {w} is outside the hull of input points {indices}"
                )
            comb = ConvexCombination(tuple((pts[indices[j]], c) for j, c in weights))
            if not comb.verify(w):
                raise PartitionConstructionError(
                    f"certificate for witness {w} failed to verify"
                )
            certs.append(comb)
        return tuple(certs)

    index_of = {p: i for i, p in enumerate(pts)}
    remaining = list(range(len(pts)))
    # the witnesses' combinations over the remainder check that they stayed
    # inside; for k = 1 they give the next part, and at the end the last one's
    combos = certify(remaining) if k == 1 or m == 1 else None
    parts_idx = []
    flags = []
    for _ in range(m - 1):
        if k == 1:
            part, fb = {index_of[p] for p in combos[0].support()}, False
        else:
            try:
                cover, fb = extract_part(witnesses, [pts[i] for i in remaining], k, d)
            except ValueError as exc:
                raise PartitionConstructionError(
                    f"extraction failed on remainder of {len(remaining)} points: {exc}"
                ) from exc
            part = {index_of[p] for p in cover}
        remaining = [i for i in remaining if i not in part]
        if not remaining:
            raise PartitionConstructionError(
                "extraction consumed every remaining point"
            )
        combos = certify(remaining)
        parts_idx.append(tuple(sorted(part)))
        flags.append(fb)
    parts_idx.append(tuple(remaining))
    flags.append(False)
    certificates = tuple(certify(idxs) for idxs in parts_idx[:-1]) + (combos,)
    stats = {
        "part_sizes": [len(idxs) for idxs in parts_idx],
        "witness_depths": [w.depth_result.depth for w in search.witnesses],
        "fallback_flags": flags,
        "candidates_scanned": search.candidates_scanned,
        "threshold": threshold,
        "guarantee_bound": bound,
    }
    result = PartitionResult(
        tuple(parts_idx), tuple(witnesses), certificates, stats
    )
    return TverbergOutcome("ok", result=result, witness_search=search)


def radon_partition(instance: Instance) -> TverbergOutcome:
    """Tverberg with m = 2."""
    if instance.m != 2:
        raise ValueError("Radon partition requires m = 2")
    return tverberg_partition(instance)
