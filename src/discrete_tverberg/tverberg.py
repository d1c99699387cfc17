"""Constructive quantitative Tverberg partitions over discrete sets.

The pipeline: find k points of S deep inside the input hull (depth at
least (m-1)kd + 1), then peel off m-1 small parts whose hulls keep all k
witnesses, leaving the rest as the final part.  Each peel costs every
witness at most kd depth (at most d when k = 1, where parts are affinely
independent Caratheodory supports), so the witnesses stay inside every
remainder hull by arithmetic; the engine nevertheless re-verifies each
containment exactly and retries with different anchors before giving up.

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
from math import lcm
from operator import mul, sub
from typing import Optional, Sequence

# depth and enumerate_in_polytope are not called here; the benchmark's
# per-layer trace (perfbench/layers.py) wraps them under these names.
from .discrete_sets import (
    DiscreteSetSpec,
    PolytopeV,
    enumerate_in_polytope,
    enumerate_scaled_in_polytope,
    set_contains,
    tverberg_upper_bound,
)
from .errors import PartitionConstructionError, TheoremViolationError
from .exact_geometry import (
    DepthResult,
    Halfspace,
    anchored_reduce,
    caratheodory_reduce,
    centroid,
    depth,
    depth_count,
    extreme_points,
    membership,
)
from .vectors import Vec, common_denominator, require_int, vdot, vec


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


def _depth_upper_bounds(points: Sequence[tuple], queries: Sequence[tuple]) -> list:
    """Per query q, the least #{p : u.p >= u.q} over the bound directions u.

    points are distinct integer points, queries integer points; each u and
    -u are counted from one sorted list of u.p.
    """
    d = len(points[0])
    axes = [tuple(int(t == i) for t in range(d)) for i in range(d)]
    dirs = axes + [
        tuple(a + sign * b for a, b in zip(u, v))
        for u, v in itertools.combinations(axes, 2)
        for sign in (1, -1)
    ]
    bounds = [len(points)] * len(queries)
    for u in dirs:
        proj = sorted(sum(map(mul, u, p)) for p in points)
        for i, q in enumerate(queries):
            s = sum(map(mul, u, q))
            ge = len(proj) - bisect_left(proj, s)
            bounds[i] = min(bounds[i], ge, bisect_right(proj, s))
    return bounds


def find_deep_witnesses(
    points: Sequence, spec: DiscreteSetSpec, threshold: int, k: int
) -> WitnessSearch:
    """The k deepest points of S inside conv(points), depth >= threshold.

    Candidates are ranked by depth (descending) with lexicographic point
    order breaking ties.  When fewer than k candidates reach the
    threshold, all that do are returned and the search is marked
    insufficient.

    The search runs on integers: the candidates come from
    :func:`enumerate_scaled_in_polytope`, and points and candidates are
    scaled to one common denominator, which leaves depth unchanged.  Exact
    depth is computed only for candidates that can still be ranked.  Each
    candidate q gets the upper bound min over u of #{p : u.p >= u.q}, u
    ranging over the +-axes and the +-pairwise sums and differences of
    axes; the closed halfspace {u.x >= u.q} contains q, so its count is at
    least depth(q).  Candidates are visited by (-bound, point), and the
    visit stops at the first bound below the threshold, or below the k-th
    best exact depth once k candidates reached the threshold: no later
    candidate can then reach, or tie with, a chosen one.  Each visited
    candidate gets its depth and a witness thunk from :func:`depth_count`;
    only the chosen build their integer witness normal and become Fraction
    points with a :class:`DepthResult`.  On integral points the witness is
    the one :func:`depth` returns; on other scales it may be another
    minimizing halfspace.
    """
    pts = [vec(p) for p in points]
    candidates, den = enumerate_scaled_in_polytope(spec, PolytopeV(tuple(pts)))
    if k < 1:
        return WitnessSearch((), False, len(candidates))
    scale = lcm(den, common_denominator(pts))
    point_ints = list(dict.fromkeys(
        tuple(c.numerator * (scale // c.denominator) for c in p) for p in pts
    ))
    cand_ints = [tuple(scale // den * c for c in q) for q in candidates]
    bounds = _depth_upper_bounds(point_ints, cand_ints)
    # (-depth, candidate index, witness thunk), best first, at most k; the
    # prefix is unique, so two thunks are never compared
    top = []
    cutoff = threshold
    # candidates are sorted, and a reversed sort is still stable: equal
    # bounds keep lexicographic order
    for i in sorted(range(len(candidates)), key=bounds.__getitem__, reverse=True):
        if bounds[i] < cutoff:
            break
        q = cand_ints[i]
        W = [tuple(map(sub, p, q)) for p in point_ints if p != q]
        count, witness = depth_count(W, spec.dim)
        value = count + len(point_ints) - len(W)
        if value >= threshold:
            insort(top, (-value, i, witness))
            del top[k:]
            if len(top) == k:
                cutoff = -top[-1][0]
    chosen = []
    for neg_value, i, witness in top:
        point = tuple(Fraction(c, den) for c in candidates[i])
        normal = vec(witness())
        result = DepthResult(-neg_value, Halfspace(normal, vdot(normal, point)))
        chosen.append(DeepWitness(point, result))
    return WitnessSearch(tuple(chosen), len(chosen) < k, len(candidates))


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


def _certify(witnesses: Sequence[Vec], part: Sequence[Vec]) -> tuple:
    certs = []
    for w in witnesses:
        _, comb = caratheodory_reduce(w, part)
        if not comb.verify(w):
            raise PartitionConstructionError(
                f"certificate for witness {w} failed to verify"
            )
        certs.append(comb)
    return tuple(certs)


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
    index_of = {p: i for i, p in enumerate(instance.points)}
    remaining = list(instance.points)
    parts_idx = []
    flags = []
    for _ in range(m - 1):
        try:
            part, fb = extract_part(witnesses, remaining, k, d)
        except ValueError as exc:
            raise PartitionConstructionError(
                f"extraction failed on remainder of {len(remaining)} points: {exc}"
            ) from exc
        part_set = set(part)
        remaining = [p for p in remaining if p not in part_set]
        if not remaining:
            raise PartitionConstructionError(
                "extraction consumed every remaining point"
            )
        for w in witnesses:
            if not membership(w, remaining).inside:
                raise PartitionConstructionError(
                    f"witness {w} left the hull of the remaining points "
                    f"after extracting {sorted(part)}"
                )
        parts_idx.append(tuple(sorted(index_of[p] for p in part)))
        flags.append(fb)
    parts_idx.append(tuple(sorted(index_of[p] for p in remaining)))
    flags.append(False)
    part_points = [[instance.points[i] for i in idxs] for idxs in parts_idx]
    certificates = tuple(_certify(witnesses, part) for part in part_points)
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
