"""Brute-force ground truth for every decision the engine makes.

Everything here trades speed for a second derivation: no code path below
shares the engine's depth recursion, witness ranking, or extraction
logic.  The oracles are not fully independent, though: ``brute_depth``
decides membership with the engine's :func:`membership` (its kernel
``_convex_weights``), and so does ``verify_partition`` for a result that
carries no certificates; one that does has each certificate checked by
exact integer arithmetic (``_verify_weights``), not re-derived.  The
points of S common to several hulls (``brute_tverberg``,
``brute_helly_check`` and, through ``is_k_hoffman``,
``brute_hoffman_max``) come from the engine's one line scan of their
intersection, ``_intersection_lines``.  A witness is in S for
``verify_partition`` by S's ambient definition, not by the engine's
``distinct_lattice_coords``.
Caps are explicit and exceeding one raises instead of silently truncating,
so a cap can never masquerade as a negative verdict.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Optional, Sequence

from .discrete_sets import (
    DiscreteSetSpec,
    PolytopeV,
    box_polytope,
    enumerate_in_polytope,
    is_k_hoffman,
    _ambient_points,
    _frame,
    _intersection_lines,
    _points_on_lines,
)
from .errors import CapExceededError
from .exact_geometry import _check_dims, _verify_weights, membership
from .tverberg import Instance, PartitionResult
from .vectors import ZERO, Vec, int_scaled, vec


@dataclass(frozen=True)
class OracleCaps:
    depth_points: int = 14
    depth_dim: int = 4
    partitions: int = 1_000_000
    hoffman_ground: int = 18
    helly_family: int = 12

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"cap {f.name!r} must be nonnegative")


DEFAULT_CAPS = OracleCaps()


# ---------------------------------------------------------------------------
# depth


def brute_depth(query, points, caps: OracleCaps = DEFAULT_CAPS) -> int:
    """Exact halfspace depth by exhausting sign patterns of the differences.

    A closed halfspace with the query on its boundary keeps exactly the
    difference vectors its normal sees nonnegatively; minimizing over
    generic normals means finding the smallest set U of difference vectors
    for which some direction is strictly positive on U and strictly
    negative on the rest.  Each candidate split is decided exactly via
    convex position of the signed vectors around the origin, so no
    hyperplane enumeration or perturbation is needed.
    """
    query = vec(query)
    pts = list(dict.fromkeys(vec(p) for p in points))
    d = len(query)
    _check_dims(query, pts)
    if len(pts) > caps.depth_points:
        raise CapExceededError(f"{len(pts)} points exceed depth cap {caps.depth_points}")
    if d > caps.depth_dim:
        raise CapExceededError(f"dimension {d} exceeds depth cap {caps.depth_dim}")
    z = 1 if query in set(pts) else 0
    diffs = [tuple(c - q for c, q in zip(p, query)) for p in pts if p != query]
    if not diffs:
        return z
    W, _ = int_scaled(diffs)
    n = len(W)
    origin = (ZERO,) * d
    partner = {}
    for i, w in enumerate(W):
        neg = tuple(-c for c in w)
        for j in range(i + 1, n):
            if W[j] == neg:
                partner[i] = j
                partner[j] = i
    for s in range(n + 1):
        for chosen in itertools.combinations(range(n), s):
            inside = set(chosen)
            # opposite vectors must land on opposite sides
            if any((partner.get(i) in inside) == (i in inside) for i in partner):
                continue
            signed = [W[i] if i in inside else tuple(-c for c in W[i]) for i in range(n)]
            if not membership(origin, signed).inside:
                return z + s
    return z + n


# ---------------------------------------------------------------------------
# Tverberg search


def _stirling2(n: int, m: int) -> int:
    row = [1] + [0] * m
    for _ in range(n):
        new = [0] * (m + 1)
        for j in range(1, m + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[m]


def _partitions_rgs(n: int, m: int):
    """Unordered partitions of range(n) into m nonempty blocks.

    Canonical order: lexicographic over restricted growth strings (block
    labels by first appearance).  Blocks come out ordered by their
    smallest element.
    """
    a = [0] * n

    def rec(i: int, mx: int):
        if i == n:
            if mx == m - 1:
                blocks = [[] for _ in range(m)]
                for idx, label in enumerate(a):
                    blocks[label].append(idx)
                yield blocks
            return
        top = min(mx + 1, m - 1)
        for v in range(top + 1):
            if m - 1 - max(mx, v) <= n - 1 - i:
                a[i] = v
                yield from rec(i + 1, max(mx, v))

    if 1 <= m <= n:
        yield from rec(1, 0)


def _common_set_points(
    spec: DiscreteSetSpec, rows: list, den: int, hulls: Sequence[Sequence[int]],
    want: int,
) -> list:
    """The first ``want`` points of S common to every hull, lexicographic,
    from one scan of the lines of their intersection; each hull lists
    indices into the frame rows of one :func:`_frame` map."""
    lines = _intersection_lines(spec, rows, den, hulls)
    return _ambient_points(spec.base, _points_on_lines(spec, lines))[:want]


@dataclass(frozen=True)
class BruteTverbergReport:
    parts: Optional[tuple]  # m tuples of input indices, or None
    witnesses: Optional[tuple]
    partitions_checked: int

    @property
    def found(self) -> bool:
        return self.parts is not None


def brute_tverberg(
    points: Sequence,
    spec: DiscreteSetSpec,
    m: int,
    k: int,
    caps: OracleCaps = DEFAULT_CAPS,
) -> BruteTverbergReport:
    """First partition (canonical order) whose hulls share >= k S-points."""
    pts = [vec(p) for p in points]
    n = len(pts)
    if m < 1 or k < 1:
        raise ValueError("m and k must be at least 1")
    if any(len(p) != spec.dim for p in pts):
        raise ValueError("point dimension does not match the ground set")
    if m > n:
        return BruteTverbergReport(None, None, 0)
    total = _stirling2(n, m)
    if total > caps.partitions:
        raise CapExceededError(
            f"{total} set partitions exceed cap {caps.partitions}"
        )
    rows, den = _frame(spec, pts)  # once for every partition
    checked = 0
    for blocks in _partitions_rgs(n, m):
        checked += 1
        common = _common_set_points(spec, rows, den, blocks, k)
        if len(common) >= k:
            return BruteTverbergReport(
                tuple(tuple(block) for block in blocks), tuple(common), checked
            )
    return BruteTverbergReport(None, None, checked)


# ---------------------------------------------------------------------------
# partition verification


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def _row(v: Vec, den: int) -> Optional[tuple]:
    """``den v`` as integers, or None when it is not integral."""
    if any(den % c.denominator for c in v):
        return None
    return tuple([c.numerator * (den // c.denominator) for c in v])


def verify_partition(result: PartitionResult, instance: Instance) -> VerificationReport:
    """Re-validate a partition against the instance alone.

    The parts must be m nonempty, disjoint lists of indices covering the
    points, and the witnesses at least k distinct points of S.  Every
    witness must be in every part's hull.  A result with certificates
    proves it: ``certificates[i][j]`` must be a convex combination of
    points of part i equal to witness j, checked on the integer rows of
    the points and witnesses scaled once by their common denominator
    (each support point resolved to an index of the part by its row, then
    :func:`_verify_weights`), which is sound whatever code made it; any
    other certificates are ``bad_certificate``.  A result without them
    (``certificates=()``) is decided by :func:`membership` per (witness,
    part).  Witnesses are told apart on their integer rows too.
    """
    n = len(instance.points)
    seen: set = set()
    for part in result.parts:
        if not part:
            return VerificationReport(False, "empty_part")
        for i in part:
            if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < n:
                return VerificationReport(False, "bad_index")
            if i in seen:
                return VerificationReport(False, "parts_overlap")
            seen.add(i)
    if len(seen) != n:
        return VerificationReport(False, "parts_do_not_cover")
    if len(result.parts) != instance.m:
        return VerificationReport(False, "wrong_part_count")
    wits = [vec(w) for w in result.witnesses]
    if len(wits) < instance.k:
        return VerificationReport(False, "too_few_witnesses")
    rows, den = int_scaled(instance.points + tuple(wits))
    rows, wit_rows = rows[:n], rows[n:]
    if len(set(wit_rows)) != len(wit_rows):
        return VerificationReport(False, "duplicate_witnesses")
    base, removed = instance.spec.base, instance.spec.sublattices
    for w in wits:  # S by its ambient definition, not by distinct_lattice_coords
        if len(w) != instance.dim or not base.contains(w) or any(
                sub.contains(w) for sub in removed):
            return VerificationReport(False, "witness_not_in_set")
    certs = result.certificates
    if not certs:
        for part in result.parts:
            hull = [instance.points[i] for i in part]
            for w in wits:
                if not membership(w, hull).inside:
                    return VerificationReport(False, "witness_outside_part_hull")
        return VerificationReport(True)
    if len(certs) != len(result.parts) or any(len(row) != len(wits) for row in certs):
        return VerificationReport(False, "bad_certificate")
    for part, row in zip(result.parts, certs):
        index = {rows[i]: i for i in part}
        for q, comb in zip(wit_rows, row):
            terms = [(index.get(_row(v, den)), c) for v, c in comb.terms]
            if any(i is None for i, _ in terms) or not _verify_weights(q, rows, terms):
                return VerificationReport(False, "bad_certificate")
    return VerificationReport(True)


# ---------------------------------------------------------------------------
# Hoffman / Helly machinery


def brute_hoffman_max(
    spec: DiscreteSetSpec,
    box: Sequence,
    k: int,
    caps: OracleCaps = DEFAULT_CAPS,
) -> int:
    """Largest k-Hoffman subset of S in the box, by subset exhaustion."""
    ground = enumerate_in_polytope(spec, box_polytope(box))
    if len(ground) > caps.hoffman_ground:
        raise CapExceededError(
            f"ground set has {len(ground)} points, cap is {caps.hoffman_ground}"
        )
    for size in range(len(ground), 1, -1):
        for subset in itertools.combinations(ground, size):
            if is_k_hoffman(subset, spec, k):
                return size
    # one- and zero-point sets are vacuously Hoffman
    return min(len(ground), 1)


def hoffman_family(points: Sequence) -> list:
    """Leave-one-out hulls of a point set, as polytopes."""
    pts = [vec(p) for p in points]
    if len(pts) < 2:
        raise ValueError("need at least two points")
    _check_dims(pts[0], pts)
    return [
        PolytopeV(tuple(pts[:i] + pts[i + 1:])) for i in range(len(pts))
    ]


@dataclass(frozen=True)
class HellyReport:
    hypothesis_holds: bool
    conclusion_holds: bool
    violating_subfamily: Optional[tuple]
    subfamilies_checked: int


def brute_helly_check(
    family: Sequence[PolytopeV],
    spec: DiscreteSetSpec,
    k: int,
    h: int,
    caps: OracleCaps = DEFAULT_CAPS,
) -> HellyReport:
    """Test the size-h Helly implication on a concrete family.

    Hypothesis: every h-member subfamily's intersection holds >= k points
    of S.  Conclusion: the whole family's intersection does.  When the
    hypothesis fails, the lexicographically first violating subfamily is
    reported.
    """
    if not family:
        raise ValueError("family must be nonempty")
    if len(family) > caps.helly_family:
        raise CapExceededError(
            f"family of {len(family)} exceeds cap {caps.helly_family}"
        )
    if k < 1 or h < 1:
        raise ValueError("k and h must be at least 1")
    if any(p.dim != spec.dim for p in family):
        raise ValueError("polytope dimension does not match the ground set")
    # every vertex mapped once; hull i is its polytope's run of rows
    rows, den = _frame(spec, [v for p in family for v in p.vertices])
    ends = list(itertools.accumulate((len(p.vertices) for p in family), initial=0))
    hulls = [range(a, b) for a, b in zip(ends, ends[1:])]
    checked = 0
    violating = None
    if h <= len(family):
        for combo in itertools.combinations(range(len(family)), h):
            checked += 1
            if len(_common_set_points(spec, rows, den, [hulls[i] for i in combo], k)) < k:
                violating = combo
                break
    hypothesis = violating is None
    conclusion = len(_common_set_points(spec, rows, den, hulls, k)) >= k
    return HellyReport(hypothesis, conclusion, violating, checked)
