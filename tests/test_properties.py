"""Property-based checks: certificates, depth laws, hollow machinery."""
import ast
import hashlib
import itertools
import random
import re
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from fractions import Fraction
from math import ceil, floor, gcd, inf, prod
from operator import add, mul, sub
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from discrete_tverberg import exact_geometry, jsonio, linprog, tverberg
from discrete_tverberg.discrete_sets import (
    LatticeBasis,
    PolytopeV,
    _ambient_points,
    _frame,
    _intersection_lines,
    _points_on_lines,
    _scan_lines,
    difference_set,
    enumerate_in_polytope,
    helly_upper_bound,
    is_k_hoffman,
    is_k_hollow,
    lattice_coords,
    lattice_lines_in_polytope,
    lattice_set,
)
from discrete_tverberg.exact_geometry import (
    ConvexCombination,
    DepthResult,
    Halfspace,
    _idot,
    _line_side,
    _off_wall,
    _primitive_signed,
    anchored_reduce,
    caratheodory_reduce,
    depth,
    depth_count,
    extreme_points,
    hull_facets,
    membership,
)
from discrete_tverberg.harness import ExperimentConfig, generate_instance
from discrete_tverberg.oracles import (
    _common_set_points,
    brute_depth,
    brute_helly_check,
    brute_tverberg,
    hoffman_family,
    verify_partition,
)
from discrete_tverberg.tverberg import (
    Instance,
    _level_directions,
    find_deep_witnesses,
    tverberg_partition,
)
from discrete_tverberg.vectors import vdot, vec, vsub
from test_discrete_sets import frame_coords, in_set, rank

F = Fraction
Z1 = lattice_set(1)
Z2 = lattice_set(2)
ODD = difference_set(1, (LatticeBasis(((2,),), dim=1),))


def affine_rank(points):
    """Dimension of the points' affine hull: the rank of their differences
    from the first (0 for one point)."""
    pts = [vec(p) for p in points]
    return rank(vsub(p, pts[0]) for p in pts[1:])


def affinely_independent(points):
    pts = [vec(p) for p in points]
    return len(set(pts)) == len(pts) and affine_rank(pts) == len(pts) - 1


def coord():
    return st.integers(-5, 5)


def point(dim):
    return st.tuples(*[coord()] * dim)


def point_set(dim, min_size=1, max_size=8):
    return st.lists(point(dim), min_size=min_size, max_size=max_size,
                    unique=True)


@st.composite
def query_and_points(draw, max_dim=3, max_size=8):
    dim = draw(st.integers(1, max_dim))
    pts = draw(point_set(dim, max_size=max_size))
    q = draw(point(dim))
    return q, pts


# ---------------------------------------------------------------------------
# membership certificates


@given(query_and_points())
def test_membership_certificate_always_verifies(case):
    q, pts = case
    cert = membership(q, pts)
    assert cert.verify(vec(q), [vec(p) for p in pts])


@given(query_and_points(max_dim=3, max_size=7))
def test_depth_zero_iff_outside(case):
    q, pts = case
    res = depth(q, pts)
    inside = membership(q, pts).inside
    assert (res.depth == 0) == (not inside)
    assert res.verify(vec(q), [vec(p) for p in pts])


@given(query_and_points(max_dim=2, max_size=8), st.data())
def test_depth_monotone_under_removal(case, data):
    q, pts = case
    base = depth(q, pts).depth
    drop = data.draw(st.integers(0, len(pts) - 1)) if len(pts) > 1 else 0
    kept = pts[:drop] + pts[drop + 1:]
    if kept:
        assert depth(q, kept).depth >= base - 1


@settings(max_examples=100)
@given(st.one_of(query_and_points(max_dim=3, max_size=9),
                 st.tuples(point(4), point_set(4, max_size=6))))
def test_depth_agrees_with_brute_force(case):
    q, pts = case
    assert depth(q, pts).depth == brute_depth(q, pts)


def _canon_primitive(w: tuple) -> tuple:
    g = 0
    for c in w:
        g = gcd(g, abs(c))
    out = tuple(c // g for c in w)
    for c in out:
        if c != 0:
            return out if c > 0 else tuple(-x for x in out)
    raise ValueError("zero vector has no direction")


def _min_open_count(W: list) -> tuple:
    """Reference for :func:`depth_count`: (min over generic v of
    #{w : v.w > 0}, integer witness v) by the plain wall recursion.

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


@given(st.lists(st.tuples(coord(), coord()), min_size=1, max_size=10,
                unique=True),
       st.tuples(coord(), coord()))
def test_planar_scan_agrees_with_wall_recursion(pts, q):
    from discrete_tverberg.vectors import int_scaled, vsub
    diffs = [vsub(vec(p), vec(q)) for p in dict.fromkeys(map(vec, pts))
             if vec(p) != vec(q)]
    if not diffs:
        return
    W, _ = int_scaled(diffs)
    count, witness = depth_count(list(W), 2)
    assert (count, witness()) == _min_open_count(list(W))


@st.composite
def vector_multiset(draw):
    """``(W, d)``: nonzero vectors of Z^d, d in {1, 2, 3, 4}, drawn freely
    or as small combinations of fewer than d vectors (on a line, a plane or
    a 3-flat through 0), shifted or not by one vector of entries up to
    2**70, plus repeats, antipodes and multiples of them.  In 4-d the draws
    are smaller, since the reference recursion grows as n^4."""
    d = draw(st.sampled_from([1, 2, 3, 4]))
    size, repeats = (10, 6) if d < 4 else (6, 4)
    c = st.integers(-50, 50)
    rank = draw(st.integers(1, d))
    if rank == d:
        base = draw(st.lists(st.tuples(*[c] * d), min_size=1, max_size=size))
    else:
        gens = draw(st.lists(st.tuples(*[c] * d), min_size=rank, max_size=rank))
        small = st.integers(-3, 3)
        coefs = draw(st.lists(st.tuples(*[small] * rank), min_size=1, max_size=size))
        base = [tuple(sum(a * g[i] for a, g in zip(co, gens)) for i in range(d))
                for co in coefs]
    if draw(st.booleans(), label="large"):
        # one shift of about 2**70 makes the vectors nearly parallel, so
        # distinct directions meet at one float angle
        far = draw(st.tuples(*[st.integers(-2**70, 2**70)] * d))
        base = [tuple(map(add, w, far)) for w in base]
    base = [w for w in base if any(w)]
    assume(base)
    extra = draw(st.lists(st.tuples(st.sampled_from(base),
                                    st.sampled_from([1, -1, 2, -3])),
                          max_size=repeats))
    W = draw(st.permutations(base + [tuple(t * x for x in w) for w, t in extra]))
    return W, d


@settings(max_examples=400)
@given(vector_multiset())
def test_depth_kernel_matches_wall_recursion(case):
    W, d = case
    count, witness = depth_count(W, d)
    assert (count, witness()) == _min_open_count(W)


@settings(max_examples=400)
@given(vector_multiset(), st.data())
def test_depth_kernel_floor_is_exact_at_or_above_it(case, data):
    W, d = case
    bar = data.draw(st.integers(0, len(W) + 1), label="floor")
    exact = _min_open_count(W)
    count, witness = depth_count(W, d, bar)
    if exact[0] >= bar:
        assert (count, witness()) == exact
    else:
        # a stopped query still names a generic witness, and its count is
        # that witness's open count
        assert count < bar
        v = witness()
        assert all(_idot(v, w) for w in W)
        assert sum(_idot(v, w) > 0 for w in W) == count


def _assert_kernel_matches_reference(W: list, d: int) -> None:
    """depth_count of W against :func:`_min_open_count` at floors 0, the
    count less 2, the count, the count plus 1 and above every vector: the
    same count and witness at or above the floor, and below it a count
    under the floor that is its generic witness's open count."""
    exact = _min_open_count(W)
    for bar in (0, max(exact[0] - 2, 0), exact[0], exact[0] + 1, len(W) + 1):
        count, witness = depth_count(W, d, bar)
        if exact[0] >= bar:
            assert (count, witness()) == exact
        else:
            assert count < bar
            v = witness()
            assert all(_idot(v, w) for w in W)
            assert sum(_idot(v, w) > 0 for w in W) == count


def _seeded_multiset(rng, gens: list, size: int, spread: int) -> list:
    """``size`` small combinations of the generators, then repeats,
    antipodes and multiples of a third of them, shuffled."""
    W = []
    while len(W) < size:
        w = tuple(map(sum, zip(*[[rng.randint(-spread, spread) * c for c in g]
                                 for g in gens])))
        if any(w):
            W.append(w)
    W += [tuple(t * c for c in rng.choice(W))
          for t in rng.choices([1, -1, 2, -3], k=size // 3)]
    rng.shuffle(W)
    return W


def test_depth_kernel_matches_reference_on_a_large_plane():
    # about 90 vectors of Z^2 with many repeats and antipodes
    rng = random.Random(90)
    W = _seeded_multiset(rng, [(1, 0), (0, 1)], 68, 6)
    assert len(W) == 90 and any(tuple(-c for c in w) in W for w in W)
    _assert_kernel_matches_reference(W, 2)


def test_depth_kernel_matches_reference_in_3d_at_40_vectors():
    rng = random.Random(40)
    W = _seeded_multiset(rng, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 30, 5)
    assert len(W) == 40
    _assert_kernel_matches_reference(W, 3)


def test_depth_kernel_matches_reference_in_3d_at_90_vectors():
    # the size of a paper-bound Z^3 n=86 query
    rng = random.Random(90)
    W = _seeded_multiset(rng, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 68, 4)
    assert len(W) == 90
    _assert_kernel_matches_reference(W, 3)


def test_depth_kernel_matches_reference_in_4d_with_repeated_planes():
    # the vectors lie in three 2-planes of Z^4 and a few off them, so the
    # walls merge many projections
    rng = random.Random(4)
    W = []
    for _ in range(3):
        gens = [tuple(rng.randint(-4, 4) for _ in range(4)) for _ in range(2)]
        W += _seeded_multiset(rng, gens, 5, 2)
    W += [tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(3)]
    W = [w for w in W if any(w)]
    assert rank(W) == 4
    _assert_kernel_matches_reference(W, 4)


def _sweep_cases() -> list:
    """Seeded 2-d and 3-d multisets for the sweep's order paths."""
    rng = random.Random(2026)
    cases = []
    for d in (2, 2, 2, 3):
        axes = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        cases.append((_seeded_multiset(rng, axes, 12, 3), d))
    return cases


def test_sweep_beyond_float_range_takes_the_exact_sort(monkeypatch):
    # entries about 10**400 overflow the float angle, so the sweep sorts on
    # the integer cross products
    overflowed = []
    hint = exact_geometry._angle_hint

    def spy(flat):
        try:
            return hint(flat)
        except OverflowError:
            overflowed.append(len(flat))
            raise

    monkeypatch.setattr(exact_geometry, "_angle_hint", spy)
    big = 10 ** 400
    for W, d in _sweep_cases():
        # every other vector keeps its direction, the rest move off it by 1
        W = [(big * w[0] + k % 2,) + tuple(big * c for c in w[1:])
             for k, w in enumerate(W)]
        _assert_kernel_matches_reference(W, d)
    assert overflowed


def test_sweep_rejects_a_wrong_angle_hint(monkeypatch):
    # a hint that reverses the angles fails the adjacent cross-product
    # check, and the sweep sorts on the cross products instead
    rejected = []
    hint, runs = exact_geometry._angle_hint, exact_geometry._runs

    def spy(flat, order):
        out = runs(flat, order)
        rejected.append(out is None)
        return out

    monkeypatch.setattr(exact_geometry, "_angle_hint",
                        lambda flat: [-x for x in hint(flat)])
    monkeypatch.setattr(exact_geometry, "_runs", spy)
    for W, d in _sweep_cases():
        _assert_kernel_matches_reference(W, d)
    assert any(rejected)


def test_float_math_is_only_the_sweeps_hint():
    # every count and witness is integer arithmetic: the one float is the
    # angle that orders the sweep before its exact check
    assert _callers("atan2") == {("exact_geometry", "_angle_hint")}


@st.composite
def kernel_problem(draw):
    """``(q, pts, c)``: distinct rational points in 1-4 d, all of them or
    in a hyperplane or on a line, a query that is a convex combination of
    them (so 3-4 d has inside cases) or free, and a further scale c."""
    d = draw(st.integers(1, 4))
    x = st.fractions(-5, 5, max_denominator=4)
    pts = draw(st.lists(st.tuples(*[x] * d), min_size=1, max_size=7,
                        unique=True))
    shape = draw(st.sampled_from(["full", "hyperplane", "line"]))
    if shape == "hyperplane" and d > 1:
        pts = [p[:-1] + (sum(p[:-1]),) for p in pts]
    elif shape == "line":
        pts = [tuple(p[0] * (i + 1) + 1 for i in range(d)) for p in pts]
    pts = list(dict.fromkeys(pts))
    if draw(st.booleans()):
        w = draw(st.lists(st.integers(0, 3), min_size=len(pts),
                          max_size=len(pts)))
        assume(any(w))
        q = tuple(sum(a * p[i] for a, p in zip(w, pts)) / sum(w)
                  for i in range(d))
    else:
        q = draw(st.tuples(*[x] * d))
    return q, pts, draw(st.integers(2, 6))


@settings(max_examples=300)
@given(kernel_problem())
def test_membership_kernel_matches_lp_and_ignores_scale(problem):
    from discrete_tverberg.exact_geometry import (
        ConvexCombination,
        _convex_weights,
        hull_facets,
    )
    from discrete_tverberg.vectors import int_scaled
    q, pts, c = problem
    ints, den = int_scaled(pts + [q])
    got = _convex_weights(ints[-1], ints[:-1], den)
    # the reference: the phase-1 LP on the Fraction columns (x, 1)
    ref = linprog.solve_feasibility([p + (F(1),) for p in pts], q + (F(1),))
    assert (got is None) == (not ref.feasible)
    if got is not None:
        assert ConvexCombination(tuple((pts[j], w) for j, w in got)).verify(q)
        if len(q) >= 3:
            assert got == [(j, w) for j, w in enumerate(ref.solution) if w > 0]
    scaled = _convex_weights(tuple(c * a for a in ints[-1]),
                             [tuple(c * a for a in p) for p in ints[:-1]],
                             c * den)
    assert scaled == got
    # outside, the separator is the first hull_facets halfspace the query
    # violates, an equation of the flat when the query is off it
    cert = membership(q, pts)
    assert cert.inside == (got is not None)
    assert cert.verify(q, pts)
    if got is None:
        sep = cert.separator
        assert (sep.normal, sep.offset * den) == next(
            (n, b) for n, b in hull_facets(ints[:-1])
            if sum(map(mul, n, ints[-1])) < b)


@st.composite
def anchored_problem(draw):
    """``(q, a, pts, c)``: distinct rational points in 1-4 d, all of them or
    in a hyperplane or on a line, an anchor that is one of them or their
    centroid, a query that is a convex combination of the points and the
    anchor or free, and a further scale c."""
    d = draw(st.integers(1, 4))
    x = st.fractions(-5, 5, max_denominator=4)
    pts = draw(st.lists(st.tuples(*[x] * d), min_size=1, max_size=10,
                        unique=True))
    shape = draw(st.sampled_from(["full", "hyperplane", "line"]))
    if shape == "hyperplane" and d > 1:
        pts = [p[:-1] + (sum(p[:-1]),) for p in pts]
    elif shape == "line":
        pts = [tuple(p[0] * (i + 1) + 1 for i in range(d)) for p in pts]
    pts = list(dict.fromkeys(pts))
    if draw(st.booleans()):
        a = draw(st.sampled_from(pts))
    else:
        a = tuple(sum(p[i] for p in pts) / len(pts) for i in range(d))
    if draw(st.integers(0, 3)):  # inside three times in four
        w = draw(st.lists(st.integers(0, 3), min_size=len(pts) + 1,
                          max_size=len(pts) + 1))
        assume(any(w))
        q = tuple(sum(c * p[i] for c, p in zip(w, [a] + pts)) / sum(w)
                  for i in range(d))
    else:
        q = draw(st.tuples(*[x] * d))
    return q, a, pts, draw(st.integers(2, 6))


@settings(max_examples=200)
@given(anchored_problem())
def test_anchored_kernel_matches_lp_and_ignores_scale(problem):
    from discrete_tverberg.exact_geometry import _anchored_weights
    from discrete_tverberg.vectors import int_scaled
    q, a, pts, c = problem
    d = len(q)
    # the reference: the phase-1 LP on the Fraction columns (x, 1), anchor
    # first, with the anchor pivoted in when more than d points carry weight
    if q == a:
        ref = ([], 1)
    elif q in pts:
        ref = ([(pts.index(q), 1)], 0)
    else:
        tab = linprog.ExactSimplex([p + (F(1),) for p in [a] + pts], q + (F(1),))
        ref = None
        if tab.solve():
            x = tab.solution()
            if sum(1 for w in x[1:] if w > 0) > d and x[0] == 0:
                if tab.force_into_basis(0):
                    x = tab.solution()
            ref = ([(j - 1, w) for j, w in enumerate(x) if j > 0 and w > 0], x[0])
    ints, den = int_scaled(pts + [a, q])
    got = _anchored_weights(ints[-1], ints[-2], ints[:-2], den)
    assert got == ref
    assert got is None or len(got[0]) <= d
    scaled = _anchored_weights(tuple(c * v for v in ints[-1]),
                               tuple(c * v for v in ints[-2]),
                               [tuple(c * v for v in p) for p in ints[:-2]],
                               c * den)
    assert scaled == got


# ---------------------------------------------------------------------------
# support reductions


@given(query_and_points(max_dim=3, max_size=8))
def test_caratheodory_bounds_and_verification(case):
    q, pts = case
    if not membership(q, pts).inside:
        return
    support, comb = caratheodory_reduce(q, pts)
    assert len(support) <= len(q) + 1
    assert affinely_independent(support)
    assert comb.verify(vec(q))
    assert membership(q, list(support)).inside


@given(point_set(2, min_size=1, max_size=6), st.tuples(coord(), coord()),
       st.tuples(coord(), coord()))
def test_anchored_reduce_bounds(pts, q, y):
    if not membership(y, pts + [q]).inside:
        return
    red = anchored_reduce(y, q, pts)
    assert len(red.points) <= 2
    assert membership(y, list(red.points) + [q]).inside


@st.composite
def cover_problem(draw):
    """Integer points in 1-4 d, full, on a hyperplane or on a line, and 2-5
    distinct convex combinations of them with weights in (1/den) Z."""
    d = draw(st.integers(1, 4))
    pts = draw(st.lists(point(d), min_size=2, max_size=9, unique=True))
    shape = draw(st.sampled_from(["full", "hyperplane", "line"]))
    if shape == "hyperplane" and d > 1:
        pts = [p[:-1] + (sum(p[:-1]),) for p in pts]
    elif shape == "line":
        pts = [tuple(p[0] * (i + 1) + 1 for i in range(d)) for p in pts]
    pts = list(dict.fromkeys(pts))
    den = draw(st.sampled_from([1, 2, 6]))
    picks = st.lists(st.sampled_from(pts), min_size=den, max_size=den)
    targets = []
    for chosen in draw(st.lists(picks, min_size=2, max_size=5)):
        targets.append(tuple(F(sum(col), den) for col in zip(*chosen)))
    targets = list(dict.fromkeys(targets))
    assume(len(targets) >= 2)
    return pts, targets


@settings(max_examples=200, deadline=None)
@given(cover_problem())
def test_cover_of_two_or_more_targets_is_anchored_at_their_centroid(problem):
    # the covering lemma: reductions of the targets' hull vertices over
    # their centroid always cover, with at most d points per vertex (an
    # anchor at a vertex fails this on most inputs)
    from discrete_tverberg.exact_geometry import ConvexCombination
    from discrete_tverberg.tverberg import _cover, _weights
    from discrete_tverberg.vectors import int_scaled
    pts, targets = problem
    ints, den = int_scaled(pts + targets)
    sub, scaled = ints[:len(pts)], ints[len(pts):]
    cover, certificates = _cover(scaled, sub, den, _weights(scaled, sub, den))
    assert None not in certificates
    assert len(cover) <= len(extreme_points(targets)) * len(pts[0])
    part = [pts[j] for j in sorted(cover)]
    for t, weights in zip(targets, certificates):
        assert ConvexCombination(tuple((part[j], c) for j, c in weights)).verify(t)


# ---------------------------------------------------------------------------
# hollow / Hoffman laws


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                min_size=2, max_size=6, unique=True),
       st.integers(1, 2))
def test_hollow_implies_hoffman(pts, k):
    if is_k_hollow(pts, Z2, k):
        assert is_k_hoffman(pts, Z2, k)


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                min_size=1, max_size=7, unique=True),
       st.integers(1, 2))
def test_hollow_size_respects_bound_machinery(pts, k):
    # lattice hollow sets can exceed the covering bound by at most k-1
    if is_k_hollow(pts, Z2, k):
        assert len(pts) <= helly_upper_bound(Z2, k, "best") + k - 1


@given(st.lists(st.integers(-7, 7).filter(lambda v: v % 2 != 0),
                min_size=1, max_size=6, unique=True),
       st.integers(1, 2))
def test_difference_hollow_size_respects_formula(vals, k):
    pts = [(v,) for v in vals]
    if is_k_hollow(pts, ODD, k):
        assert len(pts) <= helly_upper_bound(ODD, k, "paper")


# ---------------------------------------------------------------------------
# partitions


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                min_size=4, max_size=8, unique=True),
       st.integers(2, 3))
def test_engine_never_claims_what_oracle_refutes(pts, m):
    if len(pts) < m:
        return
    inst = Instance(Z2, tuple(vec(p) for p in pts), m, 1)
    outcome = tverberg_partition(inst)
    oracle = brute_tverberg(inst.points, Z2, m, 1)
    if outcome.status == "ok":
        assert verify_partition(outcome.result, inst)
        assert oracle.found  # engine success implies a partition exists
    if not oracle.found:
        assert outcome.status == "no_partition_found"


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-8, 8), min_size=3, max_size=9, unique=True))
def test_1d_partitions_sound(vals):
    inst = Instance(Z1, tuple((v,) for v in vals), 2, 1)
    outcome = tverberg_partition(inst)
    if outcome.status == "ok":
        assert verify_partition(outcome.result, inst)
    else:
        assert not brute_tverberg(inst.points, Z1, 2, 1).found


SHEARS = [
    LatticeBasis(((1, 0), (F(1, 2), 1))),
    LatticeBasis(((1, 0, 0), (F(1, 2), 1, 0), (0, F(1, 3), 1))),
]


@st.composite
def re_expressed_instance(draw):
    """A shear B, distinct integer points z and m, k, such that the
    instances z over Z^d and B z over B Z^d are isomorphic."""
    basis = draw(st.sampled_from(SHEARS))
    if basis.dim == 2:
        c, sizes, shapes = st.integers(-3, 3), (8, 18), [(2, 1), (3, 1), (2, 2)]
    else:
        c, sizes, shapes = st.integers(-1, 1), (14, 22), [(2, 1)]
    zs = draw(st.lists(st.tuples(*[c] * basis.dim), min_size=sizes[0],
                       max_size=sizes[1], unique=True))
    m, k = draw(st.sampled_from(shapes))
    return basis, zs, m, k


@settings(max_examples=100, deadline=None)
@given(re_expressed_instance())
def test_re_expression_over_a_basis_keeps_the_outcome(problem):
    # every decision is invariant under z -> B z: the same verdict and
    # counts, and, once the tie-break picks the same witnesses (the ranking
    # is lexicographic on the ambient point), the same parts and weights
    basis, zs, m, k = problem
    d = basis.dim
    plain = tverberg_partition(Instance(lattice_set(d), zs, m, k))
    mapped = tverberg_partition(
        Instance(lattice_set(d, basis), [basis.from_lattice(z) for z in zs], m, k))
    assert (plain.status, plain.reason) == (mapped.status, mapped.reason)
    searches = (plain.witness_search, mapped.witness_search)
    assert len({s.candidates_scanned for s in searches}) == 1
    assert len({tuple(w.depth_result.depth for w in s.witnesses) for s in searches}) == 1
    if plain.status != "ok":
        return
    p, q = plain.result, mapped.result
    assert {**p.stats, "part_sizes": None} == {**q.stats, "part_sizes": None}
    if [frame_coords(basis, w) for w in q.witnesses] == list(p.witnesses):
        assert p.parts == q.parts
        for row_p, row_q in zip(p.certificates, q.certificates):
            for cp, cq in zip(row_p, row_q):
                assert [(frame_coords(basis, x), c) for x, c in cq.terms] == list(cp.terms)


# Automorphisms of Z^d that act on the first two coordinates; each also
# maps 2Z^2, so Z^2 minus 2Z^2, onto itself.
UNIMODULAR = {
    "shear": lambda x: (x[0] + x[1],) + x[1:],
    "swap": lambda x: (x[1], x[0]) + x[2:],
    "quarter_turn": lambda x: (-x[1], x[0]) + x[2:],
}
Z2_MINUS_2Z2 = difference_set(2, (LatticeBasis(((2, 0), (0, 2))),))


def outcome_invariants(outcome):
    """What a lattice automorphism keeps: the verdict and its reason, the
    witnesses' depths (deepest first), the candidate count and the
    threshold.  Witness points and parts may follow other lexicographic
    ties."""
    search = outcome.witness_search
    threshold = outcome.result.stats["threshold"] if outcome.result else None
    return (outcome.status, outcome.reason,
            [w.depth_result.depth for w in search.witnesses],
            search.candidates_scanned, threshold)


@st.composite
def automorphism_problem(draw):
    """Distinct points of Z^2, Z^3 or Z^2 minus 2Z^2 in a small box, m and
    k, and one map: a unimodular one, or a translation by a lattice vector
    (an even one for the difference set, whose removed 2Z^2 it must fix)."""
    spec = draw(st.sampled_from((Z2, lattice_set(3), Z2_MINUS_2Z2)))
    if spec.dim == 2:
        c, sizes, shapes = st.integers(-4, 4), (5, 16), [(2, 1), (3, 1), (2, 2)]
    else:
        c, sizes, shapes = st.integers(-2, 2), (6, 16), [(2, 1)]
    points = draw(st.lists(st.tuples(*[c] * spec.dim).filter(
        lambda x: in_set(spec, x)), min_size=sizes[0], max_size=sizes[1],
        unique=True))
    m, k = draw(st.sampled_from(shapes))
    name = draw(st.sampled_from(sorted(UNIMODULAR) + ["translation"]))
    if name != "translation":
        return spec, points, m, k, name, UNIMODULAR[name]
    step = 2 if spec.sublattices else 1
    t = draw(st.tuples(*[st.integers(-9, 9).map(lambda a: step * a)] * spec.dim))
    return spec, points, m, k, f"translation by {t}", lambda x: tuple(map(add, x, t))


def assert_automorphism_keeps_the_outcome(spec, points, m, k, name, f):
    plain = tverberg_partition(Instance(spec, points, m, k))
    mapped = tverberg_partition(Instance(spec, [f(x) for x in points], m, k))
    assert outcome_invariants(mapped) == outcome_invariants(plain), name


@settings(max_examples=60, deadline=None)
@given(automorphism_problem())
def test_lattice_automorphisms_keep_the_outcome(problem):
    assert_automorphism_keeps_the_outcome(*problem)


def test_lattice_automorphisms_keep_a_paper_bound_z3_outcome():
    cfg = ExperimentConfig(spec=lattice_set(3), m=2, k=1, n_points=43, box_bound=3,
                           trials=1, seed=5)
    points = generate_instance(cfg, 0).points
    maps = {**UNIMODULAR, "translation": lambda x: (x[0] + 5, x[1] - 2, x[2] + 7)}
    for name, f in maps.items():
        assert_automorphism_keeps_the_outcome(cfg.spec, points, 2, 1, name, f)


# Ground sets for the witness search, with the matrix whose columns map
# small integer coordinates to its input points.  Points of the rank-1
# lattice are drawn from the plane around it.
WITNESS_SETS = [
    (Z1, ((1,),)),
    (ODD, ((1,),)),
    (lattice_set(1, LatticeBasis(((F(1, 2),),), dim=1)), ((F(1, 2),),)),
    (Z2, ((1, 0), (0, 1))),
    (lattice_set(2, LatticeBasis(((1, 0), (1, 1)))), ((1, 0), (1, 1))),
    (lattice_set(2, LatticeBasis(((1, 0), (F(1, 2), 1)))), ((1, 0), (F(1, 2), 1))),
    (lattice_set(2, LatticeBasis(((F(1, 2), 0), (0, F(1, 3))))), ((1, 0), (0, 1))),
    (lattice_set(2, LatticeBasis(((1, 2),), dim=2)), ((1, 0), (0, 1))),
    (difference_set(2, (LatticeBasis(((2, 0), (0, 2))),)), ((1, 0), (0, 1))),
    (lattice_set(3), ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    (lattice_set(3, LatticeBasis(((1, 0, 0), (1, 1, 0), (0, F(1, 2), 1)))),
     ((1, 0, 0), (1, 1, 0), (0, F(1, 2), 1))),
    (difference_set(3, (LatticeBasis(((2, 0, 0), (0, 2, 0), (0, 0, 2))),)),
     ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
]


@st.composite
def witness_problem(draw):
    spec, gens = draw(st.sampled_from(WITNESS_SETS))
    small = spec.dim == 3
    c = st.integers(-2, 2) if small else st.integers(-4, 4)
    coords = draw(st.lists(st.tuples(*[c] * len(gens)), min_size=1,
                           max_size=6 if small else 9))
    coords += draw(st.lists(st.sampled_from(coords), max_size=2))  # repeats
    points = [tuple(sum(a * g[i] for a, g in zip(z, gens)) for i in range(spec.dim))
              for z in coords]
    threshold = draw(st.integers(0, len(set(coords)) + 1))
    k = draw(st.integers(0, 3))
    return spec, points, threshold, k


def exhaustive_witness_search(spec, points, threshold, k):
    """Depth of every candidate, ranked by (-depth, point)."""
    candidates = enumerate_in_polytope(spec, PolytopeV(tuple(vec(p) for p in points)))
    ranked = sorted((-depth(c, points).depth, c) for c in candidates)
    chosen = [(c, -neg) for neg, c in ranked if -neg >= threshold][:k]
    return chosen, len(chosen) < k, len(candidates)


@settings(max_examples=150, deadline=None)
@given(witness_problem())
def test_witness_search_matches_exhaustive_ranking(problem):
    spec, points, threshold, k = problem
    search = find_deep_witnesses(points, spec, threshold, k)
    got = [(w.point, w.depth_result.depth) for w in search.witnesses]
    assert (got, search.insufficient, search.candidates_scanned) == \
        exhaustive_witness_search(spec, points, threshold, k)
    for w in search.witnesses:
        assert w.depth_result.verify(w.point, points)
        # on integral inputs the search's witness halfspace is depth()'s
        if spec.base == LatticeBasis.identity(spec.dim):
            assert w.depth_result == depth(w.point, points)


GRID2 = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
CUBE3 = list(itertools.product(range(-1, 2), repeat=3))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("zs, basis, thresholds", [
    pytest.param(GRID2, ((1, 0), (0, 1)), (1, 9), id="grid"),
    pytest.param(GRID2, ((1, 0), (1, 1)), (1, 9), id="sheared-grid"),
    pytest.param(CUBE3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 6), id="cube"),
    pytest.param(CUBE3, ((1, 0, 0), (-1, 1, 0), (0, -1, 1)), (1, 6), id="sheared-cube"),
])
def test_witness_search_ties_at_the_cutoff(zs, basis, thresholds, k):
    # centrally symmetric grids B z: the depths below the centre's tie at
    # 8 (grid) and 5 (cube), and the higher threshold leaves only the
    # centre.  On the sheared bases a candidate tied with the k-th witness
    # but lexicographically before it is visited after it, so the floor
    # must be one more than the cutoff for the later candidates only.
    spec = lattice_set(len(basis), LatticeBasis(basis))
    points = [tuple(sum(c * b[i] for c, b in zip(z, basis)) for i in range(len(basis)))
              for z in zs]
    for threshold in thresholds:
        search = find_deep_witnesses(points, spec, threshold, k)
        got = [(w.point, w.depth_result.depth) for w in search.witnesses]
        assert (got, search.insufficient, search.candidates_scanned) == \
            exhaustive_witness_search(spec, points, threshold, k)
        for w in search.witnesses:
            assert w.depth_result.verify(w.point, points)


def test_witness_search_on_points_off_the_set():
    # vertices with thirds: in the search's lattice frame the points are
    # integers over one denominator that the candidates of S are scaled by
    cases = [
        (Z2, [(F(-7, 3), F(-5, 3)), (F(8, 3), F(-2, 3)), (F(1, 3), F(10, 3)),
              (F(1, 2), 0), (0, F(4, 3))]),
        (lattice_set(2, LatticeBasis(((1, 0), (F(1, 2), 1)))),
         [(F(-5, 3), -2), (F(7, 3), F(-1, 3)), (F(2, 3), F(8, 3)), (F(1, 6), 0)]),
        (ODD, [(F(-16, 3),), (F(14, 3),), (F(1, 3),)]),
    ]
    for spec, points in cases:
        for threshold in range(4):
            for k in range(3):
                search = find_deep_witnesses(points, spec, threshold, k)
                got = [(w.point, w.depth_result.depth) for w in search.witnesses]
                assert (got, search.insufficient, search.candidates_scanned) == \
                    exhaustive_witness_search(spec, points, threshold, k)
                for w in search.witnesses:
                    assert w.depth_result.verify(w.point, points)


def test_witness_search_off_a_rank_deficient_lattice():
    # hulls that leave the lattice's line: in the lattice frame the points
    # keep their coordinates past the rank, and depth is still exact
    line = lattice_set(2, LatticeBasis(((1, 2),), dim=2))
    for points in ([(-3, -4), (4, 5), (0, 6), (1, 1)],
                   [(-2, -5), (3, 4), (2, 7), (-1, -1), (1, 3)]):
        for threshold, k in [(1, 1), (2, 2), (3, 1)]:
            search = find_deep_witnesses(points, line, threshold, k)
            got = [(w.point, w.depth_result.depth) for w in search.witnesses]
            assert (got, search.insufficient, search.candidates_scanned) == \
                exhaustive_witness_search(line, points, threshold, k)
            for w in search.witnesses:
                assert w.depth_result.verify(w.point, points)


def test_witness_normals_on_a_rank_deficient_lattice_lie_in_its_span():
    # on a hull in the lattice's span each normal is the one in the span,
    # orthogonal to the span's complement; full-rank normals are unchanged
    line = lattice_set(2, LatticeBasis(((1, 2),), dim=2))
    plane = lattice_set(3, LatticeBasis(((1, 0, 0), (0, 1, 1)), dim=3))
    for spec, points, complement in [
        (line, [(i, 2 * i) for i in (-3, -1, 0, 2, 5)], (2, -1)),
        (plane, [(a, b, b) for a, b in ((0, 0), (4, 0), (0, 4), (4, 4), (1, 3),
                                        (3, 1), (2, -1))], (0, 1, -1)),
    ]:
        search = find_deep_witnesses(points, spec, 2, 2)
        assert len(search.witnesses) == 2
        for w in search.witnesses:
            assert vdot(w.depth_result.witness.normal, complement) == 0
            assert w.depth_result.verify(w.point, points)
    sheared = lattice_set(2, LatticeBasis(((1, 0), (F(1, 2), 1))))
    points = [(0, 0), (4, 0), (F(1, 2), 3), (F(9, 2), 3), (F(-3, 2), -1), (F(11, 2), 2)]
    search = find_deep_witnesses(points, sheared, 2, 2)
    assert [w.depth_result.witness.normal for w in search.witnesses] == [
        (-292, 42), (-1252, 4902)]


def _depth_upper_bounds(points, zs, den, t):
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
    dirs = _level_directions(len(points[0]))
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


def sorted_bound_search(points, spec, threshold, k, count):
    """Reference for :func:`find_deep_witnesses`: ``(witnesses,
    insufficient, candidates_scanned)`` from bounding every hull point and
    visiting them in a stable sort by descending bound, with the same
    floors, each depth asked of ``count``; each witness is a pair
    ``(point, DepthResult)``, as :func:`ranked` gives a search's."""
    lines, coords, den = lattice_lines_in_polytope(
        spec, PolytopeV(tuple(vec(p) for p in points)))
    zs = _points_on_lines(spec, lines)
    if k < 1:
        return [], False, len(zs)
    lat = spec.base
    bounds = _depth_upper_bounds(coords, zs, den, threshold)
    pad = (0,) * (spec.dim - lat.rank)
    top = []
    cutoff = threshold
    for i in sorted(range(len(zs)), key=bounds.__getitem__, reverse=True):
        if bounds[i] < cutoff:
            break
        point = lat.scaled_point(zs[i])
        need = cutoff + 1 if len(top) == k and point > top[-1][1] else cutoff
        q = tuple(den * c for c in zs[i]) + pad
        W = [tuple(map(sub, p, q)) for p in coords if p != q]
        on_vertex = len(coords) - len(W)
        value, witness = count(W, spec.dim, need - on_vertex)
        value += on_vertex
        if value >= need:
            insort(top, (-value, point, witness))
            del top[k:]
            if len(top) == k:
                cutoff = -top[-1][0]
    chosen = []
    for neg_value, scaled, witness in top:
        point = tuple(F(c, lat._den) for c in scaled)
        v = witness()
        normal = vec(sum(map(mul, v, col)) for col in zip(*lat._t_rows))
        chosen.append((point, DepthResult(-neg_value, Halfspace(normal, vdot(normal, point)))))
    return chosen, len(chosen) < k, len(zs)


def ranked(search):
    """``(witnesses, insufficient, candidates_scanned)`` of a
    :class:`WitnessSearch`, each witness as its pair ``(point,
    depth_result)``, so that the halfspaces are compared too."""
    return ([(w.point, w.depth_result) for w in search.witnesses],
            search.insufficient, search.candidates_scanned)


@st.composite
def level_walk_problem(draw):
    """A :func:`witness_problem` whose vertices may include up to two
    points off the set, in thirds, with a threshold from 0 to n + 1."""
    spec, points, _, k = draw(witness_problem())
    x = st.fractions(-4, 4, max_denominator=3)
    points = points + draw(st.lists(st.tuples(*[x] * spec.dim), max_size=2))
    threshold = draw(st.integers(0, len(set(map(vec, points))) + 1))
    return spec, points, threshold, k


def recorder(calls):
    """:func:`depth_count` that appends each call's ``(W, d, floor)`` to
    ``calls``."""
    def count(W, d, floor=0):
        calls.append((W, d, floor))
        return depth_count(W, d, floor)
    return count


@settings(max_examples=300, deadline=None)
@given(level_walk_problem())
def test_level_walk_asks_the_sorted_searchs_depth_queries(problem):
    # the walk asks some of the sorted search's depth_count calls, W and
    # floor included, in the same order: the others are candidates that a
    # cut from an earlier stopped query rules out.  The witnesses,
    # shortfall and count are the same.
    spec, points, threshold, k = problem
    walked, sorted_calls = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tverberg, "depth_count", recorder(walked))
        search = find_deep_witnesses(points, spec, threshold, k)
    expected = sorted_bound_search(points, spec, threshold, k, recorder(sorted_calls))
    rest = iter(sorted_calls)
    assert all(call in rest for call in walked)
    assert ranked(search) == expected


@settings(max_examples=150, deadline=None)
@given(level_walk_problem())
def test_level_directions_bound_every_candidates_depth(problem):
    # the walk drops a candidate q on #{p : u.p >= u.q} for each direction
    # u of the level set and its negation, counted in the lattice frame
    # on the hull's distinct coords: every such count is at least depth(q)
    spec, points, _, _ = problem
    lines, coords, den = lattice_lines_in_polytope(
        spec, PolytopeV(tuple(vec(p) for p in points)))
    pad = (0,) * (spec.dim - spec.base.rank)
    dirs = _level_directions(len(coords[0]))
    for z in _points_on_lines(spec, lines):
        q = tuple(den * c for c in z) + pad
        least = depth(spec.base.from_lattice(z), points).depth
        for u in dirs + [tuple(-c for c in u) for u in dirs]:
            assert sum(vdot(u, p) >= vdot(u, q) for p in coords) >= least


def test_cuts_keep_wide_searches_to_few_depth_queries():
    # nine random points in [0, 300]^2: the level bounds alone let 511 to
    # 11,484 candidates through to depth_count; the cuts of the stopped
    # queries leave 30 to 131 of them, with the same outcome
    rng = random.Random(7)
    for _ in range(6):
        points = []
        while len(points) < 9:
            p = (rng.randint(0, 300), rng.randint(0, 300))
            if p not in points:
                points.append(p)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tverberg, "depth_count", recorder(calls))
            search = find_deep_witnesses(points, Z2, 3, 1)
        assert len(calls) <= 135
        assert ranked(search) == sorted_bound_search(points, Z2, 3, 1, depth_count)


SCAN_SETS_3D = [
    lattice_set(3),
    lattice_set(3, LatticeBasis(((1, 0, 0), (F(1, 2), 1, 0), (0, F(1, 3), 1)))),
    difference_set(3, (LatticeBasis(((2, 0, 0), (0, 2, 0), (0, 0, 2))),)),
]


@st.composite
def z3_point_set(draw):
    """4-12 points of Z^3 anywhere, or up to 9 on a plane or a line."""
    shape = draw(st.sampled_from(("full", "plane", "line")))
    c = st.integers(-2, 2)
    if shape == "full":
        return draw(st.lists(st.tuples(c, c, c), min_size=4, max_size=12, unique=True))
    u, v, o = draw(st.tuples(c, c, c)), draw(st.tuples(c, c, c)), draw(st.tuples(c, c, c))
    if shape == "line":
        v = (0, 0, 0)
    t = st.integers(-1, 1)
    coeffs = draw(st.lists(st.tuples(t, t), min_size=4, max_size=9, unique=True))
    return [tuple(o[i] + a * u[i] + b * v[i] for i in range(3)) for a, b in coeffs]


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(SCAN_SETS_3D), z3_point_set())
def test_z3_enumeration_matches_per_point_membership(spec, points):
    verts = [vec(p) for p in points]
    got = enumerate_in_polytope(spec, PolytopeV(tuple(verts)))
    proj = [frame_coords(spec.base, v) for v in verts]
    box = [range(ceil(min(p[j] for p in proj)), floor(max(p[j] for p in proj)) + 1)
           for j in range(3)]
    expected = [
        x for x in map(spec.base.from_lattice, itertools.product(*box))
        if in_set(spec, x) and membership(x, verts).inside
    ]
    assert got == sorted(expected)


Z3 = lattice_set(3)
Z4 = lattice_set(4)
PLANE3 = lattice_set(3, LatticeBasis(((1, 0, 0), (0, 1, 1)), dim=3))
LINE3 = lattice_set(3, LatticeBasis(((1, 2, -1),), dim=3))
PLANE3_MINUS = difference_set(
    3, (LatticeBasis(((2, 0, 0), (0, 2, 2)), dim=3),), PLANE3.base
)


@st.composite
def enumeration_problem(draw):
    """A 4-d or rank-deficient ground set and vertices: 4-8 points of Z^4
    in a small box, or vertices for a plane or a line lattice in Z^3
    drawn on its span, off it, or both."""
    spec = draw(st.sampled_from((Z4, PLANE3, LINE3, PLANE3_MINUS)))
    if spec is Z4:
        c = st.integers(-1, 1)
        return spec, draw(st.lists(st.tuples(c, c, c, c), min_size=4, max_size=8,
                                   unique=True))
    gens = spec.base.vectors
    c = st.integers(-2, 2)
    on = [tuple(sum(a * g[i] for a, g in zip(z, gens)) for i in range(3))
          for z in draw(st.lists(st.tuples(*[c] * len(gens)), max_size=5))]
    off = draw(st.lists(st.tuples(c, c, c), max_size=5))
    where = draw(st.sampled_from(("on", "off", "both")))
    points = {"on": on, "off": off, "both": on + off}[where]
    assume(points)
    return spec, points


@settings(max_examples=60, deadline=None)
@given(enumeration_problem())
def test_z4_and_rank_deficient_enumeration_matches_per_point_membership(problem):
    spec, points = problem
    verts = [vec(p) for p in points]
    got = enumerate_in_polytope(spec, PolytopeV(tuple(verts)))
    proj = [frame_coords(spec.base, v) for v in verts]
    box = [range(ceil(min(p[j] for p in proj)), floor(max(p[j] for p in proj)) + 1)
           for j in range(spec.rank)]
    expected = [
        x for x in map(spec.base.from_lattice, itertools.product(*box))
        if in_set(spec, x) and membership(x, verts).inside
    ]
    assert got == sorted(expected)


# ---------------------------------------------------------------------------
# ground-set membership


def lattice_solution(basis, x):
    """The z with B z = x by Fraction Gauss-Jordan elimination, or None when
    x is off the span of B; independent of the lattice's transform T."""
    r = basis.rank
    rows = [list(col) + [F(c)] for col, c in zip(zip(*basis.vectors), x, strict=True)]
    for j in range(r):
        p = next(i for i in range(j, len(rows)) if rows[i][j])
        rows[j], rows[p] = rows[p], rows[j]
        rows[j] = [c / rows[j][j] for c in rows[j]]
        for i, row in enumerate(rows):
            if i != j and row[j]:
                rows[i] = [a - row[j] * b for a, b in zip(row, rows[j])]
    if any(row[r] for row in rows[r:]):
        return None
    return [row[r] for row in rows[:r]]


def ambient_member(spec, x):
    """x in S by its definition: B z = x for an integer z, and x in no removed
    sublattice."""
    z = lattice_solution(spec.base, x)
    return (z is not None and all(c.denominator == 1 for c in z)
            and not any(sub.contains(x) for sub in spec.sublattices))


SHEAR2 = ((1, 0), (F(1, 2), 1))
MEMBERSHIP_SETS = [
    lattice_set(2, SHEAR2),
    lattice_set(2, ((F(1, 2), 0), (0, F(1, 3)))),
    difference_set(2, (LatticeBasis(((2, 0), (1, 2))),), SHEAR2),
    difference_set(2, (LatticeBasis(((2, 0), (0, 2))), LatticeBasis(((3, 0), (0, 3))))),
    lattice_set(3, ((1, 0, 0), (F(1, 2), 1, 0), (0, F(1, 3), 1))),
    PLANE3,
    LINE3,
    PLANE3_MINUS,
]


@st.composite
def membership_problem(draw):
    """A ground set and 1-6 points, each a lattice point B z, B z shifted by
    a small rational, or a rational point anywhere (mostly off the span of a
    rank-deficient lattice)."""
    spec = draw(st.sampled_from(MEMBERSHIP_SETS))
    small = st.builds(F, st.integers(-2, 2), st.integers(1, 4))
    anywhere = st.builds(F, st.integers(-9, 9), st.integers(1, 3))
    points = []
    kinds = ("lattice", "shifted", "anywhere")
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=6)):
        x = spec.base.from_lattice(draw(st.tuples(*[st.integers(-3, 3)] * spec.rank)))
        if kind == "shifted":
            x = tuple(c + draw(small) for c in x)
        elif kind == "anywhere":
            x = draw(st.tuples(*[anywhere] * spec.dim))
        points.append(x)
    return spec, points


@settings(max_examples=150, deadline=None)
@given(membership_problem())
def test_lattice_coords_decide_membership_as_the_ambient_definition(problem):
    # lattice_coords and Instance decide S on lattice coordinates, by one
    # map; the reference solves B z = x itself and tests the ambient
    # sublattices
    spec, points = problem
    inside = [ambient_member(spec, x) for x in points]
    members = [x for x, ok in zip(points, inside) if ok]
    zs = lattice_coords(spec, members)
    assert all(type(c) is int for z in zs for c in z)
    assert [spec.base.from_lattice(z) for z in zs] == members
    if not all(inside):
        first = points[inside.index(False)]
        with pytest.raises(ValueError, match=re.escape(f"point {first} is not in")):
            lattice_coords(spec, points)
    for x, ok in zip(points, inside):
        if ok:
            Instance(spec, (x,), 1, 1)
        else:
            with pytest.raises(ValueError, match="not in the ground set"):
                Instance(spec, (x,), 1, 1)


# ---------------------------------------------------------------------------
# points common to several hulls


FAMILY_SETS = [
    Z1, ODD, Z2, Z3, lattice_set(2, LatticeBasis(((1, 1),), dim=2)),
    Z2_MINUS_2Z2, *MEMBERSHIP_SETS,
]


@st.composite
def hull_family(draw):
    """A ground set and 1-4 hulls of 1-5 vertices each (single points and
    segments among them), drawn from a pool of 1-8 points, each a lattice
    point B z, B z shifted by a small rational, or a rational point
    anywhere (mostly off the span of a rank-deficient lattice)."""
    spec = draw(st.sampled_from(FAMILY_SETS))
    small = st.builds(F, st.integers(-1, 1), st.integers(1, 3))
    anywhere = st.builds(F, st.integers(-3, 3), st.integers(1, 2))
    pool = []
    kinds = ("lattice", "shifted", "anywhere")
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=8)):
        x = spec.base.from_lattice(draw(st.tuples(*[st.integers(-2, 2)] * spec.rank)))
        if kind == "shifted":
            x = tuple(c + draw(small) for c in x)
        elif kind == "anywhere":
            x = draw(st.tuples(*[anywhere] * spec.dim))
        pool.append(vec(x))
    vertices = st.lists(st.sampled_from(pool), min_size=1, max_size=5)
    return spec, draw(st.lists(vertices, min_size=1, max_size=4))


def common_points_by_membership(spec, hulls):
    """Reference for the intersection scan: the points of S in the first
    hull's lattice box, each kept when membership puts it in every hull."""
    proj = [frame_coords(spec.base, v) for v in hulls[0]]
    box = [range(ceil(min(p[j] for p in proj)), floor(max(p[j] for p in proj)) + 1)
           for j in range(spec.rank)]
    return sorted(
        x for x in map(spec.base.from_lattice, itertools.product(*box))
        if in_set(spec, x) and all(membership(x, h).inside for h in hulls)
    )


@settings(max_examples=200, deadline=None)
@given(hull_family(), st.integers(1, 3))
def test_intersection_scan_matches_per_point_membership(problem, want):
    # the hulls index into one map of every vertex, as the oracles' do
    spec, hulls = problem
    expected = common_points_by_membership(spec, hulls)
    rows, den = _frame(spec, [v for hull in hulls for v in hull])
    ends = list(itertools.accumulate(map(len, hulls), initial=0))
    spans = [range(a, b) for a, b in zip(ends, ends[1:])]
    lines = _intersection_lines(spec, rows, den, spans)
    assert _ambient_points(spec.base, _points_on_lines(spec, lines)) == expected
    assert _common_set_points(spec, rows, den, spans, want) == expected[:want]


def hoffman_by_membership(points, spec, k):
    """Reference for :func:`is_k_hoffman`: fewer than k points of S in
    conv(P) are put by membership in every leave-one-out hull."""
    pts = [vec(p) for p in points]
    survivors = [
        q for q in enumerate_in_polytope(spec, PolytopeV(tuple(pts)))
        if all(membership(q, pts[:i] + pts[i + 1:]).inside for i in range(len(pts)))
    ]
    return len(survivors) < k


@st.composite
def hoffman_problem(draw):
    """A ground set, 2-6 of its points and k in 1-3."""
    spec = draw(st.sampled_from(FAMILY_SETS))
    zs = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * spec.rank),
                       min_size=2, max_size=6, unique=True))
    points = [x for x in map(spec.base.from_lattice, zs) if in_set(spec, x)]
    assume(len(points) >= 2)
    return spec, points, draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(hoffman_problem())
def test_k_hoffman_matches_the_leave_one_out_loop(problem):
    spec, points, k = problem
    assert is_k_hoffman(points, spec, k) == hoffman_by_membership(points, spec, k)


def test_enumeration_and_extreme_points_solve_no_lp(monkeypatch):
    # every LP goes through ExactSimplex.solve; membership's is built
    # directly, not through exact_geometry.solve_feasibility
    calls, feasibility = [], []
    solve, feasible = linprog.ExactSimplex.solve, exact_geometry.solve_feasibility

    def counted(tab):
        calls.append(tab)
        return solve(tab)

    def counted_feasibility(*args):
        feasibility.append(args)
        return feasible(*args)

    monkeypatch.setattr(linprog.ExactSimplex, "solve", counted)
    monkeypatch.setattr(exact_geometry, "solve_feasibility", counted_feasibility)
    simplex4 = [(0, 0, 0, 0), (3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)]
    cases = [
        (Z4, simplex4 + [(1, 1, 1, 0)]),
        (Z4, [(0, 0, 0, 0), (2, 2, 0, 0), (0, 2, 2, 1)]),  # a plane in Z^4
        (PLANE3, [(-3, -3, -2), (4, -1, -1), (0, 4, 5), (1, 2, 1), (0, 0, -3)]),
        (PLANE3, [(-2, 0, 0), (2, 1, 1), (0, 3, 3)]),  # on the lattice's plane
        (LINE3, [(-3, -4, 1), (4, 5, -2), (0, 6, 3), (1, 1, 1)]),
        (LINE3, [(-2, -4, 2), (3, 6, -3)]),  # on the lattice's line
        (PLANE3_MINUS, [(-3, -3, -2), (4, -1, -1), (0, 4, 5)]),
    ]
    for spec, points in cases:
        assert enumerate_in_polytope(spec, PolytopeV(tuple(map(vec, points))))
        extreme_points(points)
    # the oracles' common points come from the scan of the hulls' intersection
    z3 = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (2, 2, 2), (1, 1, 0)]
    assert brute_tverberg(z3, Z3, 2, 1).found
    assert brute_helly_check(hoffman_family(z3), Z3, 1, 2).hypothesis_holds
    assert not is_k_hoffman(z3, Z3, 1)
    assert calls == [] and feasibility == []
    membership((1, 1, 1, 1), simplex4)  # the counters see a 4-d LP
    assert len(calls) == 1 and feasibility == []


# ---------------------------------------------------------------------------
# integer hulls


def _facets_by_scan(pts: list) -> list:
    """Reference for :func:`hull_facets` of a full-dimensional set in Z^d,
    with no elimination: the hyperplane through d points, its normal the
    cofactors of their d - 1 differences (:func:`_leibniz_det`), supports
    the hull when no point lies strictly on one of its sides, and d
    affinely independent points on it make its face a facet.  Each d-subset
    stops at the first point on either side once the other side has been
    seen."""
    d = len(pts[0])
    found = {}
    for a, *rest in itertools.combinations(pts, d):
        rows = [[x - y for x, y in zip(p, a)] for p in rest]
        normal = tuple((-1) ** j * _leibniz_det([r[:j] + r[j + 1:] for r in rows])
                       for j in range(d))
        if not any(normal):
            continue
        offset = sum(map(mul, normal, a))
        above = below = False
        for p in pts:
            s = sum(map(mul, normal, p)) - offset
            if s > 0:
                if below:
                    break
                above = True
            elif s < 0:
                if above:
                    break
                below = True
        else:
            g = gcd(*normal) * (-1 if below else 1)
            found.setdefault((tuple(c // g for c in normal), offset // g), None)
    return list(found)


@st.composite
def z3_hull_points(draw):
    """Distinct points of Z^3 with a full-dimensional hull, scaled by 6 so
    that midpoints of pairs (on edges, when the pair is one) and centroids
    of triples (on facets, when the triple is on one) are integers, then
    sheared by a unimodular upper-triangular map."""
    c = st.integers(-3, 3)
    base = draw(st.lists(st.tuples(c, c, c), min_size=4, max_size=10, unique=True))
    assume(affine_rank(base) == 3)
    pick = st.sampled_from(base)
    pairs = draw(st.lists(st.tuples(pick, pick), max_size=4))
    triples = draw(st.lists(st.tuples(pick, pick, pick), max_size=3))
    pts = [tuple(6 * x for x in p) for p in base]
    pts += [tuple(3 * (x + y) for x, y in zip(p, q)) for p, q in pairs]
    pts += [tuple(2 * (x + y + z) for x, y, z in zip(p, q, r)) for p, q, r in triples]
    a, b, e = draw(st.tuples(*[st.integers(-2, 2)] * 3))
    return list(dict.fromkeys((x + a * y + b * z, y + e * z, z) for x, y, z in pts))


@settings(max_examples=200, deadline=None)
@given(z3_hull_points())
def test_hull_facets_match_the_triple_scan_in_3d(pts):
    facets = hull_facets(pts)
    assert len(facets) == len(set(facets))
    assert set(facets) == set(_facets_by_scan(pts))


@st.composite
def z4_hull_points(draw):
    """6-14 distinct points of [0, 2]^4 with a full-dimensional hull, so
    that many lie on one hyperplane, sheared by a unimodular
    upper-triangular map."""
    c = st.integers(0, 2)
    pts = draw(st.lists(st.tuples(c, c, c, c), min_size=6, max_size=14, unique=True))
    assume(affine_rank(pts) == 4)
    a, b, e, f, g, h = draw(st.tuples(*[st.integers(-2, 2)] * 6))
    return [(x + a * y + b * z + e * w, y + f * z + g * w, z + h * w, w) for x, y, z, w in pts]


@settings(max_examples=100, deadline=None)
@given(z4_hull_points())
def test_hull_facets_match_the_scan_in_4d(pts):
    # beneath-beyond reads each new facet off a horizon ridge, which needs
    # every ridge of the boundary on exactly two simplices
    facets = hull_facets(pts)
    assert len(facets) == len(set(facets))
    assert set(facets) == set(_facets_by_scan(pts))


def _hull_order_corpus() -> list:
    """50 seeded point sets: boxes in Z^3-Z^5, and flats of rank 3 in Z^4
    and Z^5 (an origin plus 0-3 times each of three generators), whose
    hulls run on pivot coordinates."""
    rng = random.Random(31)
    sets = []
    for d, n, b, reps in [(3, 15, 2, 12), (3, 43, 3, 4), (4, 12, 2, 8), (4, 40, 2, 4),
                          (5, 14, 2, 6), (5, 30, 2, 2)]:
        for _ in range(reps):
            sets.append(list(dict.fromkeys(
                tuple(rng.randint(-b, b) for _ in range(d)) for _ in range(n))))
    for d in (4, 5):
        for _ in range(7):
            origin = [rng.randint(-3, 3) for _ in range(d)]
            gens = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(3)]
            coefs = [[rng.randint(0, 3) for _ in gens] for _ in range(20)]
            sets.append(list(dict.fromkeys(
                tuple(o + sum(c * g[i] for c, g in zip(z, gens)) for i, o in enumerate(origin))
                for z in coefs)))
    return sets


def test_hull_facets_keep_their_order():
    # membership's separator is the first violated facet, so the order of
    # the list is observable; the digest pins it
    sets = _hull_order_corpus()
    assert len(sets) == 50
    assert sorted(Counter((len(s[0]), affine_rank(s)) for s in sets).items()) == [
        ((3, 3), 16), ((4, 3), 7), ((4, 4), 12), ((5, 3), 7), ((5, 5), 8)]
    facets = repr([hull_facets(s) for s in sets])
    assert hashlib.sha256(facets.encode()).hexdigest() == (
        "18aca913f000750a9e85c46679cacc9a94ccf3a009928dc5b0158418a4432772")


def test_a_full_dimensional_hull_eliminates_d_plus_2_times(monkeypatch):
    # one elimination for the rank pass and one for each of the first
    # simplex's d + 1 facets, whatever n is: every later facet's normal
    # comes from its horizon ridge
    rng = random.Random(21)
    sets = [list(dict.fromkeys(tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(n)))
            for d, n in [(3, 40), (4, 30)]]
    assert [affine_rank(s) for s in sets] == [3, 4]
    calls = []
    echelon = exact_geometry._echelon

    def counted(vectors):
        calls.append(None)
        return echelon(vectors)

    monkeypatch.setattr(exact_geometry, "_echelon", counted)
    for pts in sets:
        d = len(pts[0])
        calls.clear()
        assert len(hull_facets(pts)) > 2 * (d + 1)
        assert len(calls) == d + 2


@st.composite
def flat_point_set(draw):
    """Distinct points of Z^d, d in 1-4, in a box small enough to test each
    of its points by membership: anywhere, or on a flat of any smaller
    dimension r (the origin plus 0-2 times each of r generators; 0-1 in
    4-d)."""
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        c = st.integers(*{1: (-5, 5), 2: (-3, 3), 3: (-2, 2), 4: (0, 2)}[d])
        return draw(st.lists(st.tuples(*[c] * d), min_size=1, max_size=8, unique=True))
    r = draw(st.integers(0, d - 1))
    unit = st.integers(-1, 1)
    origin = draw(st.tuples(*[st.integers(-2, 2)] * d))
    gens = draw(st.lists(st.tuples(*[unit] * d), min_size=r, max_size=r))
    coef = st.integers(0, 1 if d == 4 else 2)
    coefs = draw(st.lists(st.tuples(*[coef] * r), min_size=1, max_size=8))
    return list(dict.fromkeys(
        tuple(o + sum(a * g[i] for a, g in zip(z, gens)) for i, o in enumerate(origin))
        for z in coefs
    ))


def check_h_representation(pts: list) -> None:
    """The halfspaces hold on every point; each one whose opposite is not
    listed (not an equation of the flat) is tight on r affinely
    independent points; and the scan of the points' box keeps exactly the
    box points in their hull."""
    r = affine_rank(pts)
    facets = hull_facets(pts)
    assert len(facets) == len(set(facets))
    for n, c in facets:
        assert gcd(*n) == 1
        assert all(sum(a * b for a, b in zip(n, p)) >= c for p in pts)
        if (tuple(-a for a in n), -c) not in facets:
            tight = [p for p in pts if sum(a * b for a, b in zip(n, p)) == c]
            assert affine_rank(tight) == r - 1
    box = [range(min(col), max(col) + 1) for col in zip(*pts)]
    lines = _scan_lines(facets, 1, box)
    assert [head + (z,) for head, lo, hi in lines for z in range(lo, hi + 1)] == [
        z for z in itertools.product(*box) if membership(z, pts).inside
    ]


@settings(max_examples=150, deadline=None)
@given(flat_point_set())
def test_hull_facets_are_an_h_representation(pts):
    check_h_representation(pts)


@pytest.mark.parametrize("pts", [
    pytest.param([(1, -2, 3)], id="point-in-Z3"),
    pytest.param([(0, 0, 0, 0)], id="point-in-Z4"),
    pytest.param([(-2, -1, 0), (0, 0, 1), (4, 2, 3), (2, 1, 2)], id="line-in-Z3"),
    pytest.param([(0, 0, 0), (3, 0, 1), (0, 3, 2), (3, 3, 3), (1, 1, 1)],
                 id="plane-in-Z3"),
    pytest.param([(0, 0, 0, 0), (2, 0, 1, 1), (0, 2, 1, -1), (2, 2, 2, 0), (1, 1, 1, 0)],
                 id="plane-in-Z4"),
    pytest.param([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                  (1, 1, 1, 1), (1, 1, 0, 0)], id="full-Z4"),
])
def test_hull_facets_of_named_flats(pts):
    check_h_representation(pts)


@settings(max_examples=150, deadline=None)
@given(flat_point_set(), st.data())
def test_extreme_points_match_the_lp_definition(pts, data):
    # rational inputs, repeats and any input order; a point is a vertex
    # when it is not in the hull of the others (by LP from 3-d up)
    den = data.draw(st.integers(1, 3), label="denominator")
    pts = [tuple(F(x, den) for x in p) for p in pts]
    pts = data.draw(st.permutations(pts + data.draw(st.lists(st.sampled_from(pts),
                                                             max_size=3))))
    uniq = list(dict.fromkeys(pts))
    expected = uniq if len(uniq) == 1 else [
        p for i, p in enumerate(uniq)
        if not membership(p, uniq[:i] + uniq[i + 1:]).inside
    ]
    assert extreme_points(pts) == expected


# ---------------------------------------------------------------------------
# the one elimination


def _fraction_picks(vectors: list) -> list:
    """The indices of the vectors outside the span of the earlier ones, by
    Gaussian elimination over Fractions."""
    basis, picked = [], []  # (pivot column, row with 1 there)
    for i, v in enumerate(vectors):
        v = [F(a) for a in v]
        for c, row in basis:
            f = v[c]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
        c = next((c for c, a in enumerate(v) if a), None)
        if c is not None:
            basis.append((c, [a / v[c] for a in v]))
            picked.append(i)
    return picked


def _leibniz_det(m: list) -> int:
    return sum(
        (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
        * prod(m[i][j] for i, j in enumerate(perm))
        for perm in itertools.permutations(range(len(m)))
    )


@st.composite
def integer_matrix(draw):
    """Integer rows with 1-4 columns: zero rows, repeats and combinations of
    earlier rows among them, in any order."""
    d = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * d), max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["zero", "repeat", "combination"]))
        if kind == "zero" or not rows:
            rows.append((0,) * d)
        elif kind == "repeat":
            rows.append(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            rows.append(tuple(s * x + t * y for x, y in zip(a, b)))
    return d, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(integer_matrix())
def test_echelon_reduces_like_fraction_elimination(case):
    d, vectors = case
    picked, cols, rows, det = exact_geometry._echelon(iter(vectors))
    assert picked == _fraction_picks(vectors)
    assert rank(vectors) == len(picked)
    # det is the determinant of the picked vectors on the pivot columns,
    # and each row is det at its own pivot column and 0 at the others
    assert det == _leibniz_det([[vectors[i][c] for c in cols] for i in picked])
    for i, row in enumerate(rows):
        assert [row[c] for c in cols] == [det if j == i else 0 for j in range(len(cols))]
        assert len(_fraction_picks([vectors[j] for j in picked] + [row])) == len(picked)
    kernel = exact_geometry._kernel((picked, cols, rows, det), d)
    assert len(kernel) == d - len(picked)
    assert len(_fraction_picks(kernel)) == len(kernel)
    for e in kernel:
        assert gcd(*e) == 1
        assert all(_idot(e, v) == 0 for v in vectors)


@st.composite
def lattice_basis_vectors(draw):
    """r rational vectors in Q^d: independent (full rank, rank-deficient,
    sheared), or made dependent by a repeat or a combination."""
    d = draw(st.integers(1, 4))
    r = draw(st.integers(1, d))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    vectors = draw(st.lists(st.tuples(*[entry] * d), min_size=r, max_size=r))
    if r >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(r)))[:2]
        s = draw(st.fractions(min_value=-2, max_value=2, max_denominator=2))
        vectors[j] = tuple(s * a for a in vectors[i])
    return d, vectors


@settings(max_examples=300, deadline=None)
@given(lattice_basis_vectors())
def test_lattice_transform_maps_the_basis_to_the_unit_vectors(case):
    d, vectors = case
    r = len(vectors)
    if len(_fraction_picks(vectors)) < r:
        with pytest.raises(ValueError, match="linearly dependent"):
            LatticeBasis(vectors, d)
        return
    basis = LatticeBasis(vectors, d)
    rows, den = basis._t_rows, basis._t_den
    assert den > 0
    # T B = den [I_r; 0], and T is invertible, so rows past the rank vanish
    # exactly on the span
    assert [[sum(map(mul, row, b)) for b in vectors] for row in rows] == [
        [den if i == j else 0 for j in range(r)] for i in range(d)
    ]
    assert len(_fraction_picks(rows)) == d


def _callers(callee: str) -> set:
    """The (module, scope) pairs of the package that call a name ``callee``,
    plainly or as an attribute, by its syntax tree."""
    callers = set()

    def walk(node, scope, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + (child.name,), module)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == callee:
                    callers.add((module, ".".join(scope)))
            walk(child, scope, module)

    for path in Path(linprog.__file__).parent.glob("*.py"):
        walk(ast.parse(path.read_text()), (), path.stem)
    return callers


def test_pivot_is_called_only_by_the_simplex_and_the_elimination():
    # linprog.pivot is the one fraction-free step: the simplex pivots with
    # it, and every rank, null space and lattice transform comes from the
    # one elimination, exact_geometry._echelon
    assert _callers("pivot") == {
        ("linprog", "ExactSimplex._pivot"), ("exact_geometry", "_echelon")}


def test_halfspaces_are_built_only_by_membership_and_depth():
    # one separator rule: membership's first violated hull_facets halfspace;
    # the other halfspaces are depth witnesses, a chosen witness's built
    # when its depth_result is first read
    assert _callers("Halfspace") == {
        ("exact_geometry", "membership"), ("exact_geometry", "depth"),
        ("tverberg", "DeepWitness.depth_result")}


def test_membership_is_called_only_by_the_depth_and_verification_oracles():
    # points of S common to several hulls come from the one scan of their
    # intersection; only brute_depth and verify_partition decide membership
    callers = _callers("membership")
    assert {scope for module, scope in callers if module == "oracles"} == {
        "brute_depth", "verify_partition"}
    assert not any(module == "discrete_sets" for module, _ in callers)


# ---------------------------------------------------------------------------
# serialization


@given(query_and_points(max_dim=3, max_size=6))
def test_instance_json_roundtrip(case):
    _, pts = case
    if len(pts) < 2:
        return
    dim = len(pts[0])
    inst = Instance(lattice_set(dim), tuple(vec(p) for p in pts), 2, 1)
    back = jsonio.parse_instance(jsonio.instance_to_json(inst))
    assert back == inst
    assert jsonio.instance_digest(back) == jsonio.instance_digest(inst)


@given(st.fractions())
def test_scalar_roundtrip(x):
    assert jsonio.parse_scalar(jsonio.format_scalar(x)) == x


def test_simplex_solution_is_read_only_by_solve_feasibility():
    # the kernels read a feasible tableau's positive entries off
    # ExactSimplex.support; only the rational entry point builds the whole
    # Fraction solution vector
    assert _callers("solution") == {("linprog", "solve_feasibility")}


def test_peel_certifies_without_fraction_combinations():
    # the peel checks each certificate on the lattice coordinates it solved
    # on (exact_geometry._verify_weights), not by ConvexCombination.verify
    assert not any(module == "tverberg" for module, _ in _callers("verify"))


# ---------------------------------------------------------------------------
# integer paths: dedup, certificate check, removed points per line


@st.composite
def repeated_rational_points(draw):
    """1-8 rational points in 1-3 d with mixed denominators, some repeated."""
    d = draw(st.integers(1, 3))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    pts = draw(st.lists(st.tuples(*[entry] * d), min_size=1, max_size=6))
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    return draw(st.permutations(pts))


@given(repeated_rational_points())
def test_integer_row_dedup_keeps_the_fraction_dedups_first_points(pts):
    ints, _ = exact_geometry.int_scaled(pts)
    first = exact_geometry._first_seen(ints)
    assert first == [pts.index(p) for p in exact_geometry._dedup(pts)]
    # membership and caratheodory_reduce solve on those rows, so a support
    # point is a first occurrence
    q = tuple(sum(col, F(0)) / len(pts) for col in zip(*pts))
    comb, _, sub, den = exact_geometry._combination(q, list(pts))
    assert sub == [tuple(den * c for c in pts[i]) for i in first]
    assert comb.verify(q)
    assert all(v in exact_geometry._dedup(pts) for v in comb.support())


CORRUPTIONS = ("none", "perturb", "swap", "zero", "negative", "repeat", "scale")


@st.composite
def lattice_certificate(draw):
    """Distinct integer lattice coordinates z_j in 2-3 d, a sheared basis B,
    and (index, Fraction) weights over some of them with their integer
    target (everything scaled by the weights' common denominator), then
    corrupted one way or not at all."""
    d = draw(st.integers(2, 3))
    shear = draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
    basis = [tuple(F(int(i == j)) for i in range(d)) for j in range(d)]
    basis[1] = (shear,) + basis[1][1:]
    zs = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * d), min_size=2,
                       max_size=6, unique=True))
    idx = draw(st.lists(st.integers(0, len(zs) - 1), min_size=1, max_size=len(zs),
                        unique=True))
    raw = draw(st.lists(st.integers(1, 5), min_size=len(idx), max_size=len(idx)))
    terms = [(j, F(w, sum(raw))) for j, w in zip(idx, raw)]
    scale = sum(raw)
    zs = [tuple(scale * c for c in z) for z in zs]
    target = tuple(sum(c * zs[j][i] for j, c in terms) for i in range(d))
    assert all(c.denominator == 1 for c in target)
    target = tuple(int(c) for c in target)
    kind = draw(st.sampled_from(CORRUPTIONS))
    unused = [j for j in range(len(zs)) if j not in idx]
    j0, c0 = terms[0]
    if kind == "perturb":
        terms[0] = (j0, c0 + F(1, draw(st.integers(2, 9))))
    elif kind == "swap" and unused:
        terms[0] = (draw(st.sampled_from(unused)), c0)
    elif kind == "zero" and unused:
        terms.append((draw(st.sampled_from(unused)), F(0)))
    elif kind == "negative" and len(terms) > 1:
        j1, c1 = terms[1]
        terms[:2] = [(j0, -c0), (j1, c1 + 2 * c0)]
    elif kind == "repeat":
        terms[:1] = [(j0, c0 / 2), (j0, c0 / 2)]
    elif kind == "scale":
        terms = [(j, 2 * c) for j, c in terms]
    return basis, zs, terms, target, kind


@settings(max_examples=300, deadline=None)
@given(lattice_certificate())
def test_lattice_frame_check_agrees_with_convex_combination_verify(case):
    # the peel's check on lattice coordinates, against the Fraction check of
    # the same weights over the ambient points B z; B is linear and injective
    basis, zs, terms, target, kind = case
    lat = LatticeBasis(basis)
    comb = ConvexCombination(tuple((lat.from_lattice(zs[j]), c) for j, c in terms))
    got = exact_geometry._verify_weights(target, zs, terms)
    assert got == comb.verify(lat.from_lattice(target))
    if kind == "none":
        assert got


@st.composite
def removed_lines_problem(draw):
    """A difference set in 2-3 d on a sheared base with one or two removed
    sublattices (integer combinations of the base vectors, full rank or
    not), and lines ``(head, lo, hi)`` in its lattice coordinates."""
    d = draw(st.integers(2, 3))
    shear = draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
    basis = [tuple(F(int(i == j)) for i in range(d)) for j in range(d)]
    basis[1] = (shear,) + basis[1][1:]
    subs = []
    for _ in range(draw(st.integers(1, 2))):
        r = draw(st.integers(1, d))
        rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=r,
                             max_size=r))
        assume(len(_fraction_picks(rows)) == r)
        subs.append([tuple(sum(a * b[i] for a, b in zip(row, basis)) for i in range(d))
                     for row in rows])
    spec = difference_set(d, subs, basis)
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        head = draw(st.tuples(*[st.integers(-6, 6)] * (d - 1)))
        lo = draw(st.integers(-12, 12))
        lines.append((head, lo, lo + draw(st.integers(-1, 20))))
    return spec, lines


@settings(max_examples=300, deadline=None)
@given(removed_lines_problem())
def test_removed_points_per_line_match_the_pointwise_count(problem):
    spec, lines = problem
    assert spec.removed_on_lines(lines) == sum(
        spec.removes(head + (z,)) for head, lo, hi in lines for z in range(lo, hi + 1))
