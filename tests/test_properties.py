"""Property-based checks: certificates, depth laws, hollow machinery."""
import itertools
from fractions import Fraction
from math import ceil, floor

from hypothesis import assume, given, settings, strategies as st

from discrete_tverberg import jsonio
from discrete_tverberg.discrete_sets import (
    LatticeBasis,
    PolytopeV,
    difference_set,
    enumerate_in_polytope,
    helly_upper_bound,
    is_k_hoffman,
    is_k_hollow,
    lattice_set,
    set_contains,
)
from discrete_tverberg.exact_geometry import (
    affinely_independent,
    anchored_reduce,
    caratheodory_reduce,
    depth,
    membership,
)
from discrete_tverberg.oracles import brute_depth, brute_tverberg, verify_partition
from discrete_tverberg.tverberg import Instance, find_deep_witnesses, tverberg_partition
from discrete_tverberg.vectors import vec

F = Fraction
Z1 = lattice_set(1)
Z2 = lattice_set(2)
ODD = difference_set(1, (LatticeBasis(((2,),), dim=1),))


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


@given(st.lists(st.tuples(coord(), coord()), min_size=1, max_size=10,
                unique=True),
       st.tuples(coord(), coord()))
def test_planar_scan_agrees_with_wall_recursion(pts, q):
    from discrete_tverberg.exact_geometry import _min_open_count, depth_count
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
    a 3-flat through 0), plus repeats, antipodes and multiples of them.  In
    4-d the draws are smaller, since the reference recursion grows as
    n^4."""
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
    from discrete_tverberg.exact_geometry import _min_open_count, depth_count
    W, d = case
    count, witness = depth_count(W, d)
    assert (count, witness()) == _min_open_count(W)


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
    limit = 2 if not red.fallback else 3
    assert len(red.points) <= limit
    assert membership(y, list(red.points) + [q]).inside


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


def test_witness_search_on_points_off_the_set():
    # vertices with thirds: the search scales points and candidates of S
    # to one common denominator
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
    proj = [spec.base.projected_coords(v) for v in verts]
    box = [range(ceil(min(p[j] for p in proj)), floor(max(p[j] for p in proj)) + 1)
           for j in range(3)]
    expected = [
        x for x in map(spec.base.from_lattice, itertools.product(*box))
        if set_contains(spec, x) and membership(x, verts).inside
    ]
    assert got == sorted(expected)


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
