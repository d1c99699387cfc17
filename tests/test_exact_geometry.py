from fractions import Fraction

import pytest

from discrete_tverberg import linprog
from discrete_tverberg.exact_geometry import (
    ConvexCombination,
    Halfspace,
    MembershipCertificate,
    affine_hull,
    affine_rank,
    affinely_independent,
    anchored_reduce,
    caratheodory_reduce,
    centroid,
    depth,
    extreme_points,
    membership,
    rank_of_vectors,
)
from discrete_tverberg.vectors import vdot, vec, vsub

F = Fraction
SQUARE = [(0, 0), (1, 0), (0, 1), (1, 1)]


# ---------------------------------------------------------------------------
# membership


def test_membership_inside_with_verifying_combination():
    a = [(1, 0), (-1, 1), (-1, -1)]
    cert = membership((0, 0), a)
    assert cert.inside
    assert cert.verify(vec((0, 0)), [vec(p) for p in a])
    # the combination reproduces the query exactly
    total = [F(0), F(0)]
    for point, coeff in cert.combination.terms:
        assert coeff > 0
        total = [t + coeff * c for t, c in zip(total, point)]
    assert total == [F(0), F(0)]


def test_membership_outside_with_separator():
    cert = membership((3, 0), SQUARE)
    assert not cert.inside
    assert cert.verify(vec((3, 0)), [vec(p) for p in SQUARE])
    sep = cert.separator
    # every set point on the >= side, query strictly below
    for p in SQUARE:
        assert sep.contains(vec(p))
    assert sep.strictly_excludes(vec((3, 0)))
    # the first hull edge that the query violates
    assert sep == Halfspace(vec((-1, 0)), -1)


def test_membership_center_of_square():
    assert membership((1, 1), [(0, 0), (2, 0), (0, 2), (2, 2)]).inside


def test_membership_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        membership((0, 0), [])
    with pytest.raises(ValueError):
        membership((0, 0), [(1, 2, 3)])


def test_membership_vertex_and_edge_cases():
    assert membership((0, 0), SQUARE).inside
    assert membership((F(1, 2), 0), SQUARE).inside
    assert membership((F(1, 2), F(-1, 7)), SQUARE).inside is False


def test_membership_degenerate_segment_and_point():
    seg = [(0, 0), (2, 2)]
    assert membership((1, 1), seg).inside
    off = membership((1, 0), seg)
    assert not off.inside and off.verify(vec((1, 0)), [vec(p) for p in seg])
    # the segment's primitive edge normal, from hull_facets
    assert off.separator == Halfspace(vec((-1, 1)), 0)
    single = membership((5, 5), [(5, 5)])
    assert single.inside
    assert not membership((5, 4), [(5, 5)]).inside
    # on a segment's line or off a point: an end of the segment, or one of
    # the flat's equations, separates
    for q, hull in [((3, 3), seg), ((-1, -1), seg), ((F(5, 2), F(5, 2)), seg),
                    ((4, 9), [(5, 5)]), ((5, 4), [(5, 5)]), ((6, 5), [(5, 5)])]:
        cert = membership(q, hull)
        assert not cert.inside and cert.verify(vec(q), [vec(p) for p in hull])


def test_membership_high_dimension_lp_path():
    simplex = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    q = (F(1, 5), F(1, 5), F(1, 5), F(1, 5))
    assert membership(q, simplex).inside
    out = membership((1, 1, 1, 1), simplex)
    assert not out.inside
    assert out.verify(vec((1, 1, 1, 1)), [vec(p) for p in simplex])


# ---------------------------------------------------------------------------
# caratheodory_reduce


def test_caratheodory_square_center():
    corners = [(0, 0), (2, 0), (0, 2), (2, 2)]
    support, comb = caratheodory_reduce((1, 1), corners)
    assert len(support) <= 3
    assert membership((1, 1), support).inside
    assert comb.verify(vec((1, 1)))
    assert affinely_independent(support)


def test_caratheodory_identity():
    support, comb = caratheodory_reduce((2, 0), [(0, 0), (2, 0), (5, 5)])
    assert list(support) == [vec((2, 0))]
    assert comb.terms == ((vec((2, 0)), F(1)),)


def test_caratheodory_midpoint_of_segment():
    support, comb = caratheodory_reduce((1, 0), [(0, 0), (2, 0), (5, 5)])
    assert sorted(support) == [vec((0, 0)), vec((2, 0))]
    assert sorted(c for _, c in comb.terms) == [F(1, 2), F(1, 2)]


def test_caratheodory_rejects_outside_point():
    with pytest.raises(ValueError):
        caratheodory_reduce((10, 10), SQUARE)


# ---------------------------------------------------------------------------
# anchored_reduce


def test_anchored_scalar_multiple():
    red = anchored_reduce((1, 0), (0, 0), [(2, 0), (0, 2), (0, -2)])
    assert red.points == (vec((2, 0)),)


def test_anchored_identity():
    red = anchored_reduce((0, 2), (0, 0), [(2, 0), (0, 2), (0, -2)])
    assert red.points == (vec((0, 2)),)


def test_anchored_query_equals_anchor():
    red = anchored_reduce((0, 0), (0, 0), [(2, 0), (0, 2)])
    assert red.points == ()


def test_anchored_size_at_most_dim():
    red = anchored_reduce((0, 1), (0, 0), [(-1, 2), (1, 2), (3, 3)])
    assert len(red.points) <= 2
    assert membership((0, 1), list(red.points) + [(0, 0)]).inside


def test_anchored_reduction_raises_on_a_refused_anchor_pivot(monkeypatch):
    # three points at positive levels in Z^2 and the anchor at 0: the anchor
    # must enter the basis; a refused pivot used to leave all three
    args = ((2, 5), (2, 2), [(4, 4), (2, 4), (5, 1), (5, 6), (0, 5)])
    assert len(anchored_reduce(*args).points) <= 2
    monkeypatch.setattr(linprog.ExactSimplex, "force_into_basis", lambda tab, col: False)
    with pytest.raises(AssertionError, match="anchor's column"):
        anchored_reduce(*args)


def test_anchored_rejects_outside():
    with pytest.raises(ValueError):
        anchored_reduce((5, 5), (0, 0), [(1, 0), (0, 1)])


# ---------------------------------------------------------------------------
# extreme points, hulls, centroid


def test_extreme_points_drops_midpoint():
    pts = [(0, 0), (2, 0), (0, 2), (1, 1)]
    assert sorted(extreme_points(pts)) == [vec((0, 0)), vec((0, 2)), vec((2, 0))]


def test_extreme_points_square_keeps_all():
    assert len(extreme_points(SQUARE)) == 4


def test_extreme_points_1d_interval():
    assert sorted(extreme_points([(0,), (1,), (2,), (3,)])) == [vec((0,)), vec((3,))]


def test_affine_hull_dimensions():
    hull = affine_hull([(0, 0), (1, 1)])
    assert hull.dim == 1
    assert len(hull.basis) == 1
    bx, by = hull.basis[0]
    assert bx == by and bx != 0  # spans the diagonal
    assert affine_hull([(3, 4)]).dim == 0
    assert affine_hull(SQUARE).dim == 2


def test_affine_rank_and_independence():
    assert affine_rank(SQUARE) == 2
    assert affinely_independent([(0, 0), (1, 0), (0, 1)])
    assert not affinely_independent([(0, 0), (1, 0), (2, 0)])
    assert affinely_independent([(7, 7)])


def test_rank_of_vectors_passes_over_dependent_columns():
    # in the transpose the third column is the sum of the first two, so
    # elimination must pass over it to reach the fourth
    keys = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)]
    assert rank_of_vectors(zip(*keys)) == 3
    assert rank_of_vectors(keys) == 3
    assert rank_of_vectors([(0, 0), (0, F(1, 2)), (0, 3)]) == 1
    assert rank_of_vectors([]) == 0


def test_centroid_values():
    assert centroid([(0, 0), (2, 0), (0, 2)]) == vec((F(2, 3), F(2, 3)))
    assert centroid([(3, 4)]) == vec((3, 4))
    assert centroid([(0,), (4,)]) == vec((2,))


@pytest.mark.parametrize("fn, points", [
    (extreme_points, [(0, 0), (1,), (0, 1)]),
    (centroid, [(0, 0), (1,)]),
    (affine_rank, [(0, 0), (1,), (0, 1)]),
    (affinely_independent, [(0, 0), (1,)]),
])
def test_mixed_dimension_points_raise(fn, points):
    # zip used to truncate them: affine_rank read 1, affinely_independent
    # True; extreme_points and centroid raised IndexError
    with pytest.raises(ValueError):
        fn(points)


MIXED_TERMS = (((1, 0), F(1, 2)), ((-1, 0, 7), F(1, 2)))


@pytest.mark.parametrize("check", [
    lambda: vdot((1, 0), (1, 0, 5)),
    lambda: vsub((1, 0, 5), (1, 0)),
    lambda: Halfspace((1, 0), 0).verify_separation((-1, 0), [(1, 0, 5), (2, 0)]),
    lambda: depth((0, 0), [(1, 0), (-1, 0)]).verify((0, 0), [(1, 0, 7), (-1, 0)]),
    lambda: ConvexCombination(MIXED_TERMS).verify((0, 0)),
    lambda: ConvexCombination(MIXED_TERMS[::-1]).verify((0, 0)),
    lambda: MembershipCertificate(True, ConvexCombination(MIXED_TERMS)).verify(
        (0, 0), [(1, 0), (-1, 0, 7)]),
], ids=["vdot", "vsub", "separation", "depth", "combination",
        "combination_swapped", "membership_certificate"])
def test_verifiers_reject_mixed_dimensions(check):
    # each used to return True by truncating the longer point, and the
    # swapped combination raised IndexError
    with pytest.raises(ValueError):
        check()


# ---------------------------------------------------------------------------
# depth


def test_depth_diamond_center():
    diamond = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    res = depth((0, 0), diamond)
    assert res.depth == 2
    assert res.verify(vec((0, 0)), [vec(p) for p in diamond])


def test_depth_outside_is_zero():
    res = depth((5, 5), SQUARE)
    assert res.depth == 0
    assert res.verify(vec((5, 5)), [vec(p) for p in SQUARE])


def test_depth_1d_median():
    pts = [(0,), (1,), (2,), (3,), (4,)]
    res = depth((2,), pts)
    assert res.depth == 3
    assert res.verify(vec((2,)), [vec(p) for p in pts])
    # the witness keeps the side with fewer points, and (-1,) on a tie
    for q, ps, value, normal, offset in [
        ((-1,), pts, 0, (-1,), 1),  # below every point
        ((5,), pts, 0, (1,), 5),  # above every point
        ((1,), [(0,), (2,)], 1, (-1,), -1),  # a tie
        ((2,), [(0,), (2,)], 1, (1,), 2),  # the query is a point
        ((2,), pts, 3, (-1,), -2),  # a point and a tie
        ((3,), [(3,)], 1, (1,), 3),  # the only point
    ]:
        res = depth(q, ps)
        assert (res.depth, res.witness.normal, res.witness.offset) == \
            (value, vec(normal), offset)
        assert res.verify(vec(q), [vec(p) for p in ps])


def test_depth_membership_consistency():
    # depth 0 exactly when outside the hull
    assert depth((1, 1), SQUARE).depth >= 1
    assert depth((2, 2), SQUARE).depth == 0


def test_depth_3d_axis_cross():
    # every closed halfspace through 0 keeps one point of each antipodal
    # pair, so the minimum is 3, reached by any generic direction
    cross = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    res = depth((0, 0, 0), cross)
    assert res.verify(vec((0, 0, 0)), [vec(p) for p in cross])
    assert res.depth == 3
    # the witness is the lexicographically smallest primitive normal among
    # the minimizing ones that the wall recursion builds
    square = [(0, 0, 0), (3, 0, 0), (0, 3, 0), (3, 3, 0), (1, 2, 0)]
    simplex = [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)]
    for q, ps, value, normal, offset in [
        ((0, 0, 0), cross, 3, (-1, -1, -1), 0),  # many tied minimizers
        ((1, 0, 0), square, 1, (-23, -11, 0), -23),  # a coplanar set
        ((0, 0, 0), [(-1, -1, -1), (1, 1, 1), (3, 3, 3)], 1, (-1, -1, -1), 0),
        ((0, 0, 0), [(-1, -2, 0), (1, 2, 0)], 1, (-1, -2, 0), 0),  # a tie
        ((1, 1, 1), simplex, 2, (-215, -125, -117), -457),  # q is a point
        ((1, 1, 1), simplex + [(2, -1, 3), (-2, 3, 1)], 2,
         (-15261, -22898, -15468), -53627),
    ]:
        res = depth(q, ps)
        assert (res.depth, res.witness.normal, res.witness.offset) == \
            (value, vec(normal), offset)
        assert res.verify(vec(q), [vec(p) for p in ps])


def test_depth_2d_pinned_witnesses():
    # the rule of every other dimension in Z^2: the lexicographically
    # smallest primitive normal among the wall recursion's minimizers,
    # pinned from that recursion
    square = [(0, 0), (3, 0), (0, 3), (3, 3), (1, 2)]
    for q, ps, value, normal, offset in [
        ((0, 0), [(1, 0), (-1, 0), (0, 1), (0, -1)], 2, (-1, -1), 0),  # a cross
        ((5, 5), square, 0, (-67, 182), 575),  # outside the hull
        ((1, 1), [(0, 0), (4, 0), (0, 4), (1, 1)], 2, (-2, -1), -3),  # q is a point
        ((1, 2), [(0, 0), (1, 2), (2, 4), (3, 6)], 2, (-1, -2), -5),  # collinear
        ((0, 0), [(-1, -2), (1, 2)], 1, (-1, -2), 0),  # a tie
        ((1, 1), square + [(2, -1), (-1, 2), (2, 2)], 3, (-11, -3), -14),
    ]:
        res = depth(q, ps)
        assert (res.depth, res.witness.normal, res.witness.offset) == \
            (value, vec(normal), offset)
        assert res.verify(vec(q), [vec(p) for p in ps])


def test_depth_4d_pinned_witnesses():
    # the same rule in Z^4: the lexicographically smallest primitive normal
    # among the wall recursion's minimizers, pinned from that recursion
    cross = [tuple(s if i == j else 0 for j in range(4))
             for i in range(4) for s in (1, -1)]
    flat3 = [(0, 0, 0, 0), (3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0),
             (1, 1, 1, 0), (2, -1, 1, 0)]
    for q, ps, value, normal, offset in [
        ((0, 0, 0, 0), cross, 4, (-1, -1, -1, -1), 0),  # the axis cross
        ((1, 1, 1, 0), flat3, 2, (-109, -52, 204, 0), 43),  # in a 3-flat
        ((0, 0, 0, 0), [(-1, -1, -1, -1), (1, 1, 1, 1), (2, 2, 2, 2)], 1,
         (-1, -1, -1, -1), 0),  # collinear
        ((0, 0, 0, 0), [(-1, 2, 0, 1), (1, -2, 0, -1)], 1, (-1, 2, 0, 1), 0),  # a tie
        ((0, 0, 0, 0), cross + [(1, 1, 1, 1), (-2, 1, 0, 1)], 4,
         (-1303, -2461, 3903, -151), 0),
    ]:
        res = depth(q, ps)
        assert (res.depth, res.witness.normal, res.witness.offset) == \
            (value, vec(normal), offset)
        assert res.verify(vec(q), [vec(p) for p in ps])


def test_depth_duplicates_collapse():
    pts = [(0, 0), (0, 0), (4, 0), (0, 4)]
    res = depth((1, 1), pts)
    assert res.depth == depth((1, 1), [(0, 0), (4, 0), (0, 4)]).depth
