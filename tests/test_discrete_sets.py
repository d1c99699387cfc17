import ast
from dataclasses import replace
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from discrete_tverberg import discrete_sets
from discrete_tverberg.discrete_sets import (
    DiscreteSetSpec,
    HollowCertificate,
    LatticeBasis,
    PolytopeV,
    _points_on_lines,
    box_polytope,
    count_nonvertex,
    difference_set,
    eckhoff_lower_bound,
    enumerate_in_polytope,
    helly_upper_bound,
    hollow_search,
    is_k_hoffman,
    is_k_hollow,
    lattice_box,
    lattice_coords,
    lattice_lines_in_polytope,
    lattice_set,
    mixed_set,
    tverberg_upper_bound,
)
from discrete_tverberg.errors import CapExceededError
from discrete_tverberg.exact_geometry import _echelon
from discrete_tverberg.vectors import common_denominator, int_scaled, vdot, vec

F = Fraction

Z1 = lattice_set(1)
Z2 = lattice_set(2)
Z3 = lattice_set(3)
ODD = difference_set(1, (LatticeBasis(((2,),), dim=1),))
EVEN2 = lattice_set(2, LatticeBasis(((2, 0), (0, 2))))


def pts(*coords):
    return [vec(c) for c in coords]


def frame_coords(basis, x):
    """T x as Fractions, by the public :func:`lattice_box`: ``(z, 0)`` for
    ``x = B z``.  The first ``rank`` entries are the lattice coordinates of
    x's projection onto the span; the others are all 0 exactly on the span."""
    [t], den = lattice_box(basis, [vec(x)])
    return tuple(F(c, den) for c in t)


def in_set(spec, x):
    """x in S by its ambient definition: in the base lattice and in no
    removed sublattice."""
    return spec.base.contains(x) and not any(sub.contains(x) for sub in spec.sublattices)


def rank(vectors):
    """Rank over the rationals of int or Fraction vectors."""
    return len(_echelon(int_scaled(list(vectors))[0])[0])


def maps(spec, x):
    """Whether :func:`lattice_coords` maps x (x in S) rather than raising."""
    try:
        lattice_coords(spec, [x])
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# membership in the set


def test_set_contains_plain_lattice():
    assert maps(Z2, (3, -7))
    assert not maps(Z2, (F(1, 2), 0))


def test_set_contains_difference():
    assert not maps(ODD, (4,))
    assert maps(ODD, (5,))


def test_set_contains_scaled_basis():
    assert not maps(EVEN2, (1, 1))
    assert maps(EVEN2, (4, -2))


def test_set_contains_rejects_mixed():
    with pytest.raises(ValueError):
        lattice_coords(mixed_set(1, 1), [(0, 0)])


def test_spec_validation():
    with pytest.raises(ValueError):
        difference_set(1, ())  # difference needs sublattices
    with pytest.raises(ValueError):
        # sublattice points must lie in the parent lattice
        difference_set(1, (LatticeBasis(((F(1, 2),),), dim=1),))


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_triangle():
    tri = PolytopeV((vec((0, 0)), vec((2, 0)), vec((0, 2))))
    got = enumerate_in_polytope(Z2, tri)
    assert got == pts((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))


def test_enumerate_odd_interval():
    got = enumerate_in_polytope(ODD, box_polytope([(0, 6)]))
    assert got == pts((1,), (3,), (5,))


def test_box_polytope_refuses_float_bounds():
    with pytest.raises(TypeError):
        box_polytope([(0.1, 2)])
    with pytest.raises(TypeError):
        box_polytope([(0, 1), (-1, 2.0)])
    assert list(box_polytope([("1/2", 1)]).vertices) == pts((F(1, 2),), (1,))


def test_enumerate_single_vertex():
    got = enumerate_in_polytope(Z2, PolytopeV((vec((5, 5)),)))
    assert got == pts((5, 5))


def test_enumerate_empty_interior():
    # open middle of a unit cell holds no lattice point
    tri = PolytopeV((vec((F(1, 4), F(1, 4))), vec((F(3, 4), F(1, 4))),
                     vec((F(1, 2), F(3, 4)))))
    assert enumerate_in_polytope(Z2, tri) == []


def test_enumerate_respects_cap():
    with pytest.raises(CapExceededError):
        enumerate_in_polytope(Z2, box_polytope([(0, 100), (0, 100)]), cap=100)


def test_enumerate_scaled_lattice():
    got = enumerate_in_polytope(EVEN2, box_polytope([(0, 4), (0, 2)]))
    assert got == pts((0, 0), (0, 2), (2, 0), (2, 2), (4, 0), (4, 2))


def test_enumerate_matches_per_point_check():
    import itertools
    from math import ceil, floor

    from discrete_tverberg.exact_geometry import membership

    sheared = lattice_set(2, LatticeBasis(((1, 0), (F(1, 2), 1))))
    line = lattice_set(2, LatticeBasis(((1, 2),), dim=2))
    sheared3 = lattice_set(3, LatticeBasis(((1, 0, 0), (F(1, 2), 1, 0), (0, F(1, 3), 1))))
    diff3 = difference_set(3, (LatticeBasis(((2, 0, 0), (0, 2, 0), (0, 0, 2))),))
    plane3 = lattice_set(3, LatticeBasis(((1, 0, 0), (0, 1, 1)), dim=3))
    # removed sublattices of lower rank, and one inside a sheared base
    diff_line = difference_set(2, (LatticeBasis(((1, 1),), dim=2),
                                   LatticeBasis(((3, 0), (0, 2)))))
    diff_sheared = difference_set(2, (LatticeBasis(((2, 0), (1, 2))),),
                                  LatticeBasis(((1, 0), (F(1, 2), 1))))
    diff3_low = difference_set(3, (LatticeBasis(((2, 0, 0), (0, 1, 1)), dim=3),
                                   LatticeBasis(((1, 1, 1),), dim=3)))
    # a base whose reduction swaps rows and ends on a negative determinant
    diff_swapped = difference_set(2, (LatticeBasis(((0, 2), (-1, F(1, 2)))),),
                                  LatticeBasis(((0, 1), (-1, F(1, 2)))))
    cases = [
        (Z2, pts((-1, -1), (3, 0), (0, 3))),
        # boxes of more than 256 lattice points
        (Z2, pts((-10, -7), (9, -10), (12, 8), (-3, 11), (-11, 2), (0, 0))),
        (sheared, pts((-9, -8), (11, -6), (4, 10), (-7, 9))),
        (sheared, pts((-3, -2), (4, -1), (1, 3), (F(1, 3), F(5, 2)))),
        # rational vertices, one pair on a vertical edge at x = 1/2
        (Z2, pts((F(1, 2), F(1, 3)), (F(17, 3), F(-5, 2)), (F(-7, 2), F(9, 4)))),
        (Z2, pts((F(1, 2), 0), (F(1, 2), 3), (4, 1))),
        # segments and single points
        (Z2, pts((2, -3), (2, 5))),
        (Z2, pts((-3, -1), (5, 3))),
        (Z2, pts((F(-5, 2), F(-5, 4)), (F(7, 2), F(7, 4)))),
        (Z2, pts((5, 5))),
        (Z2, pts((F(1, 2), 0))),
        # a rank-1 lattice in Z^2, under a full triangle and along its line
        (line, pts((-3, -4), (4, 5), (0, 6))),
        (line, pts((-2, -4), (3, 6))),
        (EVEN2, pts((-5, -3), (6, -1), (2, 7))),
        # Z^3: tetrahedra and boxes
        (Z3, pts((0, 0, 0), (4, 0, 0), (0, 5, 0), (0, 0, 6))),
        (Z3, pts((-3, -2, -1), (4, -1, 2), (1, 5, -3), (0, 1, 5))),
        (Z3, list(box_polytope([(-2, 3), (-1, 2), (0, 4)]).vertices)),
        # a cube with points on its faces, edges and inside: each square
        # facet is found from several triples
        (Z3, list(box_polytope([(0, 3)] * 3).vertices)
         + pts((1, 1, 0), (3, 2, 2), (0, 0, 2), (1, 2, 1))),
        # a triangular prism: its vertical facets empty whole lines
        (Z3, pts((0, 0, -1), (5, 1, -1), (1, 4, -1), (0, 0, 2), (5, 1, 2), (1, 4, 2))),
        # rational vertices
        (Z3, pts((F(1, 2), F(1, 3), 0), (F(17, 3), -1, F(5, 2)),
                 (F(-7, 2), F(9, 4), 1), (0, F(1, 2), F(-11, 3)))),
        (sheared3, pts((-2, -1, 0), (3, 0, -1), (0, 3, 1), (1, 1, 3), (F(1, 2), 0, -2))),
        (sheared3, pts((0, 0, 0), (2, 0, 0), (1, 2, 0), (1, 1, F(5, 2)))),
        (diff3, pts((-2, -2, -1), (3, -1, 0), (0, 3, -2), (1, 0, 3))),
        (diff_line, pts((-5, -4), (6, -3), (1, 7))),
        (diff_sheared, pts((-6, -5), (7, -4), (2, 6))),
        (diff3_low, pts((-3, -3, -2), (4, -1, -1), (0, 4, 3), (1, 1, 4))),
        (diff_swapped, pts((-5, -4), (6, -3), (1, 7))),
        # lower-dimensional hulls in Z^3 take per-point membership
        (Z3, pts((0, 0, 0), (3, 0, 0), (0, 3, 0), (1, 1, 0))),
        (Z3, pts((0, 0, 0), (2, 1, 1), (1, 2, 3), (3, 3, 4))),
        (Z3, pts((-1, -2, -3), (1, 2, 3), (0, 0, 0))),
        (Z3, pts((F(1, 2), 0, 0), (F(5, 2), 2, 4))),
        (Z3, pts((1, 2, 3))),
        (Z3, pts((F(1, 2), 0, 0))),
        # a rank-2 lattice in Z^3 under a full tetrahedron
        (plane3, pts((-3, -3, -2), (4, -1, -1), (0, 4, 5), (1, 2, 1), (0, 0, -3))),
    ]
    for spec, verts in cases:
        got = enumerate_in_polytope(spec, PolytopeV(tuple(verts)))
        assert got == sorted(got)
        lines, coords, den = lattice_lines_in_polytope(spec, PolytopeV(tuple(verts)))
        zs = _points_on_lines(spec, lines)
        assert zs == sorted(zs)
        assert sorted(map(spec.base.from_lattice, zs)) == got
        assert [tuple(F(c, den) for c in x) for x in coords] == \
            [frame_coords(spec.base, v) for v in dict.fromkeys(verts)]
        proj = [frame_coords(spec.base, v) for v in verts]
        box = [range(ceil(min(p[j] for p in proj)), floor(max(p[j] for p in proj)) + 1)
               for j in range(spec.rank)]
        expected = [
            x for x in map(spec.base.from_lattice, itertools.product(*box))
            if in_set(spec, x) and membership(x, verts).inside
        ]
        assert got == sorted(expected), (spec, verts)


# ---------------------------------------------------------------------------
# hollow / Hoffman predicates


def test_count_nonvertex_unit_square():
    count, cert = count_nonvertex(Z2, pts((0, 0), (1, 0), (0, 1), (1, 1)))
    assert count == 0
    assert cert.verify(Z2)


def test_hollow_certificate_must_list_every_nonvertex_point():
    square = pts((0, 0), (2, 0), (0, 2), (2, 2))
    empty = HollowCertificate(tuple(square), 1, ())
    assert empty.asserts_hollow
    assert not empty.verify(Z2)
    centre_only = HollowCertificate(tuple(square), 3, tuple(pts((1, 1))))
    assert centre_only.asserts_hollow
    assert not centre_only.verify(Z2)
    count, cert = count_nonvertex(Z2, square)
    assert count == 5 and cert.verify(Z2)


def test_count_nonvertex_triangle():
    count, cert = count_nonvertex(Z2, pts((0, 0), (2, 0), (0, 2)))
    assert count == 3
    assert sorted(cert.nonvertex_points) == pts((0, 1), (1, 0), (1, 1))


def test_count_nonvertex_1d():
    count, _ = count_nonvertex(Z1, pts((0,), (1,), (2,)))
    assert count == 1  # the member 1 is not a vertex of [0,2]


def test_count_nonvertex_requires_subset_of_set():
    with pytest.raises(ValueError):
        count_nonvertex(Z2, pts((0, 0), (F(1, 2), 0)))


def test_is_k_hollow_examples():
    square = pts((0, 0), (1, 0), (0, 1), (1, 1))
    assert is_k_hollow(square, Z2, 1)
    assert not is_k_hollow(pts((0, 0), (2, 0), (0, 2)), Z2, 1)
    assert is_k_hollow(pts((0,), (1,), (2,)), Z1, 2)
    assert not is_k_hollow(pts((0,), (1,), (2,)), Z1, 1)


def test_is_k_hoffman_examples():
    square = pts((0, 0), (1, 0), (0, 1), (1, 1))
    assert is_k_hoffman(square, Z2, 1)
    assert not is_k_hoffman(pts((0,), (1,), (2,), (3,), (4,)), Z1, 1)
    with pytest.raises(ValueError):
        is_k_hoffman(pts((0, 0)), Z2, 1)


def test_is_k_hoffman_caps_the_box_it_scans():
    # the cap bounds the intersection of the leave-one-out hulls' boxes:
    # here the one point (1, 0), where the box of conv(P) holds 33
    tall = pts((0, 0), (2, 0), (1, 10))
    assert is_k_hoffman(tall, Z2, 1, cap=1)
    with pytest.raises(CapExceededError, match="holds 1 candidates, cap is 0"):
        is_k_hoffman(tall, Z2, 1, cap=0)


def test_hollow_implies_hoffman_on_small_ground():
    import itertools
    ground = enumerate_in_polytope(Z1, box_polytope([(0, 3)]))
    for size in range(2, 5):
        for sub in itertools.combinations(ground, size):
            for k in (1, 2):
                if is_k_hollow(sub, Z1, k):
                    assert is_k_hoffman(sub, Z1, k)


# ---------------------------------------------------------------------------
# hollow search


def test_hollow_search_unit_square():
    cert = hollow_search(Z2, [(0, 1), (0, 1)], 1, mode="exhaustive")
    assert len(cert.points) == 4
    assert cert.verify(Z2)


def test_hollow_search_1d_k2():
    cert = hollow_search(Z1, [(0, 3)], 2, mode="exhaustive")
    assert len(cert.points) == 3


def test_hollow_search_odd_k1():
    cert = hollow_search(ODD, [(0, 8)], 1, mode="exhaustive")
    assert len(cert.points) == 2


def test_hollow_search_greedy_is_maximal():
    cert = hollow_search(Z2, [(0, 1), (0, 1)], 1, mode="greedy")
    assert is_k_hollow(cert.points, Z2, 1)
    ground = enumerate_in_polytope(Z2, box_polytope([(0, 1), (0, 1)]))
    for extra in ground:
        if extra in cert.points:
            continue
        assert not is_k_hollow(list(cert.points) + [extra], Z2, 1)


def _greedy_until_stable(spec, box, k):
    """The greedy hollow search as it was: passes over the ground set until
    one adds nothing."""
    ground = enumerate_in_polytope(spec, box_polytope(box))
    chosen, grown = [], True
    while grown:
        grown = False
        for q in ground:
            if q not in chosen and count_nonvertex(spec, chosen + [q])[0] < k:
                chosen = sorted(chosen + [q])
                grown = True
    return count_nonvertex(spec, chosen)[1]


@pytest.mark.parametrize("spec, box", [
    (Z2, [(0, 3), (0, 3)]),
    (lattice_set(2, LatticeBasis(((1, 0), (F(1, 2), 1)))), [(0, 2), (0, 2)]),
    (difference_set(2, (LatticeBasis(((2, 0), (0, 2))),)), [(0, 3), (0, 3)]),
    (Z3, [(0, 1), (0, 1), (0, 2)]),
    (Z1, [(0, 9)]),
], ids=["z2", "sheared", "z2-minus-2z2", "z3", "z1"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_hollow_search_greedy_makes_one_pass(monkeypatch, spec, box, k):
    # a non-vertex of conv(P) stays one in every larger hull, so a point
    # refused once is refused again: a second pass can add nothing
    expected = _greedy_until_stable(spec, box, k)
    calls = []
    counted = discrete_sets.count_nonvertex
    monkeypatch.setattr(discrete_sets, "count_nonvertex",
                        lambda *args, **kw: calls.append(args) or counted(*args, **kw))
    cert = hollow_search(spec, box, k, mode="greedy")
    assert cert == replace(expected, k=k)
    assert len(calls) <= len(enumerate_in_polytope(spec, box_polytope(box))) + 1


def test_hollow_search_cap():
    with pytest.raises(CapExceededError):
        hollow_search(Z2, [(0, 9), (0, 9)], 1, mode="exhaustive")


# ---------------------------------------------------------------------------
# bound formulas


def test_helly_upper_bound_values():
    assert helly_upper_bound(Z2, 1, "paper") == 6
    assert helly_upper_bound(Z3, 1, "best") == 8
    assert helly_upper_bound(ODD, 1, "best") == 5
    assert helly_upper_bound(ODD, 2, "paper") == 9


def test_helly_best_never_exceeds_paper():
    for spec in (Z1, Z2, Z3, ODD):
        for k in (1, 2, 3):
            assert helly_upper_bound(spec, k, "best") <= helly_upper_bound(
                spec, k, "paper"
            )


def test_helly_mixed_variant():
    assert helly_upper_bound(mixed_set(2, 1), 1, "paper") == 8  # (b+1)*2^a
    with pytest.raises(ValueError):
        helly_upper_bound(mixed_set(2, 1), 2, "paper")


def test_tverberg_upper_bound_values():
    assert tverberg_upper_bound(Z2, 3, 1, "paper") == 25
    assert tverberg_upper_bound(Z2, 2, 2, "paper") == 26
    # best mode collapses to (m-1)*d*2^d + k for k=1 full lattices
    for d, spec in ((1, Z1), (2, Z2), (3, Z3)):
        for m in (2, 3, 4):
            assert tverberg_upper_bound(spec, m, 1, "best") == (m - 1) * d * 2**d + 1


def test_eckhoff_lower_bound():
    assert eckhoff_lower_bound(Z2, 2) == 4
    assert eckhoff_lower_bound(Z3, 3) == 16
    with pytest.raises(ValueError):
        eckhoff_lower_bound(ODD, 2)


def test_lattice_basis_roundtrip():
    basis = LatticeBasis(((1, 1), (0, 2)))
    spec = lattice_set(2, basis)
    assert in_set(spec, (1, 3))  # (1,1) + (0,2)
    assert not in_set(spec, (1, 2))
    assert frame_coords(basis, (1, 3)) == (F(1), F(1))
    assert basis.from_lattice((1, 1)) == vec((1, 3))


@pytest.mark.parametrize("method, arg", [
    ("contains", (1, 0, 5)),
    ("from_lattice", (1, 2, 3)),
], ids=["contains", "from_lattice"])
def test_lattice_basis_rejects_wrong_dimension(method, arg):
    # each used to drop the extra coordinate: contains gave True, from_lattice
    # (1, 2)
    with pytest.raises(ValueError):
        getattr(LatticeBasis(((1, 0), (0, 1))), method)(arg)


# identity, sheared, rational-scaled and rank-deficient bases of the tests above
KERNEL_BASES = [
    LatticeBasis.identity(2),
    LatticeBasis.identity(3),
    LatticeBasis(((1, 0), (F(1, 2), 1))),
    LatticeBasis(((1, 0, 0), (F(1, 2), 1, 0), (0, F(1, 3), 1))),
    EVEN2.base,
    LatticeBasis(((F(1, 2),),), dim=1),
    LatticeBasis(((2, 0), (1, 2))),
    LatticeBasis(((1, 2),), dim=2),
    LatticeBasis(((1, 0, 0), (0, 1, 1)), dim=3),
    LatticeBasis(((2, 0, 0), (0, 1, 1)), dim=3),
    # the reduction swaps rows, and ends on a negative determinant
    LatticeBasis(((0, 1), (1, 0))),
    LatticeBasis(((0, 1, 0), (-1, 0, 0), (0, 0, F(3, 2)))),
    LatticeBasis(((0, 2, 1),), dim=3),
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KERNEL_BASES), st.data())
def test_lattice_kernel_matches_forward_map(basis, data):
    # from_lattice does not use the transform T, so it is the reference
    z = data.draw(st.tuples(*[st.integers(-6, 6)] * basis.rank))
    x = basis.from_lattice(z)
    assert frame_coords(basis, x) == z + (0,) * (basis.dim - basis.rank)
    assert basis.contains(x)
    # v . (T x) = (T^t v) . x, T over its denominator
    v = data.draw(st.tuples(*[st.integers(-3, 3)] * basis.dim))
    assert vdot(basis.ambient_normal(v), x) == basis._t_den * sum(map(mul, v, z))
    i = data.draw(st.integers(0, basis.dim - 1))
    shifted = x[:i] + (x[i] + F(1, 2 * common_denominator(basis.vectors)),) + x[i + 1:]
    assert not basis.contains(shifted)
    if basis.rank < basis.dim:
        off = data.draw(st.tuples(*[st.integers(-3, 3)] * basis.dim).filter(
            lambda w: rank(basis.vectors + (w,)) > basis.rank))
        moved = tuple(a + b for a, b in zip(x, off))
        assert any(frame_coords(basis, moved)[basis.rank:])
        assert not basis.contains(moved)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(KERNEL_BASES), st.data())
def test_ambient_normal_of_a_span_normal_lies_in_the_span(basis, data):
    # a frame normal that is 0 past the rank gives the one normal n in
    # span(B) with n . b_j = D v_j, whichever rows the elimination picked
    r = basis.rank
    v = data.draw(st.tuples(*[st.integers(-3, 3)] * r)) + (0,) * (basis.dim - r)
    n = basis.ambient_normal(v)
    assert [vdot(n, b) for b in basis.vectors] == [basis._t_den * c for c in v[:r]]
    assert rank(basis.vectors + (n,)) == r


def test_lattice_box_rejects_wrong_dimension():
    with pytest.raises(ValueError, match="dimension does not match the lattice"):
        lattice_box(LatticeBasis(((1, 0), (0, 1))), [vec((1, 2, 3))])
    with pytest.raises(ValueError, match="dimension does not match the lattice"):
        lattice_box(LatticeBasis(((1, 0), (0, 1))), [vec((0, 0)), vec((1,))])


def test_lattice_frame_is_read_only_in_discrete_sets():
    # the private rows and methods of LatticeBasis (its elimination and its
    # one congruence test) and the spec's removed sublattices in lattice
    # coordinates: every other module goes through their public methods
    private = {name for obj in (Z3.base, ODD, LatticeBasis) for name in vars(obj)
               if name.startswith("_") and not name.startswith("__")}
    package = Path(discrete_sets.__file__).parent
    readers = sorted(
        (path.name, node.attr)
        for path in package.glob("*.py") if path.name != "discrete_sets.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in private
    )
    assert readers == []
    assert {"_den", "_t_rows", "_t_den", "_removed", "_reduce", "_lattice_z"} <= private


def test_polytope_validation():
    with pytest.raises(ValueError):
        PolytopeV(())
    with pytest.raises(ValueError):
        PolytopeV((vec((0, 0)), vec((1,))))
