from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from discrete_tverberg import discrete_sets
from discrete_tverberg.discrete_sets import (
    LatticeBasis,
    PolytopeV,
    box_polytope,
    difference_set,
    is_k_hoffman,
    lattice_set,
    mixed_set,
)
from discrete_tverberg.errors import CapExceededError
from discrete_tverberg.exact_geometry import ConvexCombination
from discrete_tverberg.oracles import (
    OracleCaps,
    brute_depth,
    brute_helly_check,
    brute_hoffman_max,
    brute_tverberg,
    hoffman_family,
    verify_partition,
)
from discrete_tverberg.tverberg import Instance, tverberg_partition
from discrete_tverberg.vectors import vec

F = Fraction
Z1 = lattice_set(1)
Z2 = lattice_set(2)
ODD = difference_set(1, (LatticeBasis(((2,),), dim=1),))

SQUARE = ((0, 0), (1, 0), (0, 1), (1, 1))


def pts(*coords):
    return [vec(c) for c in coords]


@pytest.mark.parametrize("name", ["depth_points", "depth_dim", "partitions",
                                  "hoffman_ground", "helly_family"])
def test_oracle_caps_refuse_a_negative_cap(name):
    with pytest.raises(ValueError, match=f"cap '{name}' must be nonnegative"):
        OracleCaps(**{name: -1})
    assert getattr(OracleCaps(**{name: 0}), name) == 0


# ---------------------------------------------------------------------------
# depth oracle


def test_brute_depth_diamond():
    assert brute_depth((0, 0), [(1, 0), (-1, 0), (0, 1), (0, -1)]) == 2


def test_brute_depth_outside():
    assert brute_depth((5, 5), SQUARE) == 0


def test_brute_depth_1d_median():
    assert brute_depth((2,), [(0,), (1,), (2,), (3,), (4,)]) == 3


def test_brute_depth_caps():
    many = [(i, 0) for i in range(15)]
    with pytest.raises(CapExceededError):
        brute_depth((0, 0), many)
    with pytest.raises(CapExceededError):
        brute_depth((0,) * 5, [(1,) * 5])


def test_brute_depth_rejects_mixed_dimensions():
    # zip used to cut (1, 0, 5) to (1, 0), for a depth of 1
    with pytest.raises(ValueError):
        brute_depth((0, 0), [(1, 0, 5), (-1, 0)])


def test_brute_depth_degenerate_collinear():
    # all points on a line through the query
    assert brute_depth((0, 0), [(1, 1), (2, 2), (-1, -1)]) == 1
    assert brute_depth((0, 0), [(1, 1), (2, 2), (3, 3)]) == 0


# ---------------------------------------------------------------------------
# partition oracle


def test_brute_tverberg_unit_square_none():
    report = brute_tverberg(SQUARE, Z2, 2, 1)
    assert not report.found
    assert report.partitions_checked == 7  # stirling2(4,2)


def test_brute_tverberg_three_collinear():
    report = brute_tverberg(((0,), (1,), (2,)), Z1, 2, 1)
    assert report.found
    assert {frozenset(p) for p in report.parts} == {frozenset({0, 2}), frozenset({1})}
    assert report.witnesses == (vec((1,)),)


def test_brute_tverberg_cap():
    line = tuple((i,) for i in range(26))
    with pytest.raises(CapExceededError):
        brute_tverberg(line, Z1, 2, 1)


def test_brute_tverberg_k2():
    line = tuple((i,) for i in range(6))
    report = brute_tverberg(line, Z1, 2, 2)
    assert report.found
    assert len(report.witnesses) == 2


def test_brute_tverberg_rejects_points_of_another_dimension():
    with pytest.raises(ValueError):
        brute_tverberg(((0, 0), (1, 1), (2, 2)), Z1, 2, 1)


def test_brute_tverberg_m_exceeds_n():
    report = brute_tverberg(((0,), (1,)), Z1, 3, 1)
    assert not report.found
    assert report.partitions_checked == 0


def test_oracles_map_each_point_set_once(monkeypatch):
    # every hull an oracle scans indexes into one lattice map of its points:
    # brute_tverberg's n points serve all its partitions, is_k_hoffman's n
    # points its n leave-one-out hulls, and brute_helly_check's vertices
    # all its subfamilies
    calls = []
    real = discrete_sets.lattice_box

    def recording(lat, vertices):
        calls.append(len(vertices))
        return real(lat, vertices)

    monkeypatch.setattr(discrete_sets, "lattice_box", recording)
    assert brute_tverberg(SQUARE, Z2, 2, 1).partitions_checked == 7
    assert calls == [4]
    calls.clear()
    assert is_k_hoffman(SQUARE, Z2, 1)
    assert calls == [4]
    calls.clear()
    assert brute_helly_check(hoffman_family(pts(*SQUARE)), Z2, 1, 3).subfamilies_checked == 4
    assert calls == [12]


# ---------------------------------------------------------------------------
# verification


def engine_result():
    inst = Instance(Z1, ((0,), (1,), (2,)), 2, 1)
    out = tverberg_partition(inst)
    return out.result, inst


def test_verify_partition_accepts_engine_output():
    result, inst = engine_result()
    check = verify_partition(result, inst)
    assert check and check.reason is None


def test_verify_partition_rejects_off_set_witness():
    result, inst = engine_result()
    bad = replace(result, witnesses=(vec((F(1, 2),)),))
    check = verify_partition(bad, inst)
    assert not check and check.reason == "witness_not_in_set"


def test_verify_partition_rejects_overlap():
    result, inst = engine_result()
    bad = replace(result, parts=((0, 1), (1, 2)))
    check = verify_partition(bad, inst)
    assert not check and check.reason == "parts_overlap"


def test_verify_partition_rejects_uncovered():
    result, inst = engine_result()
    bad = replace(result, parts=((0,), (2,)))
    check = verify_partition(bad, inst)
    assert not check and check.reason == "parts_do_not_cover"


def test_verify_partition_rejects_witness_outside_hull():
    # without certificates the verifier decides each (witness, part) by
    # membership
    result, inst = engine_result()
    bad = replace(result, parts=((0, 1), (2,)), certificates=())
    check = verify_partition(bad, inst)
    assert not check and check.reason == "witness_outside_part_hull"


def test_verify_partition_rejects_stale_certificates():
    # the same parts with the engine's certificates, which no longer fit them
    result, inst = engine_result()
    bad = replace(result, parts=((0, 1), (2,)))
    check = verify_partition(bad, inst)
    assert not check and check.reason == "bad_certificate"


def test_verify_partition_rejects_empty_part():
    result, inst = engine_result()
    bad = replace(result, parts=((), (0, 1, 2)))
    check = verify_partition(bad, inst)
    assert not check and check.reason == "empty_part"


def test_verify_partition_rejects_wrong_part_count():
    result, inst = engine_result()
    bad = replace(result, parts=((0,), (1,), (2,)))
    check = verify_partition(bad, inst)
    assert not check and check.reason == "wrong_part_count"


def test_verify_partition_rejects_too_few_witnesses():
    result, inst = engine_result()
    bad = replace(result, witnesses=())
    check = verify_partition(bad, inst)
    assert not check and check.reason == "too_few_witnesses"


def test_verify_partition_rejects_duplicate_witnesses():
    result, inst = engine_result()
    bad = replace(result, witnesses=result.witnesses * 2)
    check = verify_partition(bad, inst)
    assert not check and check.reason == "duplicate_witnesses"


def readme_result():
    inst = Instance(Z2, ((0, 0), (4, 0), (0, 4), (3, 3), (1, 1),
                         (2, 0), (0, 2), (2, 2), (1, 2)), 2, 1)
    return tverberg_partition(inst).result, inst


def test_verify_partition_rejects_witness_of_wrong_dimension():
    result, inst = readme_result()
    bad = replace(result, witnesses=(vec((1, 1, 1)),))
    check = verify_partition(bad, inst)
    assert not check and check.reason == "witness_not_in_set"


def test_verify_partition_rejects_bool_index():
    result, inst = readme_result()
    assert result.parts == ((4,), (0, 1, 2, 3, 5, 6, 7, 8))
    bad = replace(result, parts=((4, True), (0, 1, 2, 3, 5, 6, 7, 8)))
    check = verify_partition(bad, inst)
    assert not check and check.reason == "bad_index"


def combination(*terms):
    return ConvexCombination(tuple((vec(p), F(c)) for p, c in terms))


# Faults in the README result's certificate of its witness (1, 1) over part
# 1, which the engine writes as 2/3 (0, 0) + 1/3 (3, 3); each changes one
# property, and (0, 0) - 2 (2, 0) + (4, 0) = 0 moves weight without moving
# the point.
PART_1_FAULTS = {
    "support_in_another_part": [((1, 1), 1)],
    "support_off_the_lattice": [(("1/2", "1/2"), "1/2"), (("3/2", "3/2"), "1/2")],
    "support_not_an_input_point": [((1, 0), "1/2"), ((1, 2), "1/2")],
    "repeated_support": [((0, 0), "1/3"), ((0, 0), "1/3"), ((3, 3), "1/3")],
    "zero_weight": [((0, 0), "2/3"), ((3, 3), "1/3"), ((4, 0), 0)],
    "negative_weight": [((0, 0), "11/12"), ((2, 0), "-1/2"), ((4, 0), "1/4"),
                        ((3, 3), "1/3")],
    "weights_sum_below_one": [((2, 2), "1/2")],
    "misses_the_witness": [((0, 0), "1/2"), ((2, 0), "1/2")],
    "no_terms": [],
}


@pytest.mark.parametrize("terms", PART_1_FAULTS.values(), ids=PART_1_FAULTS)
def test_verify_partition_rejects_a_faulty_certificate(terms):
    result, inst = readme_result()
    (first,), (engine,) = result.certificates
    assert engine == combination(((0, 0), "2/3"), ((3, 3), "1/3"))
    assert verify_partition(result, inst)
    bad = replace(result, certificates=((first,), (combination(*terms),)))
    check = verify_partition(bad, inst)
    assert not check and check.reason == "bad_certificate"


@pytest.mark.parametrize("reshape", [
    lambda rows: rows[:1],
    lambda rows: rows + rows[:1],
    lambda rows: (rows[0], ()),
    lambda rows: (rows[0] * 2, rows[1]),
], ids=["one_part", "three_parts", "no_witness", "two_witnesses"])
def test_verify_partition_rejects_a_wrong_number_of_certificates(reshape):
    result, inst = readme_result()
    bad = replace(result, certificates=reshape(result.certificates))
    check = verify_partition(bad, inst)
    assert not check and check.reason == "bad_certificate"


SHEARED = lattice_set(2, LatticeBasis(((1, 0), (F(1, 2), 1))))
Z2_MINUS_2Z2 = difference_set(2, (LatticeBasis(((2, 0), (0, 2))),))


@st.composite
def engine_instance(draw):
    """Distinct points B z of S, z in a small box, for S one of Z^1, Z^2,
    Z^3, a sheared Z^2 and Z^2 minus 2Z^2, with m = 2 and k = 1-2."""
    spec = draw(st.sampled_from([Z1, Z2, lattice_set(3), SHEARED, Z2_MINUS_2Z2]))
    c, size = {1: (st.integers(-9, 9), (5, 12)), 2: (st.integers(-3, 3), (9, 18)),
               3: (st.integers(-1, 1), (14, 27))}[spec.dim]
    point = st.tuples(*[c] * spec.dim).map(spec.base.from_lattice).filter(
        lambda p: not any(s.contains(p) for s in spec.sublattices))
    points = draw(st.lists(point, min_size=size[0], max_size=size[1], unique=True))
    return Instance(spec, points, 2, draw(st.integers(1, 2)))


@settings(max_examples=60, deadline=None)
@given(engine_instance())
def test_certificate_and_membership_paths_accept_every_engine_outcome(inst):
    outcome = tverberg_partition(inst)
    if outcome.status != "ok":
        return
    assert verify_partition(outcome.result, inst)
    assert verify_partition(replace(outcome.result, certificates=()), inst)


# ---------------------------------------------------------------------------
# Hoffman max and Helly


def test_brute_hoffman_max_values():
    assert brute_hoffman_max(Z2, [(0, 1), (0, 1)], 1) == 4
    assert brute_hoffman_max(Z1, [(0, 3)], 2) == 3
    assert brute_hoffman_max(Z1, [(0, 2)], 1) == 2


def test_brute_hoffman_max_cap():
    with pytest.raises(CapExceededError):
        brute_hoffman_max(Z2, [(0, 5), (0, 5)], 1)


def test_brute_hoffman_max_odd_set():
    assert brute_hoffman_max(ODD, [(0, 8)], 1) == 2


def test_helly_leave_one_out_construction():
    family = hoffman_family(pts(*SQUARE))
    assert len(family) == 4
    at3 = brute_helly_check(family, Z2, 1, 3)
    assert at3.hypothesis_holds and not at3.conclusion_holds
    assert at3.subfamilies_checked == 4
    at4 = brute_helly_check(family, Z2, 1, 4)
    assert not at4.hypothesis_holds and not at4.conclusion_holds
    assert at4.violating_subfamily == (0, 1, 2, 3)


def test_helly_identical_members():
    tri = PolytopeV(tuple(pts((0, 0), (2, 0), (0, 2))))
    report = brute_helly_check([tri, tri, tri], Z2, 1, 2)
    assert report.hypothesis_holds and report.conclusion_holds


def test_helly_single_member():
    tri = PolytopeV(tuple(pts((0, 0), (2, 0), (0, 2))))
    report = brute_helly_check([tri], Z2, 1, 1)
    assert report.hypothesis_holds == report.conclusion_holds


def test_helly_h_larger_than_family_is_vacuous():
    tri = PolytopeV(tuple(pts((0, 0), (1, 0), (0, 1))))
    report = brute_helly_check([tri], Z2, 1, 5)
    assert report.hypothesis_holds
    assert report.subfamilies_checked == 0


def test_helly_family_cap():
    tri = PolytopeV(tuple(pts((0, 0), (1, 0), (0, 1))))
    with pytest.raises(CapExceededError):
        brute_helly_check([tri] * 13, Z2, 1, 2)


def test_oracles_refuse_a_mixed_set():
    # a mixed set has no lattice to scan: the oracles used to end in an
    # AttributeError on its missing basis
    mixed = mixed_set(1, 1)
    tri = PolytopeV(tuple(pts((0, 0), (1, 0), (0, 1))))
    with pytest.raises(ValueError, match="only for enumerable sets"):
        brute_tverberg(SQUARE, mixed, 2, 1)
    with pytest.raises(ValueError, match="only for enumerable sets"):
        brute_helly_check([tri, tri], mixed, 1, 1)
    with pytest.raises(ValueError, match="only for enumerable sets"):
        brute_hoffman_max(mixed, [(0, 1), (0, 1)], 1)


def test_hoffman_family_rejects_tiny_input():
    with pytest.raises(ValueError):
        hoffman_family(pts((0, 0)))


def test_hoffman_family_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        hoffman_family(pts((0, 0), (1,)))


def test_helly_rejects_polytopes_of_another_dimension():
    segment = PolytopeV(tuple(pts((0,), (2,))))
    tri = PolytopeV(tuple(pts((0, 0), (2, 0), (0, 2))))
    for family in ([segment, tri], [segment]):
        with pytest.raises(ValueError):
            brute_helly_check(family, Z2, 1, 1)
