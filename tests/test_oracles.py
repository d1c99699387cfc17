from dataclasses import replace
from fractions import Fraction

import pytest

from discrete_tverberg.discrete_sets import (
    LatticeBasis,
    PolytopeV,
    box_polytope,
    difference_set,
    lattice_set,
    mixed_set,
)
from discrete_tverberg.errors import CapExceededError
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
    result, inst = engine_result()
    bad = replace(result, parts=((0, 1), (2,)))
    check = verify_partition(bad, inst)
    assert not check and check.reason == "witness_outside_part_hull"


def test_verify_partition_rejects_empty_part():
    result, inst = engine_result()
    bad = replace(result, parts=((), (0, 1, 2)))
    check = verify_partition(bad, inst)
    assert not check and check.reason == "empty_part"


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
