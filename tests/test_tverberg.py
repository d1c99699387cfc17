from fractions import Fraction

import pytest

from discrete_tverberg import exact_geometry, jsonio, tverberg
from discrete_tverberg.discrete_sets import LatticeBasis, difference_set, lattice_set
from discrete_tverberg.errors import PartitionConstructionError
from discrete_tverberg.exact_geometry import depth, membership
from discrete_tverberg.harness import ExperimentConfig, generate_instance
from discrete_tverberg.tverberg import (
    DeepWitness,
    Instance,
    WitnessSearch,
    colorful_cover,
    extract_part,
    find_deep_witnesses,
    radon_partition,
    tverberg_partition,
)
from discrete_tverberg.vectors import vec

F = Fraction
Z1 = lattice_set(1)
Z2 = lattice_set(2)


def pts(*coords):
    return [vec(c) for c in coords]


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance(Z1, ((0,), (0,), (1,)), 2, 1)  # duplicate point
    with pytest.raises(ValueError):
        Instance(Z1, ((0,), (F(1, 2),)), 2, 1)  # off-lattice point
    with pytest.raises(ValueError):
        Instance(Z1, ((0,), (1,)), 0, 1)


# ---------------------------------------------------------------------------
# witness search


def test_find_deep_witnesses_1d():
    search = find_deep_witnesses(pts((0,), (1,), (2,), (3,), (4,)), Z1, 2, 1)
    assert not search.insufficient
    (w,) = search.witnesses
    assert w.point == vec((2,))
    assert w.depth_result.depth == 3


def test_find_deep_witnesses_square_threshold_one():
    square = pts((0, 0), (1, 0), (0, 1), (1, 1))
    search = find_deep_witnesses(square, Z2, 1, 1)
    assert not search.insufficient
    (w,) = search.witnesses
    assert w.point == vec((0, 0))  # all four tie at depth 1, lex first wins
    assert w.depth_result.depth == 1


def test_find_deep_witnesses_ties_break_by_ambient_point():
    # (0,-1) and (0,0) tie at depth 2; in lattice coordinates (1,-1) and
    # (0,0) the order is the other way round
    sheared = lattice_set(2, LatticeBasis(((1, 0), (1, 1))))
    P = pts((-3, 0), (-1, 2), (0, -1), (2, 1), (0, -2), (1, -1))
    assert depth((0, 0), P).depth == depth((0, -1), P).depth == 2
    search = find_deep_witnesses(P, sheared, 2, 1)
    (w,) = search.witnesses
    assert (w.point, w.depth_result.depth) == (vec((0, -1)), 2)
    assert w.depth_result.verify(w.point, P)
    assert search.candidates_scanned == 15


def test_find_deep_witnesses_insufficient():
    square = pts((0, 0), (1, 0), (0, 1), (1, 1))
    search = find_deep_witnesses(square, Z2, 3, 1)
    assert search.insufficient
    assert search.witnesses == ()
    assert search.candidates_scanned == 4


def test_find_deep_witnesses_k2_distinct():
    line = pts(*[(i,) for i in range(7)])
    search = find_deep_witnesses(line, Z1, 2, 2)
    assert not search.insufficient
    w1, w2 = search.witnesses
    assert w1.point != w2.point
    assert w1.depth_result.depth >= w2.depth_result.depth >= 2


@pytest.mark.parametrize("points, spec", [
    pytest.param([(0, 0), (1, 0), (0, 1)], lattice_set(3), id="dimension-mismatch"),
    pytest.param([(0, 0), (1, 0, 0), (0, 1)], Z2, id="mixed-dimension"),
])
def test_find_deep_witnesses_rejects_wrong_dimensions(points, spec):
    with pytest.raises(ValueError):
        find_deep_witnesses(points, spec, 1, 1)


@pytest.mark.parametrize("k", [0, -1])
def test_find_deep_witnesses_below_one_witness_counts_the_hull(k):
    # the search returns early but still counts the hull: 6 points of Z^2,
    # 3 once the difference set removes 2Z^2
    triangle = pts((0, 0), (2, 0), (0, 2))
    assert find_deep_witnesses(triangle, Z2, 1, k) == WitnessSearch((), False, 6)
    minus = difference_set(2, (LatticeBasis(((2, 0), (0, 2))),))
    assert find_deep_witnesses(triangle, minus, 1, k) == WitnessSearch((), False, 3)


def test_coordinate_1000_instance_asks_no_depth(monkeypatch):
    # 1001^2 lattice points in the hull, counted by line lengths; the
    # threshold's level polytope holds none of them, so no depth is asked
    calls = []
    monkeypatch.setattr(tverberg, "depth_count", lambda *args: calls.append(args))
    inst = Instance(Z2, ((0, 0), (1000, 0), (0, 1000), (1000, 1000), (500, 499)), 2, 1)
    outcome = tverberg_partition(inst)
    assert outcome.status == "no_partition_found"
    assert outcome.witness_search.candidates_scanned == 1_002_001
    assert calls == []


# ---------------------------------------------------------------------------
# covers and parts


def test_colorful_cover_subset_case():
    P = pts((0, 0), (1, 0))
    A = pts((-1, -1), (-1, 1), (2, -1), (2, 1))
    cover = colorful_cover(P, A)
    assert len(cover) <= 4
    for p in P:
        assert membership(p, cover).inside


def test_colorful_cover_single_point():
    cover = colorful_cover(pts((0, 0)), pts((1, 1), (-1, 1), (0, -2)))
    assert len(cover) <= 3
    assert membership((0, 0), cover).inside


def test_colorful_cover_rejects_outside_witness():
    with pytest.raises(ValueError):
        colorful_cover(pts((9, 9)), pts((0, 0), (1, 0), (0, 1)))


def test_extract_part_1d():
    part = extract_part(pts((1,)), pts((0,), (2,), (5,)), 1, 1)
    assert sorted(part) == pts((0,), (2,))


def test_extract_part_k1_size_bound():
    part = extract_part(
        pts((0, 0)), pts((1, 1), (-1, 1), (1, -1), (-1, -1)), 1, 2
    )
    assert len(part) <= 3
    assert membership((0, 0), part).inside


def test_extract_part_k2_size_bounds():
    P = pts((0, 0), (1, 0))
    A = pts((-2, -1), (-2, 1), (3, -1), (3, 1), (0, 2), (1, -2))
    part = colorful_cover(P, A)
    assert len(part) <= 4  # n*d, anchored at the centroid
    assert all(membership(p, part).inside for p in P)
    assert extract_part(P, A, 2, 2) == part


# ---------------------------------------------------------------------------
# full partitions


def test_partition_three_collinear():
    inst = Instance(Z1, ((0,), (1,), (2,)), 2, 1)
    out = tverberg_partition(inst)
    assert out.status == "ok"
    assert {frozenset(p) for p in out.result.parts} == {frozenset({1}), frozenset({0, 2})}
    assert out.result.witnesses == (vec((1,)),)


def test_partition_unit_square_has_none():
    inst = Instance(Z2, ((0, 0), (1, 0), (0, 1), (1, 1)), 2, 1)
    out = tverberg_partition(inst)
    assert out.status == "no_partition_found"
    assert out.result is None
    assert out.reason


def test_radon_requires_m_two():
    inst = Instance(Z1, ((0,), (1,), (2,)), 3, 1)
    with pytest.raises(ValueError):
        radon_partition(inst)


def test_radon_delegates():
    inst = Instance(Z1, ((0,), (1,), (2,)), 2, 1)
    assert radon_partition(inst).status == "ok"


def test_partition_deterministic_bytes():
    cfg = ExperimentConfig(spec=Z2, m=3, k=1, n_points=25, box_bound=20,
                           trials=1, seed=2024)
    inst = generate_instance(cfg, 0)
    a = tverberg_partition(inst)
    b = tverberg_partition(inst)
    ja = jsonio.dumps(jsonio.outcome_to_json(a, inst))
    jb = jsonio.dumps(jsonio.outcome_to_json(b, inst))
    assert ja == jb


def test_partition_certificates_and_witness_membership():
    cfg = ExperimentConfig(spec=Z2, m=2, k=2, n_points=26, box_bound=15,
                           trials=1, seed=5)
    inst = generate_instance(cfg, 0)
    out = tverberg_partition(inst)
    assert out.status == "ok"
    result = out.result
    assert len(result.witnesses) == 2
    assert len(set(result.witnesses)) == 2
    for part_idx, part in enumerate(result.parts):
        hull = [inst.points[i] for i in part]
        for w_idx, w in enumerate(result.witnesses):
            assert membership(w, hull).inside
            cert = result.certificates[part_idx][w_idx]
            assert cert.verify(w)
            # certificate support stays within the part
            assert all(p in hull for p, _ in cert.terms)


# the k = 1 cases keep their ids from before k was a parameter, so test
# histories line up
@pytest.mark.parametrize("spec, m, k, n_points, box_bound, seed", [
    pytest.param(Z2, 3, 1, 25, 20, 11, id="spec0-3-25-20-11"),
    pytest.param(lattice_set(3), 2, 1, 15, 2, 5, id="spec1-2-15-2-5"),
    pytest.param(Z2, 2, 2, 26, 15, 23, id="z2-m2-k2-n26"),
    pytest.param(Z2, 3, 2, 40, 12, 3, id="z2-m3-k2-n40"),
    pytest.param(difference_set(2, (LatticeBasis(((2, 0), (0, 2))),)), 2, 2, 20, 9, 7,
                 id="even-removed-m2-k2-n20"),
])
def test_peel_solves_no_membership_twice(monkeypatch, spec, m, k, n_points,
                                         box_bound, seed):
    # every (witness, point tuple) problem reaches the integer kernel at
    # most once inside one tverberg_partition, whether the peel or a public
    # function calls it; problems are keyed in the caller's frame, in point
    # order
    solved = []

    def recording(kernel):
        def recorder(q, points, den):
            solved.append((tuple(F(c, den) for c in q),
                           tuple(tuple(F(c, den) for c in p) for p in points)))
            return kernel(q, points, den)
        return recorder

    for module in (tverberg, exact_geometry):
        monkeypatch.setattr(module, "_convex_weights",
                            recording(module._convex_weights))
    cfg = ExperimentConfig(spec=spec, m=m, k=k, n_points=n_points,
                           box_bound=box_bound, trials=6, seed=seed)
    for trial in range(cfg.trials):
        solved.clear()
        out = tverberg_partition(generate_instance(cfg, trial))
        assert out.status == "ok"
        assert solved
        assert len(set(solved)) == len(solved)


@pytest.mark.parametrize("witnesses", [((0, 0),), ((0, 0), (2, 0))])
def test_peel_rejects_a_witness_that_leaves_the_remainder(monkeypatch, witnesses):
    # witnesses too shallow for the peel: the first part takes hull vertices
    # that they need, and the check over the remainder must say so
    inst = Instance(Z2, ((0, 0), (2, 0), (0, 2), (2, 2), (1, 1)), 2, len(witnesses))
    search = WitnessSearch(tuple(DeepWitness(vec(w), None) for w in witnesses),
                           False, 0)
    monkeypatch.setattr(tverberg, "find_deep_witnesses", lambda *args: search)
    with pytest.raises(PartitionConstructionError, match="outside the hull"):
        tverberg_partition(inst)


def test_partition_depth_accounting():
    # removing a part of size s costs a witness at most s depth
    cfg = ExperimentConfig(spec=Z2, m=3, k=1, n_points=25, box_bound=12,
                           trials=1, seed=77)
    inst = generate_instance(cfg, 0)
    out = tverberg_partition(inst)
    assert out.status == "ok"
    w = out.result.witnesses[0]
    all_pts = list(inst.points)
    d0 = depth(w, all_pts).depth
    removed = 0
    rest = list(all_pts)
    for part in out.result.parts[:-1]:
        part_pts = [inst.points[i] for i in part]
        rest = [p for p in rest if p not in part_pts]
        removed += len(part_pts)
        assert depth(w, rest).depth >= d0 - removed
        assert depth(w, rest).depth >= 1


def test_partition_stats_shape():
    inst = Instance(Z1, ((0,), (1,), (2,)), 2, 1)
    out = tverberg_partition(inst)
    stats = out.result.stats
    assert stats["part_sizes"] == [1, 2]
    assert stats["witness_depths"] == [2]
    assert stats["threshold"] == 2
    assert set(stats) == {"part_sizes", "witness_depths", "candidates_scanned",
                          "threshold", "guarantee_bound"}


def test_engine_runs_without_numpy():
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from discrete_tverberg import Instance, lattice_set, tverberg_partition\n"
        "pts = ((0, 0), (4, 0), (0, 4), (3, 3), (1, 1),\n"
        "       (2, 0), (0, 2), (2, 2), (1, 2))\n"
        "out = tverberg_partition(Instance(lattice_set(2), pts, 2, 1))\n"
        "assert out.status == 'ok'\n"
        "print('numpy' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "False"
