import hashlib
import tracemalloc
from pathlib import Path
from dataclasses import replace
from fractions import Fraction

import pytest

from discrete_tverberg import discrete_sets, exact_geometry, jsonio, oracles, tverberg
from discrete_tverberg.discrete_sets import LatticeBasis, difference_set, lattice_set
from discrete_tverberg.errors import PartitionConstructionError
from discrete_tverberg.exact_geometry import depth, membership
from discrete_tverberg.harness import (
    ExperimentConfig,
    generate_instance,
    run_trial,
    sample_pool,
)
from discrete_tverberg.oracles import verify_partition
from discrete_tverberg.tverberg import (
    DeepWitness,
    Instance,
    WitnessSearch,
    extract_part,
    find_deep_witnesses,
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


EVEN = lattice_set(2, ((2, 0), (0, 2)))


@pytest.mark.parametrize("points, spec, message", [
    pytest.param(((1, 1), (1, 1)), EVEN, "input points must be pairwise distinct",
                 id="duplicates-not-in-S"),
    pytest.param(((0, 0), (0, 0), (1, 2, 3)), EVEN,
                 "input points must be pairwise distinct", id="duplicates-and-dimension"),
    pytest.param(((1, 2, 3), (0, 0), (0, 0)), EVEN,
                 "input points must be pairwise distinct", id="dimension-then-duplicates"),
    pytest.param(((0, 0), (2, 0, 0)), EVEN, "point dimension does not match the lattice",
                 id="wrong-dimension"),
    pytest.param(((0, 0), (1, 0), (2, 2)), EVEN,
                 "point (Fraction(1, 1), Fraction(0, 1)) is not in the ground set",
                 id="non-member"),
])
def test_instance_errors_keep_their_order_and_messages(points, spec, message):
    # distinctness is decided on the integer rows of the one lattice map, but
    # a bad instance raises what it did when the Fraction points were
    # hashed first: duplicates before another dimension or a non-member
    with pytest.raises(ValueError) as info:
        Instance(spec, points, 2, 1)
    assert type(info.value) is ValueError
    assert str(info.value) == message


def test_instance_needs_a_point():
    # an empty instance used to reach the search and fail there, with the
    # polytope's "needs at least one vertex"
    with pytest.raises(ValueError, match="an instance needs at least one point"):
        Instance(lattice_set(2), (), 2, 1)



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


@pytest.mark.parametrize("spec, m, n_points, box_bound", [
    pytest.param(Z2, 3, 25, 20, id="z2"),
    pytest.param(lattice_set(3), 2, 15, 2, id="z3"),
])
def test_trial_builds_no_witness_halfspace(monkeypatch, spec, m, n_points, box_bound):
    # no output of a trial reads a chosen witness's halfspace, so a trial
    # builds none; reading one builds it once
    built = []
    real = tverberg.Halfspace
    monkeypatch.setattr(tverberg, "Halfspace",
                        lambda *args: built.append(args) or real(*args))
    cfg = ExperimentConfig(spec=spec, m=m, k=1, n_points=n_points,
                           box_bound=box_bound, trials=1, seed=5)
    assert run_trial(cfg, 0).status == "ok"
    assert built == []
    inst = generate_instance(cfg, 0)
    (w,) = find_deep_witnesses(inst.points, spec, 2, 1).witnesses
    assert w.depth_result is w.depth_result
    assert len(built) == 1


@pytest.mark.parametrize("spec, m, k, n_points, box_bound", [
    pytest.param(Z2, 3, 1, 25, 20, id="z2-m3k1"),
    pytest.param(Z2, 2, 2, 26, 15, id="z2-m2k2"),
    pytest.param(lattice_set(3), 2, 1, 15, 2, id="z3-m2k1"),
])
def test_trial_solves_no_membership(monkeypatch, spec, m, k, n_points, box_bound):
    # a trial's verification checks the engine's certificates; only a
    # result without them is decided by membership, once per (part, witness)
    calls = []
    real = oracles.membership
    monkeypatch.setattr(oracles, "membership",
                        lambda *args: calls.append(args) or real(*args))
    cfg = ExperimentConfig(spec=spec, m=m, k=k, n_points=n_points,
                           box_bound=box_bound, trials=1, seed=5)
    assert run_trial(cfg, 0).status == "ok"
    assert calls == []
    inst = generate_instance(cfg, 0)
    result = tverberg_partition(inst).result
    assert verify_partition(replace(result, certificates=()), inst)
    assert len(calls) == m * k


@pytest.mark.parametrize("spec", [
    pytest.param(Z2, id="z2"),
    pytest.param(lattice_set(2, LatticeBasis(((1, 0), (F(1, 2), 1)))), id="sheared"),
])
def test_depth_result_is_built_on_first_read(spec):
    # the halfspace built on first read is the one depth gives on Z^2 and
    # a minimizing one on a sheared lattice; later reads return it
    cfg = ExperimentConfig(spec=spec, m=2, k=2, n_points=20, box_bound=8,
                           trials=1, seed=3)
    points = generate_instance(cfg, 0).points
    search = find_deep_witnesses(points, spec, 3, 2)
    assert len(search.witnesses) == 2
    for w in search.witnesses:
        first = w.depth_result
        assert first.depth == w.depth
        assert first.verify(w.point, points)
        if spec is Z2:
            assert first == depth(w.point, points)
        assert w.depth_result is first


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


def test_difference_set_hull_counts_removed_points_per_line(monkeypatch):
    # 1001^2 points of Z^2 in the hull, less the 501^2 of 2Z^2: each line's
    # removed points are one arithmetic progression, counted without testing
    # them, so only the points the level walk visits reach the removed test
    calls = []
    real = discrete_sets.DiscreteSetSpec.removes

    def counting(self, z):
        calls.append(z)
        return real(self, z)

    minus = difference_set(2, (LatticeBasis(((2, 0), (0, 2))),))
    inst = Instance(minus, ((1, 1), (1001, 1), (1, 1001), (1001, 1001), (501, 499)),
                    2, 1)
    monkeypatch.setattr(discrete_sets.DiscreteSetSpec, "removes", counting)
    outcome = tverberg_partition(inst)
    assert outcome.witness_search.candidates_scanned == 752_001
    assert len(calls) <= 100


def test_difference_set_hull_is_counted_without_listing_it():
    # 17,253 points of Z^2 minus 2Z^2 in the hull, counted line by line with
    # the spec's removed-point test: a list of them would take about 1.6 MiB,
    # the count takes about 0.02 MiB
    minus = difference_set(2, (LatticeBasis(((2, 0), (0, 2))),))
    inst = Instance(minus, ((1, 0), (151, 0), (0, 151), (151, 151), (75, 74)), 2, 1)
    tracemalloc.start()
    try:
        outcome = tverberg_partition(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.witness_search.candidates_scanned == 17_253
    assert peak < 256 * 1024


# ---------------------------------------------------------------------------
# covers and parts


def test_colorful_cover_subset_case():
    P = pts((0, 0), (1, 0))
    A = pts((-1, -1), (-1, 1), (2, -1), (2, 1))
    cover = extract_part(P, A, 2, 2)
    assert len(cover) <= 4
    for p in P:
        assert membership(p, cover).inside


def test_colorful_cover_single_point():
    cover = extract_part(pts((0, 0)), pts((1, 1), (-1, 1), (0, -2)), 1, 2)
    assert len(cover) <= 3
    assert membership((0, 0), cover).inside


def test_colorful_cover_rejects_outside_witness():
    with pytest.raises(ValueError):
        extract_part(pts((9, 9)), pts((0, 0), (1, 0), (0, 1)), 1, 2)


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
    part = extract_part(P, A, 2, 2)
    assert len(part) <= 4  # k*d, anchored at the witnesses' barycentre
    assert all(membership(p, part).inside for p in P)


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
    # order, and recorded as the kernel's generator answers them
    solved = []

    def recording(kernel):
        def recorder(qs, points, den):
            key = tuple(tuple(F(c, den) for c in p) for p in points)
            for q, res in zip(qs, kernel(qs, points, den)):
                solved.append((tuple(F(c, den) for c in q), key))
                yield res
        return recorder

    for module in (tverberg, exact_geometry):
        monkeypatch.setattr(module, "_convex_weights_each",
                            recording(module._convex_weights_each))
    cfg = ExperimentConfig(spec=spec, m=m, k=k, n_points=n_points,
                           box_bound=box_bound, trials=6, seed=seed)
    for trial in range(cfg.trials):
        solved.clear()
        out = tverberg_partition(generate_instance(cfg, trial))
        assert out.status == "ok"
        assert solved
        assert len(set(solved)) == len(solved)


@pytest.mark.parametrize("m, k, n_points, box_bound, seed", [
    pytest.param(3, 1, 25, 20, 11, id="z2-m3-k1"),
    pytest.param(2, 2, 26, 15, 23, id="z2-m2-k2"),
])
def test_peel_certifies_only_what_it_returns(monkeypatch, m, k, n_points,
                                             box_bound, seed):
    # one certificate check per (part, witness): the remainders before the
    # last are solved, but their combinations are not certificates; the peel
    # checks each on the lattice coordinates it was solved on
    checks = []
    real = tverberg._verify_weights

    def counting(q, points, terms):
        checks.append(q)
        return real(q, points, terms)

    monkeypatch.setattr(tverberg, "_verify_weights", counting)
    cfg = ExperimentConfig(spec=Z2, m=m, k=k, n_points=n_points,
                           box_bound=box_bound, trials=4, seed=seed)
    for trial in range(cfg.trials):
        checks.clear()
        out = tverberg_partition(generate_instance(cfg, trial))
        assert out.status == "ok"
        assert len(checks) == m * k


@pytest.mark.parametrize("k, n_points", [(1, 12), (2, 24)])
def test_peel_on_a_plane_lattice_solves_in_its_rank(monkeypatch, k, n_points):
    # the peel runs on the lattice coordinates z of the plane's points
    # (x, y, y), so every membership problem is 2-d, not 3-d
    calls = []
    kernel = tverberg._convex_weights_each

    def recorder(qs, points, den):
        for q, res in zip(qs, kernel(qs, points, den)):
            calls.append((q, *points))
            yield res

    monkeypatch.setattr(tverberg, "_convex_weights_each", recorder)
    cfg = ExperimentConfig(spec=lattice_set(3, ((1, 0, 0), (0, 1, 1))), m=2, k=k,
                           n_points=n_points, box_bound=3, trials=15, seed=3)
    for trial in range(cfg.trials):
        inst = generate_instance(cfg, trial)
        out = tverberg_partition(inst)
        assert out.status == "ok"
        assert verify_partition(out.result, inst)
    assert calls
    assert all(len(p) == 2 for call in calls for p in call)


@pytest.mark.parametrize("witnesses", [((0, 0),), ((0, 0), (2, 0))])
def test_peel_rejects_a_witness_that_leaves_the_remainder(monkeypatch, witnesses):
    # witnesses too shallow for the peel: the first part takes hull vertices
    # that they need, and the check over the remainder must say so
    inst = Instance(Z2, ((0, 0), (2, 0), (0, 2), (2, 2), (1, 1)), 2, len(witnesses))
    search = WitnessSearch(tuple(DeepWitness(vec(w), 1, None, w) for w in witnesses),
                           False, 0)
    monkeypatch.setattr(tverberg, "find_deep_witnesses", lambda *args, **kwargs: search)
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


@pytest.mark.parametrize("spec, m, k, n_points, seed", [
    pytest.param(Z2, 3, 1, 25, 77, id="z2-m3-k1"),
    pytest.param(lattice_set(2, ((1, 0), (F(1, 2), 1))), 2, 2, 30, 2, id="shear-m2-k2"),
    pytest.param(difference_set(2, (LatticeBasis(((2, 0), (0, 2))),)), 2, 2, 20, 5,
                 id="difference-m2-k2"),
])
def test_partition_maps_the_instance_only_in_the_search(monkeypatch, spec, m, k,
                                                        n_points, seed):
    # the instance's validation maps its points into the lattice frame once
    # and keeps the frame rows for the witness search and the lattice
    # coordinates for the peel, which also takes the witnesses' from their
    # search: that map is the only one a partition needs
    cfg = ExperimentConfig(spec=spec, m=m, k=k, n_points=n_points, box_bound=8,
                           trials=1, seed=seed)
    points = generate_instance(cfg, 0).points
    calls = []
    real = discrete_sets.lattice_box

    def recording(lat, vertices):
        calls.append(list(vertices))
        return real(lat, vertices)

    monkeypatch.setattr(discrete_sets, "lattice_box", recording)
    monkeypatch.setattr(tverberg, "lattice_box", recording, raising=False)
    inst = Instance(spec, points, m, k)
    assert calls == [list(points)]
    out = tverberg_partition(inst)
    assert out.status == "ok"
    assert calls == [list(points)]


# the search's work over the default-seed gate trials of each benchmark
# workload (perfbench/run.py): depth queries, witness thunks called and
# candidates scanned
SEARCH_WORK = {
    "z2_m3k1_n25": (164, 125, 24047),
    "z2_m2k2_n26": (195, 118, 13381),
    "z3_m2k1_n15": (9, 6, 134),
    "z2_radon_oracle": (286, 200, 6214),
}


def test_the_search_does_the_same_work(monkeypatch):
    # every depth query (W, d, floor, count) and every witness its thunk
    # builds, the chosen witnesses' included, over the benchmark's gate
    # trials: a faster search must ask the same queries and get the same
    # answers, so the digest pins them
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import run

    assert set(SEARCH_WORK) == set(run.WORKLOADS)
    record = hashlib.sha256()
    calls = []
    real = tverberg.depth_count

    def recording(W, d, floor=0):
        count, witness = real(W, d, floor)
        record.update(repr(("query", W, d, floor, count)).encode())
        calls.append("query")

        def recorded():
            v = witness()
            record.update(repr(("witness", v)).encode())
            calls.append("thunk")
            return v
        return count, recorded

    monkeypatch.setattr(tverberg, "depth_count", recording)
    for name, expected in SEARCH_WORK.items():
        cfg = run.make_config(name, run.WORKLOADS[name]["seed"], run.WORKLOADS[name]["gate"])
        work = [0, 0, 0]
        for i in range(cfg.trials):
            calls.clear()
            out = tverberg_partition(generate_instance(cfg, i))
            work[0] += calls.count("query")
            work[1] += calls.count("thunk")
            work[2] += out.witness_search.candidates_scanned
            for w in out.witness_search.witnesses:
                record.update(repr(w.depth_result).encode())
        assert (name, tuple(work)) == (name, expected)
    assert record.hexdigest() == (
        "a9f8e25fe1d718899f8142ab227af0db1aa621af47dd99505b5ebb7d422ac4f0")


# lattice_box calls per run_trial, on the benchmark's one sample pool, over
# the default-seed gate trials of each benchmark workload: the instance's
# validation, whose frame rows the witness search reuses, one per witness in
# verify_partition's ambient test, and one per brute_tverberg
LATTICE_BOX_CALLS = {
    "z2_m3k1_n25": 2,
    "z2_m2k2_n26": 3,
    "z3_m2k1_n15": 2,
    "z2_radon_oracle": 3,
}


def test_a_trial_maps_into_the_lattice_frame_as_often(monkeypatch):
    # a count of the frame maps, which a noisy timer cannot see: the search
    # takes the instance's frame rows from its validation, and the peel the
    # witnesses' lattice coordinates from the search, not a map
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import run

    assert set(LATTICE_BOX_CALLS) == set(run.WORKLOADS)
    calls = []
    real = discrete_sets.lattice_box

    def recording(lat, vertices):
        calls.append(len(vertices))
        return real(lat, vertices)

    monkeypatch.setattr(discrete_sets, "lattice_box", recording)
    for name, expected in LATTICE_BOX_CALLS.items():
        cfg = run.make_config(name, run.WORKLOADS[name]["seed"], run.WORKLOADS[name]["gate"])
        pool = sample_pool(cfg)
        counts = set()
        for i in range(cfg.trials):
            calls.clear()
            assert run_trial(cfg, i, pool).status == "ok"
            counts.add(len(calls))
        assert (name, counts) == (name, {expected})


# whether a partition's witness search scans its hull's lines, on the
# default-seed gate trials of each benchmark workload: the 2-d hulls are
# lattice polygons, counted by Pick's theorem and clipped line by line
SCANS_LINES = {
    "z2_m3k1_n25": False,
    "z2_m2k2_n26": False,
    "z3_m2k1_n15": True,
    "z2_radon_oracle": False,
}


def scan_counter(monkeypatch):
    """A list that gets one entry per :func:`discrete_sets._scan_lines` call."""
    calls = []
    real = discrete_sets._scan_lines
    monkeypatch.setattr(discrete_sets, "_scan_lines",
                        lambda *args: calls.append(1) or real(*args))
    return calls


def test_the_search_scans_no_lines_on_the_planar_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import run

    assert set(SCANS_LINES) == set(run.WORKLOADS)
    for name, scans in SCANS_LINES.items():
        cfg = run.make_config(name, run.WORKLOADS[name]["seed"], run.WORKLOADS[name]["gate"])
        instances = [generate_instance(cfg, i) for i in range(cfg.trials)]
        with monkeypatch.context() as mp:
            calls = scan_counter(mp)
            for inst in instances:
                assert tverberg_partition(inst).status == "ok"
        assert (name, len(calls)) == (name, len(instances) if scans else 0)


@pytest.mark.parametrize("spec, scans", [
    pytest.param(Z2, False, id="z2"),
    pytest.param(lattice_set(2, LatticeBasis(((1, 0), (F(1, 2), 1)))), False,
                 id="sheared"),
    pytest.param(lattice_set(3, LatticeBasis(((1, 0, 0), (0, 1, 1)))), False,
                 id="plane-in-z3"),
    pytest.param(lattice_set(3), True, id="z3"),
    pytest.param(difference_set(2, (LatticeBasis(((2, 0), (0, 2))),)), True,
                 id="difference"),
])
def test_the_search_scans_lines_only_off_rank_two_lattices(monkeypatch, spec, scans):
    cfg = ExperimentConfig(spec=spec, m=2, k=1, n_points=12, box_bound=4, trials=3,
                           seed=9)
    instances = [generate_instance(cfg, i) for i in range(cfg.trials)]
    calls = scan_counter(monkeypatch)
    for inst in instances:
        search = find_deep_witnesses(inst.points, spec, 1, 1)
        assert search.candidates_scanned > 0
    assert len(calls) == (len(instances) if scans else 0)


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
