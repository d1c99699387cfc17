"""End-to-end acceptance gate: eleven release criteria, one test each.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per criterion.  Everything here is seeded and deterministic.
"""
from fractions import Fraction

from discrete_tverberg import jsonio
from discrete_tverberg.discrete_sets import (
    LatticeBasis,
    difference_set,
    helly_upper_bound,
    hollow_search,
    is_k_hoffman,
    is_k_hollow,
    lattice_set,
    tverberg_upper_bound,
)
from discrete_tverberg.exact_geometry import depth, membership
from discrete_tverberg.harness import ExperimentConfig, SplitMix64, run_experiment
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

import itertools

Z1 = lattice_set(1)
Z2 = lattice_set(2)
Z3 = lattice_set(3)
ODD = difference_set(1, (LatticeBasis(((2,),), dim=1),))


def test_criterion_1_lattice_tverberg_500_instances():
    # 25 points meet the m=3, k=1 bound over Z^2, so every trial must
    # succeed, verify, and stay within the depth accounting.
    config = ExperimentConfig(
        spec=Z2, m=3, k=1, n_points=25, box_bound=20, trials=500, seed=11
    )
    assert tverberg_upper_bound(Z2, 3, 1, "paper") == 25
    report = run_experiment(config)
    assert report.summary["trials"] == 500
    assert report.summary["successes"] == 500
    assert report.summary["theorem_violations"] == 0
    assert report.summary["verify_failures"] == 0
    assert all(r.status == "ok" for r in report.records)


def test_criterion_2_double_witness_partitions_100_instances():
    # k=2 over Z^2: 26 points guarantee two common lattice witnesses.
    config = ExperimentConfig(
        spec=Z2, m=2, k=2, n_points=26, box_bound=15, trials=100, seed=23
    )
    assert tverberg_upper_bound(Z2, 2, 2, "paper") == 26
    report = run_experiment(config)
    assert report.summary["successes"] == 100
    assert report.summary["theorem_violations"] == 0
    assert report.summary["verify_failures"] == 0
    assert all(r.witness_count >= 2 for r in report.records)


def test_criterion_3_radon_oracle_cross_validation():
    # best-mode bound (m-1)*d*2^d+1 = 9 for m=2 over Z^2; the brute
    # oracle re-derives every verdict independently.
    assert tverberg_upper_bound(Z2, 2, 1, "best") == 9
    config = ExperimentConfig(
        spec=Z2, m=2, k=1, n_points=9, box_bound=8, trials=200, seed=37,
        oracle_validate=True, bound_mode="best",
    )
    report = run_experiment(config)
    assert report.summary["successes"] == 200
    assert report.summary["oracle"]["agreements"] == 200
    assert report.summary["oracle"]["disagreements"] == 0


def test_criterion_4_unit_square_admits_no_partition():
    # 4 = 2^d * (m-1) points can sit in convex position with hulls
    # meeting in no lattice point, so both engine and oracle must say no.
    pts = (vec((0, 0)), vec((0, 1)), vec((1, 0)), vec((1, 1)))
    inst = Instance(Z2, pts, 2, 1)
    assert not brute_tverberg(pts, Z2, 2, 1).found
    assert tverberg_partition(inst).status == "no_partition_found"


def test_criterion_5_depth_engine_matches_brute_force():
    rng = SplitMix64(0x5EED)
    checked = 0
    while checked < 1000:
        d = 1 + rng.below(3)
        n = 1 + rng.below(12)
        span = 13 if d == 1 else 9  # d=1 needs 12 distinct values
        lo = -(span // 2)
        pts = set()
        while len(pts) < n:
            pts.add(tuple(lo + rng.below(span) for _ in range(d)))
        q = tuple(lo + rng.below(span) for _ in range(d))
        pts = sorted(pts)
        caps = OracleCaps(depth_points=14, depth_dim=4)
        assert depth(q, pts).depth == brute_depth(q, pts, caps=caps)
        checked += 1
    assert checked == 1000


def test_criterion_6_hollow_search_matches_hoffman_maximum():
    even2 = lattice_set(2, LatticeBasis(((2, 0), (0, 2))))
    cases = [
        (Z2, ((0, 1), (0, 1)), 1, 4),
        (Z2, ((0, 2), (0, 2)), 1, 4),
        (Z1, ((0, 1),), 1, 2),
        (Z3, ((0, 1), (0, 1), (0, 1)), 1, 8),
        (even2, ((0, 2), (0, 2)), 1, 4),
        (ODD, ((0, 8),), 1, 2),
        (ODD, ((0, 8),), 2, 3),
        (Z1, ((0, 3),), 2, 3),
    ]
    for spec, box, k, expected in cases:
        found = hollow_search(spec, box, k, mode="exhaustive")
        assert len(found.points) == expected
        assert brute_hoffman_max(spec, box, k) == expected
        assert is_k_hollow(found.points, spec, k)
    # every hollow subset of [0,2]^2 is Hoffman, both k values
    ground = [(x, y) for x in range(3) for y in range(3)]
    for k in (1, 2):
        for size in (2, 3, 4):
            for subset in itertools.combinations(ground, size):
                if is_k_hollow(subset, Z2, k):
                    assert is_k_hoffman(subset, Z2, k)


def test_criterion_7_odd_integer_hollow_bounds():
    assert helly_upper_bound(ODD, 1, "paper") == 5
    assert helly_upper_bound(ODD, 2, "paper") == 9
    box = ((-8, 8),)
    max1 = brute_hoffman_max(ODD, box, 1)
    assert max1 == 2
    assert max1 <= helly_upper_bound(ODD, 1, "paper")
    max2 = brute_hoffman_max(ODD, box, 2)
    assert max2 == 3
    assert max2 <= helly_upper_bound(ODD, 2, "paper")


def test_criterion_8_helly_number_bracketed_by_subfamily_checks():
    # leave-one-out hulls of the unit square: every 3 of them share a
    # lattice point, all 4 together do not, pinning the Helly number
    # strictly above 3; at h=4 the lone subfamily already fails the
    # hypothesis, so no violation is possible, matching H = 2^2 = 4.
    square = [(0, 0), (0, 1), (1, 0), (1, 1)]
    family = hoffman_family(square)
    at3 = brute_helly_check(family, Z2, k=1, h=3)
    assert at3.hypothesis_holds and not at3.conclusion_holds
    assert at3.violating_subfamily is None
    at4 = brute_helly_check(family, Z2, k=1, h=4)
    assert not at4.hypothesis_holds and not at4.conclusion_holds
    assert at4.violating_subfamily == (0, 1, 2, 3)
    assert helly_upper_bound(Z2, 1, "best") == 4


def test_criterion_9_randomized_invariant_corpus():
    rng = SplitMix64(0xC0FFEE)

    # certificate soundness: membership verdicts verify on 200 cases
    for _ in range(200):
        d = 1 + rng.below(3)
        n = 1 + rng.below(8)
        pts = set()
        while len(pts) < n:
            pts.add(tuple(rng.below(9) - 4 for _ in range(d)))
        pts = sorted(pts)
        q = tuple(rng.below(9) - 4 for _ in range(d))
        cert = membership(q, pts)
        assert cert.verify(vec(q), [vec(p) for p in pts])

    # depth monotonicity: removing one point lowers depth by at most one
    for _ in range(100):
        d = 1 + rng.below(2)
        n = 2 + rng.below(8)
        span = 13 if d == 1 else 9
        pts = set()
        while len(pts) < n:
            pts.add(tuple(rng.below(span) - span // 2 for _ in range(d)))
        pts = sorted(pts)
        q = tuple(rng.below(span) - span // 2 for _ in range(d))
        base = depth(q, pts).depth
        drop = rng.below(len(pts))
        kept = pts[:drop] + pts[drop + 1:]
        assert depth(q, kept).depth >= base - 1

    # determinism and partition soundness on 20 seeded instances
    for trial in range(20):
        pts = set()
        while len(pts) < 9:
            pts.add((rng.below(17) - 8, rng.below(17) - 8))
        inst = Instance(Z2, tuple(vec(p) for p in sorted(pts)), 2, 1)
        first = tverberg_partition(inst)
        second = tverberg_partition(inst)
        a = jsonio.dumps(jsonio.outcome_to_json(first, inst))
        b = jsonio.dumps(jsonio.outcome_to_json(second, inst))
        assert a == b
        if first.status == "ok":
            assert verify_partition(first.result, inst)
        else:
            assert not brute_tverberg(inst.points, Z2, 2, 1).found


def test_criterion_10_z3_paper_bound():
    # 43 points meet the paper's m=2, k=1 bound over Z^3, so every trial
    # must succeed and verify.
    config = ExperimentConfig(
        spec=Z3, m=2, k=1, n_points=43, box_bound=3, trials=20, seed=43
    )
    assert tverberg_upper_bound(Z3, 2, 1, "paper") == 43
    report = run_experiment(config)
    assert report.summary["successes"] == 20
    assert report.summary["theorem_violations"] == 0
    assert report.summary["verify_failures"] == 0


def test_criterion_11_z3_double_witness_paper_bound():
    # 86 points meet the paper's m=2, k=2 bound over Z^3: two common
    # lattice witnesses in every trial, each at depth at least 7.
    config = ExperimentConfig(
        spec=Z3, m=2, k=2, n_points=86, box_bound=4, trials=3, seed=5
    )
    assert tverberg_upper_bound(Z3, 2, 2, "paper") == 86
    report = run_experiment(config)
    assert report.summary["successes"] == 3
    assert report.summary["theorem_violations"] == 0
    assert report.summary["verify_failures"] == 0
    assert report.summary["construction_errors"] == 0
    assert all(r.witness_count >= 2 for r in report.records)
    assert all(r.min_witness_depth >= 7 for r in report.records)
