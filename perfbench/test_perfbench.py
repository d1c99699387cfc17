"""Tests of the benchmark itself: span arithmetic, tracer transparency, gate,
calibration.

Run from the repository root with ``python3 -m pytest perfbench``.
"""
import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from discrete_tverberg import harness, linprog  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


def span(name, start, end, parent, trial=0):
    return [name, start, end, parent, trial]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("harness.run_trial", 0.0, 10.0, None),
        span("harness.tverberg_partition", 1.0, 8.0, 0),
        span("tverberg.find_deep_witnesses", 1.5, 4.0, 1),
        span("geom2d.bulk_depth_values", 2.0, 3.5, 2),
        span("tverberg.caratheodory_reduce", 5.0, 6.0, 1),
        span("jsonio.instance_digest", 8.5, 9.0, 0),
    ]
    assert layers.self_times(spans) == [2.5, 3.5, 1.0, 1.5, 1.0, 0.5]


def test_layer_attribution_follows_the_caller():
    spans = [
        span("harness.run_trial", 0.0, 20.0, None),
        span("harness.tverberg_partition", 0.0, 20.0, 0),
        span("tverberg.extract_part", 1.0, 5.0, 1),
        span("tverberg.caratheodory_reduce", 2.0, 4.0, 2),
        span("tverberg.membership", 6.0, 7.0, 1),
        span("tverberg.caratheodory_reduce", 8.0, 11.0, 1),
        span("exact_geometry.solve_feasibility", 9.0, 10.0, 5),
        span("tverberg.depth", 12.0, 13.0, 1, trial=None),  # outside any trial
    ]
    seconds = layers.layer_seconds(spans)
    assert seconds["tverberg.extract_part_s"] == 4.0
    assert seconds["tverberg.remainder_membership_s"] == 1.0
    assert seconds["tverberg.certify_s"] == 2.0
    assert seconds["linprog.solve_s"] == 1.0
    assert seconds["exact_geometry.depth_s"] == 0.0


def test_tracer_leaves_output_byte_identical_and_restores_bindings():
    originals = {(o, a): getattr(o, a) for o, a, _, _ in layers.BINDINGS}
    originals[linprog.ExactSimplex, "_pivot"] = linprog.ExactSimplex._pivot
    for name in ("z2_m2k2_n26", "z2_radon_oracle"):
        config = run.make_config(name, run.WORKLOADS[name]["seed"], 3)
        plain = harness.run_experiment(config)
        tracer = layers.Tracer()
        with tracer:
            traced = harness.run_experiment(config)
        assert traced.csv_text == plain.csv_text
        assert traced.summary == plain.summary
        counts = tracer.deterministic_counts()
        assert counts["harness.run_trial.calls"] == 3
        assert counts["tverberg.candidates_scanned"] > 0
    assert counts["oracles.partitions_checked"] > 0
    for (owner, attr), fn in originals.items():
        assert getattr(owner, attr) is fn


def test_gate_accepts_reference_and_rejects_a_perturbed_record():
    name = "z2_radon_oracle"
    config = run.make_config(name, run.WORKLOADS[name]["seed"], run.WORKLOADS[name]["gate"])
    report = harness.run_experiment(config)
    assert run.gate_problems(name, report.csv_text, report.summary, REFERENCE) == []
    records = list(report.records)
    records[7] = dataclasses.replace(records[7], witness_count=records[7].witness_count + 1)
    perturbed = harness.records_to_csv(records)
    assert run.gate_problems(name, perturbed, report.summary, REFERENCE)
    summary = dict(report.summary, successes=report.summary["successes"] - 1)
    assert run.gate_problems(name, report.csv_text, summary, REFERENCE)


def test_refuted_positive_counts_as_failed():
    ok = harness.TrialRecord(0, "d", "ok", (1, 2), 1, 3, True, 0.0)
    assert not run.is_failed(ok)
    assert run.is_failed(dataclasses.replace(ok, oracle_agreement=False))
    assert run.is_failed(dataclasses.replace(ok, status="verify_failed"))
    assert not run.is_failed(
        dataclasses.replace(ok, status="no_partition_found", oracle_agreement=False))


def test_normalise_divides_by_the_kernel_time_around_each_trial():
    ref = calibrate.REF_S
    # The same work at reference speed between two chunks; then between a
    # chunk at 1x and one at 3x; then 2x slower, with two chunks taken while
    # it ran.
    chunks = [ref, ref, 3 * ref, ref, 3 * ref, 3 * ref, ref]
    windows = [(1, 1), (2, 2), (4, 6)]
    times = calibrate.normalise([0.010, 0.020, 0.020], windows, chunks)
    assert times == pytest.approx([0.010, 0.010, 0.010])
    assert calibrate.kernel() == calibrate.kernel()
