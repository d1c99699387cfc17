"""Seeded end-to-end and per-layer benchmark for the Tverberg pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload z2_m3k1_n25 --seed 11 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

One workload per process.  The load is a closed loop with one client:
``harness.run_trial`` calls run one after another on trial indices 0, 1,
2, ... of the given seed until ``--seconds`` have passed and at least the
workload's gate trials are done.  Before timing, the first gate trials of
the workload's default seed run through ``harness.run_experiment`` and the
sha256 of their CSV and their summary must match ``reference.json``; that
pass also warms the process up.  The last line of standard output is one
JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics from
a traced loop with ``--trace 1``.  A mismatch or a failed trial makes the
result incorrect and the exit code 1.

Trial times are CPU seconds of the thread that runs the engine
(``thread_time``), normalised for machine speed by ``calibrate``: a fixed
kernel runs after each trial and every 0.1 CPU seconds, and each trial's
time is scaled by the kernel's reference time over its time around and
during the trial.  So ``trials_per_ref_s`` and ``trial_ref_p50_ms`` are
times at the reference speed.  The traced run is normalised the same way;
its spans include the kernel calls that fall inside them, about 1 % of
their time.  (While the profiling timer is armed, ``process_time`` only
advances at scheduler ticks.)  ``setup_s`` is the median CPU time of fresh
interpreters that import the engine and build its sample pool, each
normalised by a fixed import probe run just before it.  The wall-clock
throughput and median, which move with the host's load, and the measured
machine speed are printed on lines before the result.

``--workload all`` runs every workload on its default seed in fresh
processes, untraced once and traced twice, prints every metric with its
unit, the tracing overhead, and fails unless the gates pass, the traced and
untraced CSV digests agree and the deterministic counts of the two traced
runs are equal.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from discrete_tverberg import harness  # noqa: E402
from discrete_tverberg.discrete_sets import lattice_set  # noqa: E402

import calibrate  # noqa: E402
import layers  # noqa: E402

# Instance parameters are fixed; `seed` is the default seed (the acceptance
# seed where there is one) and `held_out` a seed kept for confirming a claim.
# `gate` is how many trials of a seed the output gate and digest cover.
WORKLOADS = {
    "z2_m3k1_n25": dict(params=dict(dim=2, m=3, k=1, n_points=25, box_bound=20),
                        seed=11, held_out=1011, gate=20),
    "z2_m2k2_n26": dict(params=dict(dim=2, m=2, k=2, n_points=26, box_bound=15),
                        seed=23, held_out=1023, gate=20),
    "z3_m2k1_n15": dict(params=dict(dim=3, m=2, k=1, n_points=15, box_bound=2),
                        seed=5, held_out=1005, gate=3),
    "z2_radon_oracle": dict(params=dict(dim=2, m=2, k=1, n_points=9, box_bound=8,
                                        bound_mode="best", oracle_validate=True),
                            seed=37, held_out=1037, gate=50),
}
SETUP_SAMPLES = 5
FAILED_STATUSES = ("theorem_violation", "verify_failed", "construction_error")

# Times a fresh interpreter's import of the engine plus its sample pool, in
# CPU seconds of that interpreter.
SETUP_PROBE = """
import json, sys, time
t0 = time.process_time()
sys.path.insert(0, sys.argv[1])
from discrete_tverberg import harness
from discrete_tverberg.discrete_sets import lattice_set
params = json.loads(sys.argv[2])
spec = lattice_set(params.pop("dim"))
harness.sample_pool(harness.ExperimentConfig(spec=spec, trials=1, seed=0, **params))
print(repr(time.process_time() - t0))
"""


def make_config(name: str, seed: int, trials: int) -> harness.ExperimentConfig:
    params = dict(WORKLOADS[name]["params"])
    spec = lattice_set(params.pop("dim"))
    return harness.ExperimentConfig(spec=spec, trials=trials, seed=seed, **params)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def is_failed(record) -> bool:
    """Failed status, or a positive verdict the brute oracle refutes."""
    return record.status in FAILED_STATUSES or (
        record.status == "ok" and record.oracle_agreement is False
    )


def gate_problems(name: str, csv_text: str, summary: dict, reference: dict) -> list:
    """Differences between a default-seed gate pass and the stored reference."""
    expected = reference[name]
    problems = []
    if sha256(csv_text) != expected["csv_sha256"]:
        problems.append(f"csv sha256 {sha256(csv_text)} != {expected['csv_sha256']}")
    if summary != expected["summary"]:
        problems.append(f"summary {json.dumps(summary)} != {json.dumps(expected['summary'])}")
    return problems


def run_gate(name: str, reference: dict) -> list:
    w = WORKLOADS[name]
    report = harness.run_experiment(make_config(name, w["seed"], w["gate"]))
    return gate_problems(name, report.csv_text, report.summary, reference)


def probe_seconds(*args: str) -> float:
    done = subprocess.run([sys.executable, "-c", *args],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup(name: str) -> list:
    """Set-up seconds of fresh interpreters, each scaled by IMPORT_REF_S over
    the time of a calibrate.IMPORT_PROBE run just before it."""
    params = json.dumps(WORKLOADS[name]["params"])
    samples = []
    for _ in range(SETUP_SAMPLES):
        reference = probe_seconds(calibrate.IMPORT_PROBE)
        seconds = probe_seconds(SETUP_PROBE, str(SRC), params)
        samples.append(seconds * calibrate.IMPORT_REF_S / reference)
    return samples


def timed_loop(config, seconds: float, min_trials: int, sampler):
    """Closed loop of run_trial calls, with a running calibrate.Sampler.

    The kernel also runs after each trial, and kernel time taken inside a
    trial is not counted as the trial's.  Returns the records, per-trial
    normalised seconds, per-trial wall seconds and elapsed wall seconds.
    """
    chunks = sampler.chunks
    pool = harness.sample_pool(config)
    records, cpu_times, wall_times, windows = [], [], [], []
    start = perf_counter()
    elapsed = 0.0
    while elapsed < seconds or len(records) < min_trials:
        first = len(chunks)
        t0, c0 = perf_counter(), thread_time()
        records.append(harness.run_trial(config, len(records), pool))
        c1, t1 = thread_time(), perf_counter()
        end = len(chunks)
        cpu_times.append(c1 - c0 - sum(chunks[first:end]))
        wall_times.append(t1 - t0)
        windows.append((first, end))
        sampler.sample()
        elapsed = perf_counter() - start
    ref_times = calibrate.normalise(cpu_times, windows, chunks)
    return records, ref_times, wall_times, elapsed


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    reference = json.loads((HERE / "reference.json").read_text())
    w = WORKLOADS[name]
    problems = []
    metrics = {}
    if trace:
        gate_tracer = layers.Tracer()
        with gate_tracer:  # must reproduce the untraced reference bytes
            problems += run_gate(name, reference)
        print("counts: " + json.dumps(gate_tracer.deterministic_counts()))
        tracer = layers.Tracer()
        with tracer, calibrate.Sampler() as sampler:
            records, ref_times, _, elapsed = timed_loop(
                make_config(name, seed, 1), seconds, w["gate"], sampler)
        for metric, (value, unit) in layers.layer_metrics(tracer, len(records)).items():
            metrics[metric] = {"value": value, "unit": unit}
        metrics["trace.trials_per_ref_s"] = {"value": len(ref_times) / sum(ref_times),
                                             "unit": "1/s"}
        spans_path = ROOT / ".bench_build" / "perfbench" / f"spans-{name}-seed{seed}.csv"
        layers.write_spans(tracer.spans, spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        setup = measure_setup(name)
        problems += run_gate(name, reference)
        with calibrate.Sampler() as sampler:
            records, ref_times, wall_times, elapsed = timed_loop(
                make_config(name, seed, 1), seconds, w["gate"], sampler)
        metrics["trials_per_ref_s"] = {"value": len(ref_times) / sum(ref_times), "unit": "1/s"}
        metrics["trial_ref_p50_ms"] = {"value": 1000 * statistics.median(ref_times),
                                       "unit": "ms"}
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": rss_kib / 1024, "unit": "MB"}
        if len(ref_times) >= 100:
            p90 = 1000 * statistics.quantiles(ref_times, n=10)[-1]
            print(f"trial_ref_p90_ms: {p90!r} ms over {len(ref_times)} trials")
        print(f"trials_per_s: {len(records) / elapsed!r} 1/s (wall, kernel calls included)")
        print(f"trial_p50_ms: {1000 * statistics.median(wall_times)!r} ms (wall)")
        speed = calibrate.REF_S / statistics.median(sampler.chunks)
        print(f"machine_speed: {speed!r} (reference kernel time over its median here)")
        print(f"setup samples: {' '.join(f'{s:.4f}' for s in setup)} s")
    statuses = Counter(r.status for r in records)
    failed = sum(1 for r in records if is_failed(r))
    seed_digest = sha256(harness.records_to_csv(records[: w["gate"]]))
    if seed == w["seed"] and seed_digest != reference[name]["csv_sha256"]:
        problems.append(f"first {w['gate']} trials of the default seed hash to {seed_digest}")
    attempted = sum(statuses.values())
    if failed:
        problems.append(f"{failed} of {attempted} trials failed")
    print(f"workload {name} seed {seed}: {attempted} trials in {elapsed:.3f} s, "
          f"statuses {json.dumps(statuses, sort_keys=True)}")
    print(f"failed_share: {failed / attempted!r} ({failed}/{attempted})")
    print(f"seed_digest: {seed_digest} (first {w['gate']} trials)")
    for problem in problems:
        print(f"gate: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(seconds: float) -> int:
    """Every workload on its default seed: report, gates and trace checks."""
    ok = True
    for name, w in WORKLOADS.items():
        runs = []
        for trace in (0, 1, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(w["seed"]), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            fields = dict(line.split(": ", 1) for line in lines[:-1] if ": " in line)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
            runs.append((done.returncode, fields, result))
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
        (code0, plain, result0), (code1, traced, result1), (code2, again, _) = runs
        checks = {
            "gate and failed_share": code0 == code1 == code2 == 0,
            "traced digest == untraced digest": plain.get("seed_digest") == traced.get("seed_digest"),
            "deterministic counts repeat": traced.get("counts") == again.get("counts"),
        }
        print(f"== {name} (seed {w['seed']})")
        for label, passed in checks.items():
            print(f"  check {label}: {'ok' if passed else 'FAILED'}")
            ok = ok and passed
        print(f"  failed_share: {plain.get('failed_share')}")
        for key in ("trial_ref_p90_ms", "trials_per_s", "trial_p50_ms", "machine_speed"):
            if key in plain:
                print(f"  {key}: {plain[key]}")
        for result in (result0, result1):
            for metric, m in (result or {}).get("metrics", {}).items():
                print(f"  {metric:42s} {m['value']:.6g} {m['unit']}")
        if result0 and result1:
            overhead = (result1["metrics"]["trace.trials_per_ref_s"]["value"]
                        - result0["metrics"]["trials_per_ref_s"]["value"])
            print(f"  {'trace.overhead_trials_per_ref_s':42s} {overhead:.6g} 1/s")
        print(f"  counts: {traced.get('counts')}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seconds)
    seed = WORKLOADS[args.workload]["seed"] if args.seed is None else args.seed
    return run_workload(args.workload, seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
