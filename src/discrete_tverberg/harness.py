"""Randomized experiment harness with replayable, seed-stable output.

Randomness comes from splitmix64 only: each trial derives its own stream
from (seed, trial_index), so :func:`run_trial` replays any trial without
running the ones before it, and a caller may split the indices of one
config over processes and get the records :func:`run_experiment` makes
in one loop.  CSV output is byte-deterministic; wall-clock time is kept on
the in-memory records but never in the CSV.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import jsonio
from .discrete_sets import (
    DiscreteSetSpec,
    box_polytope,
    enumerate_in_polytope,
    helly_upper_bound,
    tverberg_upper_bound,
)
from .errors import (
    CapExceededError,
    PartitionConstructionError,
    TheoremViolationError,
)
from .oracles import OracleCaps, brute_tverberg, verify_partition
from .tverberg import Instance, _witness_depth_threshold, tverberg_partition
from .vectors import Vec, require_int

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    z = x & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """The usual splitmix64 stream; python ints stand in for uint64."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return mix64(self.state)

    def below(self, n: int) -> int:
        # rejection sampling keeps the draw unbiased
        if n <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n


def trial_rng(seed: int, trial_index: int) -> SplitMix64:
    return SplitMix64(mix64((seed + (trial_index + 1) * GOLDEN) & MASK64))


@dataclass(frozen=True)
class ExperimentConfig:
    spec: DiscreteSetSpec
    m: int
    k: int
    n_points: int
    box_bound: int
    trials: int
    seed: int
    oracle_validate: bool = False
    bound_mode: str = "best"
    caps: OracleCaps = field(default_factory=OracleCaps)
    box: Optional[tuple] = None  # explicit (lo, hi) pairs; overrides box_bound

    def __post_init__(self):
        for name in ("m", "k", "box_bound", "trials", "n_points"):
            low = self.m if name == "n_points" else 1
            if require_int(getattr(self, name), name) < low:
                raise ValueError(f"{name} must be at least {low}")
        require_int(self.seed, "seed")
        if not isinstance(self.oracle_validate, bool):
            raise ValueError("oracle_validate must be true or false")
        if self.bound_mode not in ("paper", "best"):
            raise ValueError(f"unknown bound mode {self.bound_mode!r}")
        if self.box is not None and len(self.box) != self.spec.dim:
            raise ValueError("box must have one (lo, hi) pair per dimension")


def sample_pool(config: ExperimentConfig) -> list:
    if config.box is not None:
        box = list(config.box)
    else:
        box = [(-config.box_bound, config.box_bound)] * config.spec.dim
    return enumerate_in_polytope(config.spec, box_polytope(box))


def generate_instance(
    config: ExperimentConfig, trial_index: int, pool: Optional[Sequence[Vec]] = None
) -> Instance:
    """Distinct uniform draws from S inside the box, order as drawn."""
    if pool is None:
        pool = sample_pool(config)
    if len(pool) < config.n_points:
        raise ValueError(
            f"box holds only {len(pool)} set points, need {config.n_points}; "
            "increase box_bound"
        )
    rng = trial_rng(config.seed, trial_index)
    chosen: list = []
    seen: set = set()
    while len(chosen) < config.n_points:
        p = pool[rng.below(len(pool))]
        if p not in seen:
            seen.add(p)
            chosen.append(p)
    return Instance(
        spec=config.spec, points=tuple(chosen), m=config.m, k=config.k
    )


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    instance_digest: str
    status: str
    part_sizes: tuple
    witness_count: int
    min_witness_depth: Optional[int]
    oracle_agreement: Optional[bool]
    wall_time_s: float  # never serialized into the CSV


def run_trial(
    config: ExperimentConfig, trial_index: int, pool: Optional[Sequence[Vec]] = None
) -> TrialRecord:
    instance = generate_instance(config, trial_index, pool)
    digest = jsonio.instance_digest(instance)
    t0 = time.perf_counter()
    status = "ok"
    part_sizes: tuple = ()
    witness_count = 0
    min_depth: Optional[int] = None
    try:
        outcome = tverberg_partition(instance)
    except TheoremViolationError:
        status = "theorem_violation"
        outcome = None
    except (PartitionConstructionError, CapExceededError):
        status = "construction_error"
        outcome = None
    if outcome is not None:
        if outcome.status == "ok":
            result = outcome.result
            part_sizes = tuple(len(p) for p in result.parts)
            witness_count = len(result.witnesses)
            depths = result.stats.get("witness_depths", [])
            min_depth = min(depths) if depths else None
            if not verify_partition(result, instance):
                status = "verify_failed"
        else:
            status = outcome.status
    agreement: Optional[bool] = None
    if config.oracle_validate:
        try:
            brute = brute_tverberg(
                instance.points, instance.spec, instance.m, instance.k, config.caps
            )
            agreement = brute.found == (status == "ok")
        except CapExceededError:
            agreement = None
    wall = time.perf_counter() - t0
    return TrialRecord(
        trial_index=trial_index,
        instance_digest=digest,
        status=status,
        part_sizes=part_sizes,
        witness_count=witness_count,
        min_witness_depth=min_depth,
        oracle_agreement=agreement,
        wall_time_s=wall,
    )


CSV_HEADER = (
    "trial_index,instance_digest,status,part_sizes,"
    "witness_count,min_witness_depth,oracle_agreement"
)


def records_to_csv(records: Sequence[TrialRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        agreement = "" if r.oracle_agreement is None else str(r.oracle_agreement).lower()
        lines.append(
            ",".join(
                [
                    str(r.trial_index),
                    r.instance_digest,
                    r.status,
                    "|".join(str(s) for s in r.part_sizes),
                    str(r.witness_count),
                    "" if r.min_witness_depth is None else str(r.min_witness_depth),
                    agreement,
                ]
            )
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExperimentReport:
    records: tuple
    summary: dict
    csv_text: str


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    pool = sample_pool(config)
    records = [run_trial(config, i, pool) for i in range(config.trials)]

    ok = [r for r in records if r.status == "ok"]
    depths = [r.min_witness_depth for r in ok if r.min_witness_depth is not None]
    counted = {
        "no_partition_found": 0,
        "theorem_violation": 0,
        "verify_failed": 0,
        "construction_error": 0,
    }
    for r in records:
        if r.status in counted:
            counted[r.status] += 1
    d = config.spec.dim
    summary = {
        "trials": config.trials,
        "successes": len(ok),
        "success_rate": jsonio.format_scalar(Fraction(len(ok), config.trials)),
        "no_partition_found": counted["no_partition_found"],
        "theorem_violations": counted["theorem_violation"],
        "verify_failures": counted["verify_failed"],
        "construction_errors": counted["construction_error"],
        "witness_depth_threshold": _witness_depth_threshold(config.m, config.k, d),
        "min_witness_depth": min(depths) if depths else None,
        "mean_witness_depth": (
            jsonio.format_scalar(Fraction(sum(depths), len(depths)))
            if depths
            else None
        ),
        "bounds": {
            "mode": config.bound_mode,
            "helly_upper_bound": helly_upper_bound(
                config.spec, config.k, config.bound_mode
            ),
            "tverberg_upper_bound": tverberg_upper_bound(
                config.spec, config.m, config.k, config.bound_mode
            ),
        },
    }
    if config.oracle_validate:
        validated = [r for r in records if r.oracle_agreement is not None]
        summary["oracle"] = {
            "validated": len(validated),
            "agreements": sum(1 for r in validated if r.oracle_agreement),
            "disagreements": sum(1 for r in validated if not r.oracle_agreement),
        }
    return ExperimentReport(tuple(records), summary, records_to_csv(records))
