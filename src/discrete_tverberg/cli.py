"""Command line front end.

Machine-readable JSON goes to stdout, human-readable progress to stderr.
Exit status: 0 when a verdict was reached (including "no partition
found"), 1 on usage errors, 2 when a cap was exceeded, a partition could
not be constructed or verification failed.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from . import jsonio
from .discrete_sets import (
    eckhoff_lower_bound,
    helly_upper_bound,
    hollow_search,
    is_k_hoffman,
    is_k_hollow,
    tverberg_upper_bound,
)
from .errors import (
    CapExceededError,
    PartitionConstructionError,
    TheoremViolationError,
)
from .exact_geometry import depth
from .harness import run_experiment
from .oracles import (
    OracleCaps,
    brute_depth,
    brute_helly_check,
    brute_hoffman_max,
    brute_tverberg,
    verify_partition,
)
from .tverberg import tverberg_partition

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this tool reserves 2 for caps
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def _load_points(path: str) -> list:
    """A point list, given bare or as the ``points`` field of an object."""
    raw = _load(path)
    return jsonio.parse_points(raw["points"] if isinstance(raw, dict) else raw)


def _emit(obj) -> None:
    print(jsonio.dumps(obj))


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _caps(args) -> OracleCaps:
    if getattr(args, "caps", None):
        return jsonio.parse_caps(json.loads(args.caps))
    return OracleCaps()


# ---------------------------------------------------------------------------
# commands


def _partition(instance) -> int:
    t0 = time.perf_counter()
    outcome = tverberg_partition(instance)
    elapsed = time.perf_counter() - t0
    if outcome.status == "ok":
        check = verify_partition(outcome.result, instance)
        if not check:
            _emit({"status": "error", "error_type": "VerificationFailure",
                   "message": f"independent re-check failed: {check.reason}"})
            _note(f"verification FAILED: {check.reason}")
            return EXIT_FAILURE
        sizes = [len(p) for p in outcome.result.parts]
        _note(f"partition found: parts {sizes}, "
              f"{len(outcome.result.witnesses)} witness(es), {elapsed:.3f}s")
    else:
        _note(f"no partition found: {outcome.reason} ({elapsed:.3f}s)")
    _emit(jsonio.outcome_to_json(outcome, instance))
    return EXIT_OK


def cmd_tverberg(args) -> int:
    return _partition(jsonio.parse_instance(_load(args.instance)))


def cmd_radon(args) -> int:
    instance = jsonio.parse_instance(_load(args.instance))
    if instance.m != 2:
        raise ValueError("radon requires an instance with m = 2")
    return _partition(instance)


def cmd_depth(args) -> int:
    query = jsonio.parse_point(json.loads(args.point))
    pts = _load_points(args.points)
    result = depth(query, pts)
    _emit(jsonio.depth_result_to_json(result))
    _note(f"depth {result.depth} among {len(pts)} points")
    return EXIT_OK


def cmd_hollow_search(args) -> int:
    spec = jsonio.parse_spec(_load(args.set))
    box = jsonio.parse_box(json.loads(args.box))
    cert = hollow_search(spec, box, args.k, mode=args.mode,
                         ground_cap=args.ground_cap)
    _emit(jsonio.hollow_certificate_to_json(cert))
    _note(f"{args.mode} search: {args.k}-hollow set of size {len(cert.points)}")
    return EXIT_OK


def cmd_hoffman_check(args) -> int:
    spec = jsonio.parse_spec(_load(args.set))
    pts = _load_points(args.points)
    hollow = is_k_hollow(pts, spec, args.k)
    hoffman = is_k_hoffman(pts, spec, args.k) if len(pts) >= 2 else True
    _emit({"k": args.k, "size": len(pts), "hollow": hollow, "hoffman": hoffman})
    _note(f"hollow={hollow} hoffman={hoffman}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    spec = jsonio.parse_spec(_load(args.set))
    out = {
        "dim": spec.dim,
        "m": args.m,
        "k": args.k,
        "mode": args.mode,
        "helly_upper_bound": helly_upper_bound(spec, args.k, args.mode),
        "tverberg_upper_bound": tverberg_upper_bound(spec, args.m, args.k, args.mode),
    }
    if spec.variant == "lattice" and args.k == 1:
        out["lower_bound_exclusive"] = eckhoff_lower_bound(spec, args.m)
    _emit(out)
    _note(f"any {out['tverberg_upper_bound']} points of S admit an m={args.m}, "
          f"k={args.k} partition (S's lattice has rank {spec.rank})")
    return EXIT_OK


def cmd_oracle_depth(args) -> int:
    query = jsonio.parse_point(json.loads(args.point))
    pts = _load_points(args.points)
    value = brute_depth(query, pts, _caps(args))
    _emit({"depth": value})
    return EXIT_OK


def cmd_oracle_tverberg(args) -> int:
    instance = jsonio.parse_instance(_load(args.instance))
    report = brute_tverberg(instance.points, instance.spec, instance.m,
                            instance.k, _caps(args))
    out = {
        "found": report.found,
        "partitions_checked": report.partitions_checked,
    }
    if report.found:
        out["parts"] = [list(p) for p in report.parts]
        out["witnesses"] = jsonio.points_to_json(report.witnesses)
    _emit(out)
    return EXIT_OK


def cmd_oracle_hoffman_max(args) -> int:
    spec = jsonio.parse_spec(_load(args.set))
    box = jsonio.parse_box(json.loads(args.box))
    value = brute_hoffman_max(spec, box, args.k, _caps(args))
    _emit({"k": args.k, "max_size": value})
    return EXIT_OK


def cmd_oracle_helly(args) -> int:
    spec = jsonio.parse_spec(_load(args.set))
    family = jsonio.parse_family(_load(args.family))
    report = brute_helly_check(family, spec, args.k, args.h, _caps(args))
    _emit({
        "hypothesis_holds": report.hypothesis_holds,
        "conclusion_holds": report.conclusion_holds,
        "violating_subfamily": (
            None if report.violating_subfamily is None
            else list(report.violating_subfamily)
        ),
        "subfamilies_checked": report.subfamilies_checked,
    })
    return EXIT_OK


def cmd_oracle_verify(args) -> int:
    instance = jsonio.parse_instance(_load(args.instance))
    result = jsonio.parse_result(_load(args.result), instance.points)
    check = verify_partition(result, instance)
    _emit({"ok": check.ok, "reason": check.reason})
    return EXIT_OK if check.ok else EXIT_FAILURE


def cmd_experiment(args) -> int:
    config = jsonio.parse_config(_load(args.config))
    t0 = time.perf_counter()
    report = run_experiment(config)
    elapsed = time.perf_counter() - t0
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report.csv_text)
        _note(f"wrote {len(report.records)} rows to {args.csv}")
    _emit(report.summary)
    _note(f"{config.trials} trials in {elapsed:.2f}s "
          f"({report.summary['successes']} ok)")
    # an ok verdict that the brute oracle refutes fails the run; below the
    # bound a no_partition_found that the oracle refutes is an honest miss.
    # A construction error is a bug or a cap, which also fail the run.
    refuted = any(r.status == "ok" and r.oracle_agreement is False
                  for r in report.records)
    summary = report.summary
    if (summary["theorem_violations"] or summary["verify_failures"]
            or summary["construction_errors"] or refuted):
        return EXIT_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="discrete-tverberg",
                     description="certified Tverberg partitions over discrete sets")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tverberg", help="find and certify a partition")
    p.add_argument("instance", help="instance JSON file, or - for stdin")
    p.set_defaults(func=cmd_tverberg)

    p = sub.add_parser("radon", help="two-part split (m = 2)")
    p.add_argument("instance")
    p.set_defaults(func=cmd_radon)

    p = sub.add_parser("depth", help="halfspace depth of a point")
    p.add_argument("point", help="JSON array, e.g. '[0, 0]'")
    p.add_argument("points", help="JSON file with the reference points")
    p.set_defaults(func=cmd_depth)

    p = sub.add_parser("hollow-search", help="largest k-hollow subset in a box")
    p.add_argument("set", help="set spec JSON file")
    p.add_argument("--box", required=True, help="JSON [[lo, hi], ...]")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--mode", choices=("exhaustive", "greedy"), default="exhaustive")
    p.add_argument("--ground-cap", type=int, default=20)
    p.set_defaults(func=cmd_hollow_search)

    p = sub.add_parser("hoffman-check", help="test hollowness of a point set")
    p.add_argument("set")
    p.add_argument("points")
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=cmd_hoffman_check)

    p = sub.add_parser("bounds", help="guaranteed partition thresholds, in the "
                       "rank of S's lattice")
    p.add_argument("set")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--mode", choices=("paper", "best"), default="best")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("experiment", help="randomized trial batch")
    p.add_argument("config")
    p.add_argument("--csv", help="write per-trial rows to this file")
    p.set_defaults(func=cmd_experiment)

    oracle = sub.add_parser("oracle", help="brute-force cross checks")
    osub = oracle.add_subparsers(dest="oracle_command", required=True)

    p = osub.add_parser("depth")
    p.add_argument("point")
    p.add_argument("points")
    p.add_argument("--caps", help="JSON object of cap overrides")
    p.set_defaults(func=cmd_oracle_depth)

    p = osub.add_parser("tverberg")
    p.add_argument("instance")
    p.add_argument("--caps")
    p.set_defaults(func=cmd_oracle_tverberg)

    p = osub.add_parser("hoffman-max")
    p.add_argument("set")
    p.add_argument("--box", required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--caps")
    p.set_defaults(func=cmd_oracle_hoffman_max)

    p = osub.add_parser("helly")
    p.add_argument("family", help="JSON array of {vertices: [...]} objects")
    p.add_argument("set")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--caps")
    p.set_defaults(func=cmd_oracle_helly)

    p = osub.add_parser("verify")
    p.add_argument("instance")
    p.add_argument("result")
    p.set_defaults(func=cmd_oracle_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CapExceededError, TheoremViolationError,
            PartitionConstructionError) as exc:
        _emit({"status": "error", "error_type": type(exc).__name__,
               "message": str(exc)})
        _note(f"{type(exc).__name__}: {exc}")
        return EXIT_FAILURE
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _note(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
