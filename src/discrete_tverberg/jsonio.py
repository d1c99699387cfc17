"""JSON wire format for instances, results, and experiment configs.

Every scalar is emitted as an exact "p/q" string, denominator included
even when it is 1, so round-trips never touch floating point.  Parsing
is more lenient: plain JSON integers and "n" strings are accepted.
Floats are rejected outright; nothing in this package is approximate.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, fields
from fractions import Fraction
from typing import Any, Sequence

from .discrete_sets import (
    DiscreteSetSpec,
    HollowCertificate,
    LatticeBasis,
    PolytopeV,
    difference_set,
    lattice_set,
)
from .exact_geometry import ConvexCombination, DepthResult, Halfspace
from .oracles import OracleCaps
from .tverberg import Instance, PartitionResult, TverbergOutcome
from .vectors import Vec, frac, require_int, vec


# ---------------------------------------------------------------------------
# scalars and points


def format_scalar(x) -> str:
    f = frac(x)
    return f"{f.numerator}/{f.denominator}"


def parse_scalar(raw) -> Fraction:
    if isinstance(raw, bool):
        raise ValueError("booleans are not scalars")
    if isinstance(raw, int):
        return Fraction(raw)
    if isinstance(raw, float):
        raise ValueError(
            f"refusing float {raw!r}: use an exact \"p/q\" string instead"
        )
    if isinstance(raw, str):
        # Fraction would expand "1e999999999" to a billion-digit integer
        if "e" in raw or "E" in raw:
            raise ValueError(f"refusing exponent notation in {raw!r}: use \"p/q\"")
        try:
            return Fraction(raw)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {raw!r}") from None
    raise ValueError(f"cannot parse scalar from {raw!r}")


def point_to_json(p: Vec) -> list:
    return [format_scalar(c) for c in p]


def parse_point(raw) -> Vec:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ValueError(f"a point must be a nonempty array, got {raw!r}")
    return vec([parse_scalar(c) for c in raw])


def points_to_json(pts: Sequence[Vec]) -> list:
    return [point_to_json(p) for p in pts]


def parse_points(raw) -> list:
    if not isinstance(raw, list):
        raise ValueError("expected an array of points")
    return [parse_point(p) for p in raw]


# ---------------------------------------------------------------------------
# discrete set specs


def _basis_to_json(basis: LatticeBasis) -> list:
    return [point_to_json(v) for v in basis.vectors]


def spec_to_json(spec: DiscreteSetSpec) -> dict:
    out: dict = {"variant": spec.variant, "dim": spec.dim}
    if spec.variant == "mixed":
        out["a"] = spec.a
        out["b"] = spec.b
        return out
    out["basis"] = _basis_to_json(spec.base)
    if spec.variant == "difference":
        out["sublattices"] = [_basis_to_json(s) for s in spec.sublattices]
    return out


def parse_spec(raw: dict) -> DiscreteSetSpec:
    if not isinstance(raw, dict):
        raise ValueError("set spec must be an object")
    variant = raw.get("variant", "lattice")
    dim = require_int(raw.get("dim"), "set spec \"dim\"")
    if dim < 1:
        raise ValueError("set spec needs \"dim\" >= 1")
    if variant == "mixed":
        return DiscreteSetSpec(dim=dim, variant="mixed",
                               a=require_int(raw.get("a"), "mixed set spec \"a\""),
                               b=require_int(raw.get("b"), "mixed set spec \"b\""))

    def read_basis(rows) -> LatticeBasis:
        return LatticeBasis(tuple(parse_points(rows)), dim=dim)

    basis = read_basis(raw["basis"]) if "basis" in raw else None
    if variant == "lattice":
        return lattice_set(dim, basis)
    if variant == "difference":
        subs = raw.get("sublattices")
        if not isinstance(subs, list) or not subs:
            raise ValueError("difference set spec needs \"sublattices\"")
        return difference_set(dim, tuple(read_basis(s) for s in subs), basis)
    raise ValueError(f"unknown set variant {variant!r}")


# ---------------------------------------------------------------------------
# instances


def instance_to_json(instance: Instance) -> dict:
    return {
        "set": spec_to_json(instance.spec),
        "m": instance.m,
        "k": instance.k,
        "points": points_to_json(instance.points),
    }


def parse_instance(raw: dict) -> Instance:
    if not isinstance(raw, dict):
        raise ValueError("instance must be an object")
    for key in ("set", "m", "k", "points"):
        if key not in raw:
            raise ValueError(f"instance is missing {key!r}")
    return Instance(
        spec=parse_spec(raw["set"]),
        points=tuple(parse_points(raw["points"])),
        m=raw["m"],
        k=raw["k"],
    )


# ---------------------------------------------------------------------------
# geometry certificates


def combination_to_json(comb: ConvexCombination, index_of: dict) -> dict:
    idx = []
    coeffs = []
    for point, coeff in comb.terms:
        idx.append(index_of[point])
        coeffs.append(format_scalar(coeff))
    return {"indices": idx, "coefficients": coeffs}


def parse_combination(raw, points: Sequence[Vec]) -> ConvexCombination:
    """The inverse of :func:`combination_to_json`: ``indices`` into points
    and exact ``coefficients``, unchecked beyond their types and range."""
    if not isinstance(raw, dict):
        raise ValueError("a certificate must be an object")
    idx, coeffs = raw.get("indices"), raw.get("coefficients")
    if not isinstance(idx, list) or not isinstance(coeffs, list) or len(idx) != len(coeffs):
        raise ValueError("a certificate needs \"indices\" and \"coefficients\" "
                         "arrays of one length")
    for i in idx:
        if not 0 <= require_int(i, "a certificate index") < len(points):
            raise ValueError(f"certificate index {i} is out of range")
    return ConvexCombination(tuple(
        (points[i], parse_scalar(c)) for i, c in zip(idx, coeffs)))


def halfspace_to_json(h: Halfspace) -> dict:
    return {"normal": point_to_json(h.normal), "offset": format_scalar(h.offset)}


def depth_result_to_json(r: DepthResult) -> dict:
    return {"depth": r.depth, "witness": halfspace_to_json(r.witness)}


def hollow_certificate_to_json(cert: HollowCertificate) -> dict:
    return {
        "k": cert.k,
        "size": len(cert.points),
        "points": points_to_json(cert.points),
        "nonvertex_points": points_to_json(cert.nonvertex_points),
    }


# ---------------------------------------------------------------------------
# partition results


def outcome_to_json(outcome: TverbergOutcome, instance: Instance) -> dict:
    if outcome.status == "ok":
        result = outcome.result
        index_of = {p: i for i, p in enumerate(instance.points)}
        return {
            "status": "ok",
            "parts": [list(part) for part in result.parts],
            "witnesses": points_to_json(result.witnesses),
            "certificates": [
                [combination_to_json(c, index_of) for c in per_part]
                for per_part in result.certificates
            ],
            "stats": result.stats,
        }
    out: dict = {"status": outcome.status}
    if outcome.reason:
        out["reason"] = outcome.reason
    search = outcome.witness_search
    if search is not None:
        out["witnesses_found"] = [
            {"point": point_to_json(w.point), "depth": w.depth}
            for w in search.witnesses
        ]
        out["stats"] = {"candidates_scanned": search.candidates_scanned}
    return out


def parse_result(raw: dict, points: Sequence[Vec] = ()) -> PartitionResult:
    """Parts, witnesses and certificates, none of them trusted:
    ``verify_partition`` checks them all.  A certificate's indices point
    into ``points``, the instance's; without the "certificates" key the
    result has ``certificates=()``, which the verifier decides by
    membership."""
    if not isinstance(raw, dict):
        raise ValueError("result must be an object")
    if raw.get("status") != "ok":
        raise ValueError("can only parse a result with status \"ok\"")
    parts = raw.get("parts")
    wits = raw.get("witnesses")
    certs = raw.get("certificates", [])
    if not isinstance(parts, list) or not isinstance(wits, list):
        raise ValueError("result needs \"parts\" and \"witnesses\" arrays")
    if not all(isinstance(part, list) for part in parts):
        raise ValueError("each part must be an array of point indices")
    if not isinstance(certs, list) or not all(isinstance(row, list) for row in certs):
        raise ValueError("\"certificates\" must be an array of arrays per part")
    return PartitionResult(
        parts=tuple(tuple(require_int(i, "a part index") for i in part)
                    for part in parts),
        witnesses=tuple(parse_points(wits)),
        certificates=tuple(tuple(parse_combination(c, points) for c in row)
                           for row in certs),
        stats={},
    )


# ---------------------------------------------------------------------------
# experiment configs


def config_to_json(config) -> dict:
    out = {
        "set": spec_to_json(config.spec),
        "m": config.m,
        "k": config.k,
        "n_points": config.n_points,
        "box_bound": config.box_bound,
        "trials": config.trials,
        "seed": config.seed,
        "oracle_validate": config.oracle_validate,
        "bound_mode": config.bound_mode,
        "caps": asdict(config.caps),
    }
    if config.box is not None:
        out["box"] = [[format_scalar(lo), format_scalar(hi)]
                      for lo, hi in config.box]
    return out


def parse_caps(raw) -> OracleCaps:
    """Cap overrides: an object of known :class:`OracleCaps` fields with
    integer values."""
    if not isinstance(raw, dict):
        raise ValueError("caps must be an object")
    names = {f.name for f in fields(OracleCaps)}
    for key, value in raw.items():
        if key not in names:
            raise ValueError(f"unknown cap {key!r}")
        require_int(value, f"cap {key!r}")
    return OracleCaps(**raw)


def parse_config(raw: dict):
    from .harness import ExperimentConfig

    if not isinstance(raw, dict):
        raise ValueError("config must be an object")
    required = ("set", "m", "k", "n_points", "box_bound", "trials", "seed")
    known = required + ("oracle_validate", "bound_mode", "caps", "box")
    for key in raw:
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
    for key in required:
        if key not in raw:
            raise ValueError(f"config is missing {key!r}")
    caps = parse_caps(raw["caps"]) if "caps" in raw else OracleCaps()
    box = tuple(parse_box(raw["box"])) if "box" in raw else None
    return ExperimentConfig(
        spec=parse_spec(raw["set"]),
        m=raw["m"],
        k=raw["k"],
        n_points=raw["n_points"],
        box_bound=raw["box_bound"],
        trials=raw["trials"],
        seed=raw["seed"],
        oracle_validate=raw.get("oracle_validate", False),
        bound_mode=raw.get("bound_mode", "best"),
        caps=caps,
        box=box,
    )


# ---------------------------------------------------------------------------
# polytopes, boxes, families


def parse_polytope(raw) -> PolytopeV:
    if isinstance(raw, dict) and "vertices" in raw:
        raw = raw["vertices"]
    return PolytopeV(tuple(parse_points(raw)))


def parse_family(raw) -> list:
    if isinstance(raw, dict) and "family" in raw:
        raw = raw["family"]
    if not isinstance(raw, list) or not raw:
        raise ValueError("family must be a nonempty array of polytopes")
    return [parse_polytope(p) for p in raw]


def parse_box(raw) -> list:
    """[[lo, hi], ...] pairs of exact scalars."""
    if not isinstance(raw, list) or not raw:
        raise ValueError("box must be a nonempty array of [lo, hi] pairs")
    out = []
    for pair in raw:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"box entry {pair!r} is not a [lo, hi] pair")
        out.append((parse_scalar(pair[0]), parse_scalar(pair[1])))
    return out


# ---------------------------------------------------------------------------
# hashing


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def instance_digest(instance: Instance) -> str:
    blob = canonical_dumps(instance_to_json(instance)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=False)
