import ast
import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from discrete_tverberg import cli, harness, jsonio
from discrete_tverberg.discrete_sets import LatticeBasis, difference_set, lattice_set
from discrete_tverberg.errors import (
    CapExceededError,
    PartitionConstructionError,
    TheoremViolationError,
)
from discrete_tverberg.exact_geometry import ConvexCombination
from discrete_tverberg.harness import (
    ExperimentConfig,
    SplitMix64,
    generate_instance,
    records_to_csv,
    run_experiment,
    run_trial,
    sample_pool,
    trial_rng,
)
from discrete_tverberg.oracles import BruteTverbergReport, OracleCaps, VerificationReport
from discrete_tverberg.tverberg import tverberg_partition
from discrete_tverberg.vectors import vec

Z1 = lattice_set(1)
Z2 = lattice_set(2)
ODD = difference_set(1, (LatticeBasis(((2,),), dim=1),))


def test_splitmix64_reference_sequence():
    # published test vectors for seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_below_is_bounded_and_deterministic():
    rng = SplitMix64(7)
    draws = [rng.below(10) for _ in range(200)]
    assert all(0 <= d < 10 for d in draws)
    rng2 = SplitMix64(7)
    assert draws == [rng2.below(10) for _ in range(200)]


def test_trial_streams_differ():
    a = trial_rng(5, 0).next_u64()
    b = trial_rng(5, 1).next_u64()
    assert a != b


def test_generate_instance_deterministic():
    cfg = ExperimentConfig(spec=Z2, m=2, k=1, n_points=9, box_bound=8,
                           trials=1, seed=13)
    one = generate_instance(cfg, 0)
    two = generate_instance(cfg, 0)
    assert one.points == two.points
    other = generate_instance(cfg, 1)
    assert other.points != one.points


def test_generate_instance_forced_and_overfull():
    cfg = ExperimentConfig(spec=ODD, m=2, k=1, n_points=4, box_bound=3,
                           trials=1, seed=1)
    inst = generate_instance(cfg, 0)
    assert sorted(inst.points) == [(-3,), (-1,), (1,), (3,)]
    bad = ExperimentConfig(spec=ODD, m=2, k=1, n_points=5, box_bound=3,
                           trials=1, seed=1)
    with pytest.raises(ValueError):
        generate_instance(bad, 0)


def test_run_experiment_csv_determinism():
    cfg = ExperimentConfig(spec=Z2, m=2, k=1, n_points=9, box_bound=8,
                           trials=6, seed=99, oracle_validate=True)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a.csv_text == b.csv_text
    assert a.summary == b.summary
    assert a.summary["theorem_violations"] == 0
    assert a.summary["oracle"]["disagreements"] == 0
    rows = a.csv_text.strip().split("\n")
    assert rows[0].startswith("trial_index,instance_digest,status")
    assert len(rows) == 7


@pytest.mark.parametrize("oracle_validate", [False, True], ids=["plain", "oracle"])
def test_each_trial_replays_alone(oracle_validate):
    # trial i draws only from its own stream, so a caller may split the
    # indices over processes: trials run one by one, last index first, give
    # run_experiment's rows (CSV, since wall_time_s differs)
    cfg = ExperimentConfig(spec=Z2, m=2, k=1, n_points=9, box_bound=8,
                           trials=5, seed=31, oracle_validate=oracle_validate)
    pool = sample_pool(cfg)
    records = [run_trial(cfg, i, pool) for i in reversed(range(cfg.trials))]
    assert records_to_csv(records[::-1]) == run_experiment(cfg).csv_text


def test_src_starts_no_process_or_thread():
    # trials run in one loop; splitting them by index is the caller's choice
    banned = {"concurrent", "multiprocessing", "threading", "subprocess"}
    package = Path(cli.__file__).parent
    imports = sorted(
        (path.name, name)
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and node.module
            else []
        )
        if name.split(".")[0] in banned
    )
    assert imports == []


def test_run_experiment_forced_failure_box():
    # the only 4-point instance in [0,1]^2 is the unit square: no partition
    cfg = ExperimentConfig(spec=Z2, m=2, k=1, n_points=4, box_bound=1,
                           trials=2, seed=8, box=((0, 1), (0, 1)))
    rep = run_experiment(cfg)
    assert rep.summary["successes"] == 0
    assert rep.summary["no_partition_found"] == 2
    assert rep.summary["success_rate"] == "0/1"


def _raises(exc):
    def fail(*args):
        raise exc
    return fail


@pytest.mark.parametrize("name, fake, status, counter, code", [
    ("tverberg_partition", _raises(TheoremViolationError("forced")),
     "theorem_violation", "theorem_violations", 2),
    ("tverberg_partition", _raises(PartitionConstructionError("forced")),
     "construction_error", "construction_errors", 2),
    ("tverberg_partition", _raises(CapExceededError("forced")),
     "construction_error", "construction_errors", 2),
    ("verify_partition", lambda result, instance: VerificationReport(False, "forced"),
     "verify_failed", "verify_failures", 2),
], ids=["theorem-violation", "construction-error", "cap", "verify-failed"])
def test_run_trial_records_each_failure(tmp_path, capsys, monkeypatch, name, fake,
                                        status, counter, code):
    # the statuses that the summary counts and the benchmark's failed share
    # reads; an experiment fails (exit 2) on each of them: a theorem
    # violation, a construction error (a bug or a cap) and a failed
    # verification
    monkeypatch.setattr(harness, name, fake)
    cfg = ExperimentConfig(spec=Z2, m=2, k=1, n_points=9, box_bound=8,
                           trials=3, seed=4)
    record = run_trial(cfg, 0)
    assert record.status == status
    assert records_to_csv([record]).split("\n")[1].split(",")[2] == status
    assert cli.main(["experiment", write_json(tmp_path, "cfg.json", EXPERIMENT_CFG)]) == code
    summary = json.loads(capsys.readouterr().out)
    assert summary[counter] == cfg.trials
    assert summary["successes"] == 0


@pytest.mark.parametrize("fake, agreement, cell", [
    (_raises(CapExceededError("forced")), None, ""),
    (lambda *args: BruteTverbergReport(None, None, 0), False, "false"),
], ids=["cap", "disagreement"])
def test_run_trial_oracle_agreement(monkeypatch, fake, agreement, cell):
    # a capped oracle leaves the agreement open; a disagreeing one says so
    monkeypatch.setattr(harness, "brute_tverberg", fake)
    cfg = ExperimentConfig(spec=Z2, m=2, k=1, n_points=9, box_bound=8,
                           trials=2, seed=4, oracle_validate=True)
    report = run_experiment(cfg)
    assert [(r.status, r.oracle_agreement) for r in report.records] == [
        ("ok", agreement)] * cfg.trials
    assert [row.split(",")[-1] for row in report.csv_text.split("\n")[1:-1]] == [
        cell] * cfg.trials
    validated = 0 if agreement is None else cfg.trials
    assert report.summary["oracle"] == {
        "validated": validated, "agreements": 0, "disagreements": validated}


@pytest.mark.parametrize("n_points, parts, counter, code", [
    (9, None, "successes", 2),
    (2, ((0,), (1,)), "no_partition_found", 0),
], ids=["refuted-ok", "refuted-miss"])
def test_cli_experiment_fails_on_an_ok_verdict_the_oracle_refutes(
        tmp_path, capsys, monkeypatch, n_points, parts, counter, code):
    # a refuted ok verdict fails the run (exit 2), as the benchmark counts
    # it failed; a refuted no_partition_found, below the bound, does not
    monkeypatch.setattr(harness, "brute_tverberg",
                        lambda *args: BruteTverbergReport(parts, None, 0))
    raw = dict(EXPERIMENT_CFG, n_points=n_points, oracle_validate=True)
    assert cli.main(["experiment", write_json(tmp_path, "cfg.json", raw)]) == code
    summary = json.loads(capsys.readouterr().out)
    assert summary[counter] == raw["trials"]
    assert summary["oracle"]["disagreements"] == raw["trials"]


def _with_fallback_flags(js):
    # The outcome JSON as it was while ok outcomes carried the never-set
    # "fallback_flags" stat (one False per part, after "witness_depths").
    stats = js.get("stats", {})
    if "part_sizes" not in stats:
        return js
    flagged = {}
    for key, value in stats.items():
        flagged[key] = value
        if key == "witness_depths":
            flagged["fallback_flags"] = [False] * len(stats["part_sizes"])
    return {**js, "stats": flagged}


@pytest.mark.parametrize("cfg, flagged_digest, digest", [
    (ExperimentConfig(spec=lattice_set(3), m=2, k=1, n_points=15, box_bound=2,
                      trials=3, seed=5),
     "ac8dab27b5e3da1c62d92bc5b523bcff03e7b61217d12b30993bac8a55d93582",
     "b34c1152bf6026a2e16ca6e53ba1c6601767b685e3ae3938a3e256dd5790dbbe"),
    (ExperimentConfig(spec=Z2, m=3, k=1, n_points=25, box_bound=20,
                      trials=20, seed=11),
     "1e15920a4461d9fa8f4524c9dd6016019f948e06e4773da21f056ad55b820078",
     "53c1b56a886213071ac1af99917b407b9ae290b36fee12513fbc297653ebd76a"),
    (ExperimentConfig(spec=Z2, m=2, k=2, n_points=26, box_bound=15,
                      trials=20, seed=23),
     "8bb5807a3572b5009a54f081ab0d1d9399216d9982d4c06b69567f7df4982f26",
     "e6dab32b97a4ee617cfb76e59671ac2671d88b53f627e77ab2d899bddf5fe89f"),
    # ground sets whose points are not all integral
    # re-pinned when the peel moved to the lattice frame; the ids keep the
    # names made from the earlier digests
    pytest.param(
        ExperimentConfig(spec=lattice_set(2, LatticeBasis(((1, 0), (Fraction(1, 2), 1)))),
                         m=2, k=1, n_points=9, box_bound=4, trials=8, seed=7),
        "7d53dd6cb1a87427a6374f7d2b9b21d4d93c0aa906ae101d43a142ca15c98cb7",
        "f9051af344dd1aa0fdc23af15703dfba20785ed15c8b44538d6acc1f083ca296",
        id="cfg3-9c659feaf2be04e6d2fac181f0aa7c3af6b2c0689072608b0fb7297d9cf08afd"
           "-29741e5053a0bf883a81aa3f6a59d4ca339a7febb166c093f2d619a6d3850b06"),
    (ExperimentConfig(spec=lattice_set(2, LatticeBasis(((Fraction(1, 2), 0),
                                                         (0, Fraction(1, 3))))),
                      m=3, k=1, n_points=25, box_bound=3, trials=8, seed=7),
     "f65659ec6f08a553875697b1ffe264c8d32fddd524459571fb73be30abf510c9",
     "96b3e30fbc54e6e687579d5c5e6a141b09ccbb0ef3ebf8dfa1bc98e14b171445"),
    (ExperimentConfig(spec=difference_set(2, (LatticeBasis(((2, 0), (0, 2))),)),
                      m=2, k=2, n_points=20, box_bound=9, trials=8, seed=7),
     "81d2041bbfa0da29edaa7d8bfb21abcf0a32a65013b064a324e1cf8b5f31ba5f",
     "4f40a9c7fd75e4c165cdce24f050a222c5887e976d6fc05911fa9e485d615f72"),
    # k >= 2 shapes: three parts, three witnesses, Z^3, a sheared basis
    (ExperimentConfig(spec=Z2, m=3, k=2, n_points=40, box_bound=12, trials=8, seed=3),
     "b7e81690d5913a96e432cba072af27c1023f0d76791d835fc40201b09d07d4d2",
     "71e2d452747229256905e59d9c889855f981d3dc1a69209d0b12b9b4680cdb3b"),
    (ExperimentConfig(spec=Z2, m=2, k=3, n_points=45, box_bound=12, trials=8, seed=4),
     "dee6e78e4834364f363514014414ea981a88a51889513f481a3e3171161b75d6",
     "6ee8a6cf2bd29878ec2d893759f4661ee31a73f132cfe9b8019103c69babc844"),
    (ExperimentConfig(spec=lattice_set(3), m=2, k=2, n_points=40, box_bound=3,
                      trials=4, seed=9),
     "a6f87b4667b9635e6f1eb11b8069e0dd4646d0fb0992144205bf769f4a17076d",
     "495257f3503cf27467d15cfda132eb584238b67515396236a9e5d03e2f0793cb"),
    pytest.param(
        ExperimentConfig(spec=lattice_set(2, LatticeBasis(((1, 0), (Fraction(1, 2), 1)))),
                         m=2, k=2, n_points=30, box_bound=6, trials=8, seed=2),
        "e4257d7a15613e13d2ce6b6cfb1ae4983c3c663dd2989d596f8f1b4d2779ee01",
        "ec2a3dcfe5ccebe6765ac6c4524f542104a99a75e821c0828ab56ea5109923d6",
        id="cfg9-78209cbc209d9a7c31f29d696e89a7771d7dd5892530583d721230b9c4c85c6a"
           "-32a6b180cca918a10b5d213f5a0866137ca5424f040ab3a75e894106394ee3d5"),
    # k >= 2 on a line: the witnesses' hull is an interval
    (ExperimentConfig(spec=Z1, m=4, k=3, n_points=40, box_bound=60, trials=8, seed=1),
     "d28bf9f69d62876da0b4b0781b9f5fab7599042f091f6895e000e61ed93a9a7a",
     "dbfa6b332d2985d1ec01fa31c8b53d1dfc79c3ac9b30e22fdc45cb6a57452471"),
    # below the bound: trials 0, 4 and 7 are no_partition_found with one of
    # the two witnesses found
    (ExperimentConfig(spec=Z2, m=2, k=2, n_points=13, box_bound=4, trials=8, seed=7),
     "c8c621625f4185cf1955480890f8105dbb2ce4077dbbce80067aab52420fc4fa",
     "c5cc07b96e6345be72adf2aaee843a1a23a96baa8c602b16ae57de4c2cc1923a"),
])
def test_outcome_json_bytes_are_pinned(cfg, flagged_digest, digest):
    # The outcome JSON carries the parts, the witness points, their
    # convex-combination certificates and the stats, and for
    # no_partition_found the witness points found with their depths; the
    # CSV shows only part sizes, witness counts and the least witness
    # depth.  Depth witness normals appear in neither.  flagged_digest pins
    # the bytes from before the fallback flag was deleted, so the deletion
    # is checked to have changed nothing else.
    h, flagged = hashlib.sha256(), hashlib.sha256()
    for t in range(cfg.trials):
        inst = generate_instance(cfg, t)
        js = jsonio.outcome_to_json(tverberg_partition(inst), inst)
        h.update(jsonio.dumps(js).encode())
        flagged.update(jsonio.dumps(_with_fallback_flags(js)).encode())
    assert h.hexdigest() == digest
    assert flagged.hexdigest() == flagged_digest


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(spec=Z2, m=2, k=1, n_points=1, box_bound=5,
                         trials=1, seed=0)
    with pytest.raises(ValueError):
        ExperimentConfig(spec=Z2, m=2, k=1, n_points=4, box_bound=0,
                         trials=1, seed=0)


# ---------------------------------------------------------------------------
# command line


def run_cli(args, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "discrete_tverberg.cli"] + args,
        capture_output=True, text=True, input=stdin_text, timeout=120,
    )
    return proc


def write_json(tmp_path: Path, name: str, obj) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


INSTANCE_1D = {"set": {"variant": "lattice", "dim": 1}, "m": 2, "k": 1,
               "points": [[0], [1], [2]]}


def test_cli_tverberg_roundtrip(tmp_path):
    path = write_json(tmp_path, "inst.json", INSTANCE_1D)
    proc = run_cli(["tverberg", path])
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["status"] == "ok"
    assert out["witnesses"] == [["1/1"]]


def test_cli_reads_stdin(tmp_path):
    proc = run_cli(["tverberg", "-"], stdin_text=json.dumps(INSTANCE_1D))
    assert proc.returncode == 0


def test_cli_no_partition_is_still_verdict(tmp_path):
    inst = {"set": {"variant": "lattice", "dim": 2}, "m": 2, "k": 1,
            "points": [[0, 0], [1, 0], [0, 1], [1, 1]]}
    path = write_json(tmp_path, "square.json", inst)
    proc = run_cli(["tverberg", path])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "no_partition_found"


def test_cli_usage_errors(tmp_path):
    assert run_cli(["tverberg"]).returncode == 1
    assert run_cli(["no-such-command"]).returncode == 1
    bad = write_json(tmp_path, "bad.json", {"set": {"variant": "lattice", "dim": 1}})
    assert run_cli(["tverberg", bad]).returncode == 1


def test_cli_cap_exit_code(tmp_path):
    inst = {"set": {"variant": "lattice", "dim": 1}, "m": 2, "k": 1,
            "points": [[i] for i in range(26)]}
    path = write_json(tmp_path, "big.json", inst)
    proc = run_cli(["oracle", "tverberg", path])
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error_type"] == "CapExceededError"


def test_cli_radon_rejects_wrong_m(tmp_path):
    inst = dict(INSTANCE_1D, m=3)
    path = write_json(tmp_path, "m3.json", inst)
    proc = run_cli(["radon", path])
    assert proc.returncode == 1


def test_cli_radon_prints_the_tverberg_outcome(tmp_path, capsys):
    path = write_json(tmp_path, "inst.json", INSTANCE_1D)
    assert cli.main(["radon", path]) == 0
    radon = capsys.readouterr().out
    assert cli.main(["tverberg", path]) == 0
    assert capsys.readouterr().out == radon


def test_cli_reads_bare_point_lists(tmp_path, capsys):
    square = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    outs = []
    for name, obj in (("bare.json", square), ("obj.json", {"points": square})):
        assert cli.main(["depth", "[0, 0]", write_json(tmp_path, name, obj)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_cli_depth_and_oracle_agree(tmp_path):
    pts = write_json(tmp_path, "pts.json",
                     {"points": [[1, 0], [-1, 0], [0, 1], [0, -1]]})
    eng = run_cli(["depth", "[0, 0]", pts])
    orc = run_cli(["oracle", "depth", "[0, 0]", pts])
    assert eng.returncode == 0 and orc.returncode == 0
    assert json.loads(eng.stdout)["depth"] == json.loads(orc.stdout)["depth"] == 2


def test_cli_depth_and_oracle_reject_mixed_dimensions(tmp_path, capsys):
    # the oracle used to zip the 3-d point down to the query's 2 coordinates
    # and report depth 1 with exit 0
    pts = write_json(tmp_path, "pts.json", {"points": [[1, 0, 5], [-1, 0]]})
    for args in (["depth"], ["oracle", "depth"]):
        assert cli.main(args + ["[0, 0]", pts]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_cli_names_a_zero_denominator(tmp_path, capsys):
    # "1/0" used to end in a ZeroDivisionError traceback
    pts = write_json(tmp_path, "pts.json", {"points": [[1, 0], [-1, 0]]})
    inst = write_json(tmp_path, "inst.json", dict(INSTANCE_1D, points=[["1/0"], [1]]))
    assert cli.main(["depth", '["1/0", 0]', pts]) == 1
    assert cli.main(["tverberg", inst]) == 1
    err = capsys.readouterr().err
    assert err.count("zero denominator in '1/0'") == 2 and "Traceback" not in err


def test_cli_refuses_exponent_notation(tmp_path, capsys):
    # Fraction("1e999999999") builds a billion-digit integer before any check
    for raw in ("1e999999999", "1E-2"):
        inst = write_json(tmp_path, "inst.json", dict(INSTANCE_1D, points=[[raw], [1]]))
        assert cli.main(["tverberg", inst]) == 1
        err = capsys.readouterr().err
        assert f"exponent notation in {raw!r}" in err and "Traceback" not in err
    # every form without an exponent parses as before
    for raw, value in (("3", 3), (" -3 ", -3), ("1/2", Fraction(1, 2)),
                       ("-1.25", Fraction(-5, 4)), ("1_000", 1000), (".5", Fraction(1, 2))):
        assert jsonio.parse_scalar(raw) == value


def test_cli_oracle_helly_refuses_a_mixed_set(tmp_path, capsys):
    # a mixed set used to end in an AttributeError traceback
    family = write_json(tmp_path, "fam.json", [{"vertices": [[0, 0], [2, 0], [0, 2]]},
                                                {"vertices": [[1, 1], [3, 3]]}])
    mixed = write_json(tmp_path, "mixed.json", {"variant": "mixed", "dim": 2, "a": 1, "b": 1})
    assert cli.main(["oracle", "helly", family, mixed, "--h", "1"]) == 1
    err = capsys.readouterr().err
    assert "only for enumerable sets" in err and "Traceback" not in err


def test_cli_bounds(tmp_path):
    spec = write_json(tmp_path, "z2.json", {"variant": "lattice", "dim": 2})
    proc = run_cli(["bounds", spec, "--m", "3", "--k", "1", "--mode", "paper"])
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["tverberg_upper_bound"] == 25
    assert out["helly_upper_bound"] == 6
    assert out["lower_bound_exclusive"] == 8


@pytest.mark.parametrize("raw, lower", [
    pytest.param({"variant": "lattice", "dim": 2, "basis": [[1, 2]]}, 4, id="line-in-R2"),
    pytest.param({"variant": "lattice", "dim": 3, "basis": [[1, 0, 1], [0, 1, 1]]}, 8,
                 id="plane-in-Z3"),
])
def test_cli_bounds_of_a_rank_deficient_lattice(tmp_path, raw, lower):
    # the strict lower bound 2^r (m - 1) is printed in the lattice's rank r
    spec = write_json(tmp_path, "set.json", raw)
    proc = run_cli(["bounds", spec, "--m", "3", "--k", "1"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["lower_bound_exclusive"] == lower
    proc = run_cli(["bounds", spec, "--m", "3", "--k", "2"])
    assert "lower_bound_exclusive" not in json.loads(proc.stdout)


def test_cli_experiment_writes_csv(tmp_path):
    cfg = {"set": {"variant": "lattice", "dim": 2}, "m": 2, "k": 1,
           "n_points": 9, "box_bound": 8, "trials": 3, "seed": 4}
    path = write_json(tmp_path, "cfg.json", cfg)
    csv_path = tmp_path / "rows.csv"
    proc = run_cli(["experiment", path, "--csv", str(csv_path)])
    assert proc.returncode == 0
    summary = json.loads(proc.stdout)
    assert summary["trials"] == 3
    rows = csv_path.read_text().strip().split("\n")
    assert len(rows) == 4


@pytest.mark.parametrize("raw", [
    # the README instance
    {"set": {"variant": "lattice", "dim": 2}, "m": 2, "k": 1,
     "points": [[0, 0], [4, 0], [0, 4], [3, 3], [1, 1], [2, 0], [0, 2], [2, 2], [1, 2]]},
    *[jsonio.instance_to_json(generate_instance(cfg, 0)) for cfg in (
        ExperimentConfig(spec=Z2, m=2, k=2, n_points=26, box_bound=15, trials=1, seed=23),
        ExperimentConfig(spec=difference_set(2, (LatticeBasis(((2, 0), (0, 2))),)),
                         m=2, k=1, n_points=14, box_bound=6, trials=1, seed=7))],
], ids=["readme", "z2-k2", "z2-minus-2z2"])
def test_cli_oracle_verify_accepts_the_engines_output(tmp_path, capsys, raw):
    inst_path = write_json(tmp_path, "inst.json", raw)
    assert cli.main(["tverberg", inst_path]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["status"] == "ok"
    res_path = tmp_path / "res.json"
    res_path.write_text(out)
    assert cli.main(["oracle", "verify", inst_path, str(res_path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"ok": True, "reason": None}


def test_cli_oracle_verify_checks_the_emitted_certificates(tmp_path, capsys):
    # the round trip verifies the engine's certificates as written; one
    # edited coefficient breaks the proof
    inst_path = write_json(tmp_path, "inst.json", INSTANCE_1D)
    assert cli.main(["tverberg", inst_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["certificates"] == [
        [{"indices": [1], "coefficients": ["1/1"]}],
        [{"indices": [0, 2], "coefficients": ["1/2", "1/2"]}]]
    res_path = write_json(tmp_path, "res.json", out)
    assert cli.main(["oracle", "verify", inst_path, res_path]) == 0
    assert json.loads(capsys.readouterr().out) == {"ok": True, "reason": None}
    out["certificates"][1][0]["coefficients"][0] = "1/3"
    res_path = write_json(tmp_path, "res.json", out)
    assert cli.main(["oracle", "verify", inst_path, res_path]) == 2
    assert json.loads(capsys.readouterr().out) == {"ok": False, "reason": "bad_certificate"}


def test_parse_result_reads_certificates():
    points = [vec((0,)), vec((1,)), vec((2,))]
    ok = {"status": "ok", "parts": [[1], [0, 2]], "witnesses": [["1/1"]],
          "certificates": [[{"indices": [1], "coefficients": [1]}],
                           [{"indices": [0, 2], "coefficients": ["1/2", "1/2"]}]]}
    result = jsonio.parse_result(ok, points)
    assert result.certificates == (
        (ConvexCombination(((points[1], 1),)),),
        (ConvexCombination(((points[0], Fraction(1, 2)), (points[2], Fraction(1, 2)))),))
    assert jsonio.parse_result({k: v for k, v in ok.items() if k != "certificates"},
                               points).certificates == ()
    for bad in (3, -1, 1.0, True, "1", None):
        raw = dict(ok, certificates=[[{"indices": [bad], "coefficients": [1]}], []])
        with pytest.raises(ValueError):
            jsonio.parse_result(raw, points)
    for bad in ({"indices": [1]}, {"indices": [1], "coefficients": [1, 1]},
                {"indices": [1], "coefficients": [1.0]}, [1]):
        with pytest.raises(ValueError):
            jsonio.parse_result(dict(ok, certificates=[[bad], []]), points)
    with pytest.raises(ValueError):
        jsonio.parse_result(dict(ok, certificates=[{}]), points)


def test_cli_verify_failure_exit(tmp_path):
    inst_path = write_json(tmp_path, "inst.json", INSTANCE_1D)
    # a witness outside a part's hull, and one of the wrong dimension
    for parts, witness, reason in [([[0, 1], [2]], ["1/1"], "witness_outside_part_hull"),
                                   ([[1], [0, 2]], ["1", "1"], "witness_not_in_set")]:
        bogus = {"status": "ok", "parts": parts, "witnesses": [witness]}
        res_path = write_json(tmp_path, "res.json", bogus)
        proc = run_cli(["oracle", "verify", inst_path, res_path])
        assert proc.returncode == 2
        assert json.loads(proc.stdout) == {"ok": False, "reason": reason}


def test_cli_hollow_search(tmp_path):
    spec = write_json(tmp_path, "z2.json", {"variant": "lattice", "dim": 2})
    proc = run_cli(["hollow-search", spec, "--box", "[[0,1],[0,1]]", "--k", "1"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["size"] == 4


@pytest.mark.parametrize("mode", ["exhaustive", "greedy"])
def test_cli_hollow_search_names_a_negative_ground_cap(tmp_path, capsys, mode):
    # used to exit 2 with "CapExceededError: ground set has 4 points, cap
    # is -1", as if the search had run out of room
    spec = write_json(tmp_path, "z2.json", {"variant": "lattice", "dim": 2})
    assert cli.main(["hollow-search", spec, "--box", "[[0,1],[0,1]]",
                     "--mode", mode, "--ground-cap", "-1"]) == 1
    assert "cap 'ground_cap' must be nonnegative" in capsys.readouterr().err


def test_instance_m_and_k_must_be_integers(tmp_path):
    # 2.0 used to run to a verdict with a float threshold, and "2" used to
    # escape the CLI as a TypeError traceback
    for key, bad in [("m", 2.0), ("m", "2"), ("k", 1.0), ("k", True)]:
        raw = dict(INSTANCE_1D, **{key: bad})
        with pytest.raises(ValueError):
            jsonio.parse_instance(raw)
        assert cli.main(["tverberg", write_json(tmp_path, "bad.json", raw)]) == 1


def test_cli_rejects_an_empty_instance(tmp_path, capsys):
    # used to exit 1 with the witness search's "a polytope needs at least
    # one vertex"
    raw = dict(INSTANCE_1D, points=[])
    assert cli.main(["tverberg", write_json(tmp_path, "empty.json", raw)]) == 1
    assert "an instance needs at least one point" in capsys.readouterr().err


def test_parse_result_takes_only_integer_part_indices():
    ok = {"status": "ok", "parts": [[0, 1], [2]], "witnesses": [["1/1"]]}
    assert jsonio.parse_result(ok).parts == ((0, 1), (2,))
    for bad in (1.9, True, "3", None):
        with pytest.raises(ValueError):
            jsonio.parse_result(dict(ok, parts=[[0, bad], [2]]))
    with pytest.raises(ValueError):
        jsonio.parse_result(dict(ok, parts=[0, [2]]))


EXPERIMENT_CFG = {"set": {"variant": "lattice", "dim": 2}, "m": 2, "k": 1,
                  "n_points": 9, "box_bound": 8, "trials": 3, "seed": 4}
BAD_CAPS = [{"bogus": 1}, [1], {"partitions": "7"}, {"depth_points": True}]


@pytest.mark.parametrize("args, raw", [
    *[(["experiment"], dict(EXPERIMENT_CFG, **{key: bad})) for key, bad in [
        ("m", "2"), ("m", 2.0), ("k", True), ("n_points", "9"), ("box_bound", 8.0),
        ("trials", None), ("seed", "4"), ("threads", True),
        ("oracle_validate", "yes"), ("bound_mode", "nope")]],
    *[(["experiment"], dict(EXPERIMENT_CFG, caps=caps)) for caps in BAD_CAPS],
    *[(["oracle", "depth", "--caps", json.dumps(caps), "[0, 0]"],
       {"points": [[1, 0], [-1, 0]]}) for caps in BAD_CAPS],
    *[(["bounds", "--m", "2"], spec) for spec in [
        {"variant": "lattice", "dim": True},
        {"variant": "mixed", "dim": 2, "a": True, "b": 1},
        {"variant": "mixed", "dim": 5, "a": 1, "b": 1},
        {"variant": "lattice", "dim": 2, "basis": 5},
        {"variant": "difference", "dim": 1, "sublattices": [5]}]],
])
def test_cli_rejects_malformed_input(tmp_path, capsys, monkeypatch, args, raw):
    # each input used to end in a traceback, run to exit 0, or fail only
    # after every trial had run; a bad config must fail before any trial
    monkeypatch.setattr(cli, "run_experiment", None)
    assert cli.main(args + [write_json(tmp_path, "input.json", raw)]) == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("threads", 2), ("trails", 3)])
def test_cli_experiment_names_an_unknown_config_key(tmp_path, capsys, monkeypatch,
                                                    key, value):
    # "threads" selected a process pool that is gone; a misspelt key used to
    # be ignored; both now stop the run before any trial
    monkeypatch.setattr(cli, "run_experiment", None)
    path = write_json(tmp_path, "cfg.json", dict(EXPERIMENT_CFG, **{key: value}))
    assert cli.main(["experiment", path]) == 1
    assert f"unknown config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("args, raw", [
    (["oracle", "tverberg", "--caps", '{"partitions": -1}'], INSTANCE_1D),
    (["experiment"], dict(EXPERIMENT_CFG, oracle_validate=True, caps={"partitions": -1})),
], ids=["oracle-tverberg", "experiment"])
def test_cli_names_a_negative_cap(tmp_path, capsys, monkeypatch, args, raw):
    # a negative cap used to be accepted: with oracle_validate every trial
    # then hit the cap and ran unvalidated without a word
    monkeypatch.setattr(cli, "run_experiment", None)
    assert cli.main(args + [write_json(tmp_path, "input.json", raw)]) == 1
    assert "cap 'partitions' must be nonnegative" in capsys.readouterr().err


def test_config_json_roundtrip_keeps_caps_and_box():
    config = ExperimentConfig(spec=Z2, m=2, k=1, n_points=9, box_bound=8,
                              trials=3, seed=4, caps=OracleCaps(partitions=7),
                              box=((Fraction(-1), Fraction(2)), (Fraction(0), Fraction(3))))
    assert jsonio.parse_config(jsonio.config_to_json(config)) == config


def test_z4_smoke_run():
    config = ExperimentConfig(spec=lattice_set(4), m=2, k=1, n_points=20,
                              box_bound=1, trials=5, seed=4)
    report = run_experiment(config)
    assert report.summary["theorem_violations"] == 0
    assert report.summary["verify_failures"] == 0
    assert report.summary["construction_errors"] == 0
