import hashlib
import json
import os
import subprocess
import sys

import pytest

from kronwork import cli
from kronwork import partitions as pt
from kronwork.verify import verify_certificate
from kronwork.certificates import Certificate
from kronwork.prover import prove_in_staircase_square
from log_reference import expanded_bytes


def run(capsys, *argv):
    code = cli.dispatch(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_kron(capsys):
    code, doc = run(capsys, "kron", "--lambda", "2,1", "--mu", "2,1", "--nu", "2,1")
    assert code == 0
    assert doc["coefficient"] == "1"


def test_kron_factors(capsys):
    code, doc = run(capsys, "kron", "--factors", "2,1;2,1;2,1;2,1")
    assert code == 0
    assert doc["coefficient"] == "3"


def test_kron_bad_partition(capsys):
    assert cli.dispatch(["kron", "--lambda", "1,2", "--mu", "3", "--nu", "3"]) == 2


@pytest.mark.parametrize("argv", [["--factors", "2,1"], ["--lambda", "2,1"]])
def test_kron_with_one_partition_fails_like_other_bad_input(capsys, argv):
    # used to raise SystemExit: exit code 1 and a bare message
    assert cli.dispatch(["kron"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: kron needs at least two partitions\n"


def test_support(capsys):
    code, doc = run(capsys, "support", "--lambda", "2,1")
    assert code == 0
    assert sorted(doc["support"]) == ["1,1,1", "2,1", "3"]


def test_prove_and_verify_cert(tmp_path, capsys):
    code, doc = run(capsys, "prove", "--m", "4", "--nu", "4,3,2,1")
    assert code == 0
    assert doc["found"] is True and doc["verified"] is True
    cert = Certificate.from_json(json.dumps(doc["certificate"]))
    ok, msg = verify_certificate(cert)
    assert ok, msg
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc["certificate"]))
    code2, doc2 = run(capsys, "verify-cert", "--file", str(path))
    assert code2 == 0
    assert doc2["ok"] is True


def test_verify_cert_rejects_garbage(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.dispatch(["verify-cert", "--file", str(path)]) == 2


@pytest.mark.parametrize("text", [
    '{"kind": "HSum", "goal": ["1"]}',
    '{"kind": "Hook", "goal": [5], "children": []}',
    '[1]',
    "[" * 5000 + "]" * 5000,
    # a saxl log's reference to an earlier line means nothing in a file
    '{"kind": "Conjugate", "goal": ["1", "1", "1"], "children": [[1, 0]], "meta": {}}',
], ids=["no-children", "int-goal", "not-an-object", "deep-nesting", "list-child"])
def test_verify_cert_unparseable_exits_2_without_traceback(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert cli.dispatch(["verify-cert", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_verify_cert_invalid_certificate_reports_not_ok(tmp_path, capsys):
    # parses, but the Hook leaf's m is a string
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({
        "kind": "Hook", "goal": ["4,1,1", "3,2,1", "3,2,1"],
        "children": [], "meta": {"m": "3"},
    }))
    code, doc = run(capsys, "verify-cert", "--file", str(path))
    assert code == 0
    assert doc["ok"] is False


def test_verify_cert_arity_mismatch_reports_not_ok(tmp_path, capsys):
    # a 4-ary Conjugate over a 3-ary leaf used to print a traceback
    leaf = {"kind": "OracleLeaf", "goal": ["1", "1", "1"], "children": []}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({
        "kind": "Conjugate", "goal": ["1", "1", "1", "1"],
        "children": [leaf], "meta": {"coords": [2, 3]},
    }))
    code, doc = run(capsys, "verify-cert", "--file", str(path))
    assert code == 0
    assert doc["ok"] is False


def test_verify_cert_rejects_an_oracle_leaf_above_the_ceiling(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({
        "kind": "OracleLeaf", "goal": ["15", "15", "15"],
        "children": [], "meta": {"coefficient": "1"},
    }))
    code, doc = run(capsys, "verify-cert", "--file", str(path))
    assert code == 0 and doc["ok"] is False
    assert doc["message"] == ("OracleLeaf node with goal ((15,), (15,), (15,)): "
                              "oracle leaf above the ceiling (n=15)")


def test_saxl_small(tmp_path, capsys):
    code, doc = run(capsys, "saxl", "--m", "3", "--cache", str(tmp_path))
    assert code == 0
    assert doc["complete"] is True
    assert doc["proved"] == doc["total"]


def test_saxl_pool_and_serial_write_the_same_cache(tmp_path, capsys):
    # the parent encodes and appends the certificates in target order,
    # whoever proved them; at m = 5 later lines refer to earlier ones
    serial, pool = str(tmp_path / "serial"), str(tmp_path / "pool")
    assert run(capsys, "saxl", "--m", "5", "--threads", "1", "--cache", serial) == \
        run(capsys, "saxl", "--m", "5", "--threads", "2", "--cache", pool)
    assert os.listdir(serial) == os.listdir(pool) == ["m5.jsonl"]
    with open(os.path.join(serial, "m5.jsonl"), "rb") as fh:
        log = fh.read()
    assert len(log.splitlines()) == 176
    assert hashlib.sha256(log).hexdigest() == COLD_LOG_RAW_SHA256[5]
    with open(os.path.join(pool, "m5.jsonl"), "rb") as fh:
        assert fh.read() == log


_FOOTPRINT = """
import sys
before = set(sys.modules)
from kronwork import cli
for argv in sys.argv[2:]:
    assert cli.dispatch(argv.split()) == 0, argv
with open(sys.argv[1], "w") as fh:
    fh.write("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_certificate_commands_load_only_what_they_run(tmp_path):
    # decomp and samplers are loaded by the commands that use them, and
    # nothing loads dataclasses, which brings in inspect, ast and dis; the
    # baseline is what the interpreter had loaded before kronwork.cli
    cert = tmp_path / "cert.json"
    cert.write_text(prove_in_staircase_square(4, (4, 3, 2, 1)).to_json())
    added = tmp_path / "added.txt"
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop(cli.CACHE_ENV, None)
    subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, str(added),
         "saxl --m 4 --threads 1 --cache %s" % (tmp_path / "cache"),
         "prove --m 4 --nu 4,3,2,1", "kron --factors 2,1;2,1;2,1",
         "verify-cert --file %s" % cert],
        env=env, check=True, capture_output=True, timeout=120)
    loaded = set(added.read_text().split())
    assert "kronwork.cli" in loaded and "kronwork.verify" in loaded
    assert not loaded & {"dataclasses", "inspect", "kronwork.decomp", "kronwork.samplers"}


def test_decompose(capsys):
    code, doc = run(capsys, "decompose", "--m", "12", "--k", "3", "--i", "1")
    assert code == 0
    assert doc["m"] == 12


def test_decompose_grid_without_i(capsys):
    # the grid branch used to format the flakes, which are staircase sides
    # (ints), as partitions and exit with a TypeError
    code, doc = run(capsys, "decompose", "--m", "9", "--k", "3")
    assert code == 0 and doc["replay_ok"] is True
    sides = sorted(pt.recipe_sides(pt.stair_grid(9, 3)))
    assert doc["core"] == pt.format_partition(pt.staircase(sides[-1]))
    assert doc["flakes"] == sides[:-1]


def test_decompose_smooth_without_i_fails_closed(capsys):
    # --smooth only applies to a layer decomposition: without --i it used to
    # be ignored, and the plain grid was printed
    assert cli.dispatch(["decompose", "--m", "10", "--k", "3", "--smooth"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: decompose --smooth needs --i\n"


@pytest.mark.parametrize("beta", ["inf", "-inf", "nan"])
def test_flexibility_with_a_beta_that_is_not_finite_fails_closed(capsys, beta):
    # inf used to end in an OverflowError traceback from math.ceil (exit 1),
    # and nan exited 2 with "cannot convert float NaN to integer"
    argv = ["experiment", "--kind", "flexibility", "--n", "10", "--samples", "3"]
    assert cli.dispatch(argv + ["--beta=" + beta]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: beta must be finite, not %r\n" % float(beta)


def test_sample_deterministic(capsys):
    args = ["sample", "--measure", "plancherel", "--n", "10", "--samples", "30", "--seed", "7"]
    code, doc = run(capsys, *args)
    code2, doc2 = run(capsys, *args)
    assert code == code2 == 0
    assert doc == doc2


def test_no_command_takes_an_oracle_ceiling(capsys):
    # the ceiling is the constant DEFAULT_ORACLE_CEILING, not a setting
    for argv in (["kron", "--factors", "2,1;2,1;2,1"],
                 ["support", "--lambda", "2,1"],
                 ["prove", "--m", "2", "--nu", "2,1"],
                 ["saxl", "--m", "2", "--threads", "1"],
                 ["verify-cert", "--file", "-"],
                 ["decompose", "--m", "4", "--k", "2"],
                 ["sample", "--measure", "uniform", "--n", "5"],
                 ["experiment", "--kind", "flexibility", "--n", "5"],
                 ["distance", "--lambda", "2,1", "--mu", "3"],
                 ["exceptions", "--n", "3"]):
        with pytest.raises(SystemExit) as exc:
            cli.dispatch(argv + ["--oracle-ceiling", "3"])
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --oracle-ceiling 3" in captured.err, argv


def test_kron_above_the_oracle_ceiling_fails_closed(capsys):
    assert cli.dispatch(["kron", "--factors", "15;15;15"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: oracle ceiling 14 exceeded by n=15\n"


def test_experiment_flexibility(capsys):
    code, doc = run(
        capsys, "experiment", "--kind", "flexibility", "--n", "100", "--samples", "50"
    )
    assert code == 0
    assert 0 <= float(doc["stats"]["pass_rate"]) <= 1


def test_experiment_coverage(capsys):
    code, doc = run(
        capsys,
        "experiment",
        "--kind",
        "coverage",
        "--m",
        "6",
        "--samples",
        "25",
        "--seed",
        "2",
    )
    assert code == 0
    assert "split_rate" in doc["stats"] and "prover_rate" in doc["stats"]


def test_experiment_fourth_power(capsys):
    code, doc = run(capsys, "experiment", "--kind", "fourth-power", "--n", "55", "--seed", "1")
    assert code == 0
    assert doc["verified"] is True


@pytest.mark.parametrize("kind, need", [
    ("flexibility", "--n"), ("coverage", "--m"),
    ("singleton", "--n"), ("fourth-power", "--n"),
])
def test_experiment_without_its_size_fails_closed(capsys, kind, need):
    # each used to die with a TypeError traceback
    assert cli.dispatch(["experiment", "--kind", kind, "--samples", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: experiment --kind %s needs %s\n" % (kind, need)


@pytest.mark.parametrize("argv, why", [
    (["experiment", "--kind", "flexibility", "--n", "10", "--samples", "-2"],
     "samples must be nonnegative, not -2"),
    (["experiment", "--kind", "coverage", "--m", "6", "--samples", "-2"],
     "samples must be nonnegative, not -2"),
    (["experiment", "--kind", "singleton", "--n", "10", "--samples", "-2"],
     "samples must be nonnegative, not -2"),
    (["experiment", "--kind", "fourth-power", "--n", "10", "--samples", "-2"],
     "samples must be nonnegative, not -2"),
    (["sample", "--measure", "uniform", "--n", "5", "--samples", "-2"],
     "samples must be nonnegative, not -2"),
    (["experiment", "--kind", "singleton", "--n", "0"], "n must be positive, not 0"),
    (["experiment", "--kind", "coverage", "--m", "0"], "m must be positive, not 0"),
], ids=["flexibility", "coverage", "singleton", "fourth-power", "sample",
        "singleton-n0", "coverage-m0"])
def test_bad_counts_fail_closed(capsys, argv, why):
    # a negative count used to pass as no samples (flexibility then reported
    # wilson_low 2.09) and singleton --n 0 died with a ZeroDivisionError
    assert cli.dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % why


@pytest.mark.parametrize("argv, why", [
    (["saxl", "--m", "2", "--threads", "-2"], "threads must be nonnegative, not -2"),
    (["saxl", "--m", "2", "--budget", "-5"], "budget must be nonnegative, not -5"),
    (["prove", "--m", "2", "--nu", "2,1", "--budget", "-5"],
     "budget must be nonnegative, not -5"),
    (["prove", "--m", "3", "--nu", "3,0,3"], "rows must be weakly decreasing: (3, 0, 3)"),
], ids=["saxl-threads", "saxl-budget", "prove-budget", "prove-zero-row"])
def test_bad_prover_inputs_fail_closed(capsys, argv, why):
    # each used to exit 0: a negative thread count ran serially, a negative
    # budget acted as none, and 3,0,3 was read as (3, 3) and proved
    assert cli.dispatch(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % why


def test_zero_budget_is_valid(capsys, monkeypatch):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    code, doc = run(capsys, "prove", "--m", "2", "--nu", "2,1", "--budget", "0")
    assert code == 0 and doc["found"] is True
    code, doc = run(capsys, "saxl", "--m", "2", "--budget", "0", "--threads", "1")
    assert code == 0 and doc["complete"] is True


# SHA-256 of the log of a cold `saxl --m M --threads 1` run, with its
# references inlined: the search is deterministic, so a change that is only
# meant to make it faster keeps them
COLD_LOG_SHA256 = {
    1: "7850c71107971916b123ba0c99e6204f13297aed049e06ced1b83cc64bb5ce8a",
    2: "3521f288a2c4ff7d5e2f6e168b963fc3104a4f8bbbe37af93672f33a16d2bf83",
    3: "9182d09c126094fdef2dc749849a99bdeae3dc64cd6f5ae56a085b24df874659",
    4: "1a6ecdbe8da0060bf509fa1e03301a080468d539aae3951861e746340f92459e",
    5: "803e80729c4bb7d3b930739b36e187bcebd579f02ca2fae08533e00e6dbbf859",
    6: "68c32ad6a99ddeeddba5b8bb8946758ac41415e0e04a9e285840ff4dbb3f3d14",
    7: "73d724ca81692012bab108e3567bb1b300c6e03bab915ddcc0e3352a9cea1cae",
}
# and of the log as written; up to m = 4 no sub-certificate repeats, so the
# log has no reference
COLD_LOG_RAW_SHA256 = {
    **COLD_LOG_SHA256,
    5: "121955b8e5e404e719f059a22926d9c6ce708e0052f8939443277af66b7cfdd4",
    6: "9e60b04f4203c5eb2dc158f4a5c233d626a77fece28a6d0e166e548f254b5c7a",
    7: "2ecbbdbdafe6521b9e2573eada50be2dad5456abb4e4a826e241864b879085b0",
}


@pytest.mark.parametrize("m", sorted(COLD_LOG_SHA256))
def test_cold_saxl_log_is_pinned(tmp_path, capsys, m):
    code, doc = run(capsys, "saxl", "--m", str(m), "--threads", "1",
                    "--cache", str(tmp_path))
    assert code == 0 and doc["complete"] is True
    log = (tmp_path / ("m%d.jsonl" % m)).read_bytes()
    assert hashlib.sha256(expanded_bytes(log)).hexdigest() == COLD_LOG_SHA256[m]
    assert hashlib.sha256(log).hexdigest() == COLD_LOG_RAW_SHA256[m]


def test_distance(capsys):
    code, doc = run(capsys, "distance", "--lambda", "3,1", "--mu", "2,2")
    assert code == 0
    assert doc["distance"] == 1


def test_exceptions(capsys):
    code, doc = run(capsys, "exceptions", "--n", "4")
    assert code == 0
    assert doc["covering"] == []
    code2, doc2 = run(capsys, "exceptions", "--n", "3")
    assert code2 == 0
    assert doc2["covering"]
    code0, doc0 = run(capsys, "exceptions", "--n", "0")
    assert code0 == 0 and doc0["covering"] == [""] and doc0["exception"] is False


def test_exceptions_rejects_a_negative_n(capsys):
    # n = -3 has no partitions, and the empty scan once exited 0 with
    # "exception": true, a counterexample claimed at a size that does not exist
    assert cli.dispatch(["exceptions", "--n", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("kind, meta", [("HSum", {}), ("VVHSum", {"vertical": []})])
def test_verify_cert_rejects_children_of_another_arity(tmp_path, capsys, kind, meta):
    # g((1,1); (1,1), (1,1)) = 0; the 4-ary child's extra factor used to be
    # dropped when the children's goals were summed
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({
        "kind": kind, "goal": ["1,1", "1,1", "1,1"], "meta": meta,
        "children": [
            {"kind": "OracleLeaf", "goal": ["", "", ""], "children": [], "meta": {}},
            {"kind": "SymmetricCube", "goal": ["1,1", "1,1", "1,1", "1,1"],
             "children": [], "meta": {}},
        ],
    }))
    code, doc = run(capsys, "verify-cert", "--file", str(path))
    assert code == 0
    assert doc["ok"] is False
