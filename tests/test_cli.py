import json
import os

import pytest

from kronwork import cli
from kronwork.verify import verify_certificate
from kronwork.certificates import Certificate


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


def test_support(capsys):
    code, doc = run(capsys, "support", "--lambda", "2,1")
    assert code == 0
    assert sorted(doc["support"]) == ["1,1,1", "2,1", "3"]


def test_prove_and_verify_cert(tmp_path, capsys):
    code, doc = run(capsys, "prove", "--m", "4", "--nu", "4,3,2,1")
    assert code == 0
    assert doc["found"] is True and doc["verified"] is True
    cert = Certificate.from_dict(doc["certificate"])
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
], ids=["no-children", "int-goal", "not-an-object", "deep-nesting"])
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


def test_saxl_small(tmp_path, capsys):
    code, doc = run(capsys, "saxl", "--m", "3", "--cache", str(tmp_path))
    assert code == 0
    assert doc["complete"] is True
    assert doc["proved"] == doc["total"]


def _cache_files(cache):
    out = {}
    for name in os.listdir(cache):
        with open(os.path.join(cache, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_saxl_pool_and_serial_write_the_same_cache(tmp_path, capsys):
    serial, pool = str(tmp_path / "serial"), str(tmp_path / "pool")
    assert run(capsys, "saxl", "--m", "4", "--threads", "1", "--cache", serial) == \
        run(capsys, "saxl", "--m", "4", "--threads", "2", "--cache", pool)
    files = _cache_files(serial)
    assert len(files) == 42 and all(name.endswith(".json") for name in files)
    assert _cache_files(pool) == files


def test_decompose(capsys):
    code, doc = run(capsys, "decompose", "--m", "12", "--k", "3", "--i", "1")
    assert code == 0
    assert doc["m"] == 12


def test_sample_deterministic(capsys):
    args = ["sample", "--measure", "plancherel", "--n", "10", "--samples", "30", "--seed", "7"]
    code, doc = run(capsys, *args)
    code2, doc2 = run(capsys, *args)
    assert code == code2 == 0
    assert doc == doc2


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
    assert "split_rate" in doc["stats"]


def test_experiment_fourth_power(capsys):
    code, doc = run(capsys, "experiment", "--kind", "fourth-power", "--n", "55", "--seed", "1")
    assert code == 0
    assert doc["verified"] is True


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
