"""Golden output: the CLI must keep every report, quiver and 4-angle
listing byte for byte.

Each `verify` hash is the sha256 of `json.dumps(report.to_dict(), indent=2)`,
the CLI's stdout without its final newline; each `ar` and `angles` hash is
the sha256 of the whole file or stdout.  All were recorded from a trusted
commit.  A refactor that changes any claim, witness, statistic, vertex,
arrow, angle or key order shows up here.  Regenerate a hash only when an
output is meant to change.
"""

import hashlib
import importlib.util
import json
import pathlib

import pytest
from click.testing import CliRunner

import ausglue
from ausglue.cli import main

GOLDEN = [
    pytest.param(
        ["--dynkin", "A3", "--k", "1"],
        "cbe3e86f14f8436b3a6352eb8a22571903f2f90694c72c5d96b4ed3be293080a",
        id="a3-k1"),
    pytest.param(
        ["--dynkin", "A3-alternating", "--k", "2", "--field", "5"],
        "d2343e40872aa4d05886c6d6fe79b7b0e6f38f59d82a43109e47cc1bb0e24883",
        id="a3-alternating-k2-gf5"),
    pytest.param(
        ["--nakayama", "4,3", "--k", "1", "--n", "2"],
        "fa0ae243f3054ed7808def4d499eadd17270b189d0fdf0986ded5f629c76bab0",
        id="nakayama-4-3-k1-n2"),
    pytest.param(
        ["--auslander-of", "A3", "--k", "1", "--n", "2"],
        "cff831705acea648f0f2a0d78c43f043dfd2ef351bf13ca534fe70604ac9d6c6",
        id="auslander-a3-k1-n2"),
    # 2-cluster tilting by gldim End(M) = 3, though knitting the ambient
    # stops at Ovsienko's bound
    pytest.param(
        ["--auslander-of", "A5", "--k", "1", "--n", "2"],
        "0dbbd2f2a9a754eb409011a3c376fd0f489b9bd94df863c1a96546edc6caeb41",
        id="auslander-a5-k1-n2"),
    # the default inputs of the two benchmark workloads, whose hashes
    # verdictbench/expected.json records under "default"
    pytest.param(
        ["--dynkin", "A4", "--k", "4", "--field", "QQ"],
        "84ed735d86979699ba0b33aa10c8b7849e0795ba9b94ca03ac734f70cbc8aa04",
        id="deep-tower-a4-k4-qq"),
    pytest.param(
        ["--auslander-of", "A4", "--k", "1", "--n", "2"],
        "4bcf821c626a6d40271d717007fff595f3502c3087a7c892eede8abfdf661ca0",
        id="higher-auslander-a4-k1-n2"),
]


@pytest.mark.parametrize("args, digest", GOLDEN)
def test_verify_report_is_byte_identical(args, digest, monkeypatch):
    monkeypatch.delenv("AUSGLUE_FIELD", raising=False)
    r = CliRunner().invoke(main, ["verify"] + args)
    assert r.exit_code == 0, r.output
    assert r.output.endswith("}\n")
    assert hashlib.sha256(r.output[:-1].encode()).hexdigest() == digest


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_ar_glued_dot_and_json_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.delenv("AUSGLUE_FIELD", raising=False)
    dot, js = tmp_path / "q.dot", tmp_path / "q.json"
    r = CliRunner().invoke(main, ["ar", "--dynkin", "D4-out", "--glued",
                                  "--k", "1", "--dot", str(dot),
                                  "--json", str(js)])
    assert r.exit_code == 0 and r.output == ""
    assert _sha(dot.read_text()) == \
        "77b46e5f82c64448f977be4f70e1c12766829b200d7011e4ef1332c1d3935772"
    assert _sha(js.read_text()) == \
        "cf97453e695ad6183595fd49eb2d307e1a0196566e3e2c23707dbdb7ae09b3e1"


STDOUT_GOLDEN = [
    pytest.param(
        ["ar", "--dynkin", "A3-alternating"],
        "ed6dec049f0cf75f2016886cf9e76274014d108761642814f8f463487848baf5",
        id="ar-a3-alternating"),
    pytest.param(
        ["angles", "--auslander-of", "A3"],
        "c9121d18f9cbdffc73d153e2723b13f041e743f830738ee3119a4bd99d781f89",
        id="angles-auslander-a3"),
    pytest.param(
        ["angles", "--nakayama", "4,3"],
        "fabb5770ac4aba6a2c879457837dff846f2c8591221dd2c3e6a59cd5e434dc68",
        id="angles-nakayama-4-3"),
]


@pytest.mark.parametrize("args, digest", STDOUT_GOLDEN)
def test_stdout_is_byte_identical(args, digest, monkeypatch):
    monkeypatch.delenv("AUSGLUE_FIELD", raising=False)
    r = CliRunner().invoke(main, args)
    assert r.exit_code == 0, r.output
    assert _sha(r.output) == digest


BENCH = pathlib.Path(__file__).resolve().parent.parent / "verdictbench"


def _bench_workloads():
    """verdictbench/workloads.py, loaded by path: verdictbench is a
    directory of scripts, not a package."""
    spec = importlib.util.spec_from_file_location(
        "verdictbench_workloads", BENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.WORKLOADS


def _bench_grid():
    """(workload, input key, hash) for every recorded input of the
    workloads the benchmark lists."""
    expected = json.loads((BENCH / "expected.json").read_text())
    return [pytest.param(w, key, digest, id="%s-%s" % (w.name, key))
            for w in _bench_workloads().values() if w.listed
            for key, digest in expected[w.name].items()]


@pytest.mark.parametrize("workload, key, digest", _bench_grid())
def test_bench_grid_report_is_byte_identical(workload, key, digest):
    """Every input the benchmark samples, not only the default keys above,
    gives its recorded report hash."""
    text, passed = workload.verdict(ausglue, key)
    assert passed
    assert _sha(text) == digest
