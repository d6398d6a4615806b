import json

import pytest
from click.testing import CliRunner

from ausglue.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def test_ar_dot_a3(runner):
    r = runner.invoke(main, ["ar", "--dynkin", "A3"])
    assert r.exit_code == 0
    assert r.output.startswith("digraph ar {")
    assert r.output.count("[label=") == 6
    assert r.output.count("->") == 6  # linear A3 AR quiver has 6 arrows


def test_ar_dot_a1(runner):
    r = runner.invoke(main, ["ar", "--dynkin", "A1"])
    assert r.exit_code == 0
    assert r.output.count("[label=") == 1
    assert "->" not in r.output


def test_ar_glued_d4(runner):
    r = runner.invoke(main, ["ar", "--dynkin", "D4-out", "--glued",
                             "--k", "1"])
    assert r.exit_code == 0
    assert r.output.count("[label=") == 24
    assert r.output.count("->") == 33
    assert '"I_1[0]" -> "P_2[1]";' in r.output


def test_ar_json_and_dot_files(runner, tmp_path):
    dot = tmp_path / "q.dot"
    js = tmp_path / "q.json"
    r = runner.invoke(main, ["ar", "--dynkin", "A2", "--dot", str(dot),
                             "--json", str(js)])
    assert r.exit_code == 0 and r.output == ""
    assert dot.read_text().startswith("digraph ar {")
    doc = json.loads(js.read_text())
    assert len(doc["vertices"]) == 3
    assert len(doc["arrows"]) == 2


def test_ar_quiver_file(runner, tmp_path):
    qf = tmp_path / "a2.quiver"
    qf.write_text("quiver\narrow a 1 2\n")
    r = runner.invoke(main, ["ar", "--quiver-file", str(qf)])
    assert r.exit_code == 0
    assert r.output.count("[label=") == 3


def test_verify_json_schema_and_exit_zero(runner):
    r = runner.invoke(main, ["verify", "--dynkin", "A3", "--k", "1"])
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert set(doc) == {"input", "parameters", "stats", "claims", "passed"}
    assert doc["passed"] is True
    assert doc["parameters"] == {"k": 1, "n": 1}
    for c in doc["claims"]:
        assert {"id", "paper_ref", "expected", "computed", "status"} <= set(c)


def test_verify_out_file(runner, tmp_path):
    out = tmp_path / "rep.json"
    r = runner.invoke(main, ["verify", "--dynkin", "A2", "--k", "0",
                             "-o", str(out)])
    assert r.exit_code == 0
    assert json.loads(out.read_text())["passed"] is True


def test_verify_byte_stable(runner):
    args = ["verify", "--dynkin", "A3-alternating", "--k", "1"]
    r1 = runner.invoke(main, args)
    r2 = runner.invoke(main, args)
    assert r1.output == r2.output and r1.exit_code == r2.exit_code == 0


def test_verify_nakayama_and_auslander(runner):
    r = runner.invoke(main, ["verify", "--nakayama", "4,3", "--k", "1",
                             "--n", "2"])
    assert r.exit_code == 0
    doc = json.loads(r.output)
    assert doc["stats"]["gldim_gamma"] == 7
    r = runner.invoke(main, ["verify", "--auslander-of", "A2", "--k", "0",
                             "--n", "2"])
    assert r.exit_code == 0


def test_verify_failure_exits_one(runner, monkeypatch):
    import ausglue.cli as climod

    class FakeReport:
        passed = False

        def to_dict(self):
            return {"passed": False}

    monkeypatch.setattr(climod, "verify_theorem_dynkin",
                        lambda *a, **kw: FakeReport())
    r = runner.invoke(main, ["verify", "--dynkin", "A2", "--k", "1"])
    assert r.exit_code == 1


@pytest.mark.parametrize("args", [
    ["ar"],
    ["ar", "--dynkin", "A3", "--quiver-file", "x"],
    ["ar", "--dynkin", "B9"],
    ["ar", "--dynkin", "A3", "--field", "six"],
    ["ar", "--quiver-file", "/nonexistent/file"],
    ["verify", "--k", "1"],
    ["verify", "--dynkin", "A3", "--k", "1", "--n", "2"],
    ["verify", "--nakayama", "4,3", "--k", "1"],
    ["verify", "--nakayama", "4", "--k", "1", "--n", "2"],
    ["verify", "--auslander-of", "A1", "--k", "1", "--n", "0"],
    ["angles", "--dynkin", "A3"],
    ["angles"],
], ids=lambda a: " ".join(a))
def test_invalid_input_exits_two(runner, args):
    r = runner.invoke(main, args)
    assert r.exit_code == 2
    assert "error:" in r.stderr


@pytest.mark.parametrize("text, message", [
    ("quiver\narrow a 1 1\n", "oriented cycle without relations"),
    ("quiver\narrow a 1 2\narrow b 2 1\n",
     "oriented cycle without relations"),
    ("quiver\narrow\n", "'arrow'"),
    ("quiver\narrow a 1\n", "'arrow a 1'"),
    ("quiver\narrow a 1 2\nrelation 1*zz\n", "unknown arrow 'zz'"),
    ("quiver\n", "no vertices"),
    # finite-dimensional (ab = ba = 0), but cyclic
    ("quiver\narrow a 1 2\narrow b 2 1\nrelation a.b\nrelation b.a\n",
     "cyclic quivers are out of scope"),
], ids=["loop", "oriented-cycle", "bare-arrow", "short-arrow",
        "unknown-relation-arrow", "no-arrows", "cycle-with-relations"])
def test_bad_quiver_file_exits_two(runner, tmp_path, text, message):
    qf = tmp_path / "bad.quiver"
    qf.write_text(text)
    r = runner.invoke(main, ["verify", "--quiver-file", str(qf), "--k", "1",
                             "--n", "2"])
    assert r.exit_code == 2
    assert "error:" in r.stderr
    assert message in r.stderr


def test_field_env_override(runner, monkeypatch):
    monkeypatch.setenv("AUSGLUE_FIELD", "six")
    r = runner.invoke(main, ["ar", "--dynkin", "A2"])
    assert r.exit_code == 2
    monkeypatch.setenv("AUSGLUE_FIELD", "QQ")
    r = runner.invoke(main, ["ar", "--dynkin", "A2"])
    assert r.exit_code == 0


def test_angles_output(runner):
    r = runner.invoke(main, ["angles", "--auslander-of", "A3"])
    assert r.exit_code == 0
    lines = r.output.strip().splitlines()
    assert len(lines) == 4
    assert "P_I_1 -> P_P_1 -> P_P_2 -> I_S_2 -> P_I_1[2]" in lines


def test_angles_nakayama(runner):
    r = runner.invoke(main, ["angles", "--nakayama", "4,3"])
    assert r.exit_code == 0
    lines = r.output.strip().splitlines()
    assert lines and all("[2]" in ln for ln in lines)
