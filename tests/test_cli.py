import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from ausglue import cli, glue
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


# quiver files, written to a temporary file by name: two semisimple
# ambients (gldim 0), a representation-infinite hereditary one, the
# extended Dynkin quiver of type A~2, and linear A3 with its path of
# length 2 killed (gldim 2)
QUIVER_FILES = {
    "a1.quiver": "dynkin A 1\n",
    "killed-arrow.quiver": "quiver\narrow a0 2 4\nrelation -1*a0\n",
    "a2-tilde.quiver": "quiver\narrow a0 1 3\narrow a1 2 3\narrow a2 1 2\n",
    "a3-killed-path.quiver": ("quiver\narrow a0 1 2\narrow a1 2 3\n"
                              "relation a0.a1\n"),
}


def _with_quiver_files(tmp_path, args):
    """args with each QUIVER_FILES name replaced by the path of a file
    holding its text."""
    for name, text in QUIVER_FILES.items():
        (tmp_path / name).write_text(text)
    return [str(tmp_path / a) if a in QUIVER_FILES else a for a in args]


@pytest.mark.parametrize("args", [
    ["ar"],
    ["ar", "--dynkin", "A3", "--quiver-file", "x"],
    ["ar", "--dynkin", "B9"],
    ["ar", "--dynkin", "A"],
    ["ar", "--dynkin", "A3", "--field", "six"],
    ["ar", "--quiver-file", "/nonexistent/file"],
    ["verify", "--k", "1"],
    ["verify", "--dynkin", "A3", "--k", "1", "--field", ""],
    ["verify", "--dynkin", "A3", "--k", "1", "--n", "2"],
    ["verify", "--nakayama", "4,3", "--k", "1"],
    ["verify", "--nakayama", "4", "--k", "1", "--n", "2"],
    ["verify", "--auslander-of", "A1", "--k", "1", "--n", "0"],
    # the tau_n-closure of the injectives is not maximal
    ["verify", "--nakayama", "3,5", "--k", "1", "--n", "2"],
    ["verify", "--auslander-of", "A2", "--k", "1", "--n", "3"],
    # Auslander(D4) is not representation-directed: a knitted module has
    # a 2-dimensional End
    ["verify", "--auslander-of", "D4", "--k", "1", "--n", "2"],
    ["angles", "--dynkin", "A3"],
    ["angles"],
    pytest.param(["verify", "--dynkin", "A3", "--k", "1",
                  "--field", str(10 ** 400 + 1)], id="400-digit-field"),
    ["verify", "--auslander-of", "A1", "--k", "1", "--n", "2"],
    ["angles", "--auslander-of", "A1"],
    ["verify", "--quiver-file", "a1.quiver", "--k", "1", "--n", "1"],
    ["verify", "--quiver-file", "killed-arrow.quiver", "--k", "1",
     "--n", "1"],
], ids=lambda a: " ".join(a))
def test_invalid_input_exits_two(runner, tmp_path, args):
    r = runner.invoke(main, _with_quiver_files(tmp_path, args))
    assert r.exit_code == 2
    assert "error:" in r.stderr


@pytest.mark.parametrize("args, message", [
    (["verify", "--auslander-of", "A1", "--k", "1", "--n", "2"],
     "gldim 0: the algebra is semisimple"),
    (["angles", "--auslander-of", "A1"], "gldim 0: the algebra is semisimple"),
    (["verify", "--quiver-file", "killed-arrow.quiver", "--k", "1",
      "--n", "2"], "gldim 0: the algebra is semisimple"),
    (["verify", "--quiver-file", "a2-tilde.quiver", "--k", "1", "--n", "1"],
     "not representation-finite: tau gives dimension vector (7, 6, 6)"),
    (["verify", "--dynkin", "A1", "--k", "1"],
     "gldim 0: the algebra is semisimple, so there is no Ext to glue along"),
    (["ar", "--dynkin", "A1", "--glued", "--k", "1"],
     "gldim 0: the algebra is semisimple, so there is no Ext to glue along"),
    (["ar", "--quiver-file", "a3-killed-path.quiver", "--glued", "--k", "1"],
     "gldim 2: the algebra is not hereditary"),
], ids=["verify-auslander-a1", "angles-auslander-a1", "killed-arrow",
        "a2-tilde-n1", "verify-dynkin-a1", "ar-glued-a1",
        "ar-glued-gldim-2"])
def test_out_of_scope_ambient_is_refused_with_its_reason(runner, tmp_path,
                                                         args, message):
    """verify, angles and ar --glued refuse a semisimple ambient with the
    same reason, before evaluating any claim, and ar --glued and verify
    --dynkin, which glue along Ext^1, state any other gldim but 1; at
    n = 1 a representation-infinite hereditary ambient is refused at the
    first tau-orbit module above Ovsienko's bound."""
    r = runner.invoke(main, _with_quiver_files(tmp_path, args))
    assert r.exit_code == 2
    assert "error: " + message in r.stderr


@pytest.mark.parametrize("args, message", [
    (["verify", "--nakayama", "4,3", "--k", "1", "--n", "0"], "n = 0: "),
    (["verify", "--nakayama", "4,3", "--k", "-1", "--n", "2"], "k = -1: "),
    (["verify", "--dynkin", "A3", "--k", "-1"], "k = -1: "),
    (["ar", "--dynkin", "A3", "--glued", "--k", "-1"], "k = -1: "),
], ids=lambda a: " ".join(a) if isinstance(a, list) else None)
def test_bad_k_or_n_is_refused_before_any_work(runner, monkeypatch, args,
                                               message):
    """A negative k or an n below 1 is refused by its value before any
    global dimension, knitting or tau_n-closure."""
    def forbidden(*a, **kw):
        raise AssertionError("work done before the k and n checks")
    for name in ("gldim", "knit", "cluster_tilting_from_tau_n"):
        monkeypatch.setattr(glue, name, forbidden)
    r = runner.invoke(main, args)
    assert r.exit_code == 2
    assert r.stderr.startswith("error: " + message)


@pytest.mark.parametrize("args, message", [
    (["verify", "--auslander-of", "E7", "--k", "-1", "--n", "2"], "k = -1: "),
    (["verify", "--nakayama", "4,3", "--k", "1", "--n", "0"], "n = 0: "),
], ids=lambda a: " ".join(a) if isinstance(a, list) else None)
def test_verify_checks_k_and_n_before_building_the_ambient(runner, monkeypatch,
                                                          args, message):
    """verify refuses a bad k or n by its value before it builds the
    input category, which for --auslander-of knits the ambient and builds
    its hom table."""
    def forbidden(*a, **kw):
        raise AssertionError("ambient built before the k and n checks")
    monkeypatch.setattr(cli, "_ambient", forbidden)
    r = runner.invoke(main, args)
    assert r.exit_code == 2
    assert r.stderr.startswith("error: " + message)


# not representation-directed: two knitted indecomposables share a
# dimension vector.  verify --n 2 knits nothing and refuses it because the
# tau_2-closure of the injectives misses P_2.
NOT_DIRECTED = ("quiver\narrow a0 2 3\narrow a1 1 2\narrow a2 2 4\n"
                "arrow a3 3 4\nrelation a1.a0\n")
NOT_DIRECTED_END = ("not representation-directed: two knitted "
                    "indecomposables have dimension vector (1, 1, 0, 1)")
NOT_DIRECTED_VERIFY = "not a generator: P_2 is not among them"


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
    (NOT_DIRECTED, NOT_DIRECTED_VERIFY),
    ("dynkin A\n", "dynkin header needs letter and rank"),
    ("dynkin A 3 linear junk more\n", "'dynkin A 3 linear junk more'"),
], ids=["loop", "oriented-cycle", "bare-arrow", "short-arrow",
        "unknown-relation-arrow", "no-arrows", "cycle-with-relations",
        "not-directed", "dynkin-without-rank", "dynkin-extra-tokens"])
def test_bad_quiver_file_exits_two(runner, tmp_path, text, message):
    qf = tmp_path / "bad.quiver"
    qf.write_text(text)
    r = runner.invoke(main, ["verify", "--quiver-file", str(qf), "--k", "1",
                             "--n", "2"])
    assert r.exit_code == 2
    assert "error:" in r.stderr
    assert message in r.stderr


def test_ar_not_directed_exits_two(runner, tmp_path):
    """Knitting the AR quiver of an algebra that is not representation-
    directed meets the same refusal as verify does."""
    qf = tmp_path / "bad.quiver"
    qf.write_text(NOT_DIRECTED)
    r = runner.invoke(main, ["ar", "--quiver-file", str(qf)])
    assert r.exit_code == 2
    assert "error:" in r.stderr
    assert NOT_DIRECTED_END in r.stderr


# gldim 2 and representation-infinite: its tau^-1 orbits grow without end
OVSIENKO_PROBE = ("quiver\narrow a0 1 4\narrow a1 1 2\narrow a2 4 2\n"
                  "arrow a3 2 3\nrelation a2.a3\n")
# D~4 with a tail of zero relations: gldim 3 and representation-infinite
D4_TILDE_TAIL = ("quiver\narrow b1 a1 c\narrow b2 a2 c\narrow b3 a3 c\n"
                 "arrow b4 a4 c\narrow t0 u0 u1\narrow t1 u1 u2\n"
                 "arrow t2 u2 a1\nrelation t0.t1\nrelation t1.t2\n")


@pytest.mark.parametrize("text, args, messages", [
    pytest.param(OVSIENKO_PROBE,
                 ["verify", "--k", "1", "--n", "2", "--field", "3"],
                 ["error: not a generator: P_1 is not among them"],
                 id="verify"),
    pytest.param(OVSIENKO_PROBE, ["ar"],
                 ["error: not representation-directed:",
                  "dimension vector (6, 6, 7, 0)"], id="ar"),
    pytest.param(D4_TILDE_TAIL, ["ar"],
                 ["error: not representation-directed:",
                  "dimension vector (3, 7, 2, 3, 3, 0, 0, 1) has a "
                  "coordinate above 6"], id="ar-gldim-3"),
])
def test_ovsienko_bound_ends_knitting(runner, tmp_path, text, args,
                                      messages):
    """Knitting stops at the first module with a coordinate above 6, which
    no directing module has, at any global dimension.  verify --n 2 knits
    nothing: the tau_2-closure of the injectives, which ends, misses
    P_1."""
    qf = tmp_path / "probe.quiver"
    qf.write_text(text)
    r = runner.invoke(main, [args[0], "--quiver-file", str(qf)] + args[1:])
    assert r.exit_code == 2
    for message in messages:
        assert message in r.stderr


def _package_errors():
    from ausglue import errors
    return [c for c in vars(errors).values()
            if isinstance(c, type) and issubclass(c, Exception)
            and c is not errors.AusglueError]


@pytest.mark.parametrize("exc", _package_errors(), ids=lambda c: c.__name__)
def test_every_package_error_exits_two(runner, monkeypatch, exc):
    """Whatever package exception a command meets, it ends in `error:` and
    exit 2, not in a traceback and not in exit 1 (a failed claim)."""
    import ausglue.cli as climod
    from ausglue.errors import AusglueError, Truncated
    assert issubclass(exc, AusglueError)

    def refuse(*a, **kw):
        raise exc(7) if exc is Truncated else exc("refused")
    monkeypatch.setattr(climod, "verify_theorem_dynkin", refuse)
    r = runner.invoke(main, ["verify", "--dynkin", "A2", "--k", "1"])
    assert r.exit_code == 2
    assert r.stderr.startswith("error: ")


KRONECKER = "quiver\narrow a 1 2\narrow b 1 2\n"


@pytest.mark.parametrize("text", [
    KRONECKER, KRONECKER + "arrow c 2 3\nrelation 1*a.c;-1*b.c\n",
], ids=["kronecker", "kronecker-quotient"])
@pytest.mark.parametrize("args", [
    ["ar"], ["verify", "--k", "1", "--n", "2"],
    ["verify", "--k", "1", "--n", "1"],
], ids=["ar", "verify", "verify-n1"])
def test_multiple_arrow_exits_two(runner, tmp_path, text, args):
    """A double Gabriel arrow is rejected before knitting or a tau_n orbit,
    either of which would otherwise run on through the growing orbits.
    For n = 1 the quotient, of global dimension 2, is rejected before
    either, by its global dimension."""
    qf = tmp_path / "kron.quiver"
    qf.write_text(text)
    r = runner.invoke(main, args + ["--quiver-file", str(qf)])
    assert r.exit_code == 2
    if args[-1] == "1" and "relation" in text:
        assert "gldim 2 exceeds n = 1" in r.stderr
    else:
        assert "representation-infinite: 2 Gabriel arrows 1 -> 2" in r.stderr


SYMPY_BLOCKED = """
import sys
sys.modules["sympy"] = None  # any import of sympy now raises ImportError
from ausglue import (DynkinSpec, auslander_category,
                     category_from_presentation, default_field,
                     hereditary_presentation, parse_quiver_file,
                     verify_theorem_higher)
from ausglue.errors import AusglueError
field = default_field()
aus, _ = auslander_category(category_from_presentation(
    hereditary_presentation(DynkinSpec("A", 3)), field))
print(verify_theorem_higher(aus, 1, 2).passed)
try:
    verify_theorem_higher(category_from_presentation(
        parse_quiver_file(sys.argv[1]), field), 1, 2)
except AusglueError as e:
    print(e)
"""


def test_import_leaves_sympy_unloaded():
    """No code path imports sympy: with every sympy import made to fail,
    Auslander(A3) with n = 2 still passes, through the tau_n-closure and
    the tau_d-closure, and the not-directed quiver is still refused."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", SYMPY_BLOCKED, NOT_DIRECTED],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["True", NOT_DIRECTED_VERIFY]


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


@pytest.mark.parametrize("spec", ["5,3", "4,2"])
def test_angles_refused_as_verify_refuses(runner, spec):
    """angles runs the checks of verify --n 2 before listing anything: a
    linear Nakayama algebra of global dimension 3 is refused by both."""
    for args in (["angles"], ["verify", "--k", "1", "--n", "2"]):
        r = runner.invoke(main, args + ["--nakayama", spec])
        assert r.exit_code == 2
        assert r.stderr == "error: gldim 3 exceeds n = 2\n"
        assert r.stdout == ""
