"""Golden reports: `ausglue verify` must keep its JSON byte for byte.

Each hash is the sha256 of `json.dumps(report.to_dict(), indent=2)`, the
CLI's stdout without its final newline, recorded from a trusted commit.
A refactor that changes any claim, witness, statistic or key order shows
up here.  Regenerate a hash only when a report is meant to change.
"""

import hashlib

import pytest
from click.testing import CliRunner

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
]


@pytest.mark.parametrize("args, digest", GOLDEN)
def test_verify_report_is_byte_identical(args, digest, monkeypatch):
    monkeypatch.delenv("AUSGLUE_FIELD", raising=False)
    r = CliRunner().invoke(main, ["verify"] + args)
    assert r.exit_code == 0, r.output
    assert r.output.endswith("}\n")
    assert hashlib.sha256(r.output[:-1].encode()).hexdigest() == digest
