"""Record the report hash of every input a seed can give.

    python3 verdictbench/record.py [WORKLOAD ...]

Runs each input of the named workloads (default: all) once in a fresh
interpreter through sample.py, requires every claim to pass, checks the
default input's hash against the stdout of `ausglue verify` run from
ROOT/src, and merges the hashes into verdictbench/expected.json.  Record
only on a commit whose reports are trusted: the benchmark counts every
later difference as a failed sample.
"""

import hashlib
import json
import os
import subprocess
import sys
import time

from run import EXPECTED, ROOT, child_env, run_child
from workloads import WORKLOADS


def cli_hash(w):
    env = child_env()
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("AUSGLUE_FIELD", None)
    proc = subprocess.run(
        [sys.executable, "-m", "ausglue.cli", "verify"] + w.cli_args(),
        cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return hashlib.sha256(proc.stdout.removesuffix("\n").encode()).hexdigest()


def record(w):
    hashes = {}
    for key in w.input_keys():
        out, error = run_child(["--workload", w.name, "--input", key],
                               time.monotonic() + 600)
        if out is None or not out["passed"]:
            raise SystemExit("%s %s: %s" % (w.name, key,
                                            error or "a claim failed"))
        hashes[key] = out["sha256"]
        print("%s %s %.2f s %s" % (w.name, key, out["verdict_s"],
                                   out["sha256"]), flush=True)
    if cli_hash(w) != hashes["default"]:
        raise SystemExit("%s: library and CLI reports differ" % w.name)
    return hashes


def main(names):
    expected = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED, encoding="utf-8") as fh:
            expected = json.load(fh)
    for name in names or sorted(WORKLOADS):
        expected[name] = record(WORKLOADS[name])
        with open(EXPECTED, "w", encoding="utf-8") as fh:
            json.dump(expected, fh, indent=2, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
