"""Time-to-verdict benchmark for ausglue (see README.md in this directory).

    python3 verdictbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: each sample is one verdict in its own fresh
interpreter (sample.py), started only after the previous one has exited.
No threads, no pools.  A run starts with one discarded set-up probe (it
pays the .pyc compile) and SETUP_PROBES timed ones, then takes samples
until the next round would end after --seconds.  `--workload all`
interleaves the workloads listed in BENCHMARK.json round-robin.

Every sample must pass every claim and reproduce the report hash recorded
in expected.json for its input; otherwise it counts as failed.  The last
line of stdout is the result object; the lines before it hold every
sample and the per-workload statistics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SAMPLE = os.path.join(HERE, "sample.py")
EXPECTED = os.path.join(HERE, "expected.json")
SETUP_PROBES = 15
# a run must exit within 180 s of a 60 s --seconds; a sample still running
# this long after --seconds is killed and counted as failed
SLACK_S = 110

END_TO_END = [("setup_s", "s"), ("verdict_s", "s"), ("peak_rss_mb", "MB")]

# (metric, unit) in BENCHMARK.json order; the layer name is everything
# before the last dot, the field after it.
PER_LAYER = [
    ("tower.projective_injectives.calls", "count"),
    ("tower.projective_injectives.self_s", "s"),
    ("tower.sigma.self_s", "s"),
    ("fincat.modules_isomorphic.calls", "count"),
    ("fincat.modules_isomorphic.self_s", "s"),
    ("fincat.modules_isomorphic.hit_frac", "ratio"),
    ("fincat.hom_modules.calls", "count"),
    ("fincat.hom_modules.self_s", "s"),
    ("fincat.hom_modules.unknowns", "count"),
    ("fincat.radical_rows.calls", "count"),
    ("fincat.radical_rows.self_s", "s"),
    ("homology.min_proj_resolution.calls", "count"),
    ("homology.min_proj_resolution.self_s", "s"),
    ("homology.min_proj_resolution.summands", "count"),
    ("homology.gldim.self_s", "s"),
    ("homology.domdim.self_s", "s"),
    ("homology.tau_n.self_s", "s"),
    ("homology.ext_space.calls", "count"),
    ("homology.ext_space.self_s", "s"),
    ("homology.lift_chain_map.calls", "count"),
    ("homology.lift_chain_map.self_s", "s"),
    ("glue.build_glued.self_s", "s"),
    ("knitting.knit.calls", "count"),
    ("knitting.knit.self_s", "s"),
    ("knitting.knit.modules", "count"),
    ("glue.is_cluster_tilting.self_s", "s"),
    ("glue.cluster_tilting_from_tau_n.self_s", "s"),
    ("glue.endomorphism_category.self_s", "s"),
    ("glue.is_rigid.self_s", "s"),
    ("pathcat.category_from_presentation.self_s", "s"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.rref.empty_frac", "ratio"),
    ("linalg.rref.entries", "count"),
    ("linalg.mat_new.calls", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
]

# per-layer fields that count work and must repeat exactly
COUNT_FIELDS = ("calls", "hits", "unknowns", "summands", "modules", "empty",
                "entries")


class Fatal(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env():
    """Fixed hash seed, so work counts repeat; bytecode caching on, so only
    the first, discarded probe of a checkout compiles."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(args, deadline):
    """Run sample.py once; returns (output dict or None, error or None)."""
    try:
        proc = subprocess.run(
            [sys.executable, SAMPLE, "--root", ROOT] + args, cwd=ROOT,
            env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if proc.returncode == 3:
        raise Fatal(proc.stderr.strip())
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or ["exit %d"
                                                     % proc.returncode]
        return None, lines[-1]
    return json.loads(proc.stdout), None


def take_sample(name, seed, traced, expected, deadline):
    args = ["--workload", name, "--seed", str(seed)]
    out, error = run_child(args + ["--trace"] * traced, deadline)
    rec = {"workload": name, "traced": traced, "error": error}
    if out is not None:
        rec.update(out)
        want = expected.get(name, {}).get(out["input"])
        if not out["passed"]:
            rec["error"] = "a claim failed"
        elif out["sha256"] != want:
            rec["error"] = ("report hash %s, recorded %s for input %s"
                            % (out["sha256"][:12], (want or "none")[:12],
                               out["input"]))
    return rec


def measure(names, seed, seconds, trace):
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    start = time.monotonic()
    deadline = start + seconds + SLACK_S
    setups = []
    for i in range(SETUP_PROBES + 1):
        out, error = run_child([], deadline)
        if out is None:
            raise Fatal("set-up probe failed: %s" % error)
        if i:  # the first probe pays the .pyc compile
            setups.append(out["setup_s"])
    samples = []
    while True:
        t = time.monotonic()
        for name in names:
            for traced in (False, True)[:1 + trace]:
                samples.append(take_sample(name, seed, traced, expected,
                                           deadline))
        now = time.monotonic()
        if (now - start) + (now - t) > seconds or any(
                s["error"] == "timed out" for s in samples):
            break
    return setups, samples


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def high_percentile(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    pct = 100 * (n - 10) // n
    return {"p": pct,
            "value": sorted(values)[max(1, math.ceil(pct * n / 100)) - 1]}


# per-call fractions: metric field -> the tracer counter over calls
FRACTIONS = {"hit_frac": "hits", "empty_frac": "empty"}


def layer_value(trace, metric):
    layer, _, field = metric.rpartition(".")
    rec = trace.get(layer, {})
    if field in FRACTIONS:
        calls = rec.get("calls", 0)
        return rec.get(FRACTIONS[field], 0) / calls if calls else 0.0
    return rec.get(field, 0)


def summarize(name, setups, samples):
    """Statistics of one workload; returns (detail, e2e metrics, layer
    metrics or None, list of errors)."""
    mine = [s for s in samples if s["workload"] == name]
    plain = [s for s in mine if not s["traced"] and "verdict_s" in s]
    traced = [s for s in mine if s["traced"] and "verdict_s" in s]
    failed = [s for s in mine if s["error"]]
    errors = ["%s: %s" % (name, s["error"]) for s in failed]
    if not plain:
        raise Fatal("%s: no sample completed: %s" % (name, errors))
    setup = setups + [s["setup_s"] for s in mine if "setup_s" in s]
    verdict = [s["verdict_s"] for s in plain]
    e2e = {"setup_s": statistics.median(setup),
           "verdict_s": statistics.median(verdict),
           "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in plain)}
    detail = {
        "samples": len(mine), "failed_frac": len(failed) / len(mine),
        "setup_s": {"n": len(setup), "quartiles": quartiles(setup)},
        "verdict_s": {"n": len(verdict), "quartiles": quartiles(verdict),
                      "high_percentile": high_percentile(verdict),
                      "values": verdict},
        "peak_rss_mb": {"n": len(plain),
                        "values": [s["peak_rss_mb"] for s in plain]},
    }
    layers = None
    if traced:
        first = traced[0]["trace"]
        for s in traced[1:]:
            for layer, rec in s["trace"].items():
                for f in COUNT_FIELDS:
                    if rec.get(f) != first.get(layer, {}).get(f):
                        errors.append("%s: %s.%s differs between traced "
                                      "samples" % (name, layer, f))
        hashes = {s["sha256"] for s in plain + traced}
        if len(hashes) > 1:
            errors.append("%s: traced and untraced reports differ" % name)
        layers = {}
        for metric, _ in PER_LAYER:
            if metric.startswith("trace."):
                continue
            layers[metric] = statistics.median(
                layer_value(s["trace"], metric) for s in traced)
        t_verdict = statistics.median(s["verdict_s"] for s in traced)
        layers["trace.overhead_frac"] = t_verdict / e2e["verdict_s"] - 1
        layers["trace.coverage_frac"] = statistics.median(
            sum(r["self_s"] for r in s["trace"].values()) / s["verdict_s"]
            for s in traced)
        detail["traced_verdict_s"] = [s["verdict_s"] for s in traced]
        detail["layers"] = traced[0]["trace"]
    return detail, e2e, layers, errors


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = ([n for n, w in WORKLOADS.items() if w.listed]
             if args.workload == "all" else [args.workload])
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "ausglue",
                                           "__init__.py")):
            raise Fatal("no ausglue sources under %s"
                        % os.path.join(ROOT, "src"))
        setups, samples = measure(names, args.seed, args.seconds,
                                  args.trace)
        details, metrics, errors = {}, {}, []
        for name in names:
            detail, e2e, layers, errs = summarize(name, setups, samples)
            details[name] = detail
            errors += errs
            if args.trace and layers is None:
                raise Fatal("%s: no traced sample completed: %s"
                            % (name, errs))
            values = layers if args.trace else e2e
            units = dict(PER_LAYER if args.trace else END_TO_END)
            prefix = "" if len(names) == 1 else name + ":"
            for metric, unit in units.items():
                metrics[prefix + metric] = {"value": values[metric],
                                            "unit": unit}
    except Fatal as e:
        print("verdictbench: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps({"seed": args.seed, "seconds": args.seconds,
                      "errors": errors, "workloads": details,
                      "samples": [{k: v for k, v in s.items() if k != "trace"}
                                  for s in samples]}, indent=1))
    print(json.dumps({"correct": not errors, "attempted": len(samples),
                      "failed": sum(1 for s in samples if s["error"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
