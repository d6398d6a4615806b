"""One benchmark sample, run in a fresh interpreter by run.py.

    python3 verdictbench/sample.py --root . [--workload W --seed S] [--trace]

(--input KEY in place of --seed names the input directly; record.py uses it.)

Times `import ausglue` from ROOT/src.  Without --workload that is all (a
set-up probe).  With one, it then times a single verdict, input spec to
serialised report, and prints one JSON line with `setup_s`, `verdict_s`,
`peak_rss_mb`, `passed`, `input`, `sha256` and, under --trace, the
per-layer `trace`.  Exit code 3 means the program could not be imported.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time

from workloads import WORKLOADS


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--input")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    src = os.path.realpath(os.path.join(args.root, "src"))
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    try:
        import ausglue
    except ImportError as e:
        print("cannot import ausglue from %s: %s" % (src, e), file=sys.stderr)
        return 3
    setup_s = time.perf_counter() - t0
    if not os.path.realpath(ausglue.__file__).startswith(src + os.sep):
        print("ausglue imported from %s, not %s" % (ausglue.__file__, src),
              file=sys.stderr)
        return 3
    out = {"setup_s": setup_s}
    if args.workload is not None:
        w = WORKLOADS[args.workload]
        key = args.input or w.input_key(args.seed)
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        t1 = time.perf_counter()
        text, passed = w.verdict(ausglue, key)
        verdict_s = time.perf_counter() - t1
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out.update(verdict_s=verdict_s, peak_rss_mb=rss_kb / 1024.0,
                   passed=passed, input=key,
                   sha256=hashlib.sha256(text.encode()).hexdigest())
        if tracer is not None:
            out["trace"] = tracer.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
