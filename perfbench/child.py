"""One benchmark child: a fresh process that imports cobcalc and runs one
workload, then prints one JSON line describing what it measured.

    python3 perfbench/child.py --workload NAME --seed N --mode MODE [--trace-out PATH]

Modes:
  setup  import cobcalc and make the workload's construction calls only;
  run    the same, then one ``cobcalc.cli.main(argv)`` call;
  trace  as ``run``, with every traced target wrapped (see spans.py).

``setup_s`` is the import plus the construction calls.  ``wall_s`` is the
import plus main, without the construction calls, whose objects are dropped
before main starts.  In trace mode, installing the wrappers is in neither.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

from workloads import WORKLOADS  # noqa: E402

SYSTEM_FORMAT = (
    "the rows x cols matrix passed to cobcalc.linalg.kernel_int(rows, cols), as "
    "[row, col, value] triples of its nonzero entries, each value an integer or "
    "'p/q' string; kernel_dim is the number of kernel vectors it returned"
)


def output_hash(report: dict) -> str:
    """sha256 of the report without its top-level ``config`` key, which only
    echoes the inputs."""
    body = {k: v for k, v in report.items() if k != "config"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--trace-out", help="trace mode: where to write the spans")
    ap.add_argument("--system-out", help="trace mode: where to write the largest kernel_int system")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    result: dict = {"workload": wl.name, "mode": args.mode}

    t0 = perf_counter()
    import cobcalc
    import cobcalc.cli
    t1 = perf_counter()

    tracer = None
    if args.mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install(cobcalc)
        setup_span, main_span = tracer.span("setup"), tracer.span("main")
    else:
        setup_span = main_span = contextlib.nullcontext()

    t_setup = perf_counter()
    with setup_span:
        built = wl.setup(cobcalc)
    t2 = perf_counter()
    result["setup_s"] = (t1 - t0) + (t2 - t_setup)
    del built
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    if tracer is not None:
        tracer.reset_facts()
    out, err = io.StringIO(), io.StringIO()
    t3 = perf_counter()
    with main_span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cobcalc.cli.main(wl.argv(args.seed))
        except Exception:  # a crash is a failed run, not a lost one
            rc, result["error"] = None, traceback.format_exc(limit=-3)
    t4 = perf_counter()
    result["wall_s"] = (t1 - t0) + (t4 - t3)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["rc"] = rc
    result["stderr_tail"] = err.getvalue()[-500:]
    try:
        report = json.loads(out.getvalue())
        result["pass"] = report.get("pass")
        result["hash"] = output_hash(report)
    except ValueError as exc:
        result["error"] = result.get("error") or f"stdout is not JSON: {exc}"

    if tracer is not None:
        result["metrics"] = tracer.summary()
        result["fired"] = sorted(tracer.fired())
        result["missing"] = tracer.missing
        if args.trace_out:
            tracer.write(args.trace_out, {"workload": wl.name, "seed": args.seed})
        if args.system_out and tracer.largest_system is not None:
            with open(args.system_out, "w") as fh:
                json.dump(dict(tracer.largest_system, workload=wl.name, format=SYSTEM_FORMAT), fh)
                fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
