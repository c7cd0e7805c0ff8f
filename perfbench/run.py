"""cobcalc benchmark: four CLI workloads, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every command runs in a fresh child
process (perfbench/child.py), one at a time, for about S seconds: a run starts
another command only if it would end by 1.1 S, and always runs one.

--trace 0 reports the end-to-end metrics, each a median over the run:
  wall_s       import cobcalc + one cobcalc.cli.main(argv) call
  setup_s      import cobcalc + the workload's construction calls (root datum,
               law, graph), from the start of every command child and from
               set-up-only children: after each command child until they have
               taken SETUP_SHARE of the run so far, and in the run's last
               seconds, which are too few for another command
  peak_rss_mb  ru_maxrss of a command child
and prints fail_ratio (failed / attempted children) with its base.

--trace 1 alternates an untraced and a traced command child and reports the
per-layer metrics of spans.py, plus trace.overhead_s (traced minus untraced
wall_s).  Spans go to .perfbench/trace/, and the largest kernel_int system of
the run to .perfbench/systems/ as sparse triples.  Counts must repeat exactly
across traced children, and across traced runs of the same workload and seed
on the same sources (cobcalc's and the benchmark's, by hash).

A command fails on a nonzero exit, an exception, "pass": false, or an output
hash (stdout JSON without its "config" key) that differs from expected.json.
Only lemma-div's samples depend on the seed, and its passing report lists
only counts, so one hash per workload holds for every seed.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Every other line is informational: a header (Python, nproc, commit,
seed, module line counts), one line per metric with median and quartiles, and
warnings about spans that were missing or never fired.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "cobcalc")
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# Share of the run given to set-up-only children, between command children.
# A set-up sample is short and noisy (about 20% within one run on a shared
# 2-core VM), so the median needs many; spread over the whole run, they see
# the host's speed drift as the command children do.
SETUP_SHARE = 0.2
RUN_LIMIT_S = 170.0  # a run must end within 180 s; children are killed past this
OVERRUN = 1.1  # a run may end this much later than --seconds to fit one more child
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def source_hash() -> str:
    """sha256 (first 16 hex digits) of the cobcalc and benchmark sources: the
    traced counts of a workload and seed are fixed by these files."""
    h = hashlib.sha256()
    for d in (SRC, HERE):
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                with open(os.path.join(d, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()[:16]


def header(seed: int, workload: str) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    lines = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                lines[name[:-3]] = sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_hash": source_hash(),
        "seed": seed,
        "workload": workload,
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


def child_env() -> dict:
    # COBCALC_* variables would change flag defaults; a fixed hash seed makes
    # set iteration, and with it every traced count, repeatable.
    env = {k: v for k, v in os.environ.items() if not k.startswith("COBCALC_")}
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    def __init__(self, workload: str, seed: int, expected: dict):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.expected = expected.get(workload)
        self.t0 = perf_counter()
        self.attempted: dict[str, int] = {}  # children started, by mode
        self.failed = 0  # children that failed a check or gave no result
        self.env = child_env()

    def elapsed(self) -> float:
        return perf_counter() - self.t0

    def room_for(self, step: float, seconds: float) -> bool:
        """Whether another step as long as the last one still ends within the
        run: the run measures for about ``seconds``, and always for one step."""
        end = self.elapsed() + step
        return end <= seconds * OVERRUN and end <= RUN_LIMIT_S / 2

    def child(self, mode: str, *extra: str) -> dict | None:
        """Run one child and check it.  Return its result, with "ok" false if
        the check failed, or None if the child produced no result at all."""
        self.attempted[mode] = self.attempted.get(mode, 0) + 1
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", self.wl.name,
               "--seed", str(self.seed), "--mode", mode, *extra]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            return self.reject({}, f"{mode} child timed out")
        if proc.returncode != 0:
            return self.reject({}, f"{mode} child exited {proc.returncode}: "
                                   f"{proc.stderr.strip()[-300:]}")
        try:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return self.reject({}, f"{mode} child printed no result")
        res["ok"] = True
        why = self.problem(res) if mode != "setup" else None
        if why:
            self.reject(res, why)
        return res

    def reject(self, res: dict, why: str) -> None:
        """Count a child as failed, once, and say why on stderr."""
        if res.get("ok", True):
            self.failed += 1
        res["ok"] = False
        print(f"FAIL {self.wl.name}: {why}", file=sys.stderr)

    def problem(self, res: dict) -> str | None:
        if res.get("error"):
            return res["error"]
        if res.get("rc") != 0:
            return f"cobcalc exited {res.get('rc')}: {res.get('stderr_tail', '')}"
        if res.get("pass") is False:
            return 'report has "pass": false'
        if res.get("hash") != self.expected:
            return f"output hash {res.get('hash')} != expected {self.expected}"
        return None


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_untraced(r: Runner, seconds: float) -> dict:
    setup = []
    runs = []
    setup_time = 0.0

    def setup_child():
        nonlocal setup_time
        t = r.elapsed()
        res = r.child("setup")
        setup_time += r.elapsed() - t
        if res is not None:
            setup.append(res["setup_s"])

    while True:
        started = r.elapsed()
        res = r.child("run")
        if res is not None:
            runs.append(res)
            setup.append(res["setup_s"])
        while setup_time < SETUP_SHARE * r.elapsed():
            setup_child()
        if not r.room_for(r.elapsed() - started, seconds):
            break
    while r.elapsed() < min(seconds, RUN_LIMIT_S / 2):
        setup_child()
    if not runs or not setup:
        return {}
    # time the checked runs; if none passed, report what the failures cost
    runs = [x for x in runs if x["ok"]] or runs
    samples = {
        "wall_s": [x["wall_s"] for x in runs],
        "setup_s": setup,
        "peak_rss_mb": [x["peak_rss_mb"] for x in runs],
    }
    metrics = {}
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        print(f"{r.wl.name} {name}: median {med:.6g} {UNITS[name]} "
              f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
        metrics[name] = {"value": statistics.median(values), "unit": UNITS[name]}
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def is_count(name: str) -> bool:
    return unit_of(name) != "s"


def run_traced(r: Runner, seconds: float) -> dict:
    trace_dir = os.path.join(OUT, "trace")
    sys_dir = os.path.join(OUT, "systems")
    os.makedirs(trace_dir, exist_ok=True)
    os.makedirs(sys_dir, exist_ok=True)
    stem = f"{r.wl.name}-seed{r.seed}"
    pairs = []
    while True:
        started = r.elapsed()
        plain = r.child("run")
        traced = r.child("trace", "--trace-out", os.path.join(trace_dir, stem + ".spans.jsonl"),
                         "--system-out", os.path.join(sys_dir, stem + ".kernel_int.json"))
        if plain is not None and traced is not None:
            pairs.append((plain, traced))
        if not r.room_for(r.elapsed() - started, seconds):
            break
    if not pairs:
        return {}
    pairs = [(p, t) for p, t in pairs if p["ok"] and t["ok"]] or pairs
    traced = [t for _, t in pairs]
    for name in traced[0]["missing"]:
        print(f"warning: traced target {name} no longer exists; reported as missing")
    for name in r.wl.expect:
        if name not in traced[0]["fired"]:
            print(f"warning: span {name} is expected on {r.wl.name} but never fired")

    counts = {k: v for k, v in traced[0]["metrics"].items() if is_count(k)}
    for t in traced[1:]:
        if {k: v for k, v in t["metrics"].items() if is_count(k)} != counts:
            r.reject(t, "counts differ between traced children")
    counts_path = os.path.join(trace_dir, f"{stem}-{source_hash()}.counts.json")
    if os.path.exists(counts_path):
        with open(counts_path) as fh:
            if json.load(fh) != counts:
                for t in traced:
                    r.reject(t, f"counts differ from the earlier traced run in {counts_path}")
    else:
        with open(counts_path, "w") as fh:
            json.dump(counts, fh, sort_keys=True, indent=1)

    metrics = {}
    for name in traced[0]["metrics"]:
        value = statistics.median(t["metrics"][name] for t in traced)
        metrics[name] = {"value": value, "unit": unit_of(name)}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(t["wall_s"] - p["wall_s"] for p, t in pairs),
        "unit": "s",
    }
    for name, m in metrics.items():
        print(f"{r.wl.name} {name}: {m['value']:.6g} {m['unit']}")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"error: no cobcalc sources under {SRC}", file=sys.stderr)
        return 2
    # build: compile once so every child imports from bytecode
    compileall.compile_dir(SRC, quiet=1)
    os.makedirs(OUT, exist_ok=True)
    head = header(args.seed, args.workload)
    print("header " + json.dumps(head, sort_keys=True))
    with open(os.path.join(OUT, "header.json"), "w") as fh:
        json.dump(head, fh, sort_keys=True, indent=1)
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)

    r = Runner(args.workload, args.seed, expected)
    metrics = (run_traced if args.trace else run_untraced)(r, args.seconds)
    if not metrics:
        print("error: no child completed; nothing to report", file=sys.stderr)
        return 1
    failed = r.failed
    attempted = sum(r.attempted.values())
    base = ", ".join(f"{n} {mode}" for mode, n in sorted(r.attempted.items()))
    print(f"{r.wl.name} fail_ratio: {failed / attempted:.6g} "
          f"({failed} failed of {attempted} children attempted: {base})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
