#!/usr/bin/env python3
"""MultiEM perf ledger: builds multiem_ledger, runs the workloads, checks them.

Usage (from the repository root; standard library only):

  python3 bench/ledger/run.py [--seed=N] [--trace] [--smoke]
      Every workload, reps interleaved across workloads, each rep in a fresh
      process. Prints every metric with its unit and sample count, writes
      build-ledger/results.json, and exits 1 if a correctness check fails.

  python3 bench/ledger/run.py --workload W --seed N --seconds S --trace 0|1
      One workload for S seconds of reps. The last stdout line is one JSON
      object: {"correct", "attempted", "failed", "metrics"}; with --trace 1
      the metrics are the per-layer ones of an extra traced rep.

  python3 bench/ledger/run.py compare BASE.json NEW.json
      Applies BENCHMARK.json's bounds to two results.json files, one row per
      workload: improved, unchanged, worse or unresolved.

See bench/ledger/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-ledger")
BINARY = os.path.join(BUILD, "multiem_ledger")
WORKLOADS = ["person_serial", "scale_ckpt", "serve_read", "serve_ingest"]
SERVE = {"serve_read", "serve_ingest"}
DEFAULT_SEED = 1
REP_TIMEOUT_S = 60
MIN_REPS = 3  # a median needs at least three
RECALL_GATE = 0.95
# Throughput, CPU time and open-loop latency are measured on every timed rep
# but are per-layer metrics: they drift with the host's speed by 15-25%
# between runs minutes apart, too much for any bound (see README.md).
TIMED_LAYERS = ("rows_per_s", "cpu_ms_per_row")
LATENCY_PERCENTILES = {"core.matcher.match_p50_ms": 0.50, "core.matcher.match_p99_ms": 0.99}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds multiem_ledger; output goes to build.log."""
    os.makedirs(BUILD, exist_ok=True)
    steps = [["cmake", "-S", HERE, "-B", BUILD],
             ["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))]]
    with open(os.path.join(BUILD, "build.log"), "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                log("build failed: " + " ".join(cmd) + f" (see {out.name})")
                sys.exit(1)


def run_binary(args, workdir):
    """Runs one multiem_ledger process; returns its JSON report, or an error report."""
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [BINARY] + args + ["--dir=" + workdir]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        report = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0:
            report.setdefault("errors", []).append(
                f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    except (subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        report = {"errors": [f"{cmd[1]}: {type(e).__name__}"]}
    report["elapsed_s"] = time.monotonic() - start
    return report


class Session:
    """One seed: the shared serve artifact plus every rep's report."""

    def __init__(self, seed, smoke):
        self.seed = seed
        self.smoke = smoke
        self.work = os.path.join(BUILD, "work", f"seed{seed}")
        self.reports = {}  # workload -> [timed rep reports]
        self.traced = {}   # workload -> traced rep report
        self.prep = None
        self.prep_traced = None
        self.rep_id = 0

    def flags(self, extra=()):
        out = [f"--seed={self.seed}"] + list(extra)
        return out + (["--smoke"] if self.smoke else [])

    def artifact(self):
        return os.path.join(self.work, "prep", "artifact")

    def ensure_prep(self):
        if self.prep is None:
            self.prep = run_binary(["prep"] + self.flags(),
                                   os.path.join(self.work, "prep"))

    def rep(self, workload, trace_file=None):
        self.rep_id += 1
        extra = [f"--rep={self.rep_id}"]
        if workload in SERVE:
            self.ensure_prep()
            extra.append("--artifact=" + self.artifact())
        if trace_file:
            extra.append("--trace=" + trace_file)
        workdir = os.path.join(self.work, f"{workload}-{self.rep_id}")
        report = run_binary([workload] + self.flags(extra), workdir)
        shutil.rmtree(workdir, ignore_errors=True)
        return report

    def timed(self, workloads, seconds):
        """Interleaved rounds of one rep per workload. A workload stops once
        it has MIN_REPS reps and one more, at its mean rep time so far, would
        end past `seconds`. A smoke test runs one rep of each."""
        min_reps, seconds = (1, 0) if self.smoke else (MIN_REPS, seconds)
        spent = {w: 0.0 for w in workloads}
        while True:
            todo = []
            for w in workloads:
                n = len(self.reports.get(w, []))
                if n < min_reps or spent[w] * (n + 1) / n <= seconds:
                    todo.append(w)
            if not todo:
                return
            for w in todo:
                report = self.rep(w)
                self.reports.setdefault(w, []).append(report)
                spent[w] += report["elapsed_s"]
                log(f"  {w} rep {len(self.reports[w])}: {report['elapsed_s']:.1f}s")

    def trace(self, workloads):
        for w in workloads:
            if w in SERVE and self.prep_traced is None:
                self.prep_traced = run_binary(
                    ["prep"] + self.flags(["--trace=" + self.trace_path("prep")]),
                    os.path.join(self.work, "prep-traced"))
            self.traced[w] = self.rep(w, self.trace_path(w))
            log(f"  {w} traced rep: {self.traced[w]['elapsed_s']:.1f}s")

    def trace_path(self, name):
        return os.path.join(BUILD, f"trace-{name}-seed{self.seed}.json")

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def runs(self, workload):
        """The workload's timed reps plus its traced rep, if any."""
        traced = self.traced.get(workload)
        return self.reports.get(workload, []) + ([traced] if traced else [])

    def every(self, workload):
        """runs() plus, for a serve workload, the preps of its artifact."""
        extra = (self.prep, self.prep_traced) if workload in SERVE else ()
        return self.runs(workload) + [r for r in extra if r]


def check(session, workload):
    """Correctness gate of one workload; returns the list of failures."""
    every = session.every(workload)
    problems = []
    if not session.reports.get(workload):
        problems.append("no timed rep ran")
    for r in every:
        for e in r.get("errors", []):
            problems.append(e)
        if r.get("failed", 1) != 0:
            problems.append(f"{r.get('failed', '?')} failed call(s)")
    digests = {r.get("input_digest") for r in every}
    if len(digests) != 1:
        problems.append(f"input digests differ across reps: {sorted(map(str, digests))}")
    if workload == "person_serial":
        tuples = {r.get("tuple_digest") for r in session.runs(workload)}
        if len(tuples) != 1:
            problems.append(f"tuple digests differ across reps: {sorted(map(str, tuples))}")
    for r in session.runs(workload):
        info = r.get("info", {})
        if info.get("tuples", 0) <= 0:
            problems.append("no tuples")
        if workload in ("person_serial", "scale_ckpt") and info.get("csv_roundtrip_ok") != 1:
            problems.append("CSV round trip changed the inputs")
        if workload == "scale_ckpt" and info.get("reload_identical") != 1:
            problems.append("reloaded artifact answers differ from the in-memory session")
        for key in ("recall_pre", "recall_post"):
            if key in info and info[key] < RECALL_GATE:
                problems.append(f"{key} {info[key]:.4f} < {RECALL_GATE}")
    return sorted(set(problems))


def percentile(values, p):
    """Nearest-rank percentile, as multiem_ledger computes it per rep."""
    ordered = sorted(values)
    return ordered[min(max(math.ceil(p * len(ordered)), 1), len(ordered)) - 1]


def pooled_reads(session, workload):
    return [x for r in session.reports.get(workload, []) for x in r.get("latencies_ms", [])]


def latency_values(session, workload):
    """Latency percentiles over the open-loop reads of all timed reps pooled:
    the p99 of one rep's 1,000 reads rests on its ten slowest."""
    reads = pooled_reads(session, workload)
    return {name: percentile(reads, q) for name, q in LATENCY_PERCENTILES.items()} if reads else {}


def rep_values(session, workload, names):
    """Per metric name: (median over the timed reps, the per-rep samples)."""
    out = {}
    for name in names:
        samples = [r["metrics"][name] for r in session.reports.get(workload, [])
                   if name in r.get("metrics", {})]
        out[name] = (statistics.median(samples) if samples else None, samples)
    return out


def e2e_values(session, workload, bench):
    return rep_values(session, workload, [m["name"] for m in bench["end_to_end"]])


def unbounded_values(session, workload):
    """What the timed reps measure without a bound: the throughput and CPU
    medians and the pooled latency percentiles."""
    out = {name: v for name, (v, _) in rep_values(session, workload, TIMED_LAYERS).items()
           if v is not None}
    out.update(latency_values(session, workload))
    return out


def layer_values(session, workload):
    """The per-layer metrics: the traced rep's, plus what is measured on the
    timed reps (unbounded_values and the tracing overhead)."""
    traced = session.traced.get(workload) or {}
    layers = {}
    if workload in SERVE and session.prep_traced:
        layers.update(session.prep_traced.get("layers", {}))
    layers.update(traced.get("layers", {}))
    layers.update(unbounded_values(session, workload))
    # Only a phase the traced rep instruments has an overhead; serve_read's
    # timed phases are not (0: not applicable).
    walls = [r["info"]["wall_s"] for r in session.reports.get(workload, [])
             if "wall_s" in r.get("info", {})]
    layers["bench.trace_overhead_ratio"] = (
        traced["info"]["wall_s"] / statistics.median(walls)
        if walls and "wall_s" in traced.get("info", {}) else 0.0)
    return layers


def valid_number(v):
    return isinstance(v, (int, float)) and math.isfinite(v)


def contract_run(args, bench):
    """The one-workload form: one JSON result line on stdout."""
    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {WORKLOADS}")
        return 2
    build()
    session = Session(args.seed, args.smoke)
    try:
        session.timed([args.workload], args.seconds)
        if args.trace:
            session.trace([args.workload])
    finally:
        session.cleanup()
    problems = check(session, args.workload)
    every = session.every(args.workload)
    attempted = sum(r.get("attempted", 0) for r in every)
    failed = sum(r.get("failed", 0) for r in every)
    metrics = {}
    if args.trace:
        layers = layer_values(session, args.workload)
        for m in bench["per_layer"]:
            v = layers.get(m["name"])
            if not valid_number(v):
                problems.append(f"per-layer metric {m['name']} missing")
                continue
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    else:
        values = e2e_values(session, args.workload, bench)
        for m in bench["end_to_end"]:
            v, samples = values[m["name"]]
            if not valid_number(v) or v <= 0:
                problems.append(f"metric {m['name']} missing or not positive")
                continue
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
            log(f"  {m['name']:<16} {v:>14.6g} {m['unit']:<8} n={len(samples)}")
    for p in problems:
        log("FAIL: " + p)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def full_run(args, bench):
    build()
    session = Session(args.seed, args.smoke)
    start = time.monotonic()
    try:
        log(f"timed reps, seed {args.seed}:")
        session.timed(WORKLOADS, args.seconds)
        timed_s = time.monotonic() - start
        if args.trace:
            log("traced reps:")
            session.trace(WORKLOADS)
    finally:
        session.cleanup()
    results = {"seed": args.seed, "smoke": args.smoke,
               "timed_set_s": round(timed_s, 1), "workloads": {}}
    all_problems = []
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"{'workload':<14} {'metric':<18} {'value':>14} {'unit':<8} samples")
    for w in WORKLOADS:
        problems = check(session, w)
        all_problems += [f"{w}: {p}" for p in problems]
        entry = {"input_digest": (session.reports.get(w) or [{}])[0].get("input_digest"),
                 "reps": len(session.reports.get(w, [])),
                 "problems": problems, "metrics": {}}
        values = e2e_values(session, w, bench)
        for m in bench["end_to_end"]:
            v, samples = values[m["name"]]
            entry["metrics"][m["name"]] = {"value": v, "unit": m["unit"], "n": len(samples),
                                           "samples": samples}
            shown = f"{v:14.6g}" if v is not None else f"{'-':>14}"
            print(f"{w:<14} {m['name']:<18} {shown} {m['unit']:<8} n={len(samples)} reps")
        entry["unbounded"] = unbounded_values(session, w)
        for name, v in entry["unbounded"].items():
            n = (f"n={len(pooled_reads(session, w))} reads" if name in LATENCY_PERCENTILES
                 else f"n={len(session.reports.get(w, []))} reps")
            print(f"{w:<14} {name:<26} {v:14.6g} {units[name]:<8} {n}")
        if args.trace:
            entry["layers"] = layer_values(session, w)
            entry["trace_file"] = os.path.relpath(session.trace_path(w), ROOT)
            for m in bench["per_layer"]:
                v = entry["layers"].get(m["name"])
                shown = f"{v:14.6g}" if valid_number(v) else f"{'-':>14}"
                print(f"{w:<14} {m['name']:<40} {shown} {m['unit']}")
        results["workloads"][w] = entry
    results["correct"] = not all_problems
    path = os.path.join(BUILD, "results.json")
    with open(path, "w") as f:
        json.dump(results, f, indent=1)
    log(f"timed set {timed_s:.0f}s; wrote {os.path.relpath(path, ROOT)}")
    for p in all_problems:
        log("FAIL: " + p)
    return 0 if not all_problems else 1


def spread(samples):
    """Rep-to-rep spread of one run as a share of the median: the quartile
    distance when there are enough reps, else the range. The quartiles are
    the inclusive ones, which do not extrapolate past the few reps a run
    has, so one slow rep out of six does not read as a wide spread."""
    if len(samples) < 2:
        return 0.0
    med = statistics.median(samples)
    if med == 0:
        return 0.0
    if len(samples) >= 4:
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
        return (q3 - q1) / abs(med)
    return (max(samples) - min(samples)) / abs(med)


def compare(base_path, new_path, bench):
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    for path, res in ((base_path, base), (new_path, new)):
        missing = [w for w in WORKLOADS if w not in res.get("workloads", {})]
        if missing or not res.get("correct"):
            log(f"refusing to compare: {path} "
                + (f"lacks {missing}" if missing else "failed its correctness gate"))
            return 2
    for w in WORKLOADS:
        a = base["workloads"][w].get("input_digest")
        b = new["workloads"][w].get("input_digest")
        if a != b:
            log(f"refusing to compare: {w} inputs differ ({a} vs {b}); "
                "the seed or the data generator changed")
            return 2
    any_worse = False
    print(f"{'workload':<14} {'verdict':<11} details")
    for w in WORKLOADS:
        verdicts = {}
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = base["workloads"][w]["metrics"].get(name, {})
            b = new["workloads"][w]["metrics"].get(name, {})
            if a.get("value") is None or b.get("value") is None:
                verdicts[name] = ("unresolved", "missing")
                continue
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse_by = sign * (b["value"] - a["value"]) / abs(a["value"])
            # A few milliseconds of set-up drift between reps by up to 60%,
            # so setup_s is judged on its median alone, with the largest
            # bound; the benchmark's spread check exempts it too.
            noise = (0.0 if name == "setup_s"
                     else max(spread(a["samples"]), spread(b["samples"])))
            better_all = all(sign * (x - y) < 0 for x in b["samples"] for y in a["samples"])
            if noise > bound and not better_all:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            elif -worse_by > bound or (noise > bound and better_all):
                verdict = "improved"
            else:
                verdict = "unchanged"
            verdicts[name] = (verdict, f"{worse_by:+.1%} worse, spread {noise:.1%}, bound {bound:.1%}")
        order = ["worse", "unresolved", "improved", "unchanged"]
        row = min((v for v, _ in verdicts.values()), key=order.index)
        any_worse = any_worse or row == "worse"
        notes = ", ".join(f"{n} {v}" for n, (v, _) in verdicts.items() if v != "unchanged")
        print(f"{w:<14} {row:<11} {notes or 'all metrics within bounds'}")
        for n, (v, detail) in verdicts.items():
            print(f"{'':<14}   {n:<16} {v:<11} {detail}")
    return 1 if any_worse else 0


def main(argv):
    bench = load_benchmark()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            log("usage: run.py compare BASE.json NEW.json")
            return 2
        return compare(argv[1], argv[2], bench)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload only")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="seconds of timed reps per workload")
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"], help="add a traced rep per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one rep each: a harness self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    args.trace = args.trace == "1"
    if args.workload is not None:
        return contract_run(args, bench)
    return full_run(args, bench)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
