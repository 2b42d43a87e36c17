#!/usr/bin/env python3
"""Steadiness evidence for the benchmark.

Runs every workload in SETS sets of N runs, each run with another seed,
exactly as the benchmark command in BENCHMARK.json runs it. The sets are
interleaved run by run, alternating which set runs first (A B B A A B ...),
the way a parent/change comparison runs. Per set and end-to-end metric it reports the median, the quartiles and
the quartile spread as a share of the median (Python's
statistics.quantiles(values, n=4)) next to the metric's bound; with two or
more sets, how much worse each later set's median is than the first's. It
also checks that every exact counter repeats across all runs and that every
op passed its output check. With --traced it adds one traced run per
workload, reports the tracing overhead that run measured (its traced passes
against its untraced passes of the same ops), and checks that every
per-layer metric of BENCHMARK.json is measured by some workload.

    python3 perfbench/steadiness.py --runs 10 --sets 2 --traced \\
        --out perfbench/STEADINESS.md

It exits 1 if any spread or any median difference exceeds its bound, any
run is incorrect, or any counter differs. Run it from the root of the
repository. Needs only the standard library.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

BENCH = "BENCHMARK.json"


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    return result, detail, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="all",
                        help="comma-separated names, or 'all'")
    parser.add_argument("--traced", action="store_true",
                        help="add one traced run per workload")
    parser.add_argument("--out", help="write a Markdown report here")
    parser.add_argument("--raw", help="append every run's result and detail "
                        "here, one JSON object a line")
    args = parser.parse_args()

    with open(BENCH) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads != "all":
        names = args.workloads.split(",")
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    report = ["# Steadiness evidence", "",
              f"{args.sets} interleaved set(s) of {args.runs} untraced runs per "
              "workload, each run with its own seed. Spread = (Q3 − Q1) / "
              "median; all times are thread CPU time.", ""]
    ok = True
    measured_layers = set()
    for workload in names:
        values = [{} for _ in range(args.sets)]
        counters, walls, refs = None, [], []
        same_counters = True
        for i in range(args.runs):
            # Alternate which set runs first, as a parent/change gate does.
            order = range(args.sets) if i % 2 == 0 else reversed(range(args.sets))
            for s in order:
                seed = args.first_seed + s * args.runs + i
                result, detail, wall = run_once(bench["command"], workload, seed,
                                                bench["run_seconds"], 0)
                walls.append(wall)
                refs.append(detail["ref_loop_ms"])
                if args.raw:
                    with open(args.raw, "a") as f:
                        f.write(json.dumps({"set": s, "wall_s": wall, "result": result,
                                            "detail": detail}) + "\n")
                if not result["correct"] or result["failed"]:
                    ok = False
                    print(f"{workload} seed {seed}: incorrect run", file=sys.stderr)
                if counters is None:
                    counters = detail["counters"]
                elif detail["counters"] != counters:
                    ok = same_counters = False
                    print(f"{workload} seed {seed}: counters differ", file=sys.stderr)
                for name, metric in result["metrics"].items():
                    values[s].setdefault(name, []).append(metric["value"])
                shown = ", ".join(f"{name} {metric['value']:.4g}"
                                  for name, metric in result["metrics"].items())
                print(f"{workload} set {s} seed {seed}: {wall:.1f} s wall; {shown}",
                      file=sys.stderr)
        report += [f"## {workload}", "",
                   f"{result['attempted']} ops per run; wall time per run "
                   f"{min(walls):.1f}–{max(walls):.1f} s; exact counters "
                   f"{'identical in every run' if same_counters else 'DIFFER'}; reference "
                   f"loop {min(min(r) for r in refs):.1f}–"
                   f"{max(max(r) for r in refs):.1f} ms.", ""]
        for s in range(args.sets):
            first_seed = args.first_seed + s * args.runs
            report += [f"Set {'ABCDEFGH'[s]} (seeds {first_seed}..{first_seed + args.runs - 1}):", "",
                       "| metric | median | Q1 | Q3 | spread | bound | spread/bound |",
                       "| --- | --- | --- | --- | --- | --- | --- |"]
            for name, vals in values[s].items():
                med, q1, q3, share = spread(vals)
                bound = metrics[name]["bound"]
                ok &= share <= bound
                report.append(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                              f"{share:.2%} | {bound} | {share / bound:.2f} |")
            report.append("")
        if args.sets > 1:
            report += ["Medians of each later set against set A (positive = worse):", "",
                       "| metric | set | median A | median | worse by | bound |",
                       "| --- | --- | --- | --- | --- | --- |"]
            for name, metric in metrics.items():
                a = statistics.median(values[0][name])
                for s in range(1, args.sets):
                    b = statistics.median(values[s][name])
                    worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
                    ok &= worse <= metric["bound"]
                    report.append(f"| {name} | {'ABCDEFGH'[s]} | {a:.6g} | {b:.6g} | "
                                  f"{worse:+.2%} | {metric['bound']} |")
            report.append("")
        if args.traced:
            result, detail, _ = run_once(bench["command"], workload,
                                         args.first_seed, bench["run_seconds"], 1)
            measured_layers.update(detail["measured"])
            if not result["correct"] or detail["counters"] != counters:
                ok = False
                print(f"{workload} traced: incorrect run or counters differ",
                      file=sys.stderr)
            m = {name: metric["value"] for name, metric in result["metrics"].items()}
            overhead, untraced = m["trace.overhead_ms_per_op"], m["trace.untraced_op_cpu_ms_p50"]
            report += [f"Traced run (seed {args.first_seed}), traced against untraced "
                       f"passes of the same ops in that process: median op "
                       f"{m['trace.op_cpu_ms_p50']:.4g} ms traced, {untraced:.4g} ms "
                       f"untraced; median per-op overhead {overhead:+.4g} ms "
                       f"({overhead / untraced:+.2%}). One empty span costs "
                       f"{m['trace.span_cost_ns']:.0f} ns; the run recorded "
                       f"{m['trace.spans']:.0f} spans.", ""]
    if args.traced and args.workloads == "all":
        missing = [m["name"] for m in bench["per_layer"]
                   if m["name"] not in measured_layers]
        ok &= not missing
        report += ["Per-layer metrics measured by no workload: "
                   f"{', '.join(missing) if missing else 'none'}.", ""]
    text = "\n".join(report)
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
