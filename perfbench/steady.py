"""Repeat the benchmark over seeds and report spread, medians and repeatability.

    python3 perfbench/steady.py                          # every workload, seeds 1-10
    python3 perfbench/steady.py --workloads ces-default --seeds 1-5
    python3 perfbench/steady.py --sets 2 --trace-seeds 2 # two sets, plus traced runs

For every workload it prints each end-to-end metric by name and unit with its
median, quartiles and quartile spread (Q3 - Q1 over the median, quartiles as
statistics.quantiles(values, n=4) gives them) against the bound in
BENCHMARK.json.  With --sets 2 it also compares the second set's median with
the first and checks that artifact hashes and, on traced runs, evaluation
counts are identical between the sets, seed by seed.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"seed": seed, "wall_s": wall, "line": line, "record": record}


def spread(values):
    """Quartiles, median and (Q3 - Q1) / median; the spread is 0 where the median is."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return q1, med, q3, (q3 - q1) / med if med else 0.0


def summarize(workload, runs, spec):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = list(runs[0]["record"]["end_to_end"])
    print(f"\n== {workload}: {len(runs)} runs, seeds {runs[0]['seed']}..{runs[-1]['seed']}, "
          f"wall per run median {statistics.median(r['wall_s'] for r in runs):.1f} s, "
          f"max {max(r['wall_s'] for r in runs):.1f} s")
    print(f"   {'metric':34s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    worst = True
    for name in names:
        vals = [r["record"]["end_to_end"][name] for r in runs]
        unit = unit_of(name, spec)
        q1, med, q3, sp = spread(vals)
        flag = ""
        if name in bounds:
            b = bounds[name]["bound"]
            flag = f"{b:6.2f}" + ("" if name == "setup_s" or sp <= b / 3 else "  WIDE (> bound/3)" if sp <= b else "  FAIL (> bound)")
            worst &= name == "setup_s" or sp <= b
        print(f"   {name:34s} {unit:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.3f} {flag}")
    fails = sum(r["line"]["failed"] for r in runs)
    print(f"   correct in {sum(r['line']['correct'] for r in runs)}/{len(runs)} runs; failed {fails} of "
          f"{sum(r['line']['attempted'] for r in runs)} attempted")
    return worst and fails == 0


def compare_sets(workload, first, second, spec):
    ok = True
    for m in spec["end_to_end"]:
        a = statistics.median(r["record"]["end_to_end"][m["name"]] for r in first)
        b = statistics.median(r["record"]["end_to_end"][m["name"]] for r in second)
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        status = "ok" if worse <= m["bound"] else "FAIL"
        ok &= status == "ok"
        print(f"   set 2 vs set 1 {m['name']:24s} median {a:.6g} -> {b:.6g}  worse by {worse:+.3f} (bound {m['bound']}) {status}")
    differ = [a["seed"] for a, b in zip(first, second) if a["record"]["artifacts"] != b["record"]["artifacts"]]
    print(f"   artifact hashes identical between sets on {len(first) - len(differ)} of {len(first)} seeds"
          + (f"; differ on seeds {differ}" if differ else ""))
    return ok and not differ


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--trace-seeds", type=int, default=0, help="traced runs per set on the first N seeds")
    args = parser.parse_args(argv)

    seeds, ok, log = seed_list(args.seeds), True, {}
    for workload in args.workloads.split(","):
        sets, traced = [], []
        for _ in range(args.sets):
            sets.append([one_run(workload, s, args.seconds, 0) for s in seeds])
            traced.append([one_run(workload, s, args.seconds, 1) for s in seeds[: args.trace_seeds]])
        ok &= summarize(workload, sets[0], spec)
        if args.sets == 2:
            ok &= summarize(workload, sets[1], spec)
            ok &= compare_sets(workload, sets[0], sets[1], spec)
        for i, runs in enumerate(traced):
            for r in runs:
                layers = r["record"]["layers"]
                print(f"   traced set {i + 1} seed {r['seed']}: trace.overhead_s {layers['trace.overhead_s']:+.3f} "
                      f"on pipeline {layers['trace.pipeline_s']:.3f} s; wall {r['wall_s']:.1f} s")
        if args.sets == 2 and traced[0]:
            for r1, r2 in zip(*traced):
                same = r1["record"]["counts"] == r2["record"]["counts"]
                ok &= same
                print(f"   seed {r1['seed']}: evaluation counts identical between sets: {same}")
        log[workload] = {"sets": [[{k: r[k] for k in ("seed", "wall_s", "line")} for r in s] for s in sets],
                         "traced": [[{k: r[k] for k in ("seed", "wall_s", "line")} for r in s] for s in traced]}
    out = ROOT / ".perfbench" / f"steady-{int(time.time())}.json"
    out.write_text(json.dumps(log, indent=1) + "\n")
    print(f"\n{'STEADY' if ok else 'NOT STEADY'}; runs logged to {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
