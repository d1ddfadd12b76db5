"""revprod benchmark: one workload, timed end to end, optionally traced per layer.

    python3 perfbench/run.py --workload ces-default --seed 1 --seconds 40 --trace 0

Run from anywhere; it imports revprod from the checkout's src/ and calls the
CLI entry point (revprod.cli.main) in-process, one command after another (a
closed loop with one caller).  A run:

1. times `setup_s`: fresh interpreters that import revprod.cli and parse the
   workload config, median of SETUP_REPS;
2. simulates the reference panel (config seed, untimed) for the estimates;
3. repeats passes until --seconds have passed, at least once: the fast
   commands (simulate --seed, verify, diagnose) on the seeded panel, then each
   estimate command on the reference panel; each command's median over the
   passes is reported, and their sum as pipeline_s;
4. with --trace 1, runs one more pass with spans and counters installed
   around revprod's public functions and reports the per-layer metrics,
   including the tracing overhead against step 3;
5. checks the outputs and prints a table, then one JSON line.

Metric names and units come from BENCHMARK.json at the checkout root.  The
full record of a run (environment, commands, checks, artifact hashes,
evaluation counts, spans) goes to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

from tracing import Tracer
from workloads import (
    FAST_ARTIFACTS,
    WORKLOADS,
    check_estimate,
    check_oracle,
    check_verdicts,
    check_verify,
    estimate_argv,
    fast_argv,
    sha256,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3
MAX_PASSES = 20
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import revprod.cli as cli; cli.parse_config(sys.argv[2])"
)


class Run:
    """Commands executed and checks made, with their outcomes."""

    def __init__(self):
        self.commands = []
        self.checks = []
        self.times = {}

    def command(self, label, argv, tracer=None):
        from revprod.cli import main

        if tracer is not None:
            tracer.command = label
            tracer.begin("cli." + label)
        rc, error = None, None
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except Exception:  # a crash is a failed command, not a failed benchmark
            error = traceback.format_exc()
        finally:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end()
        self.commands.append({"label": label, "argv": argv, "seconds": dt, "rc": rc, "error": error})
        self.times.setdefault(label, []).append(dt)

    def check(self, name, fn, *args):
        try:
            ok, detail = fn(*args)
        except Exception as exc:  # unreadable or malformed artifact
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return ok

    @property
    def attempted(self):
        return len(self.commands) + len(self.checks)

    @property
    def failed(self):
        return sum(c["rc"] != 0 for c in self.commands) + sum(not c["ok"] for c in self.checks)


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        sha = out.stdout.strip() or "unavailable"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "jsonschema": metadata.version("jsonschema"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_sha": sha,
        "seed": seed,
    }


def _blas_threads():
    """OpenBLAS's thread count, asked of the library numpy loaded; None if not found."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def measure_setup(run, config):
    samples = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), config], cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        samples.append(time.perf_counter() - t0)
        run.commands.append(
            {"label": "setup", "argv": ["-c", SETUP_CODE], "seconds": samples[-1], "rc": proc.returncode,
             "error": proc.stderr[-2000:] or None}
        )
    return statistics.median(samples)


def parse_config_for(path):
    from revprod.config import parse_config

    return parse_config(str(ROOT / path))


def artifact_hashes(wl, panel_dir, est_dir):
    paths = [panel_dir / name for cmd in wl.fast for name in FAST_ARTIFACTS[cmd]]
    paths += [est_dir / f"estimate_{mode}.json" for mode in wl.estimate]
    return {p.name: sha256(p) if p.exists() else None for p in paths}


def run_pass(run, wl, seed, panel_dir, ref_dir, est_dir, tracer=None):
    """Every command of the workload once; returns the hashes of what they wrote."""
    config, est_config = str(ROOT / wl.config), str(ROOT / wl.est_config)
    for cmd in wl.fast:
        run.command(cmd, fast_argv(cmd, config, panel_dir, seed), tracer)
    for mode in wl.estimate:
        run.command("estimate_" + mode, estimate_argv(mode, est_config, ref_dir, est_dir), tracer)
    return artifact_hashes(wl, panel_dir, est_dir)


def same_hashes(a, b):
    diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k) or a.get(k) is None)
    return not diff, f"differing artifacts {diff}" if diff else "identical"


def correctness(run, wl, panel_dir, est_dir, seed):
    cfg, est_cfg = parse_config_for(wl.config), parse_config_for(wl.est_config)
    if "verify" in wl.fast:
        run.check("verify passes", check_verify, panel_dir / "verify_report.json")
    if "diagnose" in wl.fast:
        run.check("diagnose verdicts", check_verdicts, panel_dir / "identification_report.json", cfg.sim.tech.kind)
    tol = {"quantity": wl.quantity_tol, "revenue": wl.revenue_tol}
    for mode in wl.estimate:
        run.check(f"estimate {mode} within tolerance", check_estimate, est_dir / f"estimate_{mode}.json",
                  est_cfg.sim.tech, mode, tol[mode])
    if cfg.sim.input_solver == "numeric":
        from revprod.simulate import simulate_panel

        closed = simulate_panel(dataclasses.replace(cfg.sim, seed=seed, input_solver="closed_form"))
        run.check("oracle inputs match closed form", check_oracle, panel_dir / "panel.csv", closed)


def end_to_end(run, wl, setup_s, peak_rss_mb):
    med = {label: statistics.median(v) for label, v in run.times.items()}
    cmds = list(wl.fast) + ["estimate_" + m for m in wl.estimate]
    metrics = {"setup_s": setup_s, "pipeline_s": sum(med[c] for c in cmds if c in med), "peak_rss_mb": peak_rss_mb}
    for c in cmds:
        if c in med:
            metrics[c + "_s"] = med[c]
    for c in run.checks:
        if c["name"].startswith("estimate ") and isinstance(c["detail"], dict):
            mode = c["name"].split()[1]
            key = "quantity_param_max_abs_err" if mode == "quantity" else "revenue_identified_max_abs_err"
            metrics[key] = c["detail"]["max_abs_err"]
    metrics["failed_share"] = run.failed / run.attempted
    return metrics


def layer_metrics(tr, panel_dir, traced_pipeline_s, untraced_pipeline_s):
    m = {
        "config.parse_config_s": tr.span_seconds("config.parse_config"),
        "panel_io.write_panel_csv_s": tr.span_seconds("panel_io.write_panel_csv"),
        "panel_io.read_panel_csv_s": tr.span_seconds("panel_io.read_panel_csv"),
        "panel_io.csv_bytes": (panel_dir / "panel.csv").stat().st_size,
        "simulate.simulate_panel_s": tr.span_seconds("simulate.simulate_panel"),
        "simulate.verify_panel_s": tr.span_seconds("simulate.verify_panel"),
    }
    calls = tr.total("cost_min_numeric_calls")
    m["costmin.cost_min_numeric_calls"] = calls
    m["costmin.cost_min_numeric_s"] = tr.total("cost_min_numeric_s")
    m["costmin.iterations_per_solve"] = tr.total("cost_min_iterations") / calls if calls else 0.0
    m["costmin.solver_failures"] = tr.total("solver_failures")
    for mode in ("quantity", "revenue"):
        cmd, p = "estimate_" + mode, f"estimate.{mode}."
        gmm = tr.span_seconds("estimate.gmm_minimize", cmd)
        n_obj, t_obj = tr.total("objective_calls", cmd), tr.total("objective_s", cmd)
        restarts = tr.total("restarts", cmd)
        m[p + "first_stage_project_s"] = tr.span_seconds("estimate.first_stage_project", cmd)
        m[p + "build_moments_s"] = tr.span_seconds("estimate.build_moments", cmd)
        m[p + "gmm_minimize_s"] = gmm
        m[p + "objective_calls"] = n_obj
        m[p + "objective_s"] = t_obj
        m[p + "objective_us_per_call"] = 1e6 * t_obj / n_obj if n_obj else 0.0
        for key in ("screen_calls", "stage1_calls", "stage2_calls", "lbfgsb_runs", "lbfgsb_s", "lbfgsb_abnormal",
                    "nelder_mead_runs", "nelder_mead_s"):
            m[p + key] = tr.total(key, cmd)
        m[p + "restarts_converged_share"] = tr.total("restarts_converged", cmd) / restarts if restarts else 0.0
        m[p + "search_self_s"] = gmm - t_obj if gmm else 0.0
    for fn in ("build_identification_report", "profile_scan", "beta_scale_scan", "jacobian_rank",
               "observational_equivalence", "omega_recovery_attempt"):
        m[f"diagnostics.{fn}_s"] = tr.span_seconds("diagnostics." + fn, "diagnose")
    m["diagnostics.objective_calls"] = tr.total("objective_calls", "diagnose")
    m["cli.self_s"] = sum(c["cli_self_s"] for c in tr.command_breakdown().values())
    m["trace.pipeline_s"] = traced_pipeline_s
    m["trace.overhead_s"] = traced_pipeline_s - untraced_pipeline_s
    return m


def run_workload(wl, seed, seconds, trace, work):
    """Run one workload with its files under `work`; returns the full record."""
    import jsonschema

    # Load jsonschema before timing, so its import does not land on whichever command runs first.
    jsonschema.validate({}, {"type": "object"})
    config = str(ROOT / wl.config)
    run = Run()
    setup_s = measure_setup(run, config)

    panel_dir, ref_dir, est_dir = work / "panel", work / "reference", work / "estimates"
    if wl.estimate:
        run.command("reference_simulate", ["simulate", "--config", str(ROOT / wl.est_config), "--out", str(ref_dir)])

    start = time.perf_counter()
    first = run_pass(run, wl, seed, panel_dir, ref_dir, est_dir)
    passes = 1
    while time.perf_counter() - start < seconds and passes < MAX_PASSES:
        passes += 1
        run.check(f"pass {passes} artifacts identical to pass 1", same_hashes,
                  run_pass(run, wl, seed, panel_dir, ref_dir, est_dir), first)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correctness(run, wl, panel_dir, est_dir, seed)
    metrics = end_to_end(run, wl, setup_s, peak_rss_mb)

    record = {
        "workload": wl.name,
        "why": wl.why,
        "config": wl.config,
        "estimate_config": wl.est_config,
        "seconds": seconds,
        "passes": passes,
        "panel_rows": (panel_dir / "panel.csv").read_bytes().count(b"\n") - 1,
        "csv_bytes": (panel_dir / "panel.csv").stat().st_size,
        "artifacts": first,
    }
    if trace:
        traced = Run()
        tr = Tracer()
        tr.install()
        try:
            hashes = run_pass(traced, wl, seed, panel_dir, ref_dir, est_dir, tr)
        finally:
            tr.uninstall()
        run.commands.extend(traced.commands)
        run.check("traced artifacts identical to untraced", same_hashes, hashes, first)
        traced_pipeline = sum(c["seconds"] for c in traced.commands)
        record["layers"] = layer_metrics(tr, panel_dir, traced_pipeline, metrics["pipeline_s"])
        record["per_command"] = tr.command_breakdown()
        record["counts"] = {f"{cmd}.{key}": v for (cmd, key), v in sorted(tr.counts.items()) if not key.endswith("_s")}
        t0 = tr.spans[0][2] if tr.spans else 0.0
        record["spans"] = [[n, c, s - t0, e - t0, p] for n, c, s, e, p in tr.spans]
        metrics["failed_share"] = run.failed / run.attempted

    record.update(
        end_to_end=metrics,
        attempted=run.attempted,
        failed=run.failed,
        checks=run.checks,
        commands=[{k: v for k, v in c.items() if k != "argv"} for c in run.commands],
    )
    return record


def select(record, trace, spec):
    """The metrics BENCHMARK.json declares for this kind of run, with their units."""
    source = record["layers"] if trace else record["end_to_end"]
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    return {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}


# Units of the end-to-end metrics that are printed but not declared in BENCHMARK.json.
UNDECLARED_UNITS = {
    "simulate_s": "s",
    "verify_s": "s",
    "diagnose_s": "s",
    "estimate_quantity_s": "s",
    "estimate_revenue_s": "s",
    "quantity_param_max_abs_err": "abs",
    "revenue_identified_max_abs_err": "abs",
    "failed_share": "ratio",
}


def unit_of(name, spec):
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return declared.get(name) or UNDECLARED_UNITS[name]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "revprod" / "cli.py").is_file():
        print(f"error: {SRC / 'revprod'} not found; run from a revprod checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")

    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / f"work-{wl.name}-{args.seed}-{os.getpid()}"
    try:
        record = run_workload(wl, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["environment"] = environment(args.seed)
    metrics = select(record, args.trace, spec)

    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {wl.name} seed={args.seed} trace={args.trace}: {wl.why}")
    for k, v in record["environment"].items():
        print(f"# env {k} = {v}")
    print(f"# panel_rows = {record['panel_rows']}  csv_bytes = {record['csv_bytes']}  passes = {record['passes']}")
    shown = dict(record["end_to_end"], **record.get("layers", {}))
    for name, value in shown.items():
        print(f"{name:48s} {value:>14.6g} {unit_of(name, spec)}")
    for c in record["checks"]:
        if not c["ok"]:
            print(f"# FAILED check: {c['name']}: {c['detail']}")
    for c in record["commands"]:
        if c["rc"] != 0:
            print(f"# FAILED command {c['label']} rc={c['rc']}: {c['error']}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
