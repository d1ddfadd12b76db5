"""Self-test of the benchmark on a 20-firm panel (about 10 s).

    python3 perfbench/selftest.py

Checks that a traced run emits every metric BENCHMARK.json declares, with its
unit, and every end-to-end metric the benchmark documents; that per command
the layer spans plus cli self time add up to the traced command time; and that
a corrupted artifact, a changed panel and a wrong verdict each count as failed.
Exits 0 when all hold.
"""

from __future__ import annotations

import configparser
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from workloads import Workload  # noqa: E402

END_TO_END = (
    "setup_s", "simulate_s", "verify_s", "diagnose_s", "estimate_quantity_s", "estimate_revenue_s", "pipeline_s",
    "peak_rss_mb", "quantity_param_max_abs_err", "revenue_identified_max_abs_err", "failed_share",
)


def tiny_config(path):
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.read(bench.ROOT / "configs" / "ces.ini")
    cp["panel"]["n_firms"] = "20"
    cp["estimation"]["restarts"] = "2"
    cp["estimation"]["screen"] = "8"
    with open(path, "w") as fh:
        cp.write(fh)


def main():
    import logging

    logging.basicConfig(level=logging.WARNING)
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    work = bench.ROOT / ".perfbench" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    problems = []
    try:
        tiny_config(work / "tiny.ini")
        # Twenty firms cannot pin the estimates down; the tolerances only
        # need to hold for the plumbing under test.
        wl = Workload("tiny", str(work / "tiny.ini"), "self-test", ("simulate", "verify", "diagnose"),
                      ("quantity", "revenue"), quantity_tol=10.0, revenue_tol=10.0)
        record = bench.run_workload(wl, seed=3, seconds=0.0, trace=1, work=work / "run")

        if record["failed"]:
            problems.append(f"clean tiny run failed checks: {[c for c in record['checks'] if not c['ok']]}")
        for trace in (0, 1):
            try:
                metrics = bench.select(record, trace, spec)
            except KeyError as exc:
                problems.append(str(exc))
                continue
            for m in spec["per_layer" if trace else "end_to_end"]:
                got = metrics[m["name"]]
                if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    problems.append(f"{m['name']}: emitted {got}")
        missing = [n for n in END_TO_END if n not in record["end_to_end"]]
        if missing:
            problems.append(f"end-to-end metrics not emitted: {missing}")
        for cmd, b in record["per_command"].items():
            if abs(sum(b["layers_s"].values()) + b["cli_self_s"] - b["traced_s"]) > 1e-9 or b["cli_self_s"] < 0:
                problems.append(f"{cmd}: layer spans and cli self time do not add up: {b}")

        run_dir, pristine = work / "run", work / "pristine"
        shutil.copytree(run_dir, pristine)

        def failed_share_after(corrupt):
            shutil.rmtree(run_dir)
            shutil.copytree(pristine, run_dir)
            corrupt()
            r = bench.Run()
            bench.correctness(r, wl, run_dir / "panel", run_dir / "estimates", 3)
            hashes = bench.artifact_hashes(wl, run_dir / "panel", run_dir / "estimates")
            r.check("artifacts unchanged", bench.same_hashes, hashes, record["artifacts"])
            failed = {c["name"] for c in r.checks if not c["ok"]}
            return bench.end_to_end(r, wl, 1.0, 1.0)["failed_share"], failed

        def garbage_estimate():
            (run_dir / "estimates" / "estimate_revenue.json").write_text("{not json")

        def changed_panel():
            path = run_dir / "panel" / "panel.csv"
            path.write_text(path.read_text().replace("\n2,", "\n7,", 1))

        def wrong_verdict():
            path = run_dir / "panel" / "identification_report.json"
            rep = json.loads(path.read_text())
            rep["verdicts"]["v"] = "identified"
            path.write_text(json.dumps(rep))

        share, failed = failed_share_after(lambda: None)
        if share != 0:
            problems.append(f"untouched artifacts: failed_share {share}, failed {failed}")
        for corrupt, check in (
            (garbage_estimate, "estimate revenue within tolerance"),
            (changed_panel, "artifacts unchanged"),
            (wrong_verdict, "diagnose verdicts"),
        ):
            share, failed = failed_share_after(corrupt)
            if not share > 0 or check not in failed:
                problems.append(f"{corrupt.__name__}: failed_share {share}, failed checks {failed}, expected {check!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
