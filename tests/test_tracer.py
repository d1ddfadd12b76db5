"""perfbench's tracer still finds what it wraps in revprod, and puts every attribute back.

perfbench/tracing.py times revprod from outside: its install replaces module and class attributes of revprod with
timing wrappers, some of which read fields of the results they pass on, and its uninstall restores the originals.
A change under src/ that renames or deletes a name the tracer wraps or reads breaks the benchmark.  This test runs
the tracer's own install, a small fit and an oracle solve under it, and its uninstall; it names none of the wrapped
names, so it pins whatever perfbench/tracing.py pins.
"""

import importlib.util
from pathlib import Path

from revprod import cli, costmin, diagnostics, estimate
from revprod.technology import CES

ROOT = Path(__file__).resolve().parents[1]


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_the_tracer_wraps_what_it_names_and_restores_it(small_ces_panel):
    owners = (cli, costmin, diagnostics, estimate, estimate.MomentSystem)
    before = [dict(vars(owner)) for owner in owners]
    tracer = _tracer()
    try:
        tracer.install()
        # the fit's wrapper reads the result's fields, and so does the oracle's
        cli.gmm_minimize(estimate.build_revenue_moments("CES", small_ces_panel))
        assert tracer.spans
        counts = dict(tracer.counts)
        costmin.cost_min_numeric(CES(), 1.0, 1.0, 1.0, 0.5)
        assert dict(tracer.counts) != counts
    finally:
        tracer.uninstall()
    for owner, attrs in zip(owners, before):
        assert [name for name, value in attrs.items() if vars(owner).get(name) is not value] == [], owner
