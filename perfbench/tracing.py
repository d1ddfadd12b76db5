"""Spans and counters around revprod's public functions, installed from outside.

The traced pass replaces module attributes of revprod with timing wrappers for
the duration of the pass and puts the originals back afterwards; nothing under
src/ knows about it.  Spans (name, command, start, end, parent) stay in memory.
Objective evaluations and oracle solves are too many for one span each, so they
are counted and timed in aggregate, keyed by command and phase.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, command, start, end, parent index or None]
        self.counts = defaultdict(int)  # (command, key) -> count, or seconds for keys ending in _s
        self.command = None
        self._stack = []
        self._gmm_depth = 0
        self._minimize_depth = 0
        self._patches = []

    # -- spans ------------------------------------------------------------

    def begin(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.command, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self._stack.pop()][3] = time.perf_counter()

    def count(self, key, value=1):
        self.counts[(self.command, key)] += value

    def _spanned(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        from revprod import cli, costmin, diagnostics, estimate
        from revprod.costmin import SolverError

        for attr, name in (
            ("parse_config", "config.parse_config"),
            ("read_panel_csv", "panel_io.read_panel_csv"),
            ("write_panel_csv", "panel_io.write_panel_csv"),
            ("simulate_panel", "simulate.simulate_panel"),
            ("verify_panel", "simulate.verify_panel"),
            ("first_stage_project", "estimate.first_stage_project"),
            ("build_quantity_moments", "estimate.build_moments"),
            ("build_revenue_moments", "estimate.build_moments"),
            ("build_identification_report", "diagnostics.build_identification_report"),
        ):
            self._patch(cli, attr, self._spanned(name, getattr(cli, attr)))

        for attr in (
            "profile_scan",
            "beta_scale_scan",
            "jacobian_rank",
            "observational_equivalence",
            "omega_recovery_attempt",
        ):
            self._patch(diagnostics, attr, self._spanned("diagnostics." + attr, getattr(diagnostics, attr)))

        def converged_share(result):
            minima = result.minima
            self.count("restarts", len(minima))
            self.count("restarts_converged", sum(1 for m in minima if m.get("converged")))

        gmm = self._spanned("estimate.gmm_minimize", cli.gmm_minimize, converged_share)

        @functools.wraps(cli.gmm_minimize)
        def gmm_minimize(*args, **kwargs):
            self._gmm_depth += 1
            try:
                return gmm(*args, **kwargs)
            finally:
                self._gmm_depth -= 1

        self._patch(cli, "gmm_minimize", gmm_minimize)

        scipy_minimize = estimate.minimize

        @functools.wraps(scipy_minimize)
        def minimize(fun, x0, *args, method=None, **kwargs):
            key = {"L-BFGS-B": "lbfgsb", "Nelder-Mead": "nelder_mead"}.get(method, "other_minimizer")
            self._minimize_depth += 1
            t0 = time.perf_counter()
            try:
                res = scipy_minimize(fun, x0, *args, method=method, **kwargs)
            finally:
                self._minimize_depth -= 1
                self.count(key + "_s", time.perf_counter() - t0)
                self.count(key + "_runs")
            if key == "lbfgsb" and "ABNORMAL" in str(res.message):
                self.count("lbfgsb_abnormal")
            return res

        self._patch(estimate, "minimize", minimize)

        objective = estimate.MomentSystem.objective

        @functools.wraps(objective)
        def traced_objective(ms, theta, weight=None):
            t0 = time.perf_counter()
            try:
                return objective(ms, theta, weight)
            finally:
                dt = time.perf_counter() - t0
                if weight is not None:
                    phase = "stage2"
                elif self._minimize_depth:
                    phase = "stage1"
                elif self._gmm_depth:
                    phase = "screen"
                else:
                    phase = "outside_search"
                self.count("objective_calls")
                self.count("objective_s", dt)
                self.count(phase + "_calls")

        self._patch(estimate.MomentSystem, "objective", traced_objective)

        oracle = costmin.cost_min_numeric

        @functools.wraps(oracle)
        def cost_min_numeric(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                sol = oracle(*args, **kwargs)
            except SolverError:
                self.count("solver_failures")
                raise
            finally:
                self.count("cost_min_numeric_calls")
                self.count("cost_min_numeric_s", time.perf_counter() - t0)
            self.count("cost_min_iterations", sol.iterations)
            return sol

        self._patch(costmin, "cost_min_numeric", cost_min_numeric)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries --------------------------------------------------------

    def span_seconds(self, name, command=None):
        return sum(
            end - start
            for n, cmd, start, end, _ in self.spans
            if n == name and (command is None or cmd == command)
        )

    def total(self, key, command=None):
        return sum(v for (cmd, k), v in self.counts.items() if k == key and (command is None or cmd == command))

    def command_breakdown(self):
        """Per command: traced time, the layer spans directly under it, and the rest (cli self time)."""
        out = {}
        for i, (name, cmd, start, end, parent) in enumerate(self.spans):
            if parent is not None or not name.startswith("cli."):
                continue
            layers = defaultdict(float)
            for n, _, s, e, p in self.spans:
                if p == i:
                    layers[n] += e - s
            total = end - start
            out[cmd] = {"traced_s": total, "layers_s": dict(layers), "cli_self_s": total - sum(layers.values())}
        return out
