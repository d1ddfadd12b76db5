"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -rA` to see the per-criterion
PASS lines in the summary (pytest captures stdout of passing tests unless
-s or -rA is used).  Default scale throughout: 500 firms, 10 periods.
"""

import functools
import math

import numpy as np
import pytest

from revprod.costmin import conditional_demands, cost_min_numeric, foc_input_price
from revprod.diagnostics import (
    jacobian_rank,
    omega_recovery_attempt,
    profile_scan,
)
from revprod.estimate import (
    build_quantity_moments,
    build_revenue_moments,
    first_stage_project,
    gmm_minimize,
)
from revprod.simulate import SimConfig, simulate_panel
from revprod.technology import CES, CobbDouglas, revenue_pf_reduced_form

from conftest import TRUE_CD, TRUE_CES, factorization_check, predicted_log_revenue, random_point, random_technology

pytestmark = pytest.mark.acceptance

THETA_CES = np.array([TRUE_CES.sigma, TRUE_CES.beta_L, TRUE_CES.beta_M, TRUE_CES.v])
THETA_CD = np.array([TRUE_CD.beta_K, TRUE_CD.beta_L, TRUE_CD.beta_M])


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except AssertionError as exc:
                print(f"ACCEPTANCE {number} FAIL: {label} -- {exc}")
                raise
            print(f"ACCEPTANCE {number} PASS: {label}" + (f" -- {detail}" if detail else ""))

        return run

    return wrap


@criterion(1, "duality oracle (closed forms vs numeric program, 1000 draws per technology)")
def test_criterion_1_duality_oracle():
    rng = np.random.default_rng(101)
    worst_cost, worst_lam, worst_fact = 0.0, 0.0, 0.0
    for kind in ("CD", "CES"):
        for _ in range(1000):
            tech = random_technology(rng, kind)
            K, L, M, pL, pM = random_point(rng)
            net = float(tech.output(K, L, M))
            omega = rng.normal(0.0, 0.3)
            sol = cost_min_numeric(tech, K, pL, pM, net)
            _, _, cost, lam = conditional_demands(tech, K, pL, pM, net)
            worst_cost = max(worst_cost, abs(sol.total_cost - cost) / cost)
            worst_lam = max(worst_lam, abs(sol.lam - lam) / lam)
            worst_fact = max(worst_fact, factorization_check(tech, K, pL, pM, net * math.exp(omega), omega))
    assert worst_cost <= 1e-6, f"cost mismatch {worst_cost:.2e}"
    assert worst_lam <= 1e-6, f"marginal cost mismatch {worst_lam:.2e}"
    assert worst_fact <= 1e-7, f"factorization residual {worst_fact:.2e}"
    return f"max rel err: cost {worst_cost:.1e}, marginal cost {worst_lam:.1e}, factorization {worst_fact:.1e}"


@criterion(2, "reduced-form revenue identity on every observation, both flexible inputs")
def test_criterion_2_reduced_form(cd_panel, cd_config, ces_panel, ces_config):
    worst = 0.0
    worst_pair = 0.0
    for panel, cfg in ((cd_panel, cd_config), (ces_panel, ces_config)):
        rstar = panel.rstar
        preds = {}
        for v, share in (("L", "sL_star"), ("M", "sM_star")):
            pred = revenue_pf_reduced_form(
                cfg.tech,
                panel.col("L"),
                panel.col("M"),
                panel.col("pL"),
                panel.col("pM"),
                panel.col(share),
                cfg.shocks.cal_e,
                v,
            )
            preds[v] = pred
            worst = max(worst, float(np.max(np.abs(pred - rstar) / rstar)))
        worst_pair = max(worst_pair, float(np.max(np.abs(preds["L"] - preds["M"]) / preds["M"])))
    assert worst <= 1e-7, f"reduced-form gap {worst:.2e}"
    assert worst_pair <= 1e-8, f"variant disagreement {worst_pair:.2e}"
    return f"max rel gap to recorded R*: {worst:.1e}; L-vs-M variant gap: {worst_pair:.1e}"


@criterion(3, "first-order-condition input prices match recorded prices")
def test_criterion_3_foc_prices(cd_panel, cd_config, ces_panel, ces_config):
    worst = 0.0
    for panel, cfg in ((cd_panel, cd_config), (ces_panel, ces_config)):
        for v, col in (("L", "pL"), ("M", "pM")):
            implied = foc_input_price(
                cfg.tech, panel.col("L"), panel.col("M"), panel.col("pL"), panel.col("pM"), v
            )
            worst = max(worst, float(np.max(np.abs(implied - panel.col(col)) / panel.col(col))))
    assert worst <= 1e-8, f"implied price gap {worst:.2e}"
    return f"max rel gap: {worst:.1e}"


@criterion(4, "non-identification certificates: bit-identical predictions and flat profiles")
def test_criterion_4_certificates(cd_panel, cd_config, ces_panel, ces_config):
    # bit-identical revenue predictions across the non-identified coordinates
    p = cd_panel
    args_cd = (np.log(p.col("L")), np.log(p.col("M")), np.log(p.col("pL")), np.log(p.col("pM")),
               np.log(p.col("sM_star")), cd_config.shocks.cal_e, "M")
    a = predicted_log_revenue(CobbDouglas(0.05, 0.3, 0.4), *args_cd)
    b = predicted_log_revenue(CobbDouglas(0.80, 0.3, 0.4), *args_cd)
    assert np.array_equal(a, b), "CD predictions differ across beta_K"
    q = ces_panel
    args_ces = (np.log(q.col("L")), np.log(q.col("M")), np.log(q.col("pL")), np.log(q.col("pM")),
                np.log(q.col("sM_star")), ces_config.shocks.cal_e, "M")
    c = predicted_log_revenue(CES(0.3, 0.4, 0.5, 0.7), *args_ces)
    d = predicted_log_revenue(CES(0.3, 0.4, 0.5, 1.25), *args_ces)
    assert np.array_equal(c, d), "CES predictions differ across v"

    # objective profiles: v exactly flat, sigma at least 100x above the threshold
    ms = build_revenue_moments("CES", ces_panel)
    v_curve = profile_scan(ms, "v", np.linspace(0.7, 1.3, 25), THETA_CES)
    s_curve = profile_scan(ms, "sigma", np.linspace(0.3, 0.7, 25), THETA_CES)
    assert v_curve.flatness <= 1e-10, f"v flatness {v_curve.flatness:.2e}"
    assert s_curve.flatness >= 100.0 * max(v_curve.flatness, 1e-10), (
        f"sigma flatness {s_curve.flatness:.2e} not 100x above flat threshold"
    )
    return f"v flatness {v_curve.flatness:.1e}; sigma flatness {s_curve.flatness:.1e}"


@criterion(5, "moment-Jacobian rank deficiencies (exact Jacobian)")
def test_criterion_5_rank(cd_panel, cd_config, ces_panel, ces_config):
    ms_r_ces = build_revenue_moments("CES", ces_panel)
    ms_r_cd = build_revenue_moments("CD", cd_panel)
    fs_q_ces = first_stage_project(ces_panel, 3)
    ms_q_ces = build_quantity_moments("CES", fs_q_ces, ces_panel)
    fs_q_cd = first_stage_project(cd_panel, 3)
    ms_q_cd = build_quantity_moments("CD", fs_q_cd, cd_panel)

    # CES revenue: two null directions in the search chart, along the
    # beta_L+beta_M and v axes, which revenue never reads; CD revenue: two,
    # along the beta_K and beta_L+beta_M axes.  The identified axes are
    # orthogonal to the null space
    for ms, theta, null_axes in ((ms_r_ces, THETA_CES, ("beta_L+beta_M", "v")), (ms_r_cd, THETA_CD, ("beta_K", "beta_L+beta_M"))):
        diag = jacobian_rank(ms, theta)
        assert diag.deficiency == 2, f"{ms.tech_kind} revenue deficiency {diag.deficiency}"
        for axis, alignment in diag.null_alignment.items():
            if axis in null_axes:
                assert alignment >= 0.999, f"{ms.tech_kind} null axis {axis}: alignment {alignment}"
            else:
                assert alignment <= 1e-3, f"{ms.tech_kind} identified axis {axis}: alignment {alignment}"
    # quantity-mode benchmarks: full numerical rank
    assert jacobian_rank(ms_q_ces, THETA_CES).deficiency == 0
    assert jacobian_rank(ms_q_cd, THETA_CD).deficiency == 0
    return "CES revenue: 2 (beta_L+beta_M and v axes); CD revenue: 2 (beta_K and beta_L+beta_M axes); quantity: full rank"


@criterion(6, "productivity: revenue residuals carry no signal, quantity recovery works")
def test_criterion_6_productivity(cd_panel, cd_config, ces_panel, ces_config):
    details = []
    for panel, cfg in ((cd_panel, cd_config), (ces_panel, ces_config)):
        kind = cfg.tech.kind
        rev = omega_recovery_attempt(panel, cfg.tech, build_revenue_moments(kind, panel))
        qty = omega_recovery_attempt(panel, cfg.tech, build_quantity_moments(kind, first_stage_project(panel, 3), panel))
        assert abs(rev.correlation) <= rev.bound, (
            f"{cfg.tech.kind}: revenue corr {rev.correlation:.4f} above bound {rev.bound:.4f}"
        )
        assert qty.correlation >= 0.95, f"{cfg.tech.kind}: quantity corr {qty.correlation:.4f}"
        details.append(f"{cfg.tech.kind}: revenue |corr| {abs(rev.correlation):.3f} <= {rev.bound:.3f}, quantity corr {qty.correlation:.3f}")
    return "; ".join(details)


def _mc_estimates(tech, mode, n_reps=20, seed0=9000):
    out = []
    for rep in range(n_reps):
        cfg = SimConfig(tech=tech, seed=seed0 + rep)
        panel = simulate_panel(cfg)
        if mode == "quantity":
            ms = build_quantity_moments(tech.kind, first_stage_project(panel, 3), panel)
        else:
            ms = build_revenue_moments(tech.kind, panel)
        res = gmm_minimize(ms, weighting="two-step")
        out.append([res.estimates[n] for n in res.param_names])
    return np.array(out)


@criterion(7, "identified-functional recovery in revenue mode (CES), median of 20 replications")
def test_criterion_7_revenue_recovery():
    ests = _mc_estimates(TRUE_CES, "revenue")
    med_sigma = float(np.median(ests[:, 0]))
    med_ratio = float(np.median(ests[:, 1] / ests[:, 2]))
    true_ratio = TRUE_CES.beta_L / TRUE_CES.beta_M
    assert abs(med_sigma - TRUE_CES.sigma) <= 0.05, f"sigma median {med_sigma:.4f}"
    assert abs(med_ratio - true_ratio) <= 0.10 * true_ratio, f"ratio median {med_ratio:.4f}"
    return f"median sigma {med_sigma:.4f} (true {TRUE_CES.sigma}); median beta_L/beta_M {med_ratio:.4f} (true {true_ratio:.4f})"


@criterion(8, "quantity-mode benchmark recovers the full parameter vector, median of 20 replications")
def test_criterion_8_quantity_benchmark():
    ces = _mc_estimates(TRUE_CES, "quantity")
    med = np.median(ces, axis=0)
    err_ces = np.abs(med - THETA_CES)
    assert np.all(err_ces <= 0.05), f"CES median errors {err_ces.round(4)}"
    cd = _mc_estimates(TRUE_CD, "quantity", seed0=9500)
    med_cd = np.median(cd, axis=0)
    err_cd = np.abs(med_cd - THETA_CD)
    assert np.all(err_cd <= 0.03), f"CD median errors {err_cd.round(4)}"
    return (
        f"CES median errors (sigma, bL, bM, v): {err_ces.round(3)}; "
        f"CD median errors (bK, bL, bM): {err_cd.round(3)}"
    )


@criterion(9, "determinism: identical config and seed give byte-identical artifacts")
def test_criterion_9_determinism(tmp_path):
    from revprod.cli import main

    ini = tmp_path / "run.ini"
    ini.write_text(
        "[run]\nseed = 515\n\n[technology]\nkind = CES\nbeta_l = 0.30\nbeta_m = 0.40\nsigma = 0.50\nv = 0.90\n\n"
        "[panel]\nn_firms = 120\nn_periods = 8\n"
    )
    for d in ("a", "b"):
        assert main(["simulate", "--config", str(ini), "--out", str(tmp_path / d)]) == 0
        panel = str(tmp_path / d / "panel.csv")
        assert main(["estimate", panel, "--config", str(ini), "--mode", "revenue", "--out", str(tmp_path / d)]) == 0
        assert main(["diagnose", panel, "--config", str(ini), "--out", str(tmp_path / d)]) == 0
    names = ("panel.csv", "panel.csv.cache", "provenance.json", "estimate_revenue.json", "identification_report.json")
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between runs"
    return ", ".join(names) + " byte-identical"
