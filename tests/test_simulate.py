import dataclasses
import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from revprod.config import parse_config
from revprod.costmin import marginal_cost_closed_form
from revprod.panel_io import COLUMNS, Panel, write_panel_csv
from revprod.simulate import (
    CapitalPolicy,
    PriceProcess,
    ProductivityProcess,
    SimConfig,
    SimulationError,
    _pricing_root,
    simulate_panel,
    verify_panel,
)
from revprod.technology import CES, CobbDouglas, DemandConfig, ParameterError, ShockConfig

from conftest import edited_config

ROOT = Path(__file__).resolve().parents[1]
# every float field of every parameter dataclass
FLOAT_FIELDS = [
    (cls, f.name)
    for cls in (CobbDouglas, CES, DemandConfig, ShockConfig, ProductivityProcess, CapitalPolicy, PriceProcess)
    for f in dataclasses.fields(cls)
    if f.init and isinstance(f.default, float)
]


def _traced_peak(sim):
    """tracemalloc's peak over a second simulate_panel call: first-call allocations are not the route's."""
    simulate_panel(sim)
    tracemalloc.start()
    try:
        simulate_panel(sim)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFocIdentities:
    def test_cd_target_shares_are_elasticity_over_markup(self, cd_panel):
        # CD(0.25, 0.3, 0.4) with eta = 4: S*M = 0.4/(4/3) = 0.30 exactly
        assert np.max(np.abs(cd_panel.col("sM_star") - 0.30)) < 1e-8
        assert np.max(np.abs(cd_panel.col("sL_star") - 0.225)) < 1e-8

    def test_markup_identity_both_inputs(self, cd_panel, cd_config):
        tech, mu = cd_config.tech, cd_config.demand.mu
        for v, share in (("L", "sL_star"), ("M", "sM_star")):
            theta = tech.elasticity(cd_panel.col("K"), cd_panel.col("L"), cd_panel.col("M"), v)
            got = theta / cd_panel.col(share)
            assert np.max(np.abs(got - mu)) < 1e-8

    def test_share_times_markup_is_elasticity_ces(self, ces_panel, ces_config):
        tech, mu = ces_config.tech, ces_config.demand.mu
        theta = tech.elasticity(ces_panel.col("K"), ces_panel.col("L"), ces_panel.col("M"), "M")
        assert np.max(np.abs(ces_panel.col("sM_star") * mu - theta)) < 1e-8

    def test_price_is_markup_times_marginal_cost(self, ces_panel, ces_config):
        tech, cal_e = ces_config.tech, ces_config.shocks.cal_e
        lam = marginal_cost_closed_form(
            tech,
            ces_panel.col("K"),
            ces_panel.col("L"),
            ces_panel.col("M"),
            ces_panel.col("pL"),
            ces_panel.col("pM"),
            ces_panel.col("omega"),
            cal_e,
        )
        p_implied = ces_config.demand.mu * lam
        assert np.max(np.abs(p_implied - ces_panel.col("P")) / ces_panel.col("P")) < 1e-8


class TestDeterminism:
    def test_same_seed_bit_identical(self, ces_config):
        a = simulate_panel(ces_config)
        b = simulate_panel(ces_config)
        for c in COLUMNS:
            assert np.array_equal(a.col(c), b.col(c)), c

    def test_different_seed_differs(self, ces_config):
        a = simulate_panel(ces_config)
        b = simulate_panel(dataclasses.replace(ces_config, seed=ces_config.seed + 1))
        assert not np.array_equal(a.col("omega"), b.col("omega"))


class TestPanelBytes:
    # SHA-256 of each panel's CSV: the draw order, the scaling of the paths and the recursions
    # of simulate_panel fix these bytes, so a rewrite of any of them must keep them
    CASES = {
        "sigma_eps_zero": (
            dict(tech=CobbDouglas(0.25, 0.3, 0.4), shocks=ShockConfig(sigma_eps=0.0), n_firms=20, n_periods=4, seed=5),
            "9c77b8bfc7ed9d246ed1d5ff2f2f5a4d060783d238d4a0aba268aabc12c2f3eb",
        ),
        "eta_dispersion": (
            dict(tech=CES(0.3, 0.4, 0.5, 1.0), demand=DemandConfig(eta_dispersion=0.05), n_firms=20, n_periods=4, seed=9),
            "7c32b59b49cf569362b2a61daef9e5c3c3fd1838f186d4445902aca9bef2793c",
        ),
        "numeric_solver": (
            dict(tech=CES(0.3, 0.4, 0.5, 0.9), input_solver="numeric", n_firms=12, n_periods=3, seed=77),
            "7426b08714c8db97d011344c1788838a1d0e5891456185576d071a08906e278d",
        ),
        "one_period_no_burn_in": (
            dict(tech=CobbDouglas(0.25, 0.3, 0.4), n_firms=3, n_periods=1, burn_in=0, seed=3),
            "6d9a7e656f9407d456e80fb69e1eddec7ac06d14ce521f4792fc9b00d0024ded",
        ),
        "all_sigmas_zero": (
            dict(
                tech=CES(0.3, 0.4, 0.5, 0.9),
                prod=ProductivityProcess(sigma_xi=0.0),
                capital=CapitalPolicy(sigma_k=0.0),
                prices=PriceProcess(sigma_pL=0.0, sigma_pM=0.0, sigma_pK=0.0, dispersion_pL=0.0),
                shocks=ShockConfig(sigma_eps=0.0),
                n_firms=10,
                n_periods=3,
                seed=11,
            ),
            "df0281b235e4f2dd814e872d7628c1422e0ec78ca41854eb4f9ced6d72085190",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_panel_csv_bytes_pinned(self, case, tmp_path):
        kwargs, sha256 = self.CASES[case]
        write_panel_csv(simulate_panel(SimConfig(**kwargs)), tmp_path / "panel.csv")
        assert hashlib.sha256((tmp_path / "panel.csv").read_bytes()).hexdigest() == sha256


class TestShockHandling:
    def test_degenerate_shock(self, cd_tech):
        cfg = SimConfig(tech=cd_tech, shocks=ShockConfig(sigma_eps=0.0), n_firms=40, n_periods=4, seed=5)
        panel = simulate_panel(cfg)
        assert cfg.shocks.cal_e == 1.0
        assert np.array_equal(panel.col("R"), panel.rstar)
        assert np.all(panel.col("eps") == 0.0)

    def test_realized_vs_planned_output(self, ces_panel, ces_config):
        # planned output Q / exp(eps) is the technology's output times exp(omega)
        planned = ces_panel.col("Q") / np.exp(ces_panel.col("eps"))
        K, L, M = ces_panel.col("K"), ces_panel.col("L"), ces_panel.col("M")
        assert np.allclose(planned, ces_config.tech.output(K, L, M) * np.exp(ces_panel.col("omega")), rtol=1e-14)


class TestVerifyPanel:
    def test_self_generated_panel_clean(self, cd_panel, cd_config, ces_panel, ces_config):
        assert verify_panel(cd_panel, cd_config).passed
        assert verify_panel(ces_panel, ces_config).passed

    def test_perturbed_revenue_flagged_exactly(self, small_cd_panel, small_cd_config):
        data = {c: (None if small_cd_panel.col(c) is None else small_cd_panel.col(c).copy()) for c in COLUMNS}
        bad = [3, 17, 40]
        data["R"][bad] = data["R"][bad] * 1.01
        report = verify_panel(Panel(data=data), small_cd_config)
        assert report.violations["revenue_identity"] == len(bad)
        assert report.first_bad_rows["revenue_identity"] == bad

    # zero firms take the general path: the pricing Newton, and the KKT oracle where it is asked for, run on
    # zero rows and give a panel of the usual dtypes
    @pytest.mark.parametrize("input_solver", ["closed_form", "numeric"])
    @pytest.mark.parametrize("tech", ["cd_tech", "ces_tech"])
    def test_empty_panel_passes(self, tech, input_solver, request):
        cfg = SimConfig(tech=request.getfixturevalue(tech), input_solver=input_solver, n_firms=0, n_periods=1, seed=1)
        panel = simulate_panel(cfg)
        dtypes = {c: np.int64 if c in ("firm_id", "t") else np.float64 for c in COLUMNS}
        assert {c: panel.col(c).dtype for c in COLUMNS} == dtypes
        report = verify_panel(panel, cfg)
        assert report.n_rows == 0
        assert report.passed


class TestStochasticStructure:
    def test_markov_coefficients_recovered(self, ces_panel, ces_config):
        # pooled regression of omega on its lag recovers (c0, rho)
        cur, lag = ces_panel.lag_index()
        w = ces_panel.col("omega")
        X = np.column_stack([np.ones(cur.size), w[lag]])
        coef, *_ = np.linalg.lstsq(X, w[cur], rcond=None)
        resid = w[cur] - X @ coef
        se = np.sqrt(np.var(resid) * np.linalg.inv(X.T @ X).diagonal())
        assert abs(coef[0] - ces_config.prod.c0) < 3 * se[0]
        assert abs(coef[1] - ces_config.prod.rho) < 3 * se[1]

    def test_innovation_mean_independence(self, ces_panel, ces_config):
        # E[xi | lagged observables] = 0: sample moments below 4/sqrt(n)
        cur, lag = ces_panel.lag_index()
        w = ces_panel.col("omega")
        xi = w[cur] - ces_config.prod.c0 - ces_config.prod.rho * w[lag]
        n = cur.size
        for z in (
            np.log(ces_panel.col("K"))[cur],
            np.log(ces_panel.col("L"))[lag],
            np.log(ces_panel.col("M"))[lag],
            np.log(ces_panel.col("pL"))[lag],
        ):
            zc = z - z.mean()
            assert abs(np.mean(xi * zc)) < 4.0 / math.sqrt(n)

    def test_heterogeneous_markups_hook(self, ces_tech):
        cfg = SimConfig(
            tech=ces_tech,
            demand=DemandConfig(eta=4.0, scale=2.0, eta_dispersion=0.1),
            n_firms=60,
            n_periods=4,
            seed=9,
        )
        panel = simulate_panel(cfg)
        # markup varies across firms but the share identity still holds per row
        theta = ces_tech.elasticity(panel.col("K"), panel.col("L"), panel.col("M"), "M")
        mu = theta / panel.col("sM_star")
        per_firm = mu.reshape(60, 4)
        assert np.std(per_firm[:, 0]) > 1e-3
        assert np.max(np.abs(per_firm - per_firm[:, :1])) < 1e-10
        assert verify_panel(panel, cfg).passed


class TestInputSolverRoute:
    def test_numeric_route_matches_closed_form(self, ces_tech):
        base = SimConfig(tech=ces_tech, n_firms=12, n_periods=3, seed=77)
        numeric = dataclasses.replace(base, input_solver="numeric")
        a = simulate_panel(base)
        b = simulate_panel(numeric)
        for c in ("L", "M", "R", "sM_star"):
            assert np.allclose(a.col(c), b.col(c), rtol=1e-8), c

    # shipped configs with one line changed: configs/ces.ini at sigma = -0.1, where the pricing Newton slope comes
    # from a technology on the other side of sigma = 0, and the cd-oracle workload at 5,000 firms
    EDITED_CONFIGS = {
        "ces_sigma_neg": ("configs/ces.ini", "sigma = 0.50", "sigma = -0.1", 5000),
        "cd_oracle_10x": ("perfbench/configs/cd-oracle.ini", "n_firms = 500", "n_firms = 5000", 50000),
    }

    @pytest.mark.parametrize("which", ["cd", "ces", *EDITED_CONFIGS])
    def test_full_panel_numeric_matches_closed_form(self, which, request, tmp_path):
        # the KKT oracle's panel passes verify, and its inputs match the closed form's
        if which in self.EDITED_CONFIGS:
            *edit, rows = self.EDITED_CONFIGS[which]
            cfg = dataclasses.replace(parse_config(edited_config(*edit, tmp_path)).sim, input_solver="closed_form")
            closed = simulate_panel(cfg)
        else:
            cfg, closed, rows = request.getfixturevalue(f"{which}_config"), request.getfixturevalue(f"{which}_panel"), 5000
        cfg = dataclasses.replace(cfg, input_solver="numeric")
        numeric = simulate_panel(cfg)
        assert len(numeric) == len(closed) == rows
        assert verify_panel(numeric, cfg).passed
        for c in ("L", "M"):
            np.testing.assert_allclose(numeric.col(c), closed.col(c), rtol=1e-12, atol=0.0, err_msg=c)

    def test_numeric_route_working_set(self):
        # The KKT oracle evaluates only the rows still moving, one probe at a time, so on the
        # 500x10 cd-oracle panel the numeric route's traced peak stays within 1.25 MiB of the
        # closed form's (it reads 0.42 MiB)
        cfg = parse_config(ROOT / "perfbench" / "configs" / "cd-oracle.ini").sim
        assert cfg.input_solver == "numeric" and cfg.n_firms * cfg.n_periods == 5000
        extra = _traced_peak(cfg) - _traced_peak(dataclasses.replace(cfg, input_solver="closed_form"))
        assert extra < 1.25 * 2**20, extra / 2**20

    def test_shock_block_released_after_the_recursions(self):
        # the shocks, burn-in draws included, are dropped once the recursions have read them, so the
        # 500x10 configs/ces.ini panel's traced peak stays below 2 MiB (it reads 1.50 MiB)
        cfg = parse_config(ROOT / "configs" / "ces.ini").sim
        assert cfg.n_firms * cfg.n_periods == 5000
        peak = _traced_peak(cfg)
        assert peak < 2.0 * 2**20, peak / 2**20


class TestConfigValidation:
    def test_scale_above_markup_rejected(self, ces_tech):
        # v = 0.9 needs mu > 0.9; eta = 10 gives mu = 1.11 (fine), eta -> large breaks
        with pytest.raises(ParameterError):
            SimConfig(tech=CES(0.3, 0.4, 0.5, 1.2), demand=DemandConfig(eta=8.0), seed=1)

    def test_nonstationary_processes_rejected(self):
        with pytest.raises(ParameterError):
            ProductivityProcess(rho=1.0)
        with pytest.raises(ParameterError):
            CapitalPolicy(kappa_k=1.0)
        with pytest.raises(ParameterError):
            PriceProcess(rho_pL=1.01)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.nan])
    def test_non_positive_demand_scale_rejected(self, scale):
        with pytest.raises(ParameterError, match="scale must be strictly positive"):
            DemandConfig(scale=scale)

    def test_unsolved_pricing_rows_named(self):
        # every parameter is finite by construction, so a NaN reaches the pricing root only in its input rows
        ones = np.ones(20)
        with pytest.raises(SimulationError, match=r"pricing fixed point failed to converge at rows \[0, 1, 2, "):
            _pricing_root(CES(), ones, np.full(20, math.nan), ones, ones, 4.0 / 3.0, 4.0, 2.0, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("cls, name", FLOAT_FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in FLOAT_FIELDS])
    def test_non_finite_parameter_names_the_field(self, cls, name, value):
        with pytest.raises(ParameterError, match=rf"\b{name}\b"):
            cls(**{name: value})
