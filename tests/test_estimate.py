import dataclasses
import itertools
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from revprod import estimate
from revprod.config import parse_config
from revprod.diagnostics import profile_scan
from revprod.estimate import (
    BASIC_INSTRUMENTS,
    DEFAULT_INSTRUMENTS,
    INSTRUMENT_TOKENS,
    EstimationError,
    SearchChart,
    _instruments,
    _lag_bundle,
    _two_step_weight,
    build_quantity_moments,
    build_revenue_moments,
    first_stage_project,
    gmm_minimize,
    to_chart,
    to_theta,
)
from revprod.panel_io import COLUMNS, Panel, PanelFormatError
from revprod.simulate import SimConfig, simulate_panel
from revprod.technology import CES, CobbDouglas, ShockConfig
from revprod.validator import validate


ROOT = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = ["configs/ces.ini", "configs/cd.ini", "perfbench/configs/cd-oracle.ini"]


def theta_true(cfg):
    tech = cfg.tech
    if tech.kind == "CD":
        return np.array([tech.beta_K, tech.beta_L, tech.beta_M])
    return np.array([tech.sigma, tech.beta_L, tech.beta_M, tech.v])


def x_true(cfg):
    return to_chart(theta_true(cfg))


class TestFirstStage:
    def test_noise_free_panel_fits_exactly(self, cd_tech):
        cfg = SimConfig(tech=cd_tech, shocks=ShockConfig(sigma_eps=0.0), n_firms=60, n_periods=5, seed=3)
        panel = simulate_panel(cfg)
        fs = first_stage_project(panel, 3)
        assert np.max(np.abs(fs.residuals)) < 1e-10
        assert np.allclose(fs.fitted, np.log(panel.col("Q")), atol=1e-10)

    def test_residual_mean_zero(self, ces_panel):
        fs = first_stage_project(ces_panel, 3)
        assert abs(fs.residuals.mean()) < 1e-12

    def test_fitted_tracks_planned_output(self, ces_panel):
        fs = first_stage_project(ces_panel, 3)
        corr = np.corrcoef(fs.fitted, np.log(ces_panel.col("Q")) - ces_panel.col("eps"))[0, 1]
        assert corr >= 0.999

    def test_quantity_mode_requires_q(self, small_cd_panel):
        data = {c: small_cd_panel.col(c) for c in COLUMNS}
        data["Q"] = None
        panel = Panel(data=data)
        with pytest.raises(PanelFormatError, match="quantities unobserved"):
            first_stage_project(panel, 3)

    def test_degree_reduced_when_underdetermined(self, cd_tech):
        cfg = SimConfig(tech=cd_tech, n_firms=5, n_periods=2, seed=3)
        panel = simulate_panel(cfg)
        fs = first_stage_project(panel, 3)
        assert fs.degree < 3

    def test_degree_rule_counts_all_five_observables(self, cd_tech, monkeypatch, caplog):
        # 40 rows would fit the 35-column degree-3 design, but the rule counts the 56 columns in all five
        panel = simulate_panel(SimConfig(tech=cd_tech, n_firms=8, n_periods=5, seed=3))
        with caplog.at_level(logging.WARNING, logger="revprod.estimate"):
            fs, shape = _first_stage_and_design_shape(panel, 3, monkeypatch)
        assert fs.degree == 2 and shape == (40, 15)
        assert caplog.messages == [
            "first stage degree 3: the polynomial in all five observables has 56 columns, more than the 40 rows; reducing degree"
        ]

    def test_poly_design_multiplies_factors_in_order(self):
        # each monomial is an earlier column times one observable: the product of its factors taken left to right,
        # bit for bit
        X = np.random.default_rng(7).normal(size=(50, 4))
        ref = [np.ones(50)]
        for d in (1, 2, 3):
            for combo in itertools.combinations_with_replacement(range(4), d):
                col = np.ones(50)
                for j in combo:
                    col = col * X[:, j]
                ref.append(col)
        assert np.array_equal(estimate._poly_design(X, 3), np.column_stack(ref))

    @pytest.mark.parametrize("config", ["ces.ini", "cd.ini"])
    def test_matches_scipy_lstsq_bitwise(self, config, monkeypatch):
        # the projection is numpy's lstsq, and its fitted values are bit-identical to scipy.linalg's at numpy's
        # rank cutoff, which projected before; cost minimization leaves four independent observables, so the
        # design has the 35 columns of a cubic in four, at full rank
        cfg = parse_config(ROOT / "configs" / config)
        panel = simulate_panel(cfg.sim)
        degree = cfg.estimation.first_stage_degree
        fs, shape = _first_stage_and_design_shape(panel, degree, monkeypatch)
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "lstsq", lambda a, b, rcond: scipy.linalg.lstsq(a, b, cond=np.finfo(float).eps * max(a.shape)))
            ref = first_stage_project(panel, degree)
        assert fs.rank == ref.rank == shape[1] == 35
        assert np.array_equal(fs.fitted, ref.fitted)

    @pytest.mark.parametrize("config", SHIPPED_CONFIGS)
    def test_matches_full_design_projection(self, config):
        # the cubic in the independent observables spans the cubic in all five
        cfg = parse_config(ROOT / config)
        panel = simulate_panel(cfg.sim)
        fs = first_stage_project(panel, cfg.estimation.first_stage_degree)
        ref = _full_design_fit(panel, cfg.estimation.first_stage_degree)
        assert np.max(np.abs(fs.fitted - ref)) < 1e-12

    def test_independent_observables_keep_full_design(self, small_ces_panel, monkeypatch):
        # M off the cost-minimizing manifold: all five observables are expanded
        data = {c: small_ces_panel.col(c) for c in COLUMNS}
        data["M"] = data["M"] * np.exp(np.random.default_rng(5).normal(0.0, 0.1, len(small_ces_panel)))
        panel = Panel(data=data)
        fs, shape = _first_stage_and_design_shape(panel, 3, monkeypatch)
        assert fs.rank == shape[1] == 56
        assert np.max(np.abs(fs.fitted - _full_design_fit(panel, 3))) < 1e-12

    def test_constant_q_fits_exactly(self):
        # log Q = log 2 on every row of the configs/cd.ini panel: rounding leaves its total sum of squares at
        # 6.2e-29, not 0, and that is no spread to explain (it read r_squared = -4058.69)
        panel = simulate_panel(parse_config(ROOT / "configs" / "cd.ini").sim)
        data = {c: panel.col(c) if panel.has(c) else None for c in COLUMNS}
        data["Q"] = np.full(len(panel), 2.0)
        assert first_stage_project(Panel(data=data), 3).r_squared == 1.0

    def test_constant_observable_dropped(self, small_cd_panel, monkeypatch):
        data = {c: small_cd_panel.col(c) for c in COLUMNS}
        data["K"] = np.full(len(small_cd_panel), 2.5)
        panel = Panel(data=data)
        fs, shape = _first_stage_and_design_shape(panel, 3, monkeypatch)
        # K drops out, and so does one of L and M, which the prices tie together: a cubic in three
        assert fs.degree == 3 and fs.rank == shape[1] == 20
        assert np.max(np.abs(fs.fitted - _full_design_fit(panel, 3))) < 1e-12


class TestPivotedRank:
    @staticmethod
    def _pivoted_rank(A):
        """estimate._pivoted_rank on A's own QR triangle."""
        return estimate._pivoted_rank(np.linalg.qr(A, mode="r"), A.shape[0])

    @staticmethod
    def _lapack(A):
        """(rank, pivots) from LAPACK's geqp3 through scipy, at the same cutoff."""
        R, piv = scipy.linalg.qr(A, mode="r", pivoting=True)
        d = np.abs(np.diag(R))
        return int(np.count_nonzero(d > np.finfo(float).eps * max(A.shape) * d[0])), piv.tolist()

    @staticmethod
    def _same_span(A, rank, piv, other):
        """Whether the first rank columns of A in the orders piv and other span one space."""
        return np.linalg.matrix_rank(np.column_stack([A[:, piv[:rank]], A[:, other[:rank]]])) == rank

    @pytest.mark.parametrize("config", SHIPPED_CONFIGS)
    def test_matches_lapack_on_shipped_panels(self, config):
        # scipy.linalg.qr's rank, and the span of the columns it keeps: on the default instruments; on the
        # standardised first-stage observables, whose equal norms tie at the first pivot (which one LAPACK
        # takes rests on the rounding of its norms) and whose rank cost minimization cuts to four; and on the
        # instruments with a planted dependent column
        sim = parse_config(ROOT / config).sim
        panel = simulate_panel(sim)
        cur, lag, logs = _lag_bundle(panel, ("K", "L", "M", "pL", "pM"))
        Z = _instruments(type(sim.tech), logs, cur, lag, DEFAULT_INSTRUMENTS)[0]
        X = np.column_stack([np.log(panel.col(c)) for c in ("K", "L", "M", "pL", "pM")])
        Xs = (X - X.mean(axis=0)) / X.std(axis=0)
        planted = np.column_stack([Z, 2.0 * Z[:, 2] - 0.5 * Z[:, 4]])
        for A, rank in ((Z, 11), (Xs, 4), (planted, 11)):
            got, piv = self._pivoted_rank(A)
            lapack, lapack_piv = self._lapack(A)
            assert got == lapack == rank
            assert sorted(piv.tolist()) == list(range(A.shape[1]))
            assert self._same_span(A, rank, piv, lapack_piv)
        # the Z block of the triangle of [Z X y] that _instruments factors, X and y the expenditure ratio's
        # regressors and log ratio, gives the rank and pivots of Z's own triangle, and is left as it was
        l, m, pl, pm = (logs[c][cur] for c in ("L", "M", "pL", "pM"))
        X = [np.ones(cur.size)] + ([l - m] if sim.tech.kind == "CES" else [])
        R = np.linalg.qr(np.column_stack([Z, *X, l + pl - m - pm]), mode="r")
        before = R.tobytes()
        got, piv = estimate._pivoted_rank(R[:11, :11], cur.size)
        own, own_piv = self._pivoted_rank(Z)
        assert got == own == 11 and piv.tolist() == own_piv.tolist()
        assert R.tobytes() == before

    def test_planted_dependent_column_is_the_last_pivot(self):
        A = np.random.default_rng(11).normal(size=(200, 6))
        A[:, 3] = 3.0 * A[:, 0] - A[:, 5]
        rank, piv = self._pivoted_rank(A)
        assert rank == self._lapack(A)[0] == 5 and piv[-1] in (0, 3, 5)
        assert self._same_span(A, rank, piv, self._lapack(A)[1])

    def test_near_ties_go_to_the_first_column(self):
        # orthonormal columns, whose norms differ by rounding alone, keep their order
        Q = np.linalg.qr(np.random.default_rng(5).normal(size=(300, 5)))[0]
        rank, piv = self._pivoted_rank(Q[:, ::-1])
        assert rank == 5 and piv.tolist() == list(range(5))


def _first_stage_and_design_shape(panel, degree, monkeypatch):
    """first_stage_project's result and the shape of the design it projects on."""
    shapes = []
    lstsq = np.linalg.lstsq
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "lstsq", lambda a, b, **kw: shapes.append(a.shape) or lstsq(a, b, **kw))
        fs = first_stage_project(panel, degree)
    (shape,) = shapes
    return fs, shape


def _full_design_fit(panel, degree):
    """Fitted values of log Q on the cubic in all five standardised log observables, by numpy's minimum-norm lstsq."""
    logs = np.column_stack([np.log(panel.col(c)) for c in ("K", "L", "M", "pL", "pM")])
    sd = logs.std(axis=0)
    sd[sd == 0.0] = 1.0
    Xs = (logs - logs.mean(axis=0)) / sd
    design = np.column_stack(
        [np.prod(Xs[:, list(c)], axis=1) for d in range(degree + 1) for c in itertools.combinations_with_replacement(range(5), d)]
    )
    coef = np.linalg.lstsq(design, np.log(panel.col("Q")), rcond=None)[0]
    return design @ coef


class TestMomentSystems:
    def test_quantity_moments_small_at_truth(self, ces_panel, ces_config, cd_panel, cd_config):
        for panel, cfg in ((ces_panel, ces_config), (cd_panel, cd_config)):
            fs = first_stage_project(panel, 3)
            ms = build_quantity_moments(cfg.tech.kind, fs, panel)
            m = ms.moments(x_true(cfg.sim if hasattr(cfg, "sim") else cfg))
            assert np.max(np.abs(m)) < 4.0 / math.sqrt(ms.n_obs)

    def test_revenue_moments_small_at_truth_any_v(self, ces_panel):
        ms = build_revenue_moments("CES", ces_panel)
        bound = 4.0 / math.sqrt(ms.n_obs)
        for v in (0.6, 0.9, 1.25):
            m = ms.moments(to_chart([0.5, 0.3, 0.4, v]))
            assert np.max(np.abs(m)) < bound

    def test_revenue_moments_small_at_any_share_scale(self, ces_panel):
        # only the ratio beta_L/beta_M is pinned; a common rescaling moves nothing, to the bit, since the
        # predictor never reads the share scale
        ms = build_revenue_moments("CES", ces_panel)
        x = to_chart([0.5, 0.3, 0.4, 0.9])
        ref = ms.moments(x)
        for c in (0.5, 1.4):
            x[2] = c * 0.7
            assert np.array_equal(ms.moments(x), ref)

    def test_firm_order_irrelevant(self, small_ces_panel, small_ces_config):
        rng = np.random.default_rng(1)
        perm = rng.permutation(len(small_ces_panel))
        shuffled = Panel(data={c: (None if small_ces_panel.col(c) is None else small_ces_panel.col(c)[perm]) for c in COLUMNS})
        for panel in (small_ces_panel, shuffled):
            fs = first_stage_project(panel, 3)
            ms = build_quantity_moments("CES", fs, panel)
            m = ms.moments(x_true(small_ces_config))
            if panel is small_ces_panel:
                ref = m
        assert np.allclose(ref, m, atol=1e-12)

    def test_g_degree_one_recovers_ar1(self, ces_panel, ces_config):
        fs = first_stage_project(ces_panel, 3)
        ms = build_quantity_moments("CES", fs, ces_panel, g_degree=1)
        g = ms.g_coefficients(x_true(ces_config))
        assert g[0] == pytest.approx(ces_config.prod.c0, abs=0.03)
        assert g[1] == pytest.approx(ces_config.prod.rho, abs=0.05)

    def test_revenue_objective_flat_in_v_bitwise(self, ces_panel):
        ms = build_revenue_moments("CES", ces_panel)
        a = ms.objective(to_chart([0.5, 0.3, 0.4, 0.62]))
        b = ms.objective(to_chart([0.5, 0.3, 0.4, 1.17]))
        assert a == b

    def test_revenue_objective_flat_in_beta_k_bitwise(self, cd_panel):
        ms = build_revenue_moments("CD", cd_panel)
        a = ms.objective(to_chart([0.05, 0.3, 0.4]))
        b = ms.objective(to_chart([0.85, 0.3, 0.4]))
        assert a == b

    def test_sigma_direction_not_flat(self, ces_panel, ces_config):
        ms = build_revenue_moments("CES", ces_panel)
        at_truth = ms.objective(x_true(ces_config))
        for d in (-0.1, 0.1):
            shifted = x_true(ces_config) + np.array([d, 0, 0, 0])
            assert ms.objective(shifted) > 10.0 * max(at_truth, 1e-12)

    def test_basic_instrument_subset_supported(self, small_ces_panel, small_ces_config):
        fs = first_stage_project(small_ces_panel, 3)
        ms = build_quantity_moments("CES", fs, small_ces_panel, instruments=BASIC_INSTRUMENTS)
        assert ms.Z.shape[1] == len(BASIC_INSTRUMENTS)
        m = ms.moments(x_true(small_ces_config))
        assert np.max(np.abs(m)) < 4.0 / math.sqrt(ms.n_obs)

    def test_unknown_instrument_token(self, small_ces_panel):
        fs = first_stage_project(small_ces_panel, 3)
        with pytest.raises(ValueError, match="unknown instrument"):
            build_quantity_moments("CES", fs, small_ces_panel, instruments=("const", "bogus"))

    def test_every_token_builds_one_column(self, small_ces_panel):
        # the vocabulary check_instruments accepts is the one _instruments builds
        assert len(set(INSTRUMENT_TOKENS)) == 16
        cur, lag, logs = _lag_bundle(small_ces_panel, ("K", "L", "M", "pL", "pM"))
        for token in INSTRUMENT_TOKENS:
            assert _instruments(CES, logs, cur, lag, (token,))[0].shape == (cur.size, 1), token

    @pytest.mark.parametrize("config", SHIPPED_CONFIGS)
    def test_default_instruments_full_rank_on_shipped_panels(self, config):
        # cost minimization ties log L - log M to log pL - log pM exactly, so
        # the default sets must not hold both input lags with both price lags
        cfg = parse_config(ROOT / config)
        panel = simulate_panel(cfg.sim)
        cur, lag, logs = _lag_bundle(panel, ("K", "L", "M", "pL", "pM"))
        Z = _instruments(type(cfg.sim.tech), logs, cur, lag, DEFAULT_INSTRUMENTS)[0]
        assert np.linalg.matrix_rank(Z) == len(DEFAULT_INSTRUMENTS)
        R = scipy.linalg.qr(Z, mode="r", pivoting=True)[0]
        assert np.min(np.abs(np.diag(R))) / abs(R[0, 0]) > 1e-2
        # so the moment covariance at the truth is well conditioned in both modes
        fs = first_stage_project(panel, cfg.estimation.first_stage_degree)
        kind = cfg.sim.tech.kind
        for ms in (build_quantity_moments(kind, fs, panel), build_revenue_moments(kind, panel)):
            assert np.linalg.cond(ms.moment_covariance(x_true(cfg.sim))) < 1e4

    @pytest.mark.parametrize(
        "kind, mode, g_degree", [("CES", "revenue", None), ("CES", "quantity", 1), ("CD", "revenue", None), ("CD", "quantity", 1), ("CD", "quantity", 2)]
    )
    def test_chart_point_of_wrong_shape_rejected(self, request, kind, mode, g_degree):
        # before the check a CES revenue system took two entries, and a CD system read only the first three of four
        ms = _system(kind, mode, g_degree, request.getfixturevalue(f"small_{kind.lower()}_panel"))[0]
        x0 = ms.chart.x0
        calls = [ms.objective, ms.moments, ms.jacobian, ms.moment_covariance, ms.objective_and_gradient]
        if mode == "quantity":
            calls.append(ms.g_coefficients)
        for x in (x0[:-1], np.append(x0, 0.5), x0[None, :], float(x0[0])):
            names = ", ".join(ms.chart.names)
            for call in calls:
                with pytest.raises(ValueError, match=f"^{re.escape(f'a point has one entry per chart coordinate {names}; got shape {np.shape(x)}')}$"):
                    call(x)

    def test_collinear_instrument_set_rejected(self, small_ces_panel):
        fs = first_stage_project(small_ces_panel, 3)
        collinear = ("const", "l_lag", "m_lag", "pl_lag", "pm_lag")
        with pytest.raises(ValueError, match="instruments const l_lag m_lag pl_lag pm_lag are collinear"):
            build_quantity_moments("CES", fs, small_ces_panel, instruments=collinear)
        with pytest.raises(ValueError, match="instruments const k_t const repeat const: a repeated token is collinear on every panel"):
            build_revenue_moments("CES", small_ces_panel, instruments=("const", "k_t", "const"))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda panel: first_stage_project(panel, 0), r"^polynomial degree must be >= 1$"),
        (lambda panel: build_quantity_moments("CD", first_stage_project(panel, 3), panel, g_degree=0), r"^g_degree must be >= 1$"),
        (lambda panel: CobbDouglas.revenue_predictor({}, "K"), r"^unknown input 'K'; expected one of L, M$"),
        (lambda panel: gmm_minimize(build_revenue_moments("CD", panel), weighting="three-step"), r"^weighting must be 'identity' or 'two-step'$"),
    ],
    ids=["first_stage_degree", "g_degree", "which_v", "weighting"],
)
def test_library_argument_checks(small_cd_panel, call, message):
    with pytest.raises(ValueError, match=message):
        call(small_cd_panel)


def test_ces_quantity_prediction_outside_the_domain_rejected(small_ces_panel):
    ms = build_quantity_moments("CES", first_stage_project(small_ces_panel, 3), small_ces_panel)
    x = to_chart([0.5, 0.5, 0.5, 0.9])  # beta_L + beta_M = 1 leaves no capital share
    with pytest.raises(ValueError, match=r"^the CES quantity prediction needs beta_L \+ beta_M < 1"):
        ms.objective(x)


class ReferenceCore:
    """Moment core written the long way, at chart points x, which it maps to theta itself.  Quantity:
    separate current and lagged predictions, then a least-squares fit of g on [1, w_lag, ...,
    w_lag^d].  Revenue: the prediction on the current rows and r = R / exp(prediction) - 1."""

    def __init__(self, ms, panel, fitted=None, which_v="M"):
        cur, lag = panel.lag_index()
        self.ms = ms
        if fitted is not None:
            self.y_t, self.y_lag = fitted[cur], fitted[lag]
        self.revenue_t = panel.col("R")[cur]
        logs = {c: np.log(panel.col(c)) for c in ("K", "L", "M", "pL", "pM", "sL_star", "sM_star")}
        self.rows_t = {c: v[cur] for c, v in logs.items()}
        self.rows_lag = {c: v[lag] for c, v in logs.items()}
        self.which_v = which_v

    def _predict(self, x, rows):
        # theta from the chart point: beta_L = c a and beta_M = c (1 - a)
        theta = np.array(x, float)
        theta[1], theta[2] = x[2] * x[1], x[2] * (1.0 - x[1])
        kind, mode = self.ms.tech_kind, self.ms.mode
        k, l, m, pl, pm = rows["K"], rows["L"], rows["M"], rows["pL"], rows["pM"]
        if mode == "quantity" and kind == "CD":
            bK, bL, bM = theta
            return bK * k + bL * l + bM * m
        if mode == "quantity":
            sg, bL, bM, v = theta
            bK = 1.0 - bL - bM
            return (v / sg) * np.log(bK * np.exp(sg * k) + bL * np.exp(sg * l) + bM * np.exp(sg * m))
        s = rows["sL_star" if self.which_v == "L" else "sM_star"]
        if kind == "CD":
            _, bL, bM = theta
            a = bL / (bL + bM)
            w_v = a if self.which_v == "L" else 1.0 - a
            theta0 = np.log(w_v) - a * np.log(a) - (1.0 - a) * np.log(1.0 - a)
            return theta0 + a * (l + pl) + (1.0 - a) * (m + pm) - s
        sg, bL, bM, _ = theta
        bV, v_in = (bL, l) if self.which_v == "L" else (bM, m)
        e = sg / (sg - 1.0)
        agg = np.log(bL * np.exp(sg * l) + bM * np.exp(sg * m))
        B = np.log(np.exp(e * pl) * bL ** (-1.0 / (sg - 1.0)) + np.exp(e * pm) * bM ** (-1.0 / (sg - 1.0)))
        return np.log(bV) + sg * v_in + (1.0 - sg) / sg * agg + (sg - 1.0) / sg * B - s

    def _core(self, x):
        w_t = self.y_t - self._predict(x, self.rows_t)
        w_lag = self.y_lag - self._predict(x, self.rows_lag)
        X = np.column_stack([w_lag**d for d in range(self.ms.g_degree + 1)])
        coef, *_ = np.linalg.lstsq(X, w_t, rcond=None)
        return w_t - X @ coef, coef

    def _residual(self, x):
        if self.ms.mode == "revenue":
            return self.revenue_t / np.exp(self._predict(x, self.rows_t)) - 1.0
        return self._core(x)[0]

    def g_coefficients(self, x):
        return self._core(x)[1]

    def g_tolerance(self, x):
        """Relative accuracy of g_coefficients.  lstsq on raw powers of the
        lag is only good to a small multiple of cond(X) * eps, which exceeds
        1e-10 when the lag has a large mean and a small spread; the fused
        core fits centred powers and is not the limit there."""
        w_lag = self.y_lag - self._predict(x, self.rows_lag)
        X = np.column_stack([w_lag**d for d in range(self.ms.g_degree + 1)])
        return max(1e-10, 10.0 * float(np.linalg.cond(X)) * np.finfo(float).eps)

    def moments(self, x):
        return self.ms.Z.T @ self._residual(x) / self.ms.n_obs

    def moment_covariance(self, x):
        G = self.ms.Z * self._residual(x)[:, None]
        return G.T @ G / self.ms.n_obs

    def objective(self, x, weight=None):
        m = self.moments(x)
        return self.ms.n_obs * (float(m @ m) if weight is None else float(m @ weight @ m))


def _system(kind, mode, g_degree, panel):
    """Quantity system of Markov degree g_degree, or the revenue system, which has no Markov polynomial
    ("revenue-L": on the revenue equation of L rather than M)."""
    if mode.startswith("revenue"):
        return build_revenue_moments(kind, panel, which_v="L" if mode == "revenue-L" else "M"), None
    fs = first_stage_project(panel, 3)
    return build_quantity_moments(kind, fs, panel, g_degree=g_degree), fs.fitted


def _record_linearizations(ms):
    """The list to which ms now appends each point at which it takes its linearization."""
    points, linearize = [], ms._linearize

    def recording(x):
        points.append(np.array(x, float))
        return linearize(x)

    ms._linearize = recording
    return points


def _count_derivatives(ms):
    """The dict in which ms now counts its predictions, the calls of their derivatives and those of the residual's
    forward derivative."""
    calls = {"predict": 0, "derivatives": 0, "forward": 0}
    predict, residual = ms._predict, ms._residual

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    def predicting(x):
        pred, derivatives = counted("predict", predict)(x)
        return pred, counted("derivatives", derivatives)

    def residing(pred):
        e, forward = residual(pred)
        return e, counted("forward", forward)

    residing.coefficients = getattr(residual, "coefficients", None)
    ms._predict, ms._residual = predicting, residing
    return calls


def _shares_045_05_system(seed):
    """The CES quantity system of configs/ces.ini at beta_L, beta_M = 0.45, 0.5 and the given panel seed,
    with the config's estimation settings."""
    cfg = parse_config(ROOT / "configs" / "ces.ini")
    tech = CES(beta_L=0.45, beta_M=0.5, sigma=cfg.sim.tech.sigma, v=cfg.sim.tech.v)
    panel = simulate_panel(dataclasses.replace(cfg.sim, tech=tech, seed=seed))
    est = cfg.estimation
    return build_quantity_moments("CES", first_stage_project(panel, est.first_stage_degree), panel, g_degree=est.g_degree)


def _draw_points(ms, rng, n, low=0.0, high=1.0):
    """n chart points, each coordinate drawn in [low, high] of its box width, normalised coordinates included."""
    lo, hi = (np.array(b) for b in zip(*ms.chart.bounds))
    return list(lo + rng.uniform(low, high, size=(n, lo.size)) * (hi - lo))


def _never_read(ms):
    """The chart coordinates a revenue system's predictor never reads; none for a quantity system."""
    return ("beta_L+beta_M", "v" if ms.tech_kind == "CES" else "beta_K") if ms.mode == "revenue" else ()


def _rel_gap(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestFusedCore:
    @pytest.mark.parametrize("g_degree", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["quantity", "revenue", "revenue-L"])
    @pytest.mark.parametrize("kind", ["CD", "CES"])
    def test_matches_reference_core(self, kind, mode, g_degree, cd_panel, ces_panel):
        # in revenue mode g_degree only changes the random draws
        panel = cd_panel if kind == "CD" else ces_panel
        ms, fitted = _system(kind, mode, g_degree, panel)
        ref = ReferenceCore(ms, panel, fitted, which_v="L" if mode == "revenue-L" else "M")
        rng = np.random.default_rng(100 + g_degree)
        A = rng.normal(size=(ms.n_moments, ms.n_moments))
        W = A @ A.T / ms.n_moments + np.eye(ms.n_moments)
        for x in _draw_points(ms, rng, 20):
            assert _rel_gap(ms.objective(x), ref.objective(x)) <= 1e-10
            assert _rel_gap(ms.objective(x, W), ref.objective(x, W)) <= 1e-10
            assert _rel_gap(ms.moments(x), ref.moments(x)) <= 1e-10
            assert _rel_gap(ms.moment_covariance(x), ref.moment_covariance(x)) <= 1e-10
            if mode == "quantity":
                assert _rel_gap(ms.g_coefficients(x), ref.g_coefficients(x)) <= ref.g_tolerance(x)

    @pytest.mark.parametrize("mode", ["quantity", "revenue"])
    def test_objective_calls_predictor_once(self, mode, small_ces_panel, small_ces_config):
        ms = _system("CES", mode, 1, small_ces_panel)[0]
        calls = []
        predict = ms._predict

        def counting(x):
            calls.append(1)
            return predict(x)

        ms._predict = counting
        ms.objective(x_true(small_ces_config))
        assert len(calls) == 1
        ms.objective_and_gradient(x_true(small_ces_config))
        assert len(calls) == 2


class TestClosedForm:
    """Cobb-Douglas quantity systems at g_degree 1 evaluate from precomputed cross-products."""

    def test_only_cd_at_degree_one(self, cd_panel, ces_panel):
        assert _system("CD", "quantity", 1, cd_panel)[0]._closed_form is not None
        assert _system("CD", "quantity", 2, cd_panel)[0]._closed_form is None
        assert _system("CES", "quantity", 1, ces_panel)[0]._closed_form is None
        assert _system("CD", "revenue", None, cd_panel)[0]._closed_form is None

    def test_matches_row_path(self, cd_panel):
        ms = _system("CD", "quantity", 1, cd_panel)[0]
        row = dataclasses.replace(ms, _closed_form=None)
        rng = np.random.default_rng(400)
        A = rng.normal(size=(ms.n_moments, ms.n_moments))
        W = A @ A.T / ms.n_moments + np.eye(ms.n_moments)
        for x in _draw_points(ms, rng, 20):
            assert _rel_gap(ms.moments(x), ms._evaluate(x)[0] @ ms.Z / ms.n_obs) <= 1e-10
            assert _rel_gap(ms.jacobian(x), row.jacobian(x)) <= 1e-10
            for weight in (None, W):
                value, grad = ms.objective_and_gradient(x, weight)
                row_value, row_grad = row.objective_and_gradient(x, weight)
                assert _rel_gap(value, row_value) <= 1e-10
                assert _rel_gap(ms.objective(x, weight), row_value) <= 1e-10
                assert _rel_gap(grad, row_grad) <= 1e-10

    def test_search_never_predicts_rows(self, small_cd_panel):
        # the predictor runs only for the moment covariance and g, not once per evaluation
        ms = _system("CD", "quantity", 1, small_cd_panel)[0]
        calls = {"predict": 0, "row statistics": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)

            return wrapped

        ms._predict = counting("predict", ms._predict)
        ms.moment_covariance = counting("row statistics", ms.moment_covariance)
        ms.g_coefficients = counting("row statistics", ms.g_coefficients)
        result = gmm_minimize(ms)
        assert sum(m["n_evals"] for m in result.minima) > 10
        assert calls["predict"] == calls["row statistics"] == 3  # weight, result covariance, g


class TestDerivativePolicy:
    """A value takes one prediction and no derivative; a search takes the Jacobian once per point it reaches."""

    @pytest.mark.parametrize(
        "kind, mode, g_degree", [("CES", "quantity", 1), ("CD", "quantity", 2), ("CES", "revenue", None), ("CD", "revenue-L", None)]
    )
    def test_values_take_no_derivative(self, kind, mode, g_degree, small_cd_panel, small_ces_panel):
        # so a profile scan costs one prediction per grid point
        ms = _system(kind, mode, g_degree, small_cd_panel if kind == "CD" else small_ces_panel)[0]
        calls = _count_derivatives(ms)
        x = ms.chart.x0
        values = [ms.objective, lambda x: ms.objective(x, np.eye(ms.n_moments)), ms.moments, ms.moment_covariance]
        if mode == "quantity":
            values.append(ms.g_coefficients)
        for value in values:
            value(x)
        assert calls == {"predict": len(values), "derivatives": 0, "forward": 0}
        grid = np.linspace(*ms.chart.bounds[1], 7)
        profile_scan(ms, "share_ratio", grid, to_theta(x))
        assert calls == {"predict": len(values) + grid.size, "derivatives": 0, "forward": 0}
        # the Jacobian takes both, once
        ms.jacobian(x)
        assert calls == {"predict": len(values) + grid.size + 1, "derivatives": 1, "forward": 1}

    @pytest.mark.parametrize(
        "kind, mode, instruments",
        [("CD", "quantity", None), ("CD", "revenue", None), ("CES", "quantity", None), ("CES", "revenue", None), ("CES", "revenue", ("const", "k_t"))],
        ids=["CD-quantity", "CD-revenue", "CES-quantity", "CES-revenue", "CES-revenue-exactly-identified"],
    )
    def test_search_takes_the_jacobian_once_per_point_reached(self, kind, mode, instruments, small_cd_panel, small_ces_panel, monkeypatch):
        # each search forms the Jacobian at its start and after each step that lowers J, never at a rejected step
        # or a rounding-noise probe (x scaled by 1 + 1e-14 t on the free coordinates): 1 + accepted steps per search.
        # The exactly identified CES revenue fit rejects steps on this panel
        panel = small_cd_panel if kind == "CD" else small_ces_panel
        if instruments is None:
            ms = _system(kind, mode, 1, panel)[0]
        else:
            ms = build_revenue_moments(kind, panel, instruments=instruments)
        calls = _count_derivatives(ms)
        evaluations, linearize = [], ms._linearize

        def recording(x):
            m, jacobian = linearize(x)
            evaluations.append([np.array(x, float), m, 0])

            def counting(record=evaluations[-1]):
                record[2] += 1
                return jacobian()

            return m, counting

        ms._linearize = recording
        searches, search = [], estimate._lm_search

        def recording_search(ms, x0, weight, free, lo, hi):
            searches.append((len(evaluations), weight, free))
            return search(ms, x0, weight, free, lo, hi)

        monkeypatch.setattr(estimate, "_lm_search", recording_search)
        (only,) = gmm_minimize(ms, weighting="two-step").minima
        assert len(searches) == 2 and len(evaluations) == only["n_evals"]
        steps, reached, rejected = 0, 0, 0
        for (start, weight, free), end in zip(searches, [s for s, _, _ in searches[1:]] + [len(evaluations)]):
            x, m, taken = evaluations[start]
            J, accepted = ms._quadratic_form(m, weight)[0], 0
            assert taken == 1
            for y, m_y, taken in evaluations[start + 1 : end]:
                probes = [x[free] * (1.0 + 1e-14 * t) for t in (-2.0, -1.0, 1.0, 2.0)]
                if any(np.array_equal(y[free], p) for p in probes):
                    assert taken == 0 and np.delete(y, free).tolist() == np.delete(x, free).tolist()
                    continue
                steps += 1
                J_y = ms._quadratic_form(m_y, weight)[0]
                assert taken == (J_y < J)
                if J_y < J:
                    x, J, accepted = y, J_y, accepted + 1
                else:
                    rejected += 1
            assert sum(taken for _, _, taken in evaluations[start:end]) == 1 + accepted
            reached += 1 + accepted
        assert steps == only["n_iter"] and reached > len(searches)
        assert rejected > 0 or instruments is None
        row_path = 0 if ms._closed_form is not None else reached
        assert calls["derivatives"] == calls["forward"] == row_path


class TestCharts:
    @pytest.mark.parametrize("mode", ["quantity", "revenue"])
    @pytest.mark.parametrize("kind", ["CD", "CES"])
    def test_jacobian_matches_central_difference(self, kind, mode, small_cd_panel, small_ces_panel):
        # the moment Jacobian in the chart against the fourth-order stencil of the reference moments, which
        # write out the share map to theta and the predictions in theta: the chain from beta_L and beta_M
        # to the share ratio and scale is checked against an independent route
        panel = small_cd_panel if kind == "CD" else small_ces_panel
        ms, fitted = _system(kind, mode, 1, panel)
        ref = ReferenceCore(ms, panel, fitted)
        for x in _draw_points(ms, np.random.default_rng(600), 5, 0.05, 0.95):
            J = ms.jacobian(x)
            assert np.max(np.abs(J - _five_point_jacobian(ref.moments, x, 1e-4))) <= 1e-8 * np.max(np.abs(J))

    @pytest.mark.parametrize("kind", ["CD", "CES"])
    def test_to_chart_inverts_to_theta(self, kind, small_cd_panel, small_ces_panel):
        chart = _system(kind, "quantity", 1, small_cd_panel if kind == "CD" else small_ces_panel)[0].chart
        lo, hi = (np.array(b) for b in zip(*chart.bounds))
        for x in lo + np.random.default_rng(602).uniform(size=(200, lo.size)) * (hi - lo):
            theta = to_theta(x)
            back = to_chart(theta)
            assert np.all(np.abs(back - x) <= 1e-15 * np.abs(x))
            assert np.all(np.abs(to_theta(back) - theta) <= 1e-15 * np.abs(theta))

    def test_cd_quantity_chart_covers_the_default_box(self, small_cd_panel):
        # the Cobb-Douglas share scale is not capped for a capital share, so the chart reaches every
        # (beta_L, beta_M) of the default box: the ratio and the scale of its corners span their ranges
        chart = _system("CD", "quantity", 1, small_cd_panel)[0].chart
        assert chart.names == ("beta_K", "share_ratio", "beta_L+beta_M")
        _, (a_lo, a_hi), (c_lo, c_hi) = chart.bounds
        corners = [(bL, bM) for bL in CobbDouglas.bounds["beta_L"] for bM in CobbDouglas.bounds["beta_M"]]
        assert min(bL / (bL + bM) for bL, bM in corners) == pytest.approx(a_lo, abs=1e-15)
        assert max(bL / (bL + bM) for bL, bM in corners) == pytest.approx(a_hi, abs=1e-15)
        assert (min(map(sum, corners)), max(map(sum, corners))) == pytest.approx((c_lo, c_hi), abs=1e-15)

    @pytest.mark.parametrize("kind", ["CD", "CES"])
    def test_one_chart_per_family(self, kind, small_cd_panel, small_ces_panel):
        # revenue holds the share scale and v (or beta_K) at its normalisation; otherwise its chart is the quantity one
        panel = small_cd_panel if kind == "CD" else small_ces_panel
        quantity, revenue = (_system(kind, mode, 1, panel)[0].chart for mode in ("quantity", "revenue"))
        assert (quantity.names, quantity.bounds) == (revenue.names, revenue.bounds)
        assert quantity.names[1:3] == ("share_ratio", "beta_L+beta_M")
        held = {"beta_L+beta_M": 0.65, "v": 1.0} if kind == "CES" else {"beta_L+beta_M": 0.92, "beta_K": 0.08}
        assert quantity.normalisation == {} and revenue.normalisation == held


def _central_difference(ms, x, weight):
    grad = np.zeros(x.size)
    for i in range(x.size):
        h = 1e-6 * max(1.0, abs(x[i]))
        step = np.zeros(x.size)
        step[i] = h
        grad[i] = (ms.objective(x + step, weight) - ms.objective(x - step, weight)) / (2.0 * h)
    return grad


class TestGradient:
    @pytest.mark.parametrize("g_degree", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["quantity", "revenue", "revenue-L"])
    @pytest.mark.parametrize("kind", ["CD", "CES"])
    def test_matches_central_difference(self, kind, mode, g_degree, cd_panel, ces_panel):
        # in revenue mode g_degree only changes the random draws
        ms = _system(kind, mode, g_degree, cd_panel if kind == "CD" else ces_panel)[0]
        rng = np.random.default_rng(200 + g_degree)
        A = rng.normal(size=(ms.n_moments, ms.n_moments))
        W = A @ A.T / ms.n_moments + np.eye(ms.n_moments)
        never_read = [ms.chart.names.index(n) for n in _never_read(ms)]
        for x in _draw_points(ms, rng, 6, 0.05, 0.95):
            for weight in (None, W):
                value, grad = ms.objective_and_gradient(x, weight)
                assert _rel_gap(value, ms.objective(x, weight)) <= 1e-12
                fd = _central_difference(ms, x, weight)
                assert np.all(np.abs(grad - fd) <= 1e-6 * np.max(np.abs(fd)) + 1e-4 * np.abs(fd))
                assert np.all(grad[never_read] == 0.0)

    @pytest.mark.parametrize("g_degree", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["quantity", "revenue", "revenue-L"])
    @pytest.mark.parametrize("kind", ["CD", "CES"])
    def test_is_the_jacobian_transpose(self, kind, mode, g_degree, cd_panel, ces_panel):
        # the gradient is 2 n J'u, u the symmetrised W m, with J the exact moment Jacobian: the two derivatives
        # agree with each other, not only each with finite differences
        ms = _system(kind, mode, g_degree, cd_panel if kind == "CD" else ces_panel)[0]
        rng = np.random.default_rng(700 + g_degree)
        A = rng.normal(size=(ms.n_moments, ms.n_moments))
        W = A @ A.T / ms.n_moments + np.eye(ms.n_moments)
        for x in _draw_points(ms, rng, 6, 0.05, 0.95):
            m = ms.moments(x)
            for weight, u in ((None, m), (W, 0.5 * (m @ W + W @ m))):
                grad = ms.objective_and_gradient(x, weight)[1]
                assert _rel_gap(grad, 2 * ms.n_obs * ms.jacobian(x).T @ u) <= 1e-12


def _five_point_prediction_jacobian(predict, x, h):
    """Reference p x N Jacobian of a predictor's prediction: the fourth-order central stencil."""
    rows = []
    for j in range(x.size):
        step = np.zeros(x.size)
        step[j] = h
        at = lambda c: predict(x + c * step)[0]
        rows.append((-at(2) + 8 * at(1) - 8 * at(-1) + at(-2)) / (12 * h))
    return np.array(rows)


class TestPredictionDerivative:
    """derivatives() of every predictor is the p x N Jacobian of its prediction, with literal zeros in the rows of
    the coordinates it never reads."""

    @pytest.mark.parametrize("mode", ["quantity", "revenue", "revenue-L"])
    @pytest.mark.parametrize("kind", ["CD", "CES"])
    def test_matches_five_point_jacobian(self, kind, mode, cd_panel, ces_panel):
        ms = _system(kind, mode, 1, cd_panel if kind == "CD" else ces_panel)[0]
        never_read = [ms.chart.names.index(n) for n in _never_read(ms)]
        for x in _draw_points(ms, np.random.default_rng(500), 3, 0.1, 0.9):
            pred, derivatives = ms._predict(x)
            D = derivatives()
            assert D.shape == (x.size, pred.size)
            assert _rel_gap(D, _five_point_prediction_jacobian(ms._predict, x, 1e-4)) <= 1e-10
            assert np.all(D[never_read] == 0.0)


def _five_point_jacobian(moments, x, h):
    """Reference Jacobian of moments(x): the fourth-order central stencil in each coordinate."""
    columns = []
    for j in range(x.size):
        step = np.zeros(x.size)
        step[j] = h
        columns.append((-moments(x + 2 * step) + 8 * moments(x + step) - 8 * moments(x - step) + moments(x - 2 * step)) / (12 * h))
    return np.column_stack(columns)


class TestJacobian:
    @pytest.mark.parametrize(
        "mode, g_degree", [("quantity", 1), ("quantity", 2), ("quantity", 3), ("revenue", None), ("revenue-L", None)]
    )
    @pytest.mark.parametrize("kind", ["CD", "CES"])
    def test_matches_five_point_stencil(self, kind, mode, g_degree, cd_panel, ces_panel):
        ms = _system(kind, mode, g_degree, cd_panel if kind == "CD" else ces_panel)[0]
        rng = np.random.default_rng(300 + (g_degree or 0))
        never_read = [ms.chart.names.index(n) for n in _never_read(ms)]
        for x in _draw_points(ms, rng, 4, 0.05, 0.95):
            J = ms.jacobian(x)
            assert J.shape == (ms.n_moments, x.size)
            # three steps over the decade where the stencil's own rounding (~1e-16 |m| / h) stays below 1e-8 |J|:
            # in the chart the CES quantity Jacobian's a column is c times the beta_L and beta_M columns'
            # difference, so max |J| falls to ~0.07 at c = 0.22, and at h = 1e-6 the stencil's rounding alone
            # reaches 1.2e-8 |J| there
            for h in (1e-4, 3e-5, 1e-5):
                assert np.max(np.abs(J - _five_point_jacobian(ms.moments, x, h))) <= 1e-8 * np.max(np.abs(J))
            assert np.all(J[:, never_read] == 0.0)


def _j_at_truth(tech, x, n_firms, seed):
    """J at the true chart point, weighted by the inverse moment covariance there, in both modes."""
    panel = simulate_panel(SimConfig(tech=tech, n_firms=n_firms, n_periods=6, seed=seed))
    fs = first_stage_project(panel, 3)
    systems = {"quantity": build_quantity_moments(tech.kind, fs, panel), "revenue": build_revenue_moments(tech.kind, panel)}
    return {mode: (ms.objective(x, _two_step_weight(ms, x)), ms.n_moments) for mode, ms in systems.items()}


class TestJStatistic:
    @pytest.mark.parametrize("kind", ["CD", "CES"])
    def test_j_at_truth_is_a_j_statistic(self, kind, cd_tech, ces_tech):
        # a J-statistic at the truth is asymptotically chi-squared: its median
        # is about the moment count and does not grow with the panel.  Moments
        # that fail in the population give a J that grows in proportion to n.
        tech = cd_tech if kind == "CD" else ces_tech
        x = x_true(SimConfig(tech=tech))
        medians = {}
        for n_firms in (50, 200):
            runs = [_j_at_truth(tech, x, n_firms, seed) for seed in range(1, 21)]
            for mode in ("quantity", "revenue"):
                medians[mode, n_firms] = float(np.median([r[mode][0] for r in runs]))
                n_moments = runs[0][mode][1]
                assert medians[mode, n_firms] <= 2.0 * n_moments, (mode, n_firms, medians)
        for mode in ("quantity", "revenue"):
            ratio = medians[mode, 200] / medians[mode, 50]
            assert 1.0 / 1.5 <= ratio <= 1.5, (mode, medians)


class TestGmmMinimize:
    def test_quantity_cd_recovers_truth(self, cd_panel, cd_config):
        fs = first_stage_project(cd_panel, 3)
        ms = build_quantity_moments("CD", fs, cd_panel)
        res = gmm_minimize(ms, weighting="two-step")
        for name, true in zip(res.param_names, theta_true(cd_config)):
            assert res.estimates[name] == pytest.approx(true, abs=0.08)

    def test_quantity_ces_recovers_truth(self, ces_panel, ces_config):
        fs = first_stage_project(ces_panel, 3)
        ms = build_quantity_moments("CES", fs, ces_panel)
        res = gmm_minimize(ms, weighting="two-step")
        for name, true in zip(res.param_names, theta_true(ces_config)):
            assert res.estimates[name] == pytest.approx(true, abs=0.12)

    @pytest.mark.parametrize("weighting", ["identity", "two-step"])
    def test_revenue_flat_coordinates_at_normalisation(self, ces_panel, cd_panel, weighting):
        # the search moves only what revenue identifies, so every minimum sits
        # at the stated normalisation in the flat coordinates
        # one search, from the chart's closed-form start
        for kind, panel, flat in (("CES", ces_panel, "v"), ("CD", cd_panel, "beta_K")):
            ms = build_revenue_moments(kind, panel)
            res = gmm_minimize(ms, weighting=weighting)
            assert len(res.minima) == 1
            assert res.diagnostics["start"] == "expenditure-ratio"
            norm = res.diagnostics["normalisation"]
            assert set(norm) == {"beta_L+beta_M", flat}
            for m in res.minima:
                theta = dict(zip(ms.param_names, m["theta"]))
                assert theta[flat] == norm[flat]
                assert theta["beta_L"] + theta["beta_M"] == pytest.approx(norm["beta_L+beta_M"], abs=1e-15)

    @pytest.mark.parametrize("kind", ["CD", "CES"])
    def test_chart_fit_matches_full_box_search(self, kind, cd_panel, ces_panel):
        ms = build_revenue_moments(kind, cd_panel if kind == "CD" else ces_panel)
        chart = gmm_minimize(ms, weighting="two-step")
        p = len(ms.chart.names)
        # the search over every coordinate of the chart, with no normalisation, from the chart's closed-form start
        whole = SearchChart(ms.chart.names, ms.chart.bounds, ms.chart.x0, "expenditure-ratio")
        full = gmm_minimize(dataclasses.replace(ms, chart=whole), weighting="two-step")
        assert full.identified is None
        est = full.estimates
        identified = {"share_ratio": est["beta_L"] / (est["beta_L"] + est["beta_M"])}
        if kind == "CES":
            identified = {"sigma": est["sigma"], **identified}
        assert chart.identified.keys() == identified.keys()
        for name, value in chart.identified.items():
            assert value == pytest.approx(identified[name], abs=1e-6), name
        assert chart.objective == pytest.approx(full.objective, rel=1e-8)
        assert chart.diagnostics["df"] == ms.n_moments - len(chart.identified)
        assert full.diagnostics["df"] == ms.n_moments - p

    @pytest.mark.parametrize("kind", ["CD", "CES"])
    def test_revenue_fit_moves_only_what_revenue_identifies(self, kind, small_cd_panel, small_ces_panel):
        # both stages search sigma and the share ratio alone, inside their bounds: every point at which the
        # moments are evaluated holds the rest at the normalisation, and n_evals counts those points
        ms = _system(kind, "revenue", None, small_cd_panel if kind == "CD" else small_ces_panel)[0]
        points = _record_linearizations(ms)
        res = gmm_minimize(ms, weighting="two-step")
        (only,) = res.minima
        assert len(points) == only["n_evals"] > only["n_iter"]
        held = [ms.chart.names.index(n) for n in ms.chart.normalisation]
        assert all(p[held].tolist() == list(ms.chart.normalisation.values()) for p in points)
        identified = ["sigma", "share_ratio"] if kind == "CES" else ["share_ratio"]
        assert list(res.identified) == identified
        x = to_chart(only["theta"])
        for name, value in zip(ms.chart.names, x):
            lo, hi = ms.chart.bounds[ms.chart.names.index(name)]
            if name in identified:
                assert lo < value < hi and value != ms.chart.x0[ms.chart.names.index(name)]
            else:
                assert value == pytest.approx(ms.chart.normalisation[name], rel=1e-15)

    @pytest.mark.parametrize("kind", ["CD", "CES"])
    def test_at_bound_names_no_normalised_coordinate(self, kind, cd_panel, ces_panel):
        # a normalisation on the lower bounds is held there and not reported: revenue never reads v or
        # beta_K, and reads beta_L and beta_M only through their ratio, so the fit reaches the same J
        ms = build_revenue_moments(kind, cd_panel if kind == "CD" else ces_panel)
        chart = ms.chart
        lows = {n: lo for n, (lo, _) in zip(chart.names, chart.bounds) if n in chart.normalisation}
        x0 = chart.x0.copy()
        x0[[chart.names.index(n) for n in lows]] = list(lows.values())
        on_bounds = dataclasses.replace(chart, normalisation=lows, x0=x0, source="expenditure-ratio")
        res = gmm_minimize(dataclasses.replace(ms, chart=on_bounds), weighting="identity")
        (only,) = res.minima
        assert only["at_bound"] == []
        assert res.objective == pytest.approx(gmm_minimize(ms, weighting="identity").objective, rel=1e-8)

    def test_quantity_search_keeps_a_capital_share(self):
        # at beta_L + beta_M = 0.95 the search stays inside the CES domain: the chart caps the share scale
        # at 0.995, so it stops on no kink at the edge.  It ends at the one minimum that the earlier
        # multistart (8 searches from screened draws) found on this panel, off the bounds
        ms = _shares_045_05_system(102)
        res = gmm_minimize(ms, weighting="identity")
        assert res.objective == pytest.approx(0.008480682439734665, rel=1e-8)
        (only,) = res.minima
        assert only["converged"] is True and only["at_bound"] == []
        assert 1.0 - res.estimates["beta_L"] - res.estimates["beta_M"] >= 0.005 - 1e-12

    def test_quantity_start_sits_at_the_normalisation(self):
        # on this panel one search from sigma and the share ratio at their closed form, with the share scale
        # and v at revenue's normalisation, reaches the better of the two minima that the earlier multistart
        # (17 searches from screened draws) found, off the bounds.  L-BFGS-B, which searched before, stopped
        # at J ~ 3.31 from the share scale and v at the centre of their box, which is why the start sits at the
        # normalisation; the Levenberg-Marquardt search reaches the same minimum from either start
        ms = _shares_045_05_system(114)
        x0, source = ms.chart.x0, ms.chart.source
        assert source == "expenditure-ratio"
        res = gmm_minimize(ms, weighting="identity")
        assert res.objective == pytest.approx(0.03534005119776842, rel=1e-8)
        assert res.minima[0]["at_bound"] == []
        centred = x0.copy()
        lo, hi = (np.array(b) for b in zip(*ms.chart.bounds))
        centred[2:] = 0.5 * (lo + hi)[2:]  # beta_L+beta_M and v
        at_centre = dataclasses.replace(ms.chart, x0=centred, source=source)
        centre_fit = gmm_minimize(dataclasses.replace(ms, chart=at_centre), weighting="identity")
        assert centre_fit.objective == pytest.approx(0.03534005119776842, rel=1e-8)

    def test_corner_minimum_not_converged(self, ces_panel):
        # the chart's corner sigma = 0.9, beta_L/(beta_L+beta_M) at its lower
        # bound has a gradient that points out of the box in revenue mode: the
        # search holds both coordinates there, so nothing is left to move and
        # the first-order test holds, yet a minimum on a bound is not converged
        ms = build_revenue_moments("CES", ces_panel)
        (_, sigma_hi), (share_lo, _) = ms.chart.bounds[:2]
        x0 = ms.chart.x0.copy()
        x0[:2] = sigma_hi, share_lo
        corner = dataclasses.replace(ms.chart, x0=x0, source="box-centre")
        res = gmm_minimize(dataclasses.replace(ms, chart=corner), weighting="two-step")
        (corner,) = res.minima
        assert corner["at_bound"] == ["sigma", "share_ratio"]
        assert corner["message"] == "the Gauss-Newton predicted decrease is within the rounding noise of J"
        assert corner["predicted_decrease"] == 0.0
        assert corner["converged"] is False

    @pytest.mark.parametrize("kind", ["CD", "CES"])
    def test_closed_form_start_recovers_truth(self, kind, cd_panel, ces_panel, cd_config, ces_config):
        # the simulated firms minimise cost exactly, so the expenditure ratio is exact in sigma and the ratio
        tech = (cd_config if kind == "CD" else ces_config).tech
        ms = build_revenue_moments(kind, cd_panel if kind == "CD" else ces_panel)
        start = ms.chart.x0
        share_ratio = start[ms.chart.names.index("share_ratio")]
        if kind == "CES":
            assert start[0] == pytest.approx(tech.sigma, abs=1e-12)
            assert share_ratio / (1.0 - share_ratio) == pytest.approx(tech.beta_L / tech.beta_M, abs=1e-12)
        else:
            assert share_ratio == pytest.approx(tech.beta_L / (tech.beta_L + tech.beta_M), abs=1e-12)

    @pytest.mark.parametrize("kind", ["CD", "CES"])
    def test_quantity_and_revenue_charts_share_one_start(self, kind, cd_panel, ces_panel):
        # both modes start sigma and the ratio at the expenditure-ratio estimate and the share scale and v
        # (or beta_K) at revenue's normalisation, so a family's fits start at one point
        panel = cd_panel if kind == "CD" else ces_panel
        quantity = build_quantity_moments(kind, first_stage_project(panel, 3), panel).chart
        revenue = build_revenue_moments(kind, panel).chart
        (x_q, source_q), (x_r, source_r) = (quantity.x0, quantity.source), (revenue.x0, revenue.source)
        assert source_q == source_r == "expenditure-ratio"
        assert x_q.tobytes() == x_r.tobytes()
        assert [x_r[revenue.names.index(n)] for n in revenue.normalisation] == list(revenue.normalisation.values())

    @pytest.mark.parametrize("kind", ["CD", "CES"])
    def test_one_instrument_factorization_per_build(self, kind, small_cd_panel, small_ces_panel, monkeypatch):
        # the rank check and the ratio start read one QR of [Z X y]: one numpy QR over the instrument rows per
        # build; the first stage, which factors its own design, runs before the build
        panel = small_cd_panel if kind == "CD" else small_ces_panel
        fs = first_stage_project(panel, 3)
        rows, qr = [], np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda A, *args, **kwargs: rows.append(np.shape(A)[0]) or qr(A, *args, **kwargs))
        for build in (lambda: build_quantity_moments(kind, fs, panel), lambda: build_revenue_moments(kind, panel)):
            rows.clear()
            ms = build()
            assert rows.count(ms.n_obs) == 1

    @pytest.mark.parametrize("kind", ["CD", "CES"])
    def test_ratio_fit_runs_when_the_system_is_built(self, kind, small_cd_panel, small_ces_panel, monkeypatch):
        # each build fits the expenditure ratio once, for its chart's start, and a fit only reads that start
        panel = small_cd_panel if kind == "CD" else small_ces_panel
        calls = []
        fit = estimate._expenditure_ratio_fit
        monkeypatch.setattr(estimate, "_expenditure_ratio_fit", lambda *args: calls.append(args) or fit(*args))
        for mode in ("quantity", "revenue"):
            calls.clear()
            ms = _system(kind, mode, 1, panel)[0]
            assert len(calls) == 1
            gmm_minimize(ms, weighting="two-step")
            assert len(calls) == 1

    def test_chart_start_is_read_only(self, small_cd_panel):
        # a fit searches from a copy of x0, so no fit moves the chart's start
        ms = build_revenue_moments("CD", small_cd_panel)
        before = ms.chart.x0.copy()
        with pytest.raises(ValueError, match="read-only"):
            ms.chart.x0[0] = 0.5
        gmm_minimize(ms, weighting="two-step")
        assert ms.chart.x0.tobytes() == before.tobytes()

    @pytest.mark.parametrize("delta", [1e-2, 1e-6, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14])
    def test_ratio_fit_starts_wherever_the_instruments_are_accepted(self, small_cd_panel, delta):
        # pM = pL exp(delta z) makes the instruments const pl_t pm_t collinear to about delta.  The rank rule
        # accepts them down to 1e-13 on this panel, and wherever it does the expenditure ratio gives the start:
        # the rank check and the ratio fit read one QR triangle of [Z X y].  The Cholesky of Z'Z the fit took before
        # failed or not by rounding below delta ~ 1e-8, so the start flipped to the box centre at 1e-8 and 1e-11 to
        # 1e-13
        data = {c: small_cd_panel.col(c) for c in COLUMNS}
        data["pM"] = data["pL"] * np.exp(delta * np.random.default_rng(3).standard_normal(len(small_cd_panel)))
        panel = Panel(data=data)
        instruments = ("const", "pl_t", "pm_t")
        cur, lag, logs = _lag_bundle(panel, ("K", "L", "M", "pL", "pM"))
        if delta > 1e-14:
            assert _instruments(CobbDouglas, logs, cur, lag, instruments)[1] is not None
            assert build_revenue_moments("CD", panel, instruments=instruments).chart.source == "expenditure-ratio"
        else:
            with pytest.raises(ValueError, match="are collinear on this panel"):
                _instruments(CobbDouglas, logs, cur, lag, instruments)

    def test_no_closed_form_start_without_input_ratio_variation(self, small_ces_panel):
        # M a fixed multiple of L: log(L/M) is constant, so the ratio does not determine sigma, and the fit
        # runs one free search from the centre of the box, with the share scale and v at their normalisation.  It ends at the best J that the earlier
        # multistart (20 searches from screened draws) found on this panel, with sigma on its lower bound
        data = {c: small_ces_panel.col(c) for c in COLUMNS}
        data["M"] = 2.0 * data["L"]
        ms = build_revenue_moments("CES", Panel(data=data))
        x0, source = ms.chart.x0, ms.chart.source
        lo, hi = (np.array(b) for b in zip(*ms.chart.bounds))
        centre = dict(zip(ms.chart.names, 0.5 * (lo + hi)), **ms.chart.normalisation)
        assert source == "box-centre" and np.array_equal(x0, [centre[n] for n in ms.chart.names])
        res = gmm_minimize(ms, weighting="identity")
        assert res.diagnostics["start"] == "box-centre"
        assert res.objective == pytest.approx(11125.39057682651, rel=1e-8)
        assert res.minima[0]["at_bound"] == ["sigma"]

    @pytest.mark.parametrize("weighting", ["identity", "two-step"])
    @pytest.mark.parametrize("kind", ["CD", "CES", "CES-quantity", "CD-quantity"])
    def test_closed_form_start_matches_multistart(self, kind, weighting, cd_panel, ces_panel):
        # revenue systems, whose start fixes every coordinate, and the quantity systems, whose start fixes
        # sigma and the share ratio only, reach the best minimum that the earlier multistart (8 searches
        # from screened draws, seed 5) found on the fixture panels, off the bounds: its J and identified
        # functionals are recorded below.  Two-step quantity Js are within 5e-8: the weights at two
        # stage-one minima a rounding apart differ
        mode = "quantity" if kind.endswith("-quantity") else "revenue"
        best_j, identified = {
            ("CD", "identity"): (0.012608655626673944, {"share_ratio": 0.4293777973825233}),
            ("CD", "two-step"): (4.807678197066698, {"share_ratio": 0.4292558612546239}),
            ("CES", "identity"): (0.02025997237722844, {"sigma": 0.5018783724390957, "beta_ratio": 0.7489150902919588}),
            ("CES", "two-step"): (10.292191091366684, {"sigma": 0.5021600153513406, "beta_ratio": 0.7484146845191745}),
            ("CES-quantity", "identity"): (0.04321117587571251, None),
            ("CES-quantity", "two-step"): (4.0010762659610615, None),
            ("CD-quantity", "identity"): (0.051038657975751765, None),
            ("CD-quantity", "two-step"): (1.9978782903034598, None),
        }[kind, weighting]
        ms = _system(kind.split("-")[0], mode, 1, ces_panel if kind.startswith("CES") else cd_panel)[0]
        res = gmm_minimize(ms, weighting=weighting)
        assert res.diagnostics["start"] == "expenditure-ratio"
        rtol = 5e-8 if (mode, weighting) == ("quantity", "two-step") else 1e-8
        assert res.objective == pytest.approx(best_j, rel=rtol)
        est = res.estimates
        if kind == "CES":
            # recorded as sigma and beta_L/beta_M; the fit reports sigma and the share ratio
            assert {"sigma": est["sigma"], "beta_ratio": est["beta_L"] / est["beta_M"]} == pytest.approx(identified, rel=1e-8)
            assert res.identified.keys() == {"sigma", "share_ratio"} and res.identified["sigma"] == est["sigma"]
        else:
            assert res.identified == pytest.approx(identified, rel=1e-8)
        if mode == "revenue":
            assert res.identified["share_ratio"] == pytest.approx(est["beta_L"] / (est["beta_L"] + est["beta_M"]), abs=1e-15)
        (only,) = res.minima
        assert only["converged"] is True and only["at_bound"] == []

    def test_chart_start_is_not_screened(self, small_ces_panel):
        # a CES quantity fit evaluates no screening draw: it searches every coordinate once from the
        # closed-form start (and under two-step weighting once again), and reports one minimum
        ms = _system("CES", "quantity", 1, small_ces_panel)[0]
        calls = []
        objective = ms.objective

        def counting(*args):
            calls.append(args)
            return objective(*args)

        ms.objective = counting
        points = _record_linearizations(ms)
        for weighting in ("identity", "two-step"):
            points.clear()
            res = gmm_minimize(ms, weighting=weighting)
            assert calls == []
            assert res.diagnostics["start"] == "expenditure-ratio"
            # the first evaluation is at the chart start, and n_evals counts every evaluation of every search
            (only,) = res.minima
            assert points[0].tolist() == ms.chart.x0.tolist()
            assert len(points) == only["n_evals"] > only["n_iter"]

    @pytest.mark.parametrize("weighting", ["identity", "two-step"])
    def test_converged_is_the_first_order_test(self, weighting, cd_panel, ces_panel):
        # each fit on the fixture panels stops on the first-order test: the Gauss-Newton predicted decrease is
        # within 10 times the rounding noise of J measured at the minimum, which is a few ulps of J
        for kind, panel in (("CD", cd_panel), ("CES", ces_panel)):
            for mode in ("quantity", "revenue"):
                res = gmm_minimize(_system(kind, mode, 1, panel)[0], weighting=weighting)
                (only,) = res.minima
                assert only["message"] == "the Gauss-Newton predicted decrease is within the rounding noise of J"
                assert 0.0 <= only["predicted_decrease"] <= 10.0 * only["rounding_noise"]
                assert 0.0 < only["rounding_noise"] < 1e-12 * res.objective
                assert only["converged"] is True and only["at_bound"] == []

    @pytest.mark.parametrize("weighting", ["identity", "two-step"])
    def test_exactly_identified_fit_converges_at_its_root(self, weighting, cd_panel, ces_panel):
        # with as many moments as free coordinates the predicted decrease is J itself, so the test holds once
        # J reaches its rounding noise, where a step no longer lowers it
        cases = {
            ("CD", "quantity"): ("const", "k_t", "l_lag"),
            ("CES", "quantity"): ("const", "k_t", "l_lag", "pl_lag"),
            ("CD", "revenue"): ("const",),
            ("CES", "revenue"): ("const", "pl_t"),
        }
        for (kind, mode), instruments in cases.items():
            panel = cd_panel if kind == "CD" else ces_panel
            ms = (
                build_quantity_moments(kind, first_stage_project(panel, 3), panel, instruments=instruments)
                if mode == "quantity"
                else build_revenue_moments(kind, panel, instruments=instruments)
            )
            res = gmm_minimize(ms, weighting=weighting)
            (only,) = res.minima
            assert res.diagnostics["df"] == 0, (kind, mode)
            assert only["message"] == "the Gauss-Newton predicted decrease is within the rounding noise of J"
            assert only["converged"] is True and only["at_bound"] == [], (kind, mode)
            assert res.objective < 1e-12, (kind, mode)

    def test_step_limit_is_not_converged(self, cd_panel, monkeypatch):
        # a search cut short reports the rule that stopped it, and its minimum is not converged
        monkeypatch.setattr(estimate, "_MAX_STEPS", 2)
        (only,) = gmm_minimize(build_revenue_moments("CES", cd_panel), weighting="identity").minima
        assert (only["message"], only["n_iter"]) == ("2 steps taken", 2)
        assert only["predicted_decrease"] > 10.0 * only["rounding_noise"]
        assert only["converged"] is False

    def test_singular_moment_covariance_stops_the_two_step_fit(self, small_cd_panel, monkeypatch):
        ms = build_revenue_moments("CD", small_cd_panel)
        monkeypatch.setattr(ms, "moment_covariance", lambda x: np.zeros((ms.n_moments, ms.n_moments)))
        with pytest.raises(EstimationError, match="^two-step weighting: the moment covariance at the stage-one estimate is not positive definite"):
            gmm_minimize(ms, weighting="two-step")

    def test_weight_matrix_symmetric_psd(self, small_ces_panel, small_ces_config):
        fs = first_stage_project(small_ces_panel, 3)
        ms = build_quantity_moments("CES", fs, small_ces_panel)
        x = x_true(small_ces_config)
        W = _two_step_weight(ms, x)
        assert np.allclose(W, W.T, rtol=0.0, atol=1e-12 * np.max(np.abs(W)))
        assert np.max(np.abs(W @ ms.moment_covariance(x) - np.eye(ms.n_moments))) < 1e-10

    def test_objective_nonnegative(self, small_ces_panel, small_ces_config):
        fs = first_stage_project(small_ces_panel, 3)
        ms = build_quantity_moments("CES", fs, small_ces_panel)
        for x in _draw_points(ms, np.random.default_rng(0), 10):
            assert ms.objective(x) >= 0.0

    def test_result_serializable(self, small_cd_panel, small_cd_config):
        fs = first_stage_project(small_cd_panel, 3)
        ms = build_quantity_moments("CD", fs, small_cd_panel)
        res = gmm_minimize(ms, weighting="identity")
        # asdict of a result, less its None fields, is the estimate artifact
        payload = {k: v for k, v in dataclasses.asdict(res).items() if v is not None}
        validate(payload, "estimate_result.schema.json")


TEN_X_FIT = """
import dataclasses, json, sys
sys.path.insert(0, sys.argv[1])
from revprod.config import parse_config
from revprod.estimate import build_quantity_moments, first_stage_project, gmm_minimize
from revprod.simulate import simulate_panel
cfg = parse_config(sys.argv[2])
panel = simulate_panel(dataclasses.replace(cfg.sim, n_firms=5000))
fs = first_stage_project(panel, cfg.estimation.first_stage_degree)
res = gmm_minimize(build_quantity_moments("CES", fs, panel, g_degree=cfg.estimation.g_degree), weighting="two-step")
print(json.dumps(res.minima[0]))
"""


@pytest.mark.slow
class TestConsistency:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_ten_x_ces_quantity_fit_converges(self, threads):
        # the two-step CES quantity fit on configs/ces.ini at 5,000 firms converges off the bounds whatever the
        # BLAS thread count; L-BFGS-B, which searched before, ended ABNORMAL there at the default count.  Each
        # count in its own interpreter, since OpenBLAS reads it at load
        src = str(Path(estimate.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", TEN_X_FIT, src, str(ROOT / "configs" / "ces.ini")],
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads}, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        minimum = json.loads(proc.stdout)
        assert minimum["converged"] is True and minimum["at_bound"] == [], minimum

    def test_errors_shrink_with_n(self, ces_tech):
        # quantity-mode median absolute error falls as the cross-section grows
        def run(n, seed):
            cfg = SimConfig(tech=ces_tech, n_firms=n, n_periods=10, seed=seed)
            panel = simulate_panel(cfg)
            fs = first_stage_project(panel, 3)
            ms = build_quantity_moments("CES", fs, panel)
            res = gmm_minimize(ms, weighting="two-step")
            true = np.array([ces_tech.sigma, ces_tech.beta_L, ces_tech.beta_M, ces_tech.v])
            return np.abs(np.array([res.estimates[n] for n in res.param_names]) - true)

        errs_small = np.median([run(200, 100 + r) for r in range(4)], axis=0)
        errs_large = np.median([run(2000, 200 + r) for r in range(4)], axis=0)
        assert np.median(errs_large) < np.median(errs_small)
