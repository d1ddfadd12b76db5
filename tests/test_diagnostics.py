import re

import numpy as np
import pytest

from revprod.diagnostics import (
    OmegaRecovery,
    build_identification_report,
    jacobian_rank,
    observational_equivalence,
    omega_recovery_attempt,
    profile_scan,
)
from revprod.estimate import build_quantity_moments, build_revenue_moments, first_stage_project
from revprod.panel_io import COLUMNS, Panel
from revprod.simulate import ProductivityProcess, SimConfig, simulate_panel
from revprod.technology import CES, CobbDouglas, ShockConfig

from conftest import predicted_log_revenue


@pytest.fixture(scope="module")
def ces_revenue_ms(ces_panel):
    return build_revenue_moments("CES", ces_panel)


@pytest.fixture(scope="module")
def cd_revenue_ms(cd_panel):
    return build_revenue_moments("CD", cd_panel)


@pytest.fixture(scope="module")
def ces_quantity_ms(ces_panel):
    fs = first_stage_project(ces_panel, 3)
    return build_quantity_moments("CES", fs, ces_panel)


@pytest.fixture(scope="module")
def cd_quantity_ms(cd_panel):
    fs = first_stage_project(cd_panel, 3)
    return build_quantity_moments("CD", fs, cd_panel)


THETA_CES = np.array([0.5, 0.3, 0.4, 0.9])
THETA_CD = np.array([0.25, 0.3, 0.4])


class TestObservationalEquivalence:
    def test_cd_capital_exponent_equivalent(self, small_cd_panel):
        gap = observational_equivalence(CobbDouglas(0.2, 0.3, 0.4), CobbDouglas(0.5, 0.3, 0.4), small_cd_panel)
        assert gap == 0.0

    def test_ces_returns_to_scale_equivalent(self, small_ces_panel):
        gap = observational_equivalence(CES(0.3, 0.4, 0.5, 0.8), CES(0.3, 0.4, 0.5, 1.2), small_ces_panel)
        assert gap == 0.0

    def test_ces_sigma_distinguishable(self, small_ces_panel):
        gap = observational_equivalence(CES(0.3, 0.4, 0.5, 0.9), CES(0.3, 0.4, 0.6, 0.9), small_ces_panel)
        assert gap > 1e-3

    def test_symmetry(self, small_ces_panel):
        a, b = CES(0.3, 0.4, 0.5, 0.9), CES(0.3, 0.4, 0.55, 0.9)
        assert observational_equivalence(a, b, small_ces_panel) == observational_equivalence(b, a, small_ces_panel)

    def test_empty_panel_gap_is_zero(self):
        empty = simulate_panel(SimConfig(tech=CES(), n_firms=0))
        assert observational_equivalence(CES(0.3, 0.4, 0.5, 0.9), CES(0.3, 0.4, 0.6, 0.9), empty) == 0.0

    def test_kind_mismatch_rejected(self, small_ces_panel):
        with pytest.raises(ValueError, match="kinds differ"):
            observational_equivalence(CES(0.3, 0.4, 0.5, 0.9), CobbDouglas(0.2, 0.3, 0.4), small_ces_panel)


class TestProfiles:
    def test_v_profile_exactly_flat(self, ces_revenue_ms):
        curve = profile_scan(ces_revenue_ms, "v", np.linspace(0.7, 1.3, 25), THETA_CES)
        assert curve.flatness <= 1e-10
        assert len(set(curve.objective)) == 1  # bit-level equality

    def test_sigma_profile_has_interior_minimum_at_truth(self, ces_revenue_ms):
        grid = np.linspace(0.3, 0.7, 25)
        curve = profile_scan(ces_revenue_ms, "sigma", grid, THETA_CES)
        j = int(np.argmin(curve.objective))
        assert 0 < j < len(grid) - 1
        assert abs(curve.grid[j] - 0.5) <= (grid[1] - grid[0])

    def test_identified_flatness_dominates_flat_axis(self, ces_revenue_ms):
        v_curve = profile_scan(ces_revenue_ms, "v", np.linspace(0.7, 1.3, 25), THETA_CES)
        s_curve = profile_scan(ces_revenue_ms, "sigma", np.linspace(0.3, 0.7, 25), THETA_CES)
        assert s_curve.flatness >= 100.0 * max(v_curve.flatness, 1e-10)

    def test_cd_quantity_beta_k_not_flat(self, cd_quantity_ms):
        curve = profile_scan(cd_quantity_ms, "beta_K", np.linspace(0.1, 0.4, 13), THETA_CD)
        assert curve.flatness >= 1e-2

    def test_beta_scale_flat_in_revenue_not_quantity(self, ces_revenue_ms, ces_quantity_ms):
        grid = np.linspace(0.7, 1.3, 25) * (THETA_CES[1] + THETA_CES[2])
        rev = profile_scan(ces_revenue_ms, "beta_L+beta_M", grid, THETA_CES)
        qty = profile_scan(ces_quantity_ms, "beta_L+beta_M", grid, THETA_CES)
        assert rev.flatness == 0.0
        assert qty.flatness >= 100.0 * max(rev.flatness, 1e-10)

    def test_quantity_scan_past_the_ces_domain_rejected(self, ces_quantity_ms, monkeypatch):
        # on 0.7 to 1.3 times beta_L + beta_M = 0.95, from scale 1.075 on (1.02 there, 1.235 at 1.3) it leaves no
        # capital share, where the CES aggregate is undefined; the first such point is named, before the objective
        # is taken anywhere
        calls = []
        monkeypatch.setattr(ces_quantity_ms, "objective", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=r"^beta_L\+beta_M grid contains beta_L\+beta_M = 1\.02125\d*, outside the "
                           r"model \(beta_L \+ beta_M must be < 1 \(positive capital share\)\)$"):
            profile_scan(ces_quantity_ms, "beta_L+beta_M", np.linspace(0.7, 1.3, 25) * 0.95, [0.5, 0.45, 0.5, 0.9])
        assert calls == []

    @pytest.mark.parametrize(
        "system, name, grid, bad, broken",
        [
            # revenue never reads beta_L+beta_M or v, so without the check these profiles come back flat
            ("ces_revenue_ms", "beta_L+beta_M", [0.7, 1.0, 1.2], 1.0, "beta_L + beta_M must be < 1"),
            ("ces_quantity_ms", "beta_L+beta_M", [0.7, 1.0, 1.2], 1.0, "beta_L + beta_M must be < 1"),
            ("ces_revenue_ms", "v", [1.0, 0.0, -0.5], 0.0, "returns-to-scale v must be strictly positive"),
            ("cd_revenue_ms", "beta_K", [0.2, -0.1], -0.1, "beta_K must be nonnegative"),
            ("cd_quantity_ms", "beta_K", [0.2, -0.1], -0.1, "beta_K must be nonnegative"),
        ],
    )
    def test_grid_outside_the_model_rejected_before_any_evaluation(self, request, monkeypatch, system, name, grid, bad, broken):
        ms = request.getfixturevalue(system)
        theta = THETA_CES if ms.tech_kind == "CES" else THETA_CD
        calls = []
        monkeypatch.setattr(ms, "objective", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=re.escape(f"{name} grid contains {name} = {bad!r}, outside the model ({broken}")):
            profile_scan(ms, name, grid, theta)
        assert calls == []

    @pytest.mark.parametrize("grid", [[], np.array([])], ids=["list", "array"])
    def test_empty_grid_rejected_before_any_evaluation(self, ces_revenue_ms, monkeypatch, grid):
        calls = []
        monkeypatch.setattr(ces_revenue_ms, "objective", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=r"^sigma grid is empty; a profile needs at least one point$"):
            profile_scan(ces_revenue_ms, "sigma", grid, THETA_CES)
        assert calls == []

    @pytest.mark.parametrize(
        "system, theta",
        [
            ("ces_revenue_ms", THETA_CES[:3]),
            ("ces_quantity_ms", THETA_CES[:3]),
            ("cd_revenue_ms", np.append(THETA_CD, 0.9)),
            ("cd_quantity_ms", np.append(THETA_CD, 0.9)),
            ("ces_revenue_ms", THETA_CES[:2]),
            ("ces_quantity_ms", np.append(THETA_CES, 0.9)),
            ("cd_revenue_ms", THETA_CD[:2]),
            ("cd_quantity_ms", THETA_CD[:2]),
        ],
    )
    def test_theta_of_wrong_length_rejected(self, request, system, theta):
        # before the check a three-entry CES theta took v from CES's default, and a CD one ignored the fourth entry;
        # a two-entry theta raised IndexError in to_chart, before reaching the check
        ms = request.getfixturevalue(system)
        names = ", ".join(ms.chart.names)
        message = f"^{re.escape(f'a point has one entry per chart coordinate {names}; got shape ({len(theta)},)')}$"
        with pytest.raises(ValueError, match=message):
            jacobian_rank(ms, theta)
        with pytest.raises(ValueError, match=message):
            profile_scan(ms, ms.chart.names[0], [theta[0]], theta)

    def test_unknown_parameter_rejected(self, ces_revenue_ms):
        with pytest.raises(ValueError, match="unknown parameter"):
            profile_scan(ces_revenue_ms, "gamma", [0.1], THETA_CES)


class TestJacobianRank:
    def test_ces_revenue_two_null_directions(self, ces_revenue_ms):
        diag = jacobian_rank(ces_revenue_ms, THETA_CES)
        assert diag.deficiency == 2
        assert diag.null_alignment["beta_L+beta_M"] >= 0.999
        assert diag.null_alignment["v"] >= 0.999
        assert diag.null_alignment["sigma"] <= 1e-3
        assert diag.null_alignment["share_ratio"] <= 1e-3

    def test_cd_revenue_null_space_contains_beta_k(self, cd_revenue_ms):
        diag = jacobian_rank(cd_revenue_ms, THETA_CD)
        assert diag.deficiency == 2
        assert diag.null_alignment["beta_L+beta_M"] >= 0.999
        assert diag.null_alignment["beta_K"] >= 0.999
        assert diag.null_alignment["share_ratio"] <= 1e-3

    @pytest.mark.parametrize("kind", ["CD", "CES"])
    def test_oblique_null_direction_attributed_to_its_largest_axis(self, kind, ces_revenue_ms, cd_revenue_ms, monkeypatch):
        # a stubbed chart Jacobian with one null direction, mixing the first axis (sigma or beta_K) with
        # share_ratio, and a share scale that every moment reads
        ms, theta = (cd_revenue_ms, THETA_CD) if kind == "CD" else (ces_revenue_ms, THETA_CES)
        chart = ms.chart
        u = np.zeros(len(chart.names))
        u[:2] = 0.6, 0.8
        chart_jac = np.random.default_rng(7).normal(size=(6, u.size)) @ (np.eye(u.size) - np.outer(u, u))
        monkeypatch.setattr(ms, "jacobian", lambda x: chart_jac)
        diag = jacobian_rank(ms, theta)
        assert diag.deficiency == 1
        assert diag.null_directions[0] == pytest.approx(u, abs=1e-12)
        assert diag.null_alignment == pytest.approx(dict(zip(chart.names, u)), abs=1e-12)

    def test_quantity_systems_full_rank(self, ces_quantity_ms, cd_quantity_ms):
        for ms, theta in ((ces_quantity_ms, THETA_CES), (cd_quantity_ms, THETA_CD)):
            diag = jacobian_rank(ms, theta)
            assert diag.deficiency == 0
            assert diag.null_alignment == dict.fromkeys(ms.chart.names, 0.0)

    def test_singular_values_sorted_nonnegative(self, ces_revenue_ms, cd_revenue_ms):
        for ms, theta in ((ces_revenue_ms, THETA_CES), (cd_revenue_ms, THETA_CD)):
            diag = jacobian_rank(ms, theta)
            sv = np.array(diag.singular_values)
            assert np.all(sv >= 0.0)
            assert np.all(np.diff(sv) <= 0.0)
            # the exact zeros of the null space are written without a sign
            nd = np.array(diag.null_directions)
            assert not np.any(np.signbit(sv))
            assert not np.any(np.signbit(nd[nd == 0.0]))


    def test_null_directions_signed_by_largest_component(self, ces_revenue_ms, cd_revenue_ms, monkeypatch):
        # an SVD may return any singular vector negated; the report's directions do not follow it
        svd = np.linalg.svd

        def negated_svd(a, *args, **kwargs):
            U, s, Vt = svd(a, *args, **kwargs)
            return -U, s, -Vt

        for ms, theta in ((ces_revenue_ms, THETA_CES), (cd_revenue_ms, THETA_CD)):
            diag = jacobian_rank(ms, theta)
            for v in diag.null_directions:
                assert v[int(np.argmax(np.abs(v)))] > 0.0
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "svd", negated_svd)
                assert jacobian_rank(ms, theta).null_directions == diag.null_directions


class TestOmegaRecovery:
    def test_revenue_residual_carries_no_signal(self, ces_panel, ces_config, ces_revenue_ms):
        rec = omega_recovery_attempt(ces_panel, ces_config.tech, ces_revenue_ms)
        assert abs(rec.correlation) <= rec.bound
        assert rec.carries_signal is False

    def test_revenue_correlation_above_bound_is_no_recovery(self):
        # one rule in both modes: a correlation that clears the zero-correlation bound but recovers nothing
        assert OmegaRecovery("revenue", 0.3, bound=0.04, n_obs=5625).carries_signal is False

    def test_quantity_recovery_tracks_truth(self, ces_panel, ces_config, ces_quantity_ms):
        rec = omega_recovery_attempt(ces_panel, ces_config.tech, ces_quantity_ms)
        assert rec.correlation >= 0.95
        assert rec.carries_signal is True

    def test_constant_productivity_leaves_only_noise(self, ces_tech):
        # sigma_xi = 0: revenue residual variance is the ex-post shock variance
        from revprod.simulate import ProductivityProcess

        cfg = SimConfig(
            tech=ces_tech,
            prod=ProductivityProcess(rho=0.7, c0=0.0, sigma_xi=0.0),
            shocks=ShockConfig(sigma_eps=0.12),
            n_firms=300,
            n_periods=8,
            seed=31,
        )
        panel = simulate_panel(cfg)
        logs = [np.log(panel.col(c)) for c in ("L", "M", "pL", "pM", "sM_star")]
        resid = np.log(panel.col("R")) - predicted_log_revenue(ces_tech, *logs, cfg.shocks.cal_e, "M")
        assert np.var(resid) == pytest.approx(0.12**2, rel=0.1)

    def test_constant_productivity_correlates_with_nothing(self, ces_tech):
        # sigma_xi = 0 and c0 = 0 hold omega at 0, so no residual correlates with it
        prod = ProductivityProcess(rho=0.7, c0=0.0, sigma_xi=0.0)
        panel = simulate_panel(SimConfig(tech=ces_tech, prod=prod, n_firms=40, n_periods=4, seed=31))
        rec = omega_recovery_attempt(panel, ces_tech, build_revenue_moments("CES", panel))
        assert rec.correlation == 0.0
        assert rec.carries_signal is False

    def test_quantity_recovery_fits_the_given_first_stage_degree(self, small_ces_panel, ces_tech):
        # the first stage that estimate --mode quantity fits, at the configured degree, not always 3
        panel = small_ces_panel
        q_pred = np.log(ces_tech.output(panel.col("K"), panel.col("L"), panel.col("M")))
        got = {}
        for degree in (2, 3):
            fs = first_stage_project(panel, degree)
            rec = omega_recovery_attempt(panel, ces_tech, build_quantity_moments("CES", fs, panel))
            assert rec.correlation == float(np.corrcoef(fs.fitted - q_pred, panel.col("omega"))[0, 1])
            got[degree] = rec.correlation
        assert got[2] != got[3]
        default = build_quantity_moments("CES", first_stage_project(panel), panel)
        assert omega_recovery_attempt(panel, ces_tech, default).correlation == got[3]

    def test_skipped_without_omega_column(self, small_ces_panel, ces_tech):
        data = {c: small_ces_panel.col(c) for c in COLUMNS}
        data["omega"] = None
        panel = Panel(data=data)
        rec = omega_recovery_attempt(panel, ces_tech, build_revenue_moments("CES", panel))
        assert rec.skipped
        assert rec.correlation is None


class TestReport:
    def test_ces_revenue_verdicts(self, ces_panel, ces_config, ces_revenue_ms):
        rep = build_identification_report(ces_panel, ces_config.tech, ces_revenue_ms)
        assert rep.verdicts == {
            "sigma": "identified",
            "beta_L": "identified-ratio-only",
            "beta_M": "identified-ratio-only",
            "v": "not identified",
            "omega": "not identified",
        }
        assert rep.equivalence_gap <= 1e-10
        assert rep.contrast_gap > 1e-3

    def test_cd_revenue_verdicts(self, cd_panel, cd_config, cd_revenue_ms):
        rep = build_identification_report(cd_panel, cd_config.tech, cd_revenue_ms)
        assert rep.verdicts["beta_K"] == "not identified"
        assert rep.verdicts["beta_L"] == "identified-ratio-only"
        assert rep.verdicts["beta_M"] == "identified-ratio-only"
        assert rep.verdicts["omega"] == "not identified"

    @pytest.mark.parametrize(
        "kind, names, flat",
        [
            ("ces", ("sigma", "share_ratio", "beta_L+beta_M", "v"), ("beta_L+beta_M", "v")),
            ("cd", ("beta_K", "share_ratio", "beta_L+beta_M"), ("beta_K", "beta_L+beta_M")),
        ],
    )
    def test_profiles_are_the_chart_coordinates(self, request, kind, names, flat):
        # revenue reads sigma and the share ratio, never the share scale or returns to scale; quantity reads them all
        panel, cfg, rev, qty = (request.getfixturevalue(f"{kind}_{x}") for x in ("panel", "config", "revenue_ms", "quantity_ms"))
        rep = build_identification_report(panel, cfg.tech, rev)
        assert tuple(rep.profiles) == names
        for name, profile in rep.profiles.items():
            assert profile["param"] == name and len(profile["grid"]) == 25
            if name in flat:
                assert profile["flatness"] == 0.0, name
            else:
                assert profile["flatness"] >= 1e3, name
        for name, profile in build_identification_report(panel, cfg.tech, qty).profiles.items():
            assert profile["flatness"] >= 10.0, name

    def test_quantity_report_inside_the_ces_domain(self):
        # the chart caps beta_L + beta_M at 0.995, so a truth near 1 gets a report
        tech = CES(0.45, 0.5, 0.5, 0.9)
        panel = simulate_panel(SimConfig(tech=tech, n_firms=80, n_periods=6, seed=3))
        ms = build_quantity_moments("CES", first_stage_project(panel, 3), panel)
        rep = build_identification_report(panel, tech, ms)
        assert rep.verdicts == dict.fromkeys(("sigma", "beta_L", "beta_M", "v", "omega"), "identified")
        assert tuple(rep.profiles) == ("sigma", "share_ratio", "beta_L+beta_M", "v")
        assert max(rep.profiles["beta_L+beta_M"]["grid"]) == 0.995
        for profile in rep.profiles.values():
            assert np.all(np.isfinite(profile["objective"]))

    def test_quantity_report_passes_the_first_stage_degree(self, small_cd_panel, cd_tech):
        # no degree is passed to the report: it reads the degree-2 first stage the system was built on
        panel = small_cd_panel
        fs = first_stage_project(panel, 2)
        ms = build_quantity_moments("CD", fs, panel)
        rep = build_identification_report(panel, cd_tech, ms)
        q_pred = np.log(cd_tech.output(panel.col("K"), panel.col("L"), panel.col("M")))
        expected = float(np.corrcoef(fs.fitted - q_pred, panel.col("omega"))[0, 1])
        assert rep.omega_recovery["correlation"] == omega_recovery_attempt(panel, cd_tech, ms).correlation == expected
        cubic = build_quantity_moments("CD", first_stage_project(panel, 3), panel)
        assert expected != omega_recovery_attempt(panel, cd_tech, cubic).correlation

    def test_revenue_report_recovers_omega_with_the_systems_equation(self, small_ces_panel, ces_tech):
        # a which_v = "L" system's report takes the labour revenue equation's residual, not the materials one's
        panel = small_ces_panel
        rep = build_identification_report(panel, ces_tech, build_revenue_moments("CES", panel, which_v="L"))
        logs = [np.log(panel.col(c)) for c in ("L", "M", "pL", "pM", "sL_star")]
        resid = np.log(panel.col("R")) - predicted_log_revenue(ces_tech, *logs, 1.0, "L")
        assert rep.omega_recovery["correlation"] == float(np.corrcoef(resid, panel.col("omega"))[0, 1])

    def test_technology_kind_must_match_system(self, ces_panel, ces_config, cd_revenue_ms):
        # a CES technology has a beta_K too, so without the check it would
        # silently centre a Cobb-Douglas system at (1 - beta_L - beta_M, ...)
        with pytest.raises(ValueError, match="does not match"):
            build_identification_report(ces_panel, ces_config.tech, cd_revenue_ms)
