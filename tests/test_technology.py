import ast
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from revprod.config import parse_config
from revprod.costmin import foc_input_price
from revprod.estimate import to_chart
from revprod.simulate import simulate_panel
from revprod.technology import CES, CobbDouglas, DomainError, ParameterError, _check_positive, revenue_pf_reduced_form

from conftest import predicted_log_revenue, random_point, random_technology


class TestEvaluateQuantity:
    def test_cd_unit_inputs(self):
        tech = CobbDouglas(0.3, 0.3, 0.4)
        assert tech.output(1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_ces_unit_inputs_shares_sum_one(self):
        tech = CES(beta_L=1 / 3, beta_M=1 / 3, sigma=0.5, v=1.1)
        assert tech.output(1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_cd_log_linear_oracle(self):
        # independent evaluation in logs
        tech = CobbDouglas(0.3, 0.3, 0.4)
        got = tech.output(2.0, 1.0, 1.0) * np.exp(0.1)
        assert got == pytest.approx(math.exp(0.3 * math.log(2.0) + 0.1), rel=1e-12)

    def test_ces_matches_three_term_formula(self):
        # Q = (beta_K K^sigma + beta_L L^sigma + beta_M M^sigma)^(v/sigma), evaluated in logs, against output's
        # F(K, h(L, M)); the elasticities, whose denominator is the same sum, add up to v
        rng = np.random.default_rng(44)
        for _ in range(200):
            tech = random_technology(rng, "CES")
            K, L, M, _, _ = random_point(rng)
            s = tech.sigma
            terms = [math.log(b) + s * math.log(X) for b, X in ((tech.beta_K, K), (tech.beta_L, L), (tech.beta_M, M))]
            log_q = tech.v / s * np.logaddexp.reduce(terms)
            assert tech.output(K, L, M) == pytest.approx(math.exp(log_q), rel=1e-13, abs=0.0)
            total = sum(tech.elasticity(K, L, M, which) for which in "KLM")
            assert total == pytest.approx(tech.v, rel=1e-13, abs=0.0)

    def test_ces_sigma_zero_rejected_at_construction(self):
        with pytest.raises(ParameterError):
            CES(beta_L=0.3, beta_M=0.3, sigma=0.0, v=1.0)
        with pytest.raises(ParameterError):
            CES(beta_L=0.3, beta_M=0.3, sigma=1.0, v=1.0)

    @pytest.mark.parametrize(
        "cls, name", [(CES, "sigma"), (CES, "beta_L"), (CES, "v"), (CobbDouglas, "beta_K"), (CobbDouglas, "beta_M")]
    )
    def test_nan_parameter_rejected_at_construction(self, cls, name):
        with pytest.raises(ParameterError):
            cls(**{name: math.nan})


class TestAggregate:
    def test_cd_unit(self):
        tech = CobbDouglas(0.1, 0.3, 0.4)
        assert tech.h(1.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_ces_value_two_paths(self):
        # direct evaluation and an independent log-space path
        tech = CES(beta_L=0.2, beta_M=0.3, sigma=0.5, v=1.0)
        direct = tech.h(4.0, 1.0)
        assert direct == pytest.approx(0.49, abs=1e-12)
        log_path = math.exp((1 / 0.5) * math.log(0.2 * 4.0**0.5 + 0.3 * 1.0**0.5))
        assert direct == pytest.approx(log_path, rel=1e-14)

    @pytest.mark.parametrize("kind", ["CD", "CES"])
    def test_degree_one_homogeneity(self, kind):
        rng = np.random.default_rng(3)
        for _ in range(50):
            tech = random_technology(rng, kind)
            _, L, M, _, _ = random_point(rng)
            for t in (2.5, rng.uniform(0.2, 5.0)):
                h0 = tech.h(L, M)
                ht = tech.h(t * L, t * M)
                assert abs(ht - t * h0) <= 1e-10 * t * h0


class TestElasticities:
    def test_cd_constant(self):
        tech = CobbDouglas(0.3, 0.3, 0.4)
        assert tech.elasticity(2.0, 0.5, 3.0, "M") == pytest.approx(0.4, abs=1e-14)

    def test_ces_unit_point(self):
        tech = CES(beta_L=1 / 3, beta_M=1 / 3, sigma=0.5, v=1.2)
        assert tech.elasticity(1.0, 1.0, 1.0, "M") == pytest.approx(0.4, rel=1e-12)

    @pytest.mark.parametrize("kind", ["CD", "CES"])
    def test_finite_difference_oracle(self, kind):
        # analytic elasticity vs central difference of log output, step 1e-5
        rng = np.random.default_rng(7)
        step = 1e-5
        for _ in range(40):
            tech = random_technology(rng, kind)
            K, L, M, _, _ = random_point(rng)
            for which, args in (("K", (K, L, M)), ("L", (K, L, M)), ("M", (K, L, M))):
                analytic = tech.elasticity(K, L, M, which)

                def logq(scale):
                    KK, LL, MM = K, L, M
                    if which == "K":
                        KK = K * scale
                    elif which == "L":
                        LL = L * scale
                    else:
                        MM = M * scale
                    return math.log(tech.output(KK, LL, MM))

                fd = (logq(math.exp(step)) - logq(math.exp(-step))) / (2 * step)
                if analytic == 0.0:
                    assert abs(fd) < 1e-9
                else:
                    assert abs(fd - analytic) <= 1e-6 * abs(analytic)

    @pytest.mark.parametrize("tech", [CobbDouglas(), CES(sigma=0.5), CES(sigma=-0.5)], ids=["CD", "CES+0.5", "CES-0.5"])
    def test_F_elasticities_match_central_differences(self, tech):
        # d log F/d log y and d log F_y/d log y vs central differences of log F and log F_y in log y, step 1e-5
        K, y = np.array([0.3, 1.0, 4.0, 2.0]), np.array([2.0, 0.5, 1.0, 30.0])
        step = 1e-5
        e_F, e_Fy = (np.broadcast_to(e, y.shape) for e in tech.F_elasticities(K, y))
        for f, analytic in ((tech.F, e_F), (tech.F_dy, e_Fy)):
            fd = (np.log(f(K, y * math.exp(step))) - np.log(f(K, y * math.exp(-step)))) / (2 * step)
            np.testing.assert_allclose(analytic, fd, rtol=1e-7, atol=1e-9)
        # the markup bound is the supremum of d log F/d log y
        assert np.all(e_F <= tech.variable_scale)


ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "revprod"
FAMILY_CLASSES = {"CobbDouglas", "CES"}
FAMILY_KINDS = ("CD", "CES")


def test_only_technology_names_a_family_class():
    # outside technology.py (and __init__'s re-export) no module imports a family class, none branches on one, and
    # none names a family kind: each reads its family's equations from the class that FAMILIES maps a kind to
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value in FAMILY_KINDS and path.name != "technology.py":
                found.append(f"{path.name}:{node.lineno} names the family {node.value!r}")
            if isinstance(node, ast.ImportFrom) and path.name not in ("technology.py", "__init__.py"):
                found += [f"{path.name}:{node.lineno} imports {a.name}" for a in node.names if a.name in FAMILY_CLASSES]
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance":
                named = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
                named |= {n.attr for n in ast.walk(node.args[1]) if isinstance(n, ast.Attribute)}
                if named & (FAMILY_CLASSES | {"Technology", "FAMILIES"}):
                    found.append(f"{path.name}:{node.lineno} calls isinstance on a technology")
    assert found == []


@pytest.mark.parametrize("tech", [CobbDouglas(), CES()], ids=["CD", "CES"])
@pytest.mark.parametrize(
    "method, args, allowed",
    [
        ("elasticity", (2.0, 0.5, 3.0), "K, L, M"),
        ("h_dlog", (0.5, 3.0), "L, M"),
    ],
)
def test_unknown_input_name_rejected(tech, method, args, allowed):
    # names are case-sensitive, and K is an input of the technology but not of the aggregate h
    for which in sorted({"X", "l", "K"} - set(allowed.split(", "))):
        with pytest.raises(ValueError, match=f"unknown input '{which}'; expected one of {allowed}$"):
            getattr(tech, method)(*args, which)


@pytest.mark.parametrize("tech", [CobbDouglas(), CES()], ids=["CD", "CES"])
def test_reduced_form_rejects_a_nonpositive_input(tech):
    with pytest.raises(DomainError, match="^L must be finite and strictly positive$"):
        revenue_pf_reduced_form(tech, 0.0, 3.0, 1.0, 1.5, 0.3, 1.0, "M")


@pytest.mark.parametrize("tech", [CobbDouglas(), CES()], ids=["CD", "CES"])
def test_flexible_input_formulas_reject_unknown_input(tech):
    # the aggregate's input names are checked where it reads them, by _pick
    with pytest.raises(ValueError, match="unknown input 'K'; expected one of L, M$"):
        revenue_pf_reduced_form(tech, 0.5, 3.0, 1.0, 1.5, 0.3, 1.0, "K")
    with pytest.raises(ValueError, match="unknown input 'K'; expected one of L, M$"):
        foc_input_price(tech, 0.5, 3.0, 1.0, 1.5, "K")
    with pytest.raises(ValueError, match="unknown input 'K'; expected one of L, M$"):
        tech.revenue_predictor({}, "K")  # checked before any column is read


@pytest.mark.parametrize("config", ["configs/cd.ini", "configs/ces.ini"])
def test_quantity_predictor_matches_the_primal(config):
    # the chart-side quantity prediction is log output, the primal's, on each shipped panel: at the config's theta
    # and at 20 seeded ones
    sim = parse_config(ROOT / config).sim
    panel = simulate_panel(sim)
    K, L, M = (panel.col(c) for c in ("K", "L", "M"))
    predict = sim.tech.quantity_predictor({"K": np.log(K), "L": np.log(L), "M": np.log(M)})
    rng = np.random.default_rng(19)
    for tech in [sim.tech] + [random_technology(rng, sim.tech.kind) for _ in range(20)]:
        x = to_chart([getattr(tech, n) for n in tech.bounds])
        assert np.max(np.abs(predict(x)[0] - np.log(tech.output(K, L, M)))) <= 1e-13, tech


class TestRevenuePredictors:
    def test_cd_capital_exponent_absent(self, small_cd_panel):
        p = small_cd_panel
        args = (p.col("L"), p.col("M"), p.col("pL"), p.col("pM"), p.col("sM_star"), 1.005, "M")
        a = revenue_pf_reduced_form(CobbDouglas(0.2, 0.3, 0.4), *args)
        b = revenue_pf_reduced_form(CobbDouglas(0.4, 0.3, 0.4), *args)
        assert np.array_equal(a, b)

    def test_ces_returns_to_scale_absent(self, small_ces_panel):
        p = small_ces_panel
        args = (p.col("L"), p.col("M"), p.col("pL"), p.col("pM"), p.col("sM_star"), 1.005, "M")
        a = revenue_pf_reduced_form(CES(0.3, 0.4, 0.5, 0.8), *args)
        b = revenue_pf_reduced_form(CES(0.3, 0.4, 0.5, 1.2), *args)
        assert np.array_equal(a, b)

    def test_log_revenue_cd_no_beta_k_path(self):
        l, m, pl, pm, s, cal = 0.2, -0.1, 0.05, 0.1, math.log(0.3), 1.005
        lo = predicted_log_revenue(CobbDouglas(0.05, 0.3, 0.4), l, m, pl, pm, s, cal, "L")
        hi = predicted_log_revenue(CobbDouglas(0.85, 0.3, 0.4), l, m, pl, pm, s, cal, "L")
        assert lo == hi

    def test_log_revenue_ces_no_v_path(self):
        l, m, pl, pm, s, cal = 0.2, -0.1, 0.05, 0.1, math.log(0.3), 1.005
        lo = predicted_log_revenue(CES(0.3, 0.4, 0.5, 0.6), l, m, pl, pm, s, cal, "M")
        hi = predicted_log_revenue(CES(0.3, 0.4, 0.5, 1.4), l, m, pl, pm, s, cal, "M")
        assert lo == hi

    def test_cd_symmetric_intercept(self):
        # with beta_L = beta_M the intercept vanishes entirely: the prediction
        # reduces to the expenditure average (the parametric and reduced-form
        # paths agree on this; the reduced form is the arbiter)
        tech = CobbDouglas(0.25, 0.35, 0.35)
        l, m, pl, pm, s, cal = 0.3, -0.2, 0.1, -0.1, math.log(0.3), 1.0
        got = predicted_log_revenue(tech, l, m, pl, pm, s, cal, "L")
        assert got == pytest.approx(0.5 * (l + pl) + 0.5 * (m + pm) - s, rel=1e-14)

    @pytest.mark.parametrize("kind", ["CD", "CES"])
    @pytest.mark.parametrize("which_v", ["L", "M"])
    def test_parametric_matches_reduced_form(self, kind, which_v, request):
        rng = np.random.default_rng(11)
        for _ in range(40):
            tech = random_technology(rng, kind)
            _, L, M, pL, pM = random_point(rng)
            s_star = rng.uniform(0.1, 0.6)
            cal_e = math.exp(0.5 * rng.uniform(0.0, 0.3) ** 2)
            red = revenue_pf_reduced_form(tech, L, M, pL, pM, s_star, cal_e, which_v)
            par = predicted_log_revenue(
                tech, math.log(L), math.log(M), math.log(pL), math.log(pM), math.log(s_star), cal_e, which_v
            )
            assert math.log(red) == pytest.approx(par, abs=1e-13)

        # on a shipped panel, the formula at the true parameters reproduces
        # the simulator's planned revenue R* = R / exp(eps)
        p = request.getfixturevalue(f"{kind.lower()}_panel")
        cfg = request.getfixturevalue(f"{kind.lower()}_config")
        logs = [np.log(p.col(c)) for c in ("L", "M", "pL", "pM", f"s{which_v}_star")]
        par = predicted_log_revenue(cfg.tech, *logs, cfg.shocks.cal_e, which_v)
        assert np.max(np.abs(par - np.log(p.rstar))) <= 1e-12

    def test_ces_share_rescaling_is_invariant(self):
        # (beta_L, beta_M) -> (c beta_L, c beta_M) leaves the prediction
        # unchanged: only the ratio enters the revenue equation
        rng = np.random.default_rng(13)
        base = CES(0.25, 0.35, 0.5, 0.9)
        for c in (0.5, 1.5, 2.0):
            scaled = CES(c * 0.25, c * 0.35, 0.5, 0.9) if c * 0.6 < 1 else None
            if scaled is None:
                continue
            for _ in range(10):
                K, L, M, pL, pM = random_point(rng)
                s_star, cal_e = 0.3, 1.005
                logs = (math.log(L), math.log(M), math.log(pL), math.log(pM), math.log(s_star))
                a = predicted_log_revenue(base, *logs, cal_e, "M")
                b = predicted_log_revenue(scaled, *logs, cal_e, "M")
                assert a == pytest.approx(b, abs=1e-12)

    def test_two_input_consistency_on_panel(self, ces_panel, ces_config):
        # both flexible-input variants predict the same planned revenue
        p, tech, cal = ces_panel, ces_config.tech, ces_config.shocks.cal_e
        rl = revenue_pf_reduced_form(tech, p.col("L"), p.col("M"), p.col("pL"), p.col("pM"), p.col("sL_star"), cal, "L")
        rm = revenue_pf_reduced_form(tech, p.col("L"), p.col("M"), p.col("pL"), p.col("pM"), p.col("sM_star"), cal, "M")
        assert np.max(np.abs(rl - rm) / rm) < 1e-8

    def test_markup_consistency_on_panel(self, ces_panel, ces_config):
        p, tech = ces_panel, ces_config.tech
        mu_l = tech.elasticity(p.col("K"), p.col("L"), p.col("M"), "L") / p.col("sL_star")
        mu_m = tech.elasticity(p.col("K"), p.col("L"), p.col("M"), "M") / p.col("sM_star")
        assert np.max(np.abs(mu_l - mu_m)) < 1e-8


@dataclass
class ValidityReport:
    """Grid-based check of monotonicity, weak essentiality and quasi-concavity."""

    monotone: bool
    essential: bool
    quasiconcave: bool
    monotone_violations: list
    quasiconcave_violations: list
    n_points: int

    @property
    def passed(self) -> bool:
        return self.monotone and self.essential and self.quasiconcave


def validate_technology(tech, grid: np.ndarray, rel_tol: float = 1e-10) -> ValidityReport:
    """Check production-set properties on a sample of strictly positive input points.

    grid has shape (n, 3) with columns (K, L, M).  Monotonicity and
    quasi-concavity are tested pairwise on the grid; weak essentiality is
    tested by shrinking every point toward the origin and requiring output
    to decay toward zero.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2 or grid.shape[1] != 3 or grid.shape[0] == 0:
        raise ValueError("grid must be a nonempty (n, 3) array of (K, L, M) points")
    _check_positive(grid=grid)

    n = grid.shape[0]
    f = tech.output(grid[:, 0], grid[:, 1], grid[:, 2])

    mono_viol = []
    qc_viol = []
    # Pairwise dominance test: x' >= x componentwise must not lower output.
    dominates = np.all(grid[:, None, :] >= grid[None, :, :], axis=2)
    for i in range(n):
        for j in range(n):
            if i != j and dominates[i, j] and f[i] < f[j] * (1.0 - rel_tol):
                mono_viol.append((tuple(grid[j]), tuple(grid[i]), float(f[j]), float(f[i])))

    # Quasi-concavity via midpoints: F(midpoint) >= min of the endpoints.
    for i in range(n):
        mid = 0.5 * (grid[i] + grid[i + 1 :])
        if mid.size == 0:
            continue
        fm = tech.output(mid[:, 0], mid[:, 1], mid[:, 2])
        floor = np.minimum(f[i], f[i + 1 :]) * (1.0 - rel_tol)
        bad = np.nonzero(fm < floor)[0]
        for b in bad:
            qc_viol.append((tuple(grid[i]), tuple(grid[i + 1 + b]), float(fm[b])))

    # Weak essentiality: output decays monotonically as all inputs shrink.
    essential = True
    scales = (1e-2, 1e-6, 1e-12, 1e-30)
    prev = f.copy()
    for t in scales:
        ft = tech.output(t * grid[:, 0], t * grid[:, 1], t * grid[:, 2])
        if np.any(ft > prev * (1.0 + rel_tol)):
            essential = False
            break
        prev = ft
    if essential and np.any(prev > 1e-2 * f):
        essential = False

    return ValidityReport(
        monotone=not mono_viol,
        essential=essential,
        quasiconcave=not qc_viol,
        monotone_violations=mono_viol,
        quasiconcave_violations=qc_viol,
        n_points=n,
    )


class TestValidateTechnology:
    def test_cd_log_grid_passes(self):
        tech = CobbDouglas(0.3, 0.3, 0.4)
        g = np.exp(np.linspace(-1, 1, 5))
        grid = np.array([(k, l, m) for k in g for l in g for m in g])
        report = validate_technology(tech, grid)
        assert report.passed
        assert report.n_points == 125

    def test_invalid_ces_rejected_before_validation(self):
        with pytest.raises(ParameterError):
            CES(beta_L=0.6, beta_M=0.4, sigma=0.5, v=1.0)

    @pytest.mark.parametrize("kind", ["CD", "CES"])
    def test_random_grids_no_counterexamples(self, kind):
        rng = np.random.default_rng(17)
        for _ in range(5):
            tech = random_technology(rng, kind)
            grid = np.exp(rng.normal(0.0, 0.6, size=(40, 3)))
            report = validate_technology(tech, grid)
            assert report.passed, (tech, report.monotone_violations[:2], report.quasiconcave_violations[:2])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            validate_technology(CobbDouglas(0.3, 0.3, 0.4), np.empty((0, 3)))
