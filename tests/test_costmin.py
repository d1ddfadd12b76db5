import math
import re

import numpy as np
import pytest

from revprod import costmin
from revprod.costmin import (
    SolverError,
    conditional_demands,
    cost_min_numeric,
    foc_input_price,
    marginal_cost_closed_form,
)
from revprod.technology import CES, CobbDouglas, DomainError

from conftest import f_inverse_root, factorization_check, random_point, random_technology


def draw_case(rng, kind):
    """Technology plus a target guaranteed attainable (built from a feasible point)."""
    tech = random_technology(rng, kind)
    K, L, M, pL, pM = random_point(rng)
    target = float(tech.output(K, L, M))
    return tech, K, pL, pM, target


class TestNumericOracle:
    def test_cd_foc_ratio(self):
        sol = cost_min_numeric(CobbDouglas(0.3, 0.3, 0.4), 1.0, 1.0, 1.0, 1.0)
        assert sol.L_star / sol.M_star == pytest.approx(0.75, rel=1e-9)

    def test_symmetric_ces(self):
        sol = cost_min_numeric(CES(0.3, 0.3, 0.5, 0.9), 1.0, 1.0, 1.0, 0.8)
        assert sol.L_star == pytest.approx(sol.M_star, rel=1e-10)

    def test_kkt_residual_below_tolerance(self):
        rng = np.random.default_rng(23)
        for kind in ("CD", "CES"):
            for _ in range(20):
                tech, K, pL, pM, target = draw_case(rng, kind)
                sol = cost_min_numeric(tech, K, pL, pM, target)
                assert sol.kkt_residual <= 1e-9

    @pytest.mark.parametrize("kind", ["CD", "CES"])
    def test_closed_form_matches_oracle(self, kind):
        rng = np.random.default_rng(29)
        for _ in range(200):
            tech, K, pL, pM, target = draw_case(rng, kind)
            sol = cost_min_numeric(tech, K, pL, pM, target)
            L, M, cost, lam = conditional_demands(tech, K, pL, pM, target)
            assert abs(sol.total_cost - cost) <= 1e-6 * cost
            assert abs(sol.lam - lam) <= 1e-6 * lam

    def test_duality_round_trip(self):
        # plugging the solution back into the technology recovers the target
        rng = np.random.default_rng(31)
        for kind in ("CD", "CES"):
            for _ in range(30):
                tech, K, pL, pM, target = draw_case(rng, kind)
                sol = cost_min_numeric(tech, K, pL, pM, target)
                q = tech.output(K, sol.L_star, sol.M_star)
                assert abs(q - target) <= 1e-8 * target

    def test_ces_unattainable_target_rejected(self):
        tech = CES(0.3, 0.4, 0.5, 0.9)
        floor = tech.beta_K ** (tech.v / tech.sigma) * 1.0**tech.v
        with pytest.raises(DomainError):
            cost_min_numeric(tech, 1.0, 1.0, 1.0, 0.5 * floor)

    def test_unattainable_row_named_in_batch(self):
        tech = CES(0.3, 0.4, 0.5, 0.9)
        K = np.full(6, 1.0)
        floor = tech.beta_K ** (tech.v / tech.sigma)
        target = np.full(6, 4.0 * floor)
        target[3] = 0.5 * floor
        with pytest.raises(DomainError, match=r"rows \[3\]"):
            cost_min_numeric(tech, K, 1.0, 1.0, target)

    @pytest.mark.parametrize(
        "solve",
        [lambda tech, K, target: tech.F_inverse(K, target), lambda tech, K, target: conditional_demands(tech, K, 1.0, 1.0, target)],
        ids=["F_inverse", "conditional_demands"],
    )
    def test_closed_forms_name_the_unattainable_row(self, solve):
        tech = CES(0.3, 0.4, 0.5, 0.9)
        K = np.array([1.0, 1.0, 3.0, 1.0])
        floor = tech.beta_K ** (tech.v / tech.sigma) * K**tech.v
        target = 4.0 * floor
        target[2] = 0.5 * floor[2]
        message = f"output level {target[2]:g} not attainable with capital stock 3 at rows [2]; flexible-input demand is not interior"
        with pytest.raises(DomainError, match=re.escape(message)):
            solve(tech, K, target)

    def test_target_above_the_ces_capacity_ceiling_named(self):
        # sigma < 0: F(K, y) rises to the ceiling beta_K^(v/sigma) * K^v as y grows, and never reaches it
        tech = CES(0.3, 0.4, -0.5, 0.9)
        K = np.array([1.0, 2.0, 1.0, 1.0, 2.0])
        ceiling = tech.beta_K ** (tech.v / tech.sigma) * K**tech.v
        target = 0.5 * ceiling
        target[[1, 4]] = [1.2 * ceiling[1], 1.5 * ceiling[4]]
        message = f"output level {target[1]:g} not attainable with capital stock 2 at rows [1, 4]; flexible-input demand is not interior"
        with pytest.raises(DomainError, match=re.escape(message)):
            cost_min_numeric(tech, K, 1.0, 1.0, target)
        sol = cost_min_numeric(tech, K[[0, 2, 3]], 1.0, 1.0, target[[0, 2, 3]])
        assert np.all(sol.kkt_residual <= 1e-9)


class TestBatchedOracle:
    def test_batch_matches_row_by_row(self):
        rng = np.random.default_rng(73)
        tech = random_technology(rng, "CES")
        K, L, M, pL, pM = np.exp(rng.normal(0.0, [[0.5], [0.5], [0.5], [0.3], [0.3]], (5, 200)))
        target = tech.output(K, L, M)
        batch = cost_min_numeric(tech, K, pL, pM, target)
        assert batch.L_star.shape == (200,)
        for i in range(200):
            one = cost_min_numeric(tech, K[i], pL[i], pM[i], target[i])
            for field in ("L_star", "M_star", "total_cost", "lam"):
                a, b = getattr(batch, field)[i], getattr(one, field)
                assert abs(a - b) <= 1e-14 * abs(b), field

    def test_scalar_call_gives_0d_arrays(self):
        sol = cost_min_numeric(CobbDouglas(0.3, 0.3, 0.4), 1.0, 1.0, 1.0, 1.0)
        assert sol.L_star.shape == () and sol.kkt_residual.shape == ()
        assert type(sol.iterations) is int

    def test_unit_cost_on_price_grid(self):
        pL, pM = np.meshgrid(np.exp(np.linspace(-1.0, 1.0, 15)), np.exp(np.linspace(-1.0, 1.0, 15)))
        for tech in (CobbDouglas(0.2, 0.3, 0.45), CES(0.3, 0.4, 0.5, 0.9), CES(0.35, 0.3, -0.8, 1.1)):
            # F is increasing in h, so the unit program is the output program at target F(K, 1)
            sol = cost_min_numeric(tech, 1.0, pL, pM, tech.F(1.0, 1.0))
            closed = tech.unit_cost(pL, pM)
            assert sol.total_cost.shape == pL.shape
            assert np.max(np.abs(sol.total_cost - closed) / closed) <= 1e-12

    def test_failing_rows_named(self, monkeypatch):
        tech = CobbDouglas(0.25, 0.3, 0.4)
        pL = np.array([1.0, 1.0, 3.0, 1.0, 0.2])
        target = np.array([1.0, 1.0, 40.0, 1.0, 1e-3])
        # one clipped Newton step cannot reach rows 2 and 4 from z = 0
        monkeypatch.setattr(costmin, "MAX_ITER", 1)
        with pytest.raises(SolverError, match=r"rows \[2, 4\]") as err:
            cost_min_numeric(tech, 1.0, pL, 1.0, target)
        L, M = err.value.last_iterate
        assert L.shape == M.shape == (5,)

    # Cobb-Douglas rows at their optimum from z = 0 (pL/beta_L = pM/beta_M and target F(1, 1, 1)),
    # and rows whose targets take many clipped Newton steps
    EASY, HARD = 40, [1e4, 1e-4, 3e3]

    def mixed_batch(self, tech):
        n = self.EASY + len(self.HARD)
        pL = np.full(n, tech.beta_L)
        pL[self.EASY :] = [1.0, 2.0, 0.5]
        target = np.ones(n)
        target[self.EASY :] = self.HARD
        return pL, np.full(n, tech.beta_M), target

    def test_stopped_rows_leave_the_pass(self):
        seen = []

        class Counting(CobbDouglas):
            def output(self, K, L, M):
                seen.append(np.broadcast(K, L, M).size)
                return super().output(K, L, M)

        tech = Counting(0.25, 0.3, 0.4)
        pL, pM, target = self.mixed_batch(tech)
        sol = cost_min_numeric(tech, 1.0, pL, pM, target)
        # step 0 evaluates every row and its two probes; step 1 re-evaluates the easy rows after
        # their last step, and from its probes on no call sees them again
        assert seen[:4] == [target.size] * 4
        assert len(seen) > 4 and max(seen[4:]) <= len(self.HARD), seen
        for part in (slice(None, self.EASY), slice(self.EASY, None)):
            alone = cost_min_numeric(CobbDouglas(0.25, 0.3, 0.4), 1.0, pL[part], pM[part], target[part])
            for field in ("L_star", "M_star", "total_cost", "lam", "kkt_residual"):
                assert np.array_equal(getattr(sol, field)[part], getattr(alone, field)), field

    def test_capped_pass_names_only_unfinished_rows(self, monkeypatch):
        tech = CobbDouglas(0.25, 0.3, 0.4)
        pL, pM, target = self.mixed_batch(tech)
        # interleave the rows so the unfinished ones sit among stopped ones
        order = np.r_[0, self.EASY, 1, 2, self.EASY + 1, 3, self.EASY + 2, 4:self.EASY]
        pL, pM, target = pL[order], pM[order], target[order]
        uncapped = cost_min_numeric(tech, 1.0, pL, pM, target)
        assert uncapped.iterations > 5
        monkeypatch.setattr(costmin, "MAX_ITER", 5)
        with pytest.raises(SolverError, match=rf"at 3 of {target.size} rows \[1, 4, 6\] ") as err:
            cost_min_numeric(tech, 1.0, pL, pM, target)
        stopped = order < self.EASY
        L, M = err.value.last_iterate
        assert np.array_equal(L[stopped], uncapped.L_star[stopped])
        assert np.array_equal(M[stopped], uncapped.M_star[stopped])


class TestUnitAggregateCost:
    def test_cd_symmetric_value(self):
        assert CobbDouglas(0.2, 0.3, 0.3).unit_cost(1.0, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_cd_closed_form_vs_numeric(self):
        rng = np.random.default_rng(37)
        for kind in ("CD", "CES"):
            for _ in range(25):
                tech = random_technology(rng, kind)
                _, _, _, pL, pM = random_point(rng)
                closed = tech.unit_cost(pL, pM)
                numeric = cost_min_numeric(tech, 1.0, pL, pM, tech.F(1.0, 1.0)).total_cost
                assert abs(closed - numeric) <= 1e-7 * closed

    def test_price_homogeneity(self):
        rng = np.random.default_rng(41)
        for kind in ("CD", "CES"):
            tech = random_technology(rng, kind)
            _, _, _, pL, pM = random_point(rng)
            c1 = tech.unit_cost(pL, pM)
            c2 = tech.unit_cost(2.0 * pL, 2.0 * pM)
            assert abs(c2 - 2.0 * c1) <= 1e-10 * c1


class TestFactorization:
    @pytest.mark.parametrize("kind", ["CD", "CES"])
    def test_residual_small_on_random_draws(self, kind):
        rng = np.random.default_rng(43)
        for _ in range(100):
            tech, K, pL, pM, net = draw_case(rng, kind)
            omega = rng.normal(0.0, 0.3)
            resid = factorization_check(tech, K, pL, pM, net * math.exp(omega), omega)
            assert resid <= 1e-7

    def test_omega_shift_identity(self):
        # cost at (target, omega+d) equals cost at (target*exp(-d), omega)
        rng = np.random.default_rng(47)
        tech, K, pL, pM, net = draw_case(rng, "CES")
        d = 0.37
        a = cost_min_numeric(tech, K, pL, pM, net).total_cost
        b = cost_min_numeric(tech, K, pL, pM, (net * math.exp(d)) / math.exp(d)).total_cost
        assert a == pytest.approx(b, rel=1e-12)

    def test_f_inverse_round_trip(self):
        rng = np.random.default_rng(53)
        for kind in ("CD", "CES"):
            for _ in range(20):
                tech = random_technology(rng, kind)
                K, L, M, _, _ = random_point(rng)
                h = tech.h(L, M)
                z = float(tech.F(K, h))
                assert f_inverse_root(tech, K, z) == pytest.approx(h, rel=1e-9)


class TestMarginalCost:
    @pytest.mark.parametrize("kind", ["CD", "CES"])
    def test_matches_numeric_multiplier(self, kind):
        rng = np.random.default_rng(59)
        for _ in range(60):
            tech, K, pL, pM, net = draw_case(rng, kind)
            omega = rng.normal(0.0, 0.3)
            cal_e = math.exp(0.5 * 0.1**2)
            sol = cost_min_numeric(tech, K, pL, pM, net)
            lam = marginal_cost_closed_form(tech, K, sol.L_star, sol.M_star, pL, pM, omega, cal_e)
            # numeric multiplier prices one unit of net-of-productivity output
            assert abs(lam - sol.lam / (math.exp(omega) * cal_e)) <= 1e-7 * lam

    def test_doubling_productivity_halves_lambda(self):
        tech = CES(0.3, 0.4, 0.5, 0.9)
        lam1 = marginal_cost_closed_form(tech, 1.2, 0.8, 1.1, 0.9, 1.1, 0.0, 1.0)
        lam2 = marginal_cost_closed_form(tech, 1.2, 0.8, 1.1, 0.9, 1.1, math.log(2.0), 1.0)
        assert lam2 == pytest.approx(0.5 * lam1, rel=1e-14)

    def test_cd_constant_returns_flat_marginal_cost(self):
        # short-run constant returns: beta_L + beta_M = 1, beta_K = 0
        tech = CobbDouglas(0.0, 0.5, 0.5)
        lam_lo = conditional_demands(tech, 1.0, 1.0, 1.3, 0.5)[3]
        lam_hi = conditional_demands(tech, 1.0, 1.0, 1.3, 5.0)[3]
        assert lam_lo == pytest.approx(lam_hi, rel=1e-12)

    def test_lambda_increasing_in_target_under_decreasing_returns(self):
        tech = CobbDouglas(0.25, 0.3, 0.4)  # beta_L + beta_M = 0.7 < 1
        lam1 = cost_min_numeric(tech, 1.0, 1.0, 1.0, 1.0).lam
        lam2 = cost_min_numeric(tech, 1.0, 1.0, 1.0, 2.0).lam
        assert lam2 > lam1

    def test_envelope_check(self):
        # dC/dtarget by central difference equals the reported multiplier
        rng = np.random.default_rng(61)
        for kind in ("CD", "CES"):
            tech, K, pL, pM, net = draw_case(rng, kind)
            sol = cost_min_numeric(tech, K, pL, pM, net)
            h = 1e-5 * net
            hi = cost_min_numeric(tech, K, pL, pM, net + h).total_cost
            lo = cost_min_numeric(tech, K, pL, pM, net - h).total_cost
            fd = (hi - lo) / (2 * h)
            assert abs(fd - sol.lam) <= 1e-5 * sol.lam


class TestFocInputPrice:
    def test_price_scaling(self):
        tech = CES(0.3, 0.4, 0.5, 0.9)
        p1 = foc_input_price(tech, 0.8, 1.1, 0.9, 1.1, "M")
        p2 = foc_input_price(tech, 0.8, 1.1, 2.7 * 0.9, 2.7 * 1.1, "M")
        assert p2 == pytest.approx(2.7 * p1, rel=1e-12)

    def test_implied_ratio_is_mrs(self):
        rng = np.random.default_rng(67)
        for kind in ("CD", "CES"):
            tech = random_technology(rng, kind)
            _, L, M, pL, pM = random_point(rng)
            pl_hat = foc_input_price(tech, L, M, pL, pM, "L")
            pm_hat = foc_input_price(tech, L, M, pL, pM, "M")
            mrs = (tech.h_dlog(L, M, "L") / L) / (tech.h_dlog(L, M, "M") / M)
            assert pl_hat / pm_hat == pytest.approx(mrs, rel=1e-12)

    def test_matches_actual_prices_at_optimum(self):
        rng = np.random.default_rng(71)
        for kind in ("CD", "CES"):
            for _ in range(20):
                tech, K, pL, pM, net = draw_case(rng, kind)
                sol = cost_min_numeric(tech, K, pL, pM, net)
                for which, price in (("L", pL), ("M", pM)):
                    implied = foc_input_price(tech, sol.L_star, sol.M_star, pL, pM, which)
                    assert abs(implied - price) <= 1e-8 * price
