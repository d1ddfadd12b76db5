"""Cost minimization: numeric oracle, closed forms, and the factorized structure.

The short-run program chooses flexible inputs (L, M) to minimize expenditure
subject to producing at least a target level with the capital stock fixed:

    min pL*L + pM*M   s.t.   F(K, h(L, M)) >= T.

Because h is homogeneous of degree one, the cost function factorizes as
C = F_inverse(K, T) * C2(pL, pM), with C2 the minimum expenditure needed to
reach h = 1.  Everything downstream (marginal cost, input-price identities,
the revenue predictors) is a composition of those two pieces.

Two independent routes are kept side by side on purpose: a derivative-based
numeric solver in log-input space (the oracle), and the closed-form dual
objects of the two parametric families.  Tests require them to agree; the
closed forms are the fast production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize

from .technology import CES, DomainError, Technology, _check_positive

__all__ = [
    "SolverError",
    "CostSolution",
    "cost_min_numeric",
    "unit_cost_numeric",
    "c2_min",
    "conditional_demands",
    "closed_form_cost",
    "f_inverse_root",
    "factorization_check",
    "marginal_cost_closed_form",
    "foc_input_price",
]

KKT_TOL = 1e-9
MAX_ITER = 200


class SolverError(RuntimeError):
    """Numeric program failed to converge; carries the last iterate."""

    def __init__(self, message: str, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


@dataclass(frozen=True)
class CostSolution:
    """Solution of the short-run cost minimization program."""

    L_star: float
    M_star: float
    total_cost: float
    lam: float  # multiplier of the output constraint, currency per output unit
    converged: bool
    iterations: int
    kkt_residual: float


def _attainability_guard(tech: Technology, K: float, target: float) -> None:
    if isinstance(tech, CES):
        bound = tech.beta_K ** (tech.v / tech.sigma) * K**tech.v
        if tech.sigma > 0.0 and target <= bound:
            raise DomainError(
                f"target {target:g} at or below the capital-only floor {bound:g}; "
                "flexible-input demand is not interior"
            )
        if tech.sigma < 0.0 and target >= bound:
            raise DomainError(
                f"target {target:g} at or above the capacity ceiling {bound:g} "
                "implied by the fixed capital stock"
            )


def _solve_log_program(tech: Technology, K: float, pL: float, pM: float, log_target) -> CostSolution:
    """Derivative-based solve of min pL*e^z1 + pM*e^z2 s.t. constraint(z) >= 0.

    log_target is None for the unit-aggregate program (constraint log h >= 0)
    and the log of the output target otherwise.  Works in log-input space so
    positivity is automatic; the constraint gradient is the analytic pair of
    output (or aggregate) elasticities.  After the local solver, a Newton
    polish on the stationarity/feasibility system drives the relative KKT
    residual below tolerance.
    """

    def constraint(z):
        L, M = np.exp(z)
        if log_target is None:
            return float(np.log(tech.h(L, M)))
        return float(np.log(tech.output(K, L, M)) - log_target)

    def constraint_grad(z):
        L, M = np.exp(z)
        if log_target is None:
            gl = float(tech.h_dlog(L, M, "L") / tech.h(L, M))
            gm = float(tech.h_dlog(L, M, "M") / tech.h(L, M))
        else:
            gl = float(tech.elasticity(K, L, M, "L"))
            gm = float(tech.elasticity(K, L, M, "M"))
        return np.array([gl, gm])

    def objective(z):
        return pL * math.exp(z[0]) + pM * math.exp(z[1])

    def objective_grad(z):
        return np.array([pL * math.exp(z[0]), pM * math.exp(z[1])])

    z0 = np.zeros(2)
    res = minimize(
        objective,
        z0,
        jac=objective_grad,
        method="SLSQP",
        constraints=[{"type": "ineq", "fun": constraint, "jac": constraint_grad}],
        options={"ftol": 1e-14, "maxiter": MAX_ITER},
    )
    z = np.asarray(res.x, dtype=float)
    iters = int(res.nit)

    def kkt_state(z):
        g = objective_grad(z)
        a = constraint_grad(z)
        nu = float(g @ a / (a @ a))
        stat = np.max(np.abs(g - nu * a)) / np.max(np.abs(g))
        feas = abs(constraint(z))
        return nu, max(stat, feas)

    # Newton polish on [stationarity ratio, feasibility]; Jacobian by finite
    # differences so the polish stays independent of any closed-form dual.
    def system(z):
        g = objective_grad(z)
        a = constraint_grad(z)
        return np.array([math.log(g[0] / a[0]) - math.log(g[1] / a[1]), constraint(z)])

    nu, resid = kkt_state(z)
    for _ in range(30):
        if resid <= 1e-12:
            break
        Fz = system(z)
        J = np.empty((2, 2))
        hstep = 1e-7
        for j in range(2):
            zp = z.copy()
            zp[j] += hstep
            J[:, j] = (system(zp) - Fz) / hstep
        try:
            step = np.linalg.solve(J, -Fz)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        z = z + np.clip(step, -1.0, 1.0)
        iters += 1
        nu, resid = kkt_state(z)

    if resid > KKT_TOL:
        raise SolverError(
            f"cost minimization did not reach KKT tolerance (residual {resid:.3e})",
            last_iterate=np.exp(z),
        )

    L, M = np.exp(z)
    cost = pL * L + pM * M
    # nu is the multiplier of the log-constraint; divide by the target level
    # to get currency per output unit.
    lam = nu / math.exp(log_target) if log_target is not None else nu
    return CostSolution(
        L_star=float(L),
        M_star=float(M),
        total_cost=float(cost),
        lam=float(lam),
        converged=True,
        iterations=iters,
        kkt_residual=float(resid),
    )


def cost_min_numeric(tech: Technology, K: float, pL: float, pM: float, target: float) -> CostSolution:
    """Numeric oracle for the short-run program min pL*L + pM*M s.t. F(K, h) >= target.

    The target is expressed in output units net of productivity (the caller
    divides out exp(omega) first).  The reported multiplier is the derivative
    of minimized cost with respect to the target.
    """
    _check_positive(K=K, pL=pL, pM=pM, target=target)
    _attainability_guard(tech, K, target)
    return _solve_log_program(tech, float(K), float(pL), float(pM), math.log(target))


def unit_cost_numeric(tech: Technology, K: float, pL: float, pM: float) -> CostSolution:
    """Numeric oracle for the unit-aggregate program min pL*L + pM*M s.t. h >= 1."""
    _check_positive(K=K, pL=pL, pM=pM)
    return _solve_log_program(tech, float(K), float(pL), float(pM), None)


def c2_min(tech: Technology, K, pL, pM) -> float:
    """Unit aggregate cost via the closed-form dual of the parametric family.

    Both families are self-dual, so the minimum of the unit-aggregate program
    has an explicit form (verified against unit_cost_numeric in the test
    suite).  K is accepted for signature uniformity; h does not use it in
    either family, so the value is capital-free.
    """
    _check_positive(K=K, pL=pL, pM=pM)
    return tech.unit_cost(pL, pM)


def conditional_demands(tech: Technology, K, pL, pM, target):
    """Closed-form cost-minimizing inputs for F(K, h) >= target (vectorized).

    Returns (L, M, total_cost, lam) with lam the marginal cost per unit of
    target.  By homogeneity the optimal bundle is the unit-aggregate bundle
    scaled by the required aggregate level.
    """
    _check_positive(K=K, pL=pL, pM=pM, target=target)
    hbar = tech.F_inverse(K, target)
    L1, M1 = tech.unit_demand(pL, pM)
    c2 = tech.unit_cost(pL, pM)
    lam = c2 / tech.F_dy(K, hbar)
    return hbar * L1, hbar * M1, hbar * c2, lam


def closed_form_cost(tech: Technology, K, pL, pM, target):
    """Factorized cost function F_inverse(K, target) * C2(pL, pM)."""
    _check_positive(K=K, pL=pL, pM=pM, target=target)
    return tech.F_inverse(K, target) * tech.unit_cost(pL, pM)


def f_inverse_root(tech: Technology, K: float, z: float, rtol: float = 1e-12) -> float:
    """Invert y -> F(K, y) at fixed K by bracketed scalar root-finding.

    Independent of the closed-form inverse: brackets the root by geometric
    expansion and hands it to a bracketing solver on the log residual.
    """
    _check_positive(K=K, z=z)

    def resid(w):
        return math.log(tech.F(K, math.exp(w))) - math.log(z)

    lo, hi = -1.0, 1.0
    for _ in range(200):
        if resid(lo) < 0.0:
            break
        lo -= max(1.0, 0.5 * abs(lo))
    else:
        raise SolverError("failed to bracket F inverse from below", last_iterate=lo)
    for _ in range(200):
        if resid(hi) > 0.0:
            break
        hi += max(1.0, 0.5 * abs(hi))
    else:
        raise SolverError("failed to bracket F inverse from above", last_iterate=hi)
    w = brentq(resid, lo, hi, xtol=1e-14, rtol=rtol, maxiter=300)
    return math.exp(w)


def factorization_check(tech: Technology, K: float, pL: float, pM: float, target: float, omega: float) -> float:
    """Relative gap between the numeric cost and F_inverse(K, target/e^omega) * C2.

    target is the planned output level gross of productivity; the inverse is
    evaluated by root-finding rather than the closed form, so the check pits
    three independently computed pieces against each other.
    """
    _check_positive(K=K, pL=pL, pM=pM, target=target)
    net = target / math.exp(omega)
    numeric = cost_min_numeric(tech, K, pL, pM, net).total_cost
    factored = f_inverse_root(tech, K, net) * c2_min(tech, K, pL, pM)
    return abs(numeric - factored) / numeric


def marginal_cost_closed_form(tech: Technology, K, L, M, pL, pM, omega, cal_e):
    """Marginal cost of target output at a cost-minimizing allocation.

    Equals C2 / (dF/dh * exp(omega) * cal_e): the unit aggregate cost divided
    by the marginal product of the aggregate, deflated by productivity and by
    the ex-ante expectation of the output shock (one unit of expected output
    requires only 1/cal_e units of planned production).
    """
    _check_positive(K=K, L=L, M=M, pL=pL, pM=pM, cal_e=cal_e)
    c2 = tech.unit_cost(pL, pM)
    f2 = tech.F_dy(K, tech.h(L, M))
    return c2 / (f2 * np.exp(np.asarray(omega, float)) * np.asarray(cal_e, float))


def foc_input_price(tech: Technology, K, L, M, pL, pM, cal_e, which_v: str):
    """Input price implied by the cost-minimization first-order condition.

    At an interior optimum the price of a flexible input equals the unit
    aggregate cost times the marginal contribution of that input to h
    (Shephard's lemma applied to the unit-aggregate program).  The ex-ante
    shock expectation scales the marginal cost and the expected-output
    gradient by offsetting factors, so cal_e does not move the implied
    price; the argument is accepted so callers can pass the same bundle as
    the marginal-cost function.
    """
    if which_v not in ("L", "M"):
        raise ValueError(f"which_v must be 'L' or 'M', got {which_v!r}")
    _check_positive(K=K, L=L, M=M, pL=pL, pM=pM, cal_e=cal_e)
    return tech.unit_cost(pL, pM) * tech.h_dlevel(L, M, which_v)
