"""Cost minimization: the numeric oracle and the closed forms it is checked against.

The short-run program chooses flexible inputs (L, M) to minimize expenditure
subject to producing at least a target level with the capital stock fixed:

    min pL*L + pM*M   s.t.   F(K, h(L, M)) >= T.

Because h is homogeneous of degree one, the cost function factorizes as
C = F_inverse(K, T) * C2(pL, pM), with C2 the minimum expenditure needed to
reach h = 1.  Everything downstream (marginal cost, input-price identities,
the revenue predictors) is a composition of those two pieces.  F is strictly
increasing in h, so F(K, h) >= F(K, 1) exactly when h >= 1: the unit program
is the output program at target F(K, 1), and C2 is its minimized cost.

Two independent routes are kept side by side on purpose: a numeric solver in
log-input space (the oracle), and the closed-form dual objects of the two
parametric families (conditional_demands, marginal_cost_closed_form and the
technologies' unit_cost).  Tests require them to agree; the closed forms are
the fast production path.  The oracle takes arrays and solves their rows
together by damped Newton on the stationarity/feasibility system, each step
evaluating only the rows still moving, with a forward-difference Jacobian
built from primal objects only (output and elasticities), so it never reads
the duals it checks.  F_inverse decides attainability before the solve; rows
whose KKT residual stays above tolerance are named in the SolverError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .technology import Technology, _check_positive

__all__ = [
    "SolverError",
    "CostSolution",
    "cost_min_numeric",
    "conditional_demands",
    "marginal_cost_closed_form",
    "foc_input_price",
]

KKT_TOL = 1e-9  # a row whose relative KKT residual stays above this fails
NEWTON_TOL = 1e-12  # a row stops one Newton step after its residual reaches this
MAX_ITER = 200


class SolverError(RuntimeError):
    """Numeric program failed to converge; carries the last iterate."""

    def __init__(self, message: str, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


@dataclass(frozen=True)
class CostSolution:
    """Solution of the short-run cost minimization program, one entry per row."""

    L_star: np.ndarray
    M_star: np.ndarray
    total_cost: np.ndarray
    lam: np.ndarray  # multiplier of the output constraint, currency per output unit
    iterations: int  # Newton steps taken by the batch
    kkt_residual: np.ndarray


def cost_min_numeric(tech: Technology, K, pL, pM, target) -> CostSolution:
    """Numeric oracle for the short-run program min pL*L + pM*M s.t. F(K, h) >= target.

    Arguments broadcast against each other; the rows are solved in one
    batched Newton pass and the solution fields are arrays of the broadcast
    shape (0-d for scalar arguments).  The target is expressed in output
    units net of productivity (the caller divides out exp(omega) first).
    The reported multiplier is the derivative of minimized cost with respect
    to the target.  Raises SolverError naming the rows whose KKT residual
    stays above KKT_TOL.

    The pass is damped Newton on the KKT system of min pL*e^z1 + pM*e^z2
    s.t. c(z) >= 0, with c = log output(K, e^z1, e^z2) - log target; the
    unit-aggregate program is the one at target F(K, 1).  From z = 0, each
    step solves the 2x2 system [log(pL*L/e_L) - log(pM*M/e_M), c] = 0, with
    e_V the output elasticity in V, against a forward-difference Jacobian,
    and is clipped to +-1 in each log input.  A row takes one more step after
    its relative KKT residual first reaches NEWTON_TOL and then stops moving,
    so rows solved together or alone end at the same point.  Each step
    evaluates the system only on the rows that moved on the previous one:
    the rows still moving, which also evaluate their two Jacobian probes one
    after the other, and the rows that just took their last step, whose
    post-step multiplier and residual are what the solution reports.  The
    pass ends when every row has stopped, or after MAX_ITER steps.  Only
    primal objects and finite differences are used, so the solution stays
    independent of the closed-form duals.
    """
    _check_positive(K=K, pL=pL, pM=pM, target=target)
    tech.F_inverse(K, target)  # raises DomainError naming the rows no interior (L, M) reaches
    shape = np.broadcast(K, pL, pM, target).shape
    K, pL, pM, target = (np.broadcast_to(np.asarray(x, float), shape).ravel() for x in (K, pL, pM, target))

    def kkt(z, K, pL, pM, log_target):
        L, M = np.exp(z)
        c = np.log(tech.output(K, L, M)) - log_target
        aL, aM = tech.elasticity(K, L, M, "L"), tech.elasticity(K, L, M, "M")
        gL, gM = pL * L, pM * M
        return np.array([np.log(gL / aL) - np.log(gM / aM), c]), gL, gM, aL, aM

    hstep = 1e-7
    z = np.zeros((2, K.size))
    nu, resid = np.empty(K.size), np.empty(K.size)
    # the rows that moved on the previous step, with their data and iterate,
    # and which of them took their last step
    rows = np.arange(K.size)
    data = (K, pL, pM, np.log(target))
    z_rows = z
    last = np.zeros(K.size, dtype=bool)
    for iters in range(MAX_ITER + 1):
        Fz, gL, gM, aL, aM = kkt(z_rows, *data)
        # multiplier of the log-constraint (projection of the objective
        # gradient on the constraint gradient) and the relative residual
        nu[rows] = nu_rows = (gL * aL + gM * aM) / (aL * aL + aM * aM)
        stat = np.maximum(np.abs(gL - nu_rows * aL), np.abs(gM - nu_rows * aM)) / np.maximum(gL, gM)
        resid[rows] = np.maximum(stat, np.abs(Fz[1]))
        del gL, gM, aL, aM, nu_rows, stat  # free before the probes allocate theirs
        if iters == MAX_ITER:
            break
        if last.any():
            keep = ~last
            rows, z_rows, Fz = rows[keep], z_rows[:, keep], Fz[:, keep]
            data = tuple(x[keep] for x in data)
        if not rows.size:
            break
        (j11, j21), (j12, j22) = ((kkt(z_rows + dz, *data)[0] - Fz) / hstep for dz in ([[hstep], [0.0]], [[0.0], [hstep]]))
        # A singular or non-finite Jacobian leaves its row in place; the
        # residual check below then reports the row.
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.array([j12 * Fz[1] - j22 * Fz[0], j21 * Fz[0] - j11 * Fz[1]]) / (j11 * j22 - j12 * j21)
        z_rows = z_rows + np.where(np.isfinite(step).all(axis=0), np.clip(step, -1.0, 1.0), 0.0)
        z[:, rows] = z_rows
        # the step taken from a residual within NEWTON_TOL is a row's last
        last = resid[rows] <= NEWTON_TOL

    L, M = np.exp(z)
    bad = ~(resid <= KKT_TOL)
    if bad.any():
        rows = np.flatnonzero(bad)
        raise SolverError(
            f"cost minimization did not reach KKT tolerance {KKT_TOL:g} at {rows.size} of {bad.size} rows "
            f"{rows[:10].tolist()} (worst residual {np.max(resid[bad]):.3e})",
            last_iterate=(L.reshape(shape), M.reshape(shape)),
        )
    return CostSolution(
        L_star=L.reshape(shape),
        M_star=M.reshape(shape),
        total_cost=(pL * L + pM * M).reshape(shape),
        lam=(nu / target).reshape(shape),  # nu prices the log-constraint: / target gives currency per output unit
        iterations=iters,
        kkt_residual=resid.reshape(shape),
    )


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


def foc_input_price(tech: Technology, L, M, pL, pM, which_v: str):
    """Input price implied by the cost-minimization first-order condition.

    At an interior optimum the price of a flexible input equals the unit
    aggregate cost times the marginal contribution of that input to h
    (Shephard's lemma applied to the unit-aggregate program).  The ex-ante
    shock expectation cal_e scales the marginal cost and the expected-output
    gradient by offsetting factors, so it cancels from the implied price.
    """
    _check_positive(L=L, M=M, pL=pL, pM=pM)
    # h_dlog rejects a which_v other than L or M
    V = np.asarray(L if which_v == "L" else M, float)
    return tech.unit_cost(pL, pM) * (tech.h_dlog(L, M, which_v) / V)
