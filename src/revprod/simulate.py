"""Seeded firm-panel generator satisfying every maintained model assumption.

Per firm-period, in order: productivity follows a stationary AR(1); capital
is set with period t-1 information through a log-linear policy; input prices
follow firm-specific log-AR(1) processes known before input choices; the firm
picks planned output where price (a constant markup over marginal cost)
clears a constant-elasticity demand curve; flexible inputs minimize cost for
that plan; an independent ex-post shock then scales realized output.

The resulting panel satisfies, observation by observation and up to float
roundoff: revenue share times markup equals the output elasticity, price
equals markup times marginal cost, the input-price first-order conditions,
and the reduced-form revenue identity.  verify_panel re-derives those
identities from the recorded columns.

Target revenue is ex-ante expected revenue P * Qstar * cal_e (the mean of
realized revenue given the information set), so target shares are
pV * V / (P * Qstar * cal_e).

Reproducibility contract: each firm draws its shocks from its own substream
of the seed in the fixed order _draw_firm_shocks documents, so a panel's CSV
bytes depend on the config and seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import costmin
from .panel_io import Panel
from .technology import DemandConfig, ParameterError, ShockConfig, Technology, _check_fields, revenue_pf_reduced_form

__all__ = [
    "SimulationError",
    "ProductivityProcess",
    "CapitalPolicy",
    "PriceProcess",
    "SimConfig",
    "check_markup",
    "simulate_panel",
    "verify_panel",
    "PanelCheckReport",
]

BURN_IN_DEFAULT = 50


class SimulationError(RuntimeError):
    """Raised when panel generation fails; identifies the offending firm-periods."""


@dataclass(frozen=True)
class ProductivityProcess:
    """Stationary AR(1) for log Hicks-neutral productivity: w' = c0 + rho*w + xi."""

    rho: float = 0.7
    c0: float = 0.0
    sigma_xi: float = 0.3

    def __post_init__(self):
        if not abs(self.rho) < 1.0:
            raise ParameterError("productivity process must be stationary (|rho| < 1)")
        _check_fields(self, nonnegative=("sigma_xi",))

    @property
    def mean(self) -> float:
        return self.c0 / (1.0 - self.rho)


@dataclass(frozen=True)
class CapitalPolicy:
    """Log-linear capital rule using period t-1 information.

    log K_t = kappa0 + kappa_k * log K_{t-1} + kappa_w * omega_{t-1} + noise.
    """

    kappa0: float = 0.0
    kappa_k: float = 0.75
    kappa_w: float = 0.4
    sigma_k: float = 0.25

    def __post_init__(self):
        if not abs(self.kappa_k) < 1.0:
            raise ParameterError("capital policy must be stable (|kappa_k| < 1)")
        _check_fields(self, nonnegative=("sigma_k",))


@dataclass(frozen=True)
class PriceProcess:
    """Firm-specific log-AR(1) input prices, in the information set at choice time.

    Each price follows its own AR(1) around a firm-specific long-run mean
    drawn once per firm (dispersion 0 disables the cross-sectional spread).
    The two flexible-input prices deliberately carry different persistence
    and dispersion: with identical temporal signatures, any linear mix of
    the two prices is indistinguishable from a single first-order process,
    which opens a spurious zero of the proxy-GMM moment conditions.  The
    capital rental price is generated the same way but enters no equation.
    """

    mean_log_pL: float = 0.0
    mean_log_pM: float = 0.0
    mean_log_pK: float = 0.0
    rho_pL: float = 0.85
    rho_pM: float = 0.20
    rho_pK: float = 0.50
    sigma_pL: float = 0.15
    sigma_pM: float = 0.35
    sigma_pK: float = 0.15
    dispersion_pL: float = 0.25
    dispersion_pM: float = 0.60
    dispersion_pK: float = 0.10

    def __post_init__(self):
        for name in ("rho_pL", "rho_pM", "rho_pK"):
            if not abs(getattr(self, name)) < 1.0:
                raise ParameterError(f"price processes must be stationary (|{name}| < 1)")
        _check_fields(self, nonnegative=("sigma_pL", "sigma_pM", "sigma_pK", "dispersion_pL", "dispersion_pM", "dispersion_pK"))


@dataclass(frozen=True)
class SimConfig:
    tech: Technology
    demand: DemandConfig = field(default_factory=DemandConfig)
    prod: ProductivityProcess = field(default_factory=ProductivityProcess)
    capital: CapitalPolicy = field(default_factory=CapitalPolicy)
    prices: PriceProcess = field(default_factory=PriceProcess)
    shocks: ShockConfig = field(default_factory=ShockConfig)
    n_firms: int = 500
    n_periods: int = 10
    burn_in: int = BURN_IN_DEFAULT
    seed: int = 0
    input_solver: str = "closed_form"  # or "numeric": solve every observation's
    # inputs with the batched KKT oracle instead of the closed-form demands

    def __post_init__(self):
        if self.n_firms < 0 or self.n_periods < 1 or self.burn_in < 0:
            raise ParameterError("need n_firms >= 0, n_periods >= 1, burn_in >= 0")
        if self.input_solver not in ("closed_form", "numeric"):
            raise ParameterError("input_solver must be 'closed_form' or 'numeric'")
        check_markup(self.tech, self.demand)


def check_markup(tech: Technology, demand: DemandConfig):
    """The pricing fixed point needs the short-run scale below the markup, unless eta varies by firm."""
    scale = tech.variable_scale
    if scale >= demand.mu and demand.eta_dispersion == 0.0:
        raise ParameterError(
            "pricing fixed point needs short-run scale below the markup "
            f"(scale {scale:g} >= mu {demand.mu:g})"
        )


def _draw_firm_shocks(cfg: SimConfig):
    """Each firm's shocks, from its own substream of SeedSequence(seed).

    The draw order is the reproducibility contract: firm i draws one block
    of 3 + 5*H + T + 1 standard normals, H = burn_in + n_periods, read in
    order as the price shifts (L, M, K); xi, u_k, e_pL, e_pM, e_pK (H each);
    eps (T); the eta shift.  Each path is 0.0 + sigma * z, what
    Generator.normal(0.0, sigma) computes, scaled in place (the 0.0 + turns
    a zero sigma's -0.0 into 0.0).  The price innovations come back stacked
    as (3, n, H), eps flattened firm by firm.
    """
    n, T, H = cfg.n_firms, cfg.n_periods, cfg.burn_in + cfg.n_periods
    pr = cfg.prices
    sd = np.repeat(
        [1.0, cfg.prod.sigma_xi, cfg.capital.sigma_k, pr.sigma_pL, pr.sigma_pM, pr.sigma_pK, cfg.shocks.sigma_eps, 1.0],
        [3, H, H, H, H, H, T, 1],
    )
    z = np.empty((n, sd.size))
    for z_i, ss in zip(z, np.random.SeedSequence(cfg.seed).spawn(n)):
        np.random.default_rng(ss).standard_normal(out=z_i)
    z *= sd
    z += 0.0
    paths = z[:, 3 : 3 + 5 * H].reshape(n, 5, H).swapaxes(0, 1)
    return z[:, :3], paths[0], paths[1], paths[2:], z[:, 3 + 5 * H : -1].ravel(), z[:, -1]


def _pricing_root(tech: Technology, K, omega, pL, pM, mu, eta, scale, cal_e):
    """Solve the pricing fixed point for every observation (vectorized Newton).

    Finds the flexible-aggregate level y where planned output and the price
    P = mu * marginal cost jointly clear the demand curve Qstar = scale * P^(-eta).
    The residual in x = log y is strictly increasing whenever the short-run
    returns stay below the markup, so Newton from x = 0 with step clipping
    converges for every row at once.  The slope, e_F - eta * e_Fy, reads
    the technology's F_elasticities.
    """
    c2 = tech.unit_cost(pL, pM)
    log_mu_c2 = np.log(mu) + np.log(c2)
    omega = np.asarray(omega, float)
    log_scale = math.log(scale)
    log_cal_e = math.log(cal_e)
    eta = np.asarray(eta)

    x = np.zeros(np.broadcast(K, omega, pL, pM).shape)
    for _ in range(80):
        y = np.exp(x)
        log_qtilde = np.log(tech.F(K, y)) + omega
        log_lam = log_mu_c2 - np.log(tech.F_dy(K, y)) - omega - log_cal_e
        g = log_qtilde - log_scale + eta * log_lam
        e_F, e_Fy = tech.F_elasticities(K, y)
        step = np.clip(-g / (e_F - eta * e_Fy), -4.0, 4.0)
        x = x + step
        if np.all(np.abs(g) < 1e-13):
            break
    else:
        bad = np.nonzero(~(np.abs(g) <= 1e-10))[0]
        raise SimulationError(f"pricing fixed point failed to converge at rows {bad[:10].tolist()}")
    return np.exp(x)


def simulate_panel(cfg: SimConfig) -> Panel:
    """Generate a reproducible panel under the full assumption set."""
    tech, demand, shocks = cfg.tech, cfg.demand, cfg.shocks
    n, T, burn = cfg.n_firms, cfg.n_periods, cfg.burn_in
    shifts, xi, u_k, e_p, eps, eta_shift = _draw_firm_shocks(cfg)

    # Firm-level permanent heterogeneity; the three input prices stacked as (L, M, K).
    pr = cfg.prices
    mean = np.array([[pr.mean_log_pL], [pr.mean_log_pM], [pr.mean_log_pK]])
    dispersion = np.array([[pr.dispersion_pL], [pr.dispersion_pM], [pr.dispersion_pK]])
    rho = np.array([[pr.rho_pL], [pr.rho_pM], [pr.rho_pK]])
    m_p = mean + dispersion * shifts.T
    if demand.eta_dispersion > 0.0:
        eta_i = 1.0 + (demand.eta - 1.0) * np.exp(demand.eta_dispersion * eta_shift)
    else:
        eta_i = np.full(n, demand.eta)
    mu_i = eta_i / (eta_i - 1.0)
    bad = np.nonzero(mu_i <= tech.variable_scale)[0]
    if bad.size:
        raise SimulationError(f"drawn demand elasticities leave no pricing fixed point for firms {bad[:10].tolist()}")

    # Time recursions, vectorized across firms: each carries the previous
    # period forward and stores only the n_periods recorded after the burn-in.
    omega = np.empty((n, T))
    logK = np.empty((n, T))
    log_p = np.empty((3, n, T))
    w_prev = np.full(n, cfg.prod.mean)
    k_prev = np.full(n, (cfg.capital.kappa0 + cfg.capital.kappa_w * cfg.prod.mean) / (1.0 - cfg.capital.kappa_k))
    p_prev = m_p
    for s in range(burn + T):
        k_prev = cfg.capital.kappa0 + cfg.capital.kappa_k * k_prev + cfg.capital.kappa_w * w_prev + u_k[:, s]
        w_prev = cfg.prod.c0 + cfg.prod.rho * w_prev + xi[:, s]
        p_prev = m_p + rho * (p_prev - m_p) + e_p[:, :, s]
        if s >= burn:
            logK[:, s - burn], omega[:, s - burn], log_p[:, :, s - burn] = k_prev, w_prev, p_prev
    # the shocks but eps are views of one block, burn-in draws included: drop them, and the block with them
    del shifts, xi, u_k, e_p, eta_shift, m_p, w_prev, k_prev, p_prev

    w = omega.ravel()
    K = np.exp(logK).ravel()
    pL, pM, pK = np.exp(log_p).reshape(3, -1)
    mu = np.repeat(mu_i, T)
    eta = np.repeat(eta_i, T)

    y = _pricing_root(tech, K, w, pL, pM, mu, eta, demand.scale, shocks.cal_e)
    qtilde = tech.F(K, y) * np.exp(w)
    lam = tech.unit_cost(pL, pM) / (tech.F_dy(K, y) * np.exp(w) * shocks.cal_e)
    P = mu * lam

    if cfg.input_solver == "numeric":
        sol = costmin.cost_min_numeric(tech, K, pL, pM, tech.F(K, y))
        L, M = sol.L_star, sol.M_star
    else:
        L1, M1 = tech.unit_demand(pL, pM)
        L, M = y * L1, y * M1

    Q = qtilde * np.exp(eps)
    R = P * Q
    target_revenue = P * qtilde * shocks.cal_e
    sL = pL * L / target_revenue
    sM = pM * M / target_revenue

    data = dict(
        firm_id=np.repeat(np.arange(1, n + 1, dtype=np.int64), T), t=np.tile(np.arange(1, T + 1, dtype=np.int64), n),
        K=K, L=L, M=M, pL=pL, pM=pM, pK=pK, omega=w, eps=eps, Q=Q, P=P, R=R, sL_star=sL, sM_star=sM,
    )
    return Panel(data=data)


# ---------------------------------------------------------------------------
# Assumption checks on generated (or externally supplied) panels
# ---------------------------------------------------------------------------


@dataclass
class PanelCheckReport:
    """Per-observation identity checks; zero violations on a self-generated panel."""

    n_rows: int
    violations: dict
    first_bad_rows: dict
    passed: bool


def verify_panel(panel: Panel, cfg: SimConfig) -> PanelCheckReport:
    """Check the model identities on every row, each only where its columns are present.

    The input-price first-order conditions need only the required columns and
    always run.  The revenue identity needs Q and P, the reduced-form revenue
    equation eps (to form R*), and markup consistency P and omega; a check
    whose columns are missing is not run and not listed in violations.
    """
    tech, cal_e = cfg.tech, cfg.shocks.cal_e
    violations = {}
    first_bad = {}

    def record(name, bad_mask):
        idx = np.nonzero(bad_mask)[0]
        violations[name] = int(idx.size)
        if idx.size:
            first_bad[name] = idx[:10].tolist()

    K, L, M = panel.col("K"), panel.col("L"), panel.col("M")
    pL, pM = panel.col("pL"), panel.col("pM")
    R = panel.col("R")

    if panel.has("Q") and panel.has("P"):
        record("revenue_identity", np.abs(R - panel.col("P") * panel.col("Q")) > 1e-9 * R)

    if panel.has("eps"):
        rstar = panel.rstar
        for v, share in (("L", panel.col("sL_star")), ("M", panel.col("sM_star"))):
            pred = revenue_pf_reduced_form(tech, L, M, pL, pM, share, cal_e, v)
            record(f"reduced_form_{v}", np.abs(pred - rstar) > 1e-7 * rstar)

    for v, price in (("L", pL), ("M", pM)):
        implied = costmin.foc_input_price(tech, L, M, pL, pM, v)
        record(f"foc_price_{v}", np.abs(implied - price) > 1e-7 * price)

    if panel.has("P") and panel.has("omega"):
        lam = costmin.marginal_cost_closed_form(tech, K, L, M, pL, pM, panel.col("omega"), cal_e)
        mu_price = panel.col("P") / lam
        mu_share = tech.elasticity(K, L, M, "M") / panel.col("sM_star")
        record("markup_consistency", np.abs(mu_price - mu_share) > 1e-8 * mu_share)

    passed = all(v == 0 for v in violations.values())
    return PanelCheckReport(n_rows=len(panel), violations=violations, first_bad_rows=first_bad, passed=passed)
