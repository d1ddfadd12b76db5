import math
from pathlib import Path

import numpy as np
import pytest

from revprod.costmin import SolverError, cost_min_numeric
from revprod.estimate import to_chart
from revprod.simulate import SimConfig, simulate_panel
from revprod.technology import CES, CobbDouglas

ROOT = Path(__file__).resolve().parents[1]
TRUE_CD = CobbDouglas(beta_K=0.25, beta_L=0.3, beta_M=0.4)
TRUE_CES = CES(beta_L=0.3, beta_M=0.4, sigma=0.5, v=0.9)


@pytest.fixture(scope="session")
def cd_tech():
    return TRUE_CD


@pytest.fixture(scope="session")
def ces_tech():
    return TRUE_CES


@pytest.fixture(scope="session")
def cd_config():
    return SimConfig(tech=TRUE_CD, seed=909)


@pytest.fixture(scope="session")
def ces_config():
    return SimConfig(tech=TRUE_CES, seed=808)


@pytest.fixture(scope="session")
def cd_panel(cd_config):
    return simulate_panel(cd_config)


@pytest.fixture(scope="session")
def ces_panel(ces_config):
    return simulate_panel(ces_config)


@pytest.fixture(scope="session")
def small_cd_config():
    return SimConfig(tech=TRUE_CD, n_firms=80, n_periods=6, seed=411)


@pytest.fixture(scope="session")
def small_ces_config():
    return SimConfig(tech=TRUE_CES, n_firms=80, n_periods=6, seed=412)


@pytest.fixture(scope="session")
def small_cd_panel(small_cd_config):
    return simulate_panel(small_cd_config)


@pytest.fixture(scope="session")
def small_ces_panel(small_ces_config):
    return simulate_panel(small_ces_config)


def edited_config(config, old, new, tmp_path):
    """A copy, in tmp_path, of the shipped config (a path under the repository root) with its line old replaced by new."""
    text = (ROOT / config).read_text()
    assert f"\n{old}\n" in text
    path = tmp_path / f"edited-{Path(config).name}"
    path.write_text(text.replace(f"\n{old}\n", f"\n{new}\n"))
    return path


def random_technology(rng, kind):
    """Random valid technology for property-style checks."""
    if kind == "CD":
        return CobbDouglas(
            beta_K=rng.uniform(0.0, 0.5),
            beta_L=rng.uniform(0.1, 0.6),
            beta_M=rng.uniform(0.1, 0.6),
        )
    beta_L = rng.uniform(0.1, 0.45)
    beta_M = rng.uniform(0.1, 0.9 - beta_L)
    sigma = rng.uniform(-1.0, 0.9)
    if abs(sigma) < 0.05:
        sigma = 0.3
    return CES(beta_L=beta_L, beta_M=beta_M, sigma=sigma, v=rng.uniform(0.5, 1.3))


def random_point(rng):
    K, L, M = np.exp(rng.normal(0.0, 0.5, 3))
    pL, pM = np.exp(rng.normal(0.0, 0.3, 2))
    return K, L, M, pL, pM


def predicted_log_revenue(tech, l, m, pl, pm, s_log, cal_e, which_v):
    """Log target revenue P * Qstar: the family's revenue_predictor's log expected revenue
    at tech's parameters, less log cal_e.  Arguments are logs (inputs, input
    prices, target share of which_v) except cal_e."""
    share = "sL_star" if which_v == "L" else "sM_star"
    cols = {"L": l, "M": m, "pL": pl, "pM": pm, share: s_log}
    x = to_chart([getattr(tech, n) for n in tech.bounds])
    return tech.revenue_predictor(cols, which_v)(x)[0] - math.log(cal_e)


def f_inverse_root(tech, K: float, z: float, rtol: float = 1e-12) -> float:
    """Invert y -> F(K, y) at fixed K by bracketed scalar root-finding.

    Independent of the closed-form inverse: brackets the root by geometric
    expansion and hands it to a bracketing solver on the log residual.
    """
    from scipy.optimize import brentq

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


def factorization_check(tech, K: float, pL: float, pM: float, target: float, omega: float) -> float:
    """Relative gap between the numeric cost and F_inverse(K, target/e^omega) * C2.

    target is the planned output level gross of productivity; the inverse is
    evaluated by root-finding rather than the closed form, so the check pits
    three independently computed pieces against each other.
    """
    net = target / math.exp(omega)
    numeric = float(cost_min_numeric(tech, K, pL, pM, net).total_cost)
    factored = f_inverse_root(tech, K, net) * tech.unit_cost(pL, pM)
    return abs(numeric - factored) / numeric
