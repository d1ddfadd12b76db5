"""Parametric production technologies and their revenue-side counterparts.

Both supported technologies (Cobb-Douglas and CES) share the weakly separable
composite form

    Q = F(K, h(L, M)) * exp(omega) * exp(eps),

where K is the dynamic input, (L, M) are the flexible inputs, omega is
log Hicks-neutral productivity and eps is an ex-post log output shock.  The
flexible-input aggregate h is stored homogeneous of degree one; the degree of
returns is absorbed into the outer function F.  That normalization makes the
unit aggregate cost (the minimum flexible-input expenditure needed to reach
h = 1) a well-defined object, which in turn makes target revenue purely a
composition of h and that unit cost.

Each primal and dual object (h, F, output, elasticity, unit_cost,
unit_demand) is a method of the technology class and has no other name;
output is F(K, h(L, M)) in both families.  No other module imports a family
class, calls isinstance on one or names a family; FAMILIES maps a kind to
its class.  F_elasticities gives d log F/d log y and d log F_y/d log y (the
pricing Newton slope), and variable_scale, the supremum of d log F/d log y,
is the markup bound.

Each class also holds its equations on the estimator's side, in the chart
of revprod.estimate: x = (sigma, a, c, v) (CES) or (beta_K, a, c), in the
share ratio a = beta_L/(beta_L+beta_M) and the share scale c = beta_L+beta_M.
bounds is the estimator's box, in theta's order.  quantity_predictor and
revenue_predictor take log columns and return predict: predict(x) gives
(prediction, derivatives), derivatives() returning the p x N derivative of
the prediction in x, formed on call from the arrays the prediction already
built.  revenue_predictor is the package's one parametric log-revenue
formula, which the fits and the identification diagnostics both evaluate.
It is built from h and the unit aggregate cost alone: it reads sigma and a
(CES) or a alone (Cobb-Douglas), never c, the capital exponent, returns to
scale or omega, so chart points that differ only there give bit-identical
predictions, and its derivative rows for c and v (or beta_K and c) are
literal zeros.  revenue_pf_reduced_form below is the level form of the same
composition, built from a technology's unit_cost and h_dlog methods; the
panel checks use it as the independent reference.  It reads beta_L and
beta_M, from which the share scale cancels only up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Union

import numpy as np

__all__ = [
    "ParameterError",
    "DomainError",
    "CobbDouglas",
    "CES",
    "Technology",
    "FAMILIES",
    "ShockConfig",
    "DemandConfig",
    "revenue_pf_reduced_form",
]


class ParameterError(ValueError):
    """Raised when technology or configuration parameters violate an invariant."""


class DomainError(ValueError):
    """Raised when an operation is evaluated outside its economic domain."""


def _check_positive(**named) -> None:
    for name, value in named.items():
        arr = np.asarray(value, dtype=float)
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise DomainError(f"{name} must be finite and strictly positive")


def _check_fields(params, nonnegative=()) -> None:
    """ParameterError naming the first init field of params that is negative and listed in nonnegative, or not finite."""
    for name in (f.name for f in fields(params) if f.init):
        value = getattr(params, name)
        if name in nonnegative and value < 0.0:
            raise ParameterError(f"{name} must be nonnegative")
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


def _pick(which: str, **by_input):
    """The value for the input named which; any other name raises a ValueError listing the inputs."""
    if which not in by_input:
        raise ValueError(f"unknown input {which!r}; expected one of {', '.join(by_input)}")
    return by_input[which]


def _const_like(value: float, *refs):
    """Broadcast a constant to the common shape of the reference arrays."""
    shape = np.broadcast(*[np.asarray(r) for r in refs]).shape
    if shape == ():
        return float(value)
    return np.full(shape, float(value))


def _share_chain(d_L, d_M, a, c):
    """Derivatives in the share ratio a and the share scale c from those in beta_L = c a and beta_M = c - c a."""
    return c * (d_L - d_M), a * d_L + (1.0 - a) * d_M


@dataclass(frozen=True)
class CobbDouglas:
    """Cobb-Douglas technology Q = K^beta_K * L^beta_L * M^beta_M * e^omega * e^eps.

    Stored in separable form with h(L, M) = L^a * M^(1-a), a = beta_L/(beta_L+beta_M)
    (degree one) and F(K, y) = K^beta_K * y^(beta_L+beta_M).
    """

    beta_K: float = 0.25
    beta_L: float = 0.30
    beta_M: float = 0.40

    kind = "CD"
    variable_scale_fields = "beta_L + beta_M"

    def __post_init__(self):
        if not (self.beta_L > 0.0 and self.beta_M > 0.0):
            raise ParameterError("beta_L and beta_M must be strictly positive")
        if not self.beta_K >= 0.0:
            raise ParameterError("beta_K must be nonnegative")
        _check_fields(self)

    @property
    def variable_scale(self) -> float:
        """Short-run returns in the flexible inputs, beta_L + beta_M."""
        return self.beta_L + self.beta_M

    @property
    def labor_weight(self) -> float:
        """Weight of labor inside the degree-one aggregate, beta_L/(beta_L+beta_M)."""
        return self.beta_L / self.variable_scale

    # -- primal objects -------------------------------------------------

    def h(self, L, M):
        a = self.labor_weight
        return np.asarray(L, float) ** a * np.asarray(M, float) ** (1.0 - a)

    def h_dlog(self, L, M, which: str):
        """Derivative of h with respect to the log of one flexible input."""
        a = self.labor_weight
        w = _pick(which, L=a, M=1.0 - a)
        return w * self.h(L, M)

    def F(self, K, y):
        return np.asarray(K, float) ** self.beta_K * np.asarray(y, float) ** self.variable_scale

    def F_dy(self, K, y):
        s = self.variable_scale
        return s * np.asarray(K, float) ** self.beta_K * np.asarray(y, float) ** (s - 1.0)

    def F_inverse(self, K, z):
        """Aggregate level y with F(K, y) = z."""
        return (np.asarray(z, float) * np.asarray(K, float) ** (-self.beta_K)) ** (1.0 / self.variable_scale)

    def F_elasticities(self, K, y):
        """(d log F/d log y, d log F_y/d log y) at (K, y)."""
        return self.variable_scale, self.variable_scale - 1.0

    def output(self, K, L, M):
        return self.F(K, self.h(L, M))

    def elasticity(self, K, L, M, which: str):
        beta = _pick(which, K=self.beta_K, L=self.beta_L, M=self.beta_M)
        return _const_like(beta, K, L, M)

    # -- dual objects (self-dual family, closed forms) -------------------

    def unit_cost(self, pL, pM):
        """Minimum flexible-input expenditure subject to h >= 1."""
        a = self.labor_weight
        return (np.asarray(pL, float) / a) ** a * (np.asarray(pM, float) / (1.0 - a)) ** (1.0 - a)

    def unit_demand(self, pL, pM):
        """Cost-minimizing (L, M) at h = 1, by differentiating the unit cost."""
        a = self.labor_weight
        c2 = self.unit_cost(pL, pM)
        return a * c2 / np.asarray(pL, float), (1.0 - a) * c2 / np.asarray(pM, float)

    # -- the estimator's side, in the chart x = (beta_K, a, c) ----------------

    bounds = {"beta_K": (0.01, 0.9), "beta_L": (0.02, 0.9), "beta_M": (0.02, 0.9)}
    share_scale_cap = math.inf  # no capital share to keep, so c reaches beta_L's and beta_M's upper bounds together
    linear_in_logs = True  # the quantity prediction, so a Markov degree one system has closed-form moments
    # beta_K, which revenue never reads, at constant returns for the share scale c
    constant_returns = staticmethod(lambda c: {"beta_K": round(1.0 - c, 12)})

    @staticmethod
    def quantity_predictor(cols):
        """Log output less omega and eps, from the log columns K, L and M."""
        k, l, m = cols["K"], cols["L"], cols["M"]

        def predict(x):
            bK, a, c = x
            bL = c * a
            return bK * k + bL * l + (c - bL) * m, lambda: np.array([k, *_share_chain(l, m, a, c)])

        return predict

    @staticmethod
    def revenue_predictor(cols, which_v: str):
        """Log ex-ante expected revenue on the revenue equation of which_v, from the log columns L, M, pL, pM and the
        target share of which_v, sL_star or sM_star."""
        s = cols[_pick(which_v, L="sL_star", M="sM_star")]
        l_pl, m_pm = cols["L"] + cols["pL"], cols["M"] + cols["pM"]
        gap = l_pl - m_pm

        def predict(x):
            a = x[1]  # beta_K and the share scale are never read
            w_v = a if which_v == "L" else 1.0 - a
            theta0 = np.log(w_v) - a * np.log(a) - (1.0 - a) * np.log(1.0 - a)
            lin = a * l_pl + (1.0 - a) * m_pm
            pred = theta0 + lin - s

            def derivatives():
                # d pred / d a = d_wv + log(1 - a) - log(a) + gap
                d_wv = 1.0 / a if which_v == "L" else -1.0 / (1.0 - a)
                D = np.zeros((3, gap.size))
                D[1] = (d_wv + math.log(1.0 - a) - math.log(a)) + gap
                return D

            return pred, derivatives

        return predict


@dataclass(frozen=True)
class CES:
    """CES technology Q = ((1-bL-bM) K^sigma + bL L^sigma + bM M^sigma)^(v/sigma) * e^omega * e^eps.

    Separable form: h(L, M) = (bL L^sigma + bM M^sigma)^(1/sigma) (degree one) and
    F(K, y) = ((1-bL-bM) K^sigma + y^sigma)^(v/sigma).  Requires sigma < 1 and
    sigma != 0; the Cobb-Douglas limit is a separate class, not sigma -> 0.
    """

    beta_L: float = 0.30
    beta_M: float = 0.40
    sigma: float = 0.50
    v: float = 0.90

    kind = "CES"
    variable_scale_fields = "v"

    def __post_init__(self):
        if not (self.beta_L > 0.0 and self.beta_M > 0.0):
            raise ParameterError("beta_L and beta_M must be strictly positive")
        if not self.beta_L + self.beta_M < 1.0:
            raise ParameterError("beta_L + beta_M must be < 1 (positive capital share)")
        if not (self.sigma < 1.0 and self.sigma != 0.0):
            raise ParameterError("sigma must satisfy sigma < 1, sigma != 0")
        if not self.v > 0.0:
            raise ParameterError("returns-to-scale v must be strictly positive")
        _check_fields(self)

    @property
    def beta_K(self) -> float:
        return 1.0 - self.beta_L - self.beta_M

    @property
    def variable_scale(self) -> float:
        """Supremum of the short-run returns d log F/d log y, which is v; the markup must exceed it."""
        return self.v

    # -- primal objects -------------------------------------------------

    def h(self, L, M):
        s = self.sigma
        base = self.beta_L * np.asarray(L, float) ** s + self.beta_M * np.asarray(M, float) ** s
        return base ** (1.0 / s)

    def h_dlog(self, L, M, which: str):
        s = self.sigma
        bV = _pick(which, L=self.beta_L, M=self.beta_M)
        V = np.asarray(_pick(which, L=L, M=M), float)
        return bV * V ** s * self.h(L, M) ** (1.0 - s)

    def _outer(self, K, y):
        """beta_K*K^sigma + y^sigma, the sum that F raises to v/sigma."""
        return self.beta_K * np.asarray(K, float) ** self.sigma + np.asarray(y, float) ** self.sigma

    def F(self, K, y):
        return self._outer(K, y) ** (self.v / self.sigma)

    def F_dy(self, K, y):
        s = self.sigma
        return self.v * self._outer(K, y) ** (self.v / s - 1.0) * np.asarray(y, float) ** (s - 1.0)

    def F_inverse(self, K, z):
        """Aggregate level y with F(K, y) = z; DomainError names the rows whose z no y > 0 reaches."""
        s = self.sigma
        base = np.asarray(z, float) ** (s / self.v) - self.beta_K * np.asarray(K, float) ** s
        if np.any(base <= 0.0):
            z, K = np.broadcast_arrays(np.asarray(z, float), np.asarray(K, float))
            rows = np.flatnonzero(base <= 0.0)
            raise DomainError(
                f"output level {z.flat[rows[0]]:g} not attainable with capital stock {K.flat[rows[0]]:g} "
                f"at rows {rows[:10].tolist()}; flexible-input demand is not interior"
            )
        return base ** (1.0 / s)

    def F_elasticities(self, K, y):
        """(d log F/d log y, d log F_y/d log y) at (K, y)."""
        w = np.asarray(y, float) ** self.sigma / self._outer(K, y)
        return self.v * w, (self.v - self.sigma) * w - (1.0 - self.sigma)

    def output(self, K, L, M):
        return self.F(K, self.h(L, M))

    def elasticity(self, K, L, M, which: str):
        bV = _pick(which, K=self.beta_K, L=self.beta_L, M=self.beta_M)
        V = np.asarray(_pick(which, K=K, L=L, M=M), float)
        return self.v * bV * V ** self.sigma / self._outer(K, self.h(L, M))

    # -- dual objects -----------------------------------------------------

    def price_index(self, pL, pM):
        """Dual price aggregate for the flexible-input bundle."""
        s = self.sigma
        e = s / (s - 1.0)
        return (
            np.asarray(pL, float) ** e * self.beta_L ** (-1.0 / (s - 1.0))
            + np.asarray(pM, float) ** e * self.beta_M ** (-1.0 / (s - 1.0))
        )

    def unit_cost(self, pL, pM):
        s = self.sigma
        return self.price_index(pL, pM) ** ((s - 1.0) / s)

    def unit_demand(self, pL, pM):
        s = self.sigma
        B = self.price_index(pL, pM)
        L1 = B ** (-1.0 / s) * (np.asarray(pL, float) / self.beta_L) ** (1.0 / (s - 1.0))
        M1 = B ** (-1.0 / s) * (np.asarray(pM, float) / self.beta_M) ** (1.0 / (s - 1.0))
        return L1, M1

    # -- the estimator's side, in the chart x = (sigma, a, c, v) --------------

    bounds = {"sigma": (0.05, 0.9), "beta_L": (0.05, 0.6), "beta_M": (0.05, 0.6), "v": (0.5, 1.3)}
    share_scale_cap = 0.995  # c <= 0.995 keeps beta_K = 1 - c >= 0.005, inside the domain
    linear_in_logs = False
    # v, which revenue never reads, at constant returns whatever the share scale c
    constant_returns = staticmethod(lambda c: {"v": 1.0})

    @staticmethod
    def quantity_predictor(cols):
        """Log output less omega and eps, from the log columns K, L and M."""
        k = cols["K"]
        # exp(sigma k) factored out of the aggregate: pred = v k + (v/sigma) log agg
        lk, mk = cols["L"] - k, cols["M"] - k

        def predict(x):
            sg, a, c, v = x
            bL = c * a
            bM, bK = c - bL, 1.0 - c
            if bK <= 0.0:
                raise ValueError(f"the CES quantity prediction needs beta_L + beta_M < 1; theta = {[float(t) for t in (sg, bL, bM, v)]}")
            el, em = np.exp(sg * lk), np.exp(sg * mk)
            agg = bK + bL * el + bM * em
            log_agg = np.log(agg)
            pred = v * k + (v / sg) * log_agg

            def derivatives():
                # with q = (v/sigma) / agg: d_sigma = q (bL lk el + bM mk em) - (v/sigma^2) log_agg, d_v = k + log_agg / sigma,
                # and in beta_L and beta_M, the capital share 1 - c held, q (el - 1) and q (em - 1), chained to a and c
                q = (v / sg) / agg
                d_sg = q * (bL * lk * el + bM * mk * em) - (v / sg) * log_agg / sg
                return np.array([d_sg, *_share_chain(q * (el - 1.0), q * (em - 1.0), a, c), k + log_agg / sg])

            return pred, derivatives

        return predict

    @staticmethod
    def revenue_predictor(cols, which_v: str):
        """Log ex-ante expected revenue on the revenue equation of which_v, from the log columns L, M, pL, pM and the
        target share of which_v, sL_star or sM_star, in the expenditure-ratio form: with O the other flexible input
        and kappa = beta_O/beta_V, a/(1 - a) or its inverse,
        log R = log(p_V V / s*_V) + ((1 - sigma)/sigma) log[(1 + u1)/(1 + u2)],
        u1 = kappa (O/V)^sigma, u2 = kappa^(1/(1 - sigma)) (p_O/p_V)^(sigma/(sigma - 1))."""
        V, O, sign = _pick(which_v, L=("L", "M", -1.0), M=("M", "L", 1.0))  # log kappa = sign log(a/(1 - a))
        # the log gaps of O to V, in quantity and in price
        gap, price_gap = cols[O] - cols[V], cols["p" + O] - cols["p" + V]
        base = cols[V] + cols["p" + V] - cols[f"s{V}_star"]

        def predict(x):
            sg, a = x[0], x[1]  # the share scale and v are never read
            log_k, phi = sign * math.log(a / (1.0 - a)), (1.0 - sg) / sg
            u1 = np.exp(sg * gap + log_k)
            u2 = np.exp((log_k - sg * price_gap) / (1.0 - sg))
            a1, a2 = 1.0 + u1, 1.0 + u2
            lr = np.log(a1 / a2)
            pred = base + phi * lr

            def derivatives():
                # through phi and log u1, log u2, with w_i = u_i / (1 + u_i):
                # d_sigma = phi (gap w1 - (log_k - price_gap) w2 / (1 - sigma)^2) - lr / sigma^2 and
                # d pred / d log kappa = phi (w1 - w2 / (1 - sigma)), and d log kappa / d a = sign / (a (1 - a))
                w1, w2 = u1 / a1, u2 / a2
                D = np.zeros((4, w1.size))
                D[0] = phi * (gap * w1 - (log_k - price_gap) * w2 / (1.0 - sg) ** 2) - lr / sg**2
                D[1] = (sign * phi / (a * (1.0 - a))) * (w1 - w2 / (1.0 - sg))
                return D

            return pred, derivatives

        return predict


Technology = Union[CobbDouglas, CES]
FAMILIES = {"CD": CobbDouglas, "CES": CES}


@dataclass(frozen=True)
class ShockConfig:
    """Ex-post output shock: eps ~ N(0, sigma_eps^2), independent of everything.

    cal_e is the ex-ante expectation of exp(eps) given the firm's information
    set, a known constant under the Gaussian design.
    """

    sigma_eps: float = 0.1
    cal_e: float = field(init=False)

    def __post_init__(self):
        _check_fields(self, nonnegative=("sigma_eps",))
        try:
            object.__setattr__(self, "cal_e", math.exp(0.5 * self.sigma_eps**2))
        except OverflowError:
            raise ParameterError(f"sigma_eps = {self.sigma_eps:g} overflows cal_e = exp(sigma_eps^2/2)") from None


@dataclass(frozen=True)
class DemandConfig:
    """Constant-elasticity demand Q = scale * P^(-eta), implying markup eta/(eta-1).

    eta_dispersion > 0 draws a firm-specific elasticity around eta (log-spread),
    giving heterogeneous but still time-constant markups.  Disabled by default.
    """

    eta: float = 4.0
    scale: float = 2.0
    eta_dispersion: float = 0.0

    def __post_init__(self):
        if not self.eta > 1.0:
            raise ParameterError("demand elasticity eta must exceed 1")
        if not self.scale > 0.0:
            raise ParameterError("scale must be strictly positive")
        _check_fields(self, nonnegative=("eta_dispersion",))

    @property
    def mu(self) -> float:
        return self.eta / (self.eta - 1.0)


def revenue_pf_reduced_form(tech: Technology, L, M, pL, pM, s_star, cal_e, which_v: str):
    """Predicted target revenue P * Q~ built only from h and the unit aggregate cost.

    s_star is the level target revenue share of the chosen flexible input and
    cal_e the ex-ante expectation of exp(eps).  The computation touches only
    the flexible-input block (unit cost and h), so it cannot depend on
    capital, the capital exponent, returns to scale, or productivity.
    """
    _check_positive(L=L, M=M, pL=pL, pM=pM, s_star=s_star, cal_e=cal_e)
    c2 = tech.unit_cost(pL, pM)
    return c2 * tech.h_dlog(L, M, which_v) / (np.asarray(s_star, float) * np.asarray(cal_e, float))
