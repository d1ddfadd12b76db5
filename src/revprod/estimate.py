"""GMM on the quantity production function and on the revenue equation.

Both routes set instrument cross-products of a residual to zero,
E[z * e(x)] = 0, on the current rows of the panel (the firm-periods whose
firm is observed one period earlier), and share every line of the moment,
covariance, objective and Jacobian code (MomentSystem); they differ only in
the residual e and its derivative.  Both work in the family's one chart,
x = (sigma, a, c, v) (CES) or (beta_K, a, c), in the share ratio
a = beta_L/(beta_L+beta_M) and the share scale c = beta_L+beta_M: the
predictors, moments, Jacobian and searches take x and return derivatives in
x.  theta exists only at the edges: to_theta gives a fit's estimates, and
to_chart maps a technology coming into the diagnostics.  Every equation of a
family's form, its box, its predictors and the facts below that the charts
and the start read, is a member of its class in revprod.technology, looked
up once through FAMILIES; no line of this module branches on the family.

The quantity route is the identified benchmark: project out the ex-post shock
with a flexible polynomial first stage, recover the productivity series
implied by a candidate parameter vector, and take as residual the innovation
of its first-order Markov process.  The Markov conditional mean g(.) is a
polynomial of configurable degree whose coefficients are concentrated out in
closed form (for degree one, the slope a.b / a.a of the demeaned current
productivity on its demeaned lag), so the GMM search space contains only
technology parameters.  Its residual reads the family's quantity_predictor.

The revenue route rests on the paper's central fact: productivity cancels
from the revenue equation.  The family's revenue_predictor gives log ex-ante
expected revenue, so at the true parameters the residual
r = exp(log R - pred) - 1 is exp(eps) / E[exp eps] - 1, which has mean zero
whatever the shock distribution: no first stage, no productivity process, no
E[exp eps] to supply.  What that predictor reads, and so which chart
coordinates are flat by structure, is stated with it, in revprod.technology.

A value costs one prediction over the panel rows and the residual, and no
derivative.  The exact moment Jacobian J, whose SVD the rank diagnostics take
(MomentSystem.jacobian), is taken forward on demand: the predictor's p x N
derivative, through the residual's derivative map to e's p x n one, times the
instruments.  The objective's gradient is 2 n u'J for the direction u.  A
quantity system at Markov degree one whose family is linear_in_logs
(Cobb-Douglas) skips the rows: its moments and their Jacobian are closed forms
over cross-products taken once (_LinearMarkovMoments).  The searches are
Levenberg-Marquardt on numpy alone (_lm_search), which take J at each point
they reach; n_iter counts their steps and n_evals their moment evaluations.
_share_chart builds each system's chart (SearchChart) from the family's box,
with c at most its share_scale_cap (0.995 for CES, so that capital keeps a
share); revenue holds c and v (or beta_K) at a stated normalisation, the one
statement of what revenue identifies: a fit reports the free coordinates at
its minimum as identified (sigma and a, or a).  Both modes start at one point:
sigma and a at the closed-form expenditure-ratio estimate (their box centre
where it is undetermined), c and v (or beta_K and c) at the normalisation.  A
fit searches the free coordinates once, and under two-step weighting
re-minimizes once.  The one minimum lists the coordinates it left on a bound
(at_bound) and the rule that stopped its search (message).  converged holds
when that rule is the first-order test, the Gauss-Newton predicted_decrease
within ten times J's measured rounding_noise, and at_bound is empty.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .panel_io import Panel, PanelFormatError
from .technology import FAMILIES, ParameterError, _share_chain

__all__ = [
    "EstimationError",
    "FirstStage",
    "MomentSystem",
    "SearchChart",
    "EstimateResult",
    "first_stage_project",
    "build_quantity_moments",
    "build_revenue_moments",
    "gmm_minimize",
    "to_theta",
    "to_chart",
    "INSTRUMENT_TOKENS",
    "check_instruments",
    "DEFAULT_INSTRUMENTS",
]

logger = logging.getLogger(__name__)


def minimize(*args, **kwargs):
    """Never called: gmm_minimize runs _lm_search.  The name stays only because perfbench's tracer wraps it."""
    raise NotImplementedError("estimate.minimize is never called; gmm_minimize runs its own search")


# The instrument vocabulary: a constant; the current and lagged logs of K, L, M, pL and pM; the squared current
# logs of K, pL and pM; and the squared log relative price log pL - log pM, current and lagged.
INSTRUMENT_TOKENS = (
    "const",
    *(tok + when for tok in ("k", "l", "m", "pl", "pm") for when in ("_t", "_lag")),
    *("k2_t", "pl2_t", "pm2_t", "prel2_t", "prel2_lag"),
)


def check_instruments(names: Sequence[str]) -> None:
    """ParameterError naming the tokens of names that are not in INSTRUMENT_TOKENS, or that repeat."""
    unknown = [n for n in names if n not in INSTRUMENT_TOKENS]
    if unknown:
        raise ParameterError(f"unknown instrument tokens {unknown}; known: {' '.join(INSTRUMENT_TOKENS)}")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ParameterError(f"instruments {' '.join(names)} repeat {' '.join(repeated)}: a repeated token is collinear on every panel")


# The basic conditioning-set instruments alone leave the CES curvature
# directions too weak to recover at desk scale (asymptotic sd on sigma well
# above 1 at N=500, T=10); the default set therefore adds current input-price
# logs, which the generating processes make independent of the productivity
# innovation, plus squares that carry the substitution curvature.  m_lag is
# not among them: cost minimization makes log L - log M an exact affine
# function of log pL - log pM, so l_lag, m_lag, pl_lag, pm_lag and const are
# collinear on every panel, and _instruments rejects such a set.
BASIC_INSTRUMENTS = ("const", "k_t", "l_lag", "pl_lag", "pm_lag")
DEFAULT_INSTRUMENTS = BASIC_INSTRUMENTS + ("pl_t", "pm_t", "prel2_t", "k2_t", "pl2_t", "pm2_t")


class EstimationError(RuntimeError):
    """Raised when the moment covariance gives no two-step weight."""


# ---------------------------------------------------------------------------
# First stage
# ---------------------------------------------------------------------------


# Both routes estimate on the current rows, so a panel without them is refused before any arithmetic.
_NO_LAGS = "panel has no consecutive firm-periods; lags unavailable"


def _poly_dim(k: int, degree: int) -> int:
    return math.comb(k + degree, degree)


def _poly_design(X: np.ndarray, degree: int) -> np.ndarray:
    """Full polynomial basis (with interactions) in the columns of X, column-major: each monomial is the column of
    its combination less the last factor, times that factor."""
    n, k = X.shape
    design = np.empty((n, _poly_dim(k, degree)), order="F")
    design[:, 0] = 1.0
    index = {(): 0}
    for d in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(k), d):
            index[combo] = len(index)
            np.multiply(design[:, index[combo[:-1]]], X[:, combo[-1]], out=design[:, index[combo]])
    return design


def _pivoted_rank(R: np.ndarray, n: int):
    """(rank, pivots) of an n x p matrix A from its QR triangle R: numpy's rank cutoff (eps * max(n, p) relative to
    the largest) on a QR with column pivoting as LAPACK's geqp3 does it, so the first rank pivots are independent and
    the last is the most dependent column.  Each step swaps forward the first column whose remaining squared norm is
    within 1e-10 of the largest, so that no pivot rests on rounding; the trailing block of the triangle keeps A's
    remaining column norms, and each step triangularizes it again.  R itself is left as it was."""
    R, piv = R.copy(), np.arange(R.shape[1])
    for j in range(min(R.shape)):
        squares = np.einsum("ij,ij->j", R[j:, j:], R[j:, j:])
        k = j + int(np.argmax(squares >= (1.0 - 1e-10) * squares.max()))
        R[:, [j, k]], piv[[j, k]] = R[:, [k, j]], piv[[k, j]]
        R[j:, j:] = np.linalg.qr(R[j:, j:], mode="r")
    d = np.abs(R.diagonal())
    return np.count_nonzero(d > np.finfo(float).eps * max(n, R.shape[1]) * d[0]), piv


@dataclass
class FirstStage:
    """Polynomial projection of log output on observables.

    rank is the numerical rank of the design, a polynomial in the observables
    that are linearly independent on the panel; it equals the design's column
    count unless that polynomial is itself collinear.
    """

    degree: int
    fitted: np.ndarray
    residuals: np.ndarray
    r_squared: float
    rank: int


def first_stage_project(panel: Panel, degree: int = 3) -> FirstStage:
    """Regress log Q on a polynomial in log inputs and log input prices;
    returns fitted values and residuals.

    Cost minimization at known prices makes log M an exact affine function of
    log L, log pL and log pM, so the polynomial in all five observables has
    rank 35 of 56 columns at degree 3.  The design expands only the
    observables that are linearly independent on the panel (a pivoted QR of
    the five standardised columns, under numpy's rank cutoff), so it spans
    the same functions without the dependent columns; observables that are
    not collinear are all expanded.  Degree reduction, with a warning, counts
    the columns of the polynomial in all five observables, not those of the
    design: a 40-row panel is cut to degree 2 although its degree-3 design
    has 35 columns, so the degree does not depend on which observables are
    collinear.  Any collinearity left in the design is handled by the
    minimum-norm projection, numpy's lstsq at its default rank cutoff.  A
    panel with no consecutive firm-periods, on which no moment system can be
    built, is refused before the degree is chosen.
    """
    if degree < 1:
        raise ValueError("polynomial degree must be >= 1")
    if not panel.has("Q"):
        raise PanelFormatError("quantity mode requires the Q column (quantities unobserved)")
    if panel.lag_index()[0].size == 0:
        raise PanelFormatError(_NO_LAGS)
    y = np.log(panel.col("Q"))
    logs = np.column_stack(
        [np.log(panel.col(c)) for c in ("K", "L", "M", "pL", "pM")]
    )
    # Standardize regressors before expansion; the fitted span is unchanged.
    mu = logs.mean(axis=0)
    sd = logs.std(axis=0)
    # a spread within the rounding error of the mean marks a constant column, which dividing by inf zeroes
    sd[sd <= np.finfo(float).eps * len(y) * np.abs(mu)] = np.inf
    Xs = (logs - mu) / sd

    # The degree is reduced while the polynomial in all five observables has more
    # columns than there are rows, whatever the design below keeps of it.
    used = degree
    while used > 1 and _poly_dim(Xs.shape[1], used) > Xs.shape[0]:
        logger.warning(
            "first stage degree %d: the polynomial in all five observables has %d columns, more than the %d rows; "
            "reducing degree",
            used,
            _poly_dim(Xs.shape[1], used),
            Xs.shape[0],
        )
        used -= 1
    independent, piv = _pivoted_rank(np.linalg.qr(Xs, mode="r"), Xs.shape[0])
    keep = np.sort(piv[:independent])  # in column order
    design = _poly_design(Xs[:, keep], used)
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    logger.debug("first stage expands %d of 5 observables into %d columns of rank %d", keep.size, design.shape[1], rank)
    fitted = design @ coef
    resid = y - fitted
    tss = float(np.sum((y - y.mean()) ** 2))
    # a spread within the rounding error of the mean, the rule that marks a constant observable above, is a constant Q
    r2 = 1.0 - float(np.sum(resid**2)) / tss if tss > len(y) * (np.finfo(float).eps * len(y) * y.mean()) ** 2 else 1.0
    return FirstStage(degree=used, fitted=fitted, residuals=resid, r_squared=r2, rank=int(rank))


# ---------------------------------------------------------------------------
# Moment systems
# ---------------------------------------------------------------------------


def to_theta(x) -> np.ndarray:
    """theta = (sigma, c a, c - c a, v) or (beta_K, c a, c - c a) at the chart point (sigma, a, c, v) or (beta_K, a, c)."""
    theta = np.array(x, float)
    ratio, scale = theta[1], theta[2]
    theta[1], theta[2] = scale * ratio, scale - scale * ratio
    return theta


def to_chart(theta) -> np.ndarray:
    """The chart point of theta: to_theta's inverse, a = beta_L/(beta_L+beta_M) and c = beta_L+beta_M."""
    x = np.array(theta, float)
    x[1], x[2] = x[1] / (x[1] + x[2]), x[1] + x[2]
    return x


@dataclass(frozen=True)
class SearchChart:
    """Coordinates x in the box bounds; normalisation holds the coordinates the system never reads at stated values,
    and free names the others, which a fit searches.  x0 is the point a fit starts from, inside the bounds and at
    the normalisation, and source says what x0 holds in sigma and the share ratio, 'expenditure-ratio' or
    'box-centre'."""

    names: tuple
    bounds: tuple
    x0: np.ndarray
    source: str
    normalisation: dict = field(default_factory=dict)

    @property
    def free(self) -> tuple:
        return tuple(n for n in self.names if n not in self.normalisation)


@dataclass
class MomentSystem:
    """Moment conditions E[z * e(x)] = 0 on the current rows of a panel, at points x of chart.

    Every statistic at x reads one private linearization (_linearize): the moments m and jacobian, which forms the
    exact n_moments x p moment Jacobian J on call, its columns in chart.names' order.  On the row path the predictor
    runs once, and _residual maps its prediction to the residual e on the current rows and to e's forward
    derivative, which takes the predictor's p x N derivative (derivatives) and returns e's p x n one, de: J is
    de Z' / n.  Neither derivative is taken until jacobian is called, so a value costs one prediction.  The
    objective's gradient is 2 n u'J for u the symmetrized W m.  A quantity system at g_degree 1 whose family is
    linear_in_logs has a _closed_form instead (_LinearMarkovMoments), so a search evaluation never reads the panel
    rows; moment_covariance and g_coefficients always take the row path.

    The build function supplies the residual and the family's _share_chart: build_quantity_moments the innovation
    of the recovered productivity's Markov process (_MarkovInnovation) of degree g_degree, on the chart with no
    normalisation, and keeps the first_stage it recovers productivity from; build_revenue_moments
    r = exp(log R - pred) - 1, with g_degree None, on the chart that holds what revenue never reads at its
    normalisation, and keeps which_v, the flexible input whose revenue equation it uses.
    """

    mode: str
    tech_kind: str
    Z: np.ndarray
    instrument_names: tuple
    _predict: callable = field(repr=False)  # x -> (prediction, derivatives)
    _residual: callable = field(repr=False)  # prediction -> (residual on the current rows, forward)
    chart: SearchChart
    g_degree: Optional[int] = None
    first_stage: Optional[FirstStage] = field(default=None, repr=False)  # quantity systems only
    which_v: Optional[str] = None  # revenue systems only
    _closed_form: Optional[callable] = field(default=None, repr=False)  # x -> _linearize's pair

    @property
    def param_names(self) -> tuple:  # theta's, which a fit reports
        return tuple(FAMILIES[self.tech_kind].bounds)

    @property
    def n_obs(self) -> int:
        return self.Z.shape[0]

    def _point(self, x) -> np.ndarray:
        """x as a float array, refused unless it has one entry per chart coordinate."""
        x = np.asarray(x, float)
        if x.shape != (len(self.chart.names),):
            raise ValueError(f"a point has one entry per chart coordinate {', '.join(self.chart.names)}; got shape {x.shape}")
        return x

    def _evaluate(self, x):
        """(e, de) at x, a _point: the residual on the current rows, and de(), its p x n derivative in x."""
        pred, derivatives = self._predict(x)
        e, forward = self._residual(pred)
        return e, lambda: forward(derivatives())

    def _linearize(self, x):
        """(m, jacobian) at x: the moments, and jacobian(), their Jacobian J."""
        x = self._point(x)
        if self._closed_form is not None:
            return self._closed_form(x)
        e, de = self._evaluate(x)
        return e.dot(self.Z) / self.n_obs, lambda: de().dot(self.Z).T / self.n_obs

    def g_coefficients(self, x) -> np.ndarray:
        """Markov polynomial coefficients in powers of the lag, constant first (quantity systems only)."""
        return self._residual.coefficients(self._predict(self._point(x))[0])

    @property
    def n_moments(self) -> int:
        return self.Z.shape[1]

    def moments(self, x) -> np.ndarray:
        return self._linearize(x)[0]

    def jacobian(self, x) -> np.ndarray:
        """Exact n_moments x p Jacobian of moments(x) in the chart."""
        return self._linearize(x)[1]()

    def moment_covariance(self, x) -> np.ndarray:
        G = self.Z * self._evaluate(self._point(x))[0][:, None]
        return G.T @ G / self.n_obs

    def _quadratic_form(self, m, weight):
        """n m'Wm, and the direction u = (W + W')m / 2, for which 2 n u'J is its gradient."""
        mw = m if weight is None else m.dot(weight)
        return self.n_obs * float(mw.dot(m)), m if weight is None else 0.5 * (mw + weight.dot(m))

    def objective(self, x, weight: Optional[np.ndarray] = None) -> float:
        """GMM quadratic form in the conventional n-scaled (J-statistic) units."""
        return self._quadratic_form(self._linearize(x)[0], weight)[0]

    def objective_and_gradient(self, x, weight: Optional[np.ndarray] = None):
        """objective(x, weight) and its exact gradient in x, 2 n u'J, from one linearization."""
        m, jacobian = self._linearize(x)
        value, u = self._quadratic_form(m, weight)
        return value, 2.0 * self.n_obs * u.dot(jacobian())


class _MarkovInnovation:
    """Residual of quantity systems: the innovation of recovered productivity.

    Productivity is the first-stage fitted value minus the prediction, both
    over all panel rows, indexed into current and lagged rows.  g is fit in
    powers of the centred lag, which span the same space as powers of the
    lag itself but keep the normal equations well conditioned at any degree;
    for degree one the slope is a.b / a.a.  Means are taken as sum / n, which
    is what ndarray.mean computes, without its per-call overhead.
    """

    def __init__(self, fitted: np.ndarray, cur: np.ndarray, lag: np.ndarray, degree: int):
        self.fitted, self.cur, self.lag, self.degree = fitted, cur, lag, degree

    def _fit(self, pred):
        """Innovation and the pieces of g: lag mean, current mean, power
        means, slope, the demeaned powers X and (X X')^-1."""
        w = self.fitted - pred
        y = w.take(self.cur)
        n = y.size
        powers = np.empty((self.degree, n))
        w.take(self.lag, out=powers[0])
        lag_mean = powers[0].sum() / n
        powers[0] -= lag_mean
        for d in range(1, self.degree):
            np.multiply(powers[d - 1], powers[0], out=powers[d])
        power_means = powers.sum(axis=1) / n
        powers -= power_means[:, None]
        w_mean = y.sum() / n
        y -= w_mean
        gram = powers.dot(powers.T)
        # a 1 x 1 solve is a division; 1 / gram is bit-identical and skips LAPACK
        gram_inv = 1.0 / gram if self.degree == 1 else np.linalg.solve(gram, np.eye(self.degree))
        slope = gram_inv.dot(powers.dot(y))
        xi = y - slope.dot(powers)
        return xi, (lag_mean, w_mean, power_means, slope, powers, gram_inv)

    def __call__(self, pred):
        xi, (_, _, power_means, slope, X, gram_inv) = self._fit(pred)

        def forward(D):
            """The p x n derivative of xi for the p x N derivative D of the prediction, through the concentrated-out
            g: with dy and dX those of the demeaned current productivity and of the demeaned powers of the centred
            lag c, dX_k = demean((k+1) c^k dX_0), and T = dy - slope dX, d slope = (X X')^-1 (dX xi + X T) and
            d xi = T - d slope X."""
            n = self.cur.size
            dy = -D.take(self.cur, axis=1)
            dy -= dy.sum(axis=1, keepdims=True) / n
            dX = np.empty((self.degree, *dy.shape))
            dX[0] = -D.take(self.lag, axis=1)
            dX[0] -= dX[0].sum(axis=1, keepdims=True) / n
            c = X[0] + power_means[0]  # undo the demeaning of the first power
            c_pow = np.ones_like(c)
            for k in range(1, self.degree):
                c_pow = c_pow * c
                dX[k] = (k + 1) * c_pow * dX[0]
                dX[k] -= dX[k].sum(axis=1, keepdims=True) / n
            T = dy - np.tensordot(slope, dX, 1)
            d_slope = (dX.dot(xi).T + T.dot(X.T)).dot(gram_inv)
            return T - d_slope.dot(X)

        return xi, forward

    def coefficients(self, pred) -> np.ndarray:
        lag_mean, w_mean, power_means, slope, _, _ = self._fit(pred)[1]
        centred = np.concatenate([[w_mean - power_means @ slope], slope])
        coef = np.zeros(self.degree + 1)
        for k, c in enumerate(centred):
            for j in range(k + 1):
                coef[j] += c * math.comb(k, j) * (-lag_mean) ** (k - j)
        return coef


class _LinearMarkovMoments:
    """Closed-form moments of a Cobb-Douglas quantity system at Markov degree one.

    Recovered productivity is linear in t = (1, -beta_K, -beta_L, -beta_M):
    w = t'U, U holding the rows fitted, log K, log L and log M.  With U_t and
    U_l its current and lagged columns, each demeaned, A_t = Z'U_t'/n,
    A_l = Z'U_l'/n, S_ll = U_l U_l' and S_lt = U_l U_t', the slope of g is
    b = t'S_lt t / t'S_ll t and the moments are m = (A_t - b A_l) t.  Their
    derivative in t is A_t - b A_l - (A_l t) grad b', with
    grad b = ((S_lt + S_lt') t - 2 b S_ll t) / t'S_ll t; minus its last three
    columns are the moments' derivatives in the exponents, and _share_chain
    turns the beta_L and beta_M columns into the chart's a and c.  The
    cross-products are taken once, so an evaluation costs a few 11 x 4 and
    4 x 4 products, not passes over the panel rows.
    """

    def __init__(self, fitted: np.ndarray, cols, cur: np.ndarray, lag: np.ndarray, Z: np.ndarray):
        U = np.vstack([fitted, cols["K"], cols["L"], cols["M"]])
        n = cur.size
        U_t, U_l = U[:, cur], U[:, lag]
        U_t -= U_t.sum(axis=1, keepdims=True) / n
        U_l -= U_l.sum(axis=1, keepdims=True) / n
        self.A_t, self.A_l = U_t.dot(Z).T / n, U_l.dot(Z).T / n
        S_lt = U_l.dot(U_t.T)
        self.S_ll, self.S_sym = U_l.dot(U_l.T), S_lt + S_lt.T

    def __call__(self, x):
        bK, a, c = x.tolist()
        bL = c * a
        t = np.array((1.0, -bK, -bL, bL - c))
        a_t, a_l = self.A_t.dot(t), self.A_l.dot(t)
        s_ll, s_sym = self.S_ll.dot(t), self.S_sym.dot(t)
        den = t.dot(s_ll)
        b = 0.5 * t.dot(s_sym) / den

        def jacobian():
            grad_b = (s_sym[1:] - 2.0 * b * s_ll[1:]) / den
            J_K, J_L, J_M = (a_l[:, None] * grad_b + b * self.A_l[:, 1:] - self.A_t[:, 1:]).T
            return np.column_stack([J_K, *_share_chain(J_L, J_M, a, c)])  # beta_K, a and c

        return a_t - b * a_l, jacobian


def _lag_bundle(panel: Panel, names: Sequence[str]):
    """Current/lagged row indices plus full-length log columns of the panel."""
    cur, lag = panel.lag_index()
    if cur.size == 0:
        raise PanelFormatError(_NO_LAGS)
    return cur, lag, {name: np.log(panel.col(name)) for name in names}


def _instruments(family, logs, cur, lag, names: Sequence[str]):
    """(Z, fit): the named instrument columns Z over the current rows, from _lag_bundle's logs of K, L, M, pL and pM,
    and _expenditure_ratio_fit's start.  Both read one QR triangle of [Z X y], y the log expenditure ratio
    log(pL L / (pM M)) and X a constant and, where the family's box has a sigma, log(L/M), on the same rows: its
    leading block is Z's own triangle, whose pivoted rank must be full, and its upper right block is [X y] projected
    on the span of Z, in an orthonormal basis of it.  Rejects a set that check_instruments rejects, or without full
    column rank."""
    check_instruments(names)
    tokens = {"const": np.ones(cur.size)}
    for tok, col in (("k", "K"), ("l", "L"), ("m", "M"), ("pl", "pL"), ("pm", "pM")):
        tokens[tok + "_t"], tokens[tok + "_lag"] = logs[col][cur], logs[col][lag]
    for tok in ("k", "pl", "pm"):
        tokens[tok + "2_t"] = tokens[tok + "_t"] ** 2
    for when in ("_t", "_lag"):
        tokens["prel2" + when] = (tokens["pl" + when] - tokens["pm" + when]) ** 2
    if cur.size < len(names):
        raise ValueError(f"the panel has {cur.size} lag rows for {len(names)} instruments; it needs at least as many rows")
    Z, p = np.column_stack([tokens[n] for n in names]), len(names)
    y = tokens["l_t"] + tokens["pl_t"] - tokens["m_t"] - tokens["pm_t"]
    X = [tokens["const"], tokens["l_t"] - tokens["m_t"]] if "sigma" in family.bounds else [tokens["const"]]
    R = np.linalg.qr(np.column_stack([Z, *X, y]), mode="r")
    rank, piv = _pivoted_rank(R[:p, :p], cur.size)
    if rank < p:
        raise ValueError(f"instruments {' '.join(names)} are collinear on this panel: {names[piv[-1]]} depends on the others")
    return Z, _expenditure_ratio_fit(R[:p, p:])


REVENUE_COLUMNS = ("L", "M", "pL", "pM", "sL_star", "sM_star")


def build_quantity_moments(
    tech_kind: str,
    first_stage: FirstStage | Callable[[], FirstStage],
    panel: Panel,
    g_degree: int = 1,
    instruments: Sequence[str] = DEFAULT_INSTRUMENTS,
) -> MomentSystem:
    """Moment system on the quantity production function (identified benchmark)."""
    if g_degree < 1:
        raise ValueError("g_degree must be >= 1")
    family = FAMILIES[tech_kind]
    cur, lag, cols = _lag_bundle(panel, ("K", "L", "M", "pL", "pM"))
    predict = family.quantity_predictor(cols)
    Z, fit = _instruments(family, cols, cur, lag, instruments)
    if callable(first_stage):  # called once the instruments pass, so that a panel they refuse costs no first stage
        first_stage = first_stage()
    linear = family.linear_in_logs and g_degree == 1
    return MomentSystem(
        mode="quantity",
        tech_kind=tech_kind,
        Z=Z,
        instrument_names=tuple(instruments),
        _predict=predict,
        _residual=_MarkovInnovation(first_stage.fitted, cur, lag, g_degree),
        chart=_share_chart(family, fit, normalised=False),
        g_degree=g_degree,
        first_stage=first_stage,
        _closed_form=_LinearMarkovMoments(first_stage.fitted, cols, cur, lag, Z) if linear else None,
    )


def _share_chart(family, fit, normalised: bool) -> SearchChart:
    """The family's chart in the share ratio a = beta_L/(beta_L+beta_M) and the share scale c = beta_L+beta_M, its
    box's theta order with (a, c) in place of (beta_L, beta_M), which to_theta and to_chart map to theta and back.
    normalised holds c at lo + hi of the family's share box, where a's bounds span every ratio the box allows (1/13
    to 12/13 for CES), and the coordinate revenue never reads at constant_returns.  c's upper bound is the smaller of
    the family's share_scale_cap and hi_L + hi_M, so a family with no cap (Cobb-Douglas) has a chart that covers its
    whole box.

    The chart starts at the expenditure-ratio estimate: sigma and a at fit, _expenditure_ratio_fit's estimate, moved
    _START_MARGIN of the box width inside the bounds, and the coordinates that fit leaves open (c and v, or beta_K and
    c) at the normalisation, whether normalised holds them or not, so a family's quantity and revenue charts start at
    the same point.  Where fit is None, the instruments leaving sigma and a undetermined, they start at the centre of
    the box.  x0 is read-only, so no fit can move a chart's start."""
    box = family.bounds
    (lo_L, hi_L), (lo_M, hi_M) = box["beta_L"], box["beta_M"]
    c = min(lo_L + hi_M, hi_L + lo_M)
    scale_hi = min(family.share_scale_cap, hi_L + hi_M)
    shares = {"share_ratio": (max(lo_L / c, 1 - hi_M / c), min(hi_L / c, 1 - lo_M / c)), "beta_L+beta_M": (lo_L + lo_M, scale_hi)}
    first, _, _, *rest = box.items()  # theta's order puts beta_L and beta_M second and third
    coords = dict([first, *shares.items(), *rest])
    names = tuple(coords)
    normalisation = {"beta_L+beta_M": c, **family.constant_returns(c)}
    lo, hi = (np.array(b) for b in zip(*coords.values()))
    fixed = [i for i, n in enumerate(names) if n in ("sigma", "share_ratio")]
    x0 = 0.5 * (lo + hi)
    if fit is not None:
        sigma, log_ratio = fit
        closed = {"sigma": sigma, "share_ratio": 0.5 + 0.5 * math.tanh(0.5 * log_ratio)}  # a with no overflow
        x0[fixed] = [closed[names[i]] for i in fixed]
        x0 = np.clip(x0, lo + _START_MARGIN * (hi - lo), hi - _START_MARGIN * (hi - lo))
    x0[[names.index(n) for n in normalisation]] = list(normalisation.values())
    x0.flags.writeable = False
    source = "box-centre" if fit is None else "expenditure-ratio"
    return SearchChart(names, tuple(coords.values()), x0, source, normalisation if normalised else {})


# A closed-form start is moved at least this fraction of the box width inside each bound.
_START_MARGIN = 1e-3


def _expenditure_ratio_fit(proj: np.ndarray):
    """(sigma, log(beta_L/beta_M)) from the expenditure ratio, or None if the instruments leave them undetermined.

    Cost minimisation gives log(pL L / (pM M)) = log(beta_L/beta_M) + sigma log(L/M) on every row
    (Doraszelski and Jaumandreu, 2018); a family with no sigma in its box has sigma = 0, which leaves the
    constant.  The fit is 2SLS of the log ratio y on _instruments' regressors X, a constant and perhaps log(L/M),
    with the instruments Z; proj is [X y] projected on the span of Z in an orthonormal basis of it, the block of
    _instruments' triangle.
    """
    # a log(L/M) whose projection is a constant to within 1e-10 of its size leaves sigma undetermined
    coef, _, rank, _ = np.linalg.lstsq(proj[:, :-1], proj[:, -1], rcond=1e-10)
    if rank < proj.shape[1] - 1:
        return None
    return (coef[1] if coef.size == 2 else 0.0), coef[0]


def build_revenue_moments(
    tech_kind: str,
    panel: Panel,
    which_v: str = "M",
    instruments: Sequence[str] = DEFAULT_INSTRUMENTS,
) -> MomentSystem:
    """Moment system on the revenue equation's ex-post shock.

    The residual is r = exp(log R - pred) - 1 on the current rows, pred being the family's revenue_predictor's
    log expected revenue; which_v selects the flexible input whose revenue equation is used, and a name other than
    L or M raises before any column is read.  The chart is the family's _share_chart with the coordinates pred never
    reads normalised: a fit holds beta_L + beta_M = c and constant returns, and moves sigma and
    a = beta_L/(beta_L+beta_M), or a alone, which it reports as identified.  The chart starts at the
    expenditure-ratio estimate of sigma and a.
    """
    cur, lag, logs = _lag_bundle(panel, REVENUE_COLUMNS + ("K", "R"))
    log_r = logs["R"][cur]
    current = {c: logs[c][cur] for c in REVENUE_COLUMNS}
    family = FAMILIES[tech_kind]
    predict = family.revenue_predictor(current, which_v)
    Z, fit = _instruments(family, logs, cur, lag, instruments)

    def residual(pred):
        ratio = np.exp(log_r - pred)
        return ratio - 1.0, lambda D: -ratio * D

    return MomentSystem(
        mode="revenue",
        tech_kind=tech_kind,
        Z=Z,
        instrument_names=tuple(instruments),
        _predict=predict,
        _residual=residual,
        chart=_share_chart(family, fit, normalised=True),
        which_v=which_v,
    )


# ---------------------------------------------------------------------------
# GMM minimization
# ---------------------------------------------------------------------------


@dataclass
class EstimateResult:
    """Point estimates plus the minimum the search reached, as a one-entry list.

    Every value is stored JSON-ready (lists, dicts, Python floats), so that
    dataclasses.asdict of a result, less its None fields, is the estimate
    artifact.
    """

    mode: str
    tech_kind: str
    param_names: list
    estimates: dict
    objective: float
    weighting: str
    moment_cov: list
    minima: list
    g_coefficients: Optional[list]  # quantity systems only
    first_stage: Optional[dict]  # quantity systems only: the first stage's degree and r_squared
    diagnostics: dict
    identified: Optional[dict] = None  # the free chart coordinates, on charts with a normalisation (revenue) only


# A coordinate this close to a bound (as a fraction of the box width) is
# reported in at_bound.
_AT_BOUND_TOL = 1e-10

# _lm_search's damping at the start, and past which it gives up; its step limit; the predicted decrease, relative to
# J, below which it measures J's rounding noise; and the multiple of that noise within which the test holds.
_DAMPING = 1e-1
_MAX_DAMPING = 1e10
_MAX_STEPS = 200
_NOISE_FROM = 1e-8
_NOISE_MULTIPLE = 10.0
_FIRST_ORDER = "the Gauss-Newton predicted decrease is within the rounding noise of J"


def _two_step_weight(ms: MomentSystem, x) -> np.ndarray:
    """Inverse of the moment covariance at the chart point x, L^-T L^-1 from its Cholesky factor L.  With full-rank
    instruments on at least as many lag rows, it fails only when the residual-weighted instruments lose rank."""
    try:
        L = np.linalg.cholesky(ms.moment_covariance(x))
    except np.linalg.LinAlgError as exc:
        raise EstimationError(
            "two-step weighting: the moment covariance at the stage-one estimate is not positive "
            f"definite (n_obs = {ms.n_obs}, n_moments = {ms.n_moments}): {exc}"
        ) from exc
    L_inv = np.linalg.solve(L, np.eye(ms.n_moments))
    return L_inv.T.dot(L_inv)


def _lm_search(ms: MomentSystem, x0, weight, free, lo, hi):
    """Box-constrained Levenberg-Marquardt on J = n m'Wm over the coordinates free (indices into x, bounds lo and
    hi), the others held at x0 (Nocedal and Wright, 2006, ch. 10).  Returns the x it stopped at and its record: steps
    tried, moment evaluations, the stopping rule and the first-order test at x.

    Every point tried takes one _linearize and reads its moments alone.  At each point the search reaches, the start
    and each step that lowers J, it forms the moment Jacobian G once, and with it the gradient g = 2n G'u and
    H = 2n G'WG over the free coordinates.  They set the step (H + damping diag H) d = -g, clipped to the box, and a
    coordinate on a bound is held where g points out of the box.  A step that lowers J is taken (damping / 10), and
    one that does not raises the damping tenfold.  The test holds when the predicted decrease g'H^+g / 2 is within
    _NOISE_MULTIPLE times J's rounding noise: the largest change of J, less its first-order part, when the free
    coordinates are scaled by 1 + 1e-14 t, t = -2, -1, 1, 2.  That takes four evaluations, where the predicted
    decrease falls below _NOISE_FROM J or a step fails (an exactly identified J predicts a decrease of J itself), and
    again there once J halves."""
    x, evals = np.array(x0, float), 0

    def linearize(y):
        nonlocal evals
        evals += 1
        return ms._linearize(y)

    def gauss_newton(u, jacobian):
        G = jacobian()[:, free]
        return 2.0 * ms.n_obs * u.dot(G), 2.0 * ms.n_obs * G.T.dot(G if weight is None else weight.dot(G))

    m, jacobian = linearize(x)
    J, u = ms._quadratic_form(m, weight)
    g, H = gauss_newton(u, jacobian)
    damping, noise, noise_at, steps, stalled = _DAMPING, None, np.inf, 0, False

    def rounding_noise():
        ys = np.repeat(x[None], 4, axis=0)
        ys[:, free] *= 1.0 + 1e-14 * np.array([[-2.0], [-1.0], [1.0], [2.0]])
        return float(max(abs(ms._quadratic_form(linearize(y)[0], weight)[0] - J - g.dot(y[free] - x[free])) for y in ys))

    while True:
        move = ~(((x[free] <= lo) & (g > 0.0)) | ((x[free] >= hi) & (g < 0.0)))
        H_m, g_m = H[np.ix_(move, move)], g[move]
        predicted = 0.5 * float(g_m.dot(np.linalg.lstsq(H_m, g_m, rcond=None)[0]))
        if (stalled or predicted <= _NOISE_FROM * J) and 2.0 * J < noise_at:
            noise, noise_at = rounding_noise(), J
        done = noise is not None and predicted <= _NOISE_MULTIPLE * noise
        if done or steps == _MAX_STEPS or damping > _MAX_DAMPING:
            message = _FIRST_ORDER if done else f"{steps} steps taken" if steps == _MAX_STEPS else "no damped step lowers J"
            break
        steps += 1
        scale = np.maximum(H_m.diagonal(), np.finfo(float).eps * H_m.diagonal().max())
        y = x.copy()
        y[free[move]] = np.clip(x[free][move] + np.linalg.solve(H_m + damping * np.diag(scale), -g_m), lo[move], hi[move])
        m_y, jacobian_y = linearize(y)
        J_y, u_y = ms._quadratic_form(m_y, weight)
        if J_y < J:
            x, J, damping, stalled = y, J_y, damping / 10.0, False
            g, H = gauss_newton(u_y, jacobian_y)
        else:
            damping, stalled = 10.0 * damping, True
    noise = rounding_noise() if noise is None else noise
    return x, {"objective": J, "n_iter": steps, "n_evals": evals, "message": message, "predicted_decrease": predicted,
               "rounding_noise": noise}


def gmm_minimize(ms: MomentSystem, weighting: str = "two-step") -> EstimateResult:
    """Minimization of the GMM quadratic form from the start of ms.chart.

    Every search is _lm_search over the free coordinates of ms.chart, those it does not normalise, the others
    held.  The chart's x0 is the start, and its source is diagnostics.start, 'expenditure-ratio' or 'box-centre'.
    Stage one is one search from x0 with the identity weight; weighting 'identity' stops there.  'two-step'
    reweights by the inverse of the moment covariance at the stage-one minimum (_two_step_weight) and
    re-minimizes once from it.  A system with fewer moments than free coordinates is not identified, and raises
    ValueError before any search.  Minima and estimates report theta, to_theta of the point reached.  A fit on a
    chart with a normalisation adds identified, the free coordinates at the minimum, and
    diagnostics.normalisation; df is n_moments less the number of free coordinates.  A fit on a quantity system
    adds g_coefficients and first_stage, the degree and r_squared of the system's first stage.

    minima lists the one minimum reached: at_bound, the names of the moved coordinates within _AT_BOUND_TOL of the
    box width of a bound; the last search's message, predicted_decrease and rounding_noise; and n_iter and n_evals
    summed over the fit's searches.  converged holds when the last search stopped on its first-order test and
    at_bound is empty: on a bound the search holds the coordinates the gradient pushes out of the box, and the test
    can then hold at a box corner far above the best J.
    """
    if weighting not in ("identity", "two-step"):
        raise ValueError("weighting must be 'identity' or 'two-step'")
    chart = ms.chart
    lo, hi = (np.array(b) for b in zip(*chart.bounds))
    free = chart.free
    if ms.n_moments < len(free):
        raise ValueError(f"{ms.n_moments} moments cannot identify the {len(free)} free coordinates {', '.join(free)}")
    i = np.array([chart.names.index(n) for n in free], dtype=int)
    runs = [_lm_search(ms, chart.x0, None, i, lo[i], hi[i])]
    if weighting == "two-step":
        runs.append(_lm_search(ms, runs[0][0], _two_step_weight(ms, runs[0][0]), i, lo[i], hi[i]))
    x, last = runs[-1]
    edge = _AT_BOUND_TOL * (hi - lo)
    on_bound = (x - lo <= edge) | (hi - x <= edge)
    at_bound = [n for n, b in zip(chart.names, on_bound) if b and n in free]
    theta_hat = to_theta(x)
    minimum = {
        "theta": [float(v) for v in theta_hat],
        "objective": last["objective"],
        "converged": last["message"] == _FIRST_ORDER and not at_bound,
        "at_bound": at_bound,
        "n_iter": sum(r["n_iter"] for _, r in runs),
        "n_evals": sum(r["n_evals"] for _, r in runs),
        **{k: last[k] for k in ("message", "predicted_decrease", "rounding_noise")},
    }
    if not minimum["converged"]:
        logger.warning("the search did not report clean convergence; returning its last iterate")
    diagnostics = {
        "n_obs": int(ms.n_obs),
        "n_moments": int(ms.n_moments),
        "df": int(ms.n_moments - len(free)),
        "start": chart.source,
        "instruments": list(ms.instrument_names),
    }
    if chart.normalisation:
        diagnostics["normalisation"] = chart.normalisation
    g_coefficients = first_stage = None
    if ms.g_degree is not None:
        diagnostics["g_degree"] = int(ms.g_degree)
        g_coefficients = ms.g_coefficients(x).tolist()
    if ms.first_stage is not None:
        first_stage = {"degree": int(ms.first_stage.degree), "r_squared": float(ms.first_stage.r_squared)}
    estimates = {n: float(v) for n, v in zip(ms.param_names, theta_hat)}
    return EstimateResult(
        mode=ms.mode,
        tech_kind=ms.tech_kind,
        param_names=list(ms.param_names),
        estimates=estimates,
        objective=float(minimum["objective"]),
        weighting=weighting,
        moment_cov=ms.moment_covariance(x).tolist(),
        minima=[minimum],
        g_coefficients=g_coefficients,
        first_stage=first_stage,
        diagnostics=diagnostics,
        identified={n: float(v) for n, v in zip(chart.names, x) if n in free} if chart.normalisation else None,
    )
