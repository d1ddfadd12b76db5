"""Executable identification diagnostics for revenue and quantity systems.

Three complementary views of the same question, which parameters the data can
pin down:

  * observational equivalence: do two parameter vectors predict identical
    revenues on every observation?  (global, prediction-level)
  * profile scans: is the GMM objective constant along a coordinate of the
    share chart that the fits search, x = (sigma, share_ratio,
    beta_L+beta_M, v) or (beta_K, share_ratio, beta_L+beta_M), over that
    coordinate's box?  (global, objective-level)
  * Jacobian rank: how many directions does the moment system resolve
    locally, and which axes of the same chart span the null space of its
    exact Jacobian?  (local, first-order)

Both views map theta into the chart once (estimate.to_chart) and evaluate the
moment system there.  Along the coordinates that the family's revenue
predictor never reads (see revprod.technology), revenue profiles are exactly
flat and their Jacobian columns exact zeros: the verdicts certify structure
rather than numerical accident.  The verdicts name theta's coordinates:
sigma, v and beta_K read their own profile; beta_L and beta_M are not
identified when the share_ratio profile is flat, identified up to their ratio
when the beta_L+beta_M profile is flat, and identified otherwise.
A recovery check on the productivity series rounds out the picture: revenue
residuals carry no signal about Hicks-neutral productivity, quantity
residuals recover it almost perfectly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .estimate import REVENUE_COLUMNS, MomentSystem, to_chart, to_theta
from .panel_io import Panel
from .technology import FAMILIES, ParameterError, Technology

__all__ = [
    "ProfileCurve",
    "RankDiagnostics",
    "OmegaRecovery",
    "IdentificationReport",
    "observational_equivalence",
    "profile_scan",
    "beta_scale_scan",
    "jacobian_rank",
    "omega_recovery_attempt",
    "build_identification_report",
]

FLAT_TOL = 1e-10
RANK_RTOL = 1e-8
OMEGA_MIN_CORR = 0.95


def _theta(tech: Technology) -> np.ndarray:
    return np.array([getattr(tech, n) for n in tech.bounds])


def _revenue_columns(panel: Panel) -> dict:
    return {c: np.log(panel.col(c)) for c in REVENUE_COLUMNS}


def observational_equivalence(tech_a: Technology, tech_b: Technology, panel: Panel) -> float:
    """Largest log-revenue prediction gap between two technologies on a panel.

    The gap is reported as measured; no threshold turns it into a verdict.
    A pair differing only in a coordinate the revenue predictor never reads
    gives exactly 0.0, because both predictions are the same float
    operations on the same columns.  The share columns cancel from the
    difference, so only the technologies matter.  Each technology is mapped
    into the chart once.
    """
    if tech_a.kind != tech_b.kind:
        raise ValueError(f"technology kinds differ: {tech_a.kind} vs {tech_b.kind}")
    if len(panel) == 0:
        return 0.0
    cols = _revenue_columns(panel)
    x_a, x_b = to_chart(_theta(tech_a)), to_chart(_theta(tech_b))
    gap = 0.0
    for predict in (tech_a.revenue_predictor(cols, v) for v in ("L", "M")):
        gap = max(gap, float(np.max(np.abs(predict(x_a)[0] - predict(x_b)[0]))))
    return gap


@dataclass
class ProfileCurve:
    """GMM objective along one coordinate of the share chart, everything else held fixed."""

    param: str
    grid: list
    objective: list
    flatness: float


def _flatness(values: np.ndarray) -> float:
    values = np.asarray(values, float)
    return float((values.max() - values.min()) / max(1.0, values.min()))


def profile_scan(
    ms: MomentSystem, param_name: str, grid: Sequence[float], other_params: Sequence[float]
) -> ProfileCurve:
    """Objective values along a grid for one coordinate of the share chart, the others held fixed.

    The chart is the system's own, ms.chart, normalised coordinates included: x = (sigma, share_ratio,
    beta_L+beta_M, v) (CES) or (beta_K, share_ratio, beta_L+beta_M) (Cobb-Douglas), share_ratio being
    beta_L/(beta_L+beta_M).  other_params is theta, in ms.param_names' order, which to_chart maps into the chart
    once; each grid point replaces param_name's coordinate, and the objective is taken at that chart point.
    The whole grid is checked before any evaluation: it must not be empty, and at each point theta must make a
    technology of the class FAMILIES[ms.tech_kind], whose ParameterError names the bound the first point outside
    the model breaks.
    """
    chart = ms.chart
    if param_name not in chart.names:
        raise ValueError(f"unknown parameter {param_name!r}; the chart coordinates are {list(chart.names)}")
    if len(grid) == 0:
        raise ValueError(f"{param_name} grid is empty; a profile needs at least one point")
    family = FAMILIES[ms.tech_kind]
    x = to_chart(ms._point(other_params))
    i = chart.names.index(param_name)
    for g in grid:
        x[i] = g
        try:
            family(**dict(zip(ms.param_names, to_theta(x))))
        except ParameterError as exc:
            raise ValueError(f"{param_name} grid contains {param_name} = {float(g)!r}, outside the model ({exc})") from exc
    vals = []
    for g in grid:
        x[i] = g
        vals.append(ms.objective(x))
    return ProfileCurve(param=param_name, grid=[float(g) for g in grid], objective=vals, flatness=_flatness(vals))


def beta_scale_scan(ms: MomentSystem, center: Sequence[float]) -> ProfileCurve:
    """profile_scan along beta_L+beta_M, on 25 points from 0.7 to 1.3 times its value at center.

    This is the direction a ratio-only identified flexible block leaves
    unresolved; for revenue systems it is exactly flat, since the revenue
    predictor never reads it, for quantity systems it is not.
    """
    scale = to_chart(ms._point(center))[ms.chart.names.index("beta_L+beta_M")]
    return profile_scan(ms, "beta_L+beta_M", np.linspace(0.7, 1.3, 25) * scale, center)


@dataclass
class RankDiagnostics:
    """SVD of the exact moment Jacobian in the share chart, columns in ms.chart.names' order, at a parameter point."""

    singular_values: list
    rank: int
    deficiency: int
    null_directions: list  # unit vectors in chart coordinates, in ms.chart.names' order
    null_alignment: dict  # chart axis -> norm of its projection onto the null space: 1 on it, 0 orthogonal to it


def jacobian_rank(ms: MomentSystem, theta: Sequence[float]) -> RankDiagnostics:
    """SVD of the exact Jacobian of the stacked moments in the share chart, ms.jacobian at theta's chart point.

    The columns follow ms.chart.names, so each coordinate the residual never reads is one axis, whose column
    is an exact zero.  Numerical rank counts the singular values above RANK_RTOL times the largest;
    each null direction is signed so that its largest-magnitude component is positive.  null_alignment
    attributes the null space to the chart's axes by the norm of each axis's projection onto it, all zeros
    when the Jacobian has full rank.
    """
    _, s, Vt = np.linalg.svd(ms.jacobian(to_chart(ms._point(theta))))
    cutoff = RANK_RTOL * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    null = Vt[rank:]
    # the SVD leaves each direction's sign arbitrary, so rounding can flip it: make the
    # largest-magnitude component positive
    null = null * np.sign(null[np.arange(len(null)), np.argmax(np.abs(null), axis=1)])[:, None]
    return RankDiagnostics(
        # + 0.0 turns the -0.0 that exact zeros can come out as into 0.0
        singular_values=[float(v) + 0.0 for v in s],
        rank=rank,
        deficiency=len(ms.chart.names) - rank,
        null_directions=[[float(v) + 0.0 for v in d] for d in null],
        null_alignment={n: float(v) for n, v in zip(ms.chart.names, np.linalg.norm(null, axis=0))},
    )


@dataclass
class OmegaRecovery:
    """Correlation between a residual-based productivity recovery and the truth.

    One rule in both modes: the residual carries the productivity signal when it recovers it, at a correlation of at
    least OMEGA_MIN_CORR.  bound, 3/sqrt(n_obs), is the size of correlation a residual with no signal stays under at
    three standard errors; it is reported, and decides no verdict, since a chance correlation above it is no recovery.
    """

    mode: str
    correlation: Optional[float]
    bound: float
    n_obs: int
    skipped: bool = False

    @property
    def carries_signal(self) -> Optional[bool]:
        return None if self.skipped else self.correlation >= OMEGA_MIN_CORR


def omega_recovery_attempt(panel: Panel, tech: Technology, ms: MomentSystem) -> OmegaRecovery:
    """Try to recover simulated productivity from the residuals of the moment system ms, built on panel.

    A revenue system gives log R minus the parametric revenue prediction on its which_v equation (which should
    carry only the ex-post shock, less the constant log E[exp eps], which no correlation sees); a quantity system
    gives the proxy-recovered series, its first stage's fitted values minus predicted log output.  Panels without
    a true productivity column yield a skipped report.
    """
    mode = ms.mode
    n = len(panel)
    bound = 3.0 / math.sqrt(max(n, 1))
    if not panel.has("omega"):
        return OmegaRecovery(mode=mode, correlation=None, bound=bound, n_obs=n, skipped=True)
    omega = panel.col("omega")
    if mode == "revenue":
        predict = tech.revenue_predictor(_revenue_columns(panel), ms.which_v)
        resid = np.log(panel.col("R")) - predict(to_chart(_theta(tech)))[0]
    else:
        q_pred = np.log(tech.output(panel.col("K"), panel.col("L"), panel.col("M")))
        resid = ms.first_stage.fitted - q_pred
    if np.std(resid) == 0.0 or np.std(omega) == 0.0:
        corr = 0.0
    else:
        corr = float(np.corrcoef(resid, omega)[0, 1])
    return OmegaRecovery(mode=mode, correlation=corr, bound=bound, n_obs=n)


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


@dataclass
class IdentificationReport:
    tech_kind: str
    mode: str
    center: dict
    equivalence_gap: float
    equivalence_free_param: str
    contrast_gap: float
    contrast_param: str
    profiles: dict
    singular_values: list
    null_directions: list
    rank: dict
    omega_recovery: dict
    verdicts: dict
    thresholds: dict


def _free_param_variant(tech: Technology):
    """tech with + 0.3 on its one field that revenue never reads, the one its class's constant_returns sets."""
    (name,) = tech.constant_returns(1.0)
    return name, replace(tech, **{name: getattr(tech, name) + 0.3})


def _contrast_variant(tech: Technology):
    if "sigma" not in tech.bounds:
        # shifting one flexible exponent moves the identified ratio
        return "beta_L", replace(tech, beta_L=tech.beta_L * 1.2)
    # step up by 0.1 unless that leaves the model (sigma < 1, sigma != 0)
    up = tech.sigma + 0.1
    return "sigma", replace(tech, sigma=up if tech.sigma < 0.8 and up != 0.0 else tech.sigma - 0.1)


def build_identification_report(panel: Panel, tech: Technology, ms: MomentSystem) -> IdentificationReport:
    """End-to-end identification report for one panel and the moment system ms built on it.

    Each coordinate of the share chart is profiled over its box on 25 points, the others held at tech
    mapped into the chart; the verdicts are read off those profiles as the module docstring says.  The
    productivity recovery reads the same system (omega_recovery_attempt).
    """
    if tech.kind != ms.tech_kind:
        raise ValueError(f"technology kind {tech.kind} does not match the {ms.tech_kind} moment system")
    center = {n: getattr(tech, n) for n in ms.param_names}
    theta0 = _theta(tech)

    free_param, free_alt = _free_param_variant(tech)
    gap_free = observational_equivalence(tech, free_alt, panel)
    contrast_param, contrast_alt = _contrast_variant(tech)
    gap_contrast = observational_equivalence(tech, contrast_alt, panel)

    profiles = {n: profile_scan(ms, n, np.linspace(*box, 25), theta0) for n, box in zip(ms.chart.names, ms.chart.bounds)}

    rank = asdict(jacobian_rank(ms, theta0))
    omega_rec = omega_recovery_attempt(panel, tech, ms)

    flat = {n: p.flatness <= FLAT_TOL for n, p in profiles.items()}
    verdicts = {}
    for name in ms.param_names:
        axis = "share_ratio" if name in ("beta_L", "beta_M") else name
        if flat[axis]:
            verdicts[name] = "not identified"
        elif axis == "share_ratio" and flat["beta_L+beta_M"]:
            verdicts[name] = "identified-ratio-only"
        else:
            verdicts[name] = "identified"
    if omega_rec.skipped:
        verdicts["omega"] = "unknown (no omega column)"
    else:
        verdicts["omega"] = "identified" if omega_rec.carries_signal else "not identified"

    return IdentificationReport(
        tech_kind=tech.kind,
        mode=ms.mode,
        center=center,
        equivalence_gap=gap_free,
        equivalence_free_param=free_param,
        contrast_gap=gap_contrast,
        contrast_param=contrast_param,
        profiles={k: asdict(v) for k, v in profiles.items()},
        singular_values=rank.pop("singular_values"),
        null_directions=rank.pop("null_directions"),
        rank=rank,
        omega_recovery=asdict(omega_rec),
        verdicts=verdicts,
        thresholds={"flat_tol": FLAT_TOL, "rank_rtol": RANK_RTOL, "omega_min_corr": OMEGA_MIN_CORR},
    )
