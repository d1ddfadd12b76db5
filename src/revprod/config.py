"""Plain-text run configuration: INI-style sections, no binary formats.

Every command reads the same file; sections it does not need are ignored at
run time but still validated for spelling, so a typo fails loudly at parse
time rather than silently falling back to a default.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass
from typing import Optional

from .simulate import CapitalPolicy, PriceProcess, ProductivityProcess, SimConfig
from .technology import CES, CobbDouglas, DemandConfig, ParameterError, ShockConfig, Technology

__all__ = ["ConfigError", "EstimationSettings", "RunConfig", "parse_config"]


class ConfigError(ValueError):
    """Raised when a configuration file is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class EstimationSettings:
    first_stage_degree: int = 3
    g_degree: int = 1
    weighting: str = "two-step"
    restarts: int = 20
    screen: int = 256
    restart_seed: int = 7
    which_v: str = "M"
    instruments: Optional[tuple] = None  # None: package default set


@dataclass
class RunConfig:
    sim: SimConfig
    estimation: EstimationSettings
    out_dir: str
    config_sha256: str
    path: str


_KNOWN_KEYS = {
    "run": {"seed", "out_dir"},
    "technology": {"kind", "beta_k", "beta_l", "beta_m", "sigma", "v"},
    "demand": {"eta", "scale", "eta_dispersion"},
    "productivity": {"rho", "c0", "sigma_xi"},
    "capital": {"kappa0", "kappa_k", "kappa_w", "sigma_k"},
    "prices": {
        "mean_log_pl",
        "mean_log_pm",
        "mean_log_pk",
        "rho_pl",
        "rho_pm",
        "rho_pk",
        "sigma_pl",
        "sigma_pm",
        "sigma_pk",
        "dispersion_pl",
        "dispersion_pm",
        "dispersion_pk",
    },
    "shocks": {"sigma_eps"},
    "panel": {"n_firms", "n_periods", "burn_in", "input_solver"},
    "estimation": {
        "first_stage_degree",
        "g_degree",
        "weighting",
        "restarts",
        "screen",
        "restart_seed",
        "which_v",
        "instruments",
    },
    "diagnostics": set(),  # diagnose has no tunables; the section stays so old keys fail as unknown keys
}


def _getfloat(sec, key, default):
    try:
        return sec.getfloat(key, default)
    except ValueError as exc:
        raise ConfigError(f"[{sec.name}] {key}: {exc}") from exc


def _getint(sec, key, default):
    try:
        return sec.getint(key, default)
    except ValueError as exc:
        raise ConfigError(f"[{sec.name}] {key}: {exc}") from exc


def _technology(parser) -> Technology:
    if not parser.has_section("technology"):
        raise ConfigError("config must have a [technology] section")
    sec = parser["technology"]
    kind = sec.get("kind", "").strip().upper()
    try:
        if kind == "CD":
            return CobbDouglas(
                beta_K=_getfloat(sec, "beta_k", 0.25),
                beta_L=_getfloat(sec, "beta_l", 0.30),
                beta_M=_getfloat(sec, "beta_m", 0.40),
            )
        if kind == "CES":
            return CES(
                beta_L=_getfloat(sec, "beta_l", 0.30),
                beta_M=_getfloat(sec, "beta_m", 0.40),
                sigma=_getfloat(sec, "sigma", 0.50),
                v=_getfloat(sec, "v", 0.90),
            )
    except ParameterError as exc:
        raise ConfigError(f"[technology] {exc}") from exc
    raise ConfigError(f"[technology] kind must be CD or CES, got {kind!r}")


def parse_config(path, require_seed: bool = False) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        unknown = set(parser[section]) - _KNOWN_KEYS[section]
        if unknown:
            raise ConfigError(f"{path}: unknown keys in [{section}]: {sorted(unknown)}")

    def section(name):
        return parser[name] if parser.has_section(name) else parser["DEFAULT"]

    run = section("run")
    seed = _getint(run, "seed", None)
    if seed is not None and seed < 0:
        raise ConfigError(f"{path}: [run] seed must be >= 0, got {seed}")
    if seed is None:
        if require_seed:
            raise ConfigError(f"{path}: [run] seed is required for simulation")
        seed = 0
    out_dir = run.get("out_dir", ".")

    tech = _technology(parser)

    d = section("demand")
    demand = DemandConfig(
        eta=_getfloat(d, "eta", 4.0),
        scale=_getfloat(d, "scale", 2.0),
        eta_dispersion=_getfloat(d, "eta_dispersion", 0.0),
    )
    p = section("productivity")
    prod = ProductivityProcess(
        rho=_getfloat(p, "rho", 0.7), c0=_getfloat(p, "c0", 0.0), sigma_xi=_getfloat(p, "sigma_xi", 0.3)
    )
    c = section("capital")
    capital = CapitalPolicy(
        kappa0=_getfloat(c, "kappa0", 0.0),
        kappa_k=_getfloat(c, "kappa_k", 0.75),
        kappa_w=_getfloat(c, "kappa_w", 0.4),
        sigma_k=_getfloat(c, "sigma_k", 0.25),
    )
    pr = section("prices")
    prices = PriceProcess(
        mean_log_pL=_getfloat(pr, "mean_log_pl", 0.0),
        mean_log_pM=_getfloat(pr, "mean_log_pm", 0.0),
        mean_log_pK=_getfloat(pr, "mean_log_pk", 0.0),
        rho_pL=_getfloat(pr, "rho_pl", 0.85),
        rho_pM=_getfloat(pr, "rho_pm", 0.20),
        rho_pK=_getfloat(pr, "rho_pk", 0.50),
        sigma_pL=_getfloat(pr, "sigma_pl", 0.15),
        sigma_pM=_getfloat(pr, "sigma_pm", 0.35),
        sigma_pK=_getfloat(pr, "sigma_pk", 0.15),
        dispersion_pL=_getfloat(pr, "dispersion_pl", 0.25),
        dispersion_pM=_getfloat(pr, "dispersion_pm", 0.60),
        dispersion_pK=_getfloat(pr, "dispersion_pk", 0.10),
    )
    s = section("shocks")
    shocks = ShockConfig(sigma_eps=_getfloat(s, "sigma_eps", 0.1))
    pa = section("panel")
    try:
        sim = SimConfig(
            tech=tech,
            demand=demand,
            prod=prod,
            capital=capital,
            prices=prices,
            shocks=shocks,
            n_firms=_getint(pa, "n_firms", 500),
            n_periods=_getint(pa, "n_periods", 10),
            burn_in=_getint(pa, "burn_in", 50),
            seed=seed,
            input_solver=pa.get("input_solver", "closed_form"),
        )
    except ParameterError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    e = section("estimation")
    weighting = e.get("weighting", "two-step")
    if weighting not in ("identity", "two-step"):
        raise ConfigError(f"{path}: [estimation] weighting must be identity or two-step")
    which_v = e.get("which_v", "M").strip().upper()
    if which_v not in ("L", "M"):
        raise ConfigError(f"{path}: [estimation] which_v must be L or M")
    restart_seed = _getint(e, "restart_seed", 7)
    if restart_seed < 0:
        raise ConfigError(f"{path}: [estimation] restart_seed must be >= 0, got {restart_seed}")
    est = EstimationSettings(
        first_stage_degree=_getint(e, "first_stage_degree", 3),
        g_degree=_getint(e, "g_degree", 1),
        weighting=weighting,
        restarts=_getint(e, "restarts", 20),
        screen=_getint(e, "screen", 256),
        restart_seed=restart_seed,
        which_v=which_v,
        instruments=tuple(e.get("instruments", "").split()) or None,
    )
    return RunConfig(
        sim=sim,
        estimation=est,
        out_dir=out_dir,
        config_sha256=hashlib.sha256(text.encode()).hexdigest(),
        path=str(path),
    )
