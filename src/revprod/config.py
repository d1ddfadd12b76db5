"""Plain-text run configuration: INI-style sections, no binary formats.

Each section is read into one dataclass (README, "Config", has the table):
its keys are the dataclass's init fields, lowercased, and a key left out
takes the default the dataclass declares.  [technology] accepts `kind` and
only the fields of the class technology.FAMILIES maps that kind to.  Every
command reads the same file; sections it does not need are ignored at run
time but still validated, so a typo or a misplaced key fails loudly at parse
time rather than silently falling back to a default.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import logging
import math
from dataclasses import dataclass
from pathlib import Path

from .estimate import DEFAULT_INSTRUMENTS, check_instruments
from .simulate import CapitalPolicy, PriceProcess, ProductivityProcess, SimConfig, check_markup
from .technology import FAMILIES, DemandConfig, ParameterError, ShockConfig

__all__ = ["ConfigError", "EstimationSettings", "RunConfig", "parse_config"]

logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Raised when a configuration file does not decode, is malformed, or is inconsistent."""


@dataclass(frozen=True)
class EstimationSettings:
    first_stage_degree: int = 3
    g_degree: int = 1
    weighting: str = "two-step"
    which_v: str = "M"
    instruments: tuple = DEFAULT_INSTRUMENTS

    def __post_init__(self):
        for name in ("first_stage_degree", "g_degree"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.weighting not in ("identity", "two-step"):
            raise ParameterError("weighting must be identity or two-step")
        if self.which_v not in ("L", "M"):
            raise ParameterError("which_v must be L or M")
        check_instruments(self.instruments)


@dataclass
class RunConfig:
    sim: SimConfig
    estimation: EstimationSettings
    out_dir: str
    config_sha256: str


# [estimation] keys of the multistart that every fit's one search replaced: accepted, so that older configs
# still parse, and ignored
_RETIRED_ESTIMATION_KEYS = ("restarts", "screen", "restart_seed")
_SECTIONS = ("run", "technology", "demand", "productivity", "capital", "prices", "shocks", "panel", "estimation", "diagnostics")


def _section(parser, name, keys):
    """Section [name], once it is known to hold no key outside keys."""
    sec = parser[name] if parser.has_section(name) else parser["DEFAULT"]
    unknown = set(sec) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in [{name}]: {sorted(unknown)}")
    return sec


def _value(field, text):
    """A key's text as the type of its field's default."""
    if field.name == "instruments":
        return tuple(text.split()) or field.default
    if field.name == "which_v":
        return text.strip().upper()
    value = type(field.default)(text)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"must be finite, got {text.strip()}")
    return value


def _load(parser, name, cls, keys=(), **given):
    """cls built from section [name].

    The section's keys are cls's init fields that are not given, lowercased,
    plus the extra keys, which the caller reads.
    """
    fields = {f.name.lower(): f for f in dataclasses.fields(cls) if f.init and f.name not in given}
    sec = _section(parser, name, [*fields, *keys])
    for key, field in fields.items():
        if key in sec:
            try:
                given[field.name] = _value(field, sec[key])
            except ValueError as exc:
                raise ConfigError(f"[{name}] {key}: {exc}") from exc
    try:
        return cls(**given)
    except ParameterError as exc:
        raise ConfigError(f"[{name}] {exc}") from exc


def _run_config(parser, require_seed):
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section [{name}]")
    _section(parser, "diagnostics", ())

    run = _section(parser, "run", ("seed", "out_dir"))
    try:
        seed = run.getint("seed")
    except ValueError as exc:
        raise ConfigError(f"[run] seed: {exc}") from exc
    if seed is None:
        if require_seed:
            raise ConfigError("[run] seed is required for simulation")
        seed = 0
    if seed < 0:
        raise ConfigError(f"[run] seed must be >= 0, got {seed}")

    if not parser.has_section("technology"):
        raise ConfigError("config must have a [technology] section")
    kind = parser["technology"].get("kind", "").strip().upper()
    if kind not in FAMILIES:
        raise ConfigError(f"[technology] kind must be {' or '.join(FAMILIES)}, got {kind!r}")

    tech = _load(parser, "technology", FAMILIES[kind], keys=("kind",))
    demand = _load(parser, "demand", DemandConfig)
    try:
        check_markup(tech, demand)
    except ParameterError as exc:
        # SimConfig makes this check too, but no [panel] key can fix it
        scale = tech.variable_scale_fields.lower()
        raise ConfigError(f"[technology] {scale} and [demand] eta: {exc}, or set [demand] eta_dispersion > 0") from exc
    sim = _load(
        parser,
        "panel",
        SimConfig,
        tech=tech,
        demand=demand,
        prod=_load(parser, "productivity", ProductivityProcess),
        capital=_load(parser, "capital", CapitalPolicy),
        prices=_load(parser, "prices", PriceProcess),
        shocks=_load(parser, "shocks", ShockConfig),
        seed=seed,
    )
    est = _load(parser, "estimation", EstimationSettings, keys=_RETIRED_ESTIMATION_KEYS)
    retired = [key for key in _RETIRED_ESTIMATION_KEYS if parser.has_option("estimation", key)]
    if retired:
        logger.info("[estimation] %s ignored: every fit runs one search from its start", ", ".join(retired))
    return sim, est, run.get("out_dir", ".")


def parse_config(path, require_seed: bool = False) -> RunConfig:
    """The run configuration in the file at path.

    The file is UTF-8, a leading byte-order mark dropped, with LF or CRLF line ends; config_sha256 is the SHA-256 of
    its bytes.  A file that cannot be read raises OSError; one that does not decode or parse raises ConfigError.
    """
    content = Path(path).read_bytes()
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(content.decode("utf-8-sig"))
        sim, est, out_dir = _run_config(parser, require_seed)
    except (UnicodeDecodeError, configparser.Error, ConfigError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return RunConfig(sim=sim, estimation=est, out_dir=out_dir, config_sha256=hashlib.sha256(content).hexdigest())
