"""Command-line front end: simulate, estimate, diagnose, verify.

Every command is deterministic given (config, seed, input files): output
JSON is written with sorted keys, floats use shortest round-trip formatting,
and no timestamps are recorded.  Exit codes: 0 success, 2 validation failure,
3 solver or estimation failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, parse_config
from .costmin import SolverError
from .diagnostics import build_identification_report, profile_scan
from .estimate import (
    EstimationError,
    build_quantity_moments,
    build_revenue_moments,
    first_stage_project,
    gmm_minimize,
)
from .panel_io import read_panel_csv, write_panel_csv
from .simulate import SimulationError, simulate_panel, verify_panel

# named explicitly so that `python -m revprod.cli` logs under "revprod" too
logger = logging.getLogger("revprod.cli")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def _json_artifact(payload: dict, schema_name: str) -> str:
    """payload's JSON text, once it meets its shipped schema; else a ValueError (exit code 2) naming the JSON path."""
    from .validator import validate  # loaded only by a command that has an artifact to write

    validate(payload, schema_name)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    logger.info("wrote %s", path)


def _provenance(command: str, cfg: RunConfig, **fields) -> dict:
    """Command, config hash and version, plus the fields the command has to record."""
    return {"command": command, "config_sha256": cfg.config_sha256, "version": __version__, **fields}


def cmd_simulate(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    cfg = parse_config(args.config, require_seed=args.seed is None)
    if args.seed is not None:
        cfg.sim = replace(cfg.sim, seed=args.seed)
    out_dir = Path(args.out or cfg.out_dir)
    panel = simulate_panel(cfg.sim)
    panel_path = out_dir / "panel.csv"
    prov = _provenance("simulate", cfg, seed=int(cfg.sim.seed), outputs=[panel_path.name], n_rows=len(panel))
    prov_text = _json_artifact(prov, "provenance.schema.json")
    out_dir.mkdir(parents=True, exist_ok=True)
    write_panel_csv(panel, panel_path)
    logger.info("wrote %s (%d rows)", panel_path, len(panel))
    _write(out_dir / "provenance.json", prov_text)
    return EXIT_OK


def _moment_system(cfg: RunConfig, panel, mode: str):
    """The configured moment system in mode."""
    est = cfg.estimation
    kind = cfg.sim.tech.kind
    if mode == "revenue":
        return build_revenue_moments(kind, panel, which_v=est.which_v, instruments=est.instruments)
    fs = functools.partial(first_stage_project, panel, est.first_stage_degree)  # run once the instruments pass
    return build_quantity_moments(kind, fs, panel, g_degree=est.g_degree, instruments=est.instruments)


def cmd_estimate(args) -> int:
    cfg = parse_config(args.config)
    panel = read_panel_csv(args.panel)
    mode = args.mode
    result = gmm_minimize(_moment_system(cfg, panel, mode), weighting=cfg.estimation.weighting)
    payload = {k: v for k, v in asdict(result).items() if v is not None}
    payload["provenance"] = _provenance("estimate", cfg, panel=Path(args.panel).name, mode=mode)
    _write(Path(args.out or cfg.out_dir) / f"estimate_{mode}.json", _json_artifact(payload, "estimate_result.schema.json"))
    return EXIT_OK


def _parse_grid(spec: str):
    try:
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ConfigError(f"--grid expects start:stop:count, got {spec!r}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"--grid bounds must be finite, got {spec!r}")
    if count < 1:
        raise ConfigError(f"--grid count must be >= 1, got {spec!r}")
    return np.linspace(start, stop, count)


def cmd_diagnose(args) -> int:
    if args.grid and not args.scan:
        raise ConfigError("--grid needs --scan to name the parameter it profiles")
    cfg = parse_config(args.config)
    panel = read_panel_csv(args.panel)
    ms = _moment_system(cfg, panel, "revenue")
    curve = None
    if args.scan:
        # checked before the report, so that a bad scan writes nothing
        if args.scan not in ms.chart.names:
            raise ValueError(f"--scan: unknown parameter {args.scan!r}; the chart coordinates are {list(ms.chart.names)}")
        if args.grid:
            center = [getattr(cfg.sim.tech, n) for n in ms.param_names]
            curve = asdict(profile_scan(ms, args.scan, _parse_grid(args.grid), center))
    out_dir = Path(args.out or cfg.out_dir)

    report = build_identification_report(panel, cfg.sim.tech, ms)
    payload = dict(asdict(report), provenance=_provenance("diagnose", cfg, panel=Path(args.panel).name))
    _write(out_dir / "identification_report.json", _json_artifact(payload, "identification_report.schema.json"))

    if args.scan:
        if curve is None:
            # the report's own profile, over the coordinate's chart box
            curve = report.profiles[args.scan]
        rows = "".join(f"{g!r},{v!r}\n" for g, v in zip(curve["grid"], curve["objective"]))
        _write(out_dir / f"profile_{args.scan}.csv", f"{args.scan},objective\n{rows}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = parse_config(args.config)
    panel = read_panel_csv(args.panel)
    report = verify_panel(panel, cfg.sim)
    payload = dict(asdict(report), provenance=_provenance("verify", cfg, panel=Path(args.panel).name))
    _write(Path(args.out or cfg.out_dir) / "verify_report.json", _json_artifact(payload, "verify_report.schema.json"))
    if not report.passed:
        logger.error("panel failed verification: %s", report.violations)
        return EXIT_VALIDATION
    return EXIT_OK


@functools.cache  # one parser per process: parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revprod",
        description="Simulate firm panels, estimate production functions, and diagnose what revenue data can identify.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--log-level",
        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
        default="INFO",
        help="level of the package's log messages (default INFO)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True)
    common.add_argument("--out", default=None, help="output directory (default: the config's [run] out_dir)")
    reads = argparse.ArgumentParser(add_help=False)
    reads.add_argument("panel")

    sim = sub.add_parser("simulate", parents=[common], help="generate a panel from a config")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    sim.set_defaults(func=cmd_simulate)

    estp = sub.add_parser("estimate", parents=[reads, common], help="fit a panel by GMM, on the quantity or the revenue route")
    routes = "quantity: proxy-variable GMM, first stage on log Q; revenue: GMM on the ex-post revenue shock, no proxy or first stage"
    estp.add_argument("--mode", choices=["quantity", "revenue"], default="quantity", help=routes)
    estp.set_defaults(func=cmd_estimate)

    diag = sub.add_parser("diagnose", parents=[reads, common], help="identification diagnostics on a panel")
    diag.add_argument("--scan", default=None, help="chart coordinate to profile (writes a CSV)")
    diag.add_argument("--grid", default=None, help="profile grid start:stop:count; give a negative start as --grid=-0.9:-0.1:3")
    diag.set_defaults(func=cmd_diagnose)

    ver = sub.add_parser("verify", parents=[reads, common], help="check model identities on a panel")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    # set on every call: basicConfig only configures the first one in a process
    logging.getLogger("revprod").setLevel(args.log_level)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError, PanelFormatError, ParameterError and DomainError among them
        logger.error("%s", exc)
        return EXIT_VALIDATION
    except (SolverError, SimulationError, EstimationError) as exc:
        logger.error("%s", exc)
        return EXIT_SOLVER
    except OSError as exc:
        logger.error("%s", exc)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
