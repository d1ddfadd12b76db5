"""The commands on configs/cd.ini and configs/ces.ini, as a user runs them.

Each fit certifies its own minimum, each report gives the paper's verdicts, and
neither the BLAS thread count nor the column cache changes an artifact's bytes.
"""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import revprod
from revprod.cli import EXIT_OK, EXIT_VALIDATION, main
from revprod.panel_io import read_panel_csv

from conftest import edited_config

ROOT = Path(__file__).resolve().parents[1]
FAMILIES = ("cd", "ces")
MODES = ("quantity", "revenue")
# the commands that read a panel, and what each writes
COMMANDS = {
    "verify_report.json": ["verify"],
    "identification_report.json": ["diagnose"],
    "estimate_quantity.json": ["estimate", "--mode", "quantity"],
    "estimate_revenue.json": ["estimate", "--mode", "revenue"],
}
FIRST_ORDER = "the Gauss-Newton predicted decrease is within the rounding noise of J"


def run(argv, panel, config, out):
    return main([argv[0], str(panel), *argv[1:], "--config", str(config), "--out", str(out)])


def load(path):
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    """Each shipped config's panel, beside the artifacts of every command that reads it."""
    dirs = {}
    for family in FAMILIES:
        out = dirs[family] = tmp_path_factory.mktemp(family)
        config = ROOT / "configs" / f"{family}.ini"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_OK
        for argv in COMMANDS.values():
            assert run(argv, out / "panel.csv", config, out) == EXIT_OK
    return dirs


@pytest.fixture(scope="module")
def fits(shipped, tmp_path_factory):
    """Every estimate on the shipped panels, and one identity-weighted CD revenue fit."""
    found = {(family, mode): load(shipped[family] / f"estimate_{mode}.json") for family in FAMILIES for mode in MODES}
    tmp_path = tmp_path_factory.mktemp("identity")
    identity = edited_config("configs/cd.ini", "weighting = two-step", "weighting = identity", tmp_path)
    assert run(COMMANDS["estimate_revenue.json"], shipped["cd"] / "panel.csv", identity, tmp_path) == EXIT_OK
    found["cd", "identity revenue"] = load(tmp_path / "estimate_revenue.json")
    assert found["cd", "identity revenue"]["weighting"] == "identity"
    return found


def test_every_fit_certifies_its_minimum(fits):
    # each fit reports the one minimum its search reached, and its own fields prove converged: the first-order
    # test stopped the search, within ten times J's rounding noise, and no coordinate is on a bound
    for key, fit in fits.items():
        (m,) = fit["minima"]
        assert m["converged"] == (m["message"] == FIRST_ORDER and m["at_bound"] == []), (key, m)
        if m["message"] == FIRST_ORDER:
            assert m["predicted_decrease"] <= 10 * m["rounding_noise"], (key, m)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mode", MODES)
def test_two_step_fit_converges_from_the_ratio_start(fits, family, mode):
    # the Cobb-Douglas quantity search evaluates closed forms whose rounding must not stop it short
    fit = fits[family, mode]
    (m,) = fit["minima"]
    assert fit["diagnostics"]["start"] == "expenditure-ratio"
    assert m["converged"] and m["at_bound"] == [], m


@pytest.mark.parametrize("family", FAMILIES)
def test_quantity_first_stage_keeps_its_cubic(fits, family):
    # it fits 0.9934 (CD) and 0.9906 (CES): a rank rule that dropped a needed observable, or cut the degree,
    # would show here
    first_stage = fits[family, "quantity"]["first_stage"]
    assert first_stage["degree"] == 3 and first_stage["r_squared"] > 0.98, first_stage


def test_ces_quantity_fit_keeps_a_capital_share(fits):
    # the CES quantity chart caps beta_L + beta_M at 0.995
    fit = fits["ces", "quantity"]
    theta = dict(zip(fit["param_names"], fit["minima"][0]["theta"]))
    assert 1 - theta["beta_L"] - theta["beta_M"] >= 0.005 - 1e-12, theta


def test_revenue_j_reads_as_a_j_statistic(fits):
    # near its moment count, not hundreds
    fit = fits["cd", "revenue"]
    assert fit["objective"] < 3 * fit["diagnostics"]["n_moments"], fit["objective"]


@pytest.mark.parametrize("key", [("cd", "revenue"), ("ces", "revenue"), ("cd", "identity revenue")])
def test_revenue_fit_moves_only_what_revenue_identifies(fits, key):
    # and holds the rest at its normalisation, named once, with its value
    fit = fits[key]
    ces = fit["tech_kind"] == "CES"
    identified = {"sigma", "share_ratio"} if ces else {"share_ratio"}
    assert set(fit["minima"][0]["at_bound"]) <= identified
    assert set(fit["identified"]) == identified
    assert fit["diagnostics"]["df"] == fit["diagnostics"]["n_moments"] - len(identified)
    assert ({"v": 1.0} if ces else {"beta_K": 0.08}).items() <= fit["diagnostics"]["normalisation"].items()
    assert "non_identified_axes" not in fit


@pytest.mark.parametrize(
    "family, verdicts, flat",
    [
        ("cd", {"beta_K": "not identified"}, {"beta_K", "beta_L+beta_M"}),
        ("ces", {"sigma": "identified", "v": "not identified"}, {"beta_L+beta_M", "v"}),
    ],
)
def test_report_gives_the_papers_result(shipped, family, verdicts, flat):
    # revenue data identify sigma and beta_L/beta_M, never returns to scale, beta_K or productivity; the Jacobian's
    # null space holds exactly the chart axes revenue never reads, and each null direction points along one of them
    rep = load(shipped[family] / "identification_report.json")
    ratio = {"beta_L": "identified-ratio-only", "beta_M": "identified-ratio-only", "omega": "not identified"}
    assert rep["verdicts"] == {**verdicts, **ratio}
    assert {axis for axis, norm in rep["rank"]["null_alignment"].items() if norm >= 1 - 1e-12} == flat
    assert len(rep["null_directions"]) == len(flat)
    assert all(max(map(abs, d)) >= 1 - 1e-12 for d in rep["null_directions"]), rep["null_directions"]


# diagnose and both estimates on each shipped panel, in a fresh interpreter: numpy reads the BLAS thread count
# when it loads
IN_A_PROCESS = """
import sys
sys.path.insert(0, sys.argv[1])
from revprod.cli import main
for family, panel, out in zip(("cd", "ces"), sys.argv[2::2], sys.argv[3::2]):
    config = f"configs/{family}.ini"
    for argv in (["diagnose"], ["estimate", "--mode", "quantity"], ["estimate", "--mode", "revenue"]):
        assert main(["--log-level", "WARNING", argv[0], panel, *argv[1:], "--config", config, "--out", out]) == 0
"""


def test_artifacts_do_not_depend_on_the_blas_thread_count(shipped, tmp_path):
    # the first stage's least squares, the two-step weight's Cholesky, every search step and the report's Jacobian
    # run on numpy's LAPACK; the default thread count is the host's core count
    unset = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    for name, env in (("default", unset), ("one", {**unset, "OPENBLAS_NUM_THREADS": "1"})):
        paths = [str(p) for family in FAMILIES for p in (shipped[family] / "panel.csv", tmp_path / name / family)]
        proc = subprocess.run(
            [sys.executable, "-c", IN_A_PROCESS, str(Path(revprod.__file__).parents[1]), *paths],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
    for family in FAMILIES:
        for name in ("identification_report.json", "estimate_quantity.json", "estimate_revenue.json"):
            one, default = ((tmp_path / threads / family / name).read_bytes() for threads in ("one", "default"))
            assert one == default == (shipped[family] / name).read_bytes(), (family, name)


def test_cached_and_parsed_panels_give_the_same_artifacts(shipped, tmp_path, caplog):
    # the shipped panels' commands read the column cache simulate left beside the CSV; a copy without it, under the
    # same file name, is parsed by every command, and every artifact keeps its bytes
    out, config = shipped["ces"], ROOT / "configs" / "ces.ini"
    with caplog.at_level(logging.DEBUG, logger="revprod.panel_io"):
        read_panel_csv(out / "panel.csv")
    assert caplog.messages == [f"{out / 'panel.csv'}: columns read from the cache beside it"]
    (tmp_path / "panel.csv").write_bytes((out / "panel.csv").read_bytes())
    for name, argv in COMMANDS.items():
        assert run(argv, tmp_path / "panel.csv", config, tmp_path) == EXIT_OK
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name
    assert not (tmp_path / "panel.csv.cache").exists()  # so no command read a cache


@pytest.mark.parametrize(
    "case, message",
    [
        ("unknown_instrument", "edited-cd.ini: [estimation] unknown instrument tokens ['bogus_t']"),
        ("header_only", "no consecutive firm-periods; lags unavailable"),
    ],
    ids=["unknown_instrument", "header_only"],
)
def test_refusal_exits_2_as_a_process(shipped, tmp_path, case, message):
    # through `python -m revprod.cli`: the process exits 2 with the message on stderr, no traceback, and no output;
    # an unknown token fails at parse time, so even simulate refuses it
    if case == "unknown_instrument":
        config = edited_config("configs/cd.ini", "weighting = two-step", "weighting = two-step\ninstruments = const k_t bogus_t", tmp_path)
        argv = ["simulate", "--config", str(config)]
    else:
        (tmp_path / "header-only.csv").write_text((shipped["cd"] / "panel.csv").read_text().splitlines()[0] + "\n")
        argv = ["estimate", str(tmp_path / "header-only.csv"), "--config", str(ROOT / "configs" / "cd.ini"), "--mode", "quantity"]
    proc = subprocess.run(
        [sys.executable, "-m", "revprod.cli", *argv, "--out", str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(Path(revprod.__file__).parents[1])},
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == EXIT_VALIDATION, proc.stderr
    assert message in proc.stderr and "Traceback" not in proc.stderr, proc.stderr
    assert not (tmp_path / "out").exists()
