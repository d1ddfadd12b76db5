import ast
import hashlib
import importlib.resources
import inspect
import json
import math
import re
import subprocess
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import revprod
from revprod import estimate
from revprod.cli import EXIT_IO, EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION, _json_artifact, _write, main
from revprod.config import EstimationSettings, parse_config
from revprod.diagnostics import build_identification_report, omega_recovery_attempt
from revprod.estimate import build_quantity_moments, build_revenue_moments, first_stage_project, gmm_minimize
from revprod.panel_io import read_panel_csv
from revprod.simulate import SimConfig, verify_panel
from revprod.technology import CES, CobbDouglas

ROOT = Path(__file__).resolve().parents[1]

CES_CONFIG = """
[run]
seed = 4242
out_dir = {out}

[technology]
kind = CES
beta_l = 0.30
beta_m = 0.40
sigma = 0.50
v = 0.90

[panel]
n_firms = 100
n_periods = 8

[estimation]
weighting = two-step
"""

CD_CONFIG = """
[run]
seed = 777
out_dir = {out}

[technology]
kind = CD
beta_k = 0.25
beta_l = 0.30
beta_m = 0.40

[panel]
n_firms = 100
n_periods = 8

[estimation]
weighting = two-step
"""


@pytest.fixture
def ces_ini(tmp_path):
    path = tmp_path / "ces.ini"
    path.write_text(CES_CONFIG.format(out=tmp_path))
    return path


@pytest.fixture
def cd_ini(tmp_path):
    path = tmp_path / "cd.ini"
    path.write_text(CD_CONFIG.format(out=tmp_path))
    return path


def test_simulate_is_byte_deterministic(ces_ini, tmp_path):
    assert main(["simulate", "--config", str(ces_ini), "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["simulate", "--config", str(ces_ini), "--out", str(tmp_path / "b")]) == EXIT_OK
    assert (tmp_path / "a" / "panel.csv").read_bytes() == (tmp_path / "b" / "panel.csv").read_bytes()
    assert (tmp_path / "a" / "provenance.json").read_bytes() == (tmp_path / "b" / "provenance.json").read_bytes()


def test_simulate_seed_override_changes_panel(ces_ini, tmp_path):
    main(["simulate", "--config", str(ces_ini), "--out", str(tmp_path / "a")])
    main(["simulate", "--config", str(ces_ini), "--seed", "9", "--out", str(tmp_path / "c")])
    assert (tmp_path / "a" / "panel.csv").read_bytes() != (tmp_path / "c" / "panel.csv").read_bytes()


def test_log_level_controls_info_lines(ces_ini, tmp_path, caplog):
    assert main(["simulate", "--config", str(ces_ini), "--out", str(tmp_path / "a")]) == EXIT_OK
    assert "wrote" in caplog.text
    caplog.clear()
    assert main(["--log-level", "WARNING", "simulate", "--config", str(ces_ini), "--out", str(tmp_path / "b")]) == EXIT_OK
    assert (tmp_path / "b" / "panel.csv").exists()
    assert "wrote" not in caplog.text
    # the next call without the option is back at the INFO default
    assert main(["simulate", "--config", str(ces_ini), "--out", str(tmp_path / "c")]) == EXIT_OK
    assert "wrote" in caplog.text


@pytest.mark.parametrize("command", ["simulate", "estimate", "diagnose", "verify"])
def test_help_names_the_shared_options(command, capsys):
    # every command takes --config and --out, and each that reads a panel takes it as its positional argument
    with pytest.raises(SystemExit) as exited:
        main([command, "--help"])
    assert exited.value.code == 0
    usage = capsys.readouterr().out.split("\n\n")[0].split()
    assert {"--config", "CONFIG", "[--out", "OUT]"} <= set(usage)
    assert ("panel" in usage) == (command != "simulate")


def test_empty_panel_header_only(tmp_path):
    ini = tmp_path / "empty.ini"
    ini.write_text("[run]\nseed = 1\n\n[technology]\nkind = CD\n\n[panel]\nn_firms = 0\nn_periods = 1\n")
    assert main(["simulate", "--config", str(ini), "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "panel.csv").read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("firm_id,t,K,")


def test_verify_pipeline_clean(ces_ini, tmp_path):
    main(["simulate", "--config", str(ces_ini), "--out", str(tmp_path)])
    assert main(["verify", str(tmp_path / "panel.csv"), "--config", str(ces_ini), "--out", str(tmp_path)]) == EXIT_OK
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"] is True
    assert all(v == 0 for v in report["violations"].values())


def test_verify_flags_corrupted_revenue(ces_ini, tmp_path):
    main(["simulate", "--config", str(ces_ini), "--out", str(tmp_path)])
    panel_path = tmp_path / "panel.csv"
    lines = panel_path.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[5].split(",")
    row[header.index("R")] = repr(float(row[header.index("R")]) * 1.02)
    lines[5] = ",".join(row)
    panel_path.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(panel_path), "--config", str(ces_ini), "--out", str(tmp_path)]) == EXIT_VALIDATION
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"] is False
    assert report["violations"]["revenue_identity"] == 1


def test_estimate_quantity_writes_result(ces_ini, tmp_path):
    main(["simulate", "--config", str(ces_ini), "--out", str(tmp_path)])
    assert main(["estimate", str(tmp_path / "panel.csv"), "--config", str(ces_ini), "--mode", "quantity", "--out", str(tmp_path)]) == EXIT_OK
    res = json.loads((tmp_path / "estimate_quantity.json").read_text())
    assert res["mode"] == "quantity"
    assert "non_identified_axes" not in res
    assert abs(res["estimates"]["sigma"] - 0.5) < 0.25  # small panel, loose check


def test_provenance_records_what_each_command_used(cd_ini, tmp_path):
    # simulate reads the [run] seed and writes the panel; estimate reads neither and names the
    # panel it read and the mode
    main(["simulate", "--config", str(cd_ini), "--out", str(tmp_path)])
    prov = json.loads((tmp_path / "provenance.json").read_text())
    assert prov.keys() == {"command", "config_sha256", "version", "seed", "outputs", "n_rows"}
    assert (prov["seed"], prov["outputs"], prov["n_rows"]) == (777, ["panel.csv"], 800)
    # the column cache beside the panel is not an output: it can be deleted at no cost but a parse
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cd.ini", "panel.csv", "panel.csv.cache", "provenance.json"]
    assert main(["estimate", str(tmp_path / "panel.csv"), "--config", str(cd_ini), "--mode", "revenue", "--out", str(tmp_path)]) == EXIT_OK
    res = json.loads((tmp_path / "estimate_revenue.json").read_text())
    assert res["provenance"] == {
        "command": "estimate",
        "config_sha256": prov["config_sha256"],
        "version": revprod.__version__,
        "panel": "panel.csv",
        "mode": "revenue",
    }
    # verify and diagnose name the panel they read, as estimate does
    for command, artifact in (("verify", "verify_report.json"), ("diagnose", "identification_report.json")):
        assert main([command, str(tmp_path / "panel.csv"), "--config", str(cd_ini), "--out", str(tmp_path)]) == EXIT_OK
        assert json.loads((tmp_path / artifact).read_text())["provenance"] == {
            "command": command,
            "config_sha256": prov["config_sha256"],
            "version": revprod.__version__,
            "panel": "panel.csv",
        }, command


def test_estimate_revenue_reports_normalisation(ces_ini, cd_ini, tmp_path):
    # the flat coordinate is named once, with the value it is fixed at
    for name, ini, flat in (("ces", ces_ini, {"v": 1.0}), ("cd", cd_ini, {"beta_K": 0.08})):
        main(["simulate", "--config", str(ini), "--out", str(tmp_path / name)])
        assert main(["estimate", str(tmp_path / name / "panel.csv"), "--config", str(ini), "--mode", "revenue", "--out", str(tmp_path / name)]) == EXIT_OK
        res = json.loads((tmp_path / name / "estimate_revenue.json").read_text())
        assert flat.items() <= res["diagnostics"]["normalisation"].items(), name
        assert "non_identified_axes" not in res, name


def test_quantity_mode_on_revenue_only_file(ces_ini, tmp_path, caplog):
    main(["simulate", "--config", str(ces_ini), "--out", str(tmp_path)])
    panel = read_panel_csv(tmp_path / "panel.csv")
    # strip the unobservable columns to make a revenue-only file
    lines = (tmp_path / "panel.csv").read_text().splitlines()
    header = lines[0].split(",")
    keep = [i for i, c in enumerate(header) if c not in ("omega", "eps", "Q", "P")]
    out = [",".join(line.split(",")[i] for i in keep) for line in lines]
    (tmp_path / "rev_only.csv").write_text("\n".join(out) + "\n")
    rc = main(["estimate", str(tmp_path / "rev_only.csv"), "--config", str(ces_ini), "--mode", "quantity", "--out", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    assert "quantities unobserved" in caplog.text
    # revenue mode on the same file still runs, and gives the full panel's estimate; so does a copy saved as
    # spreadsheet programs save "CSV UTF-8", behind a byte-order mark, under the same name, to the byte
    (tmp_path / "bom").mkdir()
    (tmp_path / "bom" / "rev_only.csv").write_bytes(b"\xef\xbb\xbf" + (tmp_path / "rev_only.csv").read_bytes())
    for path, out in (("panel.csv", "full"), ("rev_only.csv", "rev_only"), ("bom/rev_only.csv", "bom")):
        rc = main(["estimate", str(tmp_path / path), "--config", str(ces_ini), "--mode", "revenue", "--out", str(tmp_path / out)])
        assert rc == EXIT_OK
    full, rev_only = (json.loads((tmp_path / out / "estimate_revenue.json").read_text()) for out in ("full", "rev_only"))
    for key in ("estimates", "objective", "minima"):
        assert full[key] == rev_only[key], key
    assert (tmp_path / "bom" / "estimate_revenue.json").read_bytes() == (tmp_path / "rev_only" / "estimate_revenue.json").read_bytes()
    # verify lists only the checks whose columns the file has: the revenue
    # identity, the reduced form and markup consistency need Q, P, eps or omega
    rc = main(["verify", str(tmp_path / "rev_only.csv"), "--config", str(ces_ini), "--out", str(tmp_path / "v1")])
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "v1" / "verify_report.json").read_text())
    assert set(report["violations"]) == {"foc_price_L", "foc_price_M"}
    # and reads no shock variance: another sigma_eps gives the same report, under the other config's hash
    other = tmp_path / "ces_eps.ini"
    other.write_text(ces_ini.read_text() + "\n[shocks]\nsigma_eps = 0.25\n")
    rc = main(["verify", str(tmp_path / "rev_only.csv"), "--config", str(other), "--out", str(tmp_path / "v2")])
    assert rc == EXIT_OK
    report_other = json.loads((tmp_path / "v2" / "verify_report.json").read_text())
    assert report_other.pop("provenance")["config_sha256"] != report.pop("provenance")["config_sha256"]
    assert report_other == report
    # diagnose gives the full panel's verdicts, except that it cannot check productivity
    for name, path in (("full", tmp_path / "panel.csv"), ("rev_only", tmp_path / "rev_only.csv")):
        assert main(["diagnose", str(path), "--config", str(ces_ini), "--out", str(tmp_path / name)]) == EXIT_OK
    full, rev_only = (json.loads((tmp_path / name / "identification_report.json").read_text())["verdicts"] for name in ("full", "rev_only"))
    assert full["omega"] != "unknown (no omega column)"
    assert rev_only == {**full, "omega": "unknown (no omega column)"}


def test_malformed_row_exit_code_and_line(ces_ini, tmp_path, caplog):
    main(["simulate", "--config", str(ces_ini), "--out", str(tmp_path)])
    panel_path = tmp_path / "panel.csv"
    lines = panel_path.read_text().splitlines()
    lines[7] = lines[7].replace(",", ",oops", 1) if "," in lines[7] else lines[7]
    panel_path.write_text("\n".join(lines) + "\n")
    rc = main(["verify", str(panel_path), "--config", str(ces_ini), "--out", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    assert "line 8" in caplog.text


def test_diagnose_ces_verdicts(ces_ini, tmp_path):
    main(["simulate", "--config", str(ces_ini), "--out", str(tmp_path)])
    assert main(["diagnose", str(tmp_path / "panel.csv"), "--config", str(ces_ini), "--out", str(tmp_path)]) == EXIT_OK
    rep = json.loads((tmp_path / "identification_report.json").read_text())
    assert rep["verdicts"]["sigma"] == "identified"
    assert rep["verdicts"]["beta_L"] == "identified-ratio-only"
    assert rep["verdicts"]["v"] == "not identified"
    assert rep["verdicts"]["omega"] == "not identified"
    # the thresholds that decide a verdict are reported, and only those
    assert set(rep["thresholds"]) == {"flat_tol", "rank_rtol", "omega_min_corr"}


def test_diagnose_ces_sigma_next_to_zero(tmp_path):
    # the sigma contrast steps away from sigma = -0.1 without reaching sigma = 0, outside the model
    ini = tmp_path / "ces-neg.ini"
    ini.write_text(CES_CONFIG.format(out=tmp_path).replace("sigma = 0.50", "sigma = -0.1"))
    assert main(["simulate", "--config", str(ini), "--out", str(tmp_path)]) == EXIT_OK
    assert main(["diagnose", str(tmp_path / "panel.csv"), "--config", str(ini), "--out", str(tmp_path)]) == EXIT_OK
    rep = json.loads((tmp_path / "identification_report.json").read_text())
    assert rep["contrast_param"] == "sigma" and rep["contrast_gap"] > 0.0
    assert rep["verdicts"] == {
        "sigma": "identified", "beta_L": "identified-ratio-only", "beta_M": "identified-ratio-only",
        "v": "not identified", "omega": "not identified",
    }


def test_diagnose_omega_verdict_is_recovery_not_a_chance_correlation(tmp_path):
    # configs/ces.ini at seed 13: the revenue residual's correlation with omega crosses 3/sqrt(n_obs) by chance
    # (0.0457 against 0.0424), and omega stays not identified, since the residual does not recover it
    ini = ROOT / "configs" / "ces.ini"
    main(["simulate", "--config", str(ini), "--seed", "13", "--out", str(tmp_path)])
    assert main(["diagnose", str(tmp_path / "panel.csv"), "--config", str(ini), "--out", str(tmp_path)]) == EXIT_OK
    rep = json.loads((tmp_path / "identification_report.json").read_text())
    assert abs(rep["omega_recovery"]["correlation"]) > rep["omega_recovery"]["bound"]
    assert rep["verdicts"]["omega"] == "not identified"


def test_diagnose_cd_verdicts(cd_ini, tmp_path):
    main(["simulate", "--config", str(cd_ini), "--out", str(tmp_path)])
    assert main(["diagnose", str(tmp_path / "panel.csv"), "--config", str(cd_ini), "--out", str(tmp_path)]) == EXIT_OK
    rep = json.loads((tmp_path / "identification_report.json").read_text())
    assert rep["verdicts"]["beta_K"] == "not identified"
    assert rep["verdicts"]["beta_L"] == "identified-ratio-only"


def test_diagnose_scan_writes_profile_csv(ces_ini, tmp_path):
    main(["simulate", "--config", str(ces_ini), "--out", str(tmp_path)])
    rc = main(["diagnose", str(tmp_path / "panel.csv"), "--config", str(ces_ini), "--scan", "v", "--grid", "0.7:1.3:25", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    rows = (tmp_path / "profile_v.csv").read_text().splitlines()
    assert rows[0] == "v,objective"
    assert len(rows) == 26
    values = [float(r.split(",")[1]) for r in rows[1:]]
    assert len(set(values)) == 1  # flat direction


def test_diagnose_scan_defaults_to_report_grid(ces_ini, tmp_path):
    # the default sigma grid stays inside the estimator's bounds, away from
    # sigma = 1, where the CES formulas divide by zero
    main(["simulate", "--config", str(ces_ini), "--out", str(tmp_path)])
    rc = main(["diagnose", str(tmp_path / "panel.csv"), "--config", str(ces_ini), "--scan", "sigma", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    rows = (tmp_path / "profile_sigma.csv").read_text().splitlines()
    assert rows[0] == "sigma,objective"
    grid, values = zip(*[map(float, r.split(",")) for r in rows[1:]])
    profile = json.loads((tmp_path / "identification_report.json").read_text())["profiles"]["sigma"]
    assert list(grid) == profile["grid"]
    assert list(values) == profile["objective"]
    assert max(grid) <= 0.9
    assert all(math.isfinite(v) for v in values)


def test_diagnose_scan_grid_with_a_negative_start(ces_ini, tmp_path):
    # a CES sigma below 0 is inside the model; a grid that starts there is given after an equals sign, since
    # argparse takes a separate "-0.9:-0.1:3" for an option
    main(["simulate", "--config", str(ces_ini), "--out", str(tmp_path)])
    rc = main(["diagnose", str(tmp_path / "panel.csv"), "--config", str(ces_ini), "--scan", "sigma", "--grid=-0.9:-0.1:3", "--out", str(tmp_path)])
    assert rc == EXIT_OK
    rows = (tmp_path / "profile_sigma.csv").read_text().splitlines()
    assert rows[0] == "sigma,objective"
    assert [float(r.split(",")[0]) for r in rows[1:]] == np.linspace(-0.9, -0.1, 3).tolist()


def test_diagnose_scan_grid_at_ces_sigma_one_rejected(ces_ini, tmp_path, caplog):
    main(["simulate", "--config", str(ces_ini), "--out", str(tmp_path)])
    rc = main(["diagnose", str(tmp_path / "panel.csv"), "--config", str(ces_ini), "--scan", "sigma", "--grid", "0.7:1.3:25", "--out", str(tmp_path)])
    assert rc == EXIT_VALIDATION
    assert "sigma = 1.0" in caplog.text
    assert not (tmp_path / "profile_sigma.csv").exists()
    assert not (tmp_path / "identification_report.json").exists()


def test_diagnose_grid_without_scan_rejected(ces_ini, tmp_path, caplog):
    main(["simulate", "--config", str(ces_ini), "--out", str(tmp_path)])
    rc = main(["diagnose", str(tmp_path / "panel.csv"), "--config", str(ces_ini), "--grid", "0.7:1.3:5", "--out", str(tmp_path / "d")])
    assert rc == EXIT_VALIDATION
    assert "--grid" in caplog.text
    assert not (tmp_path / "d").exists()


def test_diagnose_empty_grid_rejected(ces_ini, tmp_path, caplog):
    main(["simulate", "--config", str(ces_ini), "--out", str(tmp_path)])
    rc = main(["diagnose", str(tmp_path / "panel.csv"), "--config", str(ces_ini), "--scan", "v", "--grid", "0.7:1.3:0", "--out", str(tmp_path / "d")])
    assert rc == EXIT_VALIDATION
    assert "--grid count must be >= 1" in caplog.text
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize(
    "config, argv, message",
    [
        ("ces", ["--scan", "sigma", "--grid", "0.3:0.7"], "--grid expects start:stop:count"),
        ("ces", ["--scan", "rho"], "--scan: unknown parameter 'rho'"),
        ("ces", ["--scan", "beta_L"], "--scan: unknown parameter 'beta_L'; the chart coordinates are ['sigma', 'share_ratio', 'beta_L+beta_M', 'v']"),
        # grids outside the model are rejected before any evaluation, so no warning is raised either
        ("ces", ["--scan", "sigma", "--grid", "1.1:1.5:3"], "sigma grid contains sigma = 1.1, outside the model"),
        ("ces", ["--scan", "sigma", "--grid=-0.5:0.5:3"], "sigma grid contains sigma = 0.0, outside the model"),
        ("ces", ["--scan", "share_ratio", "--grid", "0.5:1.5:3"], "share_ratio grid contains share_ratio = 1.0, outside the model"),
        ("cd", ["--scan", "share_ratio", "--grid", "0.5:1.5:3"], "share_ratio grid contains share_ratio = 1.0, outside the model"),
        ("cd", ["--scan", "share_ratio", "--grid=-0.5:0.5:3"], "share_ratio grid contains share_ratio = -0.5, outside the model"),
        # revenue reads none of these three coordinates, so the objective alone would give a flat profile
        ("ces", ["--scan", "beta_L+beta_M", "--grid", "0.5:1.0:3"],
         "beta_L+beta_M grid contains beta_L+beta_M = 1.0, outside the model (beta_L + beta_M must be < 1 (positive capital share))"),
        ("ces", ["--scan", "v", "--grid", "0.0:1.0:3"], "v grid contains v = 0.0, outside the model (returns-to-scale v must be strictly positive)"),
        ("cd", ["--scan", "beta_K", "--grid=-0.2:0.2:3"], "beta_K grid contains beta_K = -0.2, outside the model (beta_K must be nonnegative)"),
        ("ces", ["--scan", "sigma", "--grid", "nan:0.5:3"], "--grid bounds must be finite"),
        ("ces", ["--scan", "sigma", "--grid", "0.3:inf:3"], "--grid bounds must be finite"),
    ],
    ids=[
        "grid_without_count", "unknown_scan", "theta_axis_scan", "ces_sigma_above_one", "ces_sigma_zero",
        "ces_share_ratio_above_one", "cd_share_ratio_above_one", "cd_negative_share_ratio",
        "ces_share_scale_one", "ces_v_zero", "cd_negative_beta_k", "nan_bound", "inf_bound",
    ],
)
def test_diagnose_bad_option_rejected(config, ces_ini, cd_ini, tmp_path, caplog, monkeypatch, argv, message):
    ini = str(ces_ini if config == "ces" else cd_ini)
    main(["simulate", "--config", ini, "--out", str(tmp_path)])
    calls = []
    objective = estimate.MomentSystem.objective
    monkeypatch.setattr(estimate.MomentSystem, "objective", lambda *args: calls.append(args) or objective(*args))
    rc = main(["diagnose", str(tmp_path / "panel.csv"), "--config", ini, *argv, "--out", str(tmp_path / "d")])
    assert rc == EXIT_VALIDATION
    assert message in caplog.text
    assert calls == []
    assert not (tmp_path / "d").exists()


def test_labour_equation_config_gives_the_papers_result(tmp_path):
    # configs/ces.ini with which_v = L: revenue mode and diagnose use the labour revenue equation throughout
    ini = tmp_path / "ces-L.ini"
    text = (ROOT / "configs" / "ces.ini").read_text()
    assert "\nwhich_v = M\n" in text
    ini.write_text(text.replace("\nwhich_v = M\n", "\nwhich_v = L\n"))
    assert main(["simulate", "--config", str(ini), "--out", str(tmp_path)]) == EXIT_OK
    panel_path = str(tmp_path / "panel.csv")
    for argv in (["estimate", "--mode", "revenue"], ["diagnose"]):
        assert main([argv[0], panel_path, *argv[1:], "--config", str(ini), "--out", str(tmp_path)]) == EXIT_OK
    identified = json.loads((tmp_path / "estimate_revenue.json").read_text())["identified"]
    assert identified["sigma"] == pytest.approx(0.5, abs=0.03)
    assert identified["share_ratio"] == pytest.approx(3 / 7, abs=0.03)
    rep = json.loads((tmp_path / "identification_report.json").read_text())
    ratio = {"beta_L": "identified-ratio-only", "beta_M": "identified-ratio-only"}
    assert rep["verdicts"] == {"sigma": "identified", **ratio, "v": "not identified", "omega": "not identified"}
    cfg = parse_config(ini)
    assert cfg.estimation.which_v == "L"
    panel = read_panel_csv(panel_path)
    expected = omega_recovery_attempt(panel, cfg.sim.tech, build_revenue_moments("CES", panel, which_v="L"))
    assert rep["omega_recovery"] == json.loads(json.dumps(asdict(expected)))


def test_estimate_with_fewer_moments_than_free_coordinates_rejected(ces_ini, tmp_path, caplog):
    # three moments cannot identify the four coordinates of a CES quantity fit, whose J would be ~0 at a
    # continuum of points: the fit is refused
    main(["simulate", "--config", str(ces_ini), "--out", str(tmp_path)])
    base = ces_ini.read_text()
    argv = ["estimate", str(tmp_path / "panel.csv"), "--config", str(ces_ini), "--mode", "quantity"]
    ces_ini.write_text(base + "instruments = const k_t l_lag\n")
    assert main([*argv, "--out", str(tmp_path / "under")]) == EXIT_VALIDATION
    assert "3 moments cannot identify the 4 free coordinates sigma, share_ratio, beta_L+beta_M, v" in caplog.text
    assert not (tmp_path / "under").exists()
    # exactly identified: four moments for four coordinates
    ces_ini.write_text(base + "instruments = const k_t l_lag pl_lag\n")
    assert main([*argv, "--out", str(tmp_path / "exact")]) == EXIT_OK
    exact = json.loads((tmp_path / "exact" / "estimate_quantity.json").read_text())
    assert (exact["diagnostics"]["n_moments"], exact["diagnostics"]["df"]) == (4, 0)
    # its J falls to rounding noise, and the search's first-order test holds there
    (only,) = exact["minima"]
    assert only["converged"] is True and only["at_bound"] == []


def test_instruments_key_sets_the_estimate_instruments(cd_ini, tmp_path):
    tokens = ("const", "k_t", "l_lag", "pl_lag", "pm_lag", "pl_t", "pm_t")
    cd_ini.write_text(cd_ini.read_text() + f"instruments = {' '.join(tokens)}\n")
    assert parse_config(cd_ini).estimation.instruments == tokens
    main(["simulate", "--config", str(cd_ini), "--out", str(tmp_path)])
    assert main(["estimate", str(tmp_path / "panel.csv"), "--config", str(cd_ini), "--mode", "revenue", "--out", str(tmp_path)]) == EXIT_OK
    diagnostics = json.loads((tmp_path / "estimate_revenue.json").read_text())["diagnostics"]
    assert diagnostics["instruments"] == list(tokens)
    assert diagnostics["n_moments"] == len(tokens)


@pytest.mark.parametrize("line", ["", "instruments =\n"], ids=["no_key", "empty_key"])
def test_estimation_settings_default_to_the_package_instruments(cd_ini, line):
    # the library default and the parsed default are one tuple, estimate's
    assert EstimationSettings().instruments is estimate.DEFAULT_INSTRUMENTS
    cd_ini.write_text(cd_ini.read_text() + line)
    assert parse_config(cd_ini).estimation.instruments is estimate.DEFAULT_INSTRUMENTS
    # every field's default is the default of each call that consumes it
    consumers = [
        ("first_stage_degree", first_stage_project, "degree"),
        ("g_degree", build_quantity_moments, "g_degree"),
        ("which_v", build_revenue_moments, "which_v"),
        ("weighting", gmm_minimize, "weighting"),
        ("instruments", build_quantity_moments, "instruments"),
        ("instruments", build_revenue_moments, "instruments"),
    ]
    assert {name for name, _, _ in consumers} == {f.name for f in fields(EstimationSettings)}
    for name, call, parameter in consumers:
        assert getattr(EstimationSettings(), name) == inspect.signature(call).parameters[parameter].default, name


def test_diagnose_deterministic_report(ces_ini, tmp_path):
    main(["simulate", "--config", str(ces_ini), "--out", str(tmp_path)])
    main(["diagnose", str(tmp_path / "panel.csv"), "--config", str(ces_ini), "--out", str(tmp_path / "r1")])
    main(["diagnose", str(tmp_path / "panel.csv"), "--config", str(ces_ini), "--out", str(tmp_path / "r2")])
    assert (tmp_path / "r1" / "identification_report.json").read_bytes() == (tmp_path / "r2" / "identification_report.json").read_bytes()


def test_unknown_config_section_rejected(tmp_path):
    ini = tmp_path / "bad.ini"
    ini.write_text("[run]\nseed = 1\n\n[technology]\nkind = CD\n\n[typo_section]\nx = 1\n")
    assert main(["simulate", "--config", str(ini), "--out", str(tmp_path)]) == EXIT_VALIDATION


@pytest.mark.parametrize(
    "section, line",
    [
        ("diagnostics", "equivalence_tol = 1e-10"),
        ("diagnostics", "fd_step = 1e-5"),
        ("diagnostics", "flat_tol = 1e-10"),
        ("diagnostics", "rank_rtol = 1e-8"),
        ("estimation", "cal_e = 1.005"),
        ("estimation", "level_instruments = const k_t"),
    ],
    ids=["equivalence_tol", "fd_step", "flat_tol", "rank_rtol", "cal_e", "level_instruments"],
)
def test_removed_config_key_rejected(tmp_path, caplog, section, line):
    ini = tmp_path / "old.ini"
    ini.write_text(f"[run]\nseed = 1\n\n[technology]\nkind = CD\n\n[{section}]\n{line}\n")
    assert main(["simulate", "--config", str(ini), "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert f"unknown keys in [{section}]: ['{line.split()[0]}']" in caplog.text


@pytest.mark.parametrize(
    "kind, line",
    [("CES", "beta_k = 0.9"), ("CD", "sigma = 0.5"), ("CD", "v = 0.9")],
    ids=["ces_beta_k", "cd_sigma", "cd_v"],
)
def test_other_family_technology_key_rejected(tmp_path, caplog, kind, line):
    # the chosen family reads none of the other family's keys, so one is a mistake
    ini = tmp_path / "cross.ini"
    ini.write_text(f"[run]\nseed = 1\n\n[technology]\nkind = {kind}\n{line}\n")
    assert main(["simulate", "--config", str(ini), "--out", str(tmp_path / "s")]) == EXIT_VALIDATION
    assert f"unknown keys in [technology]: ['{line.split()[0]}']" in caplog.text
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "section, line",
    [
        ("demand", "eta = 0.5"),
        ("demand", "scale = 0"),
        ("demand", "scale = -1"),
        ("productivity", "rho = 1.5"),
        ("capital", "kappa_k = 1.0"),
        ("prices", "rho_pm = 1.0"),
        ("shocks", "sigma_eps = -0.1"),
        ("panel", "input_solver = foo"),
        ("panel", "n_firms = 1.5"),
        ("panel", "n_firms = -1"),
        ("estimation", "g_degree = 0"),
        ("estimation", "first_stage_degree = 0"),
        ("estimation", "weighting = three-step"),
        ("estimation", "which_v = K"),
        ("estimation", "instruments = const k_t bogus_t"),
        ("estimation", "instruments = const k_t k_t"),
    ],
    ids=[
        "demand",
        "demand_scale_zero",
        "demand_scale_negative",
        "productivity",
        "capital",
        "prices",
        "shocks",
        "panel",
        "panel_not_int",
        "panel_negative",
        "g_degree",
        "first_stage_degree",
        "weighting",
        "which_v",
        "unknown_instrument",
        "repeated_instrument",
    ],
)
def test_bad_value_names_file_and_section(tmp_path, caplog, section, line):
    ini = tmp_path / "bad.ini"
    ini.write_text(f"[run]\nseed = 1\n\n[technology]\nkind = CD\n\n[{section}]\n{line}\n")
    assert main(["simulate", "--config", str(ini), "--out", str(tmp_path / "s")]) == EXIT_VALIDATION
    assert f"{ini}: [{section}] " in caplog.text
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "section, key",
    [("technology", "beta_l"), ("demand", "scale"), ("productivity", "sigma_xi"), ("capital", "kappa0"), ("prices", "sigma_pl"), ("shocks", "sigma_eps")],
)
def test_non_finite_value_names_the_key(tmp_path, caplog, section, key, value):
    ini = tmp_path / "bad.ini"
    line = f"{key} = {value}\n" if section == "technology" else f"\n[{section}]\n{key} = {value}\n"
    ini.write_text(f"[run]\nseed = 1\n\n[technology]\nkind = CD\n{line}")
    assert main(["simulate", "--config", str(ini), "--out", str(tmp_path / "s")]) == EXIT_VALIDATION
    assert f"{ini}: [{section}] {key}: must be finite, got {value}" in caplog.text
    assert not (tmp_path / "s").exists()


def test_overflowing_cal_e_names_sigma_eps(tmp_path, caplog):
    # cal_e = exp(sigma_eps^2 / 2) overflows a float from sigma_eps = 37.68 on
    ini = tmp_path / "eps.ini"
    ini.write_text("[run]\nseed = 1\n\n[technology]\nkind = CD\n\n[shocks]\nsigma_eps = 40\n")
    assert main(["simulate", "--config", str(ini), "--out", str(tmp_path / "s")]) == EXIT_VALIDATION
    assert f"{ini}: [shocks] sigma_eps = 40 overflows cal_e" in caplog.text
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "text, message, code",
    [
        ("[run]\nseed = x\n\n[technology]\nkind = CD\n", "{ini}: [run] seed: invalid literal for int() with base 10: 'x'", EXIT_VALIDATION),
        ("[run]\nseed = 1\n", "{ini}: config must have a [technology] section", EXIT_VALIDATION),
        ("[run]\nseed = 1\n\n[technology]\nkind = CDX\n", "{ini}: [technology] kind must be CD or CES, got 'CDX'", EXIT_VALIDATION),
        (None, "[Errno 2] No such file or directory: '{ini}'", EXIT_IO),
    ],
    ids=["seed_text", "no_technology", "bad_kind", "unreadable"],
)
def test_unreadable_or_incomplete_config_rejected(tmp_path, caplog, text, message, code):
    ini = tmp_path / "bad.ini"
    if text is not None:
        ini.write_text(text)
    assert main(["simulate", "--config", str(ini), "--out", str(tmp_path / "s")]) == code
    assert message.format(ini=ini) in caplog.text
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("bom, newline", [(b"\xef\xbb\xbf", b"\n"), (b"", b"\r\n"), (b"\xef\xbb\xbf", b"\r\n")], ids=["bom", "crlf", "bom-crlf"])
def test_bom_and_crlf_config_parse_as_the_plain_file(tmp_path, bom, newline):
    # as a Windows editor saves the file; config_sha256 is what sha256sum prints for the copy, not the original's
    plain = ROOT / "configs" / "cd.ini"
    copy = tmp_path / "cd.ini"
    copy.write_bytes(bom + plain.read_bytes().replace(b"\n", newline))
    want, got = parse_config(plain), parse_config(copy)
    assert (got.sim, got.estimation, got.out_dir) == (want.sim, want.estimation, want.out_dir)
    assert want.config_sha256 == hashlib.sha256(plain.read_bytes()).hexdigest()
    assert got.config_sha256 == hashlib.sha256(copy.read_bytes()).hexdigest() != want.config_sha256
    # and simulates the plain file's panel, byte for byte, under the copy's own hash
    for ini, out in ((plain, tmp_path / "plain"), (copy, tmp_path / "copy")):
        assert main(["simulate", "--config", str(ini), "--out", str(out)]) == EXIT_OK
    assert (tmp_path / "copy" / "panel.csv").read_bytes() == (tmp_path / "plain" / "panel.csv").read_bytes()
    assert json.loads((tmp_path / "copy" / "provenance.json").read_text())["config_sha256"] == got.config_sha256


def test_non_utf8_config_names_the_file(tmp_path, caplog):
    ini = tmp_path / "latin1.ini"
    ini.write_bytes(b"; caf\xe9\n" + (ROOT / "configs" / "cd.ini").read_bytes())
    assert main(["simulate", "--config", str(ini), "--out", str(tmp_path / "s")]) == EXIT_VALIDATION
    message = f"{ini}: 'utf-8' codec can't decode byte 0xe9 in position 5: invalid continuation byte"
    assert caplog.records[-1].getMessage() == message
    assert not (tmp_path / "s").exists()


def test_seedless_config_parses_at_seed_zero_outside_simulate(tmp_path):
    ini = tmp_path / "noseed.ini"
    ini.write_text("[technology]\nkind = CD\n")
    assert parse_config(ini).sim.seed == 0


def test_drawn_markup_at_the_scale_exits_3(tmp_path, caplog):
    # eta varies by firm, so the config's markup check passes, but some firms draw a markup at or below v = 1.2
    ini = tmp_path / "markup.ini"
    ini.write_text("[run]\nseed = 1\n\n[technology]\nkind = CES\nv = 1.2\n\n[demand]\neta_dispersion = 1.0\n")
    assert main(["simulate", "--config", str(ini), "--out", str(tmp_path / "s")]) == EXIT_SOLVER
    assert "drawn demand elasticities leave no pricing fixed point for firms" in caplog.text
    assert not (tmp_path / "s" / "panel.csv").exists()


@pytest.mark.parametrize("argv", [["estimate", "--mode", "quantity"], ["estimate", "--mode", "revenue"], ["diagnose"]])
def test_one_period_panel_has_no_lags(cd_ini, tmp_path, caplog, argv):
    ini = tmp_path / "one.ini"
    ini.write_text(cd_ini.read_text().replace("n_periods = 8", "n_periods = 1"))
    assert main(["simulate", "--config", str(ini), "--out", str(tmp_path)]) == EXIT_OK
    rc = main([argv[0], str(tmp_path / "panel.csv"), *argv[1:], "--config", str(ini), "--out", str(tmp_path / "e")])
    assert rc == EXIT_VALIDATION
    assert "panel has no consecutive firm-periods; lags unavailable" in caplog.text
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize(
    "rows, message",
    [
        ("header-only", "panel has no consecutive firm-periods; lags unavailable"),
        ("one-row", "panel has no consecutive firm-periods; lags unavailable"),
        ("constant-observable", "are collinear on this panel"),
    ],
)
def test_degenerate_panel_refused_in_quantity_mode(cd_ini, tmp_path, caplog, rows, message):
    # a panel with no consecutive firm-periods, header-only or one-row, is refused before the first stage chooses
    # its degree; a constant-observable panel is refused by the instruments' rank check, which runs before the
    # first stage, so that no first stage is projected for a panel that is refused
    assert main(["simulate", "--config", str(cd_ini), "--out", str(tmp_path)]) == EXIT_OK
    header, *lines = (tmp_path / "panel.csv").read_text().splitlines()
    if rows == "header-only":
        lines = []
    elif rows == "one-row":
        lines = lines[:1]
    else:  # five firms over eight periods, every K, L, M, pL and pM at the first row's
        fields = [line.split(",") for line in lines[:40]]
        observed = [header.split(",").index(c) for c in ("K", "L", "M", "pL", "pM")]
        lines = [",".join(fields[0][i] if i in observed else f for i, f in enumerate(row)) for row in fields]
    path = tmp_path / f"{rows}.csv"
    path.write_text("\n".join([header, *lines]) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["estimate", str(path), "--mode", "quantity", "--config", str(cd_ini), "--out", str(tmp_path / "e")])
    assert rc == EXIT_VALIDATION
    assert message in caplog.text and "Traceback" not in caplog.text
    assert "reducing degree" not in caplog.text
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / "e").exists()


def test_scale_above_markup_names_technology_and_demand(tmp_path, caplog):
    # the check reads v and eta; no [panel] key can fix it
    ini = tmp_path / "scale.ini"
    ini.write_text("[run]\nseed = 1\n\n[technology]\nkind = CES\nv = 1.5\n")
    assert main(["simulate", "--config", str(ini), "--out", str(tmp_path / "s")]) == EXIT_VALIDATION
    assert f"{ini}: [technology] v and [demand] eta: pricing fixed point needs short-run scale below the markup" in caplog.text
    assert "eta_dispersion" in caplog.text
    assert "[panel]" not in caplog.text
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("kind, family", [("CD", CobbDouglas), ("CES", CES)], ids=["CD", "CES"])
def test_minimal_config_takes_dataclass_defaults(tmp_path, kind, family):
    ini = tmp_path / "minimal.ini"
    ini.write_text(f"[run]\nseed = 5\n\n[technology]\nkind = {kind}\n")
    cfg = parse_config(ini)
    assert cfg.estimation == EstimationSettings()
    assert cfg.sim == SimConfig(tech=family(), seed=5)
    assert cfg.out_dir == "."


@pytest.fixture(scope="module")
def cd_plain_estimates(tmp_path_factory):
    # the CD panel and both estimates of the config that sets no retired key, made once for every case below
    out = tmp_path_factory.mktemp("plain")
    ini = out / "cd.ini"
    ini.write_text(CD_CONFIG.format(out=out))
    assert main(["simulate", "--config", str(ini), "--out", str(out)]) == EXIT_OK
    for mode in ("quantity", "revenue"):
        assert main(["estimate", str(out / "panel.csv"), "--config", str(ini), "--mode", mode, "--out", str(out)]) == EXIT_OK
    return ini


@pytest.mark.parametrize(
    "lines",
    [
        ["restarts = 0"],
        ["restarts = -2"],
        ["screen = -3"],
        ["restart_seed = -3"],
        ["restarts = 0", "screen = -3", "restart_seed = -3"],
    ],
    ids=["restarts_zero", "restarts_negative", "screen", "restart_seed", "all_three"],
)
def test_retired_estimation_keys_parse_and_change_nothing(cd_plain_estimates, tmp_path, caplog, lines):
    # restarts, screen and restart_seed set the multistart that one search per fit replaced: a config that
    # still sets them, even to values the multistart rejected, parses, says once per command that they are
    # ignored, and writes the estimates of the config without them, byte for byte but for the config's hash
    plain = cd_plain_estimates
    retired = tmp_path / "retired.ini"
    retired.write_text(plain.read_text() + "".join(f"{line}\n" for line in lines))
    keys = ", ".join(line.split(" = ")[0] for line in lines)
    caplog.clear()
    for mode in ("quantity", "revenue"):
        argv = ["estimate", str(plain.parent / "panel.csv"), "--config", str(retired), "--mode", mode, "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
    assert caplog.text.count(f"[estimation] {keys} ignored") == 2
    hashes = [parse_config(ini).config_sha256 for ini in (plain, retired)]
    for mode in ("quantity", "revenue"):
        expected = (plain.parent / f"estimate_{mode}.json").read_text()
        assert (tmp_path / f"estimate_{mode}.json").read_text() == expected.replace(*hashes), mode


@pytest.mark.parametrize(
    "old, new, extra, message",
    [
        ("seed = 4242", "seed = -1", [], "[run] seed must be >= 0, got -1"),
        ("", "", ["--seed", "-1"], "--seed must be >= 0, got -1"),
    ],
    ids=["run_seed", "seed_option"],
)
def test_negative_seed_rejected(ces_ini, tmp_path, caplog, old, new, extra, message):
    # numpy's own error for a negative seed names neither the key nor the value
    ini = tmp_path / "seed.ini"
    ini.write_text(ces_ini.read_text().replace(old, new))
    rc = main(["simulate", "--config", str(ini), *extra, "--out", str(tmp_path / "s")])
    assert rc == EXIT_VALIDATION
    assert message in caplog.text
    assert not (tmp_path / "s").exists()


def test_two_step_weight_needs_more_rows_than_moments(cd_ini, tmp_path, caplog):
    # 2 firms x 5 periods leave 8 lag rows for the 11 moments, too few for a
    # nonsingular moment covariance; the panel is rejected before any search
    ini = tmp_path / "tiny.ini"
    ini.write_text(cd_ini.read_text().replace("n_firms = 100", "n_firms = 2").replace("n_periods = 8", "n_periods = 5"))
    assert main(["simulate", "--config", str(ini), "--out", str(tmp_path)]) == EXIT_OK
    rc = main(["estimate", str(tmp_path / "panel.csv"), "--config", str(ini), "--mode", "revenue", "--out", str(tmp_path / "e")])
    assert rc == EXIT_VALIDATION
    assert "the panel has 8 lag rows for 11 instruments" in caplog.text
    assert "depends on the others" not in caplog.text
    assert not (tmp_path / "e" / "estimate_revenue.json").exists()


def test_missing_seed_rejected_for_simulate(tmp_path):
    ini = tmp_path / "noseed.ini"
    ini.write_text("[technology]\nkind = CD\n")
    assert main(["simulate", "--config", str(ini), "--out", str(tmp_path)]) == EXIT_VALIDATION


def test_io_failure_exit_code(ces_ini, tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("i am a file")
    rc = main(["simulate", "--config", str(ces_ini), "--out", str(blocker / "sub")])
    assert rc == EXIT_IO


def test_outputs_validate_against_schemas(ces_ini, tmp_path):
    import importlib.resources

    import jsonschema

    main(["simulate", "--config", str(ces_ini), "--out", str(tmp_path)])
    main(["verify", str(tmp_path / "panel.csv"), "--config", str(ces_ini), "--out", str(tmp_path)])
    main(["diagnose", str(tmp_path / "panel.csv"), "--config", str(ces_ini), "--out", str(tmp_path)])
    pairs = [
        ("provenance.json", "provenance.schema.json"),
        ("verify_report.json", "verify_report.schema.json"),
        ("identification_report.json", "identification_report.schema.json"),
    ]
    for out_name, schema_name in pairs:
        schema = json.loads(importlib.resources.files("revprod.schemas").joinpath(schema_name).read_text())
        jsonschema.validate(json.loads((tmp_path / out_name).read_text()), schema)
    # a report carrying a deleted field, such as the old rank.fd_step, fails
    for block, key in (("rank", "fd_step"), ("thresholds", "equivalence_tol")):
        stale = json.loads((tmp_path / "identification_report.json").read_text())
        stale[block][key] = 1e-5
        with pytest.raises(ValueError, match=key):
            _write(tmp_path / "stale.json", _json_artifact(stale, "identification_report.schema.json"))


def test_artifacts_are_asdict_of_results(cd_ini, tmp_path):
    # each command writes asdict of what the API returns on the same inputs, less its None fields
    main(["simulate", "--config", str(cd_ini), "--out", str(tmp_path)])
    panel_path = str(tmp_path / "panel.csv")
    for argv in (["verify"], ["estimate", "--mode", "quantity"], ["estimate", "--mode", "revenue"], ["diagnose"]):
        assert main([argv[0], panel_path, *argv[1:], "--config", str(cd_ini), "--out", str(tmp_path)]) == EXIT_OK
    cfg = parse_config(cd_ini)
    est = cfg.estimation
    panel = read_panel_csv(panel_path)
    kind = cfg.sim.tech.kind
    revenue = build_revenue_moments(kind, panel, which_v=est.which_v)
    fs = first_stage_project(panel, est.first_stage_degree)
    quantity = build_quantity_moments(kind, fs, panel, g_degree=est.g_degree)

    def fit(ms):
        return gmm_minimize(ms, weighting=est.weighting)

    expected = {
        "verify_report.json": verify_panel(panel, cfg.sim),
        "estimate_quantity.json": fit(quantity),
        "estimate_revenue.json": fit(revenue),
        "identification_report.json": build_identification_report(panel, cfg.sim.tech, revenue),
    }
    for name, result in expected.items():
        written = json.loads((tmp_path / name).read_text())
        written.pop("provenance", None)
        payload = json.loads(json.dumps(asdict(result)))
        assert written == {k: v for k, v in payload.items() if v is not None}, name


def test_shipped_schemas_pass_metaschema():
    files = [f for f in importlib.resources.files("revprod.schemas").iterdir() if f.name.endswith(".json")]
    assert len(files) == 4
    for f in files:
        schema = json.loads(f.read_text())
        jsonschema.validators.validator_for(schema).check_schema(schema)


def test_invalid_payload_rejected_and_not_written(tmp_path):
    # a schema failure is a ValueError naming the schema and the JSON path, which main maps to exit code 2
    good = {"n_rows": 3, "violations": {}, "passed": True}
    _write(tmp_path / "good.json", _json_artifact(good, "verify_report.schema.json"))
    message = "verify_report.schema.json: $.n_rows: -1 is less than the minimum of 0"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as raised:
        _write(tmp_path / "bad.json", _json_artifact({**good, "n_rows": -1}, "verify_report.schema.json"))
    assert raised.value.__cause__ is None  # raised by the package's own validator, wrapping no library's error
    assert (tmp_path / "good.json").exists() and not (tmp_path / "bad.json").exists()


@pytest.mark.parametrize("argv", [["simulate"], ["verify"], ["estimate", "--mode", "revenue"], ["diagnose"]])
def test_invalid_artifact_exits_2(cd_ini, tmp_path, caplog, monkeypatch, argv):
    # README's exit-code table: a schema failure is a validation failure, not a traceback; simulate's artifact is the
    # provenance record itself, and the others' holds it
    assert main(["simulate", "--config", str(cd_ini), "--out", str(tmp_path)]) == EXIT_OK
    monkeypatch.setattr("revprod.cli._provenance", lambda *args, **fields: "bogus")
    panel = [] if argv[0] == "simulate" else [str(tmp_path / "panel.csv")]
    rc = main([argv[0], *panel, *argv[1:], "--config", str(cd_ini), "--out", str(tmp_path / "e")])
    assert rc == EXIT_VALIDATION
    where = "$" if argv[0] == "simulate" else "$.provenance"
    assert f".schema.json: {where}: 'bogus' is not of type 'object'" in caplog.text and "Traceback" not in caplog.text
    assert not (tmp_path / "e").exists()  # the artifact is checked before anything, simulate's panel.csv too, is written


def test_revenue_results_ignore_shocks_section(ces_ini, tmp_path):
    # the revenue residual needs no shock variance, so a config written for
    # data from outside the simulator, with no [shocks] section, gives the
    # numbers a config naming the simulator's sigma_eps gives
    base = ces_ini.read_text()
    configs = {"shocks": base + "\n[shocks]\nsigma_eps = 0.25\n", "no_shocks": base}
    for name, text in configs.items():
        (tmp_path / f"{name}.ini").write_text(text)
    assert main(["simulate", "--config", str(tmp_path / "shocks.ini"), "--out", str(tmp_path)]) == EXIT_OK
    panel = str(tmp_path / "panel.csv")
    for name in configs:
        ini, out = str(tmp_path / f"{name}.ini"), str(tmp_path / name)
        assert main(["estimate", panel, "--config", ini, "--mode", "revenue", "--out", out]) == EXIT_OK
        assert main(["diagnose", panel, "--config", ini, "--out", out]) == EXIT_OK
    a, b = (json.loads((tmp_path / name / "estimate_revenue.json").read_text()) for name in configs)
    for key in ("estimates", "objective", "minima"):
        assert a[key] == b[key], key
    reports = [json.loads((tmp_path / name / "identification_report.json").read_text()) for name in configs]
    # the same report, under each config's own hash
    assert reports[0].pop("provenance")["config_sha256"] != reports[1].pop("provenance")["config_sha256"]
    assert reports[0] == reports[1]


IMPORT_GRAPH = """
import json, sys
sys.path.insert(0, sys.argv[1])
from revprod.cli import main, parse_config

def heavy_modules():
    loaded = set(sys.modules) | {m.partition(".")[0] for m in sys.modules}
    return sorted(loaded & {"jsonschema", "orjson", "revprod.validator", "scipy"})

cfg, out = "configs/ces.ini", sys.argv[2]
parse_config(cfg)
seen = {"import": heavy_modules(), "rc": []}
panel = out + "/panel.csv"
for name, argv in (
    ("verify", ["verify", panel]),
    ("simulate", ["simulate"]),
    ("diagnose", ["diagnose", panel]),
    ("estimate quantity", ["estimate", panel, "--mode", "quantity"]),
    ("estimate revenue", ["estimate", panel, "--mode", "revenue"]),
):
    seen["rc"].append(main(["--log-level", "WARNING", *argv, "--config", cfg, "--out", out]))
    seen[name] = heavy_modules()
seen["loaded"] = sorted({m.partition(".")[0] for m in sys.modules})
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def command_imports(tmp_path_factory):
    """What the five commands import, run in turn in a fresh interpreter (this one has imported scipy already).

    verify runs first, on a panel simulated here, so that it is seen before simulate loads the panel writer.
    """
    out = tmp_path_factory.mktemp("imports")
    assert main(["simulate", "--config", str(ROOT / "configs" / "ces.ini"), "--out", str(out)]) == EXIT_OK
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GRAPH, str(Path(revprod.__file__).parents[1]), str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen.pop("rc") == [EXIT_OK] * 5
    return seen


def test_no_command_imports_scipy(command_imports):
    # every command's linear algebra and search run on numpy alone, so none loads scipy (about 0.3 s of a cold
    # start, and a second OpenBLAS whose thread pool competes with numpy's), and scipy is a test dependency only;
    # only writing a panel needs orjson, which simulate loads and which stays loaded for the commands after it;
    # artifacts are checked by the package's own validator, not jsonschema, and only once a command writes one
    seen = {name: modules for name, modules in command_imports.items() if name != "loaded"}
    after_simulate = ("simulate", "diagnose", "estimate quantity", "estimate revenue")
    validator = "revprod.validator"
    assert seen == {"import": [], "verify": [validator], **dict.fromkeys(after_simulate, ["orjson", validator])}


def test_declared_dependencies_are_what_the_commands_load(command_imports):
    # pyproject.toml declares every third-party module the package imports, at module level or inside a
    # function, and nothing that no command loads; each declared distribution installs a module of its name
    tomllib = pytest.importorskip("tomllib")
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", req)[0].lower().replace("-", "_")
        for req in tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["dependencies"]
    }
    imported = set()
    for path in Path(revprod.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    assert imported - set(sys.stdlib_module_names) <= declared
    assert declared <= set(command_imports["loaded"])
