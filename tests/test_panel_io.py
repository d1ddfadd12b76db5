import numpy as np
import pytest

from revprod.panel_io import COLUMNS, Panel, PanelFormatError, read_panel_csv, write_panel_csv


def test_round_trip_bit_exact(small_cd_panel, tmp_path):
    path = tmp_path / "panel.csv"
    write_panel_csv(small_cd_panel, path)
    back = read_panel_csv(path)
    for c in COLUMNS:
        assert np.array_equal(small_cd_panel.col(c), back.col(c)), c


def test_revenue_only_file(small_cd_panel, tmp_path):
    data = {c: small_cd_panel.col(c) for c in COLUMNS}
    for c in ("omega", "eps", "Q", "P"):
        data[c] = None
    panel = Panel(data=data)
    path = tmp_path / "rev_only.csv"
    write_panel_csv(panel, path)
    back = read_panel_csv(path)
    assert not back.has("Q") and not back.has("omega")
    assert back.has("R")
    with pytest.raises(PanelFormatError):
        back.qstar


def test_malformed_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    lines = ["firm_id,t,K,L,M,pL,pM,pK,R,sL_star,sM_star",
             "1,1,1.0,1.0,1.0,1.0,1.0,1.0,2.0,0.3,0.3",
             "1,2,1.0,oops,1.0,1.0,1.0,1.0,2.0,0.3,0.3"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(PanelFormatError, match="line 3"):
        read_panel_csv(path)


def test_wrong_field_count_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    lines = ["firm_id,t,K,L,M,pL,pM,pK,R,sL_star,sM_star",
             "1,1,1.0,1.0,1.0,1.0,1.0,1.0,2.0,0.3"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(PanelFormatError, match="line 2"):
        read_panel_csv(path)


def test_missing_required_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("firm_id,t,K,L,M,pL,pM,pK,sL_star,sM_star\n")
    with pytest.raises(PanelFormatError, match="missing required"):
        read_panel_csv(path)


def test_unknown_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("firm_id,t,K,L,M,pL,pM,pK,R,sL_star,sM_star,extra\n")
    with pytest.raises(PanelFormatError, match="unknown columns"):
        read_panel_csv(path)


def test_nonpositive_quantity_rejected(small_cd_panel):
    data = {c: (None if small_cd_panel.col(c) is None else small_cd_panel.col(c).copy()) for c in COLUMNS}
    data["K"][0] = -1.0
    with pytest.raises(PanelFormatError, match="strictly positive"):
        Panel(data=data)


def test_duplicate_rows_rejected(small_cd_panel):
    data = {c: (None if small_cd_panel.col(c) is None else small_cd_panel.col(c).copy()) for c in COLUMNS}
    data["t"][1] = data["t"][0]
    with pytest.raises(PanelFormatError, match="duplicate"):
        Panel(data=data)


def test_unsorted_input_is_sorted(small_cd_panel):
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(small_cd_panel))
    data = {c: (None if small_cd_panel.col(c) is None else small_cd_panel.col(c)[perm]) for c in COLUMNS}
    panel = Panel(data=data)
    for c in COLUMNS:
        assert np.array_equal(panel.col(c), small_cd_panel.col(c)), c


def test_lag_index_respects_firm_boundaries(small_cd_panel):
    cur, lag = small_cd_panel.lag_index()
    fid = small_cd_panel.col("firm_id")
    t = small_cd_panel.col("t")
    assert np.all(fid[cur] == fid[lag])
    assert np.all(t[cur] == t[lag] + 1)
