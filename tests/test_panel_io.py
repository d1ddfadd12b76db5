import csv
import hashlib
import io
import logging
import re
from pathlib import Path

import numpy as np
import pytest

from revprod import panel_io
from revprod.cli import EXIT_VALIDATION, main
from revprod.config import parse_config
from revprod.panel_io import COLUMNS, Panel, PanelFormatError, read_panel_csv, write_panel_csv
from revprod.simulate import SimConfig, simulate_panel
from revprod.technology import CobbDouglas

import test_simulate

ROOT = Path(__file__).resolve().parents[1]


def test_round_trip_bit_exact(small_cd_panel, tmp_path):
    path = tmp_path / "panel.csv"
    write_panel_csv(small_cd_panel, path)
    back = read_panel_csv(path)
    for c in COLUMNS:
        assert np.array_equal(small_cd_panel.col(c), back.col(c)), c


def _reference_bytes(panel) -> bytes:
    # one csv.writer row per firm-period, each value formatted on its own by str or repr
    present = [c for c in COLUMNS if panel.has(c)]
    fh = io.StringIO()
    writer = csv.writer(fh)
    writer.writerow(present)
    for i in range(len(panel)):
        writer.writerow(
            [str(int(panel.data[c][i])) if c in ("firm_id", "t") else repr(float(panel.data[c][i]))
             for c in present]
        )
    return fh.getvalue().encode("ascii")


@pytest.mark.parametrize("block_rows", [7, panel_io._WRITE_BLOCK_ROWS])
@pytest.mark.parametrize("optional", [True, False], ids=["all-columns", "revenue-only"])
def test_columnar_writer_matches_row_writer(small_ces_panel, tmp_path, monkeypatch, optional, block_rows):
    # a 7-row block makes the 480-row panel end in a partial block
    monkeypatch.setattr(panel_io, "_WRITE_BLOCK_ROWS", block_rows)
    data = {c: small_ces_panel.col(c) for c in COLUMNS}
    if not optional:
        for c in ("omega", "eps", "Q", "P"):
            data[c] = None
    panel = Panel(data=data)
    write_panel_csv(panel, tmp_path / "columnar.csv")
    assert (tmp_path / "columnar.csv").read_bytes() == _reference_bytes(panel)


def _edge_value_panel() -> Panel:
    # values at the edges of float formatting, then random finite bit patterns to fill each column
    n_rows = 8000
    edges = [0.0, 5e-324, 1e-310, np.nextafter(2.2250738585072014e-308, 0), 2.2250738585072014e-308,
             1.0, 100.0, 1e15, 9999999999999998.0, 2.0**53 + 2, 1.7976931348623157e308]
    for x in (1e-4, 1e16):  # where repr switches notation
        edges += [np.nextafter(x, 0), x, np.nextafter(x, np.inf)]
    edges = np.array(edges + [-x for x in edges])
    rng = np.random.default_rng(20261019)
    data = {"firm_id": np.arange(1, n_rows + 1), "t": np.ones(n_rows, dtype=np.int64)}
    for c in COLUMNS[2:]:
        bits = np.frombuffer(rng.bytes(16 * n_rows), dtype=float)
        values = np.concatenate([edges, bits[np.isfinite(bits)]])[:n_rows]
        if c not in ("omega", "eps"):
            values = np.abs(values)
            values[values == 0.0] = 5e-324
        data[c] = values
    return Panel(data=data)


def test_edge_values_match_repr_reference(tmp_path):
    # the formatter's notation must be repr's for every finite double, in whichever orjson is installed
    panel = _edge_value_panel()
    write_panel_csv(panel, tmp_path / "columnar.csv")
    assert (tmp_path / "columnar.csv").read_bytes() == _reference_bytes(panel)


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


def test_byte_order_mark_dropped(small_cd_panel, tmp_path, monkeypatch):
    # a spreadsheet's "CSV UTF-8" export starts with a UTF-8 byte-order mark, which is no part of the first name
    write_panel_csv(small_cd_panel, tmp_path / "panel.csv")
    (tmp_path / "bom").mkdir()
    bom = tmp_path / "bom" / "panel.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "panel.csv").read_bytes())
    plain = read_panel_csv(tmp_path / "panel.csv")
    for back in (read_panel_csv(bom).data, _row_read(bom, monkeypatch)):  # parsed by np.loadtxt, then by the csv loop
        for c in COLUMNS:
            assert back[c].dtype == plain.col(c).dtype and back[c].tobytes() == plain.col(c).tobytes(), c


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


def _row_read(path, monkeypatch) -> dict:
    # the columns of read_panel_csv's csv.reader loop, which it falls back on when np.loadtxt fails
    def fail(*args, **kwargs):
        raise ValueError("np.loadtxt disabled")

    with monkeypatch.context() as patch:
        patch.setattr(np, "loadtxt", fail)
        patch.setattr(panel_io, "_cached_rows", lambda *args: None)
        return read_panel_csv(path).data


def _cache_path(path) -> Path:
    return path.with_name(path.name + ".cache")


def _read(path, caplog, source) -> Panel:
    """read_panel_csv(path), checking from its debug line that the columns came from `source`."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="revprod.panel_io"):
        panel = read_panel_csv(path)
    assert f"{path}: columns {source}" in caplog.text
    return panel


def _assert_same_panel(panel, reference):
    assert len(panel) == len(reference)
    for c in COLUMNS:
        got, ref = panel.col(c), reference.col(c)
        if ref is None:
            assert got is None, c
        else:
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), c
            assert got.flags.c_contiguous, c


def _assert_same_columns(panel, reference):
    assert [c for c in COLUMNS if panel.has(c)] == [c for c in COLUMNS if c in reference]
    for c, ref in reference.items():
        got = panel.col(c)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), c


@pytest.mark.parametrize("config", ["configs/ces.ini", "configs/cd.ini", "perfbench/configs/cd-oracle.ini"])
def test_shipped_panels_read_bit_identical(config, tmp_path, monkeypatch, caplog):
    panel = simulate_panel(parse_config(ROOT / config).sim)
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    assert path.read_bytes() == _reference_bytes(panel)  # 5,000 rows, several write blocks
    back = _read(path, caplog, "read from the cache beside it")
    _assert_same_columns(back, _row_read(path, monkeypatch))
    _assert_same_columns(back, {c: panel.col(c) for c in COLUMNS if panel.has(c)})
    assert all(back.col(c).flags.c_contiguous for c in COLUMNS if back.has(c))
    _cache_path(path).unlink()
    _assert_same_panel(back, _read(path, caplog, "parsed"))


def _revenue_only(panel) -> Panel:
    return Panel(data={c: None if c in panel_io.OPTIONAL_COLUMNS else panel.col(c) for c in COLUMNS})


def _edge_panel(case) -> Panel:
    # the edge-case panels whose CSV bytes test_simulate pins, a revenue-only copy of one, one row and no rows
    if case == "revenue_only":
        return _revenue_only(_edge_panel("eta_dispersion"))
    if case in ("one_row", "no_rows"):
        n_firms = 1 if case == "one_row" else 0
        return simulate_panel(SimConfig(tech=CobbDouglas(0.25, 0.3, 0.4), n_firms=n_firms, n_periods=1, seed=1))
    return simulate_panel(SimConfig(**test_simulate.TestPanelBytes.CASES[case][0]))


@pytest.mark.parametrize("case", [*test_simulate.TestPanelBytes.CASES, "revenue_only", "one_row", "no_rows"])
def test_cached_read_equals_parsed_read(case, tmp_path, caplog):
    panel = _edge_panel(case)
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    assert path.read_bytes() == _reference_bytes(panel)  # a panel without rows is its header alone
    cache = _cache_path(path).read_bytes()
    # the cache is keyed by the CSV's own digest, so it names the pinned panel bytes
    assert cache[:32] == hashlib.sha256(path.read_bytes()).digest()
    if case in test_simulate.TestPanelBytes.CASES:
        assert cache[:32].hex() == test_simulate.TestPanelBytes.CASES[case][1]
    cached = _read(path, caplog, "read from the cache beside it")
    _assert_same_panel(cached, panel)
    _cache_path(path).unlink()
    _assert_same_panel(cached, _read(path, caplog, "parsed"))
    # a second write of the panel gives the same bytes, cache included
    write_panel_csv(panel, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
    assert (tmp_path / "again.csv.cache").read_bytes() == cache


def test_edited_csv_is_parsed_not_read_from_stale_cache(small_cd_panel, tmp_path, caplog):
    path = tmp_path / "panel.csv"
    write_panel_csv(small_cd_panel, path)
    lines = path.read_bytes().split(b"\r\n")
    header = lines[0].split(b",")
    row = lines[5].split(b",")
    k = header.index(b"K")
    edited = 2.0 * float(row[k])
    row[k] = repr(edited).encode()
    lines[5] = b",".join(row)
    path.write_bytes(b"\r\n".join(lines))
    back = _read(path, caplog, "parsed")
    assert back.col("K")[4] == edited
    expected = small_cd_panel.col("K").copy()
    expected[4] = edited
    assert back.col("K").tobytes() == expected.tobytes()


def _npy_v2(npy: bytes) -> bytes:
    """The array of a version-1.0 .npy file, written as version 2.0."""
    out = io.BytesIO()
    np.lib.format.write_array(out, np.lib.format.read_array(io.BytesIO(npy)), version=(2, 0))
    return out.getvalue()


# caches read_panel_csv must pass over, made from the panel's own cache and another panel's
_UNUSABLE_CACHES = {
    "truncated in the digest": lambda own, other: own[:20],
    "truncated after the digest": lambda own, other: own[:32],
    "truncated in the array": lambda own, other: own[: len(own) // 2],
    "garbage": lambda own, other: bytes(range(256)) * 8,
    "digest then a zip header": lambda own, other: own[:32] + b"PK\x03\x04" + bytes(64),
    "another panel's cache": lambda own, other: other,
    "digest then other columns": lambda own, other: own[:32] + other[32:],
    "empty": lambda own, other: b"",
    "digest then a version-2 array": lambda own, other: own[:32] + _npy_v2(own[32:]),
}


@pytest.mark.parametrize("case", [*_UNUSABLE_CACHES, "missing"])
def test_unusable_cache_gives_parsed_result(case, small_ces_panel, tmp_path, caplog):
    path = tmp_path / "panel.csv"
    write_panel_csv(small_ces_panel, path)
    # the other panel is the same rows without Q and P
    data = {c: small_ces_panel.col(c) for c in COLUMNS}
    data["Q"] = data["P"] = None
    write_panel_csv(Panel(data=data), tmp_path / "other.csv")
    if case == "missing":
        _cache_path(path).unlink()
    else:
        own, other = _cache_path(path).read_bytes(), (tmp_path / "other.csv.cache").read_bytes()
        _cache_path(path).write_bytes(_UNUSABLE_CACHES[case](own, other))
    _assert_same_panel(_read(path, caplog, "parsed"), small_ces_panel)


_REVENUE_HEADER = "firm_id,t,K,L,M,pL,pM,pK,R,sL_star,sM_star"
_GOOD_ROW = "1,1,1.0,1.0,1.0,1.0,1.0,1.0,2.0,0.3,0.3"


@pytest.mark.parametrize("body, message", [
    ([_GOOD_ROW, "1,2,1.0,oops,1.0,1.0,1.0,1.0,2.0,0.3,0.3"], "line 3: field L='oops' is not numeric"),
    (["1,1,1.0,1.0,1.0,1.0,1.0,1.0,2.0,0.3"], "line 2: expected 11 fields, got 10"),
    ([_GOOD_ROW, "1.5,2,1.0,1.0,1.0,1.0,1.0,1.0,2.0,0.3,0.3"], "line 3: field firm_id='1.5' is not numeric"),
    ([_GOOD_ROW, f"{10**23 - 1},2,1.0,1.0,1.0,1.0,1.0,1.0,2.0,0.3,0.3"], f"line 3: field firm_id='{10**23 - 1}' is outside the int64 range"),
    ([_GOOD_ROW, f"1,{2**63},1.0,1.0,1.0,1.0,1.0,1.0,2.0,0.3,0.3"], f"line 3: field t='{2**63}' is outside the int64 range"),
    ([_GOOD_ROW, "1,2,1.0,1.0,1.0,1.0,1.0,1.0,2.0,0.3,0.3 caf\xe9"], "not UTF-8: invalid continuation byte b'\\xe9'"),
], ids=["non-numeric", "short-row", "non-integral-firm-id", "23-digit-firm-id", "t-at-2**63", "latin-1-byte"])
def test_malformed_file_beside_stale_cache_names_line(body, message, small_cd_panel, tmp_path):
    # a revenue-only panel written at the same path leaves a cache whose dtype matches the
    # malformed file's header, so only the digest tells the two files apart
    path = tmp_path / "bad.csv"
    write_panel_csv(_revenue_only(small_cd_panel), path)
    assert _cache_path(path).exists()
    path.write_bytes(("\n".join([_REVENUE_HEADER, *body]) + "\n").encode("latin-1"))
    with pytest.raises(PanelFormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
        read_panel_csv(path)


def test_blank_lines_and_column_subset_read_as_before(small_cd_panel, tmp_path, monkeypatch):
    # a subset of the optional columns, in the file's own order, with blank lines
    data = {c: small_cd_panel.col(c) for c in COLUMNS}
    data["Q"] = data["P"] = None
    path = tmp_path / "subset.csv"
    write_panel_csv(Panel(data=data), path)
    lines = path.read_text().splitlines()
    lines[3:3] = ["", ""]
    path.write_text("\n".join(lines + [""]) + "\n")
    back = read_panel_csv(path)
    assert not back.has("Q") and not back.has("P") and back.has("omega")
    _assert_same_columns(back, _row_read(path, monkeypatch))
    _assert_same_columns(back, {c: v for c, v in data.items() if v is not None})


@pytest.mark.parametrize("firm_id", ["1.5", "1.0", "1e0", str(10**23 - 1), str(2**63)])
def test_non_integral_firm_id_names_line(tmp_path, caplog, firm_id):
    path = tmp_path / "bad.csv"
    lines = ["firm_id,t,K,L,M,pL,pM,pK,R,sL_star,sM_star",
             "1,1,1.0,1.0,1.0,1.0,1.0,1.0,2.0,0.3,0.3",
             f"{firm_id},2,1.0,1.0,1.0,1.0,1.0,1.0,2.0,0.3,0.3"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(PanelFormatError, match=f"line 3: field firm_id='{firm_id}'"):
        read_panel_csv(path)
    assert main(["verify", str(path), "--config", str(ROOT / "configs/cd.ini"), "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert "line 3" in caplog.text


def test_header_only_file_has_no_rows(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("firm_id,t,K,L,M,pL,pM,pK,R,sL_star,sM_star\n\n")
    back = read_panel_csv(path)
    assert len(back) == 0 and back.col("firm_id").dtype == np.int64


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


def test_duplicated_column_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    lines = ["firm_id,t,K,L,M,pL,pM,pK,R,sL_star,sM_star,R",
             "1,1,1.0,1.0,1.0,1.0,1.0,1.0,2.0,0.3,0.3,2.0"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(PanelFormatError, match=r"duplicated columns \['R'\]"):
        read_panel_csv(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(PanelFormatError, match=f"^{re.escape(str(path))}: empty file, expected a header row$"):
        read_panel_csv(path)


@pytest.mark.parametrize(
    "column, edit, message",
    [
        ("R", lambda v: v[:-1], r"^panel columns have unequal lengths: \[479, 480\]$"),
        ("omega", lambda v: np.where(np.arange(v.size) == 3, np.nan, v), "^column omega must be finite$"),
        ("eps", lambda v: np.where(np.arange(v.size) == 3, np.inf, v), "^column eps must be finite$"),
        ("K", lambda v: None, r"^panel missing required columns: \['K'\]$"),
        ("bogus", lambda v: np.ones(480), r"^unknown columns \['bogus'\]$"),
        ("bogus", lambda v: None, r"^unknown columns \['bogus'\]$"),
        ("firm_id", lambda v: v + 0.5, r"^column firm_id must be a 1-D array of int64, got float64 of shape \(480,\)$"),
        ("t", lambda v: v.astype(str), r"^column t must be a 1-D array of int64, got <U\d+ of shape \(480,\)$"),
        ("K", lambda v: v.reshape(-1, 1), r"^column K must be a 1-D array of float64, got float64 of shape \(480, 1\)$"),
        ("L", lambda v: v + 1j, r"^column L must be a 1-D array of float64, got complex128 of shape \(480,\)$"),
        ("M", lambda v: 3.0, r"^column M must be a 1-D array of float64, got float64 of shape \(\)$"),
    ],
    ids=["unequal_lengths", "omega_nan", "eps_inf", "required_none", "unknown", "unknown_none", "float_firm_id", "text_t", "2-d",
         "complex", "scalar"],
)
def test_malformed_columns_rejected(small_cd_panel, column, edit, message):
    # a float firm_id used to be written as an int; a required column given as None, or an unknown column, was accepted
    data = {c: small_cd_panel.col(c) for c in COLUMNS}
    data[column] = edit(data.get(column))
    with pytest.raises(PanelFormatError, match=message):
        Panel(data=data)


def test_rstar_needs_eps(small_cd_panel):
    data = {c: small_cd_panel.col(c) for c in COLUMNS}
    data["eps"] = None
    with pytest.raises(PanelFormatError, match="^Rstar requires the eps column$"):
        Panel(data=data).rstar


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


def _tiny(firm_id, t) -> dict:
    # the required columns for these (firm_id, t) rows, floats 1.0, 2.0, ...
    floats = {c: np.arange(1.0, len(t) + 1.0) for c in COLUMNS[2:] if c not in panel_io.OPTIONAL_COLUMNS}
    return {"firm_id": np.array(firm_id), "t": np.array(t), **floats}


def test_callers_dict_is_left_alone():
    data = {**_tiny([2, 1, 1], [1, 2, 1]), "Q": None}
    given = {c: v for c, v in data.items()}
    firm_id = data["firm_id"].copy()
    panel = Panel(data=data)
    assert data.keys() == given.keys() and all(data[c] is given[c] for c in given)
    assert data["firm_id"].tolist() == firm_id.tolist() == [2, 1, 1]
    assert panel.col("firm_id").tolist() == [1, 1, 2] and panel.col("t").tolist() == [1, 2, 1]
    assert panel.col("R").tolist() == [3.0, 2.0, 1.0]
    assert "Q" not in panel.data and panel.col("Q") is None and not panel.has("Q")


def test_list_columns_are_stored_as_arrays():
    panel = Panel(data={c: v.tolist() for c, v in _tiny([1, 1, 2], [1, 2, 1]).items()})
    cur, lag = panel.lag_index()
    assert cur.tolist() == [1] and lag.tolist() == [0]
    assert all(isinstance(v, np.ndarray) for v in panel.data.values())


def test_columns_are_stored_in_their_dtype(small_cd_panel):
    data = {c: small_cd_panel.col(c) for c in COLUMNS}
    data["firm_id"] = data["firm_id"].astype(np.int32)
    data["K"] = np.repeat(data["K"], 2)[::2]  # a strided view
    data["Q"] = None
    panel = Panel(data=data)
    assert list(panel.data) == [c for c in COLUMNS if c != "Q"]
    for c, v in panel.data.items():
        assert v.dtype == (np.int64 if c in ("firm_id", "t") else np.float64), c
        assert v.ndim == 1 and v.flags.c_contiguous, c
        assert np.array_equal(v, small_cd_panel.col(c)), c
    # a contiguous column of its dtype is stored as given, not copied
    for c in ("t", "L", "R", "omega"):
        assert np.shares_memory(panel.col(c), small_cd_panel.col(c)), c


def test_simulated_columns_are_stored_without_a_copy(small_cd_config, monkeypatch):
    from revprod import simulate

    given = []
    monkeypatch.setattr(simulate, "Panel", lambda data: given.append(data) or Panel(data=data))
    panel = simulate_panel(small_cd_config)
    assert [c for c in COLUMNS if panel.has(c)] == COLUMNS
    for c in COLUMNS:
        assert np.shares_memory(panel.col(c), given[0][c]), c


def _messy_data(rng) -> dict:
    # a panel as a caller may give it: int32 firm ids, rows shuffled, up to four optional columns None, three columns lists
    n_firms, n_periods = rng.integers(2, 6), rng.integers(1, 6)
    firm_id = np.repeat(rng.choice(10**6, n_firms, replace=False), n_periods).astype(np.int32)
    t = np.tile(np.arange(1, n_periods + 1) + rng.integers(-3, 3), n_firms).astype(np.int32)
    data = {"firm_id": firm_id, "t": t}
    for c in COLUMNS[2:]:
        data[c] = rng.standard_normal(t.size) if c in ("omega", "eps") else rng.lognormal(0.0, 3.0, t.size)
    perm = rng.permutation(t.size)
    data = {c: v[perm] for c, v in data.items()}
    for c in rng.choice(sorted(panel_io.OPTIONAL_COLUMNS), rng.integers(0, 5), replace=False):
        data[c] = None
    for c in rng.choice([c for c in COLUMNS[1:] if data[c] is not None], 3, replace=False):
        data[c] = data[c].tolist()
    return data


@pytest.mark.parametrize("seed", range(12))
def test_messy_panels_read_back_column_equal(seed, tmp_path, caplog):
    data = _messy_data(np.random.default_rng([20261020, seed]))
    panel = Panel(data=data)
    order = np.lexsort((np.asarray(data["t"]), np.asarray(data["firm_id"])))
    assert [c for c in COLUMNS if panel.has(c)] == [c for c in COLUMNS if data[c] is not None]
    for c in panel.data:
        assert np.array_equal(panel.col(c), np.asarray(data[c])[order]), c
    path = tmp_path / "panel.csv"
    write_panel_csv(panel, path)
    assert path.read_bytes() == _reference_bytes(panel)
    _assert_same_panel(_read(path, caplog, "read from the cache beside it"), panel)
    _cache_path(path).unlink()
    _assert_same_panel(_read(path, caplog, "parsed"), panel)
