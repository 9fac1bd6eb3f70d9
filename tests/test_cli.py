import json
import warnings

import numpy as np
import pytest

from modsym import cli
from modsym.anosov import VerdictConfig, anosov_verdict, cartan_gap_scan
from modsym.charvar import (
    BABA,
    SURFACE_TOL,
    Coordinates,
    matrix_of,
    rep_from_coords,
    schwartz_t,
    trace_baba_closed_form,
)


def run_cli(args):
    return cli.main(args)


def test_verify_default_passes(capsys):
    assert run_cli(["verify"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out


def test_verify_tolerance_injection_fails(capsys):
    assert run_cli(["verify", "--tol", "1e-30"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_filter(capsys):
    assert run_cli(["verify", "--filter", "symspace"]) == 0
    out = capsys.readouterr().out
    assert "symspace." in out and "flats." not in out


def test_verify_unknown_filter(capsys):
    assert run_cli(["verify", "--filter", "nonsense"]) == 2


def test_trace_table_single_point(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = run_cli(["trace-table", "--coords", f"0,{np.log(3) / 2},0",
                    "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "s,t,theta,tr_baba_numeric,tr_baba_closed,residual"
    fields = lines[1].split(",")
    assert float(fields[3]) == pytest.approx(-1.0, abs=1e-12)
    assert float(fields[5]) < 1e-12
    assert lines[-1].startswith("# config=")


def test_trace_table_grid_count_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    grid = "0:2:5,0:2:5,0:2:5"
    run_cli(["trace-table", "--grid", grid, "--out", str(out1)])
    run_cli(["trace-table", "--grid", grid, "--out", str(out2)])
    text1, text2 = out1.read_bytes(), out2.read_bytes()
    assert text1 == text2
    rows = text1.decode().strip().split("\n")
    assert len(rows) == 1 + 125 + 1  # header, grid rows, config comment


def test_trace_table_parallel_jobs_match(tmp_path):
    out1 = tmp_path / "serial.csv"
    out2 = tmp_path / "par.csv"
    grid = "0:1:3,0:1:3,0:1:3"
    run_cli(["trace-table", "--grid", grid, "--out", str(out1)])
    run_cli(["trace-table", "--grid", grid, "--jobs", "2", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_surface_rows(tmp_path):
    out = tmp_path / "s.csv"
    run_cli(["surface", "--s-grid", "0:2:5",
             "--theta-grid", f"0.5:{np.pi - 0.5!r}:2", "--out", str(out)])
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "s,theta,t,residual,status"
    data = [ln.split(",") for ln in lines[1:-1]]
    s0 = [row for row in data if float(row[0]) == 0.0]
    for row in s0:
        assert float(row[2]) == pytest.approx(np.log(3) / 2, abs=1e-12)
    for row in data:
        assert row[4] == "ok"
        assert float(row[3]) < 1e-12
    # theta and pi - theta give the same t (the trace depends on sin^2)
    by_s = {}
    for row in data:
        by_s.setdefault(row[0], []).append(float(row[2]))
    for vals in by_s.values():
        assert vals[0] == pytest.approx(vals[1], abs=1e-12)


def test_anosov_scan_and_summary(tmp_path):
    out = tmp_path / "scan.csv"
    code = run_cli(["anosov-scan", "--grid", "1:1:1,6:6:1,0.5:0.5:1",
                    "--max-len", "8", "--samples", "5000", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "s,t,theta,verdict,c,minangle,minspacing"
    assert "evidence-anosov" in lines[1]
    summary = json.loads((tmp_path / "scan.csv.summary.json").read_text())
    assert summary["rows"] == 1
    assert summary["verdicts"]["evidence-anosov"] == 1
    assert summary["seed"] == 0
    assert "config_hash" in summary


def test_rep_info_fixed_point(tmp_path):
    out = tmp_path / "info.json"
    assert run_cli(["rep-info", "--coords", "0,0,0", "--out", str(out)]) == 0
    info = json.loads(out.read_text())
    assert info["fuchsian_class"] == "both"
    assert info["trace_baba"]["numeric"] == pytest.approx(0.0, abs=1e-12)
    assert info["reducible"] is True
    assert info["peripheral_growth"]["model"] == "log"


def test_rep_info_on_surface_reports_b2aba(tmp_path, capsys):
    from modsym.charvar import schwartz_t

    t = float(schwartz_t(1.0, 0.5))
    assert run_cli(["rep-info", "--coords", f"1.0,{t!r},0.5"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert abs(info["trace_b2aba"]["numeric"]) >= 4.0 - 1e-6


def test_rep_info_word_trace(capsys):
    assert run_cli(["rep-info", "--coords", "0,0.5,0", "--word", "baBa"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["trace_word"]["word"] == "baBa"
    assert np.isfinite(info["trace_word"]["trace"])
    # odd words report the parity error instead of a trace
    run_cli(["rep-info", "--coords", "0,0.5,0", "--word", "bab"])
    info = json.loads(capsys.readouterr().out)
    assert "error" in info["trace_word"]


def test_anosov_scan_gap_table(tmp_path):
    out = tmp_path / "scan.csv"
    gaps = tmp_path / "gaps.csv"
    run_cli(["anosov-scan", "--grid", "0.8:0.8:1,2:2:1,0.5:0.5:1",
             "--max-len", "3", "--samples", "500",
             "--gap-table", str(gaps), "--out", str(out)])
    lines = gaps.read_text().strip().split("\n")
    assert lines[0] == "word,length,gap12,gap23"
    assert len(lines) == 1 + 2 * (3**3 - 1) + 1
    # mirror duality is visible in the table: gap12(x) = gap23(X)
    row_x = lines[1].split(",")
    row_xinv = lines[2].split(",")
    assert row_x[0] == "x" and row_xinv[0] == "X"
    assert float(row_x[2]) == pytest.approx(float(row_xinv[3]), abs=1e-10)
    with pytest.raises(SystemExit):
        run_cli(["anosov-scan", "--grid", "0.8:1:2,2:2:1,0.5:0.5:1",
                 "--gap-table", str(gaps)])


def test_bad_grid_spec():
    with pytest.raises(SystemExit):
        run_cli(["trace-table", "--grid", "bogus"])


def test_json_format_outputs(tmp_path, capsys):
    run_cli(["trace-table", "--coords", "1,1,0.5", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["rows"][0]["residual"] < 1e-9
    run_cli(["anosov-scan", "--grid", "1:1:1,6:6:1,0.5:0.5:1",
             "--max-len", "8", "--samples", "4000", "--format", "json",
             "--out", str(tmp_path / "scan.json")])
    payload = json.loads((tmp_path / "scan.json").read_text())
    assert payload["rows"][0]["verdict"] == "evidence-anosov"


def test_anosov_scan_jobs_determinism(tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    grid = "0.8:1:2,2:3:2,0.5:0.5:1"
    args = ["anosov-scan", "--grid", grid, "--max-len", "4", "--samples",
            "500", "--window", "6"]
    run_cli(args + ["--out", str(out1)])
    run_cli(args + ["--jobs", "2", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def _csv_data(path):
    lines = path.read_text().strip().split("\n")
    assert lines[-1].startswith("# config=")
    return [line.split(",") for line in lines[1:-1]]


def test_trace_table_grid_matches_scalar_route(tmp_path, monkeypatch):
    """The batched table equals, bit for bit, the per-point evaluation
    through rep_from_coords, matrix_of and the closed form; theta is
    printed as given and reduced mod pi only for the computation."""
    monkeypatch.setattr(cli, "_BLOCK_POINTS", 7)  # several uneven blocks
    out = tmp_path / "t.csv"
    run_cli(["trace-table", "--grid", "0:2.5:3,0:3:4,0:4.2:4", "--jobs", "2",
             "--out", str(out)])
    data = _csv_data(out)
    assert len(data) == 3 * 4 * 4
    points = [(s, t, th) for s in np.linspace(0, 2.5, 3) for t in np.linspace(0, 3, 4)
              for th in np.linspace(0, 4.2, 4)]
    assert any(th >= np.pi for _, _, th in points)
    for row, (s, t, theta) in zip(data, points):
        c = Coordinates(s, t, theta)
        numeric = float(np.trace(matrix_of(rep_from_coords(c), BABA)))
        closed = float(trace_baba_closed_form(c))
        assert [float(v) for v in row] == [s, t, theta, numeric, closed, abs(numeric - closed)]


def test_trace_table_single_point_and_json_match_scalar_route(tmp_path, capsys):
    c = Coordinates(0.3, 2.1, 4.5)
    numeric = float(np.trace(matrix_of(rep_from_coords(c), BABA)))
    closed = float(trace_baba_closed_form(c))
    expected = [c.s, c.t, c.theta, numeric, closed, abs(numeric - closed)]
    out = tmp_path / "p.csv"
    run_cli(["trace-table", "--coords", "0.3,2.1,4.5", "--out", str(out)])
    assert [float(v) for v in _csv_data(out)[0]] == expected
    capsys.readouterr()
    run_cli(["trace-table", "--coords", "0.3,2.1,4.5", "--format", "json"])
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert [row[k] for k in ("s", "t", "theta", "tr_baba_numeric", "tr_baba_closed",
                             "residual")] == expected


def test_surface_matches_scalar_route(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_BLOCK_POINTS", 5)
    out = tmp_path / "s.csv"
    run_cli(["surface", "--s-grid", "0:3:4", "--theta-grid", "0:4:3", "--out", str(out)])
    data = _csv_data(out)
    points = [(s, th) for s in np.linspace(0, 3, 4) for th in np.linspace(0, 4, 3)]
    assert len(data) == len(points)
    for row, (s, theta) in zip(data, points):
        t = schwartz_t(s, theta)
        res = abs(float(trace_baba_closed_form(s=s, t=t, theta=theta)) + 1.0)
        assert [float(v) for v in row[:4]] == [s, theta, float(t), res]
        assert row[4] == "ok"


@pytest.mark.parametrize("s", [8.0, 2750.0, 3000.0])
def test_surface_flags_rows_it_cannot_verify(s, tmp_path):
    out = tmp_path / "s.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_cli(["surface", "--s-grid", f"{s}:{s}:1", "--theta-grid", "0.5:0.5:1",
                 "--out", str(out)])
    (row,) = _csv_data(out)
    assert row[4].startswith("error:")
    t, residual = float(row[2]), float(row[3])
    assert not (np.isfinite(t) and residual <= SURFACE_TOL)


@pytest.mark.parametrize("argv", [
    ["trace-table", "--grid=-1:0:2,1:1:1,0:0:1"],
    ["trace-table", "--grid=1:1:1,0:-1:2,0:0:1"],
    ["trace-table", "--grid=nan:nan:1,1:1:1,0:0:1"],
    ["trace-table", "--grid=1:1:1,1:1:1,0:inf:2"],
    ["trace-table", "--coords=0,-1,0"],
    ["trace-table", "--coords=nan,1,0"],
    ["surface", "--s-grid=nan:1:2"],
    ["anosov-scan", "--grid=0:1:2,-1:1:2,0.5:0.5:1"],
    ["rep-info", "--coords=1,inf,0"],
])
def test_bad_coordinates_rejected(argv):
    with pytest.raises(SystemExit, match="bad "):
        run_cli(argv)


@pytest.mark.parametrize("max_len, samples", [(3, 500), (5, 100)])
def test_gap_table_rows_match_gap_scan(max_len, samples, tmp_path):
    gaps_path = tmp_path / "gaps.csv"
    run_cli(["anosov-scan", "--grid", "0.8:0.8:1,2:2:1,0.5:0.5:1", "--max-len", str(max_len),
             "--samples", str(samples), "--gap-table", str(gaps_path),
             "--out", str(tmp_path / "scan.csv")])
    r = cartan_gap_scan(rep_from_coords(Coordinates(0.8, 2.0, 0.5)), max_len, samples, 0)
    assert r.enumerated == (max_len == 3)
    lines = gaps_path.read_text().split("\n")
    assert lines[0] == "word,length,gap12,gap23" and lines[-1] == ""
    assert lines[1:-2] == [
        "%s,%d,%.17g,%.17g" % row for row in zip(r.words, r.lengths, r.gap12, r.gap23)
    ]
    assert lines[-2].startswith("# config=")
    assert lines[-2].endswith(" c=%.17g C=%.17g" % (r.slope_c, r.intercept_C))


def test_anosov_scan_rows_match_verdict(tmp_path):
    out = tmp_path / "scan.csv"
    run_cli(["anosov-scan", "--grid", "0:1:2,0:3:2,0.5:0.5:1", "--max-len", "4",
             "--samples", "500", "--window", "6", "--out", str(out)])
    cfg = VerdictConfig(max_len=4, samples=500, window=6, seed=0)
    expected = []
    for s, t in [(0.0, 0.0), (0.0, 3.0), (1.0, 0.0), (1.0, 3.0)]:
        v = anosov_verdict(Coordinates(s, t, 0.5), cfg)
        stats = [v.stats.get(k, float("nan")) for k in ("slope_c", "min_zeta_angle", "min_spacing")]
        expected.append(["%.17g" % x for x in (s, t, 0.5)] + [v.verdict]
                        + ["%.17g" % x for x in stats])
    assert _csv_data(out) == expected
    assert expected[0][-1] == "nan"  # the fixed point has no straightness stats


def test_surface_json_keeps_error_status(tmp_path, capsys):
    grid = ["--s-grid", "2:8:2", "--theta-grid", "0.5:0.5:1"]
    run_cli(["surface", *grid, "--out", str(tmp_path / "s.csv")])
    run_cli(["surface", *grid, "--format", "json"])
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["status"] for row in rows] == [
        "ok", f"error:residual above SURFACE_TOL {SURFACE_TOL:g}"]
    for row, csv_row in zip(rows, _csv_data(tmp_path / "s.csv")):
        assert [row[k] for k in ("s", "theta", "t", "residual")] == [
            float(v) for v in csv_row[:4]]
        assert row["status"] == csv_row[4]


def test_rep_info_out_equals_stdout(tmp_path, capsys):
    out = tmp_path / "info.json"
    argv = ["rep-info", "--coords", "1,2,0.5", "--word", "baBa"]
    run_cli(argv)
    printed = capsys.readouterr().out
    run_cli(argv + ["--out", str(out)])
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed


def test_anosov_scan_completes_at_large_scale(tmp_path):
    """At t=400 the peripheral word's entries pass the float64 range."""
    out = tmp_path / "scan.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_cli(["anosov-scan", "--grid", "1:1:1,400:400:1,0.5:0.5:1", "--max-len", "4",
                 "--samples", "500", "--window", "6", "--out", str(out)])
    (row,) = _csv_data(out)
    assert np.isfinite(float(row[4]))
