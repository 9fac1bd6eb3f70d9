import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import modsym
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


def test_verify_gap_scan_determinism_is_sampled(monkeypatch):
    """The determinism check scans with a budget that samples, so it
    checks the seeded draws rather than an enumeration that ignores the
    seed, and holds the scan to one over tables drawn afresh."""
    from modsym import anosov, verify

    reports = []

    def recorded(*args, **kwargs):
        reports.append(cartan_gap_scan(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(anosov, "cartan_gap_scan", recorded)
    results = verify.run_suites(module_filter="anosov")
    check, = (r for r in results if r.name == "gap-scan-determinism")
    assert check.passed and "fresh f2_rng(4) draw" in check.detail
    assert len(reports) == 1 and not reports[0].enumerated


@pytest.mark.parametrize("seed", range(10))
def test_verify_anosov_suite_draws_from_its_seed(seed, monkeypatch, capsys):
    """``--seed`` reaches the anosov suite, the fifth, as seed + 4: its
    sampled scan and both of its windows draw from it, and it passes."""
    from modsym import anosov, modgroup

    drawn = []

    def scan(*args, **kwargs):
        drawn.append(kwargs["seed"])
        return cartan_gap_scan(*args, **kwargs)

    def window(n, seed):
        drawn.append(seed)
        return random_f2_geodesic(n, seed=seed)

    random_f2_geodesic = modgroup.random_f2_geodesic
    monkeypatch.setattr(anosov, "cartan_gap_scan", scan)
    monkeypatch.setattr(modgroup, "random_f2_geodesic", window)
    assert run_cli(["verify", "--filter", "anosov", "--seed", str(seed)]) == 0
    assert drawn == [seed + 4] * 3
    assert f"fresh f2_rng({seed + 4}) draw" in capsys.readouterr().out


def test_verify_gap_scan_determinism_fails_on_stale_tables(monkeypatch):
    """A scan whose cached tables are not its seed's draw fails the
    check, and the check leaves the cache as it was."""
    from modsym import anosov, verify

    def check():
        return next(r for r in verify.run_suites(module_filter="anosov")
                    if r.name == "gap-scan-determinism")

    assert check().passed
    before = anosov._scan_tables.cache_info()
    assert check().passed
    after = anosov._scan_tables.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits + 1, before.misses,
                                                          before.currsize)
    real = anosov._scan_tables

    def stale(max_len, budget, seed):
        return real(max_len, budget, None if seed is None else seed + 1)

    stale.__wrapped__ = real.__wrapped__
    monkeypatch.setattr(anosov, "_scan_tables", stale)
    assert not check().passed


def test_verify_fails_without_an_extended_longdouble(monkeypatch, capsys):
    from modsym import verify

    check, = (r for r in verify.run_suites(module_filter="charvar")
              if r.name == "longdouble-extended")
    assert check.passed
    monkeypatch.setattr(verify, "_longdouble_mantissa", lambda: 52)
    assert run_cli(["verify", "--filter", "charvar"]) == 1
    out = capsys.readouterr().out
    assert "FAIL charvar.longdouble-extended: longdouble mantissa 52 bits, need >= 63" in out


def test_verify_unknown_filter(capsys):
    assert run_cli(["verify", "--filter", "nonsense"]) == 2


@pytest.mark.parametrize("extra", [[], ["--filter", "anosov"]])
def test_verify_rejects_a_negative_seed(extra, capsys):
    """Every suite, including one that draws no random numbers."""
    with pytest.raises(SystemExit, match=r"^bad --seed -1; expected seed >= 0$"):
        run_cli(["verify", "--seed", "-1", *extra])
    assert capsys.readouterr().out == ""


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


# The default anosov-scan grid (s over 0.5:2:4, t over 1:8:4, theta 0.5),
# row by row: the verdict, c at the default max-len 8 with 20 000 samples
# and at max-len 10 with 50 000, and the straightness stats, which do not
# depend on the scan's depth.  Recorded from the CLI; a change that moves
# them changes what the scan reports.
_PINNED_SCAN = [
    ("inconclusive", 0.97117408856331444, 0.78760760357144799,
     2.0554752700083125, 3.5457198702764789),
    ("evidence-anosov", 3.3744073242655315, 6.8184176256215814,
     3.0106188845122679, 9.6553797397399226),
    ("evidence-anosov", 5.7413797225053758, 11.490304679269279,
     3.128881262350105, 16.249864665671485),
    ("evidence-anosov", 8.0781411945758848, 16.157021440514029,
     3.1403599967105587, 22.849479974933544),
    ("inconclusive", 1.0276849541518824, 0.82339854680245994,
     2.0814875314514865, 5.5851760999603473),
    ("evidence-anosov", 3.7730993980084944, 7.7978693676480191,
     2.94048414487873, 11.064008698195044),
    ("evidence-anosov", 6.2269848535641179, 12.480724588302742,
     3.1219981526287199, 17.65074809138175),
    ("evidence-anosov", 8.5724664822886911, 17.147547752845846,
     3.1396924583621528, 24.250297745329529),
    ("inconclusive", 1.9844351699394576, 4.9112812376849888,
     2.2819205412749, 7.990279505536356),
    ("evidence-anosov", 4.2415914778875754, 9.0455459725233958,
     2.8897669888893347, 12.847946239863386),
    ("evidence-anosov", 6.8406736705764928, 13.739500505812391,
     3.1171229757617525, 19.431081289129583),
    ("evidence-anosov", 9.2003793502523266, 18.40642551273617,
     3.139219738033185, 26.030621023100533),
    ("inconclusive", 2.788720847437498, 7.1816944835993795,
     2.5457392085718098, 10.600774815411594),
    ("evidence-anosov", 4.796144432287667, 10.545573737455584,
     2.8897853810668295, 14.973145037690474),
    ("evidence-anosov", 7.5778634285241688, 15.25117709598625,
     3.1175438268597082, 21.568879111227652),
    ("evidence-anosov", 9.9544559709659168, 19.91818805644165,
     3.1392609189169742, 28.168575420937536),
]


@pytest.mark.parametrize("extra, c_column", [
    ([], 1), (["--max-len", "10", "--samples", "50000"], 2),
])
def test_anosov_scan_default_grid_is_pinned(extra, c_column, tmp_path):
    out = tmp_path / "scan.csv"
    assert run_cli(["anosov-scan", *extra, "--out", str(out)]) == 0
    data = _csv_data(out)
    assert [row[3] for row in data] == [pin[0] for pin in _PINNED_SCAN]
    for row, pin in zip(data, _PINNED_SCAN):
        assert [float(v) for v in row[4:]] == pytest.approx(
            [pin[c_column], *pin[3:]], rel=1e-9, abs=0)


@pytest.mark.parametrize("extra, rows, words_sha256, c, big_c", [
    (["--max-len", "6"], 1456,
     "eaeeb8795a2a121bb2c5c0a6fb15bdc4df9d3238abe84e985f8f4d432660374f",
     2.084509295282257, -0.31530945014361222),
    (["--max-len", "8", "--samples", "2000", "--seed", "3"], 1160,
     "173c592a2783ef682ae791ecdd463b8a3b32724da019aacf03c2ef85e1970ce6",
     4.7623088471524211, 15.751487861077372),
])
def test_gap_table_is_pinned(extra, rows, words_sha256, c, big_c, tmp_path):
    """An enumerated and a sampled gap table at (0.8, 2, 0.5): the words,
    in order, and the fitted line of the footer."""
    gaps = tmp_path / "gaps.csv"
    run_cli(["anosov-scan", "--grid", "0.8:0.8:1,2:2:1,0.5:0.5:1", *extra,
             "--gap-table", str(gaps), "--out", str(tmp_path / "scan.csv")])
    data = _csv_data(gaps)
    assert len(data) == rows
    words = "\n".join(row[0] for row in data).encode()
    assert hashlib.sha256(words).hexdigest() == words_sha256
    footer = dict(field.split("=") for field in gaps.read_text().split("\n")[-2].split()[2:])
    assert [float(footer["c"]), float(footer["C"])] == pytest.approx([c, big_c], rel=1e-9, abs=0)


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


def test_anosov_scan_jobs_determinism_sampled(tmp_path):
    """Sampled scans (1456 words up to length 6 against 300 samples): each
    worker process builds its own table entry, as the two workers run
    before this process has scanned this configuration, and the bytes
    match one process."""
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    grid = "0.8:1:2,2:3:2,0.5:0.5:1"
    args = ["anosov-scan", "--grid", grid, "--max-len", "6", "--samples",
            "300", "--window", "6", "--seed", "5"]
    run_cli(args + ["--jobs", "2", "--out", str(out2)])
    run_cli(args + ["--out", str(out1)])
    assert out1.read_bytes() == out2.read_bytes()
    assert not cartan_gap_scan(rep_from_coords(Coordinates(0.8, 2.0, 0.5)), 6, 300, 5).enumerated


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
    ["rep-info", "--coords=1,1,0", "--word=xyz"],
    ["surface", "--s-grid=-1:0:3", "--theta-grid=0:1:2"],
    ["surface", "--s-grid=0:-0.5:2"],
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


def _strict_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity, which are not
    JSON (RFC 8259)."""
    def reject(token):
        raise ValueError(f"{token} is not a JSON number")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv, cells", [
    (["anosov-scan", "--grid", "0:0:1,0:0:1,0:0:1", "--max-len", "3", "--samples", "50"],
     {"minangle": "nan", "minspacing": "nan"}),
    (["surface", "--s-grid", "400:400:1", "--theta-grid", "0:0:1"], {"residual": "inf"}),
    (["surface", "--s-grid", "20000:20000:1", "--theta-grid", "0:0:1"],
     {"t": "nan", "residual": "nan"}),
])
def test_json_writes_non_finite_numbers_as_null(argv, cells, tmp_path, capsys):
    """JSON writes null where the CSV writes nan or inf."""
    csv_path = tmp_path / "rows.csv"
    run_cli([*argv, "--out", str(csv_path)])
    run_cli([*argv, "--format", "json"])
    row, = _strict_json(capsys.readouterr().out)["rows"]
    assert {k for k, v in row.items() if v is None} == set(cells)
    columns = csv_path.read_text().split("\n")[0].split(",")
    csv_row, = _csv_data(csv_path)
    assert {k: v for k, v in zip(columns, csv_row) if k in cells} == cells


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


def test_anosov_scan_window_underflow_keeps_the_row_and_a_json_summary(capsys):
    """At (0, 300, 0.7) the window underflows: the row keeps nan for its
    angle and spacing, and nothing but the summary reaches stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["anosov-scan", "--grid", "0:0:1,300:300:1,0.7:0.7:1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1] == (
        "0,300,0.69999999999999996,inconclusive,299.85615896377408,nan,nan")
    assert json.loads(captured.err)["rows"] == 1


def test_anosov_scan_gap_underflow_is_one_line(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["anosov-scan", "--grid", "0:0:1,400:400:1,0.7:0.7:1", "--max-len", "4",
                 "--samples", "500", "--window", "6"])
    assert str(exc.value) == (
        "anosov-scan at 0,400,0.69999999999999996: word product underflows the float64 range")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("extra", [["--jobs", "1"], ["--jobs", "2"], ["--gap-table"]])
def test_anosov_scan_point_error_is_one_line(extra, tmp_path, capsys):
    if extra == ["--gap-table"]:
        extra = extra + [str(tmp_path / "gaps.csv")]
    with pytest.raises(SystemExit) as exc:
        run_cli(["anosov-scan", "--grid", "1:1:1,800:800:1,0.5:0.5:1", "--max-len", "3",
                 "--samples", "100", *extra])
    assert str(exc.value) == (
        "anosov-scan at 1,800,0.5: factor matrix is outside the float64 range")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("option, value", [
    ("--seed", "-1"), ("--seed", str(2**64)), ("--window", "2"), ("--max-len", "0"),
    ("--samples", "0"), ("--jobs", "0"),
])
def test_anosov_scan_rejects_out_of_range_options(option, value, capsys):
    with pytest.raises(SystemExit, match=f"^bad {option} {value};"):
        run_cli(["anosov-scan", "--grid", "1:1:1,2:2:1,0.5:0.5:1", "--max-len", "3",
                 "--samples", "10", option, value])
    assert capsys.readouterr().out == ""


def test_jobs_starts_at_most_one_worker_per_task_and_cpu(monkeypatch, capsys):
    started, mapped = [], []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, rows):
            mapped.append(len(rows))
            return map(fn, rows)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert cli._map_rows(abs, [-1, 2, -3], 500) == [1, 2, 3]
    assert cli._map_rows(abs, list(range(-9, 0)), 500) == list(range(9, 0, -1))
    assert cli._map_rows(abs, [-1, 2, -3], 2) == [1, 2, 3]
    assert started == [3, 4, 2]
    # a one-point grid runs in this process, whatever --jobs asks for
    assert run_cli(["anosov-scan", "--grid", "1:1:1,2:2:1,0.5:0.5:1", "--max-len", "3",
                    "--samples", "10", "--jobs", "500"]) == 0
    assert started == [3, 4, 2]
    assert capsys.readouterr().out.count("\n") == 3
    # and a grid is cut into as many blocks as there are workers, not --jobs
    assert run_cli(["trace-table", "--jobs", "500"]) == 0
    assert started[3:] == [4] and mapped[3:] == [4]
    assert capsys.readouterr().out.count("\n") == 127


@pytest.mark.parametrize("option, message", [
    (["--peripheral-n", "3"], "bad --peripheral-n 3; expected at least 4"),
    (["--tol", "-1"], "bad --tol -1; expected tol >= 0"),
    (["--tol", "nan"], "bad --tol nan; expected tol >= 0"),
])
def test_rep_info_rejects_bad_options(option, message, monkeypatch, capsys):
    """Before anything is computed: the option, not the point, is at fault."""
    def fail(c):
        raise AssertionError("computed before checking the options")

    monkeypatch.setattr(cli.charvar, "rep_from_coords", fail)
    with pytest.raises(SystemExit) as exc:
        run_cli(["rep-info", "--coords", "1,6,0.5", *option])
    assert str(exc.value) == message
    assert capsys.readouterr().out == ""


def test_rep_info_out_of_float_range_is_one_line(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            run_cli(["rep-info", "--coords", "1,400,0.5"])
    assert str(exc.value) == (
        "rep-info at '1,400,0.5': trace of baba is outside the float64 range")
    assert capsys.readouterr().out == ""


def test_rep_info_past_float_range_of_the_representation_is_one_line(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            run_cli(["rep-info", "--coords", "1,800,0.5"])
    assert str(exc.value) == (
        "rep-info at '1,800,0.5': factor matrix is outside the float64 range")
    assert capsys.readouterr().out == ""


def test_python_m_modsym(capsys):
    argv = ["rep-info", "--coords", "1,6,0.5"]
    assert run_cli(argv) == 0
    src = str(Path(modsym.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "modsym", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == capsys.readouterr().out
