"""Command-line front end.

Subcommands:
    verify        run the module property suites
    trace-table   numeric vs closed-form peripheral traces on a grid
    surface       sample the tr = -1 surface t(s, theta)
    anosov-scan   empirical verdicts over a coordinate grid
    rep-info      single-representation report as JSON

Grids are given as "lo:hi:n" triples joined by commas, e.g.
``--grid 0:3:20,0:3:20,0:3.1:20`` for (s, t, theta).  All outputs are
deterministic functions of the configuration and seed; CSV files end
with a comment line echoing the configuration hash.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import anosov, charvar, verify
from .errors import GeometryError

_FMT = "%.17g"


def _parse_axis(spec: str) -> np.ndarray:
    try:
        lo, hi, n = spec.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise SystemExit(f"bad axis spec {spec!r}; expected lo:hi:n") from exc
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise SystemExit(f"bad axis spec {spec!r}; bounds must be finite")
    if n < 1:
        raise SystemExit("axis must have at least one sample")
    return np.linspace(lo, hi, n)


def _parse_grid(spec: str, axes: int) -> list[np.ndarray]:
    parts = spec.split(",")
    if len(parts) != axes:
        raise SystemExit(f"expected {axes} comma-separated axes, got {len(parts)}")
    return [_parse_axis(p) for p in parts]


def _parse_coords(spec: str) -> charvar.Coordinates:
    try:
        s, t, theta = (float(v) for v in spec.split(","))
        return charvar.Coordinates(s, t, theta)
    except ValueError as exc:
        raise SystemExit(
            f"bad coordinates {spec!r}; expected finite s,t,theta with s, t >= 0") from exc


def _config_hash(config: dict) -> str:
    canon = ";".join(f"{k}={config[k]}" for k in sorted(config))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _json_cell(v):
    """A table cell as JSON writes it: a string as it is, a number as a
    float, and a non-finite number as None (null)."""
    return v if isinstance(v, str) else float(v) if np.isfinite(v) else None


def _emit_table(columns, rows, config, fmt, out, footer="") -> None:
    """Write ``rows`` as CSV or, when ``fmt`` is ``"json"``, as a JSON
    payload.  CSV prints strings as they are and numbers as ``%.17g``, with
    the column kinds read off the first row, and ends with a comment
    line holding the configuration hash and ``footer``.  JSON has no
    ``nan`` or ``inf``: it writes those numbers as null."""
    if fmt == "json":
        payload = {
            "config_hash": _config_hash(config),
            "rows": [{k: _json_cell(v) for k, v in zip(columns, row)} for row in rows],
        }
        _emit([json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)], out)
        return
    row_fmt = ",".join("%s" if isinstance(v, str) else _FMT for v in rows[0])
    lines = [",".join(columns)]
    lines.extend(row_fmt % tuple(row) for row in rows)
    lines.append(f"# config={_config_hash(config)}{footer}")
    _emit(lines, out)


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- verify ------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise SystemExit(f"bad --seed {args.seed}; expected seed >= 0")
    results = verify.run_suites(args.filter, args.tol, args.seed)
    if not results:
        print(f"no suite named {args.filter!r}", file=sys.stderr)
        return 2
    if args.format == "json":
        payload = [
            {"suite": r.suite, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ]
        print(json.dumps(payload, indent=2))
    else:
        for r in results:
            mark = "ok  " if r.passed else "FAIL"
            print(f"{mark} {r.suite}.{r.name}: {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


# -- trace table ---------------------------------------------------------------


def _grid_points(axes: list[np.ndarray]) -> np.ndarray:
    """The grid's points, one per row, first axis outermost."""
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def _coordinate_grid(spec: str) -> np.ndarray:
    """Points (s, t, theta) of a coordinate grid, one per row."""
    points = _grid_points(_parse_grid(spec, 3))
    if (points[:, :2] < 0).any():
        raise SystemExit(f"bad grid {spec!r}; s and t must be >= 0")
    return points


def _workers(jobs: int, tasks: int) -> int:
    """How many processes ``--jobs`` starts for ``tasks`` tasks: at most
    one per task and per CPU."""
    if jobs < 1:
        raise SystemExit(f"bad --jobs {jobs}; expected at least 1")
    return min(jobs, tasks, os.cpu_count() or 1)


def _map_rows(fn, rows, jobs: int):
    workers = _workers(jobs, len(rows))
    if workers <= 1:
        return [fn(r) for r in rows]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, rows))


# Grid commands evaluate at most this many points per batch, which bounds
# the memory of the batched arrays at any grid size.
_BLOCK_POINTS = 2048


def _map_blocks(fn, points: np.ndarray, jobs: int) -> list:
    """The rows ``fn`` makes of contiguous blocks of ``points`` (one point
    per row), in order; there are at least as many blocks as workers."""
    n_blocks = max(_workers(jobs, len(points)), -(-len(points) // _BLOCK_POINTS))
    blocks = np.array_split(points, n_blocks)
    return [row for rows in _map_rows(fn, blocks, jobs) for row in rows]


def _trace_block(points: np.ndarray) -> list:
    """Trace-table rows for a block of points (s, t, theta), evaluated as
    one batch."""
    s, t, theta = points.T
    theta = np.remainder(theta, np.pi)  # as Coordinates reduces it
    numeric = np.trace(charvar.matrices_at(s, t, theta, charvar.BABA),
                       axis1=-2, axis2=-1).astype(float)
    closed = charvar.trace_baba_closed_form(s=s, t=t, theta=theta).astype(float)
    return np.column_stack([points, numeric, closed, np.abs(numeric - closed)]).tolist()


def cmd_trace_table(args) -> int:
    if args.coords:
        c = _parse_coords(args.coords)
        points = np.array([[c.s, c.t, c.theta]])
    else:
        points = _coordinate_grid(args.grid)
    results = _map_blocks(_trace_block, points, args.jobs)
    config = {"cmd": "trace-table", "grid": args.coords or args.grid}
    columns = ("s", "t", "theta", "tr_baba_numeric", "tr_baba_closed", "residual")
    _emit_table(columns, results, config, args.format, args.out)
    max_res = max(row[5] for row in results)
    print(f"max residual {max_res:.3e} over {len(results)} rows", file=sys.stderr)
    return 0


# -- surface -----------------------------------------------------------------


def _surface_block(points: np.ndarray) -> list:
    """Rows (s, theta, t, residual, status) along the tr = -1 surface for a
    block of points (s, theta).  A row is ``ok`` only when t and the
    residual are finite and the residual is within ``charvar.SURFACE_TOL``;
    otherwise its status says why not."""
    s, theta = points.T
    tol = charvar.SURFACE_TOL
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            t = charvar.schwartz_t(s, theta)
            closed = charvar.trace_baba_closed_form(s=s, t=t, theta=theta)
            t = t.astype(float)
            residual = np.abs(closed.astype(float) + 1.0)
    except GeometryError as exc:
        t = residual = np.full(s.shape, np.nan)
        status = [f"error:{exc}"] * s.size
    else:
        reasons = ("ok", "error:t is not finite", "error:residual is not finite",
                   f"error:residual above SURFACE_TOL {tol:g}")
        codes = np.select([~np.isfinite(t), ~np.isfinite(residual), residual > tol],
                          [1, 2, 3], default=0)
        status = [reasons[k] for k in codes.tolist()]
    return list(zip(s.tolist(), theta.tolist(), t.tolist(), residual.tolist(), status))


def cmd_surface(args) -> int:
    axes = [_parse_axis(args.s_grid), _parse_axis(args.theta_grid)]
    if (axes[0] < 0).any():
        raise SystemExit(f"bad grid {args.s_grid!r}; s must be >= 0")
    rows = _map_blocks(_surface_block, _grid_points(axes), 1)
    config = {"cmd": "surface", "s_grid": args.s_grid, "theta_grid": args.theta_grid}
    columns = ("s", "theta", "t", "residual", "status")
    _emit_table(columns, rows, config, args.format, args.out)
    return 0


# -- anosov scan ---------------------------------------------------------------


def _verdict_row(task) -> tuple:
    s, t, theta, max_len, samples, window, seed = task
    cfg = anosov.VerdictConfig(max_len=max_len, samples=samples, window=window, seed=seed)
    try:
        v = anosov.anosov_verdict(charvar.Coordinates(s, t, theta), cfg)
    except GeometryError as exc:
        point = ",".join(_FMT % x for x in (s, t, theta))
        raise SystemExit(f"anosov-scan at {point}: {exc}") from exc
    return (
        s, t, theta, v.verdict,
        v.stats.get("slope_c", float("nan")),
        v.stats.get("min_zeta_angle", float("nan")),
        v.stats.get("min_spacing", float("nan")),
    )


def _write_gap_table(path: str, coords, max_len, samples, seed) -> None:
    rep = charvar.rep_from_coords(charvar.Coordinates(*coords))
    gaps = anosov.cartan_gap_scan(rep, max_len, samples, seed)
    config = {"cmd": "gap-table", "coords": coords, "max_len": max_len,
              "samples": samples, "seed": seed}
    rows = list(zip(gaps.words, gaps.lengths.tolist(), gaps.gap12.tolist(),
                    gaps.gap23.tolist()))
    footer = f" c={_FMT % gaps.slope_c} C={_FMT % gaps.intercept_C}"
    _emit_table(("word", "length", "gap12", "gap23"), rows, config, "csv", path, footer)


def _check_scan_options(args) -> None:
    if not 0 <= args.seed < 2**64:
        raise SystemExit(f"bad --seed {args.seed}; expected 0 <= seed < 2**64")
    if args.window < 3:
        raise SystemExit(f"bad --window {args.window}; straightness needs at least 3")
    if args.max_len < 1:
        raise SystemExit(f"bad --max-len {args.max_len}; expected at least 1")
    if args.samples < 1:
        raise SystemExit(f"bad --samples {args.samples}; expected at least 1")


def cmd_anosov_scan(args) -> int:
    _check_scan_options(args)
    tasks = [
        (*point, args.max_len, args.samples, args.window, args.seed)
        for point in _coordinate_grid(args.grid).tolist()
    ]
    if args.gap_table and len(tasks) != 1:
        raise SystemExit("--gap-table needs a single-point grid")
    results = _map_rows(_verdict_row, tasks, args.jobs)
    if args.gap_table:
        # after the verdict, which runs the same scan and so meets its errors first
        _write_gap_table(args.gap_table, tasks[0][:3], args.max_len, args.samples, args.seed)
    config = {
        "cmd": "anosov-scan", "grid": args.grid, "max_len": args.max_len,
        "samples": args.samples, "window": args.window, "seed": args.seed,
    }
    columns = ("s", "t", "theta", "verdict", "c", "minangle", "minspacing")
    _emit_table(columns, results, config, args.format, args.out)
    summary = {
        "config": config,
        "config_hash": _config_hash(config),
        "seed": args.seed,
        "rows": len(results),
        "verdicts": {
            name: sum(1 for r in results if r[3] == name)
            for name in (anosov.EVIDENCE_ANOSOV, anosov.EVIDENCE_DEGENERATE,
                         anosov.INCONCLUSIVE)
        },
    }
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.out:
        _emit([text], args.out + ".summary.json")
    else:
        print(text, file=sys.stderr)
    return 0


# -- rep info ------------------------------------------------------------------


def _rep_info(c: charvar.Coordinates, rep, args) -> dict:
    numeric = charvar.trace_of_word(rep, charvar.BABA)
    closed = float(charvar.trace_baba_closed_form(c))
    symm = charvar.trace_symmetry_check(rep)
    growth = anosov.peripheral_growth(rep, args.peripheral_n)
    info = {
        "coordinates": {"s": c.s, "t": c.t, "theta": c.theta},
        "fuchsian_class": charvar.fuchsian_classify(c, args.tol),
        "trace_baba": {
            "numeric": numeric,
            "closed_form": closed,
            "residual": abs(numeric - closed),
            "symmetry_residual": symm.residual,
        },
        "reducible": charvar.is_reducible(rep),
        "peripheral_growth": {"model": growth.model, "kappa": growth.kappa},
        "surface_t_at_s_theta": float(charvar.schwartz_t(c.s, c.theta)),
    }
    if abs(numeric + 1.0) <= charvar.SURFACE_TOL:
        report = charvar.trace_b2aba_bound_check(rep)
        info["trace_b2aba"] = {
            "numeric": report.numeric_trace,
            "bound_abs": charvar.B2ABA_TRACE_BOUND,
        }
    return info


def cmd_rep_info(args) -> int:
    if args.peripheral_n < 4:
        raise SystemExit(f"bad --peripheral-n {args.peripheral_n}; expected at least 4")
    if not args.tol >= 0:
        raise SystemExit(f"bad --tol {args.tol:g}; expected tol >= 0")
    c = _parse_coords(args.coords)
    try:
        # word literals use the alphabet a, b, B (= b^2), e.g. "baBa"
        word = charvar.normalize(args.word) if args.word else None
    except ValueError as exc:
        raise SystemExit(f"bad --word {args.word!r}; alphabet is a, b, B (= b^2)") from exc
    try:
        rep = charvar.rep_from_coords(c)
        info = _rep_info(c, rep, args)
    except GeometryError as exc:
        raise SystemExit(f"rep-info at {args.coords!r}: {exc}") from exc
    if word is not None:
        try:
            info["trace_word"] = {
                "word": str(word),
                "trace": charvar.trace_of_word(rep, word),
            }
        except GeometryError as exc:
            info["trace_word"] = {"word": str(word), "error": str(exc)}
    _emit([json.dumps(info, indent=2, sort_keys=True)], args.out)
    return 0


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="modsym", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run module property suites")
    p.add_argument("--filter", default=None,
                   help="run only this module's suite (symspace, flats, ...)")
    p.add_argument("--tol", type=float, default=None,
                   help="override every check tolerance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("trace-table", help="peripheral trace table over a grid")
    p.add_argument("--grid", default="0:3:5,0:3:5,0:3:5",
                   help="s,t,theta axes as lo:hi:n triples")
    p.add_argument("--coords", default=None, help="single point s,t,theta")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_trace_table)

    p = sub.add_parser("surface", help="sample the tr = -1 surface")
    p.add_argument("--s-grid", default="0:3:31")
    p.add_argument("--theta-grid", default="0:3.0:31")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("anosov-scan", help="verdict grid scan")
    p.add_argument("--grid", default="0.5:2:4,1:8:4,0.5:0.5:1")
    p.add_argument("--max-len", type=int, default=8, dest="max_len")
    p.add_argument("--samples", type=int, default=20_000)
    p.add_argument("--window", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.add_argument("--gap-table", default=None, dest="gap_table",
                   help="also write the per-word gap CSV (single-point grids)")
    p.set_defaults(func=cmd_anosov_scan)

    p = sub.add_parser("rep-info", help="single representation report")
    p.add_argument("--coords", required=True, help="s,t,theta")
    p.add_argument("--word", default=None,
                   help="also report the trace of this even word (alphabet a, b, B)")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--peripheral-n", type=int, default=64, dest="peripheral_n")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rep_info)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
