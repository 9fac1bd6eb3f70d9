"""The benchmark's workloads: inputs drawn from a seed, the timed calls
into modsym's public entry points, and the checks on their outputs.

Each workload is a list of tasks.  A task is one timed call that
completes a known number of items; one pass over the tasks is a unit,
which the runner repeats for as long as a run measures.  ``check`` reads
the outputs of one unit: a broken output contract raises ``CheckError``,
while known domain failures (a raised ``GeometryError``, a non-finite
value, a disagreement with the reference) are counted in the returned
``Tally``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from modsym import anosov, charvar, cli, highprec, modgroup
from modsym.errors import GeometryError
from modsym.flats import ModelInterval

# README bound on |numeric - closed form| for the trace of baba on the
# domain [0, 3]^2 x [0, 3.1] (the largest value today is 9.3e-10).
TRACE_RESIDUAL_BOUND = 1e-9

# Oracle tolerances, as tests/test_oracles.py applies them to the fast
# straightness report against highprec.straightness_stats.
DEFICIT_REL = 1e-4
SPACING_REL = 1e-12
TYPE_ABS = 1e-9
# A reference deficit below sqrt(machine eps) cannot be resolved in
# double precision; there the two deficits are compared absolutely.
DEFICIT_FLOOR = math.sqrt(np.finfo(float).eps)

VERDICTS = (anosov.EVIDENCE_ANOSOV, anosov.EVIDENCE_DEGENERATE, anosov.INCONCLUSIVE)
WINDOW = 10
THETA_INTERVAL = ModelInterval.symmetric(np.pi / 8.0)


class CheckError(Exception):
    """An output broke the program's contract."""


@dataclass
class Tally:
    """Operations attempted and failed, with the failures by kind."""

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] += 1

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.update(other.reasons)


@dataclass(frozen=True)
class Task:
    key: str
    items: int
    call: Callable[[], object]


def run_cli(argv: list[str]) -> tuple[str, str]:
    """cli.main in-process, returning what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        raise CheckError(f"modsym {argv[0]} exited with {exc.code}: {err.getvalue()}") from exc
    if code != 0:
        raise CheckError(f"modsym {argv[0]} returned {code}")
    return out.getvalue(), err.getvalue()


def _axis(lo: float, hi: float, n: int) -> str:
    return f"{float(lo)!r}:{float(hi)!r}:{n}"


def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    if len(lines) < 2 or lines[0] != header:
        raise CheckError(f"header is not {header!r}")
    if not lines[-1].startswith("# config="):
        raise CheckError("missing trailing '# config=' line")
    return [line.split(",") for line in lines[1:-1]]


def _floats(fields: list[str]) -> list[float]:
    try:
        return [float(v) for v in fields]
    except ValueError as exc:
        raise CheckError(f"unparsable number in {fields}") from exc


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


# -- scan ----------------------------------------------------------------------


def check_scan(stdout: str, stderr: str, points: int) -> Tally:
    """anosov-scan CSV plus its JSON summary; a row with a non-finite
    statistic is a failed operation."""
    rows = _csv_rows(stdout, "s,t,theta,verdict,c,minangle,minspacing")
    if len(rows) != points:
        raise CheckError(f"scan wrote {len(rows)} rows for {points} grid points")
    tally = Tally(attempted=points)
    counts = dict.fromkeys(VERDICTS, 0)
    for row in rows:
        if len(row) != 7 or row[3] not in VERDICTS:
            raise CheckError(f"bad scan row {row}")
        counts[row[3]] += 1
        if not _finite(_floats(row[:3] + row[4:])):
            tally.fail("scan:nonfinite")
    try:
        summary = json.loads(stderr)
    except json.JSONDecodeError as exc:
        raise CheckError("scan summary is not JSON") from exc
    if summary.get("rows") != points or summary.get("verdicts") != counts:
        raise CheckError("scan summary disagrees with its rows")
    return tally


class Scan:
    """anosov-scan in two passes: the CLI defaults, which enumerate every
    word up to length 8 at each point, and the README's deep setting
    (max-len 10, 50k seeded samples), which is also VerdictConfig().

    Each pass runs as one command per s-row of its grid, so a timed call
    lasts about 0.3 s and the reference samples around it (see
    run.Reference) see the same machine load.  ``default_grid_argv`` is
    the default pass as a single command, for the --jobs comparison."""

    name = "scan"
    item_roots = ("anosov.verdict",)

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng([seed, 1])
        s = (0.5 + rng.uniform(-0.1, 0.1), 2.0 + rng.uniform(-0.2, 0.2))
        t = (1.0 + rng.uniform(-0.2, 0.2), 8.0 + rng.uniform(-0.5, 0.5))
        theta = rng.uniform(0.3, 0.8)
        cli_seed = int(rng.integers(2**31))
        n, deep_n = (2, 1) if tiny else (4, 2)
        deep = ["3", "200"] if tiny else ["10", "50000"]
        shallow = ["4", "20000"] if tiny else ["8", "20000"]

        def argv(s_axis, points, length_samples):
            grid = ",".join([s_axis, _axis(*t, points), _axis(theta, theta, 1)])
            return ["anosov-scan", "--grid", grid, "--max-len", length_samples[0],
                    "--samples", length_samples[1], "--seed", str(cli_seed), "--jobs", "1"]

        self.default_grid_argv = argv(_axis(*s, n), n, shallow)
        self.argv, self.points = {}, {}
        for name, points, setting in (("default", n, shallow), ("deep", deep_n, deep)):
            for i, s_row in enumerate(np.linspace(*s, points)):
                key = f"{name}-row{i}"
                self.argv[key] = argv(_axis(s_row, s_row, 1), points, setting)
                self.points[key] = points
        self.tasks = [
            Task(key, self.points[key], lambda a=a: run_cli(a)) for key, a in self.argv.items()
        ]
        self.coords = [(s[0], t[0], theta), (s[1], t[1], theta)]
        self.cli_commands = list(self.argv.values())

    def warm_up(self) -> None:
        c = self.coords[0]
        grid = ",".join(_axis(v, v, 1) for v in c)
        run_cli(["anosov-scan", "--grid", grid, "--max-len", "4", "--samples", "200",
                 "--jobs", "1"])

    def check(self, outputs) -> Tally:
        tally = Tally()
        for key, (stdout, stderr) in outputs.items():
            tally.add(check_scan(stdout, stderr, self.points[key]))
        return tally


# -- tables --------------------------------------------------------------------


def check_trace_table(stdout: str, rows_expected: int) -> Tally:
    rows = _csv_rows(stdout, "s,t,theta,tr_baba_numeric,tr_baba_closed,residual")
    if len(rows) != rows_expected:
        raise CheckError(f"trace-table wrote {len(rows)} rows, expected {rows_expected}")
    tally = Tally(attempted=rows_expected)
    for row in rows:
        if len(row) != 6:
            raise CheckError(f"bad trace-table row {row}")
        vals = _floats(row)
        if not _finite(vals):
            tally.fail("trace-table:nonfinite")
            continue
        numeric, closed, residual = vals[3:]
        if residual != abs(numeric - closed):
            raise CheckError(f"residual column is not |numeric - closed| in {row}")
        if residual > TRACE_RESIDUAL_BOUND:
            raise CheckError(f"trace residual {residual:.3e} exceeds {TRACE_RESIDUAL_BOUND:.0e}")
    return tally


def check_surface(stdout: str, rows_expected: int) -> Tally:
    rows = _csv_rows(stdout, "s,theta,t,residual,status")
    if len(rows) != rows_expected:
        raise CheckError(f"surface wrote {len(rows)} rows, expected {rows_expected}")
    tally = Tally(attempted=rows_expected)
    for row in rows:
        if len(row) != 5 or row[4] != "ok":
            raise CheckError(f"surface row not ok: {row}")
        vals = _floats(row[:4])
        if not _finite(vals):
            tally.fail("surface:nonfinite")
        elif vals[3] > charvar.SURFACE_TOL:
            raise CheckError(f"surface residual {vals[3]:.3e} exceeds {charvar.SURFACE_TOL:.0e}")
    return tally


class Tables:
    """trace-table on a 20^3 grid and surface on a 100 x 100 grid, with
    bounds jittered inside the README domain [0, 3]^2 x [0, 3.1].  The
    trace table runs as one command per s-row (400 rows, about 70 ms), for
    the same reason as the scan's rows."""

    name = "tables"
    item_roots = ("charvar.rep_from_coords", "charvar.schwartz_t")

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng([seed, 2])
        lo = rng.uniform(0.0, 0.1, 3)
        hi = np.array([3.0, 3.0, 3.1]) - rng.uniform(0.0, 0.1, 3)
        n, m = (3, 3) if tiny else (20, 100)
        t_theta = ",".join(_axis(a, b, n) for a, b in zip(lo[1:], hi[1:]))
        self.argv, self.rows = {}, {}
        for i, s_row in enumerate(np.linspace(lo[0], hi[0], n)):
            key = f"trace-table-row{i}"
            self.argv[key] = ["trace-table", "--grid", f"{_axis(s_row, s_row, 1)},{t_theta}",
                              "--jobs", "1"]
            self.rows[key] = n * n
        self.argv["surface"] = ["surface", "--s-grid", _axis(lo[0], hi[0], m),
                                "--theta-grid", _axis(lo[2], hi[2], m)]
        self.rows["surface"] = m * m
        self.tasks = [
            Task(key, self.rows[key], lambda a=a: run_cli(a)) for key, a in self.argv.items()
        ]
        self.coords = [tuple(float(v) for v in (lo + hi) / 2), (float(hi[0]), float(hi[1]), float(lo[2]))]
        self.cli_commands = list(self.argv.values())

    def warm_up(self) -> None:
        s, t, theta = self.coords[0]
        run_cli(["trace-table", "--coords", f"{s!r},{t!r},{theta!r}"])
        run_cli(["surface", "--s-grid", _axis(s, s, 1), "--theta-grid", _axis(theta, theta, 1)])

    def check(self, outputs) -> Tally:
        tally = Tally()
        for key, (stdout, _) in outputs.items():
            check = check_surface if key == "surface" else check_trace_table
            tally.add(check(stdout, self.rows[key]))
        return tally


# -- geometry ------------------------------------------------------------------


@dataclass(frozen=True)
class GeoItem:
    s: float
    t: float
    theta: float
    window_seed: int
    oracle: bool


def _attempt(call, values_of):
    """(result, outcome) of one public call: 'ok', 'nonfinite' or the
    name of the GeometryError it raised."""
    try:
        out = call()
    except GeometryError as exc:
        return None, type(exc).__name__
    return out, "ok" if _finite(values_of(out)) else "nonfinite"


def oracle_disagreement(report: anosov.StraightnessReport, hp: dict) -> str | None:
    """Which quantity of the fast straightness report leaves the mpmath
    oracle, under the tolerances of tests/test_oracles.py; None if all agree."""
    if not _finite(hp["deficits"] + hp["spacings"] + hp["types"]):
        return "nonfinite"
    ref = max(hp["deficits"])
    fast = np.pi - report.min_zeta_angle
    tol = DEFICIT_FLOOR if ref < DEFICIT_FLOOR else DEFICIT_REL * ref
    if not abs(fast - ref) <= tol:
        return "deficit"
    ref_spacing = min(hp["spacings"])
    if not abs(report.min_spacing - ref_spacing) <= SPACING_REL * ref_spacing:
        return "spacing"
    if not (abs(report.type_min - min(hp["types"])) <= TYPE_ABS
            and abs(report.type_max - max(hp["types"])) <= TYPE_ABS):
        return "type"
    return None


def run_item(item: GeoItem) -> tuple:
    """The four fast-path calls on one window, plus the oracle comparison
    on oracle items.  Returns ((call, outcome), ...) followed by the
    headline values, as one comparable tuple."""
    rep = charvar.rep_from_coords(charvar.Coordinates(item.s, item.t, item.theta))
    window = modgroup.random_f2_geodesic(WINDOW, item.window_seed)
    tri, tri_out = _attempt(lambda: anosov.triangle_report(rep),
                            lambda r: r.sides + r.angles)
    seq, seq_out = _attempt(lambda: anosov.midpoint_sequence(rep, window),
                            lambda r: (r.equidistance_defect,))
    if seq is None:
        report, report_out = None, "skipped"
    else:
        report, report_out = _attempt(
            lambda: anosov.straightness_report(seq, THETA_INTERVAL),
            lambda r: r.zeta_angles + r.spacings + (r.type_min, r.type_max))
    morse, morse_out = _attempt(
        lambda: anosov.morse_flat_check(rep, window, THETA_INTERVAL),
        lambda r: r.distances + tuple(v for pair in r.projections for v in pair))
    outcomes = [("triangle", tri_out), ("midpoints", seq_out),
                ("straightness", report_out), ("morse", morse_out)]
    if item.oracle:
        hp = highprec.straightness_stats(item.s, item.t, item.theta, window)
        if report_out != "ok":
            outcomes.append(("oracle", "unchecked"))
        else:
            outcomes.append(("oracle", oracle_disagreement(report, hp) or "ok"))
    values = (
        tri.angles if tri else None,
        seq.equidistance_defect if seq else None,
        (report.min_zeta_angle, report.min_spacing) if report else None,
        morse.max_distance if morse else None,
    )
    return tuple(outcomes), repr(values)


def tally_items(results) -> Tally:
    tally = Tally()
    for outcomes, _ in results:
        tally.attempted += len(outcomes)
        for call, out in outcomes:
            if out != "ok":
                tally.fail(f"{call}:{out}")
    return tally


def oracle_outcomes(outputs: dict) -> list[str]:
    """Outcomes of the oracle comparisons among one unit's geometry item
    outputs; CLI outputs have none."""
    return [out for value in outputs.values() if isinstance(value[0], tuple)
            for call, out in value[0] if call == "oracle"]


class Geometry:
    """Library calls per (s, t, theta, window seed) item, windows of length
    10, t stratified over [1, 20] so the far range, where morse stalls and
    the fast deficit leaves the oracle, is always in the mix; every
    ORACLE_EVERY-th item is checked against highprec."""

    name = "geometry"
    item_roots = ("bench.task",)
    ORACLE_EVERY = 8

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng([seed, 3])
        n = 3 if tiny else 80
        every = 3 if tiny else self.ORACLE_EVERY
        self.items = [
            GeoItem(
                s=float(rng.uniform(0.6, 1.6)),
                t=float(1.0 + 19.0 * (i + rng.uniform()) / n),
                theta=float(rng.uniform(0.3, 1.3)),
                window_seed=int(rng.integers(2**31)),
                oracle=i % every == every - 1,
            )
            for i in range(n)
        ]
        self.tasks = [
            Task(f"item{i}", 1, lambda it=it: run_item(it)) for i, it in enumerate(self.items)
        ]
        # the lowest t, where explicit double-precision points still exist
        self.coords = [(it.s, it.t, it.theta) for it in self.items[:2]]
        s, t, theta = self.coords[0]
        self.cli_commands = [["rep-info", "--coords", f"{s!r},{t!r},{theta!r}"]]

    def warm_up(self) -> None:
        first = self.items[0]
        run_item(GeoItem(first.s, first.t, first.theta, first.window_seed, oracle=True))

    def check(self, outputs) -> Tally:
        return tally_items(outputs.values())


WORKLOADS = {cls.name: cls for cls in (Scan, Tables, Geometry)}


def run_unit(wl, tracer=None, reference=None) -> tuple[dict, dict]:
    """One pass over the workload's tasks: (outputs, seconds) by task key.
    With a tracer, each task runs inside a ``bench.task`` span.  With a
    reference, the reference loop runs before the first task and after
    each one, and each task's wall is divided by the mean of the two
    reference walls around it."""
    outputs, seconds = {}, {}
    ref_before = reference() if reference else None
    for task in wl.tasks:
        start = time.perf_counter()
        if tracer is None:
            outputs[task.key] = task.call()
        else:
            with tracer.span("bench.task"):
                outputs[task.key] = task.call()
        seconds[task.key] = time.perf_counter() - start
        if reference:
            ref_after = reference()
            seconds[task.key] /= (ref_before + ref_after) / 2
            ref_before = ref_after
    return outputs, seconds


class Checker:
    """Checks every unit's outputs and that each repetition of one seed
    reproduces the first one exactly.

    The tally is that of the first unit.  Every later unit must equal it,
    so counting them would only scale the tally by the number of units
    that fit in the run's seconds; this way attempted and failed depend
    on the seed alone."""

    def __init__(self, wl):
        self.wl = wl
        self.first = None
        self.tally = Tally()

    def __call__(self, outputs: dict) -> None:
        tally = self.wl.check(outputs)
        if self.first is None:
            self.first, self.tally = outputs, tally
        elif outputs != self.first:
            changed = [k for k in outputs if outputs[k] != self.first[k]]
            raise CheckError(f"outputs of {changed} differ between repetitions of one seed")
