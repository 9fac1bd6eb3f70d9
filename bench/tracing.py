"""The traced run: spans around modsym's public functions, installed from
outside the program by swapping module attributes, and the per-layer
metrics read off them.

A span is ``[id, parent, item, name, start_ns, end_ns, attrs]``; ids are
indices into ``Tracer.spans`` and the spans of one item share ``item``.
Spans stay in memory until the run ends.  Functions that a workload never
calls are timed by ``probe_layers`` on that workload's own coordinates,
so every per-layer metric has a value on every workload; the trace file
says which spans came from probes.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import weakref
from contextlib import contextmanager

from modsym import anosov, charvar, factored, flats, highprec, modgroup, symspace
from modsym.errors import GeometryError

import workloads

MAX_TRACED_PASSES = 3
RESIDUAL_PASSES = 3


class Tracer:
    def __init__(self, item_roots=()):
        self.spans: list[list] = []
        self.item = 0
        self.item_roots = frozenset(item_roots)
        self._stack: list[list] = []

    def _open(self, name: str) -> list:
        if name in self.item_roots:
            self.item += 1
        parent = self._stack[-1][0] if self._stack else None
        rec = [len(self.spans), parent, self.item, name, 0, 0, None]
        self.spans.append(rec)
        self._stack.append(rec)
        rec[4] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list, attrs) -> None:
        rec[5] = time.perf_counter_ns()
        rec[6] = attrs
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        attrs = None
        try:
            yield rec
        except BaseException as exc:
            attrs = {"error": type(exc).__name__}
            raise
        finally:
            self._close(rec, attrs)

    def wrap(self, fn, name, note=None, when=None, depth_limit=None):
        """fn inside a span.  ``note(result)`` gives the span's attributes;
        calls for which ``when(*args)`` is false, or made deeper than
        ``depth_limit`` open spans, pass through untraced."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if ((depth_limit is not None and len(self._stack) >= depth_limit)
                    or (when is not None and not when(*args))):
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(rec, {"error": type(exc).__name__})
                raise
            self._close(rec, note(out) if note else None)
            return out

        return traced

    @contextmanager
    def installed(self, targets):
        """Swap each target function, wherever a modsym module (or the
        owning class) binds it, for its traced wrapper; restore on exit."""
        namespaces = [m for n, m in sys.modules.items()
                      if n == "modsym" or n.startswith("modsym.")]
        undo = []
        try:
            for owner, attr, name, opts in targets:
                orig = getattr(owner, attr)
                traced = self.wrap(orig, name, **opts)
                for ns in [owner, *namespaces]:
                    for key, val in list(vars(ns).items()):
                        if val is orig:
                            setattr(ns, key, traced)
                            undo.append((ns, key, orig))
            yield
        finally:
            for ns, key, orig in reversed(undo):
                setattr(ns, key, orig)

    def with_self_time(self, spans=None) -> list[list]:
        """Spans as ``[id, parent, item, name, start_ns, end_ns, self_ns, attrs]``."""
        spans = self.spans if spans is None else spans
        child_ns = dict.fromkeys((s[0] for s in spans), 0)
        for s in spans:
            if s[1] in child_ns:
                child_ns[s[1]] += s[5] - s[4]
        return [s[:6] + [s[5] - s[4] - child_ns[s[0]], s[6]] for s in spans]


def _gap_note(report) -> dict:
    """Word count and the bytes of the batch arrays the scan computes per
    word: two 3x3 float64 stacks and two float64 log-scales, plus the
    int64 letter table when it samples.  Computed, not measured."""
    words = len(report.words)
    letters = 0 if report.enumerated else int(report.lengths.sum())
    return {"enumerated": bool(report.enumerated), "words": words,
            "bytes": words * (2 * 9 * 8 + 2 * 8) + 8 * letters}


def _first_call_per_rep():
    """Representation.f2_generators caches per instance: trace only the
    first call on each one, which computes."""
    seen = weakref.WeakSet()

    def when(rep):
        if rep in seen:
            return False
        seen.add(rep)
        return True

    return when


def full_targets():
    """(owner, attribute, span name, wrap options) for every public call
    a per-layer metric reads."""
    named = [
        (anosov, "anosov_verdict", "anosov.verdict"),
        (anosov, "peripheral_growth", "anosov.peripheral"),
        (anosov, "midpoint_sequence", "anosov.midpoints"),
        (anosov, "straightness_report", "anosov.straightness"),
        (anosov, "triangle_report", "anosov.triangle"),
        (anosov, "morse_flat_check", "anosov.morse"),
        *[(factored, f, f"factored.{f}")
          for f in ("fcompose", "fact", "seg_frame", "fmidpoint", "fdistance")],
        (flats, "flat_project", "flats.flat_project"),
        (flats, "zeta_angle", "flats.zeta_angle"),
        (charvar, "rep_from_coords", "charvar.rep_from_coords"),
        (charvar, "matrix_of", "charvar.matrix_of"),
        (charvar, "trace_baba_closed_form", "charvar.trace_closed_form"),
        (charvar, "schwartz_t", "charvar.schwartz_t"),
        (modgroup, "random_f2_geodesic", "modgroup.random_f2_geodesic"),
        (modgroup, "f2_to_mod", "modgroup.f2_to_mod"),
        (highprec, "straightness_stats", "highprec.straightness"),
        (symspace, "distance", "symspace.distance"),
    ]
    return [(owner, attr, name, {}) for owner, attr, name in named] + [
        (anosov, "cartan_gap_scan", "anosov.gap_scan", {"note": _gap_note}),
        (highprec, "default_dps", "highprec.default_dps",
         {"note": lambda dps: {"value": dps}}),
        (charvar.Representation, "f2_generators", "charvar.f2_generators",
         {"when": _first_call_per_rep()}),
    ]


def cli_targets():
    """Every public function of the modules the CLI calls into, traced
    only as a direct child of the command span."""
    return [
        (mod, name, f"{mod.__name__.split('.')[-1]}.{name}", {"depth_limit": 2})
        for mod in (anosov, charvar)
        for name, fn in vars(mod).items()
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_")
    ]


def _try(call):
    try:
        return call()
    except GeometryError:
        return None


def probe_layers(tracer: Tracer, coords, seed: int) -> list[str]:
    """One call of each traced function on each of the workload's probe
    coordinates; returns the oracle outcomes."""
    oracle = []
    for k, (s, t, theta) in enumerate(coords):
        item = workloads.GeoItem(s, t, theta, window_seed=seed + k, oracle=True)
        with tracer.span("bench.probe"):
            outcomes, _ = workloads.run_item(item)
            oracle += [out for call, out in outcomes if call == "oracle"]
            c = charvar.Coordinates(s, t, theta)
            rep = charvar.rep_from_coords(c)
            charvar.matrix_of(rep, charvar.BABA)
            charvar.trace_baba_closed_form(c)
            _try(lambda: charvar.schwartz_t(s, theta))
            anosov.cartan_gap_scan(rep, 8, 20_000, seed)      # enumerates, as the CLI default
            anosov.cartan_gap_scan(rep, 10, 50_000, seed)     # samples, as VerdictConfig()
            anosov.anosov_verdict(c, anosov.VerdictConfig(seed=seed))
            _try(lambda: _probe_explicit(tracer, rep))
    return oracle


def _probe_explicit(tracer: Tracer, rep) -> None:
    """Kernel and flats calls on the explicit orbit points x, bx, b^2 x
    (raises ConditioningError where x does not fit in double precision)."""
    x = rep.x
    bx = symspace.act(rep.rot, x)
    b2x = symspace.act(rep.rot, bx)
    for p in (x, bx, b2x):
        with tracer.span("symspace.point"):
            symspace.Point(p.mat)
    symspace.distance(x, bx)
    symspace.distance(bx, b2x)
    flats.zeta_angle(x, bx, b2x)
    flat = flats.flat_from_flags(flats.flag_of_sector(bx, x), flats.flag_of_sector(x, bx))
    flats.flat_project(b2x, flat)


# every per-layer metric with its unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "anosov.gap_scan_ms.enumerated": "ms",
    "anosov.gap_scan_ms.sampled": "ms",
    "anosov.gap_scan.words": "count",
    "anosov.gap_scan.bytes_computed": "B",
    "anosov.verdict_ms": "ms",
    "anosov.peripheral_ms": "ms",
    "anosov.midpoints_ms": "ms",
    "anosov.straightness_ms": "ms",
    "anosov.triangle_ms": "ms",
    "anosov.morse_ms": "ms",
    "anosov.morse.failed": "count",
    "factored.fcompose_us": "us",
    "factored.fact_us": "us",
    "factored.seg_frame_us": "us",
    "factored.fmidpoint_us": "us",
    "factored.fdistance_us": "us",
    "factored.oracle_agree_ratio": "ratio",
    "flats.flat_project_ms": "ms",
    "flats.zeta_angle_us": "us",
    "charvar.rep_from_coords_us": "us",
    "charvar.matrix_of_us": "us",
    "charvar.trace_closed_form_us": "us",
    "charvar.schwartz_t_us": "us",
    "charvar.f2_generators_us": "us",
    "modgroup.random_f2_geodesic_us": "us",
    "modgroup.f2_to_mod_us": "us",
    "highprec.straightness_ms": "ms",
    "highprec.dps": "digits",
    "symspace.point_us": "us",
    "symspace.distance_us": "us",
    "cli.residual_s": "s",
    "cli.jobs2_speedup": "ratio",
    "trace.overhead_ratio": "ratio",
}


_NS_TO = {"ms": 1e-6, "us": 1e-3}
# per-call timings named <span>_<unit><kind>; the kind splits gap scans
_KINDS = {"": None,
          ".enumerated": lambda attrs: attrs["enumerated"],
          ".sampled": lambda attrs: not attrs["enumerated"]}


def _select(spans, name, keep=None):
    return [s for s in spans if s[3] == name and (keep is None or keep(s[6]))]


def layer_metrics(pass_spans, passes: int, probe_spans) -> tuple[dict, dict]:
    """Metrics read off spans: the workload's own passes where it makes
    the call, else the probes.  Returns (values, source by metric)."""
    values, source = {}, {}

    def pick(name, keep=None):
        found = _select(pass_spans, name, keep)
        if found:
            return found, passes, "workload"
        return _select(probe_spans, name, keep), 1, "probe"

    for metric, unit in PER_LAYER.items():
        if unit in _NS_TO:
            name, _, kind = metric.partition(f"_{unit}")
            spans, _, source[metric] = pick(name, _KINDS[kind])
            values[metric] = statistics.median(s[5] - s[4] for s in spans) * _NS_TO[unit]
    scans, n, src = pick("anosov.gap_scan")
    values["anosov.gap_scan.words"] = sum(s[6]["words"] for s in scans) / n
    values["anosov.gap_scan.bytes_computed"] = sum(s[6]["bytes"] for s in scans) / n
    source["anosov.gap_scan.words"] = source["anosov.gap_scan.bytes_computed"] = src
    morse, n, source["anosov.morse.failed"] = pick("anosov.morse")
    values["anosov.morse.failed"] = sum(1 for s in morse if s[6]) / n
    dps, _, source["highprec.dps"] = pick("highprec.default_dps")
    values["highprec.dps"] = statistics.median(s[6]["value"] for s in dps)
    return values, source


def residual_seconds(wl) -> tuple[float, list]:
    """Self time of each CLI command span when only the command's direct
    calls into anosov and charvar are traced: parsing, formatting and
    writing.  Median over passes of the sum over the workload's commands."""
    tracer = Tracer()
    sums = []
    with tracer.installed(cli_targets()):
        for _ in range(RESIDUAL_PASSES):
            mark = len(tracer.spans)
            for argv in wl.cli_commands:
                with tracer.span(f"cli.{argv[0]}"):
                    workloads.run_cli(argv)
            spans = tracer.with_self_time(tracer.spans[mark:])
            sums.append(sum(s[6] for s in spans if s[1] is None) * 1e-9)
    return statistics.median(sums), tracer.with_self_time()


def jobs2_speedup(seed: int, tiny: bool) -> float:
    """Wall of the scan default grid at --jobs 1 over --jobs 2.  The CLI
    maps grid points with chunksize=16, so the 16-point grid is a single
    chunk and gains nothing; this records that, it does not change it."""
    argv = workloads.Scan(seed, tiny).default_grid_argv  # ends with --jobs 1
    walls = {"1": [], "2": []}
    outputs = set()
    for jobs in ("1", "2", "2", "1"):
        start = time.perf_counter()
        outputs.add(workloads.run_cli(argv[:-1] + [jobs]))
        walls[jobs].append(time.perf_counter() - start)
    if len(outputs) != 1:
        raise workloads.CheckError("anosov-scan output depends on --jobs")
    return statistics.median(walls["1"]) / statistics.median(walls["2"])


def traced_run(wl, seed: int, seconds: float, checker, tiny: bool, reference):
    """Alternate untraced and traced passes, then probe, residual and
    --jobs 2 measurements.  Pass times are in units of the reference loop
    (see run.Reference).  Returns (per-layer metrics, trace document)."""
    tracer = Tracer(wl.item_roots)
    untraced, traced = [], []
    first_pass = None
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start < seconds
                         and len(traced) < MAX_TRACED_PASSES):
        outputs, secs = workloads.run_unit(wl, reference=reference)
        checker(outputs)
        untraced.append(sum(secs.values()))
        first = len(tracer.spans)
        with tracer.installed(full_targets()):
            outputs, secs = workloads.run_unit(wl, tracer, reference)
        checker(outputs)
        traced.append(sum(secs.values()))
        first_pass = first_pass or (first, len(tracer.spans))
    mark = len(tracer.spans)
    with tracer.installed(full_targets()):
        probe_oracle = probe_layers(tracer, wl.coords, seed)
    values, source = layer_metrics(tracer.spans[:mark], len(traced), tracer.spans[mark:])

    oracle = workloads.oracle_outcomes(checker.first)
    source["factored.oracle_agree_ratio"] = "workload" if oracle else "probe"
    oracle = oracle or probe_oracle
    values["factored.oracle_agree_ratio"] = oracle.count("ok") / len(oracle)
    values["cli.residual_s"], cli_spans = residual_seconds(wl)
    values["cli.jobs2_speedup"] = jobs2_speedup(seed, tiny)
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    spans = tracer.with_self_time()
    doc = {
        "span_fields": ["id", "parent", "item", "name", "start_ns", "end_ns", "self_ns", "attrs"],
        # the first traced pass and the probes; later passes only feed the medians
        "pass_spans": spans[first_pass[0]:first_pass[1]],
        "probe_spans": spans[mark:],
        "cli_spans": cli_spans,
        "metric_source": source,
        "pass_time_over_reference": {"untraced": untraced, "traced": traced},
    }
    return {name: values[name] for name in PER_LAYER}, doc
