"""modsym benchmark: run one workload on inputs drawn from a seed, check
the outputs, and print the metrics.

    python3 bench/run.py --workload {scan,tables,geometry} --seed N \\
        --seconds S --trace {0,1}

With ``--trace 0`` it prints the end-to-end metrics, measured with
tracing off; with ``--trace 1`` the per-layer metrics of the traced run.
The last line of standard output is the result object; the line before
it is a report with the runtime environment and the failures by kind,
also written to ``bench/out/``.  Exits 1 when an output breaks the
program's contract and 2 when the program's sources are missing.
"""

import os

# one BLAS thread, set before numpy loads here or in any child process
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# fresh interpreters timed per run for setup_s; the median is reported
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# The reference loop's wall on an uncontended core of the 2-vCPU x86-64
# machine the benchmark was tuned on.  It only sets the scale of the
# reported times; comparisons between runs use ratios.
REFERENCE_S = 0.0018

END_TO_END = {"items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


class ProgramMissing(Exception):
    pass


def load_program() -> None:
    """Import modsym from this checkout's sources and nowhere else."""
    init = SRC / "modsym" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no modsym sources at {init}")
    sys.path.insert(0, str(SRC))
    import modsym

    if Path(modsym.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"imported modsym from {modsym.__file__}, not {init}")


def git_sha() -> str | None:
    """Commit of the checkout, read from .git without running git; None
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import mpmath
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_sha": git_sha(),
    }


class Reference:
    """A fixed mix of interpreter work, small numpy calls and a batched
    SVD, independent of modsym, timed next to every measured call.

    Other tenants of a shared machine slow this process by up to 2x, for
    stretches of a minute at a time, and the slowdown hits pure-Python
    and numpy code alike.  A call's wall over the reference's wall around
    it cancels most of that; times are reported as that ratio times
    REFERENCE_S.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._batch = rng.standard_normal((400, 3, 3))
        self._step = rng.standard_normal((3, 3)) / 3.0
        self._np = np

    def __call__(self) -> float:
        np = self._np
        start = time.perf_counter()
        a, acc = np.eye(3), []
        for _ in range(300):
            a = a @ self._step
            a = a / np.abs(a).max()
            acc.append(float(a[0, 0]))
        np.linalg.svd(self._batch, compute_uv=False)
        sum(acc)
        return time.perf_counter() - start


def setup_seconds(args, reference: Reference) -> float:
    """Wall from starting a fresh interpreter to the first item being ready
    (import modsym, generate the inputs, warm up), in reference units."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    ref_before = reference()
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as child:
        ready = child.stdout.readline()
        wall = time.perf_counter() - start
        _, err = child.communicate(timeout=SETUP_TIMEOUT_S)
    if ready.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"setup child failed ({child.returncode}): {err.strip()}")
    return wall / ((ref_before + reference()) / 2) * REFERENCE_S


def end_to_end(wl, args, checker) -> tuple[dict, dict]:
    """Repeat the workload's unit for the run's seconds.  items_per_s is
    the items of one unit over the sum of each task's median time, in
    reference units."""
    import workloads

    reference = Reference()
    setups = [setup_seconds(args, reference) for _ in range(1 if args.tiny else SETUP_REPEATS)]
    ratios = {task.key: [] for task in wl.tasks}
    start = time.perf_counter()
    while not ratios[wl.tasks[0].key] or time.perf_counter() - start < args.seconds:
        outputs, secs = workloads.run_unit(wl, reference=reference)
        checker(outputs)
        for key, value in secs.items():
            ratios[key].append(value)
    task_s = {key: statistics.median(v) * REFERENCE_S for key, v in ratios.items()}
    items = sum(task.items for task in wl.tasks)
    tally = checker.tally
    values = {
        "items_per_s": items / sum(task_s.values()),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - tally.failed / tally.attempted,
    }
    detail = {
        "units": len(ratios[wl.tasks[0].key]),
        "items_per_unit": items,
        "task_median_s": task_s,
        "setup_samples_s": setups,
    }
    return values, detail


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("scan", "tables", "geometry"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    wl.warm_up()
    if args.setup_only:
        print("ready", flush=True)
        return 0

    checker = workloads.Checker(wl)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "environment": environment()}
    try:
        if args.trace:
            import tracing

            values, report["trace"] = tracing.traced_run(wl, args.seed, args.seconds,
                                                         checker, args.tiny, Reference())
            units = tracing.PER_LAYER
        else:
            values, report["detail"] = end_to_end(wl, args, checker)
            units = END_TO_END
        correct = True
    except workloads.CheckError as exc:
        print(f"bench: output check failed: {exc}", file=sys.stderr)
        values, units, correct = {}, {}, False
    tally = checker.tally
    report["fail_ratio"] = tally.failed / tally.attempted if tally.attempted else None
    report["failures"] = dict(tally.reasons)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({**report, "metrics": metrics}) + "\n")
    report.pop("trace", None)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} fail_ratio = {report['fail_ratio']} ({tally.failed}/{tally.attempted})")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": max(tally.attempted, 1),
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
