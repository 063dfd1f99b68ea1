"""Benchmark of convact driven from outside: one closed-loop client in one
process runs the workload's tasks back to back through `convact.cli.main`
and the public library functions.

    python3 perfbench/run.py --workload sdof_solve --seed 1 --seconds 30 --trace 0

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the same loop
with every other pair of tasks traced and prints the per-layer metrics. Each
metric is printed by name with its unit, then the last line holds the JSON
result `{"correct", "attempted", "failed", "metrics"}`. `--smoke` shrinks
every size so a full pass takes seconds. Run from the repository root; the
program is imported from `src/` and scratch files go to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

# numpy, scipy and convact are imported lazily: a probe's import time must
# include them, as a fresh `convact` command pays them.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 5
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "task_s_p50": "s",
    "task_s_tail": "s",
    "tasks_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sup_error": "1",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    p.add_argument("--probe", choices=("setup", "rss"), help=argparse.SUPPRESS)
    p.add_argument("--work-dir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class _Sink:
    """Swallows the CLI's progress lines so the benchmark's own output stays
    readable."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


# ---------------------------------------------------------------------------
# fresh-interpreter probes


def probe(args) -> int:
    """Child process: import convact and build the inputs (`setup`), or also
    run one task and report peak memory (`rss`)."""
    start = time.perf_counter()
    import convact  # noqa: F401

    import_s = time.perf_counter() - start
    import workloads

    work = Path(args.work_dir)
    wl = workloads.WORKLOADS[args.workload](args.seed, work, args.smoke)
    result = {"import_s": import_s}
    if args.probe == "rss":
        with redirect_stdout(_Sink()):
            rc, extra = wl.run_task(0, work / "out")
        outcome = wl.check(0, work / "out", rc, extra)
        result["failure"] = outcome.failure
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def run_probe(args, kind: str, work: Path) -> tuple[float, dict]:
    """Start a fresh interpreter in probe mode; return its wall time from
    launch to exit and its report."""
    work.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", kind,
           "--workload", args.workload, "--seed", str(args.seed), "--work-dir", str(work)]
    if args.smoke:
        cmd.append("--smoke")
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    wall = time.perf_counter() - start
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} probe failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return wall, json.loads(proc.stdout.strip().split("\n")[-1])


# ---------------------------------------------------------------------------
# environment block


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git (which would
    search the parent directories)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info(package) -> dict:
    """BLAS library of numpy or scipy and its current thread count, read
    from the OpenBLAS the package bundles (threads left at their default)."""
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (AttributeError, KeyError, TypeError):
        pass
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                info["threads"] = fn()
                return info
    return info


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_numpy": blas_info(numpy),
        "blas_scipy": blas_info(scipy),
        "blas_thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """Runs tasks one after another, times each, then checks its output."""

    def __init__(self, wl, out: Path):
        self.wl, self.out = wl, out
        self.attempted = 0
        self.failures: list[str] = []
        self.errors: list[float] = []

    def attempt(self, i: int, run=None) -> float:
        run = run or self.wl.run_task
        for f in self.out.glob("*"):
            f.unlink()
        self.attempted += 1
        rc, extra, failure = None, None, None
        start = time.perf_counter()
        try:
            with redirect_stdout(_Sink()):
                rc, extra = run(i, self.out)
        except Exception as exc:  # a task that raises is a failed task
            failure = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        if failure is None:
            try:
                outcome = self.wl.check(i, self.out, rc, extra)
            except (OSError, ValueError, IndexError) as exc:
                failure = f"output unreadable: {exc!r}"
            else:
                failure = outcome.failure
                if math.isfinite(outcome.error):
                    self.errors.append(outcome.error)
        if failure is not None:
            self.failures.append(f"task {i}: {failure}")
        return elapsed

    def min_tasks(self) -> int:
        # every configuration repeats at least once, so byte identity is checked
        return 2 * max(self.wl.pool_size, 2)


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value,
    percentile, sample count). With ten or fewer samples no such percentile
    exists and the maximum is reported at percentile 100."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def measure(args, min_tasks: int, step, n_probes: int, probe) -> list:
    """Closed loop: call step(i) for i = 1, 2, ... until `args.seconds` of
    loop time have passed and at least `min_tasks` steps ran. At n_probes
    evenly spaced points it pauses to call probe(k); probe time is not loop
    time. Spreading the probes over the window averages them over the
    machine's slower and faster spells (on a shared 2-vCPU VM a fixed Python
    loop swings by 40% over a few seconds) instead of sampling one spell."""
    samples = []
    paused = 0.0
    start = time.perf_counter()
    i = 1
    while True:
        elapsed = time.perf_counter() - start - paused
        if len(samples) < n_probes and elapsed >= len(samples) * args.seconds / n_probes:
            t = time.perf_counter()
            samples.append(probe(len(samples)))
            paused += time.perf_counter() - t
        elif i <= min_tasks or elapsed < args.seconds:
            step(i)
            i += 1
        else:
            return samples


def timed_run(args, loop: Loop, work: Path) -> tuple[dict, dict]:
    _, rss = run_probe(args, "rss", work / "rss")
    if rss.get("failure"):
        loop.failures.append(f"rss probe: {rss['failure']}")
    loop.attempt(0)  # warm-up: checked, not timed
    times = []
    setup = measure(
        args, loop.min_tasks(), lambda i: times.append(loop.attempt(i)),
        2 if args.smoke else SETUP_PROBES,
        lambda k: run_probe(args, "setup", work / f"setup{k}")[0],
    )
    value, pct, n = tail(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "task_s_p50": statistics.median(times),
        "task_s_tail": value,
        "tasks_per_s": len(times) / sum(times),
        "peak_rss_mb": rss["peak_rss_mb"],
        "sup_error": max(loop.errors) if loop.errors else math.nan,
    }
    detail = {
        "tasks_timed": n,
        "task_s_tail_percentile": pct,
        "setup_s_samples": setup,
        "task_s_samples": times,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, detail


def traced_run(args, loop: Loop, work: Path) -> tuple[dict, dict]:
    import tracing

    tracer = tracing.Tracer()
    counts: dict[str, list[float]] = {}
    traced, untraced, traced_ids = [], [], []

    def traced_task(i, out):
        tracer.task = i
        tracer.install()
        try:
            with tracer.span(tracing.TASK):
                return loop.wl.run_task(i, out)
        finally:
            tracer.uninstall()

    def step(i):
        # pairs alternate, so both halves see every configuration of a pool of two
        if (i // 2) % 2:
            traced.append(loop.attempt(i, traced_task))
            traced_ids.append(i)
            for name, value in task_counts(tracer.take_results(), loop.out).items():
                counts.setdefault(name, []).append(value)
        else:
            untraced.append(loop.attempt(i))

    loop.attempt(0)
    imports = measure(
        args, 2 * loop.min_tasks(), step, 1 if args.smoke else IMPORT_PROBES,
        lambda k: run_probe(args, "setup", work / f"setup{k}")[1]["import_s"],
    )

    spans = tracer.spans
    times = tracing.layer_times(spans, traced_ids)
    metrics = {"import.s": (statistics.median(imports), "s")}
    for mod, attr in tracing.TRACED:
        name = f"{mod}.{attr}"
        suffix = "self_s" if name in tracing.CONTAINERS else "s"
        metrics[f"{name}.{suffix}"] = (times.get(name, 0.0), "s")
    metrics["grid.sample.calls"] = (tracing.span_counts(spans, "grid.sample", traced_ids), "count")
    for name, unit in COUNT_UNITS.items():
        metrics[name] = (statistics.median(counts[name]), unit)
    p50_traced, p50_untraced = statistics.median(traced), statistics.median(untraced)
    metrics["trace.task_s_p50"] = (p50_traced, "s")
    metrics["trace.overhead_s"] = (p50_traced - p50_untraced, "s")

    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps([s.__dict__ for s in spans]))
    detail = {
        "tasks_traced": len(traced),
        "tasks_untraced": len(untraced),
        "task_s_p50_untraced": p50_untraced,
        "bench_task_glue_s": times.get(tracing.TASK, 0.0),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, detail


COUNT_UNITS = {
    "cli.csv_bytes": "B",
    "stationarity.n_free": "count",
    "stationarity.K_nnz": "count",
    "stationarity.K_bytes": "B",
    "stationarity.condition": "1",
    "stationarity.gradient_norm": "1",
}


def task_counts(results: dict, out: Path) -> dict[str, float]:
    """Exact counts from the objects one traced task returned: the largest
    assembled system (a sweep assembles several), the worst solve report and
    the CSV bytes written."""
    import numpy as np

    forms = results.get("stationarity.assemble", [])
    reports = results.get("stationarity.solve_stationary", [])
    counts = dict.fromkeys(COUNT_UNITS, 0)
    counts["cli.csv_bytes"] = sum(f.stat().st_size for f in out.glob("*.csv"))
    if forms:
        K = max(forms, key=lambda qf: qf.n_free).K
        if hasattr(K, "indices"):  # scipy.sparse compressed storage
            nnz, nbytes = int(np.count_nonzero(K.data)), K.data.nbytes + K.indices.nbytes
        else:
            nnz, nbytes = int(np.count_nonzero(K)), K.nbytes
        counts.update({"stationarity.n_free": K.shape[0], "stationarity.K_nnz": nnz,
                       "stationarity.K_bytes": nbytes})
    if reports:
        counts["stationarity.condition"] = max(r.condition_estimate for r in reports)
        counts["stationarity.gradient_norm"] = max(r.gradient_norm for r in reports)
    return counts


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "convact" / "__init__.py").is_file():
        print(f"error: no convact sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe:
        return probe(args)

    import convact
    import workloads

    if Path(convact.__file__).resolve().parent != SRC / "convact":
        print(f"error: imported convact from {convact.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = OUT / f"run-{args.workload}-{os.getpid()}"
    (work / "out").mkdir(parents=True, exist_ok=True)
    try:
        loop = Loop(workloads.WORKLOADS[args.workload](args.seed, work, args.smoke), work / "out")
        run = traced_run if args.trace else timed_run
        metrics, detail = run(args, loop, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    print(f"workload {args.workload} seed {args.seed}: {workloads.WHY[args.workload]}")
    print("env " + json.dumps(env))
    print("closed loop, 1 client, " + ", ".join(f"{k}={v}" for k, v in detail.items()
                                                 if not k.endswith("_samples")))
    failed = len(loop.failures)
    print(f"failed_frac {failed / loop.attempted!r} ({failed} of {loop.attempted} tasks)")
    for line in loop.failures[:10]:
        print("  FAILED " + line)
    if args.trace:
        for name, (effect, where) in workloads.PREDICTIONS.items():
            print(f"predict {name} -> {effect} on {where}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    correct = failed == 0 and all(math.isfinite(v) for v, _ in metrics.values())
    result = {
        "correct": correct,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "env": env, "why": workloads.WHY[args.workload],
                    "predictions": workloads.PREDICTIONS, "detail": detail}, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
