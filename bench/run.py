"""Benchmark of the polariton CLI pipelines.

    python3 bench/run.py --workload gsweep-c5 --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all

Runs one workload (or all of them, each in its own process) through
``polariton.cli.main`` for at least ``--seconds``, in whole rounds, then
checks the outputs against the reference physics in ``physics.py``.  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
A readable report goes to standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: Fresh interpreters started to time set-up; the median is reported.
SETUP_REPEATS = 3
#: Share of a run's rounds that may be slower (points_per_s) or costlier
#: (cpu_s) than the reported value.  On a shared host a share of rounds that
#: varies from run to run runs up to 1.7x faster than the rest, which moves
#: the median; the value 90% of rounds reach follows the slower floor.
TAIL_SHARE = 0.1

_SETUP_CODE = """\
import sys
from polariton.cli import load_config
for arg in sys.argv[1:]:
    command, _, path = arg.partition("=")
    load_config(path, command, [], None)
"""

UNITS = {"setup_s": "s", "points_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _cpu_seconds() -> float:
    """User + system CPU of this process and of every child it has waited for."""
    return sum(r.ru_utime + r.ru_stime for r in (resource.getrusage(resource.RUSAGE_SELF),
                                                 resource.getrusage(resource.RUSAGE_CHILDREN)))


def tail(values: list[float], higher_is_better: bool) -> float:
    """Nearest-rank value that all but ``TAIL_SHARE`` of ``values`` reach or
    beat (the worst value when there are fewer than 11)."""
    ordered = sorted(values, reverse=not higher_is_better)
    return ordered[int(TAIL_SHARE * (len(ordered) - 1))]


def measure_setup(wl: Workload) -> float:
    """Median wall time of a fresh interpreter importing polariton and
    loading and validating the workload's configs."""
    args = [f"{command}={path}" for command, path in wl.configs]
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_CODE, *args],
                       env={**os.environ, "PYTHONPATH": path}, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _call(cli, argv: list[str]) -> bool:
    """Run one CLI command; an escaping exception fails its points, not the run."""
    try:
        return cli.main(argv) == 0
    except Exception:
        traceback.print_exc()
        return False


def run_workload(wl: Workload, seconds: float, trace: bool,
                 rng: np.random.Generator) -> tuple[dict, list[str]]:
    """Measure ``wl`` for at least ``seconds`` in whole rounds; check its outputs.

    Returns the result object and the report lines.
    """
    wl.prepare()
    setup = None if trace else measure_setup(wl)
    from polariton import cli

    # First calls into BLAS and the integrators, at the smallest cutoff.
    small = ["--override", "truncation.n_a_max=2", "--override", "truncation.n_b_max=2",
             "--threads", "1", "--out", str(wl.rundir / "warmup")]
    for argv in wl.commands():
        _call(cli, argv + (small if argv[0] != "spectrum" else small[-2:]))

    notes = [f"workload {wl.name}: {len(wl.commands())} command(s), {wl.points()} points per round"]
    extra: list[str] = []
    workers = wl.workers
    if trace:
        tracer = Tracer(wl.rundir / "spans")
        tracer.install()
        if tracer.missing:
            notes.append(f"not traced (not found): {', '.join(tracer.missing)}")
        if workers > 1 and multiprocessing.get_start_method() != "fork":
            # workers would start without the wrappers: trace serially instead
            extra, workers = ["--threads", "1"], 1
            notes.append("pool workers are not forked here; the traced run is serial")

    rounds = []
    begin = time.perf_counter()
    while not rounds or time.perf_counter() - begin < seconds:
        shutil.rmtree(wl.out, ignore_errors=True)
        cpu, elapsed, ok = _cpu_seconds(), 0.0, []
        for argv in wl.commands():
            start = time.perf_counter()
            ok.append(_call(cli, argv + extra))
            elapsed += time.perf_counter() - start
        cpu = _cpu_seconds() - cpu
        rounds.append((elapsed, cpu, wl.failed(ok)))
    measured = time.perf_counter() - begin
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    problems = wl.check(rng)
    attempted = wl.points() * len(rounds)
    failed = sum(f for _, _, f in rounds)
    rates = sorted((wl.points() - f) / t for t, _, f in rounds)
    if trace:
        written = sum(p.stat().st_size for p in wl.out.rglob("*") if p.is_file())
        metrics = layer_metrics(tracer.collect(), len(rounds), workers, written)
    else:
        values = {
            "setup_s": setup,
            "points_per_s": tail(rates, higher_is_better=True),
            "cpu_s": tail([c for _, c, _ in rounds], higher_is_better=False),
            "peak_rss_mb": peak_kb / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    notes.append(f"{len(rounds)} round(s) in {measured:.1f} s; "
                 f"attempted {attempted}, failed {failed}; points/s per round "
                 f"min {rates[0]:.4g}, max {rates[-1]:.4g}")
    notes += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    notes += [f"CHECK FAILED: {p}" for p in problems[:20]]
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, notes


def _blas_threads() -> str:
    """Thread counts of the OpenBLAS libraries loaded in this process."""
    import ctypes
    found = []
    maps = Path("/proc/self/maps")
    libs = sorted({line.split()[-1] for line in maps.read_text().splitlines()
                   if "openblas" in line and ".so" in line}) if maps.exists() else []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found.append(f"{Path(lib).name}: {fn()}")
                break
    return "; ".join(found) or "unknown"


def metadata(wl: Workload) -> str:
    import scipy
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True).stdout.strip() or sha
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"git {sha}; numpy {np.__version__}; scipy {scipy.__version__}; "
            f"BLAS {blas.get('name')} {blas.get('version')}; nproc {os.cpu_count()} "
            f"(usable {len(os.sched_getaffinity(0))}); workers {wl.workers}; "
            f"BLAS threads {_blas_threads()}; start method {multiprocessing.get_start_method()}")


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    results, table = {}, []
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        results[name] = json.loads(lines[-1])
    for name, r in results.items():
        table.append(f"{name:10s} attempted {r['attempted']:6d}  failed {r['failed']:4d}  "
                     f"correct {str(r['correct']).lower()}")
        table += [f"{'':10s} {metric:32s} {m['value']:14.6g} {m['unit']}"
                  for metric, m in r["metrics"].items()]
    print("\n".join(table))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{metric}": m for name, r in results.items()
                    for metric, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    missing = [p for p in ("src/polariton/cli.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import polariton
    if Path(polariton.__file__).resolve().parent != ROOT / "src" / "polariton":
        print(f"error: imported polariton from {polariton.__file__}", file=sys.stderr)
        return 2
    rundir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](ROOT, rundir)
        result, notes = run_workload(wl, args.seconds, bool(args.trace),
                                     np.random.default_rng(args.seed))
        print("\n".join([metadata(wl), *notes]), file=sys.stderr)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            rundir.parent.rmdir()
        except OSError:  # another run still has its directory there
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
