"""Benchmark of the stokesgreen package: whole workloads and each layer.

    python3 perfbench/run.py --workload evolve --seed 1 --seconds 10 --trace 0

Workloads: evolve, kernel_table, verify_full, resolvent_sweep (see
``bench_workloads``).  The package is imported from ``src/`` of the checkout
this file sits in, and driven in-process as a closed loop with one task in
flight.  BLAS/OpenMP thread pools are pinned to the CPUs this process may use.

``--trace 0`` reports the end-to-end metrics (tracing off); ``--trace 1``
alternates untraced and traced passes and reports per-layer metrics from the
traced ones.  Every task passes a correctness gate outside the timed region,
and each run feeds deliberately wrong results to every gate and requires
them to fail.  Human-readable lines come first; the last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from collections import Counter, defaultdict
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_PASSES = 2
SETUP_REPEATS = 5
# Machine-speed calibration (see ``calibrate``): after each measured interval
# the calibration job runs for CAL_SHARE of that interval (at least
# CAL_MIN_JOBS times).  CAL_REF_S is the job's time on an unloaded core of
# the machine the benchmark was made on (Xeon, 2 vCPUs under KVM).
CAL_SHARE = 0.25
CAL_MIN_JOBS = 3
CAL_REF_S = 0.0005
# The workloads slow down less than the calibration job when the machine is
# contended: a time is divided by slowdown ** CAL_EXPONENT.  0.7 gave the
# smallest spread over runs of all four workloads together (0.5-0.6 fits
# evolve and kernel_table best, 1.0 resolvent_sweep).
CAL_EXPONENT = 0.7
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0)

# per-layer metric groups: (metric prefix, report calls too)
GROUP_METRICS = (
    ("contours.lowfreq_nodes", True), ("contours.highfreq_nodes", True),
    ("contours.params", False),
    ("kernels.profiles", True), ("kernels.sample_green_function", False),
    ("kernels.verify_kernel_bounds", False), ("kernels.residual_kernel", True),
    ("actions.image_action", True), ("actions.hankel_apply", True),
    ("actions.laplace_weights", False),
    ("resolvent.apply", True), ("resolvent.check_resolvent_bound", False),
    ("biot_savart.curl_mode", False), ("biot_savart.roundtrip", False),
    ("solver.duhamel_solve", False),
    ("cli.cmd_kernel", False), ("cli.cmd_verify", False),
)
WORK_COUNTS = ("contours.nodes_built", "kernels.profiles.s_evals",
               "kernels.profiles.quad_evals", "actions.toeplitz_elements",
               "cli.bytes_written")
EVENTS = ("warnings.TruncationWarning", "warnings.StabilityWarning",
          "errors.QuadratureUnderresolved")


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)


def pin_threads() -> None:
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(nproc())


def import_package():
    sys.path.insert(0, str(SRC))
    import stokesgreen
    where = Path(stokesgreen.__file__).resolve().parent
    if where != (SRC / "stokesgreen").resolve():
        raise ImportError(f"stokesgreen imported from {where}, not from {SRC}")
    return stokesgreen


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import, build inputs and warm up, then exit (times setup_s)")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# measurement


def measure_setup(args) -> tuple[dict[str, list[float]], float]:
    """Wall times of fresh interpreters that import, build inputs and warm up.

    A bare interpreter that imports only numpy and scipy is timed alongside,
    alternating with the full probe.  Each probe is followed by a
    calibration; the machine's slowdown over all of them is returned too.
    """
    probes = {
        "full": [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--setup-probe"],
        "bare": [sys.executable, "-c", "import numpy, scipy"],
    }
    samples: dict[str, list[float]] = defaultdict(list)
    cal_s, cal_jobs = 0.0, 0
    for _ in range(SETUP_REPEATS):
        for kind, cmd in probes.items():
            start = time.perf_counter()
            proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=120)
            wall = time.perf_counter() - start
            if proc.returncode != 0:
                raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr}")
            spent, jobs = calibrate(wall)
            cal_s, cal_jobs = cal_s + spent, cal_jobs + jobs
            samples[kind].append(wall)
    return samples, slowdown(cal_s, cal_jobs)


def _cal_job() -> None:
    """Fixed work in the program's mix: array arithmetic and FFTs, many calls
    on short arrays, and interpreter bytecode."""
    import numpy as np
    import scipy.fft
    x = np.linspace(0.0, 1.0, 1 << 12)
    for _ in range(2):
        float(np.abs(scipy.fft.fft(np.exp(3.0j * x) * x)).sum())
    s = x[:21]
    for _ in range(60):
        s = np.sqrt(s * s + 1.0) - 0.5 * s
    acc = 0
    for i in range(2000):
        acc += i * i


def slowdown(cal_s: float, cal_jobs: int) -> float:
    """Factor by which times measured alongside this calibration are divided
    to give them at the reference machine speed."""
    return (cal_s / cal_jobs / CAL_REF_S) ** CAL_EXPONENT


def calibrate(busy_s: float) -> tuple[float, int]:
    """Time spent on, and number of, fixed calibration jobs run right now.

    Runs the job for at least ``CAL_SHARE * busy_s`` (and ``CAL_MIN_JOBS``
    times); called right after each measured interval of ``busy_s`` seconds.
    """
    n, spent = 0, 0.0
    while n < CAL_MIN_JOBS or spent < CAL_SHARE * busy_s:
        t0 = time.perf_counter()
        _cal_job()
        spent += time.perf_counter() - t0
        n += 1
    return spent, n


class PassResult:
    def __init__(self, traced: bool):
        self.traced = traced
        self.latencies: list[tuple[str, float]] = []
        self.cal_s = 0.0  # calibration jobs run after the pass's tasks
        self.cal_jobs = 0
        self.recording = None

    @property
    def wall(self) -> float:
        return sum(lat for _, lat in self.latencies)

    @property
    def slowdown(self) -> float:
        return slowdown(self.cal_s, self.cal_jobs)


def wall_ref(passes) -> float:
    """Mean pass wall time at the reference machine speed.

    The machine's speed flips within a second and drifts over minutes, so
    the slowdown is taken over all calibration jobs of these passes.  With
    two to four passes a run, their mean repeats better than their median.
    """
    cal = slowdown(sum(p.cal_s for p in passes), sum(p.cal_jobs for p in passes))
    return statistics.fmean(p.wall for p in passes) / cal


def run_passes(workload, seconds, tracer, Recording):
    """Closed loop over the workload's jobs until ``seconds`` have passed.

    A pass's wall time is the sum of its task latencies.  Between tasks, with
    the clock stopped, the machine's speed is measured and digests (and with
    them the gates' inputs) are taken.  With a tracer, odd passes are traced
    and even passes run unwrapped.
    """
    jobs = workload.jobs()
    keep = set(workload.selftest_tasks())
    passes: list[PassResult] = []
    records = []  # (task, record or None, exception text or None)
    raw_kept = {}
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        result = PassResult(traced=tracer is not None and len(passes) % 2 == 1)
        if result.traced:
            result.recording = Recording()
        ctx = tracer.record(result.recording) if result.traced else nullcontext()
        with ctx:
            for job, fn in jobs:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    t0 = time.perf_counter()
                    try:
                        with tracer.task() if result.traced else nullcontext():
                            out = fn()
                        failure = None
                    except Exception as exc:  # a failed task must not stop the run
                        out, failure = None, f"raised {type(exc).__name__}: {exc}"
                        traceback.print_exc(file=sys.stderr)
                    elapsed = time.perf_counter() - t0
                with tracer.paused() if tracer is not None else nullcontext():
                    spent, n = calibrate(elapsed)
                    result.cal_s += spent
                    result.cal_jobs += n
                    if result.traced:
                        for w in caught:
                            result.recording.counts[f"warnings.{w.category.__name__}"] += 1
                    if failure is not None:
                        names = workload.task_names(job)
                        for name in names:
                            result.latencies.append((name, elapsed / len(names)))
                            records.append((name, None, failure))
                        continue
                    for name, lat, raw in workload.split(job, out, elapsed):
                        result.latencies.append((name, lat))
                        records.append((name, workload.digest(name, raw), None))
                        if name in keep and name not in raw_kept:
                            raw_kept[name] = raw
        passes.append(result)
    return passes, records, raw_kept


def run_gates(workload, records, raw_kept):
    """Per-task failure reasons, and the gate self-test's findings."""
    try:
        workload.prepare_gate()
        gate_error = None
    except Exception as exc:
        gate_error = f"gate reference failed: {type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    outcomes = []
    for task, record, failure in records:
        if failure is not None:
            outcomes.append((task, [failure]))
        elif gate_error is not None:
            outcomes.append((task, [gate_error]))
        else:
            outcomes.append((task, workload.check(task, record)))
    selftest = []
    if gate_error is None:
        for task, raw in raw_kept.items():
            for what, bad, expect in workload.perturb(task, raw):
                reasons = workload.check(task, workload.digest(task, bad))
                caught = any(expect in r for r in reasons)
                selftest.append((task, what, caught, reasons))
    return outcomes, selftest, gate_error


def tail(latencies_ms):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(latencies_ms)
    for level in TAIL_LEVELS:
        if n * (1.0 - level / 100.0) >= 10:
            q = statistics.quantiles(latencies_ms, n=1000, method="inclusive")
            return level, q[int(round(level * 10)) - 1]
    return None, None


def layer_metrics(passes, gate_rec, group_of, layers):
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    n = len(traced)
    selfs: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: Counter = Counter()
    errors: Counter = Counter()
    for p in traced:
        rec = p.recording
        for name, s in rec.self_times().items():
            selfs[group_of(name)] += s
            selfs[name.split(".", 1)[0]] += s
        for name, c in rec.calls().items():
            calls[group_of(name)] += c
        counts.update(rec.counts)
        errors.update(rec.errors)
    m = {}
    for group, with_calls in GROUP_METRICS:
        if with_calls:
            m[f"{group}.calls"] = (calls[group] / n, "count")
        m[f"{group}.self_s"] = (selfs[group] / n, "s")
    for layer in layers:
        m[f"{layer}.self_s"] = (selfs[layer] / n, "s")
    m["bench.self_s"] = (selfs["bench"] / n, "s")
    m["trace.self_s"] = (selfs["trace"] / n, "s")
    for name in WORK_COUNTS:
        m[name] = (counts[name] / n, "count" if name != "cli.bytes_written" else "bytes")
    s_evals = counts["kernels.profiles.s_evals"]
    m["kernels.profiles.s_unique_frac"] = (
        counts["kernels.profiles.s_unique"] / s_evals if s_evals else 0.0, "ratio")
    gate_self = gate_rec.self_times()
    m["solver.crank_nicolson_oracle.self_s"] = (
        gate_self.get("solver.crank_nicolson_oracle", 0.0), "s")
    m["solver.cn_steps"] = (float(gate_rec.counts["solver.cn_steps"]), "count")
    for name in EVENTS:
        kind, cls = name.split(".")
        src = counts[name] if kind == "warnings" else errors[cls]
        m[name] = (src / n, "count")
    # at the reference machine speed, so that the difference is the tracing's
    traced_wall, untraced_wall = wall_ref(traced), wall_ref(untraced)
    covered = sum(selfs[layer] for layer in layers) / n
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.coverage"] = (covered / (sum(p.wall for p in traced) / n), "ratio")
    return m


def environment(args) -> dict:
    import numpy
    import scipy
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            commit = f"unknown ({type(exc).__name__})"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "nproc": nproc(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "commit": commit}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import stokesgreen from {SRC}: {exc}", file=sys.stderr)
        return 2
    import bench_trace
    import bench_workloads
    # the program's memory is what the process adds to this
    base_mb = _maxrss_mb()

    if args.workload not in bench_workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(bench_workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = bench_workloads.WORKLOADS[args.workload]
    (HERE / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
        if args.setup_probe:
            workload = cls(args.seed, Path(tmp))
            workload.warm_up()
            workload.close()
            return 0
        return run(args, cls, Path(tmp), bench_trace, base_mb)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args, cls, workdir, bench_trace, base_mb) -> int:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(args), sort_keys=True))
    _cal_job()  # imports and first-call costs of the calibration job
    # setup_s is an end-to-end metric; the traced run does not report it
    setup, setup_slow = ({}, None) if args.trace else measure_setup(args)

    workload = cls(args.seed, workdir)
    try:
        t0 = time.perf_counter()
        workload.warm_up()
        warm_s = time.perf_counter() - t0
        tracer = bench_trace.Tracer() if args.trace else None
        passes, records, raw_kept = run_passes(workload, args.seconds, tracer,
                                               bench_trace.Recording)
        peak_mb = _maxrss_mb()
        gate_rec = bench_trace.Recording()
        with tracer.record(gate_rec) if tracer is not None else nullcontext():
            outcomes, selftest, gate_error = run_gates(workload, records, raw_kept)
    finally:
        workload.close()

    failed = [(task, reasons) for task, reasons in outcomes if reasons]
    unexpected = sorted({task for task, _ in failed if task not in workload.known_defects})
    selftest_ok = bool(selftest) and all(caught for *_, caught, _ in selftest)

    print(f"in-process warm-up {warm_s:.3f} s")
    print(f"passes: {len(passes)} ({sum(p.traced for p in passes)} traced), "
          f"pass wall {', '.join(f'{p.wall:.3f}' for p in passes)} s, "
          f"slowdown {', '.join(f'{p.slowdown:.3f}' for p in passes)}")
    for task in sorted({t for t, _ in failed}):
        reasons = next(r for t, r in failed if t == task)
        runs = sum(1 for t, _ in failed if t == task)
        note = workload.known_defects.get(task, "NOT A KNOWN DEFECT")
        print(f"FAIL {task} x{runs}: {'; '.join(reasons)} [{note}]")
    for task, what, caught, reasons in selftest:
        print(f"gate self-test {task}: {what}: "
              f"{'caught' if caught else 'MISSED'} ({'; '.join(reasons) or 'passed'})")
    if gate_error:
        print(f"gate error: {gate_error}")

    # Times are reported as measured and at the reference machine speed:
    # divided by the slowdown of the calibration runs that followed them.
    untraced = [p for p in passes if not p.traced]
    slow = slowdown(sum(p.cal_s for p in untraced), sum(p.cal_jobs for p in untraced))
    lat_ms = [1e3 * lat for p in untraced for _, lat in p.latencies]
    attempted, n_failed = len(outcomes), len(failed)
    wall_s = wall_ref(untraced)
    p50_ms = statistics.median(lat_ms) / slow
    print(f"slowdown: {slow:.4f} over the passes"
          + (f", {setup_slow:.4f} over the setup probes" if setup else ""))
    if setup:
        for kind, vals in setup.items():
            print(f"setup probes {kind}: {', '.join(f'{v:.3f}' for v in vals)} s")
        full, bare = statistics.median(setup["full"]), statistics.median(setup["bare"])
        setup_s = (full - bare) / setup_slow
        print(f"setup_s: {setup_s:.4f} s at reference speed; measured: median probe "
              f"{full:.4f} s minus median bare numpy+scipy import {bare:.4f} s")
    print(f"wall_s: {wall_s:.4f} s at reference speed; measured: mean of "
          f"{len(untraced)} passes {statistics.fmean(p.wall for p in untraced):.4f} s")
    print(f"task_ms_p50: {p50_ms:.4f} ms at reference speed; measured "
          f"{statistics.median(lat_ms):.4f} ms over {len(lat_ms)} tasks")
    level, tail_ms = tail(lat_ms)
    if level is None:
        print(f"task_ms_tail: undefined, {len(lat_ms)} untraced tasks leave fewer "
              f"than ten beyond p{TAIL_LEVELS[-1]:g}")
    else:
        print(f"task_ms_tail: p{level:g} = {tail_ms / slow:.4f} ms at reference speed; "
              f"measured {tail_ms:.4f} ms over {len(lat_ms)} tasks")
    print(f"fail_frac: {n_failed}/{attempted} = {n_failed / attempted:.4f}"
          + (f" (known defects: {', '.join(sorted(workload.known_defects))})"
             if workload.known_defects else ""))
    print(f"peak_mem_mb: {peak_mb - base_mb:.3f} MB above the {base_mb:.3f} MB "
          f"after import (peak RSS {peak_mb:.3f} MB)")
    names = list(dict.fromkeys(n for n, _ in untraced[0].latencies))
    if len(names) <= 12:
        print("per-task median ms, measured: " + ", ".join(
            f"{name}={statistics.median(1e3 * lat for p in untraced for n, lat in p.latencies if n == name):.3f}"
            for name in names))
    print("no queue: one task in flight, so no layer has wait time")

    if args.trace:
        counts = [p.recording.counts for p in passes if p.traced]
        print(f"work counts identical across {len(counts)} traced passes: "
              f"{'yes' if all(c == counts[0] for c in counts) else 'NO'}")
        metrics = layer_metrics(passes, gate_rec, bench_trace.group_of, bench_trace.LAYERS)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "peak_mem_mb": (peak_mb - base_mb, "MB"),
        }
    correct = selftest_ok and gate_error is None and not unexpected
    result = {"correct": correct, "attempted": attempted, "failed": n_failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
