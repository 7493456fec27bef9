"""Layered fold benchmark for kinefold.

One workload, timed end to end (``--trace 0``) or per layer (``--trace 1``):

    python3 foldbench/run.py --workload helix15-vacuum --seed 0 --seconds 25 --trace 0

Every workload, one process each, as tables (add ``--out FILE`` for JSON):

    python3 foldbench/run.py --workload all --seed 0 --seconds 25 --trace 1

Run from a source checkout: the library is imported from ``src/`` next to
this directory.  A single-workload run prints its environment, its
metrics and any failed check, and as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
for the workloads, the metrics and the layer map.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "iter_ms": "ms",
    "iterations": "count",
    "peak_rss_mb": "MB",
}
WORKLOAD_NAMES = ("helix15-vacuum", "extended400-vacuum", "helix30-water", "rama8-water")
# set-up is repeated before each unit at least this often and this long
SETUP_REPEATS_PER_UNIT = 3
SETUP_SECONDS_PER_UNIT = 0.1
CHILD_TIMEOUT_S = 900
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def git_revision() -> str:
    """HEAD of the checkout, read from .git without starting git."""
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
    return "unknown"


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_revision": git_revision(),
    }


# --------------------------------------------------------------------------
# one workload, in this process
# --------------------------------------------------------------------------

def run_one(args) -> int:
    from hostspeed import CalibrationHook, HostSpeed
    from kinefold.errors import KinefoldError
    from spans import LAYER_METRICS, Recorder, layer_metrics
    from workloads import WORKLOADS, build_system, check, make_inputs, solve

    workload = WORKLOADS[args.workload]
    inputs = make_inputs(workload, args.seed, args.small)
    recorder = Recorder() if args.trace else None
    tracing = recorder if recorder else contextlib.nullcontext()
    print(f"workload {workload.name}: {workload.why}")
    print("env " + json.dumps(environment()))

    setup_times, setup_scaled, solve_times = [], [], []
    plain, traced, messages = [], [], []
    attempted = failed = raised = 0
    host = HostSpeed()
    hook = CalibrationHook(host)
    start = time.perf_counter()
    while True:
        # Set-up is repeated before every unit, so its samples spread over
        # the run like the solve samples do; the unit uses the last system.
        with tracing:
            batch = []
            while len(batch) < SETUP_REPEATS_PER_UNIT or sum(batch) < SETUP_SECONDS_PER_UNIT:
                t0 = time.perf_counter()
                system = build_system(inputs)
                batch.append(time.perf_counter() - t0)
            setup_times += batch
        setup_scaled.append(statistics.mean(batch) / host.calibrate())
        # a traced run alternates plain and traced units
        in_trace = bool(args.trace) and len(plain) > len(traced)
        try:
            with recorder if in_trace else hook:
                obs = solve(system, inputs)
        except KinefoldError as exc:
            n = len(inputs.folds) or inputs.scan_resolution ** 2
            attempted += n
            failed += n
            raised += 1
            messages.append(f"unit raised {type(exc).__name__}: {exc}")
        else:
            if not in_trace:
                solve_times.append(obs.seconds - hook.chunk_s)
            if not (plain or traced):
                # Later units only add allocator fragmentation, which
                # varies from run to run.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if args.inject_failure and not (plain or traced):
                _corrupt(obs)
            (traced if in_trace else plain).append(obs)
            n_failed, msgs = check(workload, inputs, obs, full=not args.small,
                                   seed=args.seed)
            attempted += obs.attempted
            failed += n_failed
            messages += msgs
        enough = plain and (traced or not args.trace)
        if time.perf_counter() - start >= args.seconds and (enough or raised):
            break

    for msg in dict.fromkeys(messages):
        print("FAIL " + msg)
    if not plain or (args.trace and not traced):
        print("no unit completed; nothing to report", file=sys.stderr)
        return 1

    if args.trace:
        plain_s = statistics.median(solve_times)
        metrics, trace_failures = layer_metrics(
            recorder, units=len(traced), setups=len(setup_times),
            solve_total=sum(o.seconds for o in traced),
            overhead_ratio=statistics.median(o.seconds for o in traced) / plain_s)
        for msg in trace_failures:
            print("FAIL trace: " + msg)
        if recorder.absent:
            print("absent (not recorded): " + ", ".join(recorder.absent))
        if args.spans:
            recorder.dump(args.spans)
        units = {name: LAYER_METRICS[name][0] for name in LAYER_METRICS}
        correct = failed == 0 and not trace_failures
    else:
        # hostspeed.py: times are scaled to a reference host speed
        factor = host.factor()
        solve_s = statistics.median(solve_times) / factor
        iterations = statistics.median(o.iterations for o in plain)
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            "solve_s": solve_s,
            "iter_ms": solve_s / iterations * 1e3,
            "iterations": iterations,
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"samples: {len(solve_times)} units, {len(setup_times)} set-ups in "
              f"{len(setup_scaled)} batches, {len(host.chunks)} calibration "
              f"chunks; host speed factor {factor:.4g}; unscaled: median unit "
              f"{statistics.median(solve_times):.6g} s, median set-up "
              f"{statistics.median(setup_times):.6g} s")
        units = END_TO_END
        correct = failed == 0
    for name, unit in units.items():
        value = metrics[name]
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>12s} {unit}")
    print(f"  {'failed_share':34s} {failed / attempted:>12.6g} ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def _corrupt(obs) -> None:
    """Forced correctness failure for the smoke test: one NaN energy."""
    if obs.grid is not None:
        obs.grid[0, 0] = float("nan")
    else:
        obs.energies[0][-1] = float("nan")


# --------------------------------------------------------------------------
# every workload, one child process per workload and mode
# --------------------------------------------------------------------------

def run_all(args) -> int:
    modes = (0, 1) if args.trace else (0,)
    results: dict = {}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in modes:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            if args.small:
                cmd.append("--small")
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S, check=False)
            lines = proc.stdout.strip().splitlines()
            sys.stdout.write(proc.stdout if proc.returncode == 0 else proc.stderr)
            if proc.returncode != 0 or not lines:
                print(f"{name} (trace {trace}) exited with {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            entry = results.setdefault(name, {})
            entry["trace" if trace else "end_to_end"] = result
            if trace == 0:
                entry["environment"] = json.loads(lines[1][4:])
    _print_tables(results)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "workloads": results},
            indent=1) + "\n")
    return status


def _print_tables(results) -> None:
    names = [n for n in WORKLOAD_NAMES if n in results]
    width = max(len(n) for n in names) if names else 10
    print("\n" + "metric".ljust(34) + "unit".ljust(7)
          + "".join(n.rjust(width + 2) for n in names))
    for key, table in (("end_to_end", END_TO_END), ("trace", None)):
        rows = {}
        for n in names:
            for metric, v in results[n].get(key, {}).get("metrics", {}).items():
                rows.setdefault(metric, (v["unit"], {}))[1][n] = v["value"]
        for metric, (unit, values) in rows.items():
            cells = ["absent" if values.get(n) is None else f"{values[n]:.6g}"
                     for n in names]
            print(metric.ljust(34) + unit.ljust(7)
                  + "".join(c.rjust(width + 2) for c in cells))
        if key == "end_to_end" and rows:
            shares = []
            for n in names:
                r = results[n]["end_to_end"]
                shares.append(f"{r['failed'] / r['attempted']:.6g}")
            print("failed_share".ljust(34) + "ratio".ljust(7)
                  + "".join(c.rjust(width + 2) for c in shares))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Layered fold benchmark for kinefold")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measure whole units until this much solve time passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced run")
    ap.add_argument("--out", help="with --workload all: write the results as JSON")
    ap.add_argument("--spans", help="with --trace 1: write every span as JSON lines")
    ap.add_argument("--small", action="store_true",
                    help="tiny sizes and 1-2 iterations: a smoke test of the paths")
    ap.add_argument("--inject-failure", action="store_true",
                    help="corrupt the first unit's output so a check must fail")
    args = ap.parse_args(argv)
    # the single-threaded baseline: pin the BLAS/OpenMP pools before numpy
    # loads (it is first imported below, and by child processes)
    for var in THREAD_VARS:
        os.environ[var] = "1"

    if not (SRC / "kinefold" / "__init__.py").is_file():
        print(f"kinefold sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
