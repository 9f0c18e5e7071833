"""mlfrac benchmark: one workload, one closed-loop client, one JSON result.

    python3 bench/run.py --workload kernel-grid --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports mlfrac from its ``src``
directory.  With ``--trace 0`` it makes passes over the workload's
operations, the first in full and then until ``--seconds`` have elapsed,
and reports the end-to-end metrics; with ``--trace 1`` it runs one
untraced and one traced pass and reports the per-layer metrics.  Each
operation starts when the previous one returns, in this one process and
thread.  Every output is checked against a reference computed with mpmath
before timing starts.

Standard output ends with one JSON object: correct, attempted, failed and
metrics.  The line before it records the environment and the details behind
the metrics.  A failed operation (typed MlfracError, non-finite value, or an
error above the workload's tolerance) is counted, never fatal.  ``correct``
is false when an operation returned a value outside its tolerance or raised
anything but a typed MlfracError.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads, so the dense Picard products do not depend on
# the scheduler.
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"
# identity reports read their tolerance from here; keep the default
os.environ.pop("MLFRAC_TOL", None)

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9
# an operation runs again, up to REPEATS times, until its runs add up to
# REPEAT_UNTIL CPU seconds in a pass; it counts once, with the mean of its times
REPEAT_UNTIL = 0.5
REPEATS = 25

# Child process that times the set-up: import of mlfrac plus the warm-up of
# the ratio tables and the Gauss-Legendre rule cache.
_SETUP_CHILD = """
import json, sys, time
t0 = time.process_time()
sys.path.insert(0, sys.argv[1])
import mlfrac
from mlfrac import special
for rho, mu, g in json.loads(sys.argv[2]):
    special.ml_value(rho, mu, g, -1.0)
mlfrac.adaptive_gl(lambda x: x * x, 0.0, 1.0)
print(time.process_time() - t0)
"""


def warm_up(ml_params) -> None:
    import mlfrac
    from mlfrac import special

    for rho, mu, g in ml_params:
        special.ml_value(rho, mu, g, -1.0)
    mlfrac.adaptive_gl(lambda x: x * x, 0.0, 1.0)


def measure_setup(ml_params) -> list[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), json.dumps(ml_params)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip()))
    return samples


class Outcome:
    """Per-operation results of one or more passes."""

    def __init__(self) -> None:
        self.times: list[float] = []
        #: every timed run, by the operation's position in its workload
        self.samples: dict[int, list[float]] = {}
        self.wall = 0.0
        self.digits: list[float] = []
        self.failed = 0
        self.wrong = 0  # returned a value outside tolerance, or crashed
        self.failures: list[str] = []

    def record(self, i: int, op, samples: list[float], wall: float, output,
               error: BaseException | None) -> None:
        from mlfrac import MlfracError
        from workloads import Refused

        self.times.append(statistics.fmean(samples))
        self.samples.setdefault(i, []).extend(samples)
        self.wall += wall
        if error is not None:
            self.failed += 1
            if not isinstance(error, (MlfracError, Refused)):
                self.wrong += 1
                traceback.print_exception(error, file=sys.stderr)
            self.failures.append(f"{op.label}: {type(error).__name__}")
            return
        try:
            err, ok = op.check(output)
        except Exception as exc:  # an unreadable output is a wrong output
            traceback.print_exception(exc, file=sys.stderr)
            err, ok = math.inf, False
        if not (math.isfinite(err) and ok):
            self.failed += 1
            self.wrong += 1
            self.failures.append(f"{op.label}: error {err:.3g}")
        self.digits.append(16.0 if err <= 0 else min(16.0, max(0.0, -math.log10(err))))


def run_pass(ops, outcome: Outcome, tracer=None, repeats: int = REPEATS,
             deadline: float | None = None) -> float:
    """One closed-loop pass over ``ops``, cut short before the first run
    that would start after ``deadline`` (a ``perf_counter`` reading);
    returns the summed operation time.

    Operations are timed in process CPU time: the load is one thread, and on
    a shared virtual machine wall time also counts the time other guests
    take the processor.  The wall time is kept beside it.  A short operation
    runs again until its runs add up to REPEAT_UNTIL, at most ``repeats``
    times.  The repeats are not back to back: after every long operation,
    and in rounds at the end of the pass, each short operation that still
    needs runs gets one.  On a shared virtual machine the speed can change
    by a third from one second to the next; samples spread over the pass
    average that out where a burst of back-to-back runs would not.
    """
    samples: list[list[float]] = [[] for _ in ops]
    walls = [0.0] * len(ops)
    last: list[tuple] = [(None, None)] * len(ops)  # (output, error) of the latest run
    owing: list[int] = []  # short operations that still need runs

    def timed(i: int) -> bool:
        """Run ops[i] once; False when the deadline has passed instead."""
        if deadline is not None and time.perf_counter() >= deadline:
            return False
        if tracer is not None:
            tracer.op_id = i
        error = output = None
        w0 = time.perf_counter()
        t0 = time.process_time()
        try:
            output = ops[i].run()
        except Exception as exc:
            error = exc
        samples[i].append(time.process_time() - t0)
        walls[i] += time.perf_counter() - w0
        last[i] = (output, error)
        return True

    def owes(i: int) -> bool:
        return last[i][1] is None and sum(samples[i]) < REPEAT_UNTIL and len(samples[i]) < repeats

    def round_over_owing() -> bool:
        for j in list(owing):
            if not timed(j):
                return False
            if not owes(j):
                owing.remove(j)
        return True

    in_time = True
    for i in range(len(ops)):
        if not timed(i):
            in_time = False
            break
        if owes(i):
            owing.append(i)
        elif not round_over_owing():
            in_time = False
            break
    while in_time and owing:
        in_time = round_over_owing()
    total = 0.0
    # a pass cut short before its last operation has run a prefix of ``ops``
    for i, (op, times, wall, (output, error)) in enumerate(zip(ops, samples, walls, last)):
        if not times:
            break
        total += statistics.fmean(times)
        outcome.record(i, op, times, wall / len(times), output, error)
    return total


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile with at
    least ten samples beyond it; the maximum when there are fewer than 20."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def environment() -> dict:
    import mpmath
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": 1,
    }


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mlfrac" / "__init__.py").is_file():
        print(f"error: no mlfrac sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mlfrac

    if Path(mlfrac.__file__).resolve().parent != (SRC / "mlfrac").resolve():
        print(f"error: imported mlfrac from {mlfrac.__file__}, not {SRC}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    work = workloads.BUILDERS[args.workload](args.seed)
    reference_s = time.perf_counter() - t0

    details = {"workload": args.workload, "seed": args.seed, "ops_per_pass": len(work.ops),
               "reference_s": round(reference_s, 3), **environment()}
    warm_up(work.ml_params)
    outcome = Outcome()
    if args.trace:
        from tracing import Tracer

        untraced = run_pass(work.ops, Outcome(), repeats=1)
        tracer = Tracer()
        try:
            traced = run_pass(work.ops, outcome, tracer, repeats=1)
        finally:
            tracer.close()
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in tracer.metrics().items()}
        metrics["trace.overhead_ratio"] = {"value": traced / untraced, "unit": "ratio"}
        details["spans"] = len(tracer.spans) // 5
    else:
        setup = measure_setup(work.ml_params)
        # one whole pass, then whole or partial passes until the time is up,
        # so a run overshoots --seconds by at most one operation
        deadline = time.perf_counter() + args.seconds
        run_pass(work.ops, outcome)
        while time.perf_counter() < deadline:
            run_pass(work.ops, outcome, deadline=deadline)
        # each operation's time is the mean of all its runs, and every
        # operation counts once however many passes it ran in.  A shared
        # virtual machine can switch between speeds a third apart for a
        # second or two at a time: a mean weighs each speed by the time
        # spent at it, where a median jumps to whichever speed held most of
        # the runs.
        per_op = [statistics.fmean(outcome.samples[i]) for i in range(len(work.ops))]
        value, pct, beyond = tail(per_op)
        n = len(outcome.times)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": len(per_op) / sum(per_op), "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(per_op), "unit": "ms"},
            "op_tail_ms": {"value": 1e3 * value, "unit": "ms"},
            "min_digits": {"value": min(outcome.digits) if outcome.digits else 0.0, "unit": "digits"},
            "pass_share": {"value": 1.0 - outcome.failed / n, "unit": "share"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        details.update(passes=round(n / len(work.ops), 2), setup_samples_s=setup,
                       op_tail_percentile=pct,
                       op_tail_samples_beyond=beyond, fail_share=outcome.failed / n,
                       wall_over_cpu=outcome.wall / sum(outcome.times))
    details["failures"] = sorted(set(outcome.failures))
    print(json.dumps(details))
    print(json.dumps({
        "correct": outcome.wrong == 0,
        "attempted": len(outcome.times),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
