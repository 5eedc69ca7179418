"""liaisonlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads are defined in workloads.py and
described in README.md.  Load is one process and one closed-loop client: the
next op starts when the previous one returns.  Ops run in rounds of the
workload's round size, and no round starts that would, at the median round
time so far, end after S seconds (the first always runs).

--trace 0 prints the end-to-end metrics, in reference seconds (speed.py).
--trace 1 alternates an untraced and a traced run of the workload's first
round of inputs (a fixed set for a seed) and prints per-layer metrics as
per-op means over the traced rounds, plus the tracing overhead, in raw
seconds.  The last stdout line is the result object; the line before it is
the run's full record, with its environment and the raw times.
"""

import argparse
import compileall
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import speed

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"

WORKLOADS = ("ci_quartic", "gaeta_generic", "cli_golden", "points_cb")
SETUP_SAMPLES = 9  # set-ups timed per run: one in this process, the rest in fresh ones
END_TO_END_UNITS = {
    "op_wall_s_p50": "s",
    "op_cpu_s_p50": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# One thread everywhere (2 cores here), the pure-numpy kernels so that
# figures from different backends are never compared, and no LIAISON_SEED,
# which would change the seed the golden CLI reports embed.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "NUMBA_NUM_THREADS": "1",
    "LIAISON_NUMBA": "0",
}


def pin_environment():
    os.environ.update(PINNED_ENV)
    os.environ.pop("LIAISON_SEED", None)


def timed_setup(name, seed):
    """Import the library, make the inputs and warm up.  Returns the raw and
    the corrected time it took, and (workload, its inputs)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.make(name, ROOT)
    pool = workload.pool(seed)
    workloads.warm_up()
    raw = time.perf_counter() - t0
    return raw, raw * speed.scale_now(), (workload, pool)


def probe_setup(name, seed):
    """Time one set-up in a fresh interpreter: (raw, corrected) seconds."""
    res = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    raw, corrected = res.stdout.split()[-2:]
    return float(raw), float(corrected)


def one_op(workload, raw, probe):
    """Run and check one op.  Returns (verified, wall, cpu), without the time
    the probe's handler took."""
    w0, c0 = probe.spent_wall, probe.spent_cpu
    t0, p0 = time.perf_counter(), time.process_time()
    verified = False
    try:
        answer = workload.op(raw)
    except Exception:
        traceback.print_exc()
    else:
        verified = True
    wall = time.perf_counter() - t0 - (probe.spent_wall - w0)
    cpu = time.process_time() - p0 - (probe.spent_cpu - c0)
    if verified and not workload.check(raw, answer):
        print(f"{workload.name}: answer does not match the reference", file=sys.stderr)
        verified = False
    return verified, wall, cpu


class Ops:
    """Outcomes of a run's ops: corrected times of the verified ones, and
    raw wall times of all."""

    def __init__(self):
        self.walls, self.cpus, self.raw_walls = [], [], []
        self.failed = 0

    def run_round(self, workload, inputs, probe_cls=speed.Probe):
        with probe_cls() as probe:
            results = [one_op(workload, raw, probe) for raw in inputs]
        for verified, wall, cpu in results:
            self.raw_walls.append(wall)
            if verified:
                self.walls.append(wall * probe.scale)
                self.cpus.append(cpu * probe.scale)
            else:
                self.failed += 1

    @property
    def attempted(self):
        return len(self.raw_walls)


def repeat_rounds(seconds, do_round):
    """Call do_round() until another call, taking the median round time so
    far, would end after `seconds`; at least once.  Returns the number of
    rounds.  Stopping only between rounds keeps the op mix of a run whole."""
    start = time.perf_counter()
    times = []
    while True:
        t0 = time.perf_counter()
        do_round()
        now = time.perf_counter()
        times.append(now - t0)
        if now - start + statistics.median(times) > seconds:
            return len(times)


def run_untraced(workload, pool, seconds):
    ops = Ops()
    inputs = itertools.cycle(pool)
    repeat_rounds(seconds, lambda: ops.run_round(
        workload, [next(inputs) for _ in range(workload.round_size)]))
    verified = ops.walls or ops.raw_walls  # raw only when no op verified
    metrics = {
        "op_wall_s_p50": statistics.median(verified),
        "op_cpu_s_p50": statistics.median(ops.cpus or verified),
        "ops_per_s": len(ops.walls) / sum(verified),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "samples": len(ops.walls),
        "raw_op_wall_s_p50": statistics.median(ops.raw_walls),
        "raw_ops_per_s": ops.attempted / sum(ops.raw_walls),
    }
    if len(ops.walls) >= 100:  # at least ten samples above the 90th percentile
        extra["op_wall_s_p90"] = statistics.quantiles(ops.walls, n=10)[-1]
    return ops.attempted, ops.failed, metrics, extra


class _NoProbe:
    """Stands in for speed.Probe in traced runs, whose figures stay raw."""

    spent_wall = spent_cpu = 0.0
    scale = 1.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def run_traced(workload, pool, seconds):
    tracer = spans.Tracer()
    plain, traced = Ops(), Ops()
    round_inputs = pool[: workload.round_size]

    def do_round():
        plain.run_round(workload, round_inputs, _NoProbe)
        with tracer:
            traced.run_round(workload, round_inputs, _NoProbe)

    rounds = repeat_rounds(seconds, do_round)
    metrics = tracer.metrics(rounds * len(round_inputs))
    untraced_p50 = statistics.median(plain.raw_walls)
    traced_p50 = statistics.median(traced.raw_walls)
    metrics["bench.untraced_op_wall_s_p50"] = untraced_p50
    metrics["bench.traced_op_wall_s_p50"] = traced_p50
    metrics["bench.trace_overhead_s"] = traced_p50 - untraced_p50
    attempted = plain.attempted + traced.attempted
    extra = {"rounds": rounds, "round_size": len(round_inputs)}
    return attempted, plain.failed + traced.failed, metrics, extra


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip()


def environment(args):
    import numpy

    from liaisonlab import _kernels

    return {
        "backend": _kernels.backend_name(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client, 1 process, 1 thread",
        "pinned_env": PINNED_ENV,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")

    if not (SRC / "liaisonlab" / "__init__.py").is_file():
        print(f"error: no liaisonlab source tree at {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    # byte-compile once so that no set-up sample pays for it
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    raw_setup, setup, (workload, pool) = timed_setup(args.workload, args.seed)
    setups.append((raw_setup, setup))

    if args.trace:
        attempted, failed, metrics, extra = run_traced(workload, pool, args.seconds)
        units = {name: unit for name, unit, _ in spans.metric_specs()}
    else:
        attempted, failed, metrics, extra = run_untraced(workload, pool, args.seconds)
        metrics["setup_s"] = statistics.median(s for _, s in setups)
        extra["raw_setup_s"] = statistics.median(r for r, _ in setups)
        units = END_TO_END_UNITS
    record = {
        "env": environment(args),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "setup_samples_raw_corrected": setups,
        **extra,
        "metrics": metrics,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
