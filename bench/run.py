"""qmonty benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

qmonty is imported from ``src`` next to this directory; output files go to
``.bench_work`` at the repository root.  Workloads are listed in
``BENCHMARK.json`` and defined in ``workloads.py``; NOTES.md explains them.

``--trace 0`` times the cold set-up call in fresh processes (the median over
as many as fit in ``SETUP_BUDGET_S``, within ``SETUP_SAMPLES``) and then
calls the workload in a closed loop for ``--seconds``, with no tracing.
``--trace 1`` traces the cold call and one workload call through
``tracing.Tracer``, then repeats untraced calls until ``--seconds`` have
passed to price the tracing.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it records the environment, the output hashes and the raw
samples.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Cold set-up calls per run, each in a fresh process: at least the first
# bound, then more while the probes have taken less than the budget.
SETUP_SAMPLES = (3, 15)
SETUP_BUDGET_S = 5.0
PROBE_TIMEOUT_S = 60
MIN_CALLS = 2  # timed calls per untraced run, whatever --seconds says
TRACED_CALLS = 1

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("peak_rss_mb", "MiB"),
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def probe_setup(args) -> float:
    """Time the cold set-up call in a fresh interpreter."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--setup-probe",
    ]
    done = subprocess.run(
        cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


class Runner:
    """Timed workload calls and their correctness bookkeeping."""

    def __init__(self, wl, seed, np):
        self.wl, self.seed, self.np = wl, seed, np
        self.attempted = 0
        self.failed = 0

    def inputs(self, i):
        """(seed, is the pinned default) of call ``i``."""
        wl = self.wl
        if wl.default_seed is None:
            return None, True
        if i == 0:
            return wl.default_seed, True
        state = self.np.random.SeedSequence([self.seed, i]).generate_state(1)
        return int(state[0]), False

    def tally(self, outcome, pinned) -> None:
        self.attempted += outcome.ops
        mismatch = pinned and self.wl.pin is not None and outcome.digest != self.wl.pin
        self.failed += outcome.ops if mismatch else outcome.failed

    def loop(self, deadline, min_calls, call=None):
        """Call the workload while the next call should end by ``deadline``;
        return (walls, outcomes)."""
        walls, outcomes = [], []
        i = 0
        while i < min_calls or perf_counter() + statistics.median(walls) <= deadline:
            seed, pinned = self.inputs(i)
            if call is None:
                t0 = perf_counter()
                raw = self.wl.call(seed, WORK)
                wall = perf_counter() - t0
            else:
                raw, wall = call(seed)
            outcome = self.wl.check(raw)
            self.tally(outcome, pinned)
            walls.append(wall)
            outcomes.append(outcome)
            i += 1
        return walls, outcomes


def run_untraced(args, wl, runner):
    low, high = SETUP_SAMPLES
    samples = []
    t0 = perf_counter()
    while len(samples) < low - 1 or (
        len(samples) < high - 1 and perf_counter() - t0 < SETUP_BUDGET_S
    ):
        samples.append(probe_setup(args))
    t0 = perf_counter()
    wl.setup(WORK)
    samples.append(perf_counter() - t0)
    walls, outcomes = runner.loop(perf_counter() + args.seconds, MIN_CALLS)
    values = {
        "setup_s": statistics.median(samples),
        "ops_per_s": statistics.median(o.ops / w for o, w in zip(outcomes, walls)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "setup_samples_s": samples,
        "call_samples_s": walls,
        "digests": sorted({o.digest for o in outcomes}),
        "default_digest": outcomes[0].digest,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, detail, True


def run_traced(args, wl, runner):
    import tracing

    tracer = tracing.Tracer()
    tracer.instrument()
    start = perf_counter()
    try:
        _, setup_wall = tracer.root("bench.setup", wl.setup, WORK)
        tracer.setup = False
        traced_walls, traced = runner.loop(
            0.0, TRACED_CALLS,
            call=lambda seed: tracer.root("bench.call", wl.call, seed, WORK),
        )
    finally:
        tracer.uninstrument()
    walls, untraced = runner.loop(start + args.seconds, TRACED_CALLS)

    per_op_traced = sum(traced_walls) / sum(o.ops for o in traced)
    per_op_untraced = sum(walls) / sum(o.ops for o in untraced)
    values = tracer.metrics(setup_wall + sum(traced_walls), per_op_traced / per_op_untraced)
    # Tracing must leave every output byte unchanged.
    same_outputs = all(a.digest == b.digest for a, b in zip(traced, untraced))
    consistent = values["trace.layer_self_s"] <= values["trace.wall_s"]
    if not same_outputs:
        runner.failed += sum(o.ops for o in traced)

    trace_file = WORK / f"trace-{wl.name}-seed{args.seed}.jsonl"
    tracer.write(trace_file, {"workload": wl.name, "seed": args.seed})
    detail = {
        "traced_digests": [o.digest for o in traced],
        "untraced_digests": [o.digest for o in untraced],
        "default_digest": traced[0].digest,
        "self_times_within_wall": consistent,
        "trace_file": str(trace_file.relative_to(ROOT)),
    }
    units = {name: unit for name, unit, _ in tracing.METRICS}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return metrics, detail, consistent


def main(argv=None) -> int:
    # One BLAS and OpenMP thread, set before numpy is first imported; the
    # set-up probes inherit it.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    args = parse_args(argv)
    if not (SRC / "qmonty" / "__init__.py").is_file():
        print(f"error: no qmonty sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)

    import numpy as np
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"pick one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        t0 = perf_counter()
        wl.setup(WORK)
        print(json.dumps({"setup_s": perf_counter() - t0}))
        return 0

    runner = Runner(wl, args.seed, np)
    run = run_traced if args.trace else run_untraced
    metrics, detail, consistent = run(args, wl, runner)
    detail.update({
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "pin": wl.pin,
        "environment": environment(np),
    })
    print(json.dumps(detail))
    print(json.dumps({
        "correct": consistent and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
