"""Benchmark of the sphere_distal library: one seeded workload per run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Run from the root of a source checkout: the library is imported from
``src/``, never from an installed copy.  Each run is a closed loop (one
process, one thread; each operation starts when the previous one returns)
over inputs built from ``--seed``.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it runs the same operations
untraced and then traced, and prints the per-layer metrics (see
``layers.py``) with the tracing overhead.  End-to-end times are
normalized by a reference kernel timed alongside (``reference_kernel``).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Failure reasons and the input
properties go to standard error.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads  # noqa: E402  (needs HERE on sys.path)

# the reference kernel's time on the build host (2 vCPUs) at full speed, in seconds
REFERENCE_S = 4e-4
SETUP_REPEATS = 5
# a fresh interpreter's `import numpy` on the build host (2 vCPUs), in seconds
IMPORT_REFERENCE_S = 0.2
SUBPROCESS_TIMEOUT_S = 150
log = functools.partial(print, file=sys.stderr)


def import_library():
    """Import sphere_distal from this checkout's src/, or exit with code 1."""
    if not os.path.isfile(os.path.join(SRC, "sphere_distal", "__init__.py")):
        sys.exit(f"perfbench: no library source at {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import sphere_distal
    import sphere_distal.cli  # noqa: F401  (cli-solve and the tracer use it)

    if not os.path.abspath(sphere_distal.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported {sphere_distal.__file__}, not the checkout's copy")
    return sphere_distal


def run_op(run, sd, op) -> workloads.Outcome:
    """One operation; an exception the workload does not expect is a failure."""
    try:
        return run(sd, op)
    except Exception as exc:
        return workloads.Outcome(f"raised:{type(exc).__name__}")


def reference_kernel(_m=np.full((3, 3), 0.1) + 0.5 * np.eye(3)):
    """A fixed piece of NumPy work that calls no library code.

    It runs right before and right after every timed operation, and the
    operation's time is divided by the kernel's, so the host's speed
    cancels out of the ratio.  It is the kind of work the library's time
    goes to, a Python loop of 3x3 products and norms on one point, so the
    host's slow spells slow both alike.
    """
    x = np.ones(3)
    for _ in range(120):
        x = _m @ x
        x = x / np.linalg.norm(x)
    return x


def timed_kernel() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class Loop:
    """Closed-loop runner over a workload's inputs.

    One pass runs every input once, round after round; the timed loop runs
    whole passes, so every input runs the same number of times.
    """

    def __init__(self, sd, name, rounds):
        self.sd = sd
        self.rounds = rounds
        self.inputs = [op for ops in rounds for op in ops]
        self.run = workloads.runner(name)

    def warm_up(self):
        run_op(self.run, self.sd, self.inputs[0])

    def timed(self, seconds: float | None = None, count: int | None = None):
        """Run whole passes until ``seconds`` pass, or exactly ``count`` operations.

        Returns (operations, outcomes, latencies in seconds, the reference
        kernel's mean time around each operation, loop seconds).
        """
        ops, outcomes, lat, ref = [], [], [], []
        for _ in range(20):
            timed_kernel()
        start = time.perf_counter()
        while True:
            for op in self.inputs:
                if count is not None and len(ops) == count:
                    break
                before = timed_kernel()
                t0 = time.perf_counter()
                outcomes.append(run_op(self.run, self.sd, op))
                lat.append(time.perf_counter() - t0)
                ref.append((before + timed_kernel()) / 2)
                ops.append(op)
            elapsed = time.perf_counter() - start
            if (count is not None and len(ops) == count) or (count is None and elapsed >= seconds):
                return ops, outcomes, lat, ref, elapsed

    def normalized(self, lat, ref) -> list[float]:
        """Operation times at the nominal host speed."""
        return [REFERENCE_S * t / r for t, r in zip(lat, ref)]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, min(len(s) - 1, int(-(-q * len(s) // 100)) - 1))]


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def setup_probe(args) -> None:
    """Child of ``measure_setup``: set up as a timed run does, then report the clock."""
    sd = import_library()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        loop = Loop(sd, args.workload, workloads.build(args.workload, args.seed, workdir))
        loop.warm_up()
        print(f"SETUP_END {time.monotonic()!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def fresh_numpy_import() -> float:
    """Wall seconds of a fresh interpreter that imports NumPy and exits."""
    t0 = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, capture_output=True,
                   timeout=SUBPROCESS_TIMEOUT_S, check=True)
    return time.monotonic() - t0


def measure_setup(args) -> float:
    """Median time from a fresh interpreter's start to the loop's start.

    Each time is normalized by a fresh interpreter's ``import numpy``, timed
    right before and right after: process start-up and imports run at a
    speed of their own on a shared host, which the reference kernel does
    not follow.  CLOCK_MONOTONIC is system-wide on Linux, so the child's
    reading compares with the parent's.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        before = fresh_numpy_import()
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True,
        )
        setup = float(proc.stdout.split()[-1]) - t0
        times.append(setup * IMPORT_REFERENCE_S / ((before + fresh_numpy_import()) / 2))
    return statistics.median(times)


def report_outcomes(name, ops, outcomes) -> tuple[int, bool]:
    """Print failure reasons and input properties; return (failed, correct)."""
    reasons = collections.Counter(o.reason for o in outcomes if o.reason)
    failed = sum(reasons.values())
    log(f"# {name}: {len(ops)} operations, {failed} failed"
        + (f" ({', '.join(f'{r}={n}' for r, n in sorted(reasons.items()))})" if reasons else ""))
    log(f"# input mix: {dict(sorted(collections.Counter(op.kind for op in ops).items()))}")
    if name == "certify":
        mix = collections.Counter(
            f"{o.info.get('verdict', o.reason)}/{o.info.get('branch', '-')}" for o in outcomes)
        log(f"# verdict/branch mix: {dict(sorted(mix.items()))}")
    if name == "semigroup-distal":
        words = collections.Counter(o.info.get("words_checked") for o in outcomes)
        log(f"# words swept per operation: {dict(sorted(words.items(), key=str))}"
            " (oracle share of time: see --trace 1)")
    if name == "semigroup-unbounded":
        hist = collections.Counter(o.info.get("word_length") for o in outcomes)
        log(f"# first unbounded word length histogram: {dict(sorted(hist.items(), key=str))}")
    if name == "cli-solve":
        log(f"# subcommand mix: {dict(sorted(collections.Counter(op.expect for op in ops).items()))}")
    return failed, not failed


def run_workload(args) -> dict:
    sd = import_library()
    os.environ.pop("SPHERE_DISTAL_CONFIG", None)  # the CLI must run on defaults
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        loop = Loop(sd, args.workload, workloads.build(args.workload, args.seed, workdir))
        loop.warm_up()
        if args.trace:
            import layers

            ops, outcomes, metrics = layers.traced_run(sd, args, loop, workdir)
        else:
            ops, outcomes, lat, ref, elapsed = loop.timed(seconds=args.seconds)
            norm = loop.normalized(lat, ref)
            passed = sum(o.reason is None for o in outcomes)
            metrics = {
                "setup_s": metric(measure_setup(args), "s"),
                "ops_per_s": metric(passed / sum(norm), "1/s"),
                "call_ms_p50": metric(1e3 * percentile(norm, 50), "ms"),
                "call_ms_p90": metric(1e3 * percentile(norm, 90), "ms"),
                "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            log(f"# {args.workload}: {len(ops)} operations ({len(ops) // len(loop.inputs)} passes over"
                f" {len(loop.inputs)} inputs) in {elapsed:.2f} s; reference kernel median"
                f" {1e6 * statistics.median(ref):.1f} us; raw wall time: {len(ops) / sum(lat):.4g} ops/s,"
                f" p50 {1e3 * percentile(lat, 50):.3f} ms, p90 {1e3 * percentile(lat, 90):.3f} ms")
        failed, correct = report_outcomes(args.workload, ops, outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # failed/attempted also travel in the result line; a metric of its own
    # would read 0
    table = dict(metrics, failed_frac=metric(failed / len(ops), "frac"))
    for key, m in table.items():
        print(f"{args.workload:20s} {key:36s} {m['value']:14.6g} {m['unit']}")
    return {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in turn, each in its own process; metrics keyed by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return total


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe(args)
        return
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
