#!/usr/bin/env python3
"""CPU-time benchmark of horofan, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload cli-docs --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload fan-rank3 --seed 1 --seconds 25 --trace 1
    python3 bench/run.py --workload cone-kernels --seed 1 --seconds 25 --steady 10

A run imports horofan from `src/` of the checkout, builds the workload's
operations from the seed, and times each operation in CPU seconds (this
process plus its children).  It runs whole rounds of freshly generated
operations until `--seconds` of wall time would be exceeded, at least one,
checks every answer after each round, and prints as its last line one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics of BENCHMARK.json with `--trace 0`, its per-layer metrics with
`--trace 1`.  The line before it holds the raw CPU and wall-clock figures,
which have no bound.  `--steady K` runs K seeds in child processes and
prints the median and quartiles of each metric.

CPU time of fixed work drifts by up to +-20% within seconds on a shared host,
whatever this process does.  So a small calibration kernel samples the
host's speed, untimed: a few times before every operation, and every 50 ms
inside it from a timer signal, whose own CPU time is taken out of the
operation's.  Each operation's CPU time is scaled by
CALIBRATION_REFERENCE_S / (mean of the samples near it): the end-to-end times
are CPU seconds at a fixed reference speed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 5
# Median CPU time of one HostSpeed sample on an idle core of the reference
# host (Intel Xeon, 2.1 GHz, Python 3.11).  It only scales the figures: any
# constant works when the parent and the change are measured with the same.
CALIBRATION_REFERENCE_S = 0.0005
SAMPLES_BEFORE_OPERATION = 3
# Inside an operation: a wall-clock timer.  A CPU-time timer (ITIMER_PROF)
# would coarsen the process CPU clock to scheduler ticks while it is armed.
SAMPLE_INTERVAL_S = 0.05
# An operation's speed is the mean of the samples within this many wall
# seconds of it: enough samples for a short operation, all from the same
# fraction of a second in which the host's speed holds.
SAMPLE_WINDOW_S = 0.25
_CALIBRATION_MATRIX = [[(3 * i + 7 * j) % 11 - 5 for j in range(5)] for i in range(5)]


def cpu() -> float:
    """CPU seconds of this process and of its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class HostSpeed:
    """Calibration samples (wall time, CPU seconds of a fixed Fraction kernel)."""

    def __init__(self, inside: bool):
        self.inside = inside  # sample inside operations too
        self.samples: list[tuple[float, float]] = []
        self.signal_cpu = 0.0

    def sample(self) -> None:
        t0 = time.process_time()
        checks.fraction_rank(_CALIBRATION_MATRIX)
        self.samples.append((time.perf_counter(), time.process_time() - t0))

    def _on_signal(self, signum, frame) -> None:
        t0 = time.process_time()
        self.sample()
        self.signal_cpu += time.process_time() - t0

    def timed(self, fn):
        """(result or exception, CPU s less the sampling, wall start, wall end) of fn()."""
        checks.fraction_rank(_CALIBRATION_MATRIX)  # warm-up: the first run is cache-cold
        for _ in range(SAMPLES_BEFORE_OPERATION):
            self.sample()
        self.signal_cpu = 0.0
        if self.inside:
            signal.signal(signal.SIGALRM, self._on_signal)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        c0, w0 = cpu(), time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # counted as a failed operation, the run goes on
            result = exc
        c1, w1 = cpu(), time.perf_counter()
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        return result, c1 - c0 - self.signal_cpu, w0, w1

    def factor(self, w0: float, w1: float) -> float:
        """CALIBRATION_REFERENCE_S / mean sample near the wall interval [w0, w1]."""
        near = [c for t, c in self.samples if w0 - SAMPLE_WINDOW_S <= t <= w1 + SAMPLE_WINDOW_S]
        return CALIBRATION_REFERENCE_S * len(near) / sum(near)


def import_horofan():
    """A fresh import of horofan from the checkout's src/ (and its CLI)."""
    for name in [n for n in sys.modules if n == "horofan" or n.startswith("horofan.")]:
        del sys.modules[name]
    hf = importlib.import_module("horofan")
    importlib.import_module("horofan.cli")
    if os.path.dirname(os.path.abspath(hf.__file__)) != os.path.join(SRC, "horofan"):
        raise RuntimeError(f"imported horofan from {hf.__file__}, not from {SRC}")
    return hf


def quantile(values, q: int) -> float:
    """The q-th decile of `values` (Python's exclusive method)."""
    return statistics.quantiles(values, n=10)[q - 1]


def measure(workload, seed: int, seconds: float, max_rounds, tracer, workdir: str):
    # the tracer's spans should hold no calibration work, so a traced run
    # samples only between operations
    speed = HostSpeed(inside=tracer is None)
    setup_raw, setup_walls = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()

        def setup():
            hf = import_horofan()
            return hf, workload.runner(hf), workload.build_round(seed, 0, workdir)

        result, raw, w0, w1 = speed.timed(setup)
        if isinstance(result, Exception):
            raise result
        hf, runner, ops = result
        setup_raw.append(raw)
        setup_walls.append((w0, w1))
    speed.sample()
    setup_samples = [t * speed.factor(*w) for t, w in zip(setup_raw, setup_walls)]
    if tracer is not None:
        tracer.install()
    op_cpu, op_raw, op_wall = [], [], []
    round_cpu, round_raw, round_wall, errors = [], [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    round_index = 0
    while True:
        if round_index:
            ops = workload.build_round(seed, round_index, workdir)
        results, raw, walls = [], [], []
        for op in ops:
            gc.collect()
            if tracer is not None:
                tracer.current_op = attempted
            result, cpu_s, w0, w1 = speed.timed(lambda: runner.run(op))
            attempted += 1
            if isinstance(result, Exception):
                failed += 1
                print(f"operation {attempted - 1} ({op['kind']}) failed: {result!r}", file=sys.stderr)
            results.append(result)
            raw.append(cpu_s)
            walls.append((w0, w1))
        speed.sample()
        scaled = [t * speed.factor(*w) for t, w in zip(raw, walls)]
        op_cpu += scaled
        op_raw += raw
        op_wall += [w1 - w0 for w0, w1 in walls]
        round_cpu.append(sum(scaled))
        round_raw.append(sum(raw))
        round_wall.append(sum(w1 - w0 for w0, w1 in walls))
        if tracer is not None:
            tracer.uninstall()
        errors += runner.check(ops, results)
        round_index += 1
        elapsed = time.perf_counter() - started
        if max_rounds is not None and round_index >= max_rounds:
            break
        if elapsed + elapsed / round_index > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "total_cpu_s": statistics.median(round_cpu),
        "op_p50_ms": statistics.median(op_cpu) * 1000.0,
        "op_p90_ms": quantile(op_cpu, 9) * 1000.0,
        "peak_rss_mb": peak_rss_mb,
    }
    unbounded = {
        "rounds": round_index,
        "ops_per_round": len(ops),
        "calibration_median_s": statistics.median(c for _, c in speed.samples),
        "setup_raw_s": statistics.median(setup_raw),
        "total_cpu_raw_s": statistics.median(round_raw),
        "op_p50_raw_ms": statistics.median(op_raw) * 1000.0,
        "op_p90_raw_ms": quantile(op_raw, 9) * 1000.0,
        "total_wall_s": statistics.median(round_wall),
        "op_p50_wall_ms": statistics.median(op_wall) * 1000.0,
        "op_p90_wall_ms": quantile(op_wall, 9) * 1000.0,
    }
    return metrics, unbounded, attempted, failed, errors


def untraced_total(args) -> float:
    """total_cpu_s of the same seed's first round in a fresh untraced process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--rounds", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"untraced reference run failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["total_cpu_s"]["value"]


def steady(args, spec) -> None:
    """Run --steady seeds as child processes and print medians and quartiles."""
    runs = []
    for k in range(args.steady):
        seed = args.seed + k
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=600,
        )
        if proc.returncode != 0:
            raise SystemExit(f"seed {seed} failed:\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: " + json.dumps(result), flush=True)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:<40} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} {bound if bound is not None else '':>6}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"correct: {all(r['correct'] for r in runs)}; failed shares: {sorted(shares)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, help="run exactly this many rounds")
    parser.add_argument("--steady", type=int, metavar="K", help="run K seeds and print spreads")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "horofan", "__init__.py")):
        print(f"error: no horofan sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, SRC)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.steady:
        steady(args, spec)
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(RESULTS, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        metrics, unbounded, attempted, failed, errors = measure(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds,
            1 if args.trace else args.rounds, tracer, workdir,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)

    if args.trace:
        layer_names = [m["name"] for m in spec["per_layer"]]
        values = tracer.metrics([n for n in layer_names if n != "trace.overhead_s"])
        values["trace.overhead_s"] = metrics["total_cpu_s"] - untraced_total(args)
        path = os.path.join(RESULTS, f"spans-{args.workload}-seed{args.seed}.csv.gz")
        tracer.write(path)
        unbounded["spans"] = tracer.span_count()
        unbounded["spans_file"] = os.path.relpath(path, ROOT)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        out_metrics = {n: {"value": values[n], "unit": units[n]} for n in layer_names}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        out_metrics = {n: {"value": metrics[n], "unit": u} for n, u in units.items()}
    print(json.dumps({"unbounded": unbounded}))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
