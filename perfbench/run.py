"""survrake's benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload null_bootstrap --seed 0 --seconds 20 --trace 0

Runs from the root of a checkout and benchmarks the survrake sources under
its ``src``. ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` spends a third of the time untraced and two thirds with the
span tracer installed, and reports the per-layer metrics, the tracing
overhead, and whether the span counts match what the configuration implies.
Every operation's outputs are checked (see workloads.py). A report goes to
standard error, a full record (environment, samples, span table) to
``.perfbench_runs/``, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. The exit code is
0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import spans
import workloads as wl

RUNS_DIR = wl.ROOT / ".perfbench_runs"
BENCHMARK_PATH = wl.ROOT / "BENCHMARK.json"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 120


def environment():
    """Machine, library and BLAS facts that the timings depend on."""
    import numpy
    import scipy

    def blas(module):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_env": {name: os.environ.get(name) for name in BLAS_VARIABLES},
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_at_start": os.getloadavg(),
    }


def declared_units():
    """Units of the end-to-end and per-layer metrics that BENCHMARK.json names."""
    try:
        with open(BENCHMARK_PATH, encoding="utf-8") as handle:
            benchmark = json.load(handle)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read {BENCHMARK_PATH}: {exc}") from exc
    return [{m["name"]: m["unit"] for m in benchmark[key]} for key in ("end_to_end", "per_layer")]


def measure_setup(name, seed, workdir):
    """Seconds from process start to the end of the warm-up, per fresh process."""
    argv = [sys.executable, str(wl.HERE / "probe.py"), "setup", name, str(seed), str(workdir)]
    samples = []
    for _ in range(SETUP_RUNS):
        with tempfile.TemporaryFile() as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=err, env=wl.child_env(), cwd=wl.ROOT
            )
            timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                line = proc.stdout.readline()
                samples.append(time.perf_counter() - started)
                proc.communicate()
            finally:
                timer.cancel()
            if line.strip() != b"ready" or proc.returncode:
                err.seek(0)
                raise RuntimeError(f"set-up probe failed: {err.read().decode(errors='replace')}")
    return samples


class Segment:
    """Operations run back to back for a fixed time (a closed loop, one client)."""

    def __init__(self, workload, survrake, seconds, tracer=None):
        self.walls, self.attempted, self.failed = [], 0, 0
        cpu_before = time.process_time()
        started = time.perf_counter()
        k = 0
        while True:
            if tracer is not None:
                tracer.op = k
            wall, attempted, failed = workload.run_op(survrake, k, tracer)
            self.walls.append(wall)
            self.attempted += attempted
            self.failed += failed
            k += 1
            if time.perf_counter() - started >= seconds:
                break
        self.elapsed = time.perf_counter() - started
        self.cpu_s = time.process_time() - cpu_before
        self.n_ops = k
        self.reps = k * workload.reps_per_op

    @property
    def reps_per_s(self):
        return self.reps / self.elapsed


def end_to_end(workload, segment, setup_samples):
    return {
        "setup_s": statistics.median(setup_samples),
        "reps_per_s": segment.reps_per_s,
        "fit_s_p50": statistics.median(segment.walls),
        "peak_rss_mb": workload.peak_rss_mb(),
    }


def count_problems(workload, summary, n_ops):
    """Span counts that differ from what the configuration implies."""
    problems = []
    for name, expected in workload.expected_calls(n_ops, summary).items():
        if name == "design.bootstrap.replicates":
            got = spans.count(summary, "design.bootstrap", "replicates")
        else:
            got = spans.calls(summary, name)
        if got != expected:
            problems.append(f"span count {name}: {got} != {expected} implied by the configuration")
    return problems


def untraced(workload, survrake, seconds, setup_samples):
    segment = Segment(workload, survrake, seconds)
    return {
        "metrics": end_to_end(workload, segment, setup_samples),
        "segments": [segment],
        "problems": [],
        "span_table": {},
        "tracer": None,
    }


def traced(workload, survrake, seconds):
    """Per-layer metrics: an untraced third, then a traced two thirds.

    The parallel workload's spans would die in its worker processes, so it
    runs untraced throughout and reports only the pool's CPU figures.
    """
    plain = Segment(workload, survrake, seconds / 3.0)
    summary, n_ops, overhead_pct = {}, 1, 0.0
    segments, problems, table, tracer = [plain], [], {}, None
    if workload.kind != "parallel":
        tracer = spans.Tracer()
        if workload.kind == "simulation":
            tracer.install()
            workload.traced_setup(survrake, tracer)
        try:
            segment = Segment(workload, survrake, seconds * 2.0 / 3.0, tracer)
        finally:
            tracer.uninstall()
        segments.append(segment)
        summary, n_ops = spans.summarize(tracer.spans), segment.n_ops
        table = spans.span_table(summary, n_ops)
        if segment.failed or spans.count(summary, "design.bootstrap", "failed"):
            sys.stderr.write("note: span-count check skipped, some operations failed\n")
        else:
            problems.extend(count_problems(workload, summary, n_ops))
        overhead_pct = 100.0 * (1.0 - segment.reps_per_s / plain.reps_per_s)
    cpu_s_per_rep = cpu_util = import_s = 0.0
    if workload.kind == "simulation":
        cpu_s_per_rep, cpu_util = plain.cpu_s / plain.reps, plain.cpu_s / plain.elapsed
    elif workload.kind == "parallel":
        cpu_s_per_rep, cpu_util = workload.pool_cpu(plain.n_ops)
    else:
        import_s = statistics.median(workload.import_s)
    metrics = spans.layer_metrics(summary, n_ops)
    metrics.update({
        "simulation.pool.cpu_s_per_rep": cpu_s_per_rep,
        "simulation.pool.cpu_util": cpu_util,
        "cli.import_s": import_s,
        "trace.overhead_pct": overhead_pct,
    })
    return {
        "metrics": metrics,
        "segments": segments,
        "problems": problems,
        "span_table": table,
        "tracer": tracer,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        survrake = wl.import_survrake()
        reference = wl.reference_entry(args.workload, args.seed)
    except (wl.MissingProgram, wl.BadReference) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    e2e_units, layer_units = declared_units()
    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = RUNS_DIR / f"tmp-{tag}"
    workload = wl.WORKLOADS[args.workload](args.workload, args.seed, workdir, reference)
    try:
        workload.prepare(survrake)
        setup_samples = []
        if args.trace == 0:
            setup_samples = measure_setup(args.workload, args.seed, workdir)
        workload.setup(survrake)
        if args.trace == 0:
            outcome = untraced(workload, survrake, args.seconds, setup_samples)
        else:
            outcome = traced(workload, survrake, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = e2e_units if args.trace == 0 else layer_units
    metrics, segments = outcome["metrics"], outcome["segments"]
    if set(metrics) != set(units):
        sys.stderr.write(
            f"error: metrics {sorted(set(metrics) ^ set(units))} are emitted but not "
            f"declared in {BENCHMARK_PATH.name}, or declared but not emitted\n"
        )
        return 2
    problems = workload.checker.problems + outcome["problems"]
    correct = not problems
    attempted = sum(s.attempted for s in segments)
    failed = sum(s.failed for s in segments)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_ops_frac": failed / attempted,
        "problems": problems,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "samples": {
            "setup_s": setup_samples,
            "op_wall_s": [s.walls for s in segments],
        },
        "span_table": outcome["span_table"],
    }
    RUNS_DIR.mkdir(exist_ok=True)
    with open(RUNS_DIR / f"{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    if outcome["tracer"] is not None:
        outcome["tracer"].write(RUNS_DIR / f"{tag}-spans.jsonl")

    report = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}",
              f"environment {json.dumps(env)}"]
    report += [f"  {name:36s} {metrics[name]:14.6g} {units[name]}" for name in units]
    report.append(
        f"  failed_ops_frac {failed / attempted:.6g} ({failed} failed of {attempted} attempted)"
    )
    report += [f"  problem: {p}" for p in problems]
    sys.stderr.write("\n".join(report) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
