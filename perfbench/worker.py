"""One benchmark process: set a workload up, run its closed loop, report.

Started by run.py in a fresh interpreter, so that the time from process
start to the end of set-up is the workload's set-up time.  Prints one JSON
object as its last line of standard output.

  --setup-only   stop after set-up (extra set-up samples)
  --trace 0      run rounds for --seconds; CLI stages run as subprocesses
  --trace 1      run rounds in-process for --seconds untraced, then the same
                 number of rounds traced; report per-layer metrics
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def timing(values, unit="s") -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    out = {"value": statistics.median(xs) if xs else None, "unit": unit, "n": len(xs)}
    i = len(xs) - 11
    if i >= 0 and (i + 1) / len(xs) > 0.5:  # a tail below the median says nothing
        out["tail_pct"] = 100.0 * (i + 1) / len(xs)
        out["tail"] = xs[i]
    return out


def measure(workload, seconds=None, rounds=None, tracer=None):
    """Closed loop: whole rounds until ``seconds`` have passed or ``rounds`` ran.

    Returns the operations of each round and the loop's wall time."""
    done = []
    start = time.perf_counter()
    while True:
        ops = []
        for run_op in workload.rounds():
            if tracer is None:
                ops.append(run_op())
            else:
                tracer.run_id = sum(map(len, done)) + len(ops)
                with tracer.span("op"):
                    ops.append(run_op())
        done.append(ops)
        if rounds is not None and len(done) >= rounds:
            break
        if rounds is None and time.perf_counter() - start >= seconds:
            break
    return done, time.perf_counter() - start


def op_times(ops, nominal=False):
    """Operation times; a failed operation counts as infinitely slow."""
    return [(op.nominal_s if nominal else op.wall_s) if op.ok else math.inf for op in ops]


def summarise(name, ops) -> dict:
    """The workload's own end-to-end metrics, as listed in NOTES.md."""
    good = sum(op.ok for op in ops)
    summary = {}
    if name.startswith("cli_"):
        summary["pipeline_s"] = timing(op_times(ops))
        for stage in ("pair_analyze", "geodesic", "webbing", "verify"):
            summary[f"{stage}_s"] = timing(op.stages.get(stage, math.inf) for op in ops)
    elif name == "solve_corpus":
        easy = timing(op_times(op for op in ops if op.group == "easy"))
        summary["solve_p50_s"] = {k: easy[k] for k in ("value", "unit", "n")}
        summary["solve_tail_s"] = {"value": easy.get("tail"), "unit": "s",
                                   "percentile": easy.get("tail_pct"), "n": easy["n"]}
        summary["hard_solve_p50_s"] = timing(op_times(op for op in ops if op.group == "hard"))
        busy = sum(op.wall_s for op in ops)
        summary["solves_per_s"] = {"value": good / busy, "unit": "1/s", "n": good}
    else:
        summary["mesh_checks_s"] = timing(op_times(ops))
    summary["failed_ratio"] = {"value": (len(ops) - good) / len(ops), "unit": "ratio",
                               "failed": len(ops) - good, "attempted": len(ops)}
    return summary


def peak_rss_mb(ops) -> float:
    stages = [op.rss_mb for op in ops if op.rss_mb is not None]
    if stages:
        return max(stages)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        fs = subprocess.run(["stat", "-f", "-c", "%T", str(OUT)], capture_output=True,
                            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        fs = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "outputs_fs": fs,
        "machine": platform.machine(),
    }


def import_probe(samples=3) -> float:
    """Median wall time of ``import lagweb.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import lagweb.cli; print(time.perf_counter() - t)"
    times = [float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  check=True, timeout=60).stdout) for _ in range(samples)]
    return statistics.median(times)


def traced_run(workload, seconds, spans_path: Path):
    import tracing

    rounds, window = measure(workload, seconds)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced_rounds, _ = measure(workload, rounds=len(rounds), tracer=tracer)
    ops, traced_ops = sum(rounds, []), sum(traced_rounds, [])
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["cli.import_s"] = import_probe()
    # program time of the same rounds; benchmark bookkeeping is left out
    untraced = sum(op.wall_s for op in ops)
    traced = sum(op.wall_s for op in traced_ops)
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.wall_s"] = traced
    metrics["trace.overhead_ratio"] = traced / untraced - 1.0 if untraced else 0.0
    self_times = sorted(tracing.self_times(tracer.spans).items(), key=lambda kv: -kv[1])
    return ops + traced_ops, window, metrics, self_times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--sizes", choices=("full", "tiny"), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import lagweb

    if Path(lagweb.__file__).resolve().parent != ROOT / "src" / "lagweb":
        print(f"lagweb imported from {lagweb.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import reference
    import workloads

    sizes = workloads.TINY if args.sizes == "tiny" else workloads.FULL
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workload = workloads.build(args.workload, args.seed, sizes, workdir,
                               in_process=bool(args.trace))
    try:
        ready = time.monotonic()
        # the host's speed at the end of set-up; run.py sampled it at the start
        result = {"ready": ready, "host": reference.sample()}
        if args.setup_only:
            print(json.dumps(result))
            return 0
        result["env"] = environment()
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            ops, window, metrics, self_times = traced_run(workload, args.seconds, spans)
            result.update(metrics=metrics, self_times=self_times, spans_file=str(spans.relative_to(ROOT)))
        else:
            rounds, window = measure(workload, args.seconds)
            ops = sum(rounds, [])
            result["metrics"] = {
                "op_p50_s": statistics.median(op_times(ops, nominal=True)),
                "peak_rss_mb": peak_rss_mb(ops),
            }
        result.update(
            host_speed=sum(op.nominal_s for op in ops) / sum(op.wall_s for op in ops),
            summary=summarise(args.workload, ops),
            window_s=window,
            ops=[dataclasses.asdict(op) for op in ops],
        )
        print(json.dumps(result))
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
