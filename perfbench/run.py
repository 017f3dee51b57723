"""lagweb benchmark: seeded workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload cli_n2 --seed 1 --seconds 5 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
``--workload all`` runs the four workloads one after another.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics of a traced in-process run.  The lines before it print
every metric of the workload with its unit, the environment and the sha256
of each output.  The full record, and the spans of a traced run, go to
perfbench/out/.  See perfbench/NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
WORKLOADS = ("cli_n2", "cli_n3", "solve_corpus", "mesh_checks")
SETUP_SAMPLES = 3      # fresh interpreters per run; setup_s is their median
DEADLINE_S = 175.0     # a run must end within 180 s


class BenchError(Exception):
    pass


def pinned_env() -> dict:
    """Environment of every program process: checkout sources, one BLAS thread."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", LAGWEB_SEED="0")
    return env


def spawn_worker(name, args, deadline, setup_only=False):
    """Run worker.py in a fresh interpreter: (its JSON result, its set-up time
    in seconds of the nominal host)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sizes", args.sizes]
    if setup_only:
        cmd.append("--setup-only")
    host = reference.sample()
    spawned = time.monotonic()
    # own session, so that a timeout also ends the CLI processes it started
    proc = subprocess.Popen(cmd, cwd=ROOT, env=pinned_env(), stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker for {name} exited {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker for {name} printed no result")
    result = json.loads(lines[-1])
    wall = result["ready"] - spawned
    return result, (wall, wall * reference.speed(host, result["host"]))


def run_workload(name, args, deadline) -> dict:
    result, setup = spawn_worker(name, args, deadline)
    setups = [setup]
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(spawn_worker(name, args, deadline, setup_only=True)[1])
    ops = result["ops"]
    result["summary"]["setup_s"] = {"value": statistics.median(t for t, _ in setups),
                                    "unit": "s", "n": len(setups),
                                    "samples": [t for t, _ in setups]}
    result["summary"]["host_speed"] = {"value": result["host_speed"], "unit": "ratio"}
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(t for _, t in setups)
        result["summary"]["peak_rss_mb"] = {"value": result["metrics"]["peak_rss_mb"],
                                            "unit": "MB"}
    result["correct"] = not any(op["wrong"] for op in ops)
    result["attempted"] = len(ops)
    result["failed"] = sum(bool(op["error"] or op["wrong"]) for op in ops)
    result["outputs_sha256"] = digest_summary(ops)
    result.update(workload=name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, sizes=args.sizes)
    return result


def digest_summary(ops) -> dict:
    """Each output's sha256; an output whose digest changed between
    operations of the run lists every digest seen (reported, not failed)."""
    seen = {}
    for op in ops:
        for name, digest in op["digests"].items():
            key = f"{op['label']}: {name}"
            if digest not in seen.setdefault(key, []):
                seen[key].append(digest)
    return {key: digests[0] if len(digests) == 1 else digests for key, digests in seen.items()}


def metric_units(trace: int) -> dict:
    """Name -> unit of the metrics a run prints, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def print_report(result, units) -> None:
    env = result["env"]
    print(f"== {result['workload']}  seed={result['seed']}  seconds={result['seconds']}  "
          f"trace={result['trace']}  sizes={result['sizes']}")
    print(f"   env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']}, nproc {env['nproc']} (affinity {env['affinity']}), "
          f"threads {env['threads']}, outputs on {env['outputs_fs']}")
    for name, entry in result["summary"].items():
        extra = ", ".join(f"{k}={v}" for k, v in entry.items() if k not in ("value", "unit"))
        print(f"   {name:<22} {entry['value']!s:<24} {entry['unit']:<6} {extra}")
    if result["trace"]:
        for name, value in result["metrics"].items():
            print(f"   {name:<36} {value!s:<24} {units[name]}")
        print("   self time by span (s):")
        for name, value in result["self_times"][:12]:
            print(f"     {name:<34} {value:.4f}")
    for op in result["ops"]:
        if op["error"] or op["wrong"]:
            print(f"   FAILED {op['label']}: {op['error'] or '; '.join(op['wrong'])}")
    for key, digest in result["outputs_sha256"].items():
        print(f"   sha256 {key}: {digest if isinstance(digest, str) else 'CHANGED ' + str(digest)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke test's problem sizes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lagweb" / "__init__.py").is_file():
        print(f"error: no lagweb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = metric_units(args.trace)
    deadline = time.monotonic() + DEADLINE_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if len(names) > 1:
        deadline += DEADLINE_S * (len(names) - 1)
    OUT.mkdir(exist_ok=True)
    results = []
    try:
        for name in names:
            result = run_workload(name, args, deadline)
            if set(result["metrics"]) != set(units):
                raise BenchError(f"{name} measured {sorted(result['metrics'])}, "
                                 f"BENCHMARK.json lists {sorted(units)}")
            with open(OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json", "w",
                      encoding="utf-8") as fh:
                json.dump(result, fh, indent=1)
            print_report(result, units)
            results.append(result)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        for name, value in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
