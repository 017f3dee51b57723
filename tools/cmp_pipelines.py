#!/usr/bin/env python3
"""Check that this checkout's src/ gives the same CLI outputs as a git revision.

    python3 tools/cmp_pipelines.py <rev>

The revision's src/ is extracted with ``git archive`` into a temporary
directory.  Both trees then run the same nine pipelines, each stage in a
fresh interpreter (``python -m lagweb.cli``):

  readme    the README pair, --steps 2000, --levels=-1,-0.25
  n3        random_maslov_zero_pair(default_rng(1), 3), --steps 500,
            --levels=-1,-0.5, the default sphere
  reversed  the README pair in reverse order (Maslov index n), --steps 400,
            --sphere-res 24
  n4        random_maslov_zero_pair(default_rng(2), 4), --steps 300,
            --sphere-res 256: n4 and n9 sample the quasi-random sphere
  n9        random_maslov_zero_pair(default_rng(3), 9), --steps 300,
            --levels=-1, --sphere-res 64: the flow and the sphere in nine
            directions
  n9-tiny   the n9 pair at --levels=-1e-20: there Delta^2 ~ |c|^9 and the
            Hadamard bound's nine factors leave the ranges where the
            factors settle a chunk, so both mesh checks run the reference
            expression on every node
  n1-grid   the n = 1 pair e^{0.06i} -> e^{1.569i}, --steps 1000: the RK4
            grid misses the exact root and the grid correction runs;
            webbing exits 2, as it does for every n = 1 solution
  n1-fail   the same pair at --steps 200: the grid correction stalls and
            geodesic exits 3
  frozen    the pair I -> diag(1, e^{0.5i}), --steps 100: direction 1 is
            not turned (a_1 = 0), so its angles are RK4's sums of -0.0
            increments from +0.0, and webbing exits 2 on the non-transverse
            pair

Each pipeline writes its frames, then runs pair-analyze, geodesic, webbing
and verify on every mesh.  Every output file, exit code, stdout and stderr
is compared, and so is ``--help`` of every stage.  One line is printed per
difference; the exit code is 1 on any difference and 0 when there is none.
Only the standard library is used, and only the temporary directory is
written.  The stages run one at a time.  For every pipeline stage, both
trees' peak resident memory, CPU seconds and wall seconds are printed to
stderr; they are information only and never count as a difference.  The
peak and the CPU seconds (user + system) come from os.wait4, so they
cover the stage and the CSV helper process that it forks and reaps: a
stage whose CSV text is split between two processes shows more CPU than
wall seconds.  The n = 3 stages peak near 37 MB with the closed-form
checks streamed in chunks of about CSV_BLOCK node-samples (near 250 MB at
revisions that built the whole tangent stack), and a whole comparison
takes about 30 s on a 2-CPU host.
"""

import argparse
import filecmp
import math
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
STAGES = ("pair-analyze", "geodesic", "webbing", "verify")

README_PAIR = """
l0 = make_frame(FlatCalabiYau(2), np.eye(2))
l1 = make_frame(FlatCalabiYau(2), np.diag(np.exp(1j * np.array([np.pi / 6, np.pi / 4]))))
"""
N1_PAIR = """
l0 = make_frame(FlatCalabiYau(1), np.array([[np.exp(0.06j)]]))
l1 = make_frame(FlatCalabiYau(1), np.array([[np.exp(1.569j)]]))
"""
FROZEN_PAIR = """
l0 = make_frame(FlatCalabiYau(2), np.eye(2))
l1 = make_frame(FlatCalabiYau(2), np.diag([1.0, np.exp(0.5j)]))
"""
FRAME_SCRIPT = """
import numpy as np
from lagweb.cli import write_json
from lagweb.laggrass import FlatCalabiYau, frame_to_json_dict, make_frame, random_maslov_zero_pair
{pair}
write_json("l0.json", frame_to_json_dict(l0))
write_json("l1.json", frame_to_json_dict(l1))
"""

# name, frame construction, geodesic steps, webbing flags
PIPELINES = (
    ("readme", README_PAIR, 2000, ["--levels=-1,-0.25"]),
    ("n3", "l0, l1, _, _ = random_maslov_zero_pair(np.random.default_rng(1), 3)", 500,
     ["--levels=-1,-0.5"]),
    ("reversed", README_PAIR + "l0, l1 = l1, l0", 400, ["--sphere-res", "24"]),
    ("n4", "l0, l1, _, _ = random_maslov_zero_pair(np.random.default_rng(2), 4)", 300,
     ["--sphere-res", "256"]),
    ("n9", "l0, l1, _, _ = random_maslov_zero_pair(np.random.default_rng(3), 9)", 300,
     ["--levels=-1", "--sphere-res", "64"]),
    ("n9-tiny", "l0, l1, _, _ = random_maslov_zero_pair(np.random.default_rng(3), 9)", 300,
     ["--levels=-1e-20", "--sphere-res", "64"]),
    ("n1-grid", N1_PAIR, 1000, []),
    ("n1-fail", N1_PAIR, 200, []),
    ("frozen", FROZEN_PAIR, 100, []),
)


def extract_src(rev: str, dest: Path) -> None:
    archive = dest / "src.tar"
    subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", f"--output={archive}",
                    rev, "src"], check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def run_tree(src: Path, work: Path):
    """Run every pipeline with the lagweb package under src; returns
    {command label: (exit code, stdout, stderr)} and {command label: (peak
    resident MB, CPU s, wall s)}.  Outputs go under work."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    results, usages = {}, {}

    def call(label, cwd, argv):
        # output to files, so that the child is reaped by wait4 and its rusage read
        with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env, stdout=out,
                                    stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            results[label] = (proc.returncode, out.read(), err.read())
        usages[label] = (usage.ru_maxrss / 1024.0,  # kB on Linux
                         usage.ru_utime + usage.ru_stime, wall)
        return proc.returncode

    work.mkdir()
    for stage in STAGES:
        call(f"{stage} --help", work, ["-m", "lagweb.cli", stage, "--help"])
    for name, pair, steps, web_flags in PIPELINES:
        cwd = work / name
        cwd.mkdir()
        if call(f"{name}: frames", cwd, ["-c", FRAME_SCRIPT.format(pair=pair)]):
            continue
        frames = ["--lambda0", "l0.json", "--lambda1", "l1.json"]
        call(f"{name}: pair-analyze", cwd, ["-m", "lagweb.cli", "pair-analyze", *frames,
                                            "--out", "run"])
        if call(f"{name}: geodesic", cwd, ["-m", "lagweb.cli", "geodesic", *frames,
                                           "--steps", str(steps), "--out", "run"]):
            continue
        call(f"{name}: webbing", cwd, ["-m", "lagweb.cli", "webbing", "--solution",
                                       "run/solution.json", *web_flags, "--out", "web"])
        for mesh in sorted((cwd / "web").glob("mesh_*.csv")):
            call(f"{name}: verify {mesh.name}", cwd,
                 ["-m", "lagweb.cli", "verify", "--mesh", f"web/{mesh.name}",
                  "--trajectory", "run/trajectory.csv", "--solution", "run/solution.json",
                  "--out", f"verify_{mesh.stem}"])
    return results, usages


def compare(base: dict, head: dict, base_dir: Path, head_dir: Path) -> list:
    diffs = []
    for label in sorted(set(base) | set(head)):
        if label not in base or label not in head:
            diffs.append(f"{label}: run by only one tree")
            continue
        for part, old, new in zip(("exit code", "stdout", "stderr"), base[label], head[label]):
            if old != new:
                diffs.append(f"{label}: {part} differs: {old!r} -> {new!r}")
    files = {p.relative_to(base_dir) for p in base_dir.rglob("*") if p.is_file()}
    files |= {p.relative_to(head_dir) for p in head_dir.rglob("*") if p.is_file()}
    for rel in sorted(files):
        old, new = base_dir / rel, head_dir / rel
        if not (old.is_file() and new.is_file()):
            diffs.append(f"{rel}: written by only one tree")
        elif not filecmp.cmp(old, new, shallow=False):
            diffs.append(f"{rel}: bytes differ")
    print(f"compared {len(base)} commands and {len(files)} files", file=sys.stderr)
    return diffs


def print_usage(base: dict, head: dict) -> None:
    """One stderr line per pipeline stage: its peak resident MB, CPU seconds
    and wall seconds, each base -> head."""
    for label in dict.fromkeys([*base, *head]):
        if not label.endswith("--help"):
            old, new = (u.get(label, (math.nan,) * 3) for u in (base, head))  # nan: not run
            print(f"peak RSS {old[0]:6.1f} -> {new[0]:6.1f} MB  CPU {old[1]:5.2f} -> "
                  f"{new[1]:5.2f} s  wall {old[2]:5.2f} -> {new[2]:5.2f} s  {label}",
                  file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision whose src/ is the reference")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="cmp_pipelines_") as tmp:
        tmp = Path(tmp)
        (tmp / "base").mkdir()
        extract_src(args.rev, tmp / "base")
        base, base_usage = run_tree(tmp / "base" / "src", tmp / "base_out")
        head, head_usage = run_tree(REPO / "src", tmp / "head_out")
        diffs = compare(base, head, tmp / "base_out", tmp / "head_out")
    print_usage(base_usage, head_usage)
    for line in diffs:
        print(line)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
