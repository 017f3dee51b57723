"""Seeded inputs, operations and correctness gates of the four workloads.

cli_n2        the README pair through the four CLI stages
cli_n3        a seeded n = 3 pair through the same four stages
solve_corpus  in-process BVP solves over an easy and a hard pair corpus
mesh_checks   in-process mesh builds and checks on trajectories solved in set-up

Constructing a workload is its set-up.  ``rounds()`` of a workload yields the
operations of one closed-loop round as zero-argument callables; the caller
runs them one after another.  Each returns an ``Op``: its wall time, the
program's error when it raised or exited non-zero, and the gate's findings
when the program claimed success but an output check failed.  Program calls
go through module attributes (``bvpsolve.solve_bvp_maslov0``, ...) so that
the traced run's wrappers see them.  Each program call is timed by a
``reference.Clock``, which also counts it in seconds of a nominal host.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import select
import shutil
import signal
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lagweb import bvpsolve, laggrass, webbing
from lagweb.numkernel import IntegratorConfig
from reference import Clock
from run import pinned_env

TOL = 1e-10            # solver tolerance of every solve, CLI and library
BETA_TOL = 1e-8        # recovered angles against the ground truth
REBUILD_TOL = 1e-9     # verify's stored-node defect
RELFLUX_TOL = 1e-4     # relflux over [-2, -1] against b1 - b0 = 1
SLICE_S = 1.0          # a CLI stage is paused to sample the host this often
# (quantity, upper bound?, limit): the CLI's default thresholds, fixed here
# so that the gate does not move with them
MESH_LIMITS = (("max_omega", True, 1e-8), ("max_re_omega", True, 1e-7),
               ("min_im_omega", False, 0.0), ("min_euler_angle", False, 0.01))
README_BETA = np.array([math.pi / 6, math.pi / 4])
README_LEVELS = (-1.0, -0.25, -0.0625)

# Hard corpus: (n, phase1, fixed angles, weights).  The fixed angles are used
# as given; the weights share the rest of phase1 - phase0, so equal weights
# give degenerate blocks and fixed zeros give frozen blocks.  phase1 = 1.568
# overflows apriori_bounds (exp(pi tan phase1)) and fails today; it stays in.
HARD_PAIRS = (
    (2, 1.555, (), (1.0, 1.5)),
    (3, 1.565, (), (1.0, 2.0, 3.0)),
    (2, 1.568, (), (1.0, 2.0)),
    (3, 1.2, (1e-4,), (1.0, 1.3)),
    (4, 1.0, (1e-4,), (1.0, 2.0, 3.0)),
    (4, 1.3, (), (1.0, 1.0, 2.0, 2.0)),
    (3, 1.1, (), (1.0, 1.0, 1.0)),
    (3, 1.2, (0.0,), (1.0, 2.0)),
    (4, 1.3, (0.0, 0.0), (1.0, 2.0)),
    (5, 1.555, (0.0, 1e-4), (1.0, 1.0, 2.0)),
)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is the benchmark, TINY the smoke test."""

    n2_steps: int = 2000
    n2_sphere: int | None = 128
    n3_steps: int = 500
    n3_sphere: int | None = None      # the default 64 x 32 latitude-longitude grid
    corpus_steps: int = 1000
    corpus_dims: tuple = (2, 3, 4, 5, 6)
    easy_per_n: int = 5
    hard_pairs: tuple = HARD_PAIRS
    mesh_n4_sphere: int = 256


FULL = Sizes()
TINY = Sizes(n2_steps=200, n2_sphere=16, n3_steps=40, n3_sphere=8, corpus_steps=200,
             corpus_dims=(2, 3), easy_per_n=1, hard_pairs=HARD_PAIRS[:4], mesh_n4_sphere=16)


@dataclass
class Op:
    label: str
    group: str                 # pipeline | easy | hard | pass
    wall_s: float = 0.0        # program time, of a failed operation too
    nominal_s: float = 0.0     # the same in seconds of the nominal host
    error: str | None = None   # the program raised or exited non-zero
    wrong: list = field(default_factory=list)   # output checks that failed
    stages: dict = field(default_factory=dict)  # CLI stage -> wall seconds
    rss_mb: float | None = None                 # largest CLI stage max-RSS
    digests: dict = field(default_factory=dict)  # output -> sha256

    @property
    def ok(self) -> bool:
        return self.error is None and not self.wrong


def error_text(exc: BaseException) -> str:
    tail = traceback.format_exception(exc)[-1].strip()
    return tail[-400:]


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


# --- pairs ---

def readme_pair():
    ambient = laggrass.FlatCalabiYau(2)
    l0 = laggrass.make_frame(ambient, np.eye(2))
    l1 = laggrass.make_frame(ambient, np.diag(np.exp(1j * README_BETA)))
    return l0, l1, README_BETA.copy()


def hard_pair(rng, n, phase1, fixed, weights):
    """Maslov-zero pair with the given target phase and angle pattern."""
    l0 = laggrass.random_positive_frame(rng, n, phase_range=(-0.3, 0.3))
    w = np.asarray(weights, dtype=float)
    free = phase1 - l0.phase - sum(fixed)
    beta = np.concatenate([np.asarray(fixed, dtype=float), free * w / w.sum()])
    r, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if np.linalg.det(r) < 0.0:
        r[:, -1] = -r[:, -1]
    raw1 = ((l0.columns @ r) * np.exp(1j * beta)[np.newaxis, :]) @ r.T
    return l0, laggrass.make_frame(l0.ambient, raw1), np.sort(beta)


# --- gates ---

def check_solution(sol, beta_true, tol=TOL) -> list:
    """A solve passes when its residual is below tol and its angles and end
    point match the ground truth."""
    wrong = []
    if not sol.residual_norm < tol:
        wrong.append(f"residual {sol.residual_norm:.3e} >= tol {tol:.1e}")
    beta_err = float(np.max(np.abs(np.asarray(sol.spectrum.beta) - beta_true)))
    if not beta_err <= BETA_TOL:
        wrong.append(f"beta off the ground truth by {beta_err:.3e}")
    end_err = float(np.max(np.abs(sol.trajectory.theta[-1] - beta_true)))
    if not end_err <= BETA_TOL:
        wrong.append(f"theta(1) off the ground truth by {end_err:.3e}")
    return wrong


def check_mesh(label, values) -> list:
    wrong = [f"{label}: {key} {values[key]:.3e} beyond {limit:g}"
             for key, upper, limit in MESH_LIMITS
             if not (values[key] < limit if upper else values[key] > limit)]
    if not math.isfinite(values.get("harmonic_residual", 0.0)):
        wrong.append(f"{label}: harmonic residual is not finite")
    return wrong


def check_cli_outputs(out: Path, beta_true, level_count: int) -> list:
    """Gate on the reports of a pipeline whose four stages exited 0."""
    wrong = []

    def load(rel):
        path = out / rel
        if not path.is_file():
            wrong.append(f"{rel} is missing")
            return None
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    for rel in ("run/pair.json", "run/solution.json"):
        report = load(rel)
        if report is None:
            continue
        beta_err = float(np.max(np.abs(np.asarray(report["beta"]) - beta_true)))
        if not beta_err <= BETA_TOL:
            wrong.append(f"{rel}: beta off the ground truth by {beta_err:.3e}")
        if rel.endswith("pair.json") and report["maslov"] != 0:
            wrong.append(f"{rel}: Maslov index {report['maslov']}")
        if rel.endswith("solution.json") and not report["residual"] < TOL:
            wrong.append(f"{rel}: residual {report['residual']:.3e}")
    web = load("web/webbing_report.json")
    if web is not None:
        if web.get("passed") is not True:
            wrong.append(f"webbing report not passed: {web.get('failures')}")
        if len(web.get("meshes", ())) != level_count:
            wrong.append(f"webbing report holds {len(web.get('meshes', ()))} meshes")
    ver = load("ver/verify_report.json")
    if ver is not None:
        if ver.get("passed") is not True:
            wrong.append(f"verify report not passed: {ver.get('failures')}")
        if not ver.get("rebuild_defect", math.inf) <= REBUILD_TOL:
            wrong.append(f"rebuild_defect {ver.get('rebuild_defect')}")
    return wrong


# --- CLI workloads ---

def run_cli_subprocess(argv, log: Path, clock: Clock):
    """One CLI stage in a fresh interpreter: (exit code, max-RSS MB, output).

    Every SLICE_S the child is stopped while ``clock`` samples the host, so
    that a long stage is scaled by samples taken all through it."""
    with open(log, "wb") as output:
        proc = subprocess.Popen([sys.executable, "-m", "lagweb.cli", *argv], env=pinned_env(),
                                stdin=subprocess.DEVNULL, stdout=output,
                                stderr=subprocess.STDOUT)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                while not select.select([pidfd], [], [], SLICE_S)[0]:
                    os.kill(proc.pid, signal.SIGSTOP)
                    # WNOWAIT leaves an exit to be reaped by wait4 below
                    info = os.waitid(os.P_PID, proc.pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
                    if info.si_code == os.CLD_STOPPED:
                        clock.split()
                    os.kill(proc.pid, signal.SIGCONT)
            finally:
                os.close(pidfd)
            # per-child max-RSS; RUSAGE_CHILDREN would keep a running max
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, log.read_text(errors="replace")


def run_cli_in_process(argv, log: Path, clock: Clock):
    """One CLI stage through lagweb.cli.main, SystemExit caught; one clock chunk."""
    import lagweb.cli

    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(err), contextlib.redirect_stderr(err):
            lagweb.cli.main(list(argv))
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # an uncaught error is a traceback in the CLI
        code = 1
        err.write(error_text(exc))
    log.write_text(err.getvalue())
    return code, None, err.getvalue()


class CliPipeline:
    """pair-analyze, geodesic, webbing, verify on one pair, one pipeline per op."""

    def __init__(self, name, pair, steps, levels, sphere, workdir: Path, in_process: bool,
                 clock: Clock):
        self.name = name
        self.clock = clock
        l0, l1, self.beta_true = pair
        self.steps, self.levels, self.sphere = steps, tuple(levels), sphere
        self.workdir = workdir
        self.run_stage = run_cli_in_process if in_process else run_cli_subprocess
        workdir.mkdir(parents=True, exist_ok=True)
        for fname, frame in (("l0.json", l0), ("l1.json", l1)):
            with open(workdir / fname, "w", encoding="utf-8") as fh:
                json.dump(laggrass.frame_to_json_dict(frame), fh)

    def stages(self, out: Path):
        l0, l1 = str(self.workdir / "l0.json"), str(self.workdir / "l1.json")
        run, web, ver = out / "run", out / "web", out / "ver"
        webbing_argv = ["webbing", "--solution", str(run / "solution.json"),
                        "--levels=" + ",".join(repr(c) for c in self.levels), "--out", str(web)]
        if self.sphere is not None:
            webbing_argv += ["--sphere-res", str(self.sphere)]
        return [
            ("pair_analyze", ["pair-analyze", "--lambda0", l0, "--lambda1", l1, "--out", str(run)]),
            ("geodesic", ["geodesic", "--lambda0", l0, "--lambda1", l1, "--steps", str(self.steps),
                          "--tol", repr(TOL), "--out", str(run)]),
            ("webbing", webbing_argv),
            ("verify", ["verify", "--mesh", str(web / "mesh_0.csv"), "--trajectory",
                        str(run / "trajectory.csv"), "--solution", str(run / "solution.json"),
                        "--out", str(ver)]),
        ]

    def rounds(self):
        yield self.pipeline

    def pipeline(self) -> Op:
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        op = Op(label=self.name, group="pipeline")
        rss = []
        for stage, argv in self.stages(out):
            before = op.wall_s
            with self.clock.chunk(op):
                code, rss_mb, err = self.run_stage(argv, out / f"{stage}.log", self.clock)
            op.stages[stage] = op.wall_s - before if code == 0 else math.inf
            if rss_mb is not None:
                rss.append(rss_mb)
            if code != 0:
                op.error = f"{stage} exited {code}: {err.strip()[-400:]}"
                break
        op.rss_mb = max(rss) if rss else None
        if op.error is None:
            op.wrong = check_cli_outputs(out, self.beta_true, len(self.levels))
        for path in sorted(out.rglob("*")):
            if path.suffix in (".json", ".csv"):
                op.digests[str(path.relative_to(out))] = sha256_file(path)
        shutil.rmtree(out, ignore_errors=True)
        return op

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


# --- library workloads ---

class SolveCorpus:
    """solve_bvp_maslov0 over the easy corpus, then the hard one, one solve per op."""

    def __init__(self, seed, sizes: Sizes, clock: Clock):
        self.clock = clock
        rng = np.random.default_rng(seed)
        self.pairs = []
        for n in sizes.corpus_dims:
            for k in range(sizes.easy_per_n):
                l0, l1, beta, _ = laggrass.random_maslov_zero_pair(rng, n)
                self.pairs.append((f"easy n={n} #{k}", "easy", (l0, l1, beta)))
        for n, phase1, fixed, weights in sizes.hard_pairs:
            label = f"hard n={n} phase1={phase1} fixed={list(fixed)} weights={list(weights)}"
            self.pairs.append((label, "hard", hard_pair(rng, n, phase1, fixed, weights)))
        self.config = IntegratorConfig(sizes.corpus_steps)

    def rounds(self):
        for label, group, pair in self.pairs:
            yield functools.partial(self.solve, label, group, pair)

    def solve(self, label, group, pair) -> Op:
        l0, l1, beta_true = pair
        op = Op(label=label, group=group)
        try:
            with self.clock.chunk(op):
                sol = bvpsolve.solve_bvp_maslov0(l0, l1, TOL, self.config)
        except Exception as exc:
            op.error = error_text(exc)
            return op
        op.wrong = check_solution(sol, beta_true)
        op.digests["solution"] = sha256_arrays(sol.coefficients, sol.trajectory.g,
                                               sol.trajectory.theta)
        return op

    def close(self):
        pass


class MeshChecks:
    """Mesh builds and checks on three trajectories solved during set-up."""

    def __init__(self, seed, sizes: Sizes, clock: Clock):
        self.clock = clock
        rng = np.random.default_rng(seed)
        l0, l1, _ = readme_pair()
        self.traj2 = bvpsolve.solve_bvp_maslov0(l0, l1, TOL, IntegratorConfig(sizes.n2_steps)).trajectory
        self.n2_sphere = sizes.n2_sphere
        self.others = []
        for n, steps, sphere in ((3, sizes.n3_steps, sizes.n3_sphere),
                                 (4, sizes.n2_steps, sizes.mesh_n4_sphere)):
            a, b, _, _ = laggrass.random_maslov_zero_pair(rng, n)
            traj = bvpsolve.solve_bvp_maslov0(a, b, TOL, IntegratorConfig(steps)).trajectory
            self.others.append((f"n={n}", traj, sphere))

    def rounds(self):
        yield self.check_pass

    def _checks(self, op, mesh, harmonic: bool) -> dict:
        # one clock chunk per call keeps each host-speed sample close to the
        # call it scales
        with self.clock.chunk(op):
            slag = webbing.verify_slag(mesh)
        with self.clock.chunk(op):
            values = {"max_omega": slag.max_omega, "max_re_omega": slag.max_re_omega,
                      "min_im_omega": slag.min_im_omega,
                      "min_euler_angle": webbing.euler_transversality(mesh)}
        if harmonic:
            with self.clock.chunk(op):
                values["harmonic_residual"] = webbing.harmonic_residual(mesh)
        return values

    def check_pass(self) -> Op:
        op = Op(label="mesh checks", group="pass")
        results = {}
        try:
            with self.clock.chunk(op):
                meshes = webbing.webbing_family(self.traj2, README_LEVELS, self.n2_sphere)
            for level, mesh in zip(README_LEVELS, meshes):
                results[f"n=2 c={level}"] = self._checks(op, mesh, harmonic=True)
            del meshes, mesh
            with self.clock.chunk(op):
                flux = webbing.relflux(self.traj2, -2.0, -1.0).relflux
            for label, traj, sphere in self.others:
                with self.clock.chunk(op):
                    mesh = webbing.cylinder_mesh(traj, -1.0, sphere)
                results[label] = self._checks(op, mesh, harmonic=False)
                del mesh
        except Exception as exc:
            op.error = error_text(exc)
            return op
        for label, values in results.items():
            op.wrong += check_mesh(label, values)
        if not abs(flux - 1.0) <= RELFLUX_TOL:
            op.wrong.append(f"relflux[-2,-1] = {flux!r}, expected 1 within {RELFLUX_TOL}")
        flat = [flux] + [v for label in sorted(results) for _, v in sorted(results[label].items())]
        op.digests["checks"] = sha256_arrays(flat)
        return op

    def close(self):
        pass


def build(name: str, seed: int, sizes: Sizes, workdir: Path, in_process: bool,
          clock: Clock | None = None):
    """Set up a workload: generate its inputs from the seed, solve what it needs."""
    clock = clock or Clock()
    if name == "cli_n2":
        return CliPipeline(name, readme_pair(), sizes.n2_steps, README_LEVELS, sizes.n2_sphere,
                           workdir, in_process, clock)
    if name == "cli_n3":
        l0, l1, beta, _ = laggrass.random_maslov_zero_pair(np.random.default_rng(seed), 3)
        return CliPipeline(name, (l0, l1, beta), sizes.n3_steps, (-1.0,), sizes.n3_sphere,
                           workdir, in_process, clock)
    if name == "solve_corpus":
        return SolveCorpus(seed, sizes, clock)
    if name == "mesh_checks":
        return MeshChecks(seed, sizes, clock)
    raise ValueError(f"unknown workload {name!r}")
