"""Command line pipeline: analyze a pair, solve, build cylinders, verify.

Subcommands
-----------
pair-analyze  angles, phases, Maslov index and transversality of two frames
geodesic      solve the two-frame boundary value problem, emit solution JSON
              and a trajectory CSV
webbing       build level-set cylinder meshes from a solution and verify them
verify        re-check an emitted mesh CSV and trajectory CSV against the solution

webbing and verify rebuild the trajectory from the solution JSON alone, as the
solver made it: the solved pair is derived again from the two frames that the
JSON stores.  verify rebuilds each mesh from the level and sphere resolution
that webbing recorded for it.  Each stored CSV must then hold exactly the bytes
that its writer makes from the rebuild, and each check value that verify
computes must equal the one webbing recorded for the mesh.  The mesh CSV is
written and read one block of time slices at a time, and each block's nodes
are formed from the mesh's factors only then, so peak memory does not grow
with the mesh.  With two CPUs the blocks alternate between the stage and one
forked helper process, which writes or checks its blocks at the offsets the
stage passes it (csvtext); the bytes, messages and exit codes are those of
one process, and no helper outlives its stage.

All outputs are deterministic: JSON keys are sorted and floats carry 17
significant digits.

Exit codes: 0 ok; 2 bad input or files (ValueError, OSError) or a failed
computation or check (LagwebError), printed as "error: <message>"; 3 solver
non-convergence (NoConvergence); 4 verification threshold failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

# bvpsolve, geoflow and webbing are imported by the stages that run them: each
# stage is a fresh interpreter, which may have to compile every module it imports
from . import laggrass
from .errors import LagwebError, NoConvergence
from .numkernel import IntegratorConfig

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_THRESHOLD = 4

# (report key, flag, default, upper bound?): a value passes only strictly
# inside its limit; min_im_omega has no flag
THRESHOLDS = (
    ("max_omega", "--max-omega-tol", 1e-8, True),
    ("max_re_omega", "--max-re-omega-tol", 1e-7, True),
    ("min_im_omega", None, 0.0, False),
    ("min_euler_angle", "--min-euler", 0.01, False),
)


# --- deterministic emitters ---

def _render_json(obj) -> str:
    """Sorted keys and 17 significant digits; numpy values become JSON ones."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(f"{json.dumps(str(k))}:{_render_json(v)}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_render_json(v) for v in obj) + "]"
    if obj is None or isinstance(obj, (int, str)):  # bool is an int
        return json.dumps(obj)
    if isinstance(obj, float):
        text = format(obj, ".17g")
        return "-0.0" if text == "-0" else text  # json reads -0 as the int 0
    raise TypeError(f"cannot serialize {type(obj)}")


def write_json(path, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_render_json(obj) + "\n")
    return path


# --- subcommand implementations ---

def _solved_pair(l0, l1):
    """(l0, l1, spectrum, reversed): the pair of Maslov index 0 that the
    geodesic is solved for, with its decomposition.  An index-n pair is
    solved as its swapped pair, and its trajectory reversed in time; any
    other index raises ValueError."""
    spectrum = laggrass.pair_decomposition(l0, l1)
    maslov, _ = spectrum.maslov_index()
    if maslov not in (0, l0.n):
        raise ValueError(f"Maslov index {maslov} is not 0 or n = {l0.n}; "
                         "the geodesic is solved for those two only")
    if maslov == 0:
        return l0, l1, spectrum, False
    return l1, l0, laggrass.pair_decomposition(l1, l0), True


def run_pair_analyze(args) -> int:
    (l0, _), (l1, _) = laggrass.load_frame(args.lambda0), laggrass.load_frame(args.lambda1)
    spectrum = laggrass.pair_decomposition(l0, l1)
    maslov, defect = spectrum.maslov_index()
    payload = {
        "beta": spectrum.beta,
        "blocks": [list(b) for b in spectrum.blocks],
        "phases": [spectrum.phase0, spectrum.phase1],
        "maslov": maslov,
        "integrality_defect": defect,
        "membership_defect": spectrum.membership_defect,
        "transverse": spectrum.transverse,
    }
    print(f"wrote {write_json(os.path.join(args.out, 'pair.json'), payload)}")
    return EXIT_OK


def run_geodesic(args) -> int:
    from . import bvpsolve, geoflow

    (l0, data0), (l1, data1) = laggrass.load_frame(args.lambda0), laggrass.load_frame(args.lambda1)
    l0, l1, spectrum, reversed_roles = _solved_pair(l0, l1)
    sol = bvpsolve.solve_bvp_maslov0(l0, l1, args.tol, IntegratorConfig(args.steps),
                                     spectrum=spectrum)
    traj = sol.trajectory
    out_traj = geoflow.time_reversed(traj) if reversed_roles else traj
    geoflow.write_trajectory_csv(out_traj, os.path.join(args.out, "trajectory.csv"))

    payload = {
        "a": sol.coefficients,
        "steps": args.steps,
        "tolerance": args.tol,
        "frame0": data0,
        "frame1": data1,
        "beta": spectrum.beta,
        "residual": sol.residual_norm,
        "newton_residuals": sol.newton_residuals,
        "grid_residuals": sol.grid_residuals,
        "jacobian_condition": sol.jacobian_condition,
    }
    path = write_json(os.path.join(args.out, "solution.json"), payload)
    print(f"wrote {path} (residual {sol.residual_norm:.3e})")
    return EXIT_OK


def _finite_number(value) -> bool:
    # exact JSON types: a bool is an int to Python, and float() takes "0.5"
    return type(value) in (int, float) and math.isfinite(value)


def _residuals(value) -> bool:
    return type(value) is list and all(_finite_number(x) and x >= 0 for x in value)


def _load_trajectory(solution_path: str):
    """The solver's trajectory, rebuilt from the solution JSON as geodesic
    made it: the solved pair and its decomposition come from the stored
    frame0 and frame1 (_solved_pair), and the stored a is integrated from
    that pair's phase0 over the stored steps, reversed in time for an
    index-n pair.  The stored beta must be the derived angles and residual
    the rebuild's max|theta(1) - beta|, both to the bit, and the residual
    and the solve's history must lie below the stored tolerance."""
    from . import geoflow

    with open(solution_path, "r", encoding="utf-8") as fh:
        solution = json.load(fh)
    try:
        steps, tolerance, residual = solution["steps"], solution["tolerance"], solution["residual"]
        newton, grid = solution["newton_residuals"], solution["grid_residuals"]
        condition = solution["jacobian_condition"]
        if not (type(steps) is int and steps >= 1 and _finite_number(tolerance)
                and tolerance > 0):
            raise ValueError("malformed solution JSON: need an integer steps >= 1 and a "
                             "positive finite number tolerance")
        frames = [laggrass.frame_from_json_dict(solution[key]) for key in ("frame0", "frame1")]
        l0, _, spectrum, reverse = _solved_pair(*frames)
        beta = spectrum.beta
        if _render_json(solution["beta"]) != _render_json(beta):
            raise ValueError(f"malformed solution JSON: beta must be the solved pair's angles "
                             f"{_render_json(beta)}, got {json.dumps(solution['beta'])}")
        spec = geoflow.GeodesicSpec(base=l0, adapted_basis=spectrum.adapted_basis,
                                    coefficients=np.asarray(solution["a"], dtype=float))
    except (KeyError, TypeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed solution JSON: {type(exc).__name__} {exc}") from exc
    traj = geoflow.geodesic_ivp(spec, IntegratorConfig(steps))
    # the solver's residual, on the same RK4 run: its bits, below its tolerance
    rebuilt = float(np.max(np.abs(traj.theta[-1] - beta)))
    if not (_finite_number(residual) and residual == rebuilt):
        raise ValueError(f"malformed solution JSON: residual must be the rebuilt max|theta(1) "
                         f"- beta| {rebuilt!r}, got {json.dumps(residual)}")
    if not residual < tolerance:
        raise ValueError(f"malformed solution JSON: residual {residual!r} is not below "
                         f"tolerance {tolerance!r}")
    # the solve's history: the exact-map Newton solve returns only below the
    # tolerance, and a grid correction ends on the trajectory's residual
    if not (_residuals(newton) and newton and newton[-1] < tolerance):
        raise ValueError(f"malformed solution JSON: newton_residuals must be one or more finite "
                         f"non-negative numbers, the last below tolerance {tolerance!r}, got "
                         f"{json.dumps(newton)}")
    if not (_residuals(grid) and (not grid or grid[-1] == residual)):
        raise ValueError(f"malformed solution JSON: grid_residuals must be [] or finite "
                         f"non-negative numbers ending in residual {residual!r}, got "
                         f"{json.dumps(grid)}")
    if not (_finite_number(condition) and condition >= 1):
        raise ValueError(f"malformed solution JSON: jacobian_condition must be a finite number "
                         f">= 1, got {json.dumps(condition)}")
    return geoflow.time_reversed(traj) if reverse else traj


def _mesh_report(mesh) -> dict:
    from . import webbing

    slag = webbing.verify_slag(mesh)
    return {
        "level": mesh.chart.level,
        "max_omega": slag.max_omega,
        "max_re_omega": slag.max_re_omega,
        "min_im_omega": slag.min_im_omega,
        "orientation": slag.orientation,
        "min_euler_angle": webbing.euler_transversality(mesh),
        "boundary_defect": mesh.boundary_defect,
        "harmonic_residual": webbing.harmonic_residual(mesh) if mesh.n == 2 else None,
    }


def _check_thresholds(report: dict, thresholds: dict):
    """One message per value outside its limit; NaN is never inside one."""
    failures = []
    for key, _, _, upper in THRESHOLDS:
        value, limit = report[key], thresholds[key]
        if not (value < limit if upper else value > limit):
            failures.append(f"{key} {value:.3e} {'>=' if upper else '<='} {limit:.2e}")
    return failures


def _emit_checked(path: str, payload: dict, failures, note: str = "") -> int:
    """Write a checked report, then name each threshold failure on stderr."""
    print(f"wrote {write_json(path, payload)}{note}")
    for msg in failures:
        print(f"threshold failure: {msg}", file=sys.stderr)
    return EXIT_THRESHOLD if failures else EXIT_OK


def run_webbing(args) -> int:
    from . import webbing

    traj = _load_trajectory(args.solution)
    meshes = []
    failures = []
    for k, level in enumerate(args.levels):
        mesh = webbing.cylinder_mesh(traj, level, args.sphere_res)
        name = f"mesh_{k}.csv"
        report = _mesh_report(mesh)  # checked before any CSV of a mesh it rejects is written
        webbing.write_mesh_csv(mesh, os.path.join(args.out, name))
        report["csv"] = name
        failures += [f"level {level}: {msg}" for msg in _check_thresholds(report, args.thresholds)]
        meshes.append(report)
        del mesh  # the next level is built without this one alongside
    payload = {
        "levels": args.levels,
        "sphere_resolution": args.sphere_res,
        "thresholds": args.thresholds,
        "meshes": meshes,
        "passed": not failures,
        "failures": failures,
    }
    return _emit_checked(os.path.join(args.out, "webbing_report.json"), payload, failures,
                         f" ({len(meshes)} meshes)")


def _recorded_grid(report_path: str, name: str):
    """(entry, level, sphere resolution) that a webbing report records for
    the mesh CSV called name; entry is the report's dict for that mesh."""
    with open(report_path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    try:
        entry = next((m for m in report["meshes"] if m["csv"] == name), None)
        if entry is None:
            raise ValueError(f"{report_path} holds no entry for {name}")
        level, resolution = entry["level"], report["sphere_resolution"]
        if not (_finite_number(level) and (resolution is None or type(resolution) is int)):
            raise ValueError("malformed webbing report: need a finite number level and an "
                             "integer or null sphere_resolution")
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed webbing report: {type(exc).__name__} {exc}") from exc
    return entry, float(level), resolution


def _check_recorded_values(entry: dict, report: dict, name: str) -> None:
    """Require every check value that verify computed to equal, exactly, the
    one that webbing recorded for the same mesh: the two run the same code
    on the same rebuild, so any difference is a report that contradicts the
    mesh.  ValueError naming the first key that differs."""
    for key, value in report.items():
        if key not in entry:
            raise ValueError(f"webbing report records no {key} for {name}")
        recorded = entry[key]
        if type(recorded) is bool or recorded != value:  # JSON true would equal 1
            raise ValueError(f"webbing report's {key} for {name} is {recorded!r}, but verify "
                             f"computes {value!r}")


def run_verify(args) -> int:
    from . import geoflow, webbing

    mesh_dir = os.path.dirname(args.mesh) or "."
    name = os.path.basename(args.mesh)
    entry, level, resolution = _recorded_grid(os.path.join(mesh_dir, "webbing_report.json"),
                                              name)
    traj = _load_trajectory(args.solution or os.path.join(mesh_dir, "solution.json"))
    geoflow.read_trajectory_csv(args.trajectory, traj)
    # rebuild the immersion with analytic tangents as webbing built it
    mesh = webbing.cylinder_mesh(traj, level, resolution)
    webbing.read_mesh_csv(args.mesh, mesh)
    report = _mesh_report(mesh)
    _check_recorded_values(entry, report, name)
    report["rebuild_defect"] = 0.0  # the nodes equal the rebuild bitwise
    report["mesh_csv"] = name
    failures = _check_thresholds(report, args.thresholds)
    report["passed"] = not failures
    report["failures"] = failures
    return _emit_checked(os.path.join(args.out, "verify_report.json"), report, failures)


# --- argument parsing / dispatch ---

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagweb",
        description="geodesics of positive Lagrangian planes and their cylinder families",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    pair = sub.add_parser("pair-analyze", help="angles, phases and Maslov index of a pair")
    pair.set_defaults(handler=run_pair_analyze)
    pair.add_argument("--lambda0", required=True)
    pair.add_argument("--lambda1", required=True)
    pair.add_argument("--out", default=".")

    geo = sub.add_parser("geodesic", help="solve the two-frame boundary value problem")
    geo.set_defaults(handler=run_geodesic)
    geo.add_argument("--lambda0", required=True)
    geo.add_argument("--lambda1", required=True)
    geo.add_argument("--steps", type=int, default=2000)
    geo.add_argument("--tol", type=float, default=1e-10)
    geo.add_argument("--out", default=".")

    web = sub.add_parser("webbing", help="build and verify level-set cylinder meshes")
    web.set_defaults(handler=run_webbing)
    web.add_argument("--solution", required=True)
    web.add_argument("--levels", default="-1")
    web.add_argument("--sphere-res", type=int, default=None)
    web.add_argument("--out", default=".")
    _add_threshold_args(web)

    ver = sub.add_parser("verify", help="re-check an emitted mesh CSV")
    ver.set_defaults(handler=run_verify)
    ver.add_argument("--mesh", required=True)
    ver.add_argument("--trajectory", required=True)
    ver.add_argument("--solution", default="",
                     help="solution JSON (default: solution.json next to the mesh)")
    ver.add_argument("--out", default=".")
    _add_threshold_args(ver)
    return parser


def _add_threshold_args(sub) -> None:
    for _, flag, default, _ in THRESHOLDS:
        if flag:
            sub.add_argument(flag, type=float, default=default)


def config_from_args(args) -> argparse.Namespace:
    """Check the parsed arguments and complete them in place: the levels as
    sorted floats and the threshold dict."""
    if hasattr(args, "tol"):
        if args.tol <= 0:
            raise ValueError("tolerance must be positive")
        if not math.isfinite(args.tol):
            raise ValueError(f"tolerance must be finite, got {args.tol}")
    if hasattr(args, "levels"):
        args.levels = sorted(float(v) for v in args.levels.split(",") if v.strip())
        if not args.levels:
            raise ValueError("--levels needs at least one level")
    if hasattr(args, "max_omega_tol"):
        # argparse stores --max-omega-tol as max_omega_tol
        args.thresholds = {key: default if flag is None else vars(args)[flag[2:].replace("-", "_")]
                           for key, flag, default, _ in THRESHOLDS}
        for key, flag, _, _ in THRESHOLDS:
            # a non-finite limit would reach the report as a token no JSON parser reads
            if not math.isfinite(args.thresholds[key]):
                raise ValueError(f"{flag} must be finite, got {args.thresholds[key]}")
    return args


def run(args) -> int:
    """Dispatch checked arguments to their stage; returns the process exit code."""
    try:
        os.makedirs(args.out, exist_ok=True)
        probe = os.path.join(args.out, ".lagweb_write_probe")
        with open(probe, "w", encoding="utf-8"):
            pass
        os.remove(probe)
        return args.handler(args)
    except NoConvergence as exc:
        detail = ("" if exc.best_residual is None
                  else f" (smallest residual: {exc.best_residual:.3e})")
        print(f"solver failure: {exc}{detail}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError, MemoryError, OverflowError, LagwebError) as exc:
        # MemoryError, OverflowError: a step or sphere count too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    try:
        args = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_VALIDATION)
    sys.exit(run(args))


if __name__ == "__main__":
    main()
