"""Command line pipeline: analyze a pair, solve, build cylinders, verify.

Subcommands
-----------
pair-analyze  angles, phases, Maslov index and transversality of two frames
geodesic      solve the two-frame boundary value problem, emit solution JSON
              and a trajectory CSV
webbing       build level-set cylinder meshes from a solution and verify them
verify        re-check an emitted mesh CSV against the trajectory/solution

All outputs are deterministic: JSON keys are sorted, floats carry 17
significant digits, and the only randomness (quasi-random sphere sampling
for n >= 4) is seeded by LAGWEB_SEED (default 0), which is recorded in every
report.

Exit codes: 0 ok, 2 validation error, 3 solver non-convergence,
4 verification threshold failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import bvpsolve, geoflow, laggrass, webbing
from .errors import (
    LagwebError,
    MaslovNonzero,
    NoConvergence,
    NotInteger,
    NotLagrangian,
    NotPositive,
)
from .numkernel import IntegratorConfig

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_THRESHOLD = 4

DEFAULT_THRESHOLDS = {
    "max_omega": 1e-8,
    "max_re_omega": 1e-7,
    "min_im_omega": 0.0,
    "min_euler_angle": 0.01,
}


@dataclass
class RunConfig:
    subcommand: str
    lambda0: str = ""
    lambda1: str = ""
    solution: str = ""
    mesh: str = ""
    trajectory: str = ""
    out_dir: str = "."
    steps: int = 2000
    tolerance: float = 1e-10
    levels: tuple = ()
    sphere_resolution: int | None = None
    experimental_general_maslov: bool = False
    thresholds: dict = field(default_factory=lambda: dict(DEFAULT_THRESHOLDS))
    seed: int = 0


# --- deterministic emitters ---

def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _render_json(obj) -> str:
    obj = _jsonable(obj)
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(k)}:{_render_json(obj[k])}" for k in sorted(obj))
        return "{" + inner + "}"
    if isinstance(obj, list):
        return "[" + ",".join(_render_json(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return json.dumps(obj)
    if isinstance(obj, float):
        return format(obj, ".17g")
    raise TypeError(f"cannot serialize {type(obj)}")


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_render_json(obj) + "\n")


def emit_report(out_dir: str, name: str, payload: dict) -> str:
    path = os.path.join(out_dir, name)
    write_json(path, payload)
    return path


# --- subcommand implementations ---

def _load_pair(config: RunConfig):
    l0 = laggrass.load_frame(config.lambda0)
    l1 = laggrass.load_frame(config.lambda1)
    if l0.n != l1.n:
        raise ValueError("frames have different dimensions")
    return l0, l1


def _pair_payload(spectrum, maslov, defect):
    return {
        "beta": spectrum.beta,
        "blocks": [list(b) for b in spectrum.blocks],
        "phases": [spectrum.phase0, spectrum.phase1],
        "maslov": maslov,
        "integrality_defect": defect,
        "membership_defect": spectrum.membership_defect,
        "transverse": spectrum.transverse,
    }


def run_pair_analyze(config: RunConfig) -> int:
    l0, l1 = _load_pair(config)
    spectrum = laggrass.pair_decomposition(l0, l1)
    maslov, defect = laggrass.maslov_index(l0, l1)
    payload = _pair_payload(spectrum, maslov, defect)
    payload["seed"] = config.seed
    path = emit_report(config.out_dir, "pair.json", payload)
    print(f"wrote {path}")
    return EXIT_OK


def run_geodesic(config: RunConfig) -> int:
    l0, l1 = _load_pair(config)
    maslov, defect = laggrass.maslov_index(l0, l1)
    integrator = IntegratorConfig(config.steps)
    reversed_roles = False
    experimental = False

    if maslov == 0:
        sol = bvpsolve.solve_bvp_maslov0(l0, l1, config.tolerance, integrator)
        spectrum, a, traj = sol.spectrum, sol.coefficients, sol.trajectory
        residual, jac_cond = sol.residual_norm, sol.jacobian_condition
        newton_residuals = list(sol.newton_residuals)
    elif maslov == l0.n:
        # index-n pairs: swap roles, solve at index zero, reverse time below
        reversed_roles = True
        sol = bvpsolve.solve_bvp_maslov0(l1, l0, config.tolerance, integrator)
        spectrum, a, traj = sol.spectrum, sol.coefficients, sol.trajectory
        residual, jac_cond = sol.residual_norm, sol.jacobian_condition
        newton_residuals = list(sol.newton_residuals)
    elif config.experimental_general_maslov:
        experimental = True
        spectrum, a, traj, residual, _ = bvpsolve.solve_experimental(
            l0, l1, config.tolerance, integrator
        )
        jac_cond = None
        newton_residuals = []
    else:
        raise MaslovNonzero(
            f"Maslov index {maslov} is not 0 or n = {l0.n}; "
            "rerun with --experimental-maslov to attempt unconstrained shooting",
            maslov,
        )

    if reversed_roles:
        # rows run in reversed time: the plane at row time tau is the solved
        # trajectory's plane at 1 - tau
        out_traj = geoflow.GeodesicTrajectory(spec=traj.spec, times=1.0 - traj.times[::-1],
                                              g=traj.g[::-1], theta=traj.theta[::-1])
    else:
        out_traj = traj
    geoflow.write_trajectory_csv(out_traj, os.path.join(config.out_dir, "trajectory.csv"))

    base = traj.spec.base
    payload = {
        "a": a,
        "beta": spectrum.beta,
        "residual": residual,
        "jacobian_condition": jac_cond,
        "trajectory_csv": "trajectory.csv",
        "n": base.n,
        "maslov": maslov,
        "phase0": spectrum.phase0,
        "phase1": spectrum.phase1,
        "steps": config.steps,
        "tolerance": config.tolerance,
        "seed": config.seed,
        "reversed": reversed_roles,
        "frame0": laggrass.frame_to_json_dict(base),
        "adapted_basis": traj.spec.adapted_basis,
        "newton_residuals": newton_residuals,
    }
    if experimental:
        payload["experimental"] = "no existence guarantee"
    path = emit_report(config.out_dir, "solution.json", payload)
    print(f"wrote {path} (residual {residual:.3e})")
    return EXIT_OK


def _trajectory_from_solution(solution: dict, sol_dir: str):
    frame = laggrass.frame_from_json_dict(solution["frame0"])
    spec = geoflow.GeodesicSpec(
        base=frame,
        adapted_basis=np.asarray(solution["adapted_basis"], dtype=float),
        coefficients=np.asarray(solution["a"], dtype=float),
        phase0=frame.phase,
    )
    csv_path = os.path.join(sol_dir, solution["trajectory_csv"])
    times, g, theta, _ = geoflow.read_trajectory_csv(csv_path)
    return geoflow.GeodesicTrajectory(spec=spec, times=times, g=g, theta=theta)


def _mesh_report(mesh, include_harmonic: bool) -> dict:
    slag = webbing.verify_slag(mesh)
    report = {
        "level": mesh.chart.level,
        "max_omega": slag.max_omega,
        "max_re_omega": slag.max_re_omega,
        "min_im_omega": slag.min_im_omega,
        "orientation": slag.orientation,
        "min_euler_angle": webbing.euler_transversality(mesh),
        "boundary_defect": mesh.boundary_defect,
        "harmonic_residual": (
            webbing.harmonic_residual(mesh)
            if include_harmonic and mesh.n == 2 and mesh.sphere.kind == "circle"
            else None
        ),
    }
    return report


def _check_thresholds(report: dict, thresholds: dict):
    failures = []
    if report["max_omega"] >= thresholds["max_omega"]:
        failures.append(f"max_omega {report['max_omega']:.3e} >= {thresholds['max_omega']:.1e}")
    if report["max_re_omega"] >= thresholds["max_re_omega"]:
        failures.append(
            f"max_re_omega {report['max_re_omega']:.3e} >= {thresholds['max_re_omega']:.1e}"
        )
    if report["min_im_omega"] <= thresholds["min_im_omega"]:
        failures.append(
            f"min_im_omega {report['min_im_omega']:.3e} <= {thresholds['min_im_omega']:.1e}"
        )
    if report["min_euler_angle"] <= thresholds["min_euler_angle"]:
        failures.append(
            f"min_euler_angle {report['min_euler_angle']:.3e} <= "
            f"{thresholds['min_euler_angle']:.2e}"
        )
    return failures


def run_webbing(config: RunConfig) -> int:
    with open(config.solution, "r", encoding="utf-8") as fh:
        solution = json.load(fh)
    traj = _trajectory_from_solution(solution, os.path.dirname(config.solution) or ".")
    levels = sorted(float(c) for c in config.levels)
    meshes = []
    failures = []
    for k, level in enumerate(levels):
        mesh = webbing.cylinder_mesh(traj, level, config.sphere_resolution, config.seed)
        name = f"mesh_{k}.csv"
        webbing.write_mesh_csv(mesh, os.path.join(config.out_dir, name))
        report = _mesh_report(mesh, include_harmonic=True)
        report["csv"] = name
        failures += [f"level {level}: {msg}" for msg in _check_thresholds(report, config.thresholds)]
        meshes.append(report)
    payload = {
        "levels": levels,
        "sphere_resolution": config.sphere_resolution,
        "seed": config.seed,
        "thresholds": config.thresholds,
        "meshes": meshes,
        "passed": not failures,
        "failures": failures,
    }
    path = emit_report(config.out_dir, "webbing_report.json", payload)
    print(f"wrote {path} ({len(meshes)} meshes)")
    if failures:
        for msg in failures:
            print(f"threshold failure: {msg}", file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


def run_verify(config: RunConfig) -> int:
    solution_path = config.solution or os.path.join(
        os.path.dirname(config.mesh) or ".", "solution.json"
    )
    with open(solution_path, "r", encoding="utf-8") as fh:
        solution = json.load(fh)
    traj = _trajectory_from_solution(solution, os.path.dirname(solution_path) or ".")
    params, times, points = webbing.read_mesh_csv(config.mesh)
    csv_times, csv_g, csv_theta, _ = geoflow.read_trajectory_csv(config.trajectory)
    if not np.array_equal(csv_times, traj.times):
        raise ValueError("trajectory CSV grid does not match the solution's trajectory")
    if not np.array_equal(times, traj.times):
        raise ValueError("mesh CSV time grid does not match the trajectory")
    if np.max(np.abs(csv_g - traj.g)) > 0 or np.max(np.abs(csv_theta - traj.theta)) > 0:
        raise ValueError("trajectory CSV samples disagree with the solution's trajectory")

    # rebuild the immersion with analytic tangents on the stored grid
    level = _infer_level(traj, params, points)
    resolution = points.shape[1] if traj.spec.n >= 4 else _resolution_from_params(traj.spec.n, params)
    mesh = webbing.cylinder_mesh(traj, level, resolution, config.seed)
    rebuild_defect = float(np.max(np.abs(mesh.points - points)))
    if rebuild_defect > 1e-9:
        raise ValueError(f"stored mesh nodes deviate from the rebuild by {rebuild_defect:.3e}")
    report = _mesh_report(mesh, include_harmonic=True)
    report["rebuild_defect"] = rebuild_defect
    report["mesh_csv"] = os.path.basename(config.mesh)
    report["seed"] = config.seed
    failures = _check_thresholds(report, config.thresholds)
    report["passed"] = not failures
    report["failures"] = failures
    path = emit_report(config.out_dir, "verify_report.json", report)
    print(f"wrote {path}")
    if failures:
        for msg in failures:
            print(f"threshold failure: {msg}", file=sys.stderr)
        return EXIT_THRESHOLD
    return EXIT_OK


def _resolution_from_params(n: int, params: np.ndarray) -> int:
    if n == 2:
        return params.shape[0]
    return int(round(math.sqrt(2 * params.shape[0])))  # latlong grid m x m/2


def _infer_level(traj, params, points) -> float:
    # pair the first slice with the frame rotated/stretched to that sample
    # (handles time-reversed trajectories, whose first sample is not the
    # unit state); the Hamiltonian sum a_j kappa_j^2 recovers the level
    rotated = traj.spec.frame_directions() * np.exp(1j * traj.theta[0])[np.newaxis, :]
    prods = points[0] @ rotated.conj()
    if np.max(np.abs(prods.imag)) > 1e-8:
        raise ValueError("first slice of the stored mesh is not in its trajectory plane")
    kappa = prods.real / np.sqrt(traj.g[0])[np.newaxis, :]
    values = (kappa**2) @ traj.spec.coefficients
    level = float(values.mean())
    if float(values.max() - values.min()) > 1e-8 * abs(level):
        raise ValueError("stored mesh nodes do not sit on a single level set")
    return level


# --- argument parsing / dispatch ---

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagweb",
        description="geodesics of positive Lagrangian planes and their cylinder families",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    pair = sub.add_parser("pair-analyze", help="angles, phases and Maslov index of a pair")
    pair.add_argument("--lambda0", required=True)
    pair.add_argument("--lambda1", required=True)
    pair.add_argument("--out", default=".")

    geo = sub.add_parser("geodesic", help="solve the two-frame boundary value problem")
    geo.add_argument("--lambda0", required=True)
    geo.add_argument("--lambda1", required=True)
    geo.add_argument("--steps", type=int, default=2000)
    geo.add_argument("--tol", type=float, default=1e-10)
    geo.add_argument("--experimental-maslov", action="store_true")
    geo.add_argument("--out", default=".")

    web = sub.add_parser("webbing", help="build and verify level-set cylinder meshes")
    web.add_argument("--solution", required=True)
    web.add_argument("--levels", default="-1")
    web.add_argument("--sphere-res", type=int, default=None)
    web.add_argument("--out", default=".")
    _add_threshold_args(web)

    ver = sub.add_parser("verify", help="re-check an emitted mesh CSV")
    ver.add_argument("--mesh", required=True)
    ver.add_argument("--trajectory", required=True)
    ver.add_argument("--solution", default="",
                     help="solution JSON (default: solution.json next to the mesh)")
    ver.add_argument("--out", default=".")
    _add_threshold_args(ver)
    return parser


def _add_threshold_args(sub) -> None:
    sub.add_argument("--max-omega-tol", type=float, default=DEFAULT_THRESHOLDS["max_omega"])
    sub.add_argument("--max-re-omega-tol", type=float, default=DEFAULT_THRESHOLDS["max_re_omega"])
    sub.add_argument("--min-euler", type=float, default=DEFAULT_THRESHOLDS["min_euler_angle"])


def config_from_args(args) -> RunConfig:
    seed = int(os.environ.get("LAGWEB_SEED", "0"))
    config = RunConfig(subcommand=args.subcommand, seed=seed)
    config.out_dir = getattr(args, "out", ".")
    for name in ("lambda0", "lambda1", "solution", "mesh", "trajectory"):
        if hasattr(args, name):
            setattr(config, name, getattr(args, name))
    if hasattr(args, "steps"):
        config.steps = args.steps
    if hasattr(args, "tol"):
        if args.tol <= 0:
            raise ValueError("tolerance must be positive")
        config.tolerance = args.tol
    if hasattr(args, "experimental_maslov"):
        config.experimental_general_maslov = args.experimental_maslov
    if hasattr(args, "levels"):
        text = args.levels.strip()
        config.levels = tuple(float(v) for v in text.split(",") if v.strip()) if text else ()
    if hasattr(args, "sphere_res"):
        config.sphere_resolution = args.sphere_res
    if hasattr(args, "max_omega_tol"):
        config.thresholds = {
            "max_omega": args.max_omega_tol,
            "max_re_omega": args.max_re_omega_tol,
            "min_im_omega": 0.0,
            "min_euler_angle": args.min_euler,
        }
    return config


def run(config: RunConfig) -> int:
    """Dispatch a validated RunConfig; returns the process exit code."""
    try:
        os.makedirs(config.out_dir, exist_ok=True)
        probe = os.path.join(config.out_dir, ".lagweb_write_probe")
        with open(probe, "w", encoding="utf-8"):
            pass
        os.remove(probe)
        if config.subcommand == "pair-analyze":
            return run_pair_analyze(config)
        if config.subcommand == "geodesic":
            return run_geodesic(config)
        if config.subcommand == "webbing":
            return run_webbing(config)
        if config.subcommand == "verify":
            return run_verify(config)
        raise ValueError(f"unknown subcommand {config.subcommand!r}")
    except (NotLagrangian, NotPositive, NotInteger, MaslovNonzero) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NoConvergence as exc:
        detail = (f"smallest residual: {exc.best_residual:.3e}" if exc.best_residual is not None
                  else f"last good continuation: {exc.last_good}")
        print(f"solver failure: {exc} ({detail})", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except LagwebError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_VALIDATION)
    sys.exit(run(config))


if __name__ == "__main__":
    main()
