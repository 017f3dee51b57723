"""Spans around the program's public functions, for the traced run.

``instrument(tracer)`` replaces each function in ``TRACED`` by a wrapper
wherever a lagweb module binds it, so every caller's lookup finds the
wrapper: ``integrate_rk4`` is wrapped as ``lagweb.numkernel.integrate_rk4``,
``lagweb.bvpsolve.integrate_rk4`` and ``lagweb.geoflow.integrate_rk4``.  The
originals come back when the block exits.  Spans stay in memory;
``layer_metrics`` turns them into self times and counts.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import time

MODULES = ("cli", "laggrass", "numkernel", "geoflow", "bvpsolve", "webbing")

# (span name, module, attribute); the span's self time is reported as <name>_s
TRACED = (
    ("cli.self", "cli", "main"),
    ("laggrass.load_frame", "laggrass", "load_frame"),
    ("laggrass.pair_decomposition", "laggrass", "pair_decomposition"),
    ("laggrass.maslov_index", "laggrass", "maslov_index"),
    ("numkernel.joint_diag", "numkernel", "joint_diagonalize_symmetric_unitary"),
    ("numkernel.rk4", "numkernel", "integrate_rk4"),
    ("bvpsolve.solve", "bvpsolve", "solve_bvp_maslov0"),
    ("geoflow.ivp", "geoflow", "geodesic_ivp"),
    ("geoflow.trajectory_csv_write", "geoflow", "write_trajectory_csv"),
    ("geoflow.trajectory_csv_read", "geoflow", "read_trajectory_csv"),
    ("webbing.cylinder_mesh", "webbing", "cylinder_mesh"),
    ("webbing.verify_slag", "webbing", "verify_slag"),
    ("webbing.euler_transversality", "webbing", "euler_transversality"),
    ("webbing.harmonic_residual", "webbing", "harmonic_residual"),
    ("webbing.relflux", "webbing", "relflux"),
    ("webbing.mesh_csv_write", "webbing", "write_mesh_csv"),
    ("webbing.mesh_csv_read", "webbing", "read_mesh_csv"),
)
# One Jacobian per Newton iteration (plus one for a stage that converges at
# its first residual).  The method is private: if it is gone, the count is 0.
JACOBIAN = ("bvpsolve.jacobian", "bvpsolve", "_BlockShooter", "jacobian")


class Tracer:
    """In-memory spans: id, parent, run id, name, start, end, error, extras."""

    def __init__(self):
        self.spans = []
        self.run_id = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        record = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                  "run": self.run_id, "name": name, "start": time.perf_counter(),
                  "end": None, "error": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        except SystemExit as exc:
            if exc.code not in (0, None):
                record["error"] = f"SystemExit({exc.code})"
            raise
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                if annotate is None:
                    return fn(*args, **kwargs)
                return annotate(record, fn, args, kwargs)
        return traced


def _rk4(record, fn, args, kwargs):
    """Count the state entries and the steps actually taken (4 field calls each)."""
    vector_field, y0, *rest = args
    calls = 0

    def counted(t, y):
        nonlocal calls
        calls += 1
        return vector_field(t, y)

    record["state"] = len(y0)
    try:
        return fn(counted, y0, *rest, **kwargs)
    finally:
        record["steps"] = math.ceil(calls / 4)


def _solve(record, fn, args, kwargs):
    result = fn(*args, **kwargs)
    record["continuation_steps"] = int(result.continuation_steps)
    return result


def _mesh(record, fn, args, kwargs):
    mesh = fn(*args, **kwargs)
    record["nodes"] = int(mesh.points.shape[0] * mesh.points.shape[1])
    record["array_bytes"] = int(mesh.points.nbytes + mesh.sphere_tangents.nbytes
                                + mesh.time_tangents.nbytes)
    return mesh


def _csv_write(record, fn, args, kwargs):
    fn(*args, **kwargs)
    record["bytes"] = os.path.getsize(args[1])


ANNOTATE = {"numkernel.rk4": _rk4, "bvpsolve.solve": _solve,
            "webbing.cylinder_mesh": _mesh, "webbing.mesh_csv_write": _csv_write}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    modules = {name: importlib.import_module(f"lagweb.{name}") for name in MODULES}
    undo = []
    try:
        for name, module, attr in TRACED:
            fn = getattr(modules[module], attr)
            wrapper = tracer.wrap(name, fn, ANNOTATE.get(name))
            for target in modules.values():
                for key, value in list(vars(target).items()):
                    if value is fn:
                        undo.append((target, key, value))
                        setattr(target, key, wrapper)
        name, module, cls_name, attr = JACOBIAN
        cls = getattr(modules[module], cls_name, None)
        if cls is not None and hasattr(cls, attr):
            undo.append((cls, attr, getattr(cls, attr)))
            setattr(cls, attr, tracer.wrap(name, getattr(cls, attr)))
        yield tracer
    finally:
        for target, key, value in reversed(undo):
            setattr(target, key, value)


def self_times(spans) -> dict:
    """Summed duration minus the time covered by direct children, per name."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"] - child[s["id"]])
    return out


def layer_metrics(spans) -> dict:
    """Per-layer metric values (unit-free) from the spans of one traced run."""
    selfs = self_times(spans)
    metrics = {f"{name}_s": selfs.get(name, 0.0) for name, _, _ in TRACED}

    def named(name):
        return [s for s in spans if s["name"] == name]

    rk4 = named("numkernel.rk4")
    work = [s["state"] * s["steps"] for s in rk4]
    useful = sum(w for w, s in zip(work, rk4) if s["error"] is None)
    metrics["numkernel.rk4_calls"] = len(rk4)
    metrics["numkernel.rk4_state_steps"] = sum(work)
    metrics["numkernel.rk4_failed"] = sum(s["error"] is not None for s in rk4)
    metrics["numkernel.rk4_useful_ratio"] = useful / sum(work) if sum(work) else 1.0
    solves = named("bvpsolve.solve")
    metrics["bvpsolve.continuation_steps"] = sum(s.get("continuation_steps", 0) for s in solves)
    metrics["bvpsolve.newton_iters"] = len(named(JACOBIAN[0]))
    metrics["bvpsolve.no_convergence"] = sum(s["error"] == "NoConvergence" for s in solves)
    meshes = named("webbing.cylinder_mesh")
    metrics["webbing.mesh_csv_bytes"] = sum(s.get("bytes", 0) for s in named("webbing.mesh_csv_write"))
    metrics["webbing.mesh_nodes"] = sum(s.get("nodes", 0) for s in meshes)
    metrics["webbing.mesh_array_bytes"] = max((s.get("array_bytes", 0) for s in meshes), default=0)
    return metrics
