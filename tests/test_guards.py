"""Every guard in src/lagweb that raises fails a NaN, or names what keeps
NaN from it.

An ordered comparison (<, <=, >, >=) with a NaN operand is false, so the
guard ``if x > tol: raise`` lets a NaN x through, while ``if not x <= tol:
raise`` raises on it.  Each ordered comparison in the test of an ``if``
whose body raises must be NaN-safe: under a ``not``, or in a test that
calls ``isfinite``.  Any other is listed in ALLOWED, keyed by module,
function and comparison, with the reason that no NaN reaches it or passes
it: an integer operand, or the check that keeps NaN out.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lagweb"
ORDERED = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)

INT = "an integer operand"
FINITE_FRAME = "make_frame checks the frame's entries and column norms finite just before"
FLOW = "_scalar_flow raises on a non-finite state before the trajectory is made"
TO_THE_REPORT = ("fmin skips NaN, so a NaN hides no failing node; the NaN goes on to the "
                 "report, whose limits in cli._check_thresholds fail it")

ALLOWED = {
    ("bvpsolve.py", "solve_exact_map", "len(history) > NEWTON_ITERATIONS"): INT,
    ("bvpsolve.py", "solve_exact_map", "step < 1e-06"):
        "step starts at min(1.0, x), which is 1.0 for a NaN x, and is only halved",
    ("cli.py", "config_from_args", "args.tol <= 0"):
        "the math.isfinite check that follows raises on a NaN tolerance",
    ("csvtext.py", "_stage_take", "token < 0"): INT,
    ("geoflow.py", "__post_init__",
     "np.max(np.abs(basis.T @ basis - np.eye(basis.shape[0]))) > 1e-08"):
        "GeodesicSpec checks the adapted basis finite just before",
    ("geoflow.py", "__post_init__", "np.linalg.det(basis) < 0.0"):
        "GeodesicSpec checks the adapted basis finite just before",
    ("geoflow.py", "grid_index", "abs(self.times[i] - t) > 1e-09"):
        "int(round(...)) raises on a NaN t first, and the times are the integrator's grid",
    ("geoflow.py", "geodesic_ivp", "traj.g.min() <= 0.0"): FLOW,
    ("geoflow.py", "geodesic_ivp", "np.max(np.abs(phases)) >= 0.5 * math.pi - PHASE_MARGIN"):
        FLOW,
    ("geoflow.py", "horizontal_frame", "abs(frame.phase - expected) > 1e-08"):
        "make_frame rejects the frame of a NaN g or theta, and base.phase is make_frame's "
        "angle of a finite determinant",
    ("geoflow.py", "thin_trajectory", "stride < 1"): INT,
    ("geoflow.py", "_frame_rhs", "abs(phi) >= 0.5 * math.pi - PHASE_MARGIN"):
        "a NaN phase comes from a NaN stage state, whose step integrate_rk4 rejects as "
        "non-finite",
    ("laggrass.py", "__post_init__", "self.n < 1"): INT,
    ("laggrass.py", "maslov_index", "defect >= INTEGER_TOL"):
        "int(round(raw)) raises ValueError on a NaN quotient first",
    ("laggrass.py", "real_gram_schmidt", "norm < 1e-12"):
        "make_frame, its caller, checks the columns finite first",
    ("laggrass.py", "make_frame", "norms < 1e-12"): FINITE_FRAME,
    ("laggrass.py", "make_frame", "worst > IDENTITY_TOL"): FINITE_FRAME,
    ("laggrass.py", "make_frame", "unitary_defect > CONSTRUCTION_TOL"): FINITE_FRAME,
    ("laggrass.py", "make_frame", "abs(det.real) < CONSTRUCTION_TOL"): FINITE_FRAME,
    ("numkernel.py", "__post_init__", "self.step_count < 1"): INT,
    ("numkernel.py", "jacobi_eigh", "_largest_off_diagonal(rows) >= JACOBI_TOL"):
        "joint_diagonalize_symmetric_unitary, its caller, fails a non-finite matrix on its "
        "NaN-safe defect checks first",
    ("webbing.py", "level_set_chart", "a >= 0.0"):
        "GeodesicSpec rejects a non-finite coefficient, and a NaN one fails the semi-axes' "
        "isfinite check below",
    ("webbing.py", "level_set_chart", "level >= 0.0"):
        "math.isfinite(level) is checked just before",
    ("webbing.py", "sphere_grid", "n < 2"): INT,
    ("webbing.py", "sphere_grid", "resolution < MIN_SPHERE_RESOLUTION"): INT,
    ("webbing.py", "verify_slag", "min_rank_ratio < RANK_TOL"): TO_THE_REPORT,
    ("webbing.py", "_swept_sines", "np.fmin.reduce(norms, axis=None) < 1e-12"): TO_THE_REPORT,
    ("webbing.py", "_swept_sines", "pivots <= 1e-12 * np.linalg.norm(frames, axis=-2)"):
        "a NaN pivot carries NaN to the angle, which cli's min_euler_angle limit fails",
    ("webbing.py", "_closed_sines", "np.sqrt(np.fmin.reduce(e, axis=None)) < 1e-12"):
        TO_THE_REPORT,
    ("webbing.py", "harmonic_residual", "t_count < 3"): INT,
    ("webbing.py", "harmonic_residual", "min_det < 1e-14"):
        "fmin skips NaN, so a NaN row hides no degenerate one; a NaN metric comes from a NaN "
        "flow factor, whose NaN calibration fields cli's limits fail",
}


def ordered_comparisons(node, negated=False):
    """(comparison, negated) of each ordered comparison in an expression;
    negated is true under an odd number of ``not``."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield from ordered_comparisons(node.operand, not negated)
        return
    if isinstance(node, ast.Compare) and any(isinstance(op, ORDERED) for op in node.ops):
        yield node, negated
    for child in ast.iter_child_nodes(node):
        yield from ordered_comparisons(child, negated)


def top_level_functions(tree):
    """The module's functions and methods; a nested function is walked as
    part of the one that holds it."""
    for node in tree.body:
        for item in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield item


def open_guards(package=PACKAGE):
    """(module, function, comparison) of each ordered comparison that a NaN
    passes, in the test of an ``if`` whose body raises."""
    found = []
    for path in sorted(Path(package).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for function in top_level_functions(tree):
            for node in ast.walk(function):
                if not (isinstance(node, ast.If)
                        and any(isinstance(s, ast.Raise) for s in node.body)):
                    continue
                finite = any(isinstance(call, ast.Call) and "isfinite" in ast.unparse(call.func)
                             for call in ast.walk(node.test))
                found += [(path.name, function.name, ast.unparse(comparison))
                          for comparison, negated in ordered_comparisons(node.test)
                          if not (negated or finite)]
    return found


def test_every_raising_guard_fails_nan_or_is_allowed():
    found = set(open_guards())
    assert sorted(found - set(ALLOWED)) == []
    assert sorted(set(ALLOWED) - found) == []  # no entry outlives its guard
    assert all(reason for reason in ALLOWED.values())


PLANTED = '''
import math


def check(x, y, n):
    if x > 1.0:
        raise ValueError("open")
    if not x <= 1.0:
        raise ValueError("negated")
    if not (0.0 < y and y < 2.0):
        raise ValueError("negated pair")
    if not math.isfinite(y) or y < 0.0:
        raise ValueError("isfinite")
    if n < 1 or x >= 3.0:
        raise ValueError("two open")
    if x < 5.0:
        return x
    if not not x > 6.0:
        raise ValueError("double not")
'''


def test_planted_guards(tmp_path):
    (tmp_path / "planted.py").write_text(PLANTED, encoding="utf-8")
    assert open_guards(tmp_path) == [
        ("planted.py", "check", "x > 1.0"), ("planted.py", "check", "n < 1"),
        ("planted.py", "check", "x >= 3.0"), ("planted.py", "check", "x > 6.0"),
    ]
