import json
import math
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lagweb
from lagweb import bvpsolve, geoflow, laggrass
from lagweb import cli as cli_module
from lagweb.cli import (THRESHOLDS, _check_thresholds, _load_trajectory, _solved_pair,
                        build_parser, config_from_args, run)
from lagweb.laggrass import FlatCalabiYau, frame_to_json_dict, make_frame, random_maslov_zero_pair
from lagweb.numkernel import IntegratorConfig
from lagweb.cli import main, write_json
from lagweb.webbing import cylinder_mesh


def write_frame(path, raw):
    n = raw.shape[0]
    frame = make_frame(FlatCalabiYau(n), raw)
    write_json(path, frame_to_json_dict(frame))


def write_frame_raw(path, raw):
    # bypass validation so the CLI gets to reject the file itself
    n = raw.shape[0]
    cols = [[{"re": float(z.real), "im": float(z.imag)} for z in raw[:, j]] for j in range(n)]
    write_json(path, {"n": n, "columns": cols})


def cli(*argv):
    args = build_parser().parse_args(list(argv))
    return run(config_from_args(args))


@pytest.fixture()
def pair_files(tmp_path):
    f0 = tmp_path / "l0.json"
    f1 = tmp_path / "l1.json"
    write_frame(f0, np.eye(2, dtype=complex))
    write_frame(f1, np.diag(np.exp(1j * np.array([math.pi / 6, math.pi / 4]))))
    return str(f0), str(f1)


@pytest.fixture()
def solved_dir(tmp_path, pair_files):
    f0, f1 = pair_files
    out = tmp_path / "run"
    code = cli("geodesic", "--lambda0", f0, "--lambda1", f1,
               "--steps", "500", "--tol", "1e-10", "--out", str(out))
    assert code == 0
    return out


class TestPairAnalyze:
    def test_diagonal_pair(self, tmp_path, pair_files):
        f0, f1 = pair_files
        code = cli("pair-analyze", "--lambda0", f0, "--lambda1", f1, "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "pair.json").read_text())
        np.testing.assert_allclose(report["beta"], [math.pi / 6, math.pi / 4], atol=1e-10)
        assert report["maslov"] == 0
        assert report["transverse"] is True

    def test_not_positive_exit_2(self, tmp_path):
        f0 = tmp_path / "l0.json"
        f1 = tmp_path / "l1.json"
        write_frame(f0, np.eye(2, dtype=complex))
        write_frame_raw(f1, np.diag([1j, 1.0]).astype(complex))
        code = cli("pair-analyze", "--lambda0", str(f0), "--lambda1", str(f1),
                   "--out", str(tmp_path))
        assert code == 2

    def test_not_lagrangian_exit_2(self, tmp_path, capsys):
        f0 = tmp_path / "l0.json"
        f1 = tmp_path / "l1.json"
        write_frame(f0, np.eye(2, dtype=complex))
        write_frame_raw(f1, np.array([[1.0, 1j], [0.0, 0.0]]))
        code = cli("pair-analyze", "--lambda0", str(f0), "--lambda1", str(f1),
                   "--out", str(tmp_path))
        assert code == 2
        assert capsys.readouterr().err == ("error: omega pairing of input columns reaches "
                                           "1.000e+00 > 1e-08\n")

    def test_one_decomposition(self, tmp_path, pair_files, monkeypatch):
        calls = []
        decompose = laggrass.pair_decomposition

        def counted(l0, l1):
            calls.append((l0, l1))
            return decompose(l0, l1)

        monkeypatch.setattr(laggrass, "pair_decomposition", counted)
        f0, f1 = pair_files
        assert cli("pair-analyze", "--lambda0", f0, "--lambda1", f1, "--out", str(tmp_path)) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("stage", ["pair-analyze", "geodesic"])
    def test_frames_of_two_dimensions_exit_2(self, tmp_path, capsys, stage):
        # the message that webbing and verify print for a stored frame1 of
        # another dimension (TestTrajectoryFromSolution)
        f0, f1 = tmp_path / "l0.json", tmp_path / "l1.json"
        write_frame(f0, np.eye(2, dtype=complex))
        write_frame(f1, np.eye(3, dtype=complex))
        assert exit_code(stage, "--lambda0", str(f0), "--lambda1", str(f1),
                         "--out", str(tmp_path / "out")) == 2
        assert capsys.readouterr().err == "error: frames live in different ambient dimensions\n"
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    def test_missing_file_exit_2(self, tmp_path):
        f0 = tmp_path / "l0.json"
        write_frame(f0, np.eye(2, dtype=complex))
        code = cli("pair-analyze", "--lambda0", str(f0), "--lambda1",
                   str(tmp_path / "nope.json"), "--out", str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize("doc", [
        {"n": 2},                       # no columns
        {"n": 2, "columns": [1, 2]},    # scalar columns
        {"n": 1, "columns": [[0.5]]},   # scalar entries
    ])
    def test_malformed_frame_json_exit_2(self, tmp_path, doc):
        f0 = tmp_path / "l0.json"
        f1 = tmp_path / "l1.json"
        write_frame(f0, np.eye(2, dtype=complex))
        write_json(f1, doc)
        code = cli("pair-analyze", "--lambda0", str(f0), "--lambda1", str(f1),
                   "--out", str(tmp_path))
        assert code == 2


class TestGeodesic:
    def test_1d_closed_form_coefficient(self, tmp_path):
        f0 = tmp_path / "l0.json"
        f1 = tmp_path / "l1.json"
        write_frame(f0, np.eye(1, dtype=complex))
        write_frame(f1, np.array([[np.exp(0.6j)]]))
        out = tmp_path / "run"
        code = cli("geodesic", "--lambda0", str(f0), "--lambda1", str(f1),
                   "--steps", "2000", "--out", str(out))
        assert code == 0
        sol = json.loads((out / "solution.json").read_text())
        assert abs(sol["a"][0] + math.tan(0.6) / 2.0) < 1e-6
        assert (out / "trajectory.csv").exists()

    def test_emits_solution_and_trajectory(self, solved_dir):
        sol = json.loads((solved_dir / "solution.json").read_text())
        assert sol["residual"] < 1e-10
        lines = (solved_dir / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,g_1,g_2,theta_1,theta_2,phase"
        assert len(lines) == 502

    def test_solution_holds_the_frames_and_the_solve(self, tmp_path, pair_files):
        # everything else that describes the solve is derived from the two
        # frames: the Maslov index, the role swap, the phases and the basis.
        # A frame is stored as given, kept to n and each entry's re and im
        f0, f1 = pair_files
        doc = json.loads(open(f0).read())
        doc["note"] = "identity"
        doc["columns"][0][0]["unit"] = True
        (tmp_path / "noted.json").write_text(json.dumps(doc))
        assert cli("geodesic", "--lambda0", str(tmp_path / "noted.json"), "--lambda1", f1,
                   "--steps", "300", "--out", str(tmp_path / "run")) == 0
        sol = json.loads((tmp_path / "run" / "solution.json").read_text())
        assert sorted(sol) == ["a", "beta", "frame0", "frame1", "grid_residuals",
                               "jacobian_condition", "newton_residuals", "residual", "steps",
                               "tolerance"]
        assert sol["frame0"] == json.loads(open(f0).read())
        assert sol["frame1"] == json.loads(open(f1).read())

    def test_determinism(self, tmp_path, pair_files):
        f0, f1 = pair_files
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli("geodesic", "--lambda0", f0, "--lambda1", f1,
                       "--steps", "300", "--out", str(out)) == 0
            outs.append(out)
        assert (outs[0] / "solution.json").read_bytes() == (outs[1] / "solution.json").read_bytes()
        assert (outs[0] / "trajectory.csv").read_bytes() == (outs[1] / "trajectory.csv").read_bytes()

    @pytest.mark.parametrize("reverse, decompositions", [(False, 1), (True, 2)])
    def test_one_decomposition_per_pair(self, tmp_path, pair_files, monkeypatch, reverse,
                                        decompositions):
        # an index-n pair is solved as its swapped pair, which has its own
        calls = []
        decompose = laggrass.pair_decomposition

        def counted(l0, l1):
            calls.append((l0, l1))
            return decompose(l0, l1)

        monkeypatch.setattr(laggrass, "pair_decomposition", counted)
        monkeypatch.setattr(bvpsolve, "pair_decomposition", counted)
        f0, f1 = pair_files[::-1] if reverse else pair_files
        assert cli("geodesic", "--lambda0", f0, "--lambda1", f1, "--steps", "300",
                   "--out", str(tmp_path)) == 0
        assert len(calls) == decompositions

    def test_maslov_n_role_reversal(self, tmp_path, pair_files):
        f0, f1 = pair_files
        out = tmp_path / "rev"
        code = cli("geodesic", "--lambda0", f1, "--lambda1", f0,
                   "--steps", "400", "--out", str(out))
        assert code == 0
        sol = json.loads((out / "solution.json").read_text())
        # the frames as the user gave them; beta is the swapped pair's
        assert sol["frame0"] == json.loads(open(f1).read())
        assert sol["frame1"] == json.loads(open(f0).read())
        np.testing.assert_allclose(sol["beta"], [math.pi / 6, math.pi / 4], atol=1e-10)
        lines = (out / "trajectory.csv").read_text().splitlines()
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0

    @pytest.mark.parametrize("tol", ["5e-324", "1e-310"])
    def test_subnormal_tolerance_solves(self, tmp_path, pair_files, tol):
        # 1e-3 * 5e-324 underflows to 0; Newton stops on a zero residual
        # instead of running out of iterations
        f0, f1 = pair_files
        out = tmp_path / "run"
        assert cli("geodesic", "--lambda0", f0, "--lambda1", f1, "--steps", "100",
                   "--tol", tol, "--out", str(out)) == 0
        assert json.loads((out / "solution.json").read_text())["residual"] == 0.0

    @pytest.mark.parametrize("steps", ["300", "2000"])
    def test_subnormal_tolerance_missed_by_the_grid_exit_3(self, tmp_path, pair_files, capsys,
                                                          steps):
        # Newton lands, but no RK4 grid meets 5e-324; the failure message's
        # step estimate must not overflow in residual / tolerance
        f0, f1 = pair_files
        code = cli("geodesic", "--lambda0", f0, "--lambda1", f1, "--steps", steps,
                   "--tol", "5e-324", "--out", str(tmp_path / "run"))
        assert code == 3
        err = capsys.readouterr().err
        assert "smallest residual: " in err
        assert re.search(r"puts 4\.9e-324 at about \d{70,} steps", err)

    def test_frozen_direction_angles_print_as_zero(self, tmp_path):
        # a_1 = 0: RK4 from theta(0) = +0.0 adds the -0.0 increments of
        # -2 a_1 / g_1 and stays at +0.0, which the CSV writes as 0
        f0 = tmp_path / "l0.json"
        f1 = tmp_path / "l1.json"
        write_frame(f0, np.eye(2, dtype=complex))
        write_frame(f1, np.diag([1.0, np.exp(0.5j)]))
        out = tmp_path / "run"
        assert cli("geodesic", "--lambda0", str(f0), "--lambda1", str(f1),
                   "--steps", "100", "--out", str(out)) == 0
        rows = [line.split(",") for line in (out / "trajectory.csv").read_text().splitlines()]
        assert rows[0][3] == "theta_1" and {row[3] for row in rows[1:]} == {"0"}
        assert "-0" not in {cell for row in rows[1:] for cell in row}

    def test_failed_solve_exit_3(self, tmp_path, capsys):
        # 200 RK4 steps cannot reach this pair's targets (see test_bvpsolve);
        # the CLI must report a solver failure with the smallest residual
        # reached and the step count that would do
        f0 = tmp_path / "l0.json"
        f1 = tmp_path / "l1.json"
        write_frame(f0, np.array([[np.exp(0.06j)]]))
        write_frame(f1, np.array([[np.exp(1.569j)]]))
        code = cli("geodesic", "--lambda0", str(f0), "--lambda1", str(f1),
                   "--steps", "200", "--out", str(tmp_path / "run"))
        assert code == 3
        err = capsys.readouterr().err
        assert "smallest residual: " in err
        assert "RK4 grid of 200 steps" in err
        assert re.search(r"at about \d+ steps", err)

    def test_maslov_other_requires_flag(self, tmp_path):
        f0 = tmp_path / "l0.json"
        f1 = tmp_path / "l1.json"
        write_frame(f0, np.eye(2, dtype=complex))
        write_frame(f1, np.diag(np.exp(1j * np.array([0.9, 1.0]))))
        out = tmp_path / "m1"
        code = cli("geodesic", "--lambda0", str(f0), "--lambda1", str(f1),
                   "--steps", "400", "--out", str(out))
        assert code == 2

    def test_grid_residuals_emitted(self, tmp_path, solved_dir):
        # phase1 = 1.568 in n = 1: the 1000-step grid misses the exact root
        # by 5e-7 and is corrected; the README pair needs no correction
        readme = json.loads((solved_dir / "solution.json").read_text())
        assert readme["grid_residuals"] == []
        f0 = tmp_path / "l0.json"
        f1 = tmp_path / "l1.json"
        write_frame(f0, np.eye(1, dtype=complex))
        write_frame(f1, np.array([[np.exp(1.568j)]]))
        assert cli("geodesic", "--lambda0", str(f0), "--lambda1", str(f1),
                   "--steps", "1000", "--out", str(tmp_path / "run")) == 0
        sol = json.loads((tmp_path / "run" / "solution.json").read_text())
        assert sol["grid_residuals"][0] > 1e-10 > sol["grid_residuals"][-1] == sol["residual"]
        assert sol["newton_residuals"][-1] < 1e-13


class TestWebbing:
    def test_emits_meshes_and_report(self, tmp_path, solved_dir):
        out = tmp_path / "web"
        code = cli("webbing", "--solution", str(solved_dir / "solution.json"),
                   "--levels=-1,-0.25,-0.0625", "--sphere-res", "48",
                   "--out", str(out))
        assert code == 0
        report = json.loads((out / "webbing_report.json").read_text())
        assert report["passed"] is True
        assert [m["level"] for m in report["meshes"]] == [-1.0, -0.25, -0.0625]
        for m in report["meshes"]:
            assert (out / m["csv"]).exists()
            assert m["max_omega"] < 1e-8
            assert m["max_re_omega"] < 1e-7
            assert m["min_im_omega"] > 0.0
            assert m["min_euler_angle"] > 0.01
            assert m["harmonic_residual"] is not None

    def test_empty_level_grid(self, tmp_path, solved_dir, capsys):
        # a report of no meshes once passed, with exit code 0
        out = tmp_path / "web0"
        for levels in ("--levels=,", "--levels=", "--levels= , "):
            assert exit_code("webbing", "--solution", str(solved_dir / "solution.json"),
                             levels, "--out", str(out)) == 2
            assert capsys.readouterr().err == "error: --levels needs at least one level\n"
            assert not out.exists()

    def test_unwritable_output_dir(self, tmp_path, solved_dir):
        # a regular file where the directory should be: creation must fail
        blocked = tmp_path / "blocked"
        blocked.write_text("occupied")
        code = cli("webbing", "--solution", str(solved_dir / "solution.json"),
                   "--levels=-1", "--out", str(blocked))
        assert code == 2

    def test_file_size_limit_names_the_file(self, tmp_path, solved_dir):
        # a 1 MiB file size limit, in the child alone, stops the 6 MB mesh
        # CSV: the write error said "[Errno 27] File too large" of no file
        src = os.path.dirname(os.path.dirname(os.path.abspath(lagweb.__file__)))

        def limit_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 20, 1 << 20))

        done = subprocess.run([sys.executable, "-m", "lagweb.cli", "webbing", "--solution",
                               str(solved_dir / "solution.json"), "--levels=-1",
                               "--out", str(tmp_path / "web")],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True, preexec_fn=limit_file_size)
        assert done.returncode == 2
        assert done.stderr.startswith("error: [Errno 27] File too large: ")
        assert "mesh_0.csv" in done.stderr
        # the partial file is removed: a 1 MiB mesh_0.csv stayed beside no report
        assert sorted(os.listdir(tmp_path / "web")) == []

    @pytest.mark.parametrize("res", ["0", "1", "-4"])
    def test_sphere_resolution_below_minimum_exit_2(self, tmp_path, solved_dir, capsys, res):
        code = cli("webbing", "--solution", str(solved_dir / "solution.json"),
                   "--levels=-1", "--sphere-res", res, "--out", str(tmp_path / "w"))
        assert code == 2
        assert "sphere resolution must be at least 4" in capsys.readouterr().err

    def test_threshold_failure_exit_4(self, tmp_path, solved_dir):
        out = tmp_path / "strict"
        code = cli("webbing", "--solution", str(solved_dir / "solution.json"),
                   "--levels=-1", "--min-euler", "3.0", "--out", str(out))
        assert code == 4

    def test_one_step_surface_rejected_before_any_csv(self, tmp_path, pair_files, capsys):
        # two time samples leave the harmonic residual no interior row; this
        # exited 2 with numpy's empty-reduction text after writing mesh_0.csv
        f0, f1 = pair_files
        assert exit_code("geodesic", "--lambda0", f0, "--lambda1", f1, "--steps", "1",
                         "--tol", "0.01", "--out", str(tmp_path / "run")) == 0
        capsys.readouterr()
        assert exit_code("webbing", "--solution", str(tmp_path / "run" / "solution.json"),
                         "--sphere-res", "16", "--out", str(tmp_path / "web")) == 2
        assert capsys.readouterr().err == ("error: harmonic residual needs at least 3 time "
                                           "samples, got 2\n")
        assert list((tmp_path / "web").glob("*")) == []

    def test_non_transverse_pair_named(self, tmp_path, capsys):
        # both planes turn the first direction by 0.2: geodesic freezes it at
        # a_1 = 0 and exits 0, and webbing names that direction when it refuses
        for name, angles in (("l0.json", [0.2, 0.3]), ("l1.json", [0.2, 0.9])):
            write_frame(tmp_path / name, np.diag(np.exp(1j * np.array(angles))))
        frames = ["--lambda0", str(tmp_path / "l0.json"), "--lambda1", str(tmp_path / "l1.json")]
        run_dir = tmp_path / "run"
        assert exit_code("pair-analyze", *frames, "--out", str(run_dir)) == 0
        assert json.loads((run_dir / "pair.json").read_text())["transverse"] is False
        assert exit_code("geodesic", *frames, "--steps", "200", "--out", str(run_dir)) == 0
        assert json.loads((run_dir / "solution.json").read_text())["a"][0] == 0
        capsys.readouterr()
        assert exit_code("webbing", "--solution", str(run_dir / "solution.json"),
                         "--sphere-res", "8", "--out", str(tmp_path / "web")) == 2
        assert capsys.readouterr().err == ("error: all coefficients must be negative; a_1 = 0: "
                                           "the pair is not transverse in direction 1\n")
        assert list((tmp_path / "web").glob("*")) == []


def test_nan_report_values_fail_every_threshold():
    report = {"max_omega": 0.0, "max_re_omega": 0.0, "min_im_omega": 1.0, "min_euler_angle": 1.0}
    defaults = {key: default for key, _, default, _ in THRESHOLDS}
    assert _check_thresholds(report, defaults) == []
    for key in report:
        failures = _check_thresholds(dict(report, **{key: math.nan}), defaults)
        assert len(failures) == 1 and failures[0].startswith(f"{key} nan")


class TestNonFiniteTrajectory:
    @pytest.fixture()
    def nan_run(self, tmp_path):
        # the seeded n = 3 pair on a short grid, with one g_1 sample set to nan
        rng = np.random.default_rng(0)
        l0, l1, _, _ = random_maslov_zero_pair(rng, 3)
        write_json(tmp_path / "l0.json", frame_to_json_dict(l0))
        write_json(tmp_path / "l1.json", frame_to_json_dict(l1))
        run_dir = tmp_path / "run"
        assert cli("geodesic", "--lambda0", str(tmp_path / "l0.json"), "--lambda1",
                   str(tmp_path / "l1.json"), "--steps", "40", "--out", str(run_dir)) == 0
        assert cli("webbing", "--solution", str(run_dir / "solution.json"), "--levels=-1",
                   "--sphere-res", "8", "--out", str(tmp_path / "web")) == 0
        csv = run_dir / "trajectory.csv"
        lines = csv.read_text().splitlines()
        cells = lines[7].split(",")
        cells[1] = "nan"
        lines[7] = ",".join(cells)
        csv.write_text("\n".join(lines) + "\n")
        return tmp_path

    def test_webbing_ignores_it(self, nan_run):
        # webbing rebuilds the samples from the solution JSON
        code = cli("webbing", "--solution", str(nan_run / "run" / "solution.json"),
                   "--levels=-1", "--sphere-res", "8", "--out", str(nan_run / "web2"))
        assert code == 0
        assert ((nan_run / "web2" / "mesh_0.csv").read_bytes()
                == (nan_run / "web" / "mesh_0.csv").read_bytes())

    def test_verify_rejects_it(self, nan_run, capsys):
        code = cli("verify", "--mesh", str(nan_run / "web" / "mesh_0.csv"),
                   "--trajectory", str(nan_run / "run" / "trajectory.csv"),
                   "--solution", str(nan_run / "run" / "solution.json"),
                   "--out", str(nan_run / "ver"))
        assert code == 2
        assert "column g_1 differs in data row 7" in capsys.readouterr().err
        assert not (nan_run / "ver" / "verify_report.json").exists()


def _other_pair_csv(lines, tmp_path):
    """The trajectory CSV of random_maslov_zero_pair(default_rng(7), 2) on the same steps."""
    l0, l1, _, _ = random_maslov_zero_pair(np.random.default_rng(7), 2)
    write_json(tmp_path / "o0.json", frame_to_json_dict(l0))
    write_json(tmp_path / "o1.json", frame_to_json_dict(l1))
    assert cli("geodesic", "--lambda0", str(tmp_path / "o0.json"), "--lambda1",
               str(tmp_path / "o1.json"), "--steps", str(len(lines) - 2),
               "--out", str(tmp_path / "other")) == 0
    return (tmp_path / "other" / "trajectory.csv").read_text().splitlines()


def _set_cell(lines, rows, col, value):
    for row in rows:
        cells = lines[row].split(",")
        cells[col] = value
        lines[row] = ",".join(cells)
    return lines


# edits of the README pair's 400-step trajectory CSV; lines[0] is the header
TRAJECTORY_EDITS = {
    "another-pair": _other_pair_csv,
    "one-row": lambda lines, _: lines[:2],
    "first-201-rows": lambda lines, _: lines[:202],
    "t-row-6": lambda lines, _: _set_cell(lines, [6], 0, "0.0126"),
    "n-1-columns": lambda lines, _: [",".join(c for k, c in enumerate(line.split(","))
                                              if k not in (2, 4)) for line in lines],
    "g1-row-101-negative": lambda lines, _: _set_cell(lines, [101], 1, "-1"),
    "phase-0.5": lambda lines, _: _set_cell(lines, range(1, len(lines)), -1, "0.5"),
}


# the README pair's angles pi/6 and pi/4 as solution.json writes them
README_BETA = "[0.52359877559829882,0.78539816339744817]"
BAD = "malformed solution JSON: "


class TestTrajectoryFromSolution:
    """webbing rebuilds the trajectory from the solution JSON and never reads
    its CSV; verify requires every CSV column to equal that rebuild."""

    @pytest.fixture(scope="class")
    def readme_400(self, tmp_path_factory):
        """README pair at 400 steps: (run dir, mesh CSV at --sphere-res 16)."""
        base = tmp_path_factory.mktemp("readme400")
        write_frame(base / "l0.json", np.eye(2, dtype=complex))
        write_frame(base / "l1.json", np.diag(np.exp(1j * np.array([math.pi / 6, math.pi / 4]))))
        assert cli("geodesic", "--lambda0", str(base / "l0.json"), "--lambda1",
                   str(base / "l1.json"), "--steps", "400", "--out", str(base / "run")) == 0
        assert cli("webbing", "--solution", str(base / "run" / "solution.json"), "--levels=-1",
                   "--sphere-res", "16", "--out", str(base / "web")) == 0
        return base / "run", base / "web" / "mesh_0.csv"

    @pytest.mark.parametrize("edit", sorted(TRAJECTORY_EDITS))
    def test_edited_csv(self, tmp_path, readme_400, capsys, edit):
        run_dir, mesh = readme_400
        lines = TRAJECTORY_EDITS[edit]((run_dir / "trajectory.csv").read_text().splitlines(),
                                       tmp_path)
        edited = tmp_path / "edited"
        edited.mkdir()
        (edited / "solution.json").write_bytes((run_dir / "solution.json").read_bytes())
        (edited / "trajectory.csv").write_text("\n".join(lines) + "\n")
        assert cli("webbing", "--solution", str(edited / "solution.json"), "--levels=-1",
                   "--sphere-res", "16", "--out", str(tmp_path / "web")) == 0
        assert (tmp_path / "web" / "mesh_0.csv").read_bytes() == mesh.read_bytes()
        capsys.readouterr()
        assert cli("verify", "--mesh", str(mesh), "--trajectory", str(edited / "trajectory.csv"),
                   "--solution", str(edited / "solution.json"), "--out", str(tmp_path / "v")) == 2
        assert capsys.readouterr().err.startswith("error: trajectory CSV samples disagree")
        assert not (tmp_path / "v" / "verify_report.json").exists()

    @pytest.mark.parametrize("csv, column", [("mesh_0.csv", "im_z1"),
                                             ("trajectory.csv", "theta_1")])
    def test_negative_zero_rejected(self, tmp_path, readme_400, capsys, csv, column):
        # -0 == 0 as floats, so an array comparison let this edit through
        run_dir, mesh = readme_400
        web = tmp_path / "web"
        web.mkdir()
        for src in (mesh, mesh.parent / "webbing_report.json", run_dir / "trajectory.csv"):
            (web / src.name).write_bytes(src.read_bytes())
        path = web / csv
        lines = path.read_text().splitlines()
        col = lines[0].split(",").index(column)
        assert lines[1].split(",")[col] == "0"
        _set_cell(lines, [1], col, "-0")
        path.write_text("\n".join(lines) + "\n")
        code = cli("verify", "--mesh", str(web / "mesh_0.csv"),
                   "--trajectory", str(web / "trajectory.csv"),
                   "--solution", str(run_dir / "solution.json"), "--out", str(tmp_path / "v"))
        assert code == 2
        assert f"column {column} differs in data row 1\n" in capsys.readouterr().err
        assert not (tmp_path / "v" / "verify_report.json").exists()

    @pytest.mark.parametrize("csv, edit, message", [
        ("mesh_0.csv", lambda text: text.replace("\n0,0,", "\n0.0,0e0,", 1),
         "column s_1 differs in data row 1"),
        ("mesh_0.csv", lambda text: text.replace("\n", "\r\n"),
         "header is not s_1,t,re_z1,im_z1,re_z2,im_z2"),
        ("trajectory.csv", lambda text: text.replace("\n0,", "\n+0.000,", 1),
         "column t differs in data row 1"),
    ], ids=["mesh-zeros", "mesh-crlf", "trajectory-plus-zero"])
    def test_same_values_in_other_text_rejected(self, tmp_path, readme_400, capsys, csv, edit,
                                                message):
        # each edit parses to the same floats: the README holds each CSV to
        # exactly the bytes its writer makes
        run_dir, mesh = readme_400
        web = tmp_path / "web"
        web.mkdir()
        for src in (mesh, mesh.parent / "webbing_report.json", run_dir / "trajectory.csv"):
            (web / src.name).write_bytes(src.read_bytes())
        text = (web / csv).read_text()
        assert edit(text) != text
        (web / csv).write_bytes(edit(text).encode())
        code = cli("verify", "--mesh", str(web / "mesh_0.csv"),
                   "--trajectory", str(web / "trajectory.csv"),
                   "--solution", str(run_dir / "solution.json"), "--out", str(tmp_path / "v"))
        assert code == 2
        assert capsys.readouterr().err.endswith(f"{web / csv} {message}\n")
        assert not (tmp_path / "v" / "verify_report.json").exists()

    def test_unparseable_mesh_cell_names_the_file(self, tmp_path, readme_400, capsys):
        run_dir, mesh = readme_400
        web = tmp_path / "web"
        web.mkdir()
        for src in (mesh, mesh.parent / "webbing_report.json"):
            (web / src.name).write_bytes(src.read_bytes())
        lines = (web / "mesh_0.csv").read_text().splitlines()
        _set_cell(lines, [39], 1, "abc")
        (web / "mesh_0.csv").write_text("\n".join(lines) + "\n")
        code = cli("verify", "--mesh", str(web / "mesh_0.csv"),
                   "--trajectory", str(run_dir / "trajectory.csv"),
                   "--solution", str(run_dir / "solution.json"), "--out", str(tmp_path / "v"))
        assert code == 2
        assert capsys.readouterr().err == ("error: mesh CSV rows differ from the rebuild: "
                                           f"{web / 'mesh_0.csv'} column t differs in data row 39\n")
        assert not (tmp_path / "v" / "verify_report.json").exists()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("rows, named", [((40,), 40), ((5000,), 5000), ((40, 5000), 40)],
                             ids=["stage-block", "helper-block", "both"])
    def test_tampered_block_at_one_and_two_cpus(self, tmp_path, readme_400, capsys, monkeypatch,
                                                cpus, rows, named):
        # 401 slices of 16 nodes make two CSV blocks, data rows 1-4096 and
        # 4097-6416: with two CPUs a helper checks the second
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        run_dir, mesh = readme_400
        web = tmp_path / "web"
        web.mkdir()
        for src in (mesh, mesh.parent / "webbing_report.json"):
            (web / src.name).write_bytes(src.read_bytes())
        lines = (web / "mesh_0.csv").read_text().splitlines()
        _set_cell(lines, rows, 2, "9.5")
        (web / "mesh_0.csv").write_text("\n".join(lines) + "\n")
        code = cli("verify", "--mesh", str(web / "mesh_0.csv"),
                   "--trajectory", str(run_dir / "trajectory.csv"),
                   "--solution", str(run_dir / "solution.json"), "--out", str(tmp_path / "v"))
        assert code == 2
        assert capsys.readouterr().err == ("error: mesh CSV rows differ from the rebuild: "
                                           f"{web / 'mesh_0.csv'} column re_z1 differs in data "
                                           f"row {named}\n")

    def test_webbing_without_csv(self, tmp_path, readme_400):
        run_dir, mesh = readme_400
        (tmp_path / "solution.json").write_bytes((run_dir / "solution.json").read_bytes())
        assert cli("webbing", "--solution", str(tmp_path / "solution.json"), "--levels=-1",
                   "--sphere-res", "16", "--out", str(tmp_path / "web")) == 0
        assert not (tmp_path / "trajectory.csv").exists()
        assert (tmp_path / "web" / "mesh_0.csv").read_bytes() == mesh.read_bytes()

    @pytest.mark.parametrize("key, value", [
        ("steps", True), ("steps", 400.0), ("steps", 0), ("steps", "400"), ("steps", 10**400),
        ("frame0", None), ("frame0", {"n": 2}), ("frame1", []), ("frame1", {"n": 1}),
        ("beta", [0.5]), ("beta", [0.5, True]), ("beta", [0.5, "0.5"]),
        ("beta", [0.5, math.nan]), ("beta", None), ("tolerance", 0), ("tolerance", math.inf),
        ("tolerance", "1e-10"), ("tolerance", True), ("residual", None), ("residual", math.nan),
        ("newton_residuals", None), ("newton_residuals", [math.nan]),
        ("newton_residuals", [True]), ("newton_residuals", ["0"]), ("grid_residuals", None),
        ("grid_residuals", [math.inf]), ("grid_residuals", [-0.5]),
        ("jacobian_condition", math.inf), ("jacobian_condition", True),
        ("jacobian_condition", "2.0"),
    ], ids=lambda v: repr(v)[:10])
    def test_malformed_field_exit_2(self, tmp_path, readme_400, capsys, key, value):
        run_dir, mesh = readme_400
        doc = json.loads((run_dir / "solution.json").read_text())
        doc[key] = value
        (tmp_path / "solution.json").write_text(json.dumps(doc))
        (tmp_path / "trajectory.csv").write_bytes((run_dir / "trajectory.csv").read_bytes())
        for argv in (["webbing", "--levels=-1", "--sphere-res", "16"],
                     ["verify", "--mesh", str(mesh), "--trajectory",
                      str(run_dir / "trajectory.csv")]):
            assert exit_code(*argv, "--solution", str(tmp_path / "solution.json"),
                             "--out", str(tmp_path / "out")) == 2
            assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("key, value, message", [
        ("frame1", frame_to_json_dict(make_frame(FlatCalabiYau(3), np.eye(3))),
         "frames live in different ambient dimensions"),
        ("frame1", frame_to_json_dict(make_frame(FlatCalabiYau(2),
                                                 np.diag(np.exp(1j * np.array([0.9, 1.0]))))),
         "Maslov index 1 is not 0 or n = 2; the geodesic is solved for those two only"),
        ("frame1", frame_to_json_dict(make_frame(FlatCalabiYau(2), np.eye(2))),
         f"{BAD}beta must be the solved pair's angles [0,0], got {{beta}}"),
        ("beta", [0.8, 0.8], f"{BAD}beta must be the solved pair's angles {README_BETA}, "
                             "got [0.8, 0.8]"),
        ("beta", ["0.5", 0.8], f"{BAD}beta must be the solved pair's angles {README_BETA}, "
                               'got ["0.5", 0.8]'),
        ("residual", 0.5,
         f"{BAD}residual must be the rebuilt max|theta(1) - beta| {{residual!r}}, got 0.5"),
        ("tolerance", -1,
         f"{BAD}need an integer steps >= 1 and a positive finite number tolerance"),
        ("tolerance", 1e-20, f"{BAD}residual {{residual!r}} is not below tolerance 1e-20"),
        ("newton_residuals", [1], f"{BAD}newton_residuals must be one or more finite "
                                  "non-negative numbers, the last below tolerance 1e-10, got [1]"),
        ("newton_residuals", [], f"{BAD}newton_residuals must be one or more finite "
                                 "non-negative numbers, the last below tolerance 1e-10, got []"),
        ("newton_residuals", [0.5, -1e-20], f"{BAD}newton_residuals must be one or more finite "
                                            "non-negative numbers, the last below tolerance "
                                            "1e-10, got [0.5, -1e-20]"),
        ("grid_residuals", [1e-9, 0.5], f"{BAD}grid_residuals must be [] or finite non-negative "
                                        "numbers ending in residual {residual!r}, got [1e-09, 0.5]"),
        ("jacobian_condition", -5,
         f"{BAD}jacobian_condition must be a finite number >= 1, got -5"),
        ("jacobian_condition", 0.5,
         f"{BAD}jacobian_condition must be a finite number >= 1, got 0.5"),
    ], ids=["n", "maslov", "phase1", "beta", "beta-as-text", "residual", "tolerance",
            "tolerance-below-residual", "newton-above-tolerance", "newton-empty",
            "newton-negative", "grid-last-entry", "jacobian-condition", "jacobian-below-1"])
    def test_contradictory_field_exit_2(self, tmp_path, readme_400, capsys, key, value,
                                        message):
        # each edit contradicts the frames or the rebuild, or the record of
        # the solve contradicts itself; frame1 of another dimension, of
        # Maslov index 1 and of another phase stand for the n, maslov and
        # phase1 that the record no longer stores
        run_dir, mesh = readme_400
        doc = json.loads((run_dir / "solution.json").read_text())
        assert 0.0 < doc["residual"] < 1e-10
        message = message.format(residual=doc["residual"], beta=json.dumps(doc["beta"]))
        doc[key] = value
        (tmp_path / "solution.json").write_text(json.dumps(doc))
        for argv in (["webbing", "--levels=-1", "--sphere-res", "16"],
                     ["verify", "--mesh", str(mesh), "--trajectory",
                      str(run_dir / "trajectory.csv")]):
            assert exit_code(*argv, "--solution", str(tmp_path / "solution.json"),
                             "--out", str(tmp_path / "out")) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("a", [[], [-0.1], [-0.1] * 3, [[-0.1, -0.1]]], ids=repr)
    def test_one_coefficient_per_direction(self, tmp_path, readme_400, capsys, a):
        # an `a` of another length ran the flow in len(a) directions and
        # failed later, in a shape error of the mesh build or, for [], in
        # min() of an empty sequence
        run_dir, mesh = readme_400
        doc = json.loads((run_dir / "solution.json").read_text())
        doc["a"] = a
        (tmp_path / "solution.json").write_text(json.dumps(doc))
        for argv in (["webbing", "--levels=-1", "--sphere-res", "16"],
                     ["verify", "--mesh", str(mesh), "--trajectory",
                      str(run_dir / "trajectory.csv")]):
            assert exit_code(*argv, "--solution", str(tmp_path / "solution.json"),
                             "--out", str(tmp_path / "out")) == 2
            assert capsys.readouterr().err == ("error: coefficients must be 2 numbers, one per "
                                               f"direction, got shape {np.shape(a)}\n")

    @pytest.mark.parametrize("rewrite_beta", [False, True], ids=["beta-kept", "beta-rewritten"])
    @pytest.mark.parametrize("scale", [1.01, 1.10, 2.0])
    def test_consistent_coefficient_edit_exit_2(self, tmp_path, readme_400, capsys, scale,
                                                rewrite_beta):
        # a scaled a, with beta set to the rebuild's theta(1) or kept, and
        # residual set to the rebuild's: when the record also held phase0 and
        # phase1 = phase0 + sum(beta), the rewritten edit with phase1 set to
        # match passed webbing, and verify with CSVs made from it.  beta is
        # now the frames' and is held to them, so the scaled flow misses it
        run_dir, mesh = readme_400
        doc = json.loads((run_dir / "solution.json").read_text())
        l0, _, spectrum, _ = _solved_pair(laggrass.frame_from_json_dict(doc["frame0"]),
                                          laggrass.frame_from_json_dict(doc["frame1"]))
        a = [scale * v for v in doc["a"]]
        spec = geoflow.GeodesicSpec(base=l0, adapted_basis=spectrum.adapted_basis,
                                    coefficients=a)
        theta1 = geoflow.geodesic_ivp(spec, IntegratorConfig(doc["steps"])).theta[-1]
        beta = theta1 if rewrite_beta else spectrum.beta
        residual = float(np.max(np.abs(theta1 - beta)))
        doc.update(a=a, beta=beta.tolist(), residual=residual)
        write_json(tmp_path / "solution.json", doc)
        message = (f"beta must be the solved pair's angles {README_BETA}, got "
                   f"{json.dumps(doc['beta'])}" if rewrite_beta
                   else f"residual {residual!r} is not below tolerance 1e-10")
        for argv in (["webbing", "--levels=-1", "--sphere-res", "16"],
                     ["verify", "--mesh", str(mesh), "--trajectory",
                      str(run_dir / "trajectory.csv")]):
            assert exit_code(*argv, "--solution", str(tmp_path / "solution.json"),
                             "--out", str(tmp_path / "out")) == 2
            assert capsys.readouterr().err == f"error: malformed solution JSON: {message}\n"
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    def test_swapped_frames_are_the_reversed_problem(self, tmp_path, readme_400, capsys):
        # (frame1, frame0) has Maslov index n and is solved as the pair it
        # swaps back to, by the same a: a valid record of the reversed
        # problem, whose trajectory runs back in time
        run_dir, mesh = readme_400
        doc = json.loads((run_dir / "solution.json").read_text())
        doc["frame0"], doc["frame1"] = doc["frame1"], doc["frame0"]
        write_json(tmp_path / "solution.json", doc)
        assert cli("webbing", "--solution", str(tmp_path / "solution.json"), "--levels=-1",
                   "--sphere-res", "16", "--out", str(tmp_path / "web")) == 0
        forward = _load_trajectory(str(run_dir / "solution.json"))
        backward = _load_trajectory(str(tmp_path / "solution.json"))
        np.testing.assert_array_equal(backward.theta, forward.theta[::-1])
        capsys.readouterr()
        assert cli("verify", "--mesh", str(mesh), "--trajectory", str(run_dir / "trajectory.csv"),
                   "--solution", str(tmp_path / "solution.json"),
                   "--out", str(tmp_path / "v")) == 2
        assert capsys.readouterr().err.startswith("error: trajectory CSV samples disagree")
        assert not (tmp_path / "v").exists() or not any((tmp_path / "v").iterdir())

    def test_negative_zero_frame_entries(self, tmp_path, monkeypatch):
        # json keeps -0.0 in a frame file; geodesic must store it so that
        # webbing and verify re-make the frames, and so beta and phase0, to
        # the bit
        phases = np.array([[0.1, -0.2, 0.05], [0.5, 0.3, 0.40]])
        for name, angles in zip(("l0.json", "l1.json"), phases):
            cols = [[{"re": math.cos(angles[j]) if i == j else -0.0,
                      "im": math.sin(angles[j]) if i == j else -0.0} for i in range(3)]
                    for j in range(3)]
            (tmp_path / name).write_text(json.dumps({"n": 3, "columns": cols}))
        pairs = []
        solved_pair = cli_module._solved_pair
        monkeypatch.setattr(cli_module, "_solved_pair",
                            lambda l0, l1: pairs.append(solved_pair(l0, l1)) or pairs[-1])
        run_dir, web = tmp_path / "run", tmp_path / "web"
        assert cli("geodesic", "--lambda0", str(tmp_path / "l0.json"),
                   "--lambda1", str(tmp_path / "l1.json"), "--steps", "200",
                   "--out", str(run_dir)) == 0
        sol = json.loads((run_dir / "solution.json").read_text())
        for key, name in (("frame0", "l0.json"), ("frame1", "l1.json")):
            stored = [[complex(e["re"], e["im"]) for e in col] for col in sol[key]["columns"]]
            given = [[complex(e["re"], e["im"]) for e in col]
                     for col in json.loads((tmp_path / name).read_text())["columns"]]
            np.testing.assert_array_equal(np.signbit(np.array(stored).view(float)),
                                          np.signbit(np.array(given).view(float)))
        assert cli("webbing", "--solution", str(run_dir / "solution.json"), "--levels=-1",
                   "--sphere-res", "8", "--out", str(web)) == 0
        assert cli("verify", "--mesh", str(web / "mesh_0.csv"),
                   "--trajectory", str(run_dir / "trajectory.csv"),
                   "--solution", str(run_dir / "solution.json"), "--out", str(tmp_path / "v")) == 0
        assert len(pairs) == 3
        for _, _, spectrum, reverse in pairs[1:]:
            assert spectrum.beta.tobytes() == pairs[0][2].beta.tobytes()
            assert spectrum.phase0.hex() == pairs[0][2].phase0.hex()
            assert reverse is pairs[0][3] is False


class TestVerify:
    @pytest.fixture()
    def readme_mesh(self, tmp_path, pair_files):
        """README pair at 200 steps: (run dir, mesh CSV path) at --sphere-res 16."""
        f0, f1 = pair_files
        run_dir, web = tmp_path / "run200", tmp_path / "web200"
        assert cli("geodesic", "--lambda0", f0, "--lambda1", f1,
                   "--steps", "200", "--out", str(run_dir)) == 0
        assert cli("webbing", "--solution", str(run_dir / "solution.json"),
                   "--levels=-1", "--sphere-res", "16", "--out", str(web)) == 0
        return run_dir, web / "mesh_0.csv"

    @staticmethod
    def tamper(mesh_path, rows, column, value):
        lines = mesh_path.read_text().splitlines()
        col = lines[0].split(",").index(column)
        for row in rows:  # data rows, counted from 0 below the header
            cells = lines[1 + row].split(",")
            cells[col] = value
            lines[1 + row] = ",".join(cells)
        mesh_path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("row, column, value", [(3, "s_1", "9.5"), (20, "t", "0.01")])
    def test_tampered_grid_column_rejected(self, tmp_path, readme_mesh, capsys,
                                           row, column, value):
        # verify used to compare the node columns only, and read the times
        # through np.unique, so both of these exited 0
        run_dir, mesh_path = readme_mesh
        self.tamper(mesh_path, [row], column, value)
        code = cli("verify", "--mesh", str(mesh_path),
                   "--trajectory", str(run_dir / "trajectory.csv"),
                   "--solution", str(run_dir / "solution.json"), "--out", str(tmp_path / "v"))
        assert code == 2
        assert f"column {column} " in capsys.readouterr().err
        assert not (tmp_path / "v" / "verify_report.json").exists()

    def test_parameters_must_match_the_rebuilt_grid(self, tmp_path, readme_mesh, capsys):
        # the same wrong angle in every slice keeps each slice's grid consistent
        run_dir, mesh_path = readme_mesh
        self.tamper(mesh_path, range(3, 201 * 16, 16), "s_1", "9.5")
        code = cli("verify", "--mesh", str(mesh_path),
                   "--trajectory", str(run_dir / "trajectory.csv"),
                   "--solution", str(run_dir / "solution.json"), "--out", str(tmp_path / "v"))
        assert code == 2
        assert "column s_1 differs in data row 4" in capsys.readouterr().err

    def test_pipeline_consistency(self, tmp_path, solved_dir):
        web = tmp_path / "web"
        assert cli("webbing", "--solution", str(solved_dir / "solution.json"),
                   "--levels=-1", "--sphere-res", "32", "--out", str(web)) == 0
        embedded = json.loads((web / "webbing_report.json").read_text())["meshes"][0]
        out = tmp_path / "ver"
        code = cli("verify", "--mesh", str(web / "mesh_0.csv"),
                   "--trajectory", str(solved_dir / "trajectory.csv"),
                   "--solution", str(solved_dir / "solution.json"),
                   "--out", str(out))
        assert code == 0
        redone = json.loads((out / "verify_report.json").read_text())
        for key in ("max_omega", "max_re_omega", "min_im_omega", "min_euler_angle",
                    "harmonic_residual", "boundary_defect"):
            assert redone[key] == embedded[key]
        assert redone["rebuild_defect"] == 0.0

    def test_reversed_solution_round_trip(self, tmp_path, pair_files):
        # index-n solutions carry a time-reversed trajectory; webbing and
        # verify must agree on them too
        f0, f1 = pair_files
        rev = tmp_path / "rev"
        assert cli("geodesic", "--lambda0", f1, "--lambda1", f0,
                   "--steps", "400", "--out", str(rev)) == 0
        web = tmp_path / "revweb"
        assert cli("webbing", "--solution", str(rev / "solution.json"),
                   "--levels=-1", "--sphere-res", "24", "--out", str(web)) == 0
        code = cli("verify", "--mesh", str(web / "mesh_0.csv"),
                   "--trajectory", str(rev / "trajectory.csv"),
                   "--solution", str(rev / "solution.json"),
                   "--out", str(tmp_path / "revver"))
        assert code == 0
        # the time tangents point along reversed time, as the nodes move
        traj = _load_trajectory(str(rev / "solution.json"))
        mesh = cylinder_mesh(traj, -1.0, 24)
        differenced = np.gradient(mesh.points, traj.times, axis=0, edge_order=2)
        assert np.max(np.abs(differenced - mesh.time_tangents)) < 1e-4

    def test_trajectory_of_another_dimension_rejected(self, tmp_path, solved_dir, capsys):
        # an n = 2 trajectory CSV on the same time grid as an n = 3 solution
        # used to end in numpy's "operands could not be broadcast together"
        l0, l1, _, _ = random_maslov_zero_pair(np.random.default_rng(1), 3)
        f0, f1 = tmp_path / "n3_l0.json", tmp_path / "n3_l1.json"
        write_json(f0, frame_to_json_dict(l0))
        write_json(f1, frame_to_json_dict(l1))
        run3, web3 = tmp_path / "run3", tmp_path / "web3"
        assert cli("geodesic", "--lambda0", str(f0), "--lambda1", str(f1),
                   "--steps", "500", "--out", str(run3)) == 0
        assert cli("webbing", "--solution", str(run3 / "solution.json"),
                   "--levels=-1", "--sphere-res", "8", "--out", str(web3)) == 0
        code = cli("verify", "--mesh", str(web3 / "mesh_0.csv"),
                   "--trajectory", str(solved_dir / "trajectory.csv"),
                   "--solution", str(run3 / "solution.json"), "--out", str(tmp_path / "v"))
        assert code == 2
        err = capsys.readouterr().err
        assert "trajectory CSV samples disagree with the solution's trajectory" in err
        assert not (tmp_path / "v" / "verify_report.json").exists()

    def test_corrupted_mesh_rejected(self, tmp_path, solved_dir):
        web = tmp_path / "web"
        assert cli("webbing", "--solution", str(solved_dir / "solution.json"),
                   "--levels=-1", "--sphere-res", "16", "--out", str(web)) == 0
        mesh_path = web / "mesh_0.csv"
        lines = mesh_path.read_text().splitlines()
        cells = lines[5].split(",")
        cells[2] = f"{float(cells[2]) + 0.5:.17g}"
        lines[5] = ",".join(cells)
        mesh_path.write_text("\n".join(lines) + "\n")
        code = cli("verify", "--mesh", str(mesh_path),
                   "--trajectory", str(solved_dir / "trajectory.csv"),
                   "--solution", str(solved_dir / "solution.json"),
                   "--out", str(tmp_path / "ver2"))
        assert code == 2

    def test_one_ulp_node_edit_rejected(self, tmp_path, readme_mesh, capsys):
        # a stored node must equal the rebuild bitwise; a 1e-9 tolerance let
        # this edit through
        run_dir, mesh_path = readme_mesh
        lines = mesh_path.read_text().splitlines()
        cells = lines[40].split(",")
        cells[3] = f"{np.nextafter(float(cells[3]), np.inf):.17g}"
        lines[40] = ",".join(cells)
        mesh_path.write_text("\n".join(lines) + "\n")
        code = cli("verify", "--mesh", str(mesh_path),
                   "--trajectory", str(run_dir / "trajectory.csv"),
                   "--solution", str(run_dir / "solution.json"), "--out", str(tmp_path / "v"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: mesh CSV rows differ from the rebuild: ")
        assert err.endswith(" column im_z1 differs in data row 40\n")
        assert not (tmp_path / "v" / "verify_report.json").exists()


def _pipeline(tmp_path, l0, l1, steps, *web_flags):
    """geodesic and webbing on a pair; returns (run dir, web dir)."""
    write_json(tmp_path / "l0.json", frame_to_json_dict(l0))
    write_json(tmp_path / "l1.json", frame_to_json_dict(l1))
    run_dir, web = tmp_path / "run", tmp_path / "web"
    assert cli("geodesic", "--lambda0", str(tmp_path / "l0.json"), "--lambda1",
               str(tmp_path / "l1.json"), "--steps", str(steps), "--out", str(run_dir)) == 0
    assert cli("webbing", "--solution", str(run_dir / "solution.json"), *web_flags,
               "--out", str(web)) == 0
    return run_dir, web


def _verify(run_dir, mesh, out):
    return cli("verify", "--mesh", str(mesh), "--trajectory", str(run_dir / "trajectory.csv"),
               "--solution", str(run_dir / "solution.json"), "--out", str(out))


class TestRecordedGrid:
    """verify rebuilds each mesh at the level and sphere resolution that
    webbing recorded in the webbing_report.json next to it."""

    @pytest.mark.parametrize("n, seed, level", [(2, 0, "-1"), (3, 0, "-3.7")])
    def test_report_equals_webbing_entry(self, tmp_path, n, seed, level):
        # a level fitted to the stored nodes read -1.0000000000000004 and
        # -3.7000000000000015 here, and moved every report value
        l0, l1, _, _ = random_maslov_zero_pair(np.random.default_rng(seed), n)
        run_dir, web = _pipeline(tmp_path, l0, l1, 300, f"--levels={level}", "--sphere-res", "16")
        assert _verify(run_dir, web / "mesh_0.csv", tmp_path / "ver") == 0
        entry = json.loads((web / "webbing_report.json").read_text())["meshes"][0]
        redone = json.loads((tmp_path / "ver" / "verify_report.json").read_text())
        for key in ("level", "max_omega", "max_re_omega", "min_im_omega", "orientation",
                    "min_euler_angle", "boundary_defect", "harmonic_residual"):
            assert redone[key] == entry[key], key
        assert redone["rebuild_defect"] == 0.0

    def test_no_seed_from_the_environment(self, tmp_path, monkeypatch):
        # the n >= 4 sphere grid once followed LAGWEB_SEED, so a mesh written
        # under one value failed verify under another
        l0, l1, _, _ = random_maslov_zero_pair(np.random.default_rng(2), 4)
        monkeypatch.setenv("LAGWEB_SEED", "1")
        run_dir, web = _pipeline(tmp_path, l0, l1, 60, "--levels=-1", "--sphere-res", "32")
        monkeypatch.delenv("LAGWEB_SEED")
        assert _verify(run_dir, web / "mesh_0.csv", tmp_path / "ver") == 0

    @pytest.fixture(scope="class")
    def readme_web(self, tmp_path_factory):
        """README pair at 100 steps, meshed at level -1 on 16 nodes."""
        base = tmp_path_factory.mktemp("recorded")
        l0 = make_frame(FlatCalabiYau(2), np.eye(2, dtype=complex))
        l1 = make_frame(FlatCalabiYau(2), np.diag(np.exp(1j * np.array([math.pi / 6,
                                                                         math.pi / 4]))))
        return _pipeline(base, l0, l1, 100, "--levels=-1", "--sphere-res", "16")

    def _rejected(self, tmp_path, readme_web, capsys, report_text, message):
        run_dir, web = readme_web
        copy = tmp_path / "web"
        copy.mkdir()
        (copy / "mesh_0.csv").write_bytes((web / "mesh_0.csv").read_bytes())
        if report_text is not None:
            (copy / "webbing_report.json").write_text(report_text)
        capsys.readouterr()
        assert exit_code("verify", "--mesh", str(copy / "mesh_0.csv"), "--trajectory",
                         str(run_dir / "trajectory.csv"), "--solution",
                         str(run_dir / "solution.json"), "--out", str(tmp_path / "v")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "v" / "verify_report.json").exists()

    def test_missing_report(self, tmp_path, readme_web, capsys):
        self._rejected(tmp_path, readme_web, capsys, None, "webbing_report.json")

    def test_no_entry_for_the_mesh(self, tmp_path, readme_web, capsys):
        doc = json.loads((readme_web[1] / "webbing_report.json").read_text())
        doc["meshes"][0]["csv"] = "mesh_1.csv"
        self._rejected(tmp_path, readme_web, capsys, json.dumps(doc), "no entry for mesh_0.csv")

    @pytest.mark.parametrize("key", ["max_omega", "max_re_omega", "min_im_omega",
                                     "min_euler_angle", "boundary_defect", "harmonic_residual"])
    def test_value_one_ulp_off(self, tmp_path, readme_web, capsys, key):
        # verify runs the checks of webbing on the same rebuild, so the two
        # agree to the last bit, and no tolerance is given
        doc = json.loads((readme_web[1] / "webbing_report.json").read_text())
        entry = doc["meshes"][0]
        entry[key] = math.nextafter(entry[key], math.inf)
        self._rejected(tmp_path, readme_web, capsys, json.dumps(doc),
                       f"webbing report's {key} for mesh_0.csv is {entry[key]!r}, but verify "
                       "computes ")

    @pytest.mark.parametrize("edit, message", [
        # once accepted with exit code 0: the report contradicted the mesh
        (dict(min_im_omega=-5.0, max_omega=1.0), "max_omega for mesh_0.csv is 1.0,"),
        (dict(min_im_omega=-5.0), "min_im_omega for mesh_0.csv is -5.0,"),
        (dict(orientation=1), "orientation for mesh_0.csv is 1, but verify computes -1"),
        (dict(orientation=None), "orientation for mesh_0.csv is None,"),
        (dict(harmonic_residual=None), "harmonic_residual for mesh_0.csv is None,"),
        (dict(min_euler_angle=None), "min_euler_angle for mesh_0.csv is None,"),
    ], ids=["max_omega-and-min_im_omega", "min_im_omega", "orientation", "orientation-null",
            "harmonic_residual-null", "min_euler_angle-null"])
    def test_contradicting_report(self, tmp_path, readme_web, capsys, edit, message):
        doc = json.loads((readme_web[1] / "webbing_report.json").read_text())
        doc["meshes"][0].update(edit)
        self._rejected(tmp_path, readme_web, capsys, json.dumps(doc), message)

    def test_check_value_missing(self, tmp_path, readme_web, capsys):
        doc = json.loads((readme_web[1] / "webbing_report.json").read_text())
        del doc["meshes"][0]["max_re_omega"]
        self._rejected(tmp_path, readme_web, capsys, json.dumps(doc),
                       "webbing report records no max_re_omega for mesh_0.csv")

    def test_bool_is_not_an_orientation(self, tmp_path, capsys):
        # the reversed README pair has orientation 1, which JSON true equals
        l0 = make_frame(FlatCalabiYau(2), np.eye(2, dtype=complex))
        l1 = make_frame(FlatCalabiYau(2), np.diag(np.exp(1j * np.array([math.pi / 6,
                                                                         math.pi / 4]))))
        run_dir, web = _pipeline(tmp_path, l1, l0, 100, "--levels=-1", "--sphere-res", "16")
        doc = json.loads((web / "webbing_report.json").read_text())
        assert doc["meshes"][0]["orientation"] == 1
        doc["meshes"][0]["orientation"] = True
        (web / "webbing_report.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert _verify(run_dir, web / "mesh_0.csv", tmp_path / "ver") == 2
        err = capsys.readouterr().err
        assert "orientation for mesh_0.csv is True, but verify computes 1" in err

    @pytest.mark.parametrize("key, value", [
        ("level", '"-1"'), ("level", "true"), ("level", "NaN"), ("level", "1e400"),
        ("sphere_resolution", '"16"'), ("sphere_resolution", "true"),
        ("sphere_resolution", "16.5"),
    ])
    def test_malformed_field(self, tmp_path, readme_web, capsys, key, value):
        doc = json.loads((readme_web[1] / "webbing_report.json").read_text())
        (doc["meshes"][0] if key == "level" else doc)[key] = "@"
        self._rejected(tmp_path, readme_web, capsys, json.dumps(doc).replace('"@"', value),
                       "malformed webbing report")


class TestDeterministicJson:
    def test_sorted_keys_and_17_digits(self, tmp_path):
        path = tmp_path / "x.json"
        write_json(path, {"b": 1.0 / 3.0, "a": [1, True, None, "s"]})
        text = path.read_text()
        assert text == '{"a":[1,true,null,"s"],"b":0.33333333333333331}\n'

    def test_negative_zero_read_back(self, tmp_path):
        # '.17g' writes -0.0 as -0, which json reads as the int 0: a diagonal
        # n = 3 frame re-made from that text differs in its columns' sign bits
        frame = {"n": 3, "columns": [[{"re": 1.0 if i == j else -0.0,
                                       "im": 0.0 if i == j else -0.0} for i in range(3)]
                                     for j in range(3)]}
        write_json(tmp_path / "frame.json", frame)
        again, _ = laggrass.load_frame(tmp_path / "frame.json")
        expected = laggrass.frame_from_json_dict(frame)
        assert again.columns.tobytes() == expected.columns.tobytes()
        assert "-0.0" in (tmp_path / "frame.json").read_text()


def scipy_modules_after(code):
    """The sorted names of the scipy modules loaded once ``code`` has run in
    a fresh interpreter with this checkout's lagweb, as the last stdout line."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lagweb.__file__)))
    code += "\nimport sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()[-1]


def test_cli_import_leaves_scipy_unloaded():
    # lagweb imports no scipy; scipy.special alone would add ~0.15 s and
    # 22 MB to every CLI call, scipy.stats ~1 s
    assert scipy_modules_after("import lagweb.cli") == "[]"


def test_n4_webbing_leaves_scipy_unloaded(tmp_path):
    # the n >= 4 quasi-random sphere makes its Halton points and normal
    # quantiles itself, so a whole n = 4 webbing stage loads no scipy module
    code = f"""
import os
import numpy as np
from lagweb.cli import main, write_json
from lagweb.laggrass import frame_to_json_dict, random_maslov_zero_pair
os.chdir({str(tmp_path)!r})
l0, l1, _, _ = random_maslov_zero_pair(np.random.default_rng(2), 4)
write_json("l0.json", frame_to_json_dict(l0))
write_json("l1.json", frame_to_json_dict(l1))
for argv in (["geodesic", "--lambda0", "l0.json", "--lambda1", "l1.json", "--steps", "50",
              "--out", "run"],
             ["webbing", "--solution", "run/solution.json", "--levels=-1", "--sphere-res", "16",
              "--out", "web"]):
    try:
        main(argv)
    except SystemExit as exc:
        assert exc.code == 0, argv
"""
    assert scipy_modules_after(code) == "[]"
    assert (tmp_path / "web" / "mesh_0.csv").exists()


def exit_code(*argv):
    """Exit code of ``lagweb.cli.main``; any other exception fails the test."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code


class TestNonFiniteAndHugeInput:
    """Levels, tolerances and frame entries outside their range exit 2 with a
    message, never a traceback."""

    @pytest.mark.parametrize("level, message", [
        ("-1e20", "boundary slice left its plane"),
        ("-1e300", "boundary slice left its plane"),
        # the semi-axes overflowed to inf and the nodes to NaN: the stage
        # exited 4 with a mesh CSV of nan rows and a report of bare nan tokens
        pytest.param("-1e308", "level -1e+308 overflows a semi-axis sqrt(level / a_j)",
                     id="-1e308-overflow"),
        ("nan", "level must be finite, got nan"),
        ("-inf", "level must be finite, got -inf"),
    ])
    def test_levels(self, tmp_path, solved_dir, capsys, level, message):
        assert exit_code("webbing", "--solution", str(solved_dir / "solution.json"),
                         f"--levels={level}", "--sphere-res", "16",
                         "--out", str(tmp_path / "w")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert list((tmp_path / "w").glob("*")) == []

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_tolerance(self, tmp_path, pair_files, capsys, tol):
        f0, f1 = pair_files
        assert exit_code("geodesic", "--lambda0", f0, "--lambda1", f1, "--tol", tol,
                         "--steps", "100", "--out", str(tmp_path / "g")) == 2
        assert capsys.readouterr().err == f"error: tolerance must be finite, got {tol}\n"
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--max-omega-tol", "--max-re-omega-tol", "--min-euler"])
    @pytest.mark.parametrize("stage", ["webbing", "verify"])
    def test_thresholds(self, tmp_path, contract_run, capsys, stage, flag, value):
        # a non-finite limit was written into the report as a bare inf or
        # nan, which no JSON parser reads, and verify then failed on it
        source = ["--solution", str(contract_run / "run" / "solution.json")]
        if stage == "verify":
            source += ["--mesh", str(contract_run / "web" / "mesh_0.csv"),
                       "--trajectory", str(contract_run / "run" / "trajectory.csv")]
        assert exit_code(stage, *source, f"{flag}={value}", "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == f"error: {flag} must be finite, got {value}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("stage, flag", [("geodesic", "--steps"), ("webbing", "--sphere-res")])
    def test_counts_too_large_to_allocate(self, tmp_path, pair_files, solved_dir, capsys,
                                          stage, flag):
        # 10**15 samples need petabytes, beyond any address space: numpy
        # refuses at once, and nothing is allocated
        f0, f1 = pair_files
        source = (["--lambda0", f0, "--lambda1", f1] if stage == "geodesic"
                  else ["--solution", str(solved_dir / "solution.json")])
        assert exit_code(stage, *source, flag, str(10**15), "--out", str(tmp_path / "big")) == 2
        assert "Unable to allocate" in capsys.readouterr().err

    def test_step_count_beyond_float(self, tmp_path, pair_files, capsys):
        # 1 / 10**400 is no float: this ended in an OverflowError traceback
        f0, f1 = pair_files
        assert exit_code("geodesic", "--lambda0", f0, "--lambda1", f1, "--steps", str(10**400),
                         "--out", str(tmp_path / "g")) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("entry, message", [
        ("NaN", "frame has a non-finite entry"),
        ("Infinity", "frame has a non-finite entry"),
        ("1" + "0" * 400, "malformed frame JSON: OverflowError"),
    ], ids=["nan", "inf", "int-beyond-float"])
    def test_frame_entries(self, tmp_path, capsys, entry, message):
        frame = tmp_path / "bad.json"
        frame.write_text('{"n": 1, "columns": [[{"re": %s, "im": 0}]]}' % entry)
        assert exit_code("pair-analyze", "--lambda0", str(frame), "--lambda1", str(frame),
                         "--out", str(tmp_path / "p")) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("n, entry, message", [
        ("1.9", '{"re": 1, "im": 0}', "n must be an integer"),
        ('"1"', '{"re": 1, "im": 0}', "n must be an integer"),
        ("true", '{"re": 1, "im": 0}', "n must be an integer"),
        ("1", '{"re": true, "im": 0}', "re and im must be numbers"),
        ("1", '{"re": 1, "im": false}', "re and im must be numbers"),
    ], ids=["n-float", "n-string", "n-bool", "re-bool", "im-bool"])
    def test_frame_json_types(self, tmp_path, capsys, n, entry, message):
        # int() and complex() took each of these, and the frame ran as 1 x 1
        frame = tmp_path / "bad.json"
        frame.write_text('{"n": %s, "columns": [[%s]]}' % (n, entry))
        assert exit_code("pair-analyze", "--lambda0", str(frame), "--lambda1", str(frame),
                         "--out", str(tmp_path / "p")) == 2
        assert capsys.readouterr().err == f"error: malformed frame JSON: {message}\n"

    def test_frame_norm_beyond_float(self, tmp_path):
        # |1e300 + 1e300 i|^2 overflows: Gram-Schmidt divided by inf and the
        # run ended in "cannot convert float NaN to integer", after two
        # RuntimeWarnings that -W error turned into a traceback
        frame = tmp_path / "huge.json"
        frame.write_text('{"n": 1, "columns": [[{"re": 1e300, "im": 1e300}]]}')
        one = tmp_path / "one.json"
        one.write_text('{"n": 1, "columns": [[{"re": 1, "im": 0}]]}')
        src = os.path.dirname(os.path.dirname(os.path.abspath(lagweb.__file__)))
        done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "lagweb.cli",
                               "pair-analyze", "--lambda0", str(one), "--lambda1", str(frame),
                               "--out", str(tmp_path / "p")],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
        assert done.returncode == 2
        assert done.stderr == "error: frame column 1 has a norm too large for a float\n"


# --- property test of the exit-code contract ---

SPECIAL = (math.nan, math.inf, -math.inf, 1e300, -1e300, -1e20, 0.0, -0.0, -1.0)


def _numbers(lo, hi):
    return st.sampled_from(SPECIAL) | st.floats(lo, hi)


_JSON_LEAF = (st.none() | st.booleans() | st.integers(-3, 3) | st.just(10**400) | st.floats()
              | st.text(max_size=3))
_JSON_DOC = st.recursive(
    _JSON_LEAF,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(["n", "columns", "re", "im"]), inner,
                                     max_size=3)),
    max_leaves=8,
)


@st.composite
def _frame_text(draw):
    """Frame JSON: diagonal phases (valid unless non-finite), entry-wise
    corrupted frames, arbitrary JSON or arbitrary text."""
    kind = draw(st.sampled_from(["diagonal", "entries", "json", "text"]))
    if kind == "text":
        return draw(st.text(max_size=12))
    if kind == "json":
        return json.dumps(draw(_JSON_DOC))
    n = draw(st.integers(1, 3))
    if kind == "diagonal":
        values = np.array(draw(st.lists(_numbers(-1.6, 1.6), min_size=n, max_size=n)))
    else:
        values = np.array(draw(st.lists(_numbers(-2.0, 2.0), min_size=2 * n * n,
                                        max_size=2 * n * n)))
    with np.errstate(invalid="ignore"):  # non-finite entries are the point
        raw = (np.diag(np.exp(1j * values)) if kind == "diagonal"
               else (values[::2] + 1j * values[1::2]).reshape(n, n))
    cols = [[{"re": float(z.real), "im": float(z.imag)} for z in raw[:, j]] for j in range(n)]
    return json.dumps({"n": draw(st.just(n) | _JSON_LEAF), "columns": cols})


_STEPS = st.integers(-2, 60).map(str)
_SPHERE_RES = st.none() | st.integers(-4, 12)
_THRESHOLD_FLAGS = st.lists(
    st.tuples(st.sampled_from(["--max-omega-tol", "--max-re-omega-tol", "--min-euler"]),
              _numbers(-1.0, 1.0)), max_size=2)


@pytest.fixture(scope="module")
def contract_run(tmp_path_factory):
    """README pair solved on 40 steps, meshed at level -1 on 8 sphere nodes."""
    base = tmp_path_factory.mktemp("contract")
    write_frame(base / "l0.json", np.eye(2, dtype=complex))
    write_frame(base / "l1.json", np.diag(np.exp(1j * np.array([math.pi / 6, math.pi / 4]))))
    assert cli("geodesic", "--lambda0", str(base / "l0.json"), "--lambda1", str(base / "l1.json"),
               "--steps", "40", "--out", str(base / "run")) == 0
    assert cli("webbing", "--solution", str(base / "run" / "solution.json"), "--levels=-1",
               "--sphere-res", "8", "--out", str(base / "web")) == 0
    return base


def _argv(draw, base, work):
    stage = draw(st.sampled_from(["pair-analyze", "geodesic", "webbing", "verify"]))
    if stage in ("pair-analyze", "geodesic"):
        frames = []
        for name in ("a.json", "b.json"):
            if draw(st.booleans()):
                frames.append(str(base / "l0.json"))
                continue
            path = os.path.join(work, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(draw(_frame_text()))
            frames.append(path)
        argv = [stage, "--lambda0", frames[0], "--lambda1", frames[1]]
        if stage == "geodesic":
            argv += ["--steps", draw(_STEPS), "--tol", repr(draw(_numbers(1e-14, 1e-2)))]
        return argv
    solution = base / "run" / "solution.json"
    edit = draw(st.none() | st.tuples(st.sampled_from(sorted(json.loads(solution.read_text()))),
                                      st.none() | _JSON_DOC))
    if edit is not None:
        # a copy of the solution with one key dropped (None) or replaced
        doc = json.loads(solution.read_text())
        key, value = edit
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        with open(os.path.join(work, "trajectory.csv"), "w", encoding="utf-8") as fh:
            fh.write((base / "run" / "trajectory.csv").read_text())
        solution = os.path.join(work, "solution.json")
        with open(solution, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    argv = [stage, "--solution", str(solution)]
    for flag, value in draw(_THRESHOLD_FLAGS):
        argv.append(f"{flag}={value!r}")
    if stage == "webbing":
        levels = draw(st.lists(_numbers(-4.0, 1.0), max_size=3))
        argv.append("--levels=" + ",".join(repr(c) for c in levels))
        res = draw(_SPHERE_RES)
        return argv + ([] if res is None else ["--sphere-res", str(res)])
    return argv + ["--mesh", os.path.join(_web_dir(draw, base, work), "mesh_0.csv"),
                   "--trajectory", str(base / "run" / "trajectory.csv")]


def _web_dir(draw, base, work):
    """The web directory, or a copy whose webbing_report.json has one key of
    the report or of its mesh entry dropped (None) or replaced."""
    web = base / "web"
    doc = json.loads((web / "webbing_report.json").read_text())
    targets = [(doc, key) for key in sorted(doc)]
    targets += [(doc["meshes"][0], key) for key in sorted(doc["meshes"][0])]
    edit = draw(st.none() | st.tuples(st.sampled_from(targets), st.none() | _JSON_DOC))
    if edit is None:
        return str(web)
    (target, key), value = edit
    if value is None:
        del target[key]
    else:
        target[key] = value
    copy = os.path.join(work, "web")
    os.mkdir(copy)
    shutil.copy(web / "mesh_0.csv", copy)
    with open(os.path.join(copy, "webbing_report.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return copy


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_exit_code_contract(contract_run, data):
    # every stage, on malformed frames, solutions and webbing reports,
    # non-finite and huge numbers and out-of-range counts, ends in one of
    # the four exit codes
    with tempfile.TemporaryDirectory() as work:
        argv = _argv(data.draw, contract_run, work)
        assert exit_code(*argv, "--out", os.path.join(work, "out")) in (0, 2, 3, 4), argv


def _live_group(pgid):
    """The pids of the processes in process group pgid that have not ended
    (zombies excluded), read from /proc."""
    live = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:  # ended meanwhile
            continue
        state, _, group = stat[stat.rfind(")") + 2:].split()[:3]
        if int(group) == pgid and state != "Z":
            live.append(int(entry))
    return live


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads the process table in /proc")
class TestNoProcessLeft:
    """Each CLI stage runs as a subprocess in its own process group: when it
    has ended, no process of that group may still run, and a CSV helper
    whose stage is killed ends by itself."""

    SRC = os.path.dirname(os.path.dirname(os.path.abspath(lagweb.__file__)))

    def stage(self, *argv, **popen):
        return subprocess.Popen([sys.executable, "-m", "lagweb.cli", *argv],
                                env=dict(os.environ, PYTHONPATH=self.SRC), start_new_session=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **popen)

    def finished(self, proc):
        """(exit code, stderr) of a stage, once every process of its group
        has closed the output pipes; then none of them may still run."""
        _, err = proc.communicate(timeout=120)
        assert _live_group(proc.pid) == []
        return proc.returncode, err

    def test_webbing_and_verify(self, tmp_path, solved_dir):
        web = tmp_path / "web"
        code, err = self.finished(self.stage("webbing", "--solution",
                                             str(solved_dir / "solution.json"), "--levels=-1",
                                             "--out", str(web)))
        assert (code, err) == (0, "")
        # 501 slices of the 128-node circle: blocks of 32 slices, 4096 rows;
        # data row 5000 is in block 1, which the helper checks
        lines = (web / "mesh_0.csv").read_text().splitlines()
        _set_cell(lines, [5000], 3, "9.5")
        (web / "mesh_0.csv").write_text("\n".join(lines) + "\n")
        code, err = self.finished(self.stage("verify", "--mesh", str(web / "mesh_0.csv"),
                                             "--trajectory", str(solved_dir / "trajectory.csv"),
                                             "--solution", str(solved_dir / "solution.json"),
                                             "--out", str(tmp_path / "v")))
        assert code == 2
        assert err.endswith("column im_z1 differs in data row 5000\n")

    def test_file_size_limit(self, tmp_path, solved_dir):
        def limit_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 20, 1 << 20))

        code, err = self.finished(self.stage("webbing", "--solution",
                                             str(solved_dir / "solution.json"), "--levels=-1",
                                             "--out", str(tmp_path / "web"),
                                             preexec_fn=limit_file_size))
        assert code == 2
        assert err.startswith("error: [Errno 27] File too large: ")

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU forks no helper")
    def test_helper_of_a_killed_stage_ends(self, tmp_path, solved_dir):
        # 501 x 2048 nodes: a mesh CSV of about 100 MB, killed while written
        proc = self.stage("webbing", "--solution", str(solved_dir / "solution.json"),
                          "--levels=-1", "--sphere-res", "2048", "--out", str(tmp_path / "web"))
        try:
            deadline = time.monotonic() + 60
            while len(_live_group(proc.pid)) < 2:
                assert proc.poll() is None and time.monotonic() < deadline, "no helper seen"
                time.sleep(0.002)
        finally:
            proc.kill()
        assert proc.wait() == -signal.SIGKILL
        deadline = time.monotonic() + 10
        while _live_group(proc.pid):
            assert time.monotonic() < deadline, "the helper outlived its stage"
            time.sleep(0.01)
        proc.communicate(timeout=10)  # the helper held the pipes until it ended
