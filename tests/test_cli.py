import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import lagweb
from lagweb.cli import build_parser, config_from_args, run
from lagweb.laggrass import FlatCalabiYau, frame_to_json_dict, make_frame
from lagweb.cli import write_json


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
        assert sol["maslov"] == 0
        assert sol["residual"] < 1e-10
        assert sol["trajectory_csv"] == "trajectory.csv"
        lines = (solved_dir / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,g_1,g_2,theta_1,theta_2,phase"
        assert len(lines) == 502

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

    def test_maslov_n_role_reversal(self, tmp_path, pair_files):
        f0, f1 = pair_files
        out = tmp_path / "rev"
        code = cli("geodesic", "--lambda0", f1, "--lambda1", f0,
                   "--steps", "400", "--out", str(out))
        assert code == 0
        sol = json.loads((out / "solution.json").read_text())
        assert sol["maslov"] == 2
        assert sol["reversed"] is True
        lines = (out / "trajectory.csv").read_text().splitlines()
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0

    def test_failed_solve_exit_3(self, tmp_path, capsys):
        # the solver gives up on this pair (see test_bvpsolve); the CLI must
        # report it as a solver failure with the smallest residual reached
        f0 = tmp_path / "l0.json"
        f1 = tmp_path / "l1.json"
        write_frame(f0, np.array([[np.exp(0.06j)]]))
        write_frame(f1, np.array([[np.exp(1.569j)]]))
        code = cli("geodesic", "--lambda0", str(f0), "--lambda1", str(f1),
                   "--steps", "1000", "--out", str(tmp_path / "run"))
        assert code == 3
        assert "smallest residual: " in capsys.readouterr().err

    def test_maslov_other_requires_flag(self, tmp_path):
        f0 = tmp_path / "l0.json"
        f1 = tmp_path / "l1.json"
        write_frame(f0, np.eye(2, dtype=complex))
        write_frame(f1, np.diag(np.exp(1j * np.array([0.9, 1.0]))))
        out = tmp_path / "m1"
        code = cli("geodesic", "--lambda0", str(f0), "--lambda1", str(f1),
                   "--steps", "400", "--out", str(out))
        assert code == 2

    def test_experimental_flag_attempts_solve(self, tmp_path):
        f0 = tmp_path / "l0.json"
        f1 = tmp_path / "l1.json"
        write_frame(f0, np.eye(2, dtype=complex))
        write_frame(f1, np.diag(np.exp(1j * np.array([0.9, 1.0]))))
        out = tmp_path / "exp"
        code = cli("geodesic", "--lambda0", str(f0), "--lambda1", str(f1),
                   "--steps", "400", "--experimental-maslov", "--out", str(out))
        assert code in (0, 3)  # no existence claim for index 1
        if code == 0:
            sol = json.loads((out / "solution.json").read_text())
            assert sol["experimental"] == "no existence guarantee"
            assert sol["residual"] < 1e-10


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

    def test_empty_level_grid(self, tmp_path, solved_dir):
        out = tmp_path / "web0"
        code = cli("webbing", "--solution", str(solved_dir / "solution.json"),
                   "--levels=", "--out", str(out))
        assert code == 0
        report = json.loads((out / "webbing_report.json").read_text())
        assert report["meshes"] == []

    def test_unwritable_output_dir(self, tmp_path, solved_dir):
        # a regular file where the directory should be: creation must fail
        blocked = tmp_path / "blocked"
        blocked.write_text("occupied")
        code = cli("webbing", "--solution", str(solved_dir / "solution.json"),
                   "--levels=-1", "--out", str(blocked))
        assert code == 2

    def test_threshold_failure_exit_4(self, tmp_path, solved_dir):
        out = tmp_path / "strict"
        code = cli("webbing", "--solution", str(solved_dir / "solution.json"),
                   "--levels=-1", "--min-euler", "3.0", "--out", str(out))
        assert code == 4


class TestVerify:
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
            assert abs(redone[key] - embedded[key]) < 1e-12
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


class TestDeterministicJson:
    def test_sorted_keys_and_17_digits(self, tmp_path):
        path = tmp_path / "x.json"
        write_json(path, {"b": 1.0 / 3.0, "a": [1, True, None, "s"]})
        text = path.read_text()
        assert text == '{"a":[1,true,null,"s"],"b":0.33333333333333331}\n'


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported only by the n >= 4 sphere sampler; a top-level import
    # anywhere in the package would add ~1 s to every CLI call
    src = os.path.dirname(os.path.dirname(os.path.abspath(lagweb.__file__)))
    code = ("import sys, lagweb.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.special') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
