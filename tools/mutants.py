#!/usr/bin/env python3
"""Plant each listed mutant in a copy of the checkout and require its tests to fail.

    python3 tools/mutants.py [name ...]

Each entry names a file under the checkout, text that must occur in it
exactly once, the text that replaces it, and the pytest ids that must fail
on the mutant.  Per mutant, the checkout's src/, tests/ and pyproject.toml
are copied into a temporary directory, the copy is edited, and only the
entry's tests run there (``python -m pytest``, with that copy's src/ on the
path).  One line is printed per mutant.  The exit code is 1 if a mutant's
text is not found exactly once, or if any of its tests passes, is skipped
or is not collected; it is 0 when every listed test fails on every mutant.
The checkout itself is never written.  A check added to the program adds
its mutant here.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
WEB = "src/lagweb/webbing.py"
CLOSED = "tests/test_webbing.py::TestClosedFormAgainstSweep::test_checks_agree"
NAN = "tests/test_webbing.py::TestClosedFormGuards::test_nan_reaches_the_report"
CSV_BYTES = "tests/test_webbing.py::TestMeshCsv::test_bytes_match_row_formatter"
CSV_BLOCKS = "tests/test_webbing.py::TestMeshCsv::test_blocks_of_slices_match_row_formatter"
HALO = "tests/test_webbing.py::TestHarmonicResidual::test_blocks_equal_one_block"
ROW_NUMBERS = "tests/test_webbing.py::TestMeshCsv::test_rows_numbered_across_blocks"
FLOW = "src/lagweb/geoflow.py"
FLOW_BITS = "tests/test_geoflow.py::TestScalarFlowBits::test_same_bits_as_numpy_rk4"
CSV_TEXT = "tests/test_geoflow.py::TestCsvText"
CLI = "src/lagweb/cli.py"
ROWS = "tests/test_webbing.py::TestMeshCsv::test_rows_must_be_the_writers"
HALTON = "tests/test_webbing.py::TestSphereGrid::test_halton_is_scipys_bit_for_bit"
CEPHES = "src/lagweb/cephes.py"
NDTRI = "tests/test_webbing.py::TestSphereGrid::test_ndtri_is_scipys_bit_for_bit"
NAN_FRAME = "tests/test_webbing.py::TestVerifySlag::test_nan_frame_hides_no_degenerate_frame"

# name: (file, old text, new text, test ids that must fail)
MUTANTS = {
    "closed-form Omega without det U": (
        WEB,
        "det = (det_u * np.prod(w, axis=1))",
        "det = (np.prod(w, axis=1))",
        [f"{CLOSED}[seeded-n3]", f"{CLOSED}[seeded-n5]"],
    ),
    "c_j of the wrong sign": (
        WEB,
        "c = (f.kappa * _normal(f)).T",
        "c = (-f.kappa * _normal(f)).T",
        [f"{CLOSED}[readme-1.0]", f"{CLOSED}[seeded-n4]",
         "tests/test_webbing.py::TestClosedFormAgainstSweep"
         "::test_reversed_mesh_has_the_opposite_orientation"],
    ),
    "Re and Im swapped in R": (
        WEB,
        "np.hypot((rate.real / g) @ c,",
        "np.hypot((rate.imag / g) @ c,",
        [f"{CLOSED}[readme-0.25]", f"{CLOSED}[seeded-n3]", f"{CLOSED}[seeded-n6]"],
    ),
    "cofactors with the row-2 minors of the wrong sign": (
        WEB,
        "(-1) ** (row + k)",
        "(-1) ** (row + k + (row == 2))",
        [f"{CLOSED}[seeded-n4]", f"{CLOSED}[seeded-n5]", f"{CLOSED}[seeded-n6]",
         "tests/test_webbing.py::TestAgainstPerFrameReference::test_random_frames[4-0]"],
    ),
    "sweep's QR pivot test never fires": (
        WEB,
        "if np.any(pivots <= 1e-12 * np.linalg.norm(frames, axis=-2)):",
        "if False:",
        ["tests/test_webbing.py::TestEulerTransversality::test_rank_deficient_frame_rejected"],
    ),
    "sweep's QR pivot test only for an exactly zero pivot": (
        WEB,
        "pivots <= 1e-12 * np.linalg.norm(frames, axis=-2)",
        "pivots <= 0.0 * np.linalg.norm(frames, axis=-2)",
        ["tests/test_webbing.py::TestEulerTransversality::test_rank_deficient_frame_rejected"],
    ),
    "time chunk one sample short": (
        WEB,
        "slice(start, start + TIME_CHUNK)",
        "slice(start, start + TIME_CHUNK - 1)",
        [f"{NAN}[edit0-2-15]", f"{NAN}[edit1-3-15]"],
    ),
    "time chunk starting one sample late": (
        WEB,
        "slice(start, start + TIME_CHUNK)",
        "slice(start + 1, start + TIME_CHUNK)",
        [f"{NAN}[edit0-2-16]", f"{NAN}[edit1-3-16]"],
    ),
    "reversed-time rates keep their forward sign": (
        FLOW,
        "sign = -1.0 if phases[-1] < phases[0] else 1.0",
        "sign = 1.0",
        ["tests/test_cli.py::TestVerify::test_reversed_solution_round_trip",
         "tests/test_webbing.py::TestVerifySlag::test_orientation_of_the_readme_pair"],
    ),
    "mesh CSV nodes formed one block late": (
        WEB,
        "_slice_points(mesh.factors, sl) if mesh.factored",
        "_slice_points(mesh.factors, slice(start + step, start + 2 * step)) if mesh.factored",
        [f"{CSV_BYTES}[2-40-16]", f"{CSV_BYTES}[3-20-8]", f"{CSV_BLOCKS}[3-20-8-2]",
         f"{CSV_BLOCKS}[4-20-64-1]"],
    ),
    "harmonic halo one row short": (
        WEB,
        "lo, hi = max(start - 2, 0)",
        "lo, hi = max(start - 1, 0)",
        [f"{HALO}[random-u-factored-17]", f"{HALO}[random-u-factored-35]",
         f"{HALO}[random-u-oracle-35]"],
    ),
    "harmonic blocks combined with Python's max, which drops a later NaN": (
        WEB,
        "worst = np.maximum(worst, np.max(np.abs(residual)))",
        "worst = max(worst, float(np.max(np.abs(residual))))",
        [f"{NAN}[edit0-2-last-block]", f"{NAN}[edit1-2-last-block]"],
    ),
    "CSV error rows leave out the earlier blocks": (
        FLOW,
        "row = _newlines(fh, len(line), done) + ",
        "row = ",
        [f"{ROW_NUMBERS}[missing-row]", f"{ROW_NUMBERS}[blank-line]",
         f"{ROW_NUMBERS}[swapped-rows]"],
    ),
    "RK4 stepper weighs k2 and k3 apart, 2 k2 + 2 k3": (
        FLOW,
        "2.0 * (k2{r}{j} + k3{r}{j})",
        "2.0 * k2{r}{j} + 2.0 * k3{r}{j}",
        [f"{FLOW_BITS}[seeded-1-1000]", f"{FLOW_BITS}[seeded-4-1]", f"{FLOW_BITS}[seeded-9-7]",
         f"{FLOW_BITS}[hard-1-1.565-1000]"],
    ),
    "RK4 stepper sums the phase of n >= 8 left to right": (
        FLOW,
        "if n < 8 else",
        "if True else",
        [f"{FLOW_BITS}[seeded-8-7]", f"{FLOW_BITS}[seeded-8-1000]", f"{FLOW_BITS}[seeded-9-1000]"],
    ),
    "CSV digits without the lo term of the exact product": (
        FLOW,
        "return hi.astype(np.int64) + np.rint(lo).astype(np.int64)",
        "return hi.astype(np.int64)",
        [f"{CSV_TEXT}::test_exact_ties_round_to_even", f"{CSV_TEXT}::test_random_bit_patterns"],
    ),
    "CSV digits without the +-1 exponent correction": (
        FLOW,
        "    if off.size:",
        "    if False:",
        [f"{CSV_TEXT}::test_powers_of_ten_and_neighbours", f"{CSV_TEXT}::test_fast_path_edges"],
    ),
    "recorded level type tested by isinstance, so a bool passes": (
        CLI,
        "type(level) in (int, float)",
        "isinstance(level, (int, float))",
        ["tests/test_cli.py::TestRecordedGrid::test_malformed_field[level-true]"],
    ),
    "CSV check without the end-of-file test": (
        FLOW,
        "if fh.read(1):",
        "if False:",
        [f"{ROWS}[extra-row]", f"{ROW_NUMBERS}[extra-row]"],
    ),
    "Halton with one permutation digit fewer": (
        WEB,
        "math.ceil(54 / math.log2(base)) - 1",
        "math.ceil(54 / math.log2(base)) - 2",
        [f"{HALTON}[1]", f"{HALTON}[2]", f"{HALTON}[7]"],
    ),
    "ndtri coefficient one digit off in the 15th place": (
        CEPHES,
        "4.40805073893200834700e1",
        "4.40805073893200934700e1",
        [NDTRI],
    ),
    "ndtri central branch edge two bits above e^-2": (
        CEPHES,
        "EXP_M2 = 0.13533528323661269189",
        "EXP_M2 = 0.13533528323661276",
        [NDTRI],
    ),
    "rank ratio folded with np.minimum, so a NaN frame hides a degenerate one": (
        WEB,
        "np.fmin(min_rank_ratio, np.fmin.reduce(ratio, axis=None))",
        "np.minimum(min_rank_ratio, np.min(ratio))",
        [f"{NAN_FRAME}[1]", f"{NAN_FRAME}[16]"],
    ),
}


def junit_key(test_id: str):
    """(classname, name) of a pytest id in pytest's JUnit XML report."""
    path, *names = test_id.split("::")
    return ".".join([path.removesuffix(".py").replace("/", "."), *names[:-1]]), names[-1]


def run_mutant(path: str, old: str, new: str, tests, tmp: Path) -> list:
    """Problems with one mutant; empty when every listed test fails on it."""
    source = (REPO / path).read_text(encoding="utf-8")
    if source.count(old) != 1:
        return [f"its text occurs {source.count(old)} times in {path}, not once"]
    work = tmp / "copy"
    for part in ("src", "tests"):
        shutil.copytree(REPO / part, work / part,
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    shutil.copy(REPO / "pyproject.toml", work / "pyproject.toml")
    (work / path).write_text(source.replace(old, new), encoding="utf-8")
    report = tmp / "junit.xml"
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                    f"--junitxml={report}", *tests], cwd=work, env=env, capture_output=True)
    outcomes = {}
    if report.exists():
        for case in ET.parse(report).iter("testcase"):
            states = {child.tag for child in case}
            outcomes[case.get("classname"), case.get("name")] = (
                "failed" if states & {"failure", "error"} else
                "skipped" if "skipped" in states else "passed")
    problems = []
    for test in tests:
        state = outcomes.get(junit_key(test), "not collected")
        if state != "failed":
            problems.append(f"{test} {state}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - set(MUTANTS)
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    survivors = 0
    start = time.perf_counter()
    for name in args.names or MUTANTS:
        with tempfile.TemporaryDirectory(prefix="mutant_") as tmp:
            problems = run_mutant(*MUTANTS[name], Path(tmp))
        survivors += bool(problems)
        print(f"{'SURVIVED' if problems else 'killed'}: {name}"
              + "".join(f"\n    {p}" for p in problems))
    print(f"{survivors} of {len(args.names or MUTANTS)} mutants survived "
          f"({time.perf_counter() - start:.0f} s)", file=sys.stderr)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
