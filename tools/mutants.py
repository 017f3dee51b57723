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
        "src/lagweb/geoflow.py",
        "sign = -1.0 if phases[-1] < phases[0] else 1.0",
        "sign = 1.0",
        ["tests/test_cli.py::TestVerify::test_reversed_solution_round_trip",
         "tests/test_webbing.py::TestVerifySlag::test_orientation_of_the_readme_pair"],
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
