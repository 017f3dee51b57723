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
CLOSED_ONE_ROW = "tests/test_webbing.py::TestClosedFormAgainstSweep::test_one_row_chunks"
NAN = "tests/test_webbing.py::TestClosedFormGuards::test_nan_reaches_the_report"
CSV_BYTES = "tests/test_webbing.py::TestMeshCsv::test_bytes_match_row_formatter"
CSV_BLOCKS = "tests/test_webbing.py::TestMeshCsv::test_blocks_of_slices_match_row_formatter"
HALO = "tests/test_webbing.py::TestHarmonicResidual::test_blocks_equal_one_block"
FLOOR = "tests/test_webbing.py::TestHarmonicResidual::test_blocks_keep_sixteen_rows"
INF_METRIC = ("tests/test_webbing.py::TestHarmonicResidual::"
              "test_infinite_metric_reaches_the_residual")
ROW_NUMBERS = "tests/test_webbing.py::TestMeshCsv::test_rows_numbered_across_blocks"
FLOW = "src/lagweb/geoflow.py"
KERNEL = "src/lagweb/numkernel.py"
JACOBI = "tests/test_numkernel.py::TestJacobiContract"
TEXT = "src/lagweb/csvtext.py"
FLOW_BITS = "tests/test_geoflow.py::TestScalarFlowBits::test_same_bits_as_numpy_rk4"
FLOW_AGREES = "tests/test_geoflow.py::TestScalarFlowBits::test_agrees_with_rk4_on_g_and_theta"
FLOW_GUARDS = "tests/test_geoflow.py::TestScalarFlow"
STEPPER_GUARDS = "tests/test_geoflow.py::TestStepperGuards"
PHASE_ALONG = "tests/test_geoflow.py::TestPhaseAlong"
FLOW_FACTORS = "tests/test_geoflow.py::TestFlowFactors"
BVP = "src/lagweb/bvpsolve.py"
MAP_BITS = "tests/test_bvpsolve.py::test_same_bits_as_the_per_evaluation_map"
CSV_TEXT = "tests/test_geoflow.py::TestCsvText"
CELLS = "tests/test_geoflow.py::TestCsvCells"
SLICES = "tests/test_webbing.py::TestSlicePoints"
CLI = "src/lagweb/cli.py"
GRASS = "src/lagweb/laggrass.py"
ROWS = "tests/test_webbing.py::TestMeshCsv::test_rows_must_be_the_writers"
HALTON = "tests/test_webbing.py::TestSphereGrid::test_halton_is_scipys_bit_for_bit"
GAUSSIANS = "tests/test_webbing.py::TestSphereGrid::test_quasirandom_nodes_are_halton_gaussians"
NAN_FRAME = "tests/test_webbing.py::TestVerifySlag::test_nan_frame_hides_no_degenerate_frame"
BUDGET = "tests/test_webbing.py::TestChunkBudget::test_chunks_hold_a_block_of_node_samples"
FRAME_TYPES = "tests/test_cli.py::TestNonFiniteAndHugeInput::test_frame_json_types"
SCREENED = "tests/test_webbing.py::TestScreenedChecks"
SKIP = "tests/test_webbing.py::TestSineSkip"
ORIGIN = "tests/test_webbing.py::TestClosedFormGuards::test_nan_node_hides_no_origin_node"
RECORDED = "tests/test_cli.py::TestRecordedGrid"
GUARDS = "tests/test_webbing.py::TestClosedFormGuards"
MESH = "tests/test_webbing.py::TestCylinderMesh"
BOUNDS = "tests/test_webbing.py::TestChunkBounds"
SOLUTION_FIELDS = "tests/test_cli.py::TestTrajectoryFromSolution::test_contradictory_field_exit_2"
COEFFICIENT_EDIT = ("tests/test_cli.py::TestTrajectoryFromSolution::"
                    "test_consistent_coefficient_edit_exit_2")
NAN_METRIC = "tests/test_webbing.py::TestHarmonicResidual::test_nan_row_hides_no_degenerate_row"
RING = "tests/test_webbing.py::TestCsvRing"
RING_BYTES = f"{RING}::test_same_bytes_at_one_and_two_cpus"
FILE_ORDER = f"{RING}::test_first_edit_in_file_order_is_named"

# name: (file, old text, new text, test ids that must fail)
MUTANTS = {
    "closed-form Omega without det U": (
        WEB,
        "e = (np.linalg.det(f.directions) * np.prod(f.w, axis=1))[:, np.newaxis] * d",
        "e = np.prod(f.w, axis=1)[:, np.newaxis] * d",
        [f"{CLOSED}[seeded-n3]", f"{CLOSED}[seeded-n5]"],
    ),
    "Re and Im halves of the stacked product swapped": (
        WEB,
        "re, im = np.split(np.concatenate([e.real[sl], e.imag[sl]]) @ c, 2)",
        "im, re = np.split(np.concatenate([e.real[sl], e.imag[sl]]) @ c, 2)",
        [f"{CLOSED}[readme-1.0]", f"{CLOSED}[seeded-n3]",
         f"{CLOSED_ONE_ROW}[every-chunk-one-row]"],
    ),
    "rank test on |Im Omega| alone": (
        WEB,
        "ratio = _rank_ratio(np.hypot(re, im), hadamard)",
        "ratio = _rank_ratio(np.abs(im), hadamard)",
        [f"{SCREENED}::test_nearly_real_omega[2-31]", f"{SCREENED}::test_nearly_real_omega[3-43]"],
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
        "r_time, b_time = rate.imag**2 / g, rate.real / g,",
        "r_time, b_time = rate.imag**2 / g, rate.imag / g,",
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
        "slice(start, start + rows)",
        "slice(start, start + rows - 1)",
        [f"{NAN}[edit0-2-15]", f"{NAN}[edit1-3-15]"],
    ),
    "time chunk starting one sample late": (
        WEB,
        "slice(start, start + rows)",
        "slice(start + 1, start + rows)",
        [f"{NAN}[edit0-2-16]", f"{NAN}[edit1-3-16]"],
    ),
    "level semi-axes not checked finite": (
        WEB,
        "    if not np.all(np.isfinite(semi_axes)):",
        "    if False:",
        ["tests/test_cli.py::TestNonFiniteAndHugeInput::test_levels[-1e308-overflow]"],
    ),
    "boundary defects folded with Python's max, which drops a NaN slice": (
        WEB,
        "defect = np.maximum(defect, np.max(np.abs((points @ plane.conj()).imag)))",
        "defect = max(defect, float(np.max(np.abs((points @ plane.conj()).imag))))",
        [f"{MESH}::test_nan_end_slice_left_its_plane[0]",
         f"{MESH}::test_nan_end_slice_left_its_plane[-1]"],
    ),
    "block's smallest EG - F^2 by det.min(), which a NaN row makes NaN": (
        WEB,
        "lowest = np.fmin.reduce(det, axis=None)",
        "lowest = det.min()",
        [f"{NAN_METRIC}[one-block]"],
    ),
    "smallest EG - F^2 folded with np.minimum, which a NaN block makes NaN": (
        WEB,
        "min_det = np.fmin(min_det, lowest)",
        "min_det = np.minimum(min_det, lowest)",
        [f"{NAN_METRIC}[nan-block]"],
    ),
    "boundary defect tested by >, which a NaN passes": (
        WEB,
        "if not defect <= BOUNDARY_TOL:",
        "if defect > BOUNDARY_TOL:",
        [f"{MESH}::test_nan_end_slice_left_its_plane[0]",
         f"{MESH}::test_nan_end_slice_left_its_plane[-1]"],
    ),
    "check chunk rows sized without the node count": (
        WEB,
        "rows = csvtext.block_rows(p_count)\n    return",
        "rows = csvtext.block_rows(1)\n    return",
        [f"{BUDGET}[128]", f"{BUDGET}[2048]", f"{BUDGET}[40000]"],
    ),
    "reversed-time rates keep their forward sign": (
        FLOW,
        "sign = -1.0 if (a * (self.theta[-1] - self.theta[0]) > 0.0).any() else 1.0",
        "sign = 1.0",
        ["tests/test_cli.py::TestVerify::test_reversed_solution_round_trip",
         "tests/test_webbing.py::TestVerifySlag::test_orientation_of_the_readme_pair",
         f"{PHASE_ALONG}::test_reversed_rate_is_the_forward_rate_negated[rising]",
         f"{PHASE_ALONG}::test_reversed_rate_is_the_forward_rate_negated[falling]"],
    ),
    "mesh CSV nodes formed one block late": (
        WEB,
        "_slice_points(mesh.factors, sl) if mesh.factored",
        "_slice_points(mesh.factors, slice(sl.start + step, sl.stop + step)) if mesh.factored",
        [f"{CSV_BYTES}[2-40-16]", f"{CSV_BYTES}[3-20-8]", f"{CSV_BLOCKS}[3-20-8-2]",
         f"{CSV_BLOCKS}[4-20-64-1]"],
    ),
    "harmonic blocks without their 16-row floor": (
        WEB,
        "rows = csvtext.block_rows(p_count, least=16)",
        "rows = csvtext.block_rows(p_count)",
        [f"{FLOOR}[8192]", f"{FLOOR}[40000]"],
    ),
    "harmonic halo one row short": (
        WEB,
        "lo, hi = max(start - 2, 0)",
        "lo, hi = max(start - 1, 0)",
        [f"{HALO}[random-u-factored-17]", f"{HALO}[random-u-factored-35]",
         f"{HALO}[random-u-oracle-35]"],
    ),
    "u = t harmonic angle flux added, not subtracted": (
        WEB,
        "div -= d_angle(flux_s)",
        "div += d_angle(flux_s)",
        [f"{SCREENED}::test_levels[2--0.7]", f"{SCREENED}::test_readme_pair[-1.0]"],
    ),
    "u = t harmonic fluxes without zero terms where G is +inf": (
        WEB,
        "if u_values is None and math.isfinite(det.max()):",
        "if u_values is None:",
        [f"{INF_METRIC}[1]", f"{INF_METRIC}[17]", f"{INF_METRIC}[59]"],
    ),
    "relflux spread test passes a NaN": (
        WEB,
        "if not spread <= FLUX_SPREAD_TOL:",
        "if spread > FLUX_SPREAD_TOL:",
        ["tests/test_webbing.py::TestRelflux::test_nan_history_rejected[g]",
         "tests/test_webbing.py::TestRelflux::test_nan_history_rejected[theta]"],
    ),
    "harmonic blocks combined with Python's max, which drops a later NaN": (
        WEB,
        "worst = np.maximum(worst, np.max(np.abs(residual)))",
        "worst = max(worst, float(np.max(np.abs(residual))))",
        [f"{NAN}[edit0-2-last-block]", f"{NAN}[edit1-2-last-block]"],
    ),
    "CSV error rows leave out the earlier blocks": (
        TEXT,
        "row = _newlines(fh, rows_at, offset) + ",
        "row = ",
        [f"{ROW_NUMBERS}[missing-row]", f"{ROW_NUMBERS}[blank-line]",
         f"{ROW_NUMBERS}[swapped-rows]"],
    ),
    "Jacobi rotates the rows of a but not its columns": (
        KERNEL,
        """                for row in rows:
                    x, y = row[p], row[q]
                    row[p] = c * x - s * y
                    row[q] = s * x + c * y
""",
        "",
        [f"{JACOBI}::test_repeated_and_clustered_eigenvalues[3]",
         f"{JACOBI}::test_repeated_and_clustered_eigenvalues[12]",
         "tests/test_numkernel.py::TestJacobi::test_diagonalizes_random_symmetric"],
    ),
    "Jacobi accumulates V with the transposed rotation": (
        KERNEL,
        "vp[j] = c * x - s * y\n                    vq[j] = s * x + c * y",
        "vp[j] = c * x + s * y\n                    vq[j] = c * y - s * x",
        [f"{JACOBI}::test_repeated_and_clustered_eigenvalues[2]",
         f"{JACOBI}::test_repeated_and_clustered_eigenvalues[8]",
         "tests/test_numkernel.py::TestJacobi::test_diagonalizes_random_symmetric"],
    ),
    "RK4 stepper weighs k2 and k3 apart, 2 k2 + 2 k3": (
        FLOW,
        "S = S + sixth * (k1s + 2.0 * (k2s + k3s) + k4s)",
        "S = S + sixth * (k1s + 2.0 * k2s + 2.0 * k3s + k4s)",
        [f"{FLOW_BITS}[seeded-1-7]", f"{FLOW_BITS}[seeded-6-1000]", f"{FLOW_BITS}[hard-0-1.555-7]",
         f"{FLOW_BITS}[hard-1-1.565-1000]"],
    ),
    "RK4 stage 4 takes S + half k3": (
        FLOW,
        "S4, P4 = S + h * k3s,",
        "S4, P4 = S + half * k3s,",
        [f"{FLOW_BITS}[seeded-2-1]", f"{FLOW_BITS}[seeded-3-1000]", f"{FLOW_AGREES}[seeded-5]"],
    ),
    "metric guard takes the other extreme of m": (
        FLOW,
        "return -_first_collapse(-max(m)), _first_collapse(min(m))",
        "return -_first_collapse(-min(m)), _first_collapse(max(m))",
        [f"{FLOW_GUARDS}::test_metric_guard_many_directions[8]",
         f"{FLOW_GUARDS}::test_metric_guard_many_directions[11]"],
    ),
    "metric guard bounds one float nearer 0": (
        FLOW,
        "    return s\n",
        "    return math.nextafter(s, 0.0)\n",
        [f"{STEPPER_GUARDS}::test_metric_bounds_are_the_guards[mixed]",
         f"{STEPPER_GUARDS}::test_metric_bounds_are_the_guards[subnormal]",
         f"{STEPPER_GUARDS}::test_metric_guard_at_its_bound_and_next_to_it[0.3-1]",
         f"{STEPPER_GUARDS}::test_metric_guard_at_its_bound_and_next_to_it[-0.3-3]"],
    ),
    "metric guard bounds one float farther from 0": (
        FLOW,
        "    return s\n",
        "    return math.nextafter(s, math.inf)\n",
        [f"{STEPPER_GUARDS}::test_metric_bounds_are_the_guards[mixed]",
         f"{STEPPER_GUARDS}::test_metric_bounds_are_the_guards[one-overflowing]",
         f"{STEPPER_GUARDS}::test_metric_guard_at_its_bound_and_next_to_it[-0.3-1]",
         f"{STEPPER_GUARDS}::test_metric_guard_at_its_bound_and_next_to_it[0.3-3]"],
    ),
    "phase guard tests only the upper edge": (
        FLOW,
        'f"if {p} >= edge or {p} <= neg_edge:"',
        'f"if {p} >= edge:"',
        [f"{STEPPER_GUARDS}::test_phase_guard_at_the_edges[minus-edge]"],
    ),
    "RK4 stepper stores S3 at S2's index": (
        FLOW,
        '"stages[j + 2] = S3",',
        '"stages[j + 1] = S3",',
        [f"{FLOW_BITS}[seeded-2-1]", f"{FLOW_BITS}[seeded-4-1000]",
         f"{FLOW_AGREES}[hard-1-1.565]"],
    ),
    "exact map's right-hand side without the window's end point": (
        BVP,
        "psi = np.append(nodes, phase0 + weights.sum())",
        "psi = np.append(nodes, nodes[-1])",
        [f"{MAP_BITS}[seeded-2]", f"{MAP_BITS}[hard-2]", f"{MAP_BITS}[n1-near-half-pi]"],
    ),
    "symmetry defect tested by >, which a NaN passes": (
        KERNEL,
        "if not sym_defect <= SYM_UNITARY_TOL:",
        "if sym_defect > SYM_UNITARY_TOL:",
        ["tests/test_numkernel.py::TestJointDiagonalization::test_rejects_nan_entries[off-diagonal]",
         "tests/test_numkernel.py::TestJointDiagonalization::test_rejects_nan_entries[diagonal]"],
    ),
    "angle pass weighs k2 and k3 apart, 2 k2 + 2 k3": (
        FLOW,
        "2.0 * (k[:, 1] + k[:, 2])",
        "2.0 * k[:, 1] + 2.0 * k[:, 2]",
        [f"{FLOW_BITS}[seeded-2-1]", f"{FLOW_BITS}[seeded-6-7]",
         f"{FLOW_BITS}[hard-0-1.555-1000]"],
    ),
    "angle sums without the +0.0 that turns -0.0 into 0.0": (
        FLOW,
        "    theta[1:] += 0.0",
        "    pass",
        [f"{STEPPER_GUARDS}::test_guards_in_the_flow[0.3-zero]",
         f"{STEPPER_GUARDS}::test_guards_in_the_flow[-1.2-least-subnormal]",
         "tests/test_cli.py::TestGeodesic::test_frozen_direction_angles_print_as_zero"],
    ),
    "flow rates negated wherever the phase falls": (
        FLOW,
        "sign = -1.0 if (a * (self.theta[-1] - self.theta[0]) > 0.0).any() else 1.0",
        "sign = -1.0 if self.phases[-1] < self.phases[0] else 1.0",
        [f"{PHASE_ALONG}::test_forward_rate_is_the_flow_equation[falling]",
         f"{FLOW_FACTORS}::test_rates_match_differenced_factors_either_way[forward-falling]"],
    ),
    "angle pass without its non-finite check": (
        FLOW,
        "    if not np.isfinite(theta[-1]).all():",
        "    if False:",
        [f"{FLOW_GUARDS}::test_angles_overflow_while_phi_stays_finite"],
    ),
    "CSV digits without the lo term of the exact product": (
        TEXT,
        "    d += np.rint(lo, out=lo).astype(np.int64)\n",
        "",
        [f"{CSV_TEXT}::test_exact_ties_round_to_even", f"{CSV_TEXT}::test_random_bit_patterns"],
    ),
    "CSV digits without the +-1 exponent correction": (
        TEXT,
        "    if off.size:",
        "    if False:",
        [f"{CSV_TEXT}::test_powers_of_ten_and_neighbours", f"{CSV_TEXT}::test_fast_path_edges"],
    ),
    "CSV newline only after the last row of a table": (
        TEXT,
        'cells["sep"][:, -1] = ord("\\n")',
        'cells["sep"][-1, -1] = ord("\\n")',
        [f"{CSV_TEXT}::test_rows_across_blocks_of_a_few_values",
         f"{CSV_TEXT}::test_random_bit_patterns"],
    ),
    "CSV row's last value keeps its comma": (
        TEXT,
        'cells["sep"][:, -1] = ord("\\n")',
        'cells["sep"][:, -1] = ord(",")',
        [f"{CSV_TEXT}::test_prefix_goes_before_each_row",
         f"{CELLS}::test_integer_parts_keep_their_zeros_and_whole_values_drop_the_point"],
    ),
    "CSV integer-part zeros stripped": (
        TEXT,
        "    moved |= _ZEROS\n",
        "",
        [f"{CELLS}::test_integer_parts_keep_their_zeros_and_whole_values_drop_the_point",
         f"{CELLS}::test_every_plain_exponent_with_0_to_16_trailing_zeros[1.0]"],
    ),
    "CSV point kept after a whole number": (
        TEXT,
        "moved |= dot_low * fraction",
        "moved |= dot_low",
        [f"{CELLS}::test_integer_parts_keep_their_zeros_and_whole_values_drop_the_point",
         f"{CELLS}::test_every_plain_exponent_with_0_to_16_trailing_zeros[-1.0]"],
    ),
    "CSV words before a blank last word keep their zeros": (
        TEXT,
        "    if blank.size:",
        "    if False:",
        [f"{CSV_TEXT}::test_powers_of_ten_and_neighbours",
         f"{CELLS}::test_every_plain_exponent_with_0_to_16_trailing_zeros[1.0]"],
    ),
    "CSV -0 printed as 0": (
        TEXT,
        "head[np.signbit(values[zero]) * 10]",
        "head[(values[zero] < 0.0) * 10]",
        [f"{CSV_TEXT}::test_zeros_and_subnormals", f"{CSV_TEXT}::test_prefix_goes_before_each_row",
         f"{CELLS}::test_signed_zeros_and_the_longest_text_in_every_column[True]"],
    ),
    "mesh nodes contracted with U before kappa": (
        WEB,
        'np.einsum("tpj,ij->tpi", f.kappa * f.w[index, np.newaxis, :], f.directions)',
        'np.einsum("pj,tij->tpi", f.kappa, f.w[index, np.newaxis, :] * f.directions)',
        [f"{SLICES}::test_meshes[seeded-n3]",
         f"{SLICES}::test_factors_with_zeros_infinities_and_nans",
         "tests/test_webbing.py::TestClosedFormAgainstSweep"
         "::test_formed_arrays_are_the_eager_einsums[seeded-n4]"],
    ),
    "frame JSON n converted by int(), which takes 1.9, \"1\" and true": (
        GRASS,
        'n, cols = data["n"], data["columns"]',
        'n, cols = int(data["n"]), data["columns"]',
        [f"{FRAME_TYPES}[n-float]", f"{FRAME_TYPES}[n-string]", f"{FRAME_TYPES}[n-bool]"],
    ),
    "frame JSON re and im tested by isinstance, so a bool passes": (
        GRASS,
        "if any(type(x) not in (int, float) for col in parts for part in col for x in part):",
        "if any(not isinstance(x, (int, float)) for col in parts for part in col for x in part):",
        [f"{FRAME_TYPES}[re-bool]", f"{FRAME_TYPES}[im-bool]"],
    ),
    "exact JSON number tested by isinstance, so a bool passes": (
        CLI,
        "return type(value) in (int, float) and math.isfinite(value)",
        "return isinstance(value, (int, float)) and math.isfinite(value)",
        ["tests/test_cli.py::TestRecordedGrid::test_malformed_field[level-true]",
         "tests/test_cli.py::TestTrajectoryFromSolution::test_malformed_field_exit_2"
         "['tolerance-True]"],
    ),
    "CSV check without the end-of-file test": (
        TEXT,
        "if os.pread(fh.fileno(), 1, end):",
        "if False:",
        [f"{ROWS}[extra-row]", f"{ROW_NUMBERS}[extra-row]"],
    ),
    "Halton with one permutation digit fewer": (
        WEB,
        "math.ceil(54 / math.log2(base)) - 1",
        "math.ceil(54 / math.log2(base)) - 2",
        [f"{HALTON}[1]", f"{HALTON}[2]", f"{HALTON}[7]"],
    ),
    "n >= 4 sphere takes the quantile of 1 - y": (
        WEB,
        "map(NormalDist().inv_cdf, uniform.ravel().tolist())",
        "map(NormalDist().inv_cdf, (1.0 - uniform).ravel().tolist())",
        [GAUSSIANS],
    ),
    "rank ratio folded across chunks with np.minimum, so a NaN frame hides a degenerate one": (
        WEB,
        "min_rank_ratio = np.fmin(min_rank_ratio, rank_ratio)",
        "min_rank_ratio = np.minimum(min_rank_ratio, rank_ratio)",
        ["tests/test_webbing.py::TestVerifySlag::test_nan_chunk_hides_no_degenerate_frame"],
    ),
    "rank ratio folded within a chunk with np.min, so a NaN frame hides a degenerate one": (
        WEB,
        "return np.fmin.reduce(ratio, axis=None)",
        "return np.min(ratio)",
        [f"{NAN_FRAME}[16]"],
    ),
    "sine screen keeps only its argmin": (
        WEB,
        "near = np.flatnonzero(square <= least * (1.0 + 1e-11))",
        "near = np.array([np.argmin(square)])",
        [f"{SCREENED}::test_tied_minima[64--1.0]", f"{SCREENED}::test_tied_minima[128--1e-09]",
         f"{SCREENED}::test_levels[2--1000000.0]"],
    ),
    "sine screen without its range guard": (
        WEB,
        "if factors_in_range[i] and least >= 2.0**-500:",
        "if True:",
        [f"{SCREENED}::test_full_paths"],
    ),
    "sine screen without its smallest-square guard": (
        WEB,
        "if factors_in_range[i] and least >= 2.0**-500:",
        "if factors_in_range[i]:",
        [f"{SCREENED}::test_smallest_square_below_the_range"],
    ),
    "sine screen range taken as settled without its factor bounds": (
        WEB,
        "if factors_in_range[i] and least",
        "if True and least",
        [f"{SCREENED}::test_full_paths"],
    ),
    "sine skip without the origin certificate": (
        WEB,
        "and bounds[k] > smallest and certified[k]:",
        "and bounds[k] > smallest:",
        [f"{SKIP}::test_origin_in_a_group_the_bound_would_skip[2]",
         f"{SKIP}::test_origin_in_a_group_the_bound_would_skip[3]"],
    ),
    "sine bound without its relative slack": (
        WEB,
        "low, top = 1.0 - BOUND_SLACK, 1.0 + BOUND_SLACK",
        "low, top = 1.0, 1.0",
        [f"{SKIP}::test_bound_below_every_square[2-1]", f"{SKIP}::test_bound_below_every_square[3-1]"],
    ),
    "sine bound's |R| without its absolute rounding term": (
        WEB,
        "        r += BOUND_SLACK * (np.maximum(r_top, -r_low) @ np.abs(c))\n",
        "",
        [f"{SKIP}::test_bound_below_every_square[3-1]", f"{SKIP}::test_bound_below_every_square[6-1]"],
    ),
    "sine skip on a bound equal to the smallest square": (
        WEB,
        "bounds[k] > smallest",
        "bounds[k] >= smallest",
        [f"{SKIP}::test_skip_needs_a_bound_above_the_smallest_square"],
    ),
    "smallest square taken from a chunk outside the screen's range": (
        WEB,
        "            if factors_in_range[i] and least >= 2.0**-500:\n"
        "                smallest = min(smallest, least)\n",
        "            smallest = min(smallest, least)\n"
        "            if factors_in_range[i] and least >= 2.0**-500:\n",
        [f"{SKIP}::test_first_visited_chunk_below_the_range"],
    ),
    "closed form's node guard by e.min(), which a NaN node makes NaN": (
        WEB,
        "if np.sqrt(np.fmin.reduce(e, axis=None)) < 1e-12:",
        "if np.sqrt(e.min()) < 1e-12:",
        [f"{ORIGIN}[False]"],
    ),
    "node sweep's guard by norms.min(), which a NaN node makes NaN": (
        WEB,
        "if np.fmin.reduce(norms, axis=None) < 1e-12:",
        "if norms.min() < 1e-12:",
        [f"{ORIGIN}[True]"],
    ),
    "rank screen without its margin": (
        WEB,
        "RANK_SCREEN = RANK_TOL**2 * (1.0 + 1e-9)",
        "RANK_SCREEN = RANK_TOL**2",
        [f"{SCREENED}::test_rank_screen_margin"],
    ),
    "factor bound's top from the time factor's column minima": (
        WEB,
        "top = np.maximum.reduceat(time_factor, starts, axis=0)",
        "top = np.minimum.reduceat(time_factor, starts, axis=0)",
        [f"{GUARDS}::test_degenerate_frame[False]", f"{BOUNDS}::test_chunks_bounded_apart",
         f"{BOUNDS}::test_every_summation_order_within_bounds[3]"],
    ),
    "factor bound's low from the time factor's row maxima": (
        WEB,
        "row_min = functools.reduce(np.minimum, time_factor.T)",
        "row_min = functools.reduce(np.maximum, time_factor.T)",
        [f"{BOUNDS}::test_same_bits_as_short_axis_folds[2]", f"{BOUNDS}::test_chunks_bounded_apart",
         f"{BOUNDS}::test_same_bits_with_nan_inf_and_signed_zeros[3]"],
    ),
    "factor bounds without their rounding slack": (
        WEB,
        "return low * (1.0 - BOUND_SLACK), top * (1.0 + BOUND_SLACK)",
        "return low, top",
        [f"{BOUNDS}::test_every_summation_order_within_bounds[6]",
         f"{BOUNDS}::test_every_summation_order_within_bounds[9]"],
    ),
    "rank settled without the one-sign test on Im Omega": (
        WEB,
        "least = im_min if im_min > 0.0 else -im_max if im_max < 0.0 else 0.0",
        "least = min(abs(im_min), abs(im_max))",
        [f"{SCREENED}::test_factors_leave_a_chunk_open[2-sign-change]",
         f"{SCREENED}::test_factors_leave_a_chunk_open[3-sign-change]"],
    ),
    "rank settled without its factor range guard": (
        WEB,
        "if not (lo <= time_low and lo <= sphere_low and time_top <= hi and sphere_top <= hi):",
        "if False:",
        [f"{SCREENED}::test_full_paths"],
    ),
    "harmonic angle difference of column 0 from the wrong neighbour": (
        WEB,
        "np.subtract(z[:, 1], z[:, -1], out=diff[:, 0])",
        "np.subtract(z[:, 1], z[:, -2], out=diff[:, 0])",
        [f"{SCREENED}::test_levels[2--0.7]", f"{SCREENED}::test_budgets[2-None]"],
    ),
    "CSV write error raised without its file": (
        TEXT,
        "exc.filename = os.fspath(path)",
        "pass",
        ["tests/test_cli.py::TestWebbing::test_file_size_limit_names_the_file"],
    ),
    "CSV write leaves its partial file": (
        TEXT,
        "os.unlink(path)",
        "pass",
        ["tests/test_cli.py::TestWebbing::test_file_size_limit_names_the_file"],
    ),
    "CSV helper compares nothing": (
        TEXT,
        "else visit(text, token)",
        "else token + len(text)",
        [f"{FILE_ORDER}[odd-2]", f"{FILE_ORDER}[odd-then-even-2]"],
    ),
    "CSV helper writes at its block index times its length, not the offset it is passed": (
        TEXT,
        "else visit(text, token)",
        "else visit(text, (2 * blocks.index(block) + 1) * len(text))",
        [f"{RING_BYTES}[2-40-16-1]", f"{RING_BYTES}[4-20-64-3]"],
    ),
    "CSV ring's worker count ignores the CPU affinity": (
        TEXT,
        "min(2, len(cpus), len(blocks))",
        "min(2, len(blocks))",
        [f"{RING_BYTES}[2-40-16-1]", f"{RING_BYTES}[3-20-8-2]"],
    ),
    "CSV stage leaves its helper unkilled on a failure": (
        TEXT,
        "os.kill(helper, signal.SIGKILL)",
        "pass",
        [f"{RING}::test_stage_kills_its_helper_on_failure"],
    ),
    "CSV stage keeps to half its CPUs after the ring": (
        TEXT,
        "os.waitpid(helper, 0)\n            _pin(cpus)",
        "os.waitpid(helper, 0)",
        [f"{RING}::test_stage_gets_its_cpus_back"],
    ),
    "mesh CSV nodes by an einsum that may call BLAS": (
        WEB,
        'np.einsum("tpj,ij->tpi", f.kappa * f.w[index, np.newaxis, :], f.directions)',
        'np.einsum("tpj,ij->tpi", f.kappa * f.w[index, np.newaxis, :], f.directions, optimize=True)',
        [f"{RING}::test_blocks_call_no_blas"],
    ),
    "webbing accepts an empty level list": (
        CLI,
        "        if not args.levels:",
        "        if False:",
        ["tests/test_cli.py::TestWebbing::test_empty_level_grid"],
    ),
    "solution tolerance not held positive": (
        CLI,
        "_finite_number(tolerance)\n                and tolerance > 0",
        "_finite_number(tolerance)",
        [f"{SOLUTION_FIELDS}[tolerance]"],
    ),
    "solution beta taken from the record, not from the frames": (
        CLI,
        "beta = spectrum.beta",
        'beta = np.array(solution["beta"], dtype=float)',
        [f"{SOLUTION_FIELDS}[beta]", f"{SOLUTION_FIELDS}[phase1]",
         f"{COEFFICIENT_EDIT}[1.01-beta-rewritten]", f"{COEFFICIENT_EDIT}[2.0-beta-rewritten]"],
    ),
    "solution frames read without the role swap": (
        CLI,
        "_solved_pair(*frames)",
        "(*frames, laggrass.pair_decomposition(*frames), False)",
        ["tests/test_cli.py::TestVerify::test_reversed_solution_round_trip",
         "tests/test_cli.py::TestTrajectoryFromSolution::"
         "test_swapped_frames_are_the_reversed_problem"],
    ),
    "JSON emitter writes -0.0 as -0, which json reads as the int 0": (
        CLI,
        'return "-0.0" if text == "-0" else text',
        "return text",
        ["tests/test_cli.py::TestDeterministicJson::test_negative_zero_read_back",
         "tests/test_cli.py::TestTrajectoryFromSolution::test_negative_zero_frame_entries"],
    ),
    "solution residual not compared with the rebuild": (
        CLI,
        "_finite_number(residual) and residual == rebuilt",
        "_finite_number(residual)",
        [f"{SOLUTION_FIELDS}[residual]"],
    ),
    "solution residual not held below tolerance": (
        CLI,
        "if not residual < tolerance:",
        "if False:",
        [f"{SOLUTION_FIELDS}[tolerance-below-residual]"],
    ),
    "solution newton_residuals not held below tolerance": (
        CLI,
        "and newton[-1] < tolerance",
        "",
        [f"{SOLUTION_FIELDS}[newton-above-tolerance]"],
    ),
    "solution grid_residuals not held to end in residual": (
        CLI,
        "(not grid or grid[-1] == residual)",
        "True",
        [f"{SOLUTION_FIELDS}[grid-last-entry]"],
    ),
    "solution jacobian_condition not held >= 1": (
        CLI,
        "_finite_number(condition) and condition >= 1",
        "_finite_number(condition)",
        [f"{SOLUTION_FIELDS}[jacobian-condition]", f"{SOLUTION_FIELDS}[jacobian-below-1]"],
    ),
    "verify skips the comparison with the webbing report": (
        CLI,
        "    _check_recorded_values(entry, report, name)\n",
        "",
        [f"{RECORDED}::test_contradicting_report[max_omega-and-min_im_omega]",
         f"{RECORDED}::test_value_one_ulp_off[min_euler_angle]",
         f"{RECORDED}::test_bool_is_not_an_orientation"],
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
