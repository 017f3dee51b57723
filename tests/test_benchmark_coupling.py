"""The benchmark's traced run wraps program functions and reads result fields
by name; a rename here would crash that run without failing any other test."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from lagweb.bvpsolve import BvpSolution
from lagweb.webbing import CylinderMesh

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, module, attr", _load_tracing().TRACED)
def test_traced_function_resolves(name, module, attr):
    assert callable(getattr(importlib.import_module(f"lagweb.{module}"), attr)), name


@pytest.mark.parametrize("cls, field", [
    (BvpSolution, "continuation_steps"),
    (CylinderMesh, "points"),
    (CylinderMesh, "sphere_tangents"),
    (CylinderMesh, "time_tangents"),
])
def test_annotated_result_field_exists(cls, field):
    assert field in {f.name for f in dataclasses.fields(cls)}
