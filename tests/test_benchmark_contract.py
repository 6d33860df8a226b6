"""The names the benchmark's per-layer tracer wraps and probes must exist.

``perfbench/layers.py`` wraps quiverkit functions from outside and reads a
few private attributes in its probes; a renamed or deleted one makes the
benchmark report its metrics as null.  These tests load that file as it is
and fail first.
"""

import importlib.util
from pathlib import Path

import quiverkit  # noqa: F401  (loads every module the tracer looks up)
from quiverkit.algebra import BasedAlgebra
from quiverkit.linalg import Matrix
from quiverkit.repmod import Module, projective

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    layers = _load_layers()
    absent, restore = layers.install(layers.Tracer())
    restore()
    assert absent == []


def test_probed_attributes_exist(alg_b):
    assert hasattr(Module, "_basis_action") and callable(Module.key)
    assert hasattr(Module, "basis_action")
    assert isinstance(alg_b, BasedAlgebra) and isinstance(alg_b._resolutions, dict)
    assert hasattr(Matrix, "rows") and hasattr(Matrix, "cols")
    layers = _load_layers()
    m = projective(alg_b, "1")
    layers._action_before((m,), {})
    layers._resolution_before((m,), {})
    mat = m.mats["a"]
    assert layers._rref_cells((mat,), {}) == mat.rows * mat.cols
