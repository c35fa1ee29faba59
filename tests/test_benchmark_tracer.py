"""The benchmark's per-layer tracer still finds every entry point it wraps.

``benchmarks/tracing.py`` patches functions of `lightcone` by name, so a
renamed entry point would otherwise surface only in a traced benchmark pass.
"""

import importlib.util
from pathlib import Path

from lightcone import integrals, jets, search, surfaces, transforms

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entry_points():
    return (jets.Jet2.__dict__["__mul__"], surfaces.JetFrame.__dict__["__init__"],
            surfaces.umbilic_point_search,
            transforms.verify_conjugate_duality, transforms.double_conjugate_residual,
            transforms.verify_expansion_laws, integrals.geometry_table,
            search.VarianceObjective.__dict__["diagnostics"])


def test_tracer_installs_and_uninstalls():
    originals = _entry_points()
    tracer = _tracing_module().Tracer(capacity=16)
    try:
        tracer.install()
        assert all(w is not o for w, o in zip(_entry_points(), originals))
    finally:
        tracer.uninstall()
    assert _entry_points() == originals
