"""The benchmark's per-layer tracer still finds every entry point it wraps.

``benchmarks/tracing.py`` patches functions of `lightcone` by name, so a
renamed entry point would otherwise surface only in a traced benchmark pass.
"""

import importlib.util
from pathlib import Path

from lightcone import integrals, jets, search, surfaces, transforms
from lightcone.cli import main

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


def test_tracer_reaches_every_check_layer():
    # The check groups call curvature.* and transforms.* through the module at
    # call time, so the tracer's wrappers see each layer that verify and
    # global run.
    tracer = _tracing_module().Tracer(capacity=1 << 20)
    try:
        tracer.install()
        assert main(["verify", "round-sphere", "--grid", "8x16"]) == 0
        assert main(["global", "round-sphere", "--grid", "16x32"]) == 0
    finally:
        tracer.uninstall()
    layers = [name for name in tracer.names
              if name.split(".")[0] in ("curvature", "transforms")]
    layers += ["surfaces.umbilic_point_search", "integrals.geometry_table",
               "spectrum.lambda1_estimate"]
    assert [name for name in layers if tracer.calls[name] == 0] == []
