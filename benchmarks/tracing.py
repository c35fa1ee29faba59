"""Per-layer spans of `lightcone`, recorded from outside the package.

`Tracer.install` replaces the public entry points of each module with thin
wrappers; `Tracer.uninstall` puts the originals back.  Each wrapped call
records one span (layer name, start, end, parent span) in flat arrays, and
adds to the layer's call and point counts.  A layer's self time is the sum
of its spans minus the time covered by their child spans.

The span arrays are allocated once, large and untouched, before the traced
pass.  Buffers that grow while the program runs change where glibc places
the program's own temporaries, and with that how often it returns memory to
the kernel and faults it back in: a traced search pass with growing buffers
ran a third faster than an untraced one.
"""

from __future__ import annotations

import sys
from time import perf_counter

import numpy as np

#: Layers whose self time is reported, with whether calls and points are.
LAYERS = {
    "jets.mul": ("calls", "points", "self_s"),
    "jets.div": ("calls", "self_s"),
    "jets.analytic": ("calls", "self_s"),
    "harmonics.real_harmonic": ("calls", "self_s"),
    "surfaces.JetFrame": ("calls", "points", "self_s"),
    "surfaces.umbilic_point_search": ("self_s",),
    "curvature.brioschi_curvature": ("calls", "self_s"),
    "curvature.curvature_relation": ("self_s",),
    "curvature.codazzi_residual": ("self_s",),
    "curvature.difference_tensor": ("self_s",),
    "transforms.verify_conjugate_duality": ("self_s",),
    "transforms.double_conjugate_residual": ("self_s",),
    "transforms.verify_expansion_laws": ("self_s",),
    "integrals.geometry_table": ("calls", "points", "self_s"),
    "spectrum.lambda1_estimate": ("self_s",),
    "spectrum.eigsh": ("calls", "self_s"),
    "search.objective": ("calls", "self_s"),
    "cli": ("self_s",),
}


def _jet_points(args, out):
    return out.c.size // out.c.shape[-1]


def _frame_points(args, out):
    frame = args[0]
    return np.broadcast(frame.u, frame.v).size


def _table_points(args, out):
    return np.size(args[1])


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self, capacity=1 << 22):
        self.names = list(LAYERS)
        self._id = {name: k for k, name in enumerate(self.names)}
        self.start = np.empty(capacity)
        self.end = np.empty(capacity)
        self.parent = np.empty(capacity, dtype=np.int64)
        self.layer = np.empty(capacity, dtype=np.int16)
        self.n = 0
        self.calls = dict.fromkeys(self.names, 0)
        self.points = dict.fromkeys(self.names, 0)
        self.wall_hits = 0
        self._stack = [-1]
        self._patched = []

    def _open(self, name):
        k = self.n
        if k == self.start.size:
            raise RuntimeError(f"more than {k} spans; raise the tracer capacity")
        self.n = k + 1
        self.parent[k] = self._stack[-1]
        self.layer[k] = self._id[name]
        self._stack.append(k)
        self.calls[name] += 1
        return k

    def _close(self, k, t0, t1):
        self._stack.pop()
        self.start[k] = t0
        self.end[k] = t1

    def wrap(self, fn, name, points=None, after=None):
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            k = open_(name)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                close(k, t0, perf_counter())
            if points is not None:
                self.points[name] += points(args, out)
            if after is not None:
                after(out)
            return out

        return traced

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _patch_function(self, module, attr, name, points=None):
        """Wrap a module function wherever a `lightcone` module binds it."""
        fn = getattr(module, attr)
        wrapper = self.wrap(fn, name, points)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "lightcone" and mod.__dict__.get(attr) is fn:
                self._patch(mod, attr, wrapper)

    def _count_wall(self, out):
        if not out["ok"]:
            self.wall_hits += 1

    def install(self):
        from lightcone import (
            curvature, harmonics, integrals, jets, search, spectrum, surfaces, transforms,
        )

        for attr in ("__mul__", "__rmul__"):
            fn = jets.Jet2.__dict__[attr]
            self._patch(jets.Jet2, attr, self.wrap(fn, "jets.mul", _jet_points))
        for attr in ("__truediv__", "__rtruediv__"):
            fn = jets.Jet2.__dict__[attr]
            self._patch(jets.Jet2, attr, self.wrap(fn, "jets.div"))
        for attr in jets.ANALYTIC:
            self._patch_function(jets, attr, "jets.analytic")
        self._patch_function(harmonics, "real_harmonic", "harmonics.real_harmonic")
        init = surfaces.JetFrame.__dict__["__init__"]
        self._patch(
            surfaces.JetFrame, "__init__", self.wrap(init, "surfaces.JetFrame", _frame_points)
        )
        self._patch_function(surfaces, "umbilic_point_search", "surfaces.umbilic_point_search")
        for attr in ("brioschi_curvature", "curvature_relation", "codazzi_residual",
                     "difference_tensor"):
            self._patch_function(curvature, attr, f"curvature.{attr}")
        for attr in ("verify_conjugate_duality", "double_conjugate_residual",
                     "verify_expansion_laws"):
            self._patch_function(transforms, attr, f"transforms.{attr}")
        self._patch_function(integrals, "geometry_table", "integrals.geometry_table",
                             _table_points)
        self._patch_function(spectrum, "lambda1_estimate", "spectrum.lambda1_estimate")
        self._patch(spectrum.spla, "eigsh", self.wrap(spectrum.spla.eigsh, "spectrum.eigsh"))
        diag = search.VarianceObjective.__dict__["diagnostics"]
        self._patch(
            search.VarianceObjective, "diagnostics",
            self.wrap(diag, "search.objective", after=self._count_wall),
        )

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _spans(self):
        n = self.n
        return self.layer[:n], self.parent[:n], self.start[:n], self.end[:n]

    def self_times(self):
        """Self seconds per layer: span time minus time in child spans."""
        layer, parent, start, end = self._spans()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        per_layer = np.bincount(layer, weights=dur - child, minlength=len(self.names))
        return {name: float(per_layer[k]) for k, name in enumerate(self.names)}

    def write(self, path):
        """Save every span: layer index, parent span, start and end."""
        layer, parent, start, end = self._spans()
        np.savez(path, names=np.array(self.names), layer=layer, parent=parent,
                 start=start, end=end)

    def metrics(self):
        """Per-layer counts and self times, keyed by metric name."""
        selfs = self.self_times()
        out = {}
        for name, kinds in LAYERS.items():
            for kind in kinds:
                if kind == "calls":
                    out[f"{name}.calls"] = (self.calls[name], "count")
                elif kind == "points":
                    out[f"{name}.points"] = (self.points[name], "count")
                else:
                    out[f"{name}.self_s"] = (selfs[name], "s")
        out["search.objective.wall_hits"] = (self.wall_hits, "count")
        return out
