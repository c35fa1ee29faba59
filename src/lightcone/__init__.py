"""Spacelike surfaces through the future lightcone of Minkowski 4-space.

Pointwise curvature identities, conjugate duality, conformal expansions,
global integrals and spectra, and a numerical search for non-round surfaces
with constant second-form curvature.

``search`` and ``spectrum`` are imported by name (``from lightcone.search
import SearchConfig``).  The package needs numpy alone: no module of it,
eigensolvers included, loads scipy.
"""

__version__ = "0.1.0"

from . import catalog, curvature, integrals, jets, minkowski, surfaces, transforms
from .catalog import (
    HarmonicSpec,
    graph_over_sphere,
    paraboloid_graph,
    perturbed_sphere,
    product_cylinder,
    round_sphere,
)
from .integrals import SphereGrid, geometry_table
from .jets import Jet2, JetVec4
from .surfaces import JetFrame, SurfacePatch
from .transforms import conjugate, expand
