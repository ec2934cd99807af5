"""Acoustic scattering by star-shaped obstacles via outgoing-wave expansions.

Direct problem (``mrc_solve``): outgoing spherical-wave coefficients minimize
the boundary residual, raising the truncation degree until a target is met.
Inverse problem (``stable_reconstruct``): mode coefficients of near-field data
on a measurement sphere define a root search per direction for the obstacle's
radial map.  The root exports these two with their data types and inputs; the
references the tests compare against (``hankel_out``, ...) stay in their modules.
"""

from types import ModuleType as _ModuleType

from .direct_solver import (
    CoefficientSet,
    DirectSolution,
    WaveContext,
    mrc_solve,
)
from .fields import (
    far_field_amplitude,
    field_on_sphere,
    project_far_field,
    scattered_field,
    total_field,
)
from .geometry import (
    Direction,
    Ellipsoid,
    PerturbedSphere,
    Sphere,
    SphereQuadrature,
    StarSurface,
    SurfaceError,
    fibonacci_directions,
    make_quadrature,
    quadrature_for_degree,
    surface_from_descriptor,
)
from .inverse_solver import (
    NearFieldData,
    NearFieldEntry,
    ReconstructedSurface,
    add_noise,
    extract_coeffs,
    stable_reconstruct,
)
from .specfun import (
    DomainError,
    ModeIndex,
    mode_from_index,
    mode_index,
    mode_list,
    n_modes,
)
from .sphere_oracle import plane_wave_coeffs, sphere_scattering_coeffs

__version__ = "0.1.0"

# every public name imported above; the submodules themselves are not exported
__all__ = sorted(
    n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType)
)
