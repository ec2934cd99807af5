"""Acoustic scattering by star-shaped obstacles via outgoing-wave expansions.

Direct problem: coefficients of an outgoing spherical-wave expansion are
found by minimizing the boundary residual, escalating the truncation degree
until a target is met.  Inverse problem: mode coefficients extracted from
near-field data on a measurement sphere define a one-dimensional root search
per observation direction that recovers the radial map of the obstacle.
"""

from types import ModuleType as _ModuleType

from .direct_solver import (
    CoefficientSet,
    DirectSolution,
    WaveContext,
    assemble_basis_matrix,
    incident_trace,
    mrc_solve,
    solve_least_squares,
)
from .fields import (
    far_field_amplitude,
    field_on_sphere,
    project_far_field,
    scattered_field,
    scattered_field_dr,
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
    outward_normal,
    quadrature_for_degree,
    surface_element,
    surface_from_descriptor,
)
from .inverse_solver import (
    NearFieldData,
    NearFieldEntry,
    RayRoot,
    ReconstructedSurface,
    add_noise,
    extract_coeffs,
    find_ray_root,
    ray_function,
    stable_reconstruct,
)
from .specfun import (
    DomainError,
    ModeIndex,
    hankel_out,
    hankel_out_dr,
    mode_from_index,
    mode_index,
    mode_list,
    n_modes,
    sph_harm,
    spherical_bessel_j,
)
from .sphere_oracle import plane_wave_coeffs, sphere_scattering_coeffs

__version__ = "0.1.0"

# every public name imported above; the submodules themselves are not exported
__all__ = sorted(
    n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, _ModuleType)
)
