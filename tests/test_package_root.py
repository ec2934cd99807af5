"""The package root exports the pipelines and their inputs; the scalar and
unbatched reference forms that tests compare against live in their modules."""

import importlib

import mrcscatter

# reference forms, by the module that defines them
REFERENCES = {
    "direct_solver": ("assemble_basis_matrix", "incident_trace", "solve_least_squares"),
    "fields": ("scattered_field_dr",),
    "geometry": ("outward_normal", "surface_element"),
    "inverse_solver": ("find_ray_root", "ray_function", "RayRoot"),
    "specfun": ("hankel_out", "hankel_out_dr", "sph_harm", "spherical_bessel_j"),
}


def test_references_live_in_their_modules_not_at_the_root():
    names = [name for group in REFERENCES.values() for name in group]
    assert len(names) == 13
    assert sorted(set(names) & set(mrcscatter.__all__)) == []
    for module, group in REFERENCES.items():
        home = importlib.import_module(f"mrcscatter.{module}")
        for name in group:
            assert callable(getattr(home, name)), f"mrcscatter.{module}.{name}"

