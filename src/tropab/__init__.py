"""Exact-arithmetic toolkit for the combinatorial side of degenerating
polarized abelian varieties: integer/rational linear algebra, Delaunay
decompositions and second-Voronoi cones, periodic piecewise-affine
functions, twisted degeneration monoids, Siegel-space tropicalization,
and finite Heisenberg/theta combinatorics.

The package namespace is lazy: ``import tropab`` loads no submodule.
``_EXPORTS`` maps each submodule to the public names the package
re-exports from it, and the first access to a name, as ``tropab.X`` or
``from tropab import X``, imports its submodule and keeps the name here.
A submodule's own name (``tropab.exact_linalg``) imports it the same
way, and ``from tropab import *`` binds every name of the table.  So a
CLI subcommand compiles and runs only the modules its handler uses.

No module of the package imports numpy when it is imported either:
numpy is imported inside the functions that hand out arrays, so building
a Siegel point or acting on it loads none."""

from importlib import import_module

_EXPORTS = {
    "errors": ("DomainError",),
    "exact_linalg": (
        "PolarizationType", "SymplecticDecomposition", "glxy_act",
        "hermite_normal_form", "lattice_membership", "polarization_type",
        "smith_normal_form", "standard_symplectic_form",
        "symplectic_normal_form"),
    "_geometry": (),
    "quadform_delaunay": (
        "LatticePolytope", "PeriodicPaving", "QuadraticForm",
        "delaunay_subdivision", "empty_sphere_check",
        "voronoi_cone_contains"),
    "pavings_pwl": (
        "PwAffineFunction", "QuasiperiodicDecomposition", "ToricMonoid",
        "affine_region_paving", "bending_parameters", "cone_cy_membership",
        "interpolate_on_triangulation", "is_p_convex", "legendre_transform",
        "quasiperiodic_decompose", "sigma_section"),
    "degeneration_monoids": (
        "CentralFiberComplex", "FaceQuotientData", "HomogenizedFunction",
        "TwistedMonoidElement", "central_fiber_complex", "face_quotient",
        "fourier_indices", "fourier_reduce", "lift_height", "minimal_lift",
        "star_cocycle", "twisted_add", "y_action_on_monomial"),
    "theta_heisenberg": (
        "CyclotomicInteger", "DegenerationData", "HeisenbergElement",
        "SchrodingerVector", "balanced_sections", "degen_exponents",
        "enumerate_balanced_set", "heis_mul", "kw_decompose",
        "power_map_kernel_check", "schrodinger_action",
        "section_valuation_profile", "twist_data"),
    "siegel_trop": (
        "CuspSpec", "SiegelPoint", "cayley_transform", "gamma_action",
        "tropicalize"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted([m for m in _EXPORTS if not m.startswith("_")]
                 + list(_MODULE_OF))

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it here
        return import_module("." + name, __name__)
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(import_module("." + _MODULE_OF[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _EXPORTS.keys() | _MODULE_OF.keys())
