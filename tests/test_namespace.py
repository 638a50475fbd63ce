"""The lazy ``tropab`` namespace: every name it re-exports resolves to
the object its submodule defines, ``dir`` and ``from tropab import *``
see all of them, and a fresh ``import tropab`` loads no submodule until
one of its names is read."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import tropab

SRC = Path(__file__).resolve().parent.parent / "src"

# the names ``from tropab import *`` bound when the package imported
# every submodule eagerly
STAR_NAMES = [
    "CentralFiberComplex", "CuspSpec", "CyclotomicInteger",
    "DegenerationData", "DomainError", "FaceQuotientData",
    "HeisenbergElement", "HomogenizedFunction", "LatticePolytope",
    "PeriodicPaving", "PolarizationType", "PwAffineFunction",
    "QuadraticForm", "QuasiperiodicDecomposition", "SchrodingerVector",
    "SiegelPoint", "SymplecticDecomposition", "ToricMonoid",
    "TwistedMonoidElement", "affine_region_paving", "balanced_sections",
    "bending_parameters", "cayley_transform", "central_fiber_complex",
    "cone_cy_membership", "degen_exponents", "degeneration_monoids",
    "delaunay_subdivision", "empty_sphere_check", "enumerate_balanced_set",
    "errors", "exact_linalg", "face_quotient", "fourier_indices",
    "fourier_reduce", "gamma_action", "glxy_act", "heis_mul",
    "hermite_normal_form", "interpolate_on_triangulation", "is_p_convex",
    "kw_decompose", "lattice_membership", "legendre_transform",
    "lift_height", "minimal_lift", "pavings_pwl", "polarization_type",
    "power_map_kernel_check", "quadform_delaunay", "quasiperiodic_decompose",
    "schrodinger_action", "section_valuation_profile", "siegel_trop",
    "sigma_section", "smith_normal_form", "standard_symplectic_form",
    "star_cocycle", "symplectic_normal_form", "theta_heisenberg",
    "tropicalize", "twist_data", "twisted_add", "voronoi_cone_contains",
    "y_action_on_monomial"]


@pytest.mark.parametrize("module", sorted(tropab._EXPORTS))
def test_every_name_is_the_object_its_submodule_defines(module):
    mod = import_module("tropab." + module)
    assert getattr(tropab, module) is mod
    for name in tropab._EXPORTS[module]:
        value = getattr(tropab, name)
        assert value is getattr(mod, name)
        assert value.__module__ == mod.__name__, name


def test_dir_lists_every_exported_name():
    assert set(tropab.__all__) <= set(dir(tropab))
    assert "_geometry" in dir(tropab)


def test_star_import_binds_the_names_of_the_eager_namespace():
    namespace = {}
    exec("from tropab import *", namespace)
    del namespace["__builtins__"]
    assert len(STAR_NAMES) == 65
    assert sorted(namespace) == sorted(tropab.__all__) == STAR_NAMES
    assert all(namespace[name] is getattr(tropab, name)
               for name in STAR_NAMES)


def test_an_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        tropab.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from tropab import no_such_name", {})


_BARE_IMPORT = """
import json, sys
import tropab
out = [sorted(m for m in sys.modules if m.startswith("tropab"))]
out.append(tropab.exact_linalg.__name__)
out.append(tropab._geometry.__name__)
out.append(hasattr(tropab, "cli"))
out.append(sorted(m for m in sys.modules if m.startswith("tropab")))
print(json.dumps(out))
"""


def test_a_submodule_resolves_after_a_bare_import():
    """In a fresh interpreter, ``import tropab`` loads nothing else;
    reading a submodule's name imports it, as when the namespace
    imported every submodule, and the CLI is not one of them."""
    p = subprocess.run([sys.executable, "-c", _BARE_IMPORT],
                       capture_output=True, text=True, timeout=60,
                       env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout) == [
        ["tropab"], "tropab.exact_linalg", "tropab._geometry", False,
        ["tropab", "tropab._geometry", "tropab.errors",
         "tropab.exact_linalg"]]
