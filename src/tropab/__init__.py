"""Exact-arithmetic toolkit for the combinatorial side of degenerating
polarized abelian varieties: integer/rational linear algebra, Delaunay
decompositions and second-Voronoi cones, periodic piecewise-affine
functions, twisted degeneration monoids, Siegel-space tropicalization,
and finite Heisenberg/theta combinatorics.

No module of the package imports numpy when it is imported: numpy is
imported inside the functions that hand out arrays, so ``import tropab``
loads none, and neither does building a Siegel point or acting on it."""

from .errors import DomainError
from .exact_linalg import (PolarizationType, SymplecticDecomposition,
                           glxy_act, hermite_normal_form, lattice_membership,
                           polarization_type, smith_normal_form,
                           standard_symplectic_form, symplectic_normal_form)
from .quadform_delaunay import (LatticePolytope, PeriodicPaving,
                                QuadraticForm, delaunay_subdivision,
                                empty_sphere_check, voronoi_cone_contains)
from .pavings_pwl import (PwAffineFunction, QuasiperiodicDecomposition,
                          ToricMonoid, affine_region_paving,
                          bending_parameters, cone_cy_membership,
                          interpolate_on_triangulation, is_p_convex,
                          legendre_transform, quasiperiodic_decompose,
                          sigma_section)
from .degeneration_monoids import (CentralFiberComplex, FaceQuotientData,
                                   HomogenizedFunction, TwistedMonoidElement,
                                   central_fiber_complex, face_quotient,
                                   fourier_indices, fourier_reduce,
                                   lift_height, minimal_lift, star_cocycle,
                                   twisted_add, y_action_on_monomial)
from .theta_heisenberg import (CyclotomicInteger, DegenerationData,
                               HeisenbergElement, SchrodingerVector,
                               balanced_sections, degen_exponents,
                               enumerate_balanced_set, heis_mul,
                               kw_decompose, power_map_kernel_check,
                               schrodinger_action,
                               section_valuation_profile, twist_data)
from .siegel_trop import (CuspSpec, SiegelPoint, cayley_transform,
                          gamma_action, tropicalize)

__version__ = "0.1.0"
