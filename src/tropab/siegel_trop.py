"""Siegel upper half space in binary64: the arithmetic group action for
a polarization type, the Cayley transform to the bounded domain, and the
tropicalization (Schur complement of the imaginary part) toward a
standard cusp.

This is deliberately the only inexact module; everything it feeds
downstream is a cone location, which is robust to 1e-10-level noise.
No module of the package imports numpy when it is imported: numpy is
imported inside the functions that build or compute on arrays.
"""

from dataclasses import dataclass

from .errors import (IllConditionedBlock, NearSingularDenominator,
                     NotSymplectic)
from .exact_linalg import (PolarizationType, _matmul, _standard_form_rows,
                           read_matrix, transpose)

DEFAULT_TOL = 1e-10


class SiegelPoint:
    """A complex symmetric g x g matrix with positive definite
    imaginary part."""

    def __init__(self, tau, tol: float = DEFAULT_TOL):
        import numpy as np
        tau = np.asarray(tau, dtype=complex)
        if tau.ndim != 2 or tau.shape[0] != tau.shape[1]:
            raise ValueError("tau must be square")
        if np.max(np.abs(tau - tau.T)) > tol:
            raise ValueError("tau must be symmetric within tolerance")
        self.tau = (tau + tau.T) / 2
        self.g = tau.shape[0]
        self.tol = tol
        if _min_cholesky_pivot(self.tau.imag) <= tol:
            raise ValueError("Im(tau) must be positive definite")

    def __repr__(self):
        return "SiegelPoint(g=%d)" % self.g


@dataclass(frozen=True)
class CuspSpec:
    gprime: int
    delta: PolarizationType

    def __post_init__(self):
        if self.gprime < 0:
            raise ValueError("gprime must be nonnegative")


def _min_cholesky_pivot(m):
    """Smallest pivot of the Cholesky factorization, or -inf when the
    factorization fails (matrix not positive definite)."""
    import numpy as np
    try:
        c = np.linalg.cholesky((m + m.T) / 2)
    except np.linalg.LinAlgError:
        return -np.inf
    return float(np.min(np.diag(c)) ** 2)


def gamma_action(r, tau: SiegelPoint, delta: PolarizationType) -> SiegelPoint:
    """tau -> (a tau + b D)(c tau + d D)^{-1} D for r = [[a, b], [c, d]]
    in the integral symplectic group of the form of type delta; D is the
    diagonal matrix of the type.  An image whose imaginary part is not
    positive definite in binary64 is refused (IllConditionedBlock)."""
    import numpy as np
    rows = read_matrix(r)
    g = tau.g
    if len(rows) != 2 * g or len(rows[0]) != 2 * g:
        raise NotSymplectic("expected a %dx%d matrix" % (2 * g, 2 * g))
    e = _standard_form_rows(delta)
    if len(e) != 2 * g:
        raise ValueError("delta of length %d for tau of size %d"
                         % (len(delta.diag), g))
    if _matmul(_matmul(rows, e), transpose(rows)) != e:
        raise NotSymplectic("r does not preserve the alternating form")
    rf = np.array(rows, dtype=float)
    a, b = rf[:g, :g], rf[:g, g:]
    c, d = rf[g:, :g], rf[g:, g:]
    dd = np.diag([float(x) for x in delta.diag])
    denom = c @ tau.tau + d @ dd
    if np.linalg.cond(denom) > 1.0 / tau.tol:
        raise NearSingularDenominator("c tau + d delta is near singular",
                                      field="tau")
    new = (a @ tau.tau + b @ dd) @ np.linalg.inv(denom) @ dd
    try:    # new is square and symmetric: only Im(new) can be refused
        return SiegelPoint((new + new.T) / 2, tol=tau.tol)
    except ValueError:
        raise IllConditionedBlock("the image leaves the binary64 Siegel "
                                  "space", field="tau") from None


def cayley_transform(tau: SiegelPoint):
    """Z = (tau - iI)(tau + iI)^{-1}, mapping the Siegel space into the
    bounded realization I - Z conj(Z) > 0; a complex array."""
    import numpy as np
    g = tau.g
    eye = np.eye(g)
    denom = tau.tau + 1j * eye
    if np.linalg.cond(denom) > 1.0 / tau.tol:
        raise NearSingularDenominator("tau + iI is near singular",
                                      field="tau")
    z = (tau.tau - 1j * eye) @ np.linalg.inv(denom)
    z = (z + z.T) / 2
    if _min_cholesky_pivot((eye - z @ np.conj(z)).real) <= 0:
        raise IllConditionedBlock("I - Z conj(Z) is not positive definite "
                                  "in binary64", field="tau")
    return z


def tropicalize(tau: SiegelPoint, cusp: CuspSpec):
    """The positive definite (g - g') x (g - g') form at the standard
    rank-g' cusp: Im(tau_2) - Im(tau_3)^T Im(tau_1)^{-1} Im(tau_3),
    blocks taken with tau_1 the leading g' x g' corner, as a float
    array.  At g' = 0 this is just Im(tau)."""
    import numpy as np
    gp = cusp.gprime
    g = tau.g
    if not 0 <= gp < g:
        raise ValueError("need 0 <= gprime < g")
    im = tau.tau.imag
    if gp == 0:
        return (im + im.T) / 2
    im1 = im[:gp, :gp]
    im3 = im[:gp, gp:]
    im2 = im[gp:, gp:]
    if _min_cholesky_pivot(im1) <= tau.tol:
        raise IllConditionedBlock("leading block of Im(tau) is too close "
                                  "to singular")
    tr = im2 - im3.T @ np.linalg.inv(im1) @ im3
    return (tr + tr.T) / 2
