"""Siegel upper half space in binary64: the arithmetic group action for
a polarization type, the Cayley transform to the bounded domain, and the
tropicalization (Schur complement of the imaginary part) toward a
standard cusp.

This is deliberately the only inexact module; everything it feeds
downstream is a cone location, which is robust to 1e-10-level noise.
It computes on rows of Python ``complex`` and ``float``: products
through exact_linalg's generic ``_matmul``, inverses by one Gauss-Jordan
elimination with partial pivoting, positive definiteness by a Cholesky
factorization, and 2-norm condition numbers by a one-sided Jacobi SVD.
numpy is imported only where a public array is handed out: the ``tau``
of a SiegelPoint, and the values of ``cayley_transform`` and
``tropicalize``.
"""

import cmath
import math
from functools import cached_property
from operator import mul

from .errors import (IllConditionedBlock, NearSingularDenominator,
                     NotSymplectic)
from .exact_linalg import (PolarizationType, Record, _matmul,
                           _standard_form_rows, read_matrix, transpose)

DEFAULT_TOL = 1e-10
JACOBI_SWEEPS = 60      # one-sided Jacobi converges in well under 10


class SiegelPoint:
    """A complex symmetric g x g matrix with positive definite
    imaginary part.  tau is read once into rows of complex numbers (a
    numpy array through ``.tolist()``); its entries must be finite, and
    tol finite and positive."""

    def __init__(self, tau, tol: float = DEFAULT_TOL):
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError("tol must be finite and positive, got %r"
                             % (tol,))
        rows = read_matrix(tau, complex)
        if not rows or len(rows) != len(rows[0]):
            raise ValueError("tau must be square")
        if not all(map(cmath.isfinite, (z for row in rows for z in row))):
            raise ValueError("tau must have finite entries")
        if any(abs(rows[i][j] - rows[j][i]) > tol
               for j in range(len(rows)) for i in range(j)):
            raise ValueError("tau must be symmetric within tolerance")
        self._rows = _symmetrized(rows)
        self.g = len(rows)
        self.tol = tol
        if _min_cholesky_pivot(_imag(self._rows)) <= tol:
            raise ValueError("Im(tau) must be positive definite")

    @cached_property
    def tau(self):
        """The symmetrized tau as a read-only complex array."""
        import numpy as np
        out = np.array(self._rows, dtype=complex)
        out.flags.writeable = False
        return out

    def __repr__(self):
        return "SiegelPoint(g=%d)" % self.g


class CuspSpec(Record):
    gprime: int
    delta: PolarizationType

    def __init__(self, gprime, delta):
        if gprime < 0:
            raise ValueError("gprime must be nonnegative")
        self.__dict__["gprime"] = gprime
        self.__dict__["delta"] = delta


# ---------------------------------------------------------------------------
# binary64 linear algebra on rows
# ---------------------------------------------------------------------------

def _symmetrized(rows):
    """(m + m^T) / 2, as tuples."""
    return tuple(tuple((x + y) / 2 for x, y in zip(row, col))
                 for row, col in zip(rows, zip(*rows)))


def _imag(rows):
    return [[z.imag for z in row] for row in rows]


def _add(x, y):
    return [[u + v for u, v in zip(r, s)] for r, s in zip(x, y)]


def _shift_diag(m, c):
    """m + c I."""
    return [[x + c if i == j else x for j, x in enumerate(row)]
            for i, row in enumerate(m)]


def _times_diag(m, diag):
    """m @ diag(diag)."""
    return [[x * d for x, d in zip(row, diag)] for row in m]


def _dot(x, y):
    """The Hermitian inner product x^H y of two complex vectors."""
    return sum(map(mul, map(complex.conjugate, x), y))


def _norm2(v):
    """The squared 2-norm of a complex vector."""
    return _dot(v, v).real


def _min_cholesky_pivot(m):
    """Smallest pivot l_jj^2 of the Cholesky factorization of the
    symmetric part of the real matrix m, or -inf when a pivot is not
    positive (the symmetric part is not positive definite)."""
    low = []
    least = math.inf
    for i, row in enumerate(m):
        li = []
        for j, lj in enumerate(low):
            s = (row[j] + m[j][i]) / 2 - sum(map(mul, li, lj))
            li.append(s / lj[j])
        d = row[i] - sum(x * x for x in li)
        if not d > 0:
            return -math.inf
        least = min(least, d)
        li.append(math.sqrt(d))
        low.append(li)
    return least


def _inverse(m):
    """The inverse of the square matrix m of floats or complex numbers,
    by Gauss-Jordan elimination with partial pivoting; an exactly zero
    pivot raises ZeroDivisionError."""
    n = len(m)
    a = [list(row) + [1.0 if j == i else 0.0 for j in range(n)]
         for i, row in enumerate(m)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(a[i][k]))
        a[k], a[p] = a[p], a[k]
        pivot = a[k][k]
        a[k] = piv = [x / pivot for x in a[k]]
        for i in range(n):
            f = a[i][k]
            if i != k and f:
                a[i] = [x - f * y for x, y in zip(a[i], piv)]
    return [row[n:] for row in a]


def _condition_number(m):
    """sigma_max / sigma_min of the square complex matrix m in the
    2-norm, inf when m is singular or not finite.  The singular values are the
    column norms of m (scaled by its largest entry) after one-sided
    Jacobi (Hestenes) rotations have made its columns orthogonal."""
    entries = [x for row in m for x in row]
    if not all(map(cmath.isfinite, entries)):
        return math.inf
    scale = max(map(abs, entries))
    if scale == 0:
        return math.inf
    cols = [[x / scale for x in col] for col in zip(*m)]
    norms = [_norm2(col) for col in cols]
    pairs = [(p, q) for q in range(len(cols)) for p in range(q)]
    for _ in range(JACOBI_SWEEPS):
        rotated = False
        for p, q in pairs:
            x, y = cols[p], cols[q]
            gamma = _dot(x, y)
            mod = abs(gamma)
            if mod <= 1e-15 * math.sqrt(norms[p] * norms[q]):
                continue
            rotated = True
            # rotate x against y e^{-i arg gamma}, whose inner product
            # with x is the real mod
            zeta = (norms[q] - norms[p]) / (2 * mod)
            t = math.copysign(1.0, zeta) / (abs(zeta)
                                            + math.hypot(1.0, zeta))
            c = 1 / math.hypot(1.0, t)
            s = c * t
            phase = gamma.conjugate() / mod
            sp, cp = s * phase, c * phase
            cols[p] = [c * u - sp * v for u, v in zip(x, y)]
            cols[q] = [s * u + cp * v for u, v in zip(x, y)]
            norms[p], norms[q] = _norm2(cols[p]), _norm2(cols[q])
        if not rotated:
            break
    sigma = list(map(math.sqrt, norms))
    return math.inf if min(sigma) == 0 else max(sigma) / min(sigma)


def _checked_inverse(m, tol, message):
    """m^{-1}, refused (NearSingularDenominator on tau) when the 2-norm
    condition number of m exceeds 1/tol."""
    if _condition_number(m) > 1.0 / tol:
        raise NearSingularDenominator(message, field="tau")
    try:
        return _inverse(m)
    except ZeroDivisionError:
        raise NearSingularDenominator(message, field="tau") from None


# ---------------------------------------------------------------------------
# the maps
# ---------------------------------------------------------------------------

def gamma_action(r, tau: SiegelPoint, delta: PolarizationType) -> SiegelPoint:
    """tau -> (a tau + b D)(c tau + d D)^{-1} D for r = [[a, b], [c, d]]
    in the integral symplectic group of the form of type delta; D is the
    diagonal matrix of the type.  An image whose imaginary part is not
    positive definite in binary64 is refused (IllConditionedBlock)."""
    rows = read_matrix(r)
    g = tau.g
    if len(rows) != 2 * g or len(rows[0]) != 2 * g:
        raise NotSymplectic("expected a %dx%d matrix" % (2 * g, 2 * g))
    e = _standard_form_rows(delta)
    if len(e) != 2 * g:
        raise ValueError("delta of length %d for tau of size %d"
                         % (len(delta.diag), g))
    # r e = [[-b D, a D], [-d D, c D]]: the columns of r, permuted and
    # scaled, so r e r^T takes one product
    re = [[-x * k for x, k in zip(row[g:], delta.diag)]
          + [x * k for x, k in zip(row[:g], delta.diag)] for row in rows]
    if _matmul(re, transpose(rows)) != e:
        raise NotSymplectic("r does not preserve the alternating form")
    rf = [[float(x) for x in row] for row in rows]
    a, b = [row[:g] for row in rf[:g]], [row[g:] for row in rf[:g]]
    c, d = [row[:g] for row in rf[g:]], [row[g:] for row in rf[g:]]
    dd = [float(x) for x in delta.diag]
    inv = _checked_inverse(_add(_matmul(c, tau._rows), _times_diag(d, dd)),
                           tau.tol, "c tau + d delta is near singular")
    num = _add(_matmul(a, tau._rows), _times_diag(b, dd))
    new = _times_diag(_matmul(num, inv), dd)
    try:    # new is square and symmetric: only Im(new) can be refused
        return SiegelPoint(_symmetrized(new), tol=tau.tol)
    except ValueError:
        raise IllConditionedBlock("the image leaves the binary64 Siegel "
                                  "space", field="tau") from None


def _cayley_rows(tau: SiegelPoint):
    """cayley_transform as rows of complex numbers."""
    inv = _checked_inverse(_shift_diag(tau._rows, 1j), tau.tol,
                           "tau + iI is near singular")
    z = _symmetrized(_matmul(_shift_diag(tau._rows, -1j), inv))
    zz = _matmul(z, [[x.conjugate() for x in row] for row in z])
    if _min_cholesky_pivot(_shift_diag([[-x.real for x in row]
                                        for row in zz], 1.0)) <= 0:
        raise IllConditionedBlock("I - Z conj(Z) is not positive definite "
                                  "in binary64", field="tau")
    return z


def cayley_transform(tau: SiegelPoint):
    """Z = (tau - iI)(tau + iI)^{-1}, mapping the Siegel space into the
    bounded realization I - Z conj(Z) > 0; a complex array."""
    import numpy as np
    return np.array(_cayley_rows(tau), dtype=complex)


def _tropicalize_rows(tau: SiegelPoint, cusp: CuspSpec):
    """tropicalize as rows of floats."""
    gp = cusp.gprime
    if not 0 <= gp < tau.g:
        raise ValueError("need 0 <= gprime < g")
    im = _imag(tau._rows)
    if gp == 0:
        return im
    im1 = [row[:gp] for row in im[:gp]]
    im3 = [row[gp:] for row in im[:gp]]
    im2 = [row[gp:] for row in im[gp:]]
    if _min_cholesky_pivot(im1) <= tau.tol:
        raise IllConditionedBlock("leading block of Im(tau) is too close "
                                  "to singular")
    schur = _matmul(_matmul(transpose(im3), _inverse(im1)), im3)
    return _symmetrized([[x - y for x, y in zip(r, s)]
                         for r, s in zip(im2, schur)])


def tropicalize(tau: SiegelPoint, cusp: CuspSpec):
    """The positive definite (g - g') x (g - g') form at the standard
    rank-g' cusp: Im(tau_2) - Im(tau_3)^T Im(tau_1)^{-1} Im(tau_3),
    blocks taken with tau_1 the leading g' x g' corner, as a float
    array.  At g' = 0 this is just Im(tau)."""
    import numpy as np
    return np.array(_tropicalize_rows(tau, cusp), dtype=float)
