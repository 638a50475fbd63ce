"""Independent oracles for the benchmark's output checks.

Nothing here imports ``tropab``: every check is computed from the
problem data by its own (slow, simple) route, so a defect in the
module under test cannot hide itself by agreeing with its own oracle.
All arithmetic is exact except the Siegel checks, which compare
binary64 results within a relative tolerance.
"""

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np

F = Fraction


# ---------------------------------------------------------------------------
# exact linear algebra on lists of Fractions
# ---------------------------------------------------------------------------

def det(m):
    """Exact determinant by fraction Gaussian elimination."""
    a = [[F(x) for x in row] for row in m]
    n = len(a)
    out = F(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return F(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            out = -out
        out *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return out


def solve(a, b):
    """Solve a x = b exactly; None when a is singular."""
    n = len(a)
    aug = [[F(x) for x in row] + [F(y)] for row, y in zip(a, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def inverse(m):
    n = len(m)
    cols = [solve(m, [1 if i == j else 0 for i in range(n)])
            for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def transpose(a):
    return [list(r) for r in zip(*a)]


def qval(q, x):
    r = len(q)
    return sum(q[i][j] * x[i] * x[j] for i in range(r) for j in range(r))


def rows(m):
    """Plain nested lists of python numbers from an array-like."""
    return [[x for x in row] for row in np.asarray(m, dtype=object)]


# ---------------------------------------------------------------------------
# Delaunay pavings: empty Q-circumellipsoids and volume accounting
# ---------------------------------------------------------------------------

def circumsphere(verts, q):
    """Exact Q-circumcentre and squared radius of a cospherical lattice
    cell, from r+1 affinely independent vertices; None when the
    vertices are not cospherical or do not span."""
    r = len(q)
    base = [verts[0]]
    for v in verts[1:]:
        trial = base + [v]
        diffs = [[F(a - b) for a, b in zip(p, trial[0])] for p in trial[1:]]
        if _rank(diffs) == len(diffs):
            base = trial
        if len(base) == r + 1:
            break
    if len(base) < r + 1:
        return None
    v0 = base[0]
    a = [[2 * sum(q[i][j] * (v[j] - v0[j]) for j in range(r))
          for i in range(r)] for v in base[1:]]
    b = [qval(q, v) - qval(q, v0) for v in base[1:]]
    c = solve(a, b)
    if c is None:
        return None
    rad = qval(q, [x - y for x, y in zip(v0, c)])
    for v in verts:
        if qval(q, [x - y for x, y in zip(v, c)]) != rad:
            return None
    return c, rad


def _rank(m):
    a = [list(row) for row in m]
    rk = 0
    ncol = len(a[0]) if a else 0
    for col in range(ncol):
        piv = next((i for i in range(rk, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[rk], a[piv] = a[piv], a[rk]
        for i in range(len(a)):
            if i != rk and a[i][col] != 0:
                f = a[i][col] / a[rk][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rk])]
        rk += 1
    return rk


def _isqrt_floor(fr):
    """floor(sqrt(fr)) for a nonnegative Fraction."""
    n = math.isqrt(fr.numerator // fr.denominator)
    while F(n + 1) ** 2 <= fr:
        n += 1
    while F(n) ** 2 > fr:
        n -= 1
    return n


def ellipsoid_box(c, rad, qinv):
    """Integer ranges covering {x : Q(x - c) <= rad}: the half-width
    along axis i is sqrt(rad * (Q^-1)_ii) (Fincke-Pohst bounds)."""
    out = []
    for i, ci in enumerate(c):
        h2 = rad * qinv[i][i]
        h = _isqrt_floor(h2) + 1   # safe over-estimate of sqrt(h2)
        lo = math.floor(ci - h)
        hi = math.ceil(ci + h)
        out.append(range(lo, hi + 1))
    return out


def cell_volume(verts):
    """Euclidean volume of the convex hull of lattice points (r <= 3)."""
    r = len(verts[0])
    pts = [tuple(F(x) for x in v) for v in verts]
    if r == 1:
        xs = [p[0] for p in pts]
        return max(xs) - min(xs)
    g = tuple(sum(p[i] for p in pts) / len(pts) for i in range(r))
    if r == 2:
        ordered = sorted(pts, key=lambda p: math.atan2(float(p[1] - g[1]),
                                                       float(p[0] - g[0])))
        area = F(0)
        for a, b in zip(ordered, ordered[1:] + ordered[:1]):
            area += a[0] * b[1] - a[1] * b[0]
        return abs(area) / 2
    if r != 3:
        raise ValueError("cell_volume supports rank <= 3")
    vol = F(0)
    seen = set()
    for a, b, c in combinations(pts, 3):
        n = _cross(_sub(b, a), _sub(c, a))
        if not any(n):
            continue
        sides = {_sign(_dot(n, _sub(p, a))) for p in pts} - {0}
        if len(sides) != 1:
            continue
        face = tuple(sorted(p for p in pts if _dot(n, _sub(p, a)) == 0))
        if face in seen:
            continue
        seen.add(face)
        fc = tuple(sum(p[i] for p in face) / len(face) for i in range(3))
        u = _sub(face[0], fc)
        w = _cross(n, u)
        ordered = sorted(face, key=lambda p: math.atan2(
            float(_dot(_sub(p, fc), w)), float(_dot(_sub(p, fc), u))))
        for p, s in zip(ordered, ordered[1:] + ordered[:1]):
            vol += abs(_det3(_sub(fc, g), _sub(p, g), _sub(s, g))) / 6
    return vol


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def _det3(a, b, c):
    return _dot(a, _cross(b, c))


def _sign(x):
    return (x > 0) - (x < 0)


def check_delaunay(q, period_basis, cells):
    """None if ``cells`` (one vertex tuple per orbit) is the Delaunay
    paving of Q for the period lattice; otherwise the reason.

    Each cell must be cospherical with an empty Q-circumellipsoid: no
    lattice point strictly inside, and every lattice point on the
    boundary a vertex of the cell (cospherical cells are kept whole).
    The orbit volumes must sum to the covolume of the periods.
    """
    q = [[F(x) for x in row] for row in q]
    pb = [[F(x) for x in row] for row in period_basis]
    qinv = inverse(q)
    pbinv = inverse(pb)
    if not cells:
        return "empty paving"
    total = F(0)
    orbits = set()
    for cell in cells:
        verts = sorted(tuple(int(x) for x in v) for v in cell)
        k = [math.floor(sum(pbinv[i][j] * verts[0][j] for j in range(len(q))))
             for i in range(len(q))]
        t = [sum(pb[i][j] * k[j] for j in range(len(q)))
             for i in range(len(q))]
        key = tuple(tuple(a - b for a, b in zip(v, t)) for v in verts)
        if key in orbits:
            return "cell orbit %r is listed twice" % (verts,)
        orbits.add(key)
        cs = circumsphere(verts, q)
        if cs is None:
            return "cell %r is not a cospherical full-dimensional cell" % (
                verts,)
        c, rad = cs
        vset = set(verts)
        for x in product(*ellipsoid_box(c, rad, qinv)):
            d = qval(q, [a - b for a, b in zip(x, c)])
            if d < rad:
                return "lattice point %r lies inside the circumellipsoid " \
                       "of cell %r" % (x, verts)
            if d == rad and x not in vset:
                return "lattice point %r on the circumellipsoid of cell " \
                       "%r is not one of its vertices" % (x, verts)
        total += cell_volume(verts)
    covol = abs(det(pb))
    if total != covol:
        return "cell orbits cover volume %s of %s" % (total, covol)
    return None


# Fixed pavings for the oracle's self-test.  The first is what the
# package returned for this sheared form at window 4 (two triangles);
# the second is its true Delaunay cell, a parallelogram.
SELFTEST_SHEARED_Q = [[14, -25], [-25, 45]]
SELFTEST_SHEARED_WRONG = [((0, 0), (2, 1), (3, 2)), ((0, 0), (2, 1), (5, 3))]
SELFTEST_SHEARED_TRUE = [((0, 0), (2, 1), (5, 3), (7, 4))]
SELFTEST_HEX_Q = [[2, 1], [1, 2]]
SELFTEST_HEX = [((0, 0), (0, 1), (1, 0)), ((0, 0), (1, -1), (1, 0))]


def self_test():
    """None when the Delaunay oracle rejects the package's window-4 answer
    for the sheared form and accepts the true pavings; else a reason."""
    eye2 = [[1, 0], [0, 1]]
    why = check_delaunay(SELFTEST_SHEARED_Q, eye2, SELFTEST_SHEARED_WRONG)
    if why is None:
        return "oracle accepted the known-wrong sheared paving"
    why = check_delaunay(SELFTEST_SHEARED_Q, eye2, SELFTEST_SHEARED_TRUE)
    if why is not None:
        return "oracle rejected the true sheared paving: " + why
    why = check_delaunay(SELFTEST_HEX_Q, eye2, SELFTEST_HEX)
    if why is not None:
        return "oracle rejected the hexagonal paving: " + why
    return None


# ---------------------------------------------------------------------------
# the section sigma, from circumspheres (no point location)
# ---------------------------------------------------------------------------

class SigmaOracle:
    """sigma(x) = Q(x)/2 - 1/2 min over cells C and periods t of
    (Q(x - c_C - t) - R_C): the lower convex envelope of the lift
    x -> Q(x)/2 is the maximum of the cells' supporting planes, and the
    plane of C + t at x is Q(x)/2 - (Q(x - c_C - t) - R_C)/2.

    The minimum over t is a closest-vector search: every period t that
    can beat the rounded guess t0 lies in the Fincke-Pohst box of
    {y : Q(x - c - y) <= Q(x - c - t0)}, which is enumerated in full.
    Built from cells that ``check_delaunay`` accepted.  Values are
    memoised by point: the query checks ask for the same points again
    and again (profile windows, monoid triples), and the oracle runs
    outside the timed spans, so this only shortens the checks.
    """

    def __init__(self, q, period_basis, cells):
        self.q = [[F(x) for x in row] for row in q]
        self.qinv = inverse(self.q)
        self.pb = [[F(x) for x in row] for row in period_basis]
        self.pbinv = inverse(self.pb)
        self.unimodular = abs(det(self.pb)) == 1
        self.r = len(self.q)
        self.spheres = [circumsphere([tuple(v) for v in c], self.q)
                        for c in cells]
        self._memo = {}

    def _coords(self, y):
        r = self.r
        return [sum(self.pbinv[i][j] * y[j] for j in range(r))
                for i in range(r)]

    def __call__(self, x):
        key = tuple(F(t) for t in x)
        if key not in self._memo:
            self._memo[key] = self._sigma(list(key))
        return self._memo[key]

    def _sigma(self, x):
        r = self.r
        best = None
        for c, rad in self.spheres:
            d = [a - b for a, b in zip(x, c)]
            k0 = [round(v) for v in self._coords(d)]
            t0 = [sum(self.pb[i][j] * k0[j] for j in range(r))
                  for i in range(r)]
            bound = qval(self.q, [a - b for a, b in zip(d, t0)])
            for y in product(*ellipsoid_box(d, bound, self.qinv)):
                if not self.unimodular and any(
                        v.denominator != 1 for v in self._coords(y)):
                    continue
                p = qval(self.q, [a - b for a, b in zip(d, y)]) - rad
                if best is None or p < best:
                    best = p
        return qval(self.q, x) / 2 - best / 2


def interp_half_square(x):
    """The piecewise-linear interpolation of n^2/2 at rational x."""
    x = F(x)
    n = x.numerator // x.denominator
    return F(2 * n + 1, 2) * x - F(n * (n + 1), 2)


def homogenized(sigma, d, x):
    """phi~(d, x) = d * sigma(x / d); 0 at the apex."""
    if d == 0:
        return F(0)
    return d * sigma([F(t, d) for t in x])


def legendre_rank1(mu, window):
    """-min over integers y of y^2/2 + y mu, by brute force over a range
    that strictly contains the minimiser for |mu| <= window."""
    big = 4 * window + 8
    return -min(F(y * y, 2) + y * mu for y in range(-big, big + 1))


# ---------------------------------------------------------------------------
# integer normal forms
# ---------------------------------------------------------------------------

def check_hnf(m, h, u):
    m, h, u = rows(m), rows(h), rows(u)
    if matmul(u, m) != h:
        return "u @ m != h"
    if abs(det(u)) != 1:
        return "u is not unimodular"
    lead = -1
    for i, row in enumerate(h):
        nz = [j for j, x in enumerate(row) if x != 0]
        if not nz:
            if any(any(x != 0 for x in rr) for rr in h[i:]):
                return "zero row above a nonzero row"
            break
        j = nz[0]
        if j <= lead or row[j] <= 0:
            return "pivots are not strictly increasing and positive"
        if any(not 0 <= h[k][j] < row[j] for k in range(i)):
            return "entries above pivot %d are not reduced" % i
        lead = j
    return None


def check_snf(m, d, u, v):
    m, u, v = rows(m), rows(u), rows(v)
    n = len(d)
    diag = [[d[i] if i == j else 0 for j in range(len(v))]
            for i in range(len(u))]
    if matmul(matmul(u, m), v) != diag:
        return "u @ m @ v != diag(d)"
    if abs(det(u)) != 1 or abs(det(v)) != 1:
        return "u or v is not unimodular"
    for a, b in zip(d, d[1:]):
        if a < 0 or (a == 0 and b != 0) or (a != 0 and b % a != 0):
            return "diagonal %r is not a divisor chain" % (d,)
    if len(m) == len(m[0]):
        prod = 1
        for x in d[:n]:
            prod *= x
        if prod != abs(det(m)):
            return "product of d is %d, |det| is %s" % (prod, abs(det(m)))
    return None


def std_symplectic(diag):
    g = len(diag)
    e = [[0] * (2 * g) for _ in range(2 * g)]
    for k, x in enumerate(diag):
        e[k][g + k] = x
        e[g + k][k] = -x
    return e


def check_symplectic(e, diag, b):
    e, b = rows(e), rows(b)
    if matmul(matmul(b, e), transpose(b)) != std_symplectic(diag):
        return "B e B^T is not the standard form of type %r" % (diag,)
    if abs(det(b)) != 1:
        return "basis change is not unimodular"
    if any(x <= 0 for x in diag) or any(y % x for x, y in zip(diag, diag[1:])):
        return "type %r is not a positive divisor chain" % (diag,)
    prod = 1
    for x in diag:
        prod *= x
    if prod * prod != abs(det(e)):
        return "type %r does not match |det e| = %s" % (diag, abs(det(e)))
    return None


def check_poltype(m, d):
    """The type of a square injective map is its Smith diagonal: a
    positive divisor chain with product |det m| and first entry the gcd
    of the entries.  For n <= 4 it is compared with the gcds of all
    k x k minors; an alternating m has its entries in equal pairs."""
    m = rows(m)
    n = len(m)
    if len(d) != n or any(x <= 0 for x in d) or \
            any(y % x for x, y in zip(d, d[1:])):
        return "type %r is not a positive divisor chain" % (d,)
    prod = 1
    for x in d:
        prod *= x
    if prod != abs(det(m)):
        return "type %r does not multiply to |det| = %s" % (d, abs(det(m)))
    g = 0
    for row in m:
        for x in row:
            g = math.gcd(g, int(x))
    if d[0] != g:
        return "first entry of %r is not the gcd %d" % (d, g)
    if all(m[i][j] == -m[j][i] for i in range(n) for j in range(n)) and \
            any(d[i] != d[i + 1] for i in range(0, n, 2)):
        return "type %r of an alternating form is not paired" % (d,)
    if n <= 4:
        gcds = [1]
        for k in range(1, n + 1):
            gk = 0
            for ri in combinations(range(n), k):
                for ci in combinations(range(n), k):
                    gk = math.gcd(gk, int(det([[m[i][j] for j in ci]
                                              for i in ri])))
            gcds.append(gk)
        if d != [gcds[k] // gcds[k - 1] for k in range(1, n + 1)]:
            return "type %r differs from the minor-gcd diagonal" % (d,)
    return None


# ---------------------------------------------------------------------------
# Heisenberg groups and exponents
# ---------------------------------------------------------------------------

def pairing(b, a, diag, m):
    return sum(int(x) * int(y) * (m // d) for x, y, d in zip(b, a, diag)) % m


def heis_product(x, y, diag, m):
    """(t, a, b)(t', a', b') = (t + t' + <b', a>, a + a', b + b')."""
    t, a, b = x
    t2, a2, b2 = y
    return ((t + t2 + pairing(b2, a, diag, m)) % m,
            tuple((p + s) % d for p, s, d in zip(a, a2, diag)),
            tuple((p + s) % d for p, s, d in zip(b, b2, diag)))


def schrodinger_on_delta(g, k, diag, m):
    """S_(t,a,b) e_k = zeta^(t + <b, k - a>) e_(k - a): (index, exponent)."""
    t, a, b = g
    y = tuple((x - s) % d for x, s, d in zip(k, a, diag))
    return y, (t + pairing(b, y, diag, m)) % m


def mult_on_delta(bprime, k, diag, m):
    return k, pairing(bprime, k, diag, m)


def degen_a(qmat, lam):
    return qval([[F(x) for x in row] for row in qmat], lam)


def twist_bilinear(sprime, lam, mu):
    return F(-sum(lam[i] * sprime[i][j] * mu[j]
                  for i in range(len(lam)) for j in range(len(mu)))) % 2


# ---------------------------------------------------------------------------
# Siegel space (binary64)
# ---------------------------------------------------------------------------

def trop_full_inverse(tau, gprime):
    """Tr via the block-inverse route: invert Im(tau), take the
    lower-right block, invert back."""
    im = np.imag(tau)
    if gprime == 0:
        return im
    block = np.linalg.inv(im)[gprime:, gprime:]
    return np.linalg.inv(block)


def gamma_by_solve(r, tau, diag):
    """(a tau + b D)(c tau + d D)^-1 D, by a linear solve on the
    transposed system instead of an explicit inverse."""
    g = tau.shape[0]
    rf = np.asarray(r, dtype=float)
    a, b, c, d = rf[:g, :g], rf[:g, g:], rf[g:, :g], rf[g:, g:]
    dd = np.diag([float(x) for x in diag])
    num = a @ tau + b @ dd
    den = c @ tau + d @ dd
    return np.linalg.solve(den.T, num.T).T @ dd


def close(x, ref, rel=1e-10):
    scale = max(1.0, float(np.max(np.abs(ref))))
    return float(np.max(np.abs(np.asarray(x) - ref))) <= rel * scale
