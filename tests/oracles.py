"""Independent oracles used to pin expected values in the test suite.

Everything here is deliberately written by the dumbest route available
(minor gcds, exhaustive enumeration, brute-force minimization) and kept
independent of the library implementations it checks.  Slow is fine;
these run on tiny inputs.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
import math

import numpy as np


# ---------------------------------------------------------------------------
# integer linear algebra
# ---------------------------------------------------------------------------

def snf_diag_via_minor_gcds(m):
    """Smith diagonal from the gcd-of-k-by-k-minors characterization.

    d_1 * ... * d_k = gcd of all k x k minors.
    """
    m = np.array(m, dtype=object)
    rows, cols = m.shape
    r = min(rows, cols)
    gcds = [1]
    for k in range(1, r + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                g = math.gcd(g, _int_det(m[np.ix_(ri, ci)]))
        gcds.append(abs(g))
    diag = []
    for k in range(1, r + 1):
        if gcds[k] == 0:
            diag.append(0)
        else:
            diag.append(gcds[k] // gcds[k - 1])
    return diag


def _int_det(m):
    """Exact determinant by cofactor expansion (tiny matrices only)."""
    n = m.shape[0]
    if n == 0:
        return 1
    if n == 1:
        return m[0, 0]
    total = 0
    for j in range(n):
        if m[0, j] == 0:
            continue
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1) ** j * m[0, j] * _int_det(minor)
    return total


def frac_det(m):
    """Exact rational determinant, cofactor expansion."""
    n = len(m)
    if n == 1:
        return Fraction(m[0][0])
    total = Fraction(0)
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * Fraction(m[0][j]) * frac_det(minor)
    return total


def lattice_inverse_reference(basis):
    """(inv_rows, den) of LatticeCoordinates by the Fraction route: the
    inverse from the Gauss-Jordan of [B | 1] over Fraction
    (row_reduce_reference), den the least common denominator of its
    entries and inv_rows the integer rows of den B^-1."""
    n = len(basis)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(basis)]
    inv = [row[n:] for row in row_reduce_reference(aug, n)[0]]
    den = math.lcm(*(x.denominator for row in inv for x in row))
    return tuple(tuple(int(x * den) for x in row) for row in inv), den


def frac_solve(a, b):
    """Solve a x = b exactly by Gaussian elimination; a square invertible."""
    n = len(a)
    aug = [[Fraction(a[i][j]) for j in range(n)] + [Fraction(b[i])]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


# ---------------------------------------------------------------------------
# the rational row reduction and the integer normal forms, over Fraction
# and numpy object arrays
# ---------------------------------------------------------------------------

def row_reduce_reference(rows, ncols=None):
    """Gauss-Jordan over Fraction with the library's pivot rule (first
    nonzero entry at or below the current row, in the first ncols
    columns): (reduced nonzero rows, pivot columns, determinant of the
    leading block, 0 unless it is square and nonsingular)."""
    a = [[Fraction(x) for x in row] for row in rows]
    if ncols is None:
        ncols = len(a[0]) if a else 0
    pivots, det = [], Fraction(1)
    for col in range(ncols):
        lead = len(pivots)
        piv = next((i for i in range(lead, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        if piv != lead:
            a[lead], a[piv] = a[piv], a[lead]
            det = -det
        p = a[lead][col]
        det *= p
        pr = a[lead] = [x / p for x in a[lead]]
        for i, row in enumerate(a):
            if i != lead and row[col] != 0:
                f = row[col]
                a[i] = [x - f * y for x, y in zip(row, pr)]
        pivots.append(col)
    if not len(pivots) == len(a) == ncols:
        det = Fraction(0)
    return a[:len(pivots)], pivots, det


def kernel(rows, ncols):
    """Basis of {v : <row, v> = 0 for every row} in Q^ncols, one vector
    per free column of the reduced echelon form, with 1 at that column
    and 0 at the other free columns."""
    reduced, pivots, _ = row_reduce_reference(rows, ncols)
    out = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        out.append(tuple(v))
    return out


def is_positive_semidefinite(m):
    """Symmetric with all principal minors nonnegative."""
    a = [[Fraction(x) for x in row] for row in np.array(m, dtype=object)]
    n = len(a)
    if any(a[i][j] != a[j][i] for i in range(n) for j in range(n)):
        return False
    return all(frac_det([[a[i][j] for j in idx] for i in idx]) >= 0
               for k in range(1, n + 1) for idx in combinations(range(n), k))


def _int_matrix(m):
    a = np.array(m, dtype=object)
    out = np.empty(a.shape, dtype=object)
    for idx in np.ndindex(a.shape):
        out[idx] = int(a[idx])
    return out


def hermite_normal_form_reference(m):
    """Row-style HNF (h, u), h = u m, by gcd row operations on numpy
    object arrays, with the library's pivot and reduction rules."""
    h = _int_matrix(m)
    rows, cols = h.shape
    u = np.eye(rows, dtype=object)
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        while True:
            nz = [i for i in range(r, rows) if h[i, c] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: (abs(h[i, c]), i))
            if piv != r:
                h[[r, piv]] = h[[piv, r]]
                u[[r, piv]] = u[[piv, r]]
            if all(h[i, c] == 0 for i in range(r + 1, rows)):
                break
            for i in range(r + 1, rows):
                if h[i, c] != 0:
                    q = h[i, c] // h[r, c]
                    h[i] = h[i] - q * h[r]
                    u[i] = u[i] - q * u[r]
        if h[r, c] == 0:
            continue
        if h[r, c] < 0:
            h[r] = -h[r]
            u[r] = -u[r]
        for i in range(r):
            q = h[i, c] // h[r, c]
            if q != 0:
                h[i] = h[i] - q * h[r]
                u[i] = u[i] - q * u[r]
        r += 1
    return h, u


def smith_normal_form_reference(m):
    """SNF (diag, u, v), u m v = diag, by the library's minimal-entry
    pivoting on numpy object arrays."""
    d = _int_matrix(m)
    rows, cols = d.shape
    u, v = np.eye(rows, dtype=object), np.eye(cols, dtype=object)
    n = min(rows, cols)

    def min_entry(s):
        best = None
        for i in range(s, rows):
            for j in range(s, cols):
                if d[i, j] != 0 and (best is None
                                     or abs(d[i, j]) < abs(d[best[0], best[1]])):
                    best = (i, j)
        return best

    for s in range(n):
        while True:
            pos = min_entry(s)
            if pos is None:
                break
            i, j = pos
            if i != s:
                d[[s, i]] = d[[i, s]]
                u[[s, i]] = u[[i, s]]
            if j != s:
                d[:, [s, j]] = d[:, [j, s]]
                v[:, [s, j]] = v[:, [j, s]]
            p = d[s, s]
            dirty = False
            for i in range(s + 1, rows):
                if d[i, s] != 0:
                    q = d[i, s] // p
                    d[i] = d[i] - q * d[s]
                    u[i] = u[i] - q * u[s]
                    if d[i, s] != 0:
                        dirty = True
            for j in range(s + 1, cols):
                if d[s, j] != 0:
                    q = d[s, j] // p
                    d[:, j] = d[:, j] - q * d[:, s]
                    v[:, j] = v[:, j] - q * v[:, s]
                    if d[s, j] != 0:
                        dirty = True
            if dirty:
                continue
            offender = None
            for i in range(s + 1, rows):
                for j in range(s + 1, cols):
                    if d[i, j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            d[s] = d[s] + d[offender]
            u[s] = u[s] + u[offender]
        if d[s, s] < 0:
            d[:, s] = -d[:, s]
            v[:, s] = -v[:, s]
    return [int(d[k, k]) for k in range(n)], u, v


def symplectic_normal_form_reference(e):
    """(delta, B) with B e B^T = [[0, diag(delta)], [-diag(delta), 0]]
    for a nondegenerate alternating integer form e, by the library's
    congruence moves on numpy object arrays; None if e is degenerate."""
    a = _int_matrix(e)
    n = a.shape[0]
    if row_reduce_reference(a.tolist())[2] == 0:
        return None
    g = n // 2
    m = a.copy()
    b = np.eye(n, dtype=object)

    def congr_swap(i, j):
        m[[i, j]] = m[[j, i]]
        m[:, [i, j]] = m[:, [j, i]]
        b[[i, j]] = b[[j, i]]

    def congr_add(t, src, c):
        m[t] = m[t] + c * m[src]
        m[:, t] = m[:, t] + c * m[:, src]
        b[t] = b[t] + c * b[src]

    def congr_neg(i):
        m[i] = -m[i]
        m[:, i] = -m[:, i]
        b[i] = -b[i]

    for s in range(0, n, 2):
        while True:
            best = None
            for i in range(s, n):
                for j in range(i + 1, n):
                    if m[i, j] != 0 and (best is None
                                         or abs(m[i, j]) < abs(m[best[0], best[1]])):
                        best = (i, j)
            i, j = best
            if i != s:
                congr_swap(s, i)
                if j == s:
                    j = i
            if j != s + 1:
                congr_swap(s + 1, j)
            if m[s, s + 1] < 0:
                congr_neg(s + 1)
            p = m[s, s + 1]
            dirty = False
            for t in range(s + 2, n):
                if m[s, t] != 0:
                    q = m[s, t] // p
                    congr_add(t, s + 1, -q)
                    if m[s, t] != 0:
                        dirty = True
                if m[s + 1, t] != 0:
                    q = m[s + 1, t] // p
                    congr_add(t, s, q)
                    if m[s + 1, t] != 0:
                        dirty = True
            if dirty:
                continue
            offender = None
            for i2 in range(s + 2, n):
                for j2 in range(i2 + 1, n):
                    if m[i2, j2] % p != 0:
                        offender = i2
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            congr_add(s, offender, 1)

    perm = [2 * k for k in range(g)] + [2 * k + 1 for k in range(g)]
    p = np.zeros((n, n), dtype=object)
    for new, old in enumerate(perm):
        p[new, old] = 1
    b = p @ b
    m = p @ m @ p.T
    return tuple(int(m[k, g + k]) for k in range(g)), b


# ---------------------------------------------------------------------------
# Delaunay via brute-force lower hull
# ---------------------------------------------------------------------------

def brute_force_delaunay_cells(qmat, window):
    """All lower-hull cells of the lift x -> 1/2 Q(x), by exhaustion.

    Enumerates every affinely independent (r+1)-subset of the window,
    takes its lifted hyperplane, and keeps the full equality set when no
    site lies strictly below.  Returns a set of frozensets of points.
    Only for r in {1, 2} and small windows.
    """
    r = len(qmat)
    pts = [p for p in product(range(-window, window + 1), repeat=r)]

    def h(x):
        return Fraction(sum(qmat[i][j] * x[i] * x[j]
                            for i in range(r) for j in range(r)), 2)

    cells = set()
    for sub in combinations(pts, r + 1):
        # hyperplane l(x) = <a, x> + b through the lifted subset
        mat = [list(p) + [1] for p in sub]
        if frac_det(mat) == 0:
            continue
        coeffs = frac_solve(mat, [h(p) for p in sub])
        a, b = coeffs[:r], coeffs[r]
        lo = [p for p in pts if h(p) - sum(ai * pi for ai, pi in zip(a, p)) - b < 0]
        if lo:
            continue
        eq = frozenset(p for p in pts
                       if h(p) == sum(ai * pi for ai, pi in zip(a, p)) + b)
        cells.add(eq)
    # drop non-maximal equality sets
    out = set()
    for c in cells:
        if not any(c < d for d in cells if d != c):
            out.add(c)
    return out


def normal_through_reference(points):
    """Primitive integer normal of the hyperplane spanned by points in
    Q^r, from the one rational kernel vector of their difference rows;
    None unless that kernel is a line."""
    from tropab._geometry import primitive, vsub

    pts = list(points)
    ker = kernel([vsub(p, pts[0]) for p in pts[1:]], len(pts[0]))
    if len(ker) != 1:
        return None
    den = math.lcm(*(x.denominator for x in ker[0]))
    return primitive(x * den for x in ker[0])


def polytope_facets_reference(points):
    """Facets (facet_points, normal, offset) of the hull of a
    full-dimensional point set in Q^r, <normal, x> <= offset inside,
    sorted by (normal, offset): every r-subset spanning a hyperplane,
    with the sides of the points compared over Fraction."""
    from tropab._geometry import dot

    pts = [tuple(p) for p in points]
    r = len(pts[0])
    seen = {}
    for sub in combinations(pts, r):
        n = normal_through_reference(sub)
        if n is None:
            continue
        c = dot(n, sub[0])
        sides = {(-1 if dot(n, p) < c else (1 if dot(n, p) > c else 0))
                 for p in pts}
        if 1 in sides and -1 in sides:
            continue
        if 1 in sides:
            n = tuple(-x for x in n)
            c = -c
        facet = tuple(sorted(p for p in pts if dot(n, p) == c))
        seen[(n, c)] = facet
    return [(f, n, c) for (n, c), f in sorted(seen.items())]


def polytope_volume_reference(points):
    """Volume of the hull of a full-dimensional point set in Q^r, as a
    sum of pyramids with apex points[0] over polytope_facets_reference:
    a facet <n, x> = c at height (c - <n, p0>) / |n| has area |n| / |n_k|
    times the volume of its projection along the first k with n_k != 0;
    in rank 1 the volume is max - min."""
    pts = [tuple(Fraction(x) for x in p) for p in points]
    r = len(pts[0])
    if r == 1:
        return max(pts)[0] - min(pts)[0]
    total = Fraction(0)
    for facet, n, c in polytope_facets_reference(pts):
        k = next(k for k, x in enumerate(n) if x)
        total += (c - sum(a * b for a, b in zip(n, pts[0]))) * \
            polytope_volume_reference([p[:k] + p[k + 1:] for p in facet]) \
            / abs(n[k])
    return total / r


def lower_hull_reference(sites, heights, r):
    """Lower-hull facets of the lifted sites (x, heights[x]) by
    gift-wrapping over Fraction, as (equality set, (a, b)) with
    slack(x) = heights[x] - <a, x> - b >= 0.

    The rational form of the library's integer hull: it walks the same
    ridges in the same order (depth-first, the ridges of a facet from
    polytope_facets_reference, the initial tilt directions from the
    kernel above), so the two yield the same facet sequence.
    """
    from tropab._geometry import dot, vsub

    site_list = list(sites)

    def slack(ell, x):
        a, b = ell
        return heights[x] - (dot(a, x) + b)

    def tilt(ell, u, c0):
        a, b = ell
        best_t, tight = None, []
        for x in site_list:
            d = dot(u, x) - c0
            if d <= 0:
                continue
            t = Fraction(slack(ell, x), d)
            if best_t is None or t < best_t:
                best_t, tight = t, [x]
            elif t == best_t:
                tight.append(x)
        if best_t is None:
            return None, None
        ell2 = (tuple(ai + best_t * ui for ai, ui in zip(a, u)),
                b - best_t * c0)
        return ell2, [x for x in site_list if slack(ell2, x) == 0]

    m = min(heights.values())
    ell = ((Fraction(0),) * r, m)
    tight = [x for x in site_list if slack(ell, x) == 0]
    while len(row_reduce_reference([vsub(x, tight[0]) for x in tight[1:]],
                                   r)[1]) < r:
        u = kernel([vsub(x, tight[0]) for x in tight[1:]], r)[0]
        c = dot(u, tight[0])
        ell2, tight2 = tilt(ell, u, c)
        if ell2 is None:
            u, c = tuple(-x for x in u), -c
            ell2, tight2 = tilt(ell, u, c)
        ell, tight = ell2, tight2
    start = frozenset(tight)
    facet_fn = {start: ell}
    yield start, ell
    queue = [start]
    done_ridges = set()
    while queue:
        eq = queue.pop()
        ell = facet_fn[eq]
        for ridge, n, c in polytope_facets_reference(sorted(eq)):
            rkey = (frozenset(ridge), frozenset(eq))
            if rkey in done_ridges:
                continue
            done_ridges.add(rkey)
            ell2, tight2 = tilt(ell, n, c)
            if ell2 is None:
                continue
            new_eq = frozenset(tight2)
            if new_eq not in facet_fn:
                facet_fn[new_eq] = ell2
                queue.append(new_eq)
                yield new_eq, ell2


def circumcenter(vertices, qmat):
    """Q-circumcenter of a full-dimensional simplex/cell, or None.

    Solves Q(v - c) = const via the linear system relative to vertex 0.
    """
    r = len(qmat)
    v0 = vertices[0]
    rows, rhs = [], []
    for v in vertices[1:]:
        row = [2 * sum(Fraction(qmat[i][j]) * (v[j] - v0[j]) for j in range(r))
               for i in range(r)]
        rows.append(row)
        rhs.append(_qval(qmat, v) - _qval(qmat, v0))
    if len(rows) < r:
        return None
    sq = rows[:r]
    if frac_det(sq) == 0:
        return None
    c = frac_solve(sq, rhs[:r])
    # verify the remaining equations too
    for row, t in zip(rows, rhs):
        if sum(ri * ci for ri, ci in zip(row, c)) != t:
            return None
    return c


def _qval(qmat, x):
    r = len(qmat)
    return sum(Fraction(qmat[i][j]) * x[i] * x[j]
               for i in range(r) for j in range(r))


def q_dist(qmat, x, c):
    d = [Fraction(xi) - ci for xi, ci in zip(x, c)]
    r = len(qmat)
    return sum(Fraction(qmat[i][j]) * d[i] * d[j]
               for i in range(r) for j in range(r))


def empty_sphere_delaunay_cells(qmat):
    """The Delaunay cells of Z^r under the positive definite form qmat,
    by empty circumellipsoids: one sorted vertex tuple per orbit of
    translations, with its least vertex at 0.

    Every cell with vertex 0 has r independent edges at 0, and an edge
    0 v of the Delaunay paving is dual to a facet of the Voronoi cell of
    0, so v is Voronoi-relevant: +-v are the only shortest vectors of
    v + 2 Z^r.  Since v / 2 lies in that Voronoi cell, Q(v) is at most
    four times the squared covering radius, which nearest-plane rounding
    bounds by the sum of the squared Gram-Schmidt lengths D_i / D_(i-1)
    of the standard basis (D_i the leading principal minors); a box scan
    finds every such v.  Each independent r-set of relevant vectors spans
    a simplex with vertex 0; when no lattice point lies strictly inside
    its circumellipsoid (an exact box scan), the lattice points on it are
    a cell.  The volumes of the cells (polytope_volume_reference) must
    sum to 1, or AssertionError.
    """
    r = len(qmat)
    scale = math.lcm(*(Fraction(x).denominator for row in qmat for x in row))
    q = [[int(Fraction(x) * scale) for x in row] for row in qmat]
    inv_diag = [frac_solve(q, [int(i == j) for j in range(r)])[i]
                for i in range(r)]
    minors = [1] + [frac_det([row[:k] for row in q[:k]])
                    for k in range(1, r + 1)]
    bound = sum(minors[k] / minors[k - 1] for k in range(1, r + 1))

    def qint(x):
        return sum(q[i][j] * x[i] * x[j] for i in range(r) for j in range(r))

    def ball(centre, radius):
        """(x, Q(x - centre)) for the lattice points x of the box around
        the ellipsoid Q(x - centre) <= radius."""
        den = math.lcm(*(c.denominator for c in centre))
        num = [int(c * den) for c in centre]
        ranges = []
        for c, w in zip(centre, inv_diag):
            b = math.isqrt(math.floor(radius * w)) + 1
            ranges.append(range(math.floor(c - b), math.ceil(c + b) + 1))
        for x in product(*ranges):
            yield x, Fraction(qint([den * a - b for a, b in zip(x, num)]),
                              den * den)

    zero = (Fraction(0),) * r
    short = [x for x, d in ball(zero, bound) if any(x) and d <= bound]
    relevant = []
    for v in short:
        coset = [w for w in short
                 if all((a - b) % 2 == 0 for a, b in zip(v, w))]
        least = min(qint(w) for w in coset)
        if sorted(w for w in coset if qint(w) == least) == \
                sorted([v, tuple(-x for x in v)]):
            relevant.append(v)
    cells, centres = set(), set()
    for sub in combinations(relevant, r):
        if frac_det([list(v) for v in sub]) == 0:
            continue
        centre = tuple(circumcenter([zero] + list(sub), q))
        if centre in centres:
            continue
        centres.add(centre)
        radius = _qval(q, centre)
        on = []
        for x, d in ball(centre, radius):
            if d < radius:
                break
            if d == radius:
                on.append(x)
        else:
            low = min(on)
            cells.add(tuple(sorted(tuple(a - b for a, b in zip(x, low))
                                   for x in on)))
    assert sum(polytope_volume_reference(c) for c in cells) == 1, cells
    return cells


def equidistant_centre(vertices, qmat):
    """The point c of the affine hull of the vertices with Q(v - c) the
    same at every vertex v, or None unless there is exactly one.  With
    c = v_0 + sum t_k b_k over the greedy independent differences
    b_k = v - v_0, each equation reads 2 B(v - v_0, b) . t = Q(v - v_0)."""
    v0 = [Fraction(x) for x in vertices[0]]
    diffs = [[Fraction(a) - b for a, b in zip(v, v0)] for v in vertices[1:]]
    basis = []
    for dv in diffs:
        if len(row_reduce_reference(basis + [dv])[1]) > len(basis):
            basis.append(dv)
    d = len(basis)
    system = [[2 * sum(Fraction(qmat[i][j]) * dv[i] * bk[j]
                       for i in range(len(v0)) for j in range(len(v0)))
               for bk in basis] + [_qval(qmat, dv)] for dv in diffs]
    reduced, pivots, _ = row_reduce_reference(system, d + 1)
    if pivots != list(range(d)):
        return None
    ts = [row[d] for row in reduced]
    return [x + sum((t * bk[i] for t, bk in zip(ts, basis)), Fraction(0))
            for i, x in enumerate(v0)]


def empty_sphere_reference(cell, q, window):
    """The empty-sphere test over a window: with c the Q-equidistant
    centre of the vertices (False if there is none), every lattice point
    p with |p_i - floor(c_i)| <= window, other than a vertex, must lie
    strictly outside the sphere through the vertices."""
    qm = q.matrix.tolist()
    verts = [tuple(v) for v in cell]
    c = equidistant_centre(verts, qm)
    if c is None:
        return False
    radius = q_dist(qm, verts[0], c)
    box = [range(math.floor(x) - window, math.floor(x) + window + 1)
           for x in c]
    return all(p in verts or q_dist(qm, p, c) > radius for p in product(*box))


def ellipsoid_window(cell, q):
    """A window at which empty_sphere_reference sees every lattice point
    of the cell's circumellipsoid Q(p - c) <= R: there
    |p_i - c_i| <= sqrt(R (Q^-1)_ii)."""
    qm = q.matrix.tolist()
    verts = [tuple(v) for v in cell]
    c = equidistant_centre(verts, qm)
    if c is None:
        return 0
    radius = q_dist(qm, verts[0], c)
    r = len(qm)
    return max(math.isqrt(math.floor(radius * frac_solve(
        qm, [int(i == j) for j in range(r)])[i])) + 2 for i in range(r))


def locate_by_scan(cells, period_basis, point):
    """(cell index, shift) with point in cells[idx] + shift, or None.

    Reduces the point into the half-open fundamental parallelepiped by a
    lattice vector t0, then scans cell by cell and, within a cell, the
    shifts B k + t0 for k in [-K, K]^r in lexicographic order (B the
    period basis, K one more than the largest absolute period coordinate
    of the cell's vertices, so every translate meeting the parallelepiped
    is scanned); the first closed translate containing the point wins.
    Containment is tested against the supporting hyperplanes of the
    vertex hull, found from every r-subset of vertices by cofactors.
    """
    r = len(period_basis)
    pt = [Fraction(x) for x in point]
    coords = frac_solve(period_basis, pt)
    floors = [c.numerator // c.denominator for c in coords]
    t0 = [sum(period_basis[i][j] * floors[j] for j in range(r))
          for i in range(r)]
    for idx, (halfspaces, box, span) in enumerate(_scan_data(
            tuple(tuple(map(tuple, c)) for c in cells),
            tuple(map(tuple, period_basis)))):
        for k in product(range(-span, span + 1), repeat=r):
            shift = tuple(t0[i] + sum(period_basis[i][j] * k[j]
                                      for j in range(r)) for i in range(r))
            local = [p - s for p, s in zip(pt, shift)]
            if all(lo <= x <= hi for x, (lo, hi) in zip(local, box)) and \
                    all(sum(n * c for n, c in zip(normal, local)) <= level
                        for normal, level in halfspaces):
                return idx, shift
    return None


@lru_cache(maxsize=64)
def _scan_data(cells, period_basis):
    """Per cell, for locate_by_scan: its halfspaces, its coordinate
    bounding box (a quick rejection that changes no answer) and the
    span K of its scan; kept for the cell lists scanned most recently."""
    data = []
    for verts in cells:
        big = max(abs(c) for v in verts for c in frac_solve(period_basis, v))
        box = tuple((min(xs), max(xs)) for xs in zip(*verts))
        data.append((tuple(_halfspaces(verts)), box, math.ceil(big) + 1))
    return tuple(data)


def _halfspaces(verts):
    """(normal, level) with <normal, x> <= level for every supporting
    hyperplane through r vertices of a full-dimensional vertex set."""
    r = len(verts[0])
    out = []
    for sub in combinations(verts, r):
        diffs = [[Fraction(a) - b for a, b in zip(v, sub[0])]
                 for v in sub[1:]]
        normal = [(-1) ** i * (frac_det([d[:i] + d[i + 1:] for d in diffs])
                               if diffs else 1) for i in range(r)]
        if not any(normal):
            continue
        level = sum(n * c for n, c in zip(normal, sub[0]))
        vals = [sum(n * c for n, c in zip(normal, v)) for v in verts]
        if all(v <= level for v in vals):
            out.append((normal, level))
        elif all(v >= level for v in vals):
            out.append(([-n for n in normal], -level))
    return out


# ---------------------------------------------------------------------------
# second-Voronoi cone membership by recomputing Delaunay
# ---------------------------------------------------------------------------

def voronoi_cone_reference(paving, q):
    """Is q in the closed cone C(paving)?  True iff Delaunay(q) is equal
    to or coarser than the paving: every cell's barycentre is located in
    a Delaunay paving of q, computed afresh at the paving's period basis
    and window, and the cell's vertices must lie in the cell found.
    Semidefinite forms pass to the quotient by the exact kernel lattice;
    a form that is not semidefinite is outside.  Raises what
    delaunay_subdivision raises."""
    from tropab import _geometry as geom
    from tropab.quadform_delaunay import QuadraticForm, delaunay_subdivision

    if q.is_positive_definite():
        dq = delaunay_subdivision(q, paving.period_basis,
                                  max(paving.window, 2))
        return all(_some_cell_contains(dq, c.vertices) for c in paving.cells)
    if not is_positive_semidefinite(q.matrix):
        return False
    if all(q.matrix[i, j] == 0 for i in range(q.rank) for j in range(q.rank)):
        return True  # single cell = everything; coarser than any paving
    pi, sec, _ = _kernel_quotient(q)
    qprime = QuadraticForm(sec.T @ q.matrix @ sec)
    pb_quot = _projected_lattice_basis(pi @ paving.period_basis)
    dq = delaunay_subdivision(qprime, pb_quot, max(paving.window + 1, 3))
    pi_rows = pi.tolist()
    return all(_some_cell_contains(dq, [tuple(int(geom.dot(row, v))
                                              for row in pi_rows)
                                        for v in c.vertices])
               for c in paving.cells)


def _some_cell_contains(dq, points):
    from tropab import _geometry as geom
    from tropab.errors import InvalidPaving

    pts = [tuple(Fraction(x) for x in p) for p in points]
    bary = tuple(sum(p[i] for p in pts) / len(pts)
                 for i in range(len(pts[0])))
    try:
        idx, shift = dq.find_containing_cell(bary)
    except InvalidPaving:
        return False
    facets = [(f, n, c + geom.dot(n, shift))
              for f, n, c in dq.cell_facets(idx)]
    return all(geom.point_in_polytope(p, facets) for p in pts)


def _kernel_quotient(q):
    """saturated_quotient for Z^r -> Z^r / ker(q): the rational kernel
    basis, with denominators cleared, spans a lattice whose saturation
    is ker(q) in Z^r."""
    from tropab.exact_linalg import LatticeCoordinates, saturated_quotient

    ints = [LatticeCoordinates.clear_denominators(v)[0]
            for v in kernel(q.matrix, q.rank)]
    return saturated_quotient(list(zip(*ints)))


def _projected_lattice_basis(cols):
    """A square basis for the lattice generated by the columns of cols."""
    from tropab.exact_linalg import as_int_matrix, hermite_normal_form

    h, _ = hermite_normal_form(as_int_matrix(cols).T)
    return list(zip(*(row for row in h.tolist() if any(row))))


# ---------------------------------------------------------------------------
# the cy-cone over a window
# ---------------------------------------------------------------------------

def cone_cy_reference(psi, t, period_basis):
    """Is the interpolation g of psi over t convex and below psi at every
    lattice point of [-window, window]^r (t's window) that is not a
    vertex?  Points whose residue psi does not sample are skipped; the
    answer is certified only when the window holds every coset of Z^r
    modulo t's period lattice."""
    from tropab import _geometry as geom
    from tropab.errors import InvalidPaving, MissingVertexValue
    from tropab.exact_linalg import LatticeCoordinates, as_int_matrix
    from tropab.pavings_pwl import (bending_parameters,
                                    interpolate_on_triangulation,
                                    quasiperiodic_decompose)

    pb = as_int_matrix(period_basis)
    lattice = LatticeCoordinates(pb)
    if not all(lattice.contains(col) for col in zip(*t.period_basis)):
        raise InvalidPaving("period_basis does not generate a lattice "
                            "containing the paving's period lattice",
                            field="period_basis")
    dec = quasiperiodic_decompose(psi, pb)
    g = interpolate_on_triangulation(psi, t)
    if any(b[0] < 0 for b in bending_parameters(g).values()):
        return False
    vert_orbits = t.vertex_orbits()
    for alpha in product(range(-t.window, t.window + 1), repeat=t.rank):
        if geom.vsub(alpha, t.lattice.shift(alpha)) in vert_orbits:
            continue
        try:
            target = dec.reconstruct(alpha)
        except MissingVertexValue:
            continue
        if g.evaluate(alpha) > target:
            return False
    return True


# ---------------------------------------------------------------------------
# quasiperiodic decomposition, 1-d slow route
# ---------------------------------------------------------------------------

def second_difference_quadratic_1d(samples, period):
    """Fit psi = B x^2 / 2 + L x / 2 + periodic on integer samples.

    Returns (B, L, periodic_dict) or None if the second differences
    along the period are not constant.  samples: dict int -> Fraction.
    """
    xs = sorted(samples)
    seconds = set()
    for x in xs:
        if x + 2 * period in samples and x + period in samples:
            seconds.add(samples[x + 2 * period] - 2 * samples[x + period]
                        + samples[x])
    if len(seconds) != 1:
        return None
    bpp = seconds.pop()          # B(period, period)
    B = Fraction(bpp, period * period)
    # A(period) from psi(x + p) - psi(x) = B*p*x + A(p), checked constant
    aps = set()
    for x in xs:
        if x + period in samples:
            aps.add(samples[x + period] - samples[x] - B * period * x)
    if len(aps) != 1:
        return None
    ap = aps.pop()               # A(p) = B p^2 / 2 + L p / 2
    L = (ap - B * period * period / 2) * 2 / period
    per = {}
    for x in xs:
        per[x % period] = samples[x] - (B * x * x / 2 + L * x / 2)
    # consistency of the periodic part
    for x in xs:
        if per[x % period] != samples[x] - (B * x * x / 2 + L * x / 2):
            return None
    return B, L, per


# ---------------------------------------------------------------------------
# Siegel tropicalization, full-inverse route
# ---------------------------------------------------------------------------

def trop_full_inverse(tau, gprime):
    """Tr via the block-inverse lemma detour: invert Im(tau) entirely,
    take the lower-right block, invert back."""
    im = np.imag(tau)
    if gprime == 0:
        return im
    full_inv = np.linalg.inv(im)
    block = full_inv[gprime:, gprime:]
    return np.linalg.inv(block)


# The numpy Siegel maps the package used before it computed on rows of
# Python complex numbers, kept as the reference: the same checks, the
# same refusals, LAPACK's inverse, Cholesky and SVD condition number.

class SiegelPointReference:
    """tau as a symmetrized complex array, with positive definite
    imaginary part."""

    def __init__(self, tau, tol=1e-10):
        tau = np.asarray(tau, dtype=complex)
        if tau.ndim != 2 or tau.shape[0] != tau.shape[1]:
            raise ValueError("tau must be square")
        if np.max(np.abs(tau - tau.T)) > tol:
            raise ValueError("tau must be symmetric within tolerance")
        self.tau = (tau + tau.T) / 2
        self.g = tau.shape[0]
        self.tol = tol
        if min_cholesky_pivot_reference(self.tau.imag) <= tol:
            raise ValueError("Im(tau) must be positive definite")


def min_cholesky_pivot_reference(m):
    """Smallest pivot of the Cholesky factorization, or -inf when the
    factorization fails (matrix not positive definite)."""
    try:
        c = np.linalg.cholesky((m + m.T) / 2)
    except np.linalg.LinAlgError:
        return -np.inf
    return float(np.min(np.diag(c)) ** 2)


def gamma_action_reference(r, tau, delta):
    """(a tau + b D)(c tau + d D)^{-1} D on a SiegelPointReference,
    r = [[a, b], [c, d]] already known to be symplectic."""
    from tropab.errors import IllConditionedBlock, NearSingularDenominator
    g = tau.g
    rf = np.array(r, dtype=float)
    a, b = rf[:g, :g], rf[:g, g:]
    c, d = rf[g:, :g], rf[g:, g:]
    dd = np.diag([float(x) for x in delta.diag])
    denom = c @ tau.tau + d @ dd
    if np.linalg.cond(denom) > 1.0 / tau.tol:
        raise NearSingularDenominator("c tau + d delta is near singular",
                                      field="tau")
    new = (a @ tau.tau + b @ dd) @ np.linalg.inv(denom) @ dd
    try:    # new is square and symmetric: only Im(new) can be refused
        return SiegelPointReference((new + new.T) / 2, tol=tau.tol)
    except ValueError:
        raise IllConditionedBlock("the image leaves the binary64 Siegel "
                                  "space", field="tau") from None


def cayley_transform_reference(tau):
    """Z = (tau - iI)(tau + iI)^{-1} on a SiegelPointReference."""
    from tropab.errors import IllConditionedBlock, NearSingularDenominator
    g = tau.g
    eye = np.eye(g)
    denom = tau.tau + 1j * eye
    if np.linalg.cond(denom) > 1.0 / tau.tol:
        raise NearSingularDenominator("tau + iI is near singular",
                                      field="tau")
    z = (tau.tau - 1j * eye) @ np.linalg.inv(denom)
    z = (z + z.T) / 2
    if min_cholesky_pivot_reference((eye - z @ np.conj(z)).real) <= 0:
        raise IllConditionedBlock("I - Z conj(Z) is not positive definite "
                                  "in binary64", field="tau")
    return z


def tropicalize_reference(tau, gprime):
    """Im(tau_2) - Im(tau_3)^T Im(tau_1)^{-1} Im(tau_3) on a
    SiegelPointReference."""
    from tropab.errors import IllConditionedBlock
    gp = gprime
    g = tau.g
    if not 0 <= gp < g:
        raise ValueError("need 0 <= gprime < g")
    im = tau.tau.imag
    if gp == 0:
        return (im + im.T) / 2
    im1 = im[:gp, :gp]
    im3 = im[:gp, gp:]
    im2 = im[gp:, gp:]
    if min_cholesky_pivot_reference(im1) <= tau.tol:
        raise IllConditionedBlock("leading block of Im(tau) is too close "
                                  "to singular")
    tr = im2 - im3.T @ np.linalg.inv(im1) @ im3
    return (tr + tr.T) / 2


# ---------------------------------------------------------------------------
# Hilbert bases and face quotients of toric monoids
# ---------------------------------------------------------------------------

def _in_cone(functionals, p):
    return all(sum(a * b for a, b in zip(u, p)) >= 0 for u in functionals)


def cone_rays_reference(functionals, r):
    """Extremal rays, primitive, of the sharp cone {x : u . x >= 0} in
    rank r <= 3: a ray is cut out by r - 1 of the functionals, so each
    is +-1 (rank 1), +- the perpendicular of one functional (rank 2) or
    +- the cross product of two (rank 3) that lies in the cone."""
    if r == 1:
        cands = [(1,)]
    elif r == 2:
        cands = [(-u[1], u[0]) for u in functionals]
    else:
        cands = [(a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                  a[0] * b[1] - a[1] * b[0])
                 for a, b in combinations(functionals, 2)]
    rays = set()
    for c in cands:
        g = math.gcd(*c)
        if g:
            for d in (tuple(x // g for x in c), tuple(-x // g for x in c)):
                if _in_cone(functionals, d):
                    rays.add(d)
    return sorted(rays)


def hilbert_basis_sieve(functionals, r):
    """The all-pairs sieve, irreducible iff no p - a is a nonzero monoid
    element, over the box |x_c| <= sum of |v_c| over the rays v of
    cone_rays_reference, which holds every irreducible element.  Sorted
    by (L1 norm, point)."""
    rays = cone_rays_reference(functionals, r)
    box = [sum(abs(v[c]) for v in rays) for c in range(r)]
    pts = [p for p in product(*(range(-b, b + 1) for b in box))
           if any(p) and _in_cone(functionals, p)]
    out = [p for p in pts
           if not any(any(d) and _in_cone(functionals, d)
                      for d in (tuple(x - y for x, y in zip(p, a))
                                for a in pts))]
    return sorted(out, key=lambda p: (sum(map(abs, p)), p))


def hilbert_basis_rank2_reference(functionals):
    """The Hilbert basis of a sharp cone in rank 2 by the Hirzebruch-Jung
    continued fraction (Oda, Convex Bodies and Algebraic Geometry, 1988,
    section 1.6): with rays v, w and det(v, w) = n > 0, u_0 = v and
    u_{i+1} is the lattice point x of cone(u_i, w) with det(u_i, x) = 1
    nearest the ray of u_i, x = x_0 + t u_i for the least t with
    det(x, w) >= 0; then u_{i-1} + u_{i+1} = b_i u_i with n / q =
    [b_1, ..., b_s] and the u_i end at w.  Sorted by (L1 norm, point)."""
    rays = cone_rays_reference(functionals, 2)
    if len(rays) < 2:
        return rays

    def det(a, b):
        return a[0] * b[1] - a[1] * b[0]
    v, w = rays
    if det(v, w) < 0:
        v, w = w, v
    basis = [v]
    u = v
    while u != w:
        # det(u, x0) = u_0 x0_1 - u_1 x0_0 = 1
        _, s, t = _exgcd(u[0], u[1])
        x0 = (-t, s)
        step = -(det(x0, w) // det(u, w))
        u = (x0[0] + step * u[0], x0[1] + step * u[1])
        basis.append(u)
    return sorted(basis, key=lambda p: (sum(map(abs, p)), p))


def fourier_motzkin_projection(functionals, sec, face_basis):
    """The image of the cone {x : u . x >= 0} in the quotient by the span
    of the columns of face_basis, by Fourier-Motzkin elimination: write
    x = sec y + face_basis z and eliminate the z_i in turn, each row
    positive on z_i combined with each row negative on it, the rows
    zero on it kept.  Returns (the nonzero y-rows, gcd-reduced with
    their sign, deduplicated and sorted; the number of combined rows
    formed)."""
    sec_cols, face_cols = list(zip(*sec)), list(zip(*face_basis))

    def dots(u, cols):
        return [sum(a * b for a, b in zip(u, c)) for c in cols]
    rows = [(dots(u, sec_cols), dots(u, face_cols)) for u in functionals]
    combined = 0
    for zi in range(len(face_cols)):
        pos = [rw for rw in rows if rw[1][zi] > 0]
        neg = [rw for rw in rows if rw[1][zi] < 0]
        rows = [rw for rw in rows if rw[1][zi] == 0]
        for yp, zp in pos:
            for yn, zn in neg:
                a, b = zp[zi], -zn[zi]
                rows.append(([b * x + a * t for x, t in zip(yp, yn)],
                             [b * x + a * t for x, t in zip(zp, zn)]))
                combined += 1
    out = set()
    for y, _ in rows:
        g = math.gcd(*y)
        if g:
            out.add(tuple(x // g for x in y))
    return sorted(out), combined


# ---------------------------------------------------------------------------
# interpolation of x^2/2 on the integers (the recurring g=1 function)
# ---------------------------------------------------------------------------

def interp_half_square(x):
    """Value at rational x of the piecewise-linear interpolation of n^2/2."""
    x = Fraction(x)
    n = x.numerator // x.denominator  # floor
    return Fraction(2 * n + 1, 2) * x - Fraction(n * (n + 1), 2)


def homogenized(f, d, x):
    """phi~(d, x) = d * f(x / d) for d >= 1; (0, 0) -> 0."""
    if d == 0:
        assert x == 0
        return Fraction(0)
    return d * f(Fraction(x, d))


# ---------------------------------------------------------------------------
# piecewise affine functions by the Fraction formula
# ---------------------------------------------------------------------------

def shifted_affine_reference(f, idx, shift):
    """(lin, const) of f on cells[idx] + shift, for a PwAffineFunction f,
    in Fraction arithmetic straight from its public data: per payload i,

        lin_i + B_i lam  and  const_i - lin_i.lam - 1/2 lam^T B_i lam
                              + 1/2 L_i.lam."""
    lam = [Fraction(x) for x in shift]
    lin, const = f.cell_affines[idx]
    new_lin, new_const = [], []
    for i in range(f.payload_rank):
        blam = [sum(Fraction(x) * y for x, y in zip(row, lam))
                for row in f.quasi_bilinear[i].tolist()]
        new_lin.append(tuple(a + c for a, c in zip(lin[i], blam)))
        new_const.append(const[i]
                         - sum(x * y for x, y in zip(lin[i], lam))
                         - sum(x * y for x, y in zip(lam, blam)) / 2
                         + sum(x * y for x, y in zip(f.quasi_linear[i], lam))
                         / 2)
    return tuple(new_lin), tuple(new_const)


def bending_reference(f):
    """bending_parameters of a PwAffineFunction f in Fraction arithmetic:
    the pieces from affine_on_cell, the side of each wall from the
    barycentre of cell i + s_i, and the bending as the difference of the
    linear parts at an integral transversal of the primitive normal."""
    from tropab import _geometry as geom
    from tropab.errors import NonMatchingFaces

    out = {}
    for key, ((i, si), (j, sj)) in f.paving.walls().items():
        n = normal_through_reference(key)
        c = geom.dot(n, key[0])
        aff_i = f.affine_on_cell(i, si)
        aff_j = f.affine_on_cell(j, sj)
        for v in key:
            for p in range(f.payload_rank):
                vi = geom.dot(aff_i[0][p], v) + aff_i[1][p]
                vj = geom.dot(aff_j[0][p], v) + aff_j[1][p]
                if vi != vj:
                    raise NonMatchingFaces(
                        "pieces disagree at wall vertex %r" % (v,))
        vs = f.paving.cells[i].vertices
        bary = tuple(sum(Fraction(v[k]) for v in vs) / len(vs) + si[k]
                     for k in range(f.rank))
        if geom.dot(n, bary) - c > 0:
            plus, minus = aff_i, aff_j
        else:
            plus, minus = aff_j, aff_i
        omega = _integer_transversal(n)
        out[key] = tuple(geom.dot(tuple(a - b for a, b in
                                        zip(plus[0][p], minus[0][p])), omega)
                         for p in range(f.payload_rank))
    return out


def _integer_transversal(normal):
    """An integer vector w with <normal, w> = 1, for a primitive normal,
    by the extended gcd across its coordinates."""
    n = [int(x) for x in normal]
    g, coeffs = 0, [0] * len(n)
    for i, x in enumerate(n):
        if x == 0:
            continue
        if g == 0:
            g = abs(x)
            coeffs[i] = 1 if x > 0 else -1
            continue
        g, u, v = _exgcd(g, x)
        coeffs = [u * c for c in coeffs]
        coeffs[i] += v
    if g != 1:
        raise ValueError("normal %r is not primitive" % (normal,))
    return tuple(coeffs)


def _exgcd(a, b):
    """(g, s, t) with s a + t b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def evaluate_reference(f, point):
    """f(point): located by locate_by_scan, then the shifted piece of
    shifted_affine_reference; a Fraction for payload rank 1 and a tuple
    otherwise."""
    pt = [Fraction(x) for x in point]
    cells = [c.vertices for c in f.paving.cells]
    idx, shift = locate_by_scan(cells, f.paving.period_basis.tolist(), pt)
    lin, const = shifted_affine_reference(f, idx, shift)
    vals = tuple(sum((a * x for a, x in zip(row, pt)), Fraction(0)) + c
                 for row, c in zip(lin, const))
    return vals[0] if f.payload_rank == 1 else vals


# ---------------------------------------------------------------------------
# degeneration and twist exponents, straight from their definitions
# ---------------------------------------------------------------------------

def period_exponents(q, d, s_xi, s_prime, lam, alpha, mu):
    """(a, b, a', b', chi) for lists-of-lists q, s_xi, s_prime and the
    type d: a = Q(lam), b = lam^T (2 Q d^-1) alpha, a' = -1/2 lam^T S'
    lam mod 2, b' = -lam^T S_xi d^-1 alpha mod 2 and chi = -lam^T S' mu
    mod 2, every entry a Fraction and d^-1 the diagonal of 1/d_j."""
    g = len(lam)
    idx = [(i, j) for i in range(g) for j in range(g)]
    a = sum(Fraction(q[i][j]) * lam[i] * lam[j] for i, j in idx)
    b = sum(2 * Fraction(q[i][j]) / d[j] * lam[i] * alpha[j]
            for i, j in idx)
    at = -sum(Fraction(s_prime[i][j] * lam[i] * lam[j]) for i, j in idx) / 2
    bt = -sum(Fraction(s_xi[i][j] * lam[i] * alpha[j], d[j]) for i, j in idx)
    chi = -sum(Fraction(s_prime[i][j] * lam[i] * mu[j]) for i, j in idx)
    return a, b, at % 2, bt % 2, chi % 2


# ---------------------------------------------------------------------------
# cyclotomic polynomials by recursive division
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic_polynomial_by_division(m):
    """Coefficients (ascending) of Phi_m: x^m - 1 divided by Phi_d for
    every proper divisor d of m."""
    num = [0] * m + [1]
    num[0] = -1
    for d in range(1, m):
        if m % d == 0:
            num = poly_div_exact(num, cyclotomic_polynomial_by_division(d))
    return tuple(num)


def poly_div_exact(num, den):
    """The quotient of two integer polynomials (ascending coefficients);
    ArithmeticError unless den divides num over Z."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("%r does not divide %r" % (den, num))
        q = c // den[-1]
        out[i] = q
        for j, dj in enumerate(den):
            num[i + j] -= q * dj
    if any(num):
        raise ArithmeticError("the division leaves a remainder %r" % (num,))
    return out


# ---------------------------------------------------------------------------
# balanced sections, brute force over all lifts
# ---------------------------------------------------------------------------

def brute_force_balanced_patterns_rank1(delta, M):
    """All balanced sections for delta=(n) by iterating every theta_0 and
    every lift tuple, recorded as coefficient-exponent patterns indexed by
    the basis, deduplicated up to a global zeta_M power.

    Uses the convention (S_{(t,a,b)} f)(x) = zeta^t zeta^{<b,x>} f(x+a)
    applied directly to delta functions; independent of the library's
    group-element machinery.
    """
    n = delta[0]
    scale = M // n
    patterns = set()
    for j in range(n):                      # theta_0 = e_j
        # lift for class alpha must translate V_beta -> V_{beta+alpha}:
        # S_{(t,a,b)} e_k = zeta^{t + <b, k-a>} e_{k-a}, so a = -alpha.
        choices = [list(product(range(M), range(n))) for _ in range(n)]
        for combo in product(*choices):
            coeff = [None] * n
            for alpha, (t, b) in enumerate(combo):
                a = (-alpha) % n
                target = (j - a) % n
                expo = (t + b * scale * target) % M
                coeff[target] = expo
            base = coeff[0]
            patterns.add(tuple((c - base) % M for c in coeff))
    return patterns


# ---------------------------------------------------------------------------
# discrete Legendre transform, brute force
# ---------------------------------------------------------------------------

def ellipsoid_lattice_points(b, centre, radius):
    """A finite list holding every integer m with (m - centre)^T b
    (m - centre) <= radius, for a positive definite rational b.

    One coordinate is fixed at a time, the one with the least bound
    |m_i - centre_i| <= sqrt(radius (b^-1)_ii) first.  Fixing m_i =
    centre_i + t leaves, in the other coordinates, the ellipsoid of the
    Schur complement, centred at t (b^-1)_(rest, i) / (b^-1)_ii from
    the old centre, with radius - t^2 / (b^-1)_ii left over.  The
    bounds round outwards, so a point slightly outside may be listed."""
    r = len(b)
    if r == 0:
        return [()]
    inv = [frac_solve(b, [int(i == j) for j in range(r)]) for i in range(r)]
    i = min(range(r), key=lambda k: inv[k][k])
    rest = [k for k in range(r) if k != i]
    half = math.isqrt(math.floor(radius * inv[i][i])) + 1
    out = []
    for mi in range(math.floor(centre[i] - half),
                    math.ceil(centre[i] + half) + 1):
        t = mi - centre[i]
        left = radius - t * t / inv[i][i]
        if left < 0:
            continue
        sub = ellipsoid_lattice_points(
            [[b[x][y] for y in rest] for x in rest],
            [centre[k] + t * inv[k][i] / inv[i][i] for k in rest], left)
        out += [m[:i] + (mi,) + m[i:] for m in sub]
    return out


def brute_force_minimum(f, x, cols, mu):
    """min over integer k of g(x + M k), g = f + <mu, .>, for a scalar
    PwAffineFunction f, an integer point x, the integer columns ``cols``
    of M and an integer vector mu; every value is an evaluate_reference.

    With B, L the quadratic data of f and A(y) = 1/2 y^T B y + 1/2 L.y,
    p = f - A is periodic, so on Z^r it lies in [p_lo, p_hi], its least
    and greatest values over the lattice points of the half-open period
    parallelepiped.  So g(x + M k) - g(x) + p(x) - p_lo lies between
    P(k) and P(k) + p_hi - p_lo, for P(k) = 1/2 k^T G k + h.k with
    G = M^T B M and h = M^T (B x + L / 2 + mu).  A minimiser k has
    g(x + M k) <= g(x), hence P(k) <= e = p(x) - p_lo, that is
    (k - z)^T G (k - z) <= z^T G z + 2 e for z = -G^-1 h; of the points
    of that ellipsoid, only those with P(k) <= min P + p_hi - p_lo can
    be minimisers, and each of them is evaluated."""
    r = f.rank
    bm = [[Fraction(v) for v in row] for row in f.quasi_bilinear[0].tolist()]
    lin = f.quasi_linear[0]
    pb = f.paving.period_basis.tolist()

    def quad(y):
        return (_qval(bm, y) + sum(a * b for a, b in zip(lin, y))) / 2

    ranges = [range(sum(min(v, 0) for v in row), sum(max(v, 0) for v in row)
                    + 1) for row in pb]
    periodic = [evaluate_reference(f, y) - quad(y) for y in product(*ranges)
                if all(0 <= c < 1 for c in frac_solve(pb, y))]
    p_lo, p_hi = min(periodic), max(periodic)
    g = [[sum(a[i] * bm[i][j] * b[j] for i in range(r) for j in range(r))
          for b in cols] for a in cols]
    grad = [sum(bm[i][j] * x[j] for j in range(r)) + lin[i] / 2 + mu[i]
            for i in range(r)]
    h = [sum(a * b for a, b in zip(col, grad)) for col in cols]
    z = [-v for v in frac_solve(g, h)]
    e = evaluate_reference(f, x) - quad(x) - p_lo
    points = {k: _qval(g, k) / 2 + sum(a * b for a, b in zip(h, k))
              for k in ellipsoid_lattice_points(g, z, _qval(g, z) + 2 * e)}
    least = min(points.values())
    return min(evaluate_reference(f, y) + sum(a * b for a, b in zip(mu, y))
               for y in (tuple(xi + sum(c[i] * ki for c, ki in zip(cols, k))
                               for i, xi in enumerate(x))
                         for k, v in points.items()
                         if v <= least + p_hi - p_lo))


def brute_force_legendre(f, mu):
    """-min over the paving vertices y of f(y) + <mu, y>, for a scalar
    PwAffineFunction f on a paving with integer vertices and a positive
    definite quadratic part: brute_force_minimum over the period lattice
    from one vertex of each orbit, v - P floor(P^-1 v) for the vertices
    v of the representative cells and P the period basis."""
    pb = f.paving.period_basis.tolist()
    cols = [list(c) for c in zip(*pb)]
    orbits = set()
    for c in f.paving.cells:
        for v in c.vertices:
            k = [math.floor(t) for t in frac_solve(pb, v)]
            orbits.add(tuple(a - sum(p * b for p, b in zip(row, k))
                             for a, row in zip(v, pb)))
    return -min(brute_force_minimum(f, v, cols, mu) for v in orbits)
