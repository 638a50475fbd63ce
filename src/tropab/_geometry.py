"""Exact polyhedral helpers shared by the Delaunay and paving machinery.

Everything works over the rationals on plain tuples of Fraction/int;
numpy object arrays are only the public boundary of the package.  Ranks,
volumes and coordinates go through ``exact_linalg.row_reduce``; facet
normals are integer cofactors of points whose denominators are cleared
once.  Dimensions are desk scale (r <= 3), so the facet enumeration is
allowed to be quadratic/cubic in the number of points.
"""

from fractions import Fraction
from itertools import combinations
from math import factorial, gcd
from operator import mul

from .exact_linalg import (LatticeCoordinates, frac_det, independent_rows,
                           rank, row_reduce)


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b))


def dot(a, b):
    return sum(map(mul, a, b))


def bilinear(m, x, y):
    """x^T m y, for the square matrix m given by its rows; ValueError
    unless x, y and the rows of m have one length."""
    return sum(xi * sum(a * b for a, b in zip(row, y, strict=True))
               for xi, row in zip(x, m, strict=True))


def scale(a, c):
    return tuple(c * x for x in a)


def affine_dim(points):
    """Dimension of the affine hull of a point collection."""
    pts = list(points)
    if not pts:
        return -1
    p0 = pts[0]
    return rank([vsub(p, p0) for p in pts[1:]])


def gcd_reduced(vec):
    """Divide an integer vector by the gcd of its entries, keeping the
    sign (for one-sided inequalities)."""
    v = tuple(int(x) for x in vec)
    g = gcd(*v)
    return tuple(x // g for x in v) if g else v


def primitive(vec):
    """gcd_reduced with the canonical sign of a hyperplane normal (first
    nonzero entry positive)."""
    v = gcd_reduced(vec)
    for x in v:
        if x != 0:
            return v if x > 0 else tuple(-y for y in v)
    return v


def normal_through(points):
    """Primitive integer normal of the hyperplane spanned by points in
    Q^r; None unless their affine span is a hyperplane."""
    return _integer_normal(_cleared(points))


def _cleared(points):
    """Integer numerators of rational points over their least common
    positive denominator: a positive scaling, which changes neither the
    direction of a normal nor the side of a point."""
    pts = [tuple(p) for p in points]
    r = len(pts[0])
    flat = LatticeCoordinates.clear_denominators(
        [x for p in pts for x in p])[0]
    return [flat[i:i + r] for i in range(0, len(flat), r)]


def _integer_normal(pts):
    """normal_through for integer points: the cofactors of r - 1
    independent difference rows, if every other row is orthogonal to
    them."""
    r = len(pts[0])
    diffs = [vsub(p, pts[0]) for p in pts[1:]]
    for rows in combinations(diffs, r - 1):
        n = tuple((-1) ** i * _det([row[:i] + row[i + 1:] for row in rows])
                  for i in range(r))
        if any(n):
            break
    else:
        return None
    if any(dot(n, d) for d in diffs):
        return None
    return primitive(n)


def _det(rows):
    """Determinant of a small square integer matrix, by cofactors."""
    if len(rows) <= 1:
        return rows[0][0] if rows else 1
    return sum((-1) ** j * a * _det([row[:j] + row[j + 1:]
                                     for row in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


def polytope_facets(points):
    """Facets of the convex hull of a full-dimensional point set in Q^r.

    Returns a list of (facet_points, normal, offset) with the outward
    convention <normal, x> <= offset inside, sorted by (normal, offset).
    Enumeration over r-subsets, with the sides tested in integers on
    the cleared points; fine for the small cells this package produces.
    """
    pts = [tuple(p) for p in points]
    r = len(pts[0])
    if r == 1:
        lo = min(pts)
        hi = max(pts)
        return [((lo,), (-1,), -lo[0]), ((hi,), (1,), hi[0])]
    ints = _cleared(pts)
    seen = {}
    for sub in combinations(range(len(pts)), r):
        n = _integer_normal([ints[i] for i in sub])
        if n is None:
            continue
        levels = [dot(n, p) for p in ints]
        c = levels[sub[0]]
        if min(levels) < c < max(levels):
            continue
        if max(levels) > c:
            n = tuple(-x for x in n)
        facet = tuple(sorted(p for p, lv in zip(pts, levels) if lv == c))
        seen[(n, dot(n, pts[sub[0]]))] = facet
    return [(f, n, c) for (n, c), f in sorted(seen.items())]


def extreme_points(points):
    """Vertices of the convex hull of a point set (any affine dimension
    up to 3).  A point is kept iff it lies on at least dim facets of the
    hull, computed within the affine hull."""
    pts = sorted(set(tuple(p) for p in points))
    if len(pts) <= 1:
        return pts
    d = affine_dim(pts)
    if d == 0:
        return pts[:1]
    coords = _hull_coordinates(pts)
    if d == 1:
        lo = min(range(len(pts)), key=lambda i: coords[i])
        hi = max(range(len(pts)), key=lambda i: coords[i])
        return sorted({pts[lo], pts[hi]})
    facets = polytope_facets(coords)
    count = {}
    for f, _, _ in facets:
        for p in f:
            count[p] = count.get(p, 0) + 1
    out = []
    for p, c in zip(pts, coords):
        if count.get(c, 0) >= d:
            out.append(p)
    return sorted(out)


def _hull_coordinates(pts):
    """Exact coordinates of pts w.r.t. the greedy affinely independent
    sub-basis p - pts[0] chosen from pts themselves."""
    diffs = [vsub(p, pts[0]) for p in pts]
    basis = [diffs[i] for i in independent_rows(diffs)]
    # solve gram t = (<p - p0, b>)_b for every point at once
    d = len(basis)
    aug = [[dot(b, c) for c in basis] + [dot(x, b) for x in diffs]
           for b in basis]
    reduced = row_reduce(aug, d)[0]
    return [tuple(row[d + k] for row in reduced) for k in range(len(pts))]


def triangulate(points):
    """Triangulation of conv(points) into simplices (lists of points).

    Fan construction: recursively triangulate the facets not containing
    the first vertex and cone over it.  Points must be in convex
    position is NOT required; interior points are ignored.
    """
    pts = sorted(set(tuple(p) for p in points))
    d = affine_dim(pts)
    if d <= 0:
        return []
    coords = _hull_coordinates(pts)
    back = dict(zip(coords, pts))
    simps = _triangulate_fulldim(coords)
    return [[back[v] for v in s] for s in simps]


def _triangulate_fulldim(pts):
    d = len(pts[0])
    verts = extreme_points(pts)
    if len(verts) == d + 1:
        return [list(verts)]
    apex = verts[0]
    out = []
    for facet, n, c in polytope_facets(verts):
        if dot(n, apex) == c:
            continue
        if len(facet) == d:      # simplex facet
            out.append([apex] + list(facet))
            continue
        coords = _hull_coordinates(list(facet))
        back = dict(zip(coords, facet))
        for s in _triangulate_fulldim(coords):
            out.append([apex] + [back[v] for v in s])
    return out


def polytope_volume(points):
    """Exact volume of conv(points) (full-dimensional in its ambient
    space), as a Fraction.  r + 1 points are one simplex, of volume
    |det(v_i - v_0)| / r! (0 when degenerate); more are triangulated."""
    pts = sorted(set(tuple(p) for p in points))
    r = len(pts[0])
    fact = factorial(r)
    if len(pts) == r + 1:
        return abs(frac_det([vsub(v, pts[0]) for v in pts[1:]])) / fact
    total = Fraction(0)
    for s in triangulate(pts):
        if len(s) != r + 1:
            continue
        total += abs(frac_det([vsub(v, s[0]) for v in s[1:]]))
    return total / fact


def point_in_polytope(point, facets):
    """Membership test against a precomputed facet list, closed cells."""
    return all(dot(n, point) <= c for _, n, c in facets)


def integer_transversal(normal):
    """An integer vector w with <normal, w> = 1, for primitive normal."""
    n = [int(x) for x in normal]
    # iterative extended gcd across the coordinates
    r = len(n)
    g, coeffs = 0, [0] * r
    for i, x in enumerate(n):
        if x == 0:
            continue
        if g == 0:
            g = abs(x)
            coeffs = [0] * r
            coeffs[i] = 1 if x > 0 else -1
            continue
        gg, u, v = _exgcd(g, x)
        coeffs = [u * c for c in coeffs]
        coeffs[i] += v
        g = gg
    assert g == 1, "normal must be primitive"
    return tuple(coeffs)


def _exgcd(a, b):
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
