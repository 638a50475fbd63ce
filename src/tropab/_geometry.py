"""Exact polyhedral helpers shared by the Delaunay and paving machinery.

Everything works over the rationals on plain tuples of Fraction/int,
without numpy.  Facet normals are integer cofactors of points whose
denominators are cleared once, and polytope_facets is the one hull
routine: volumes are pyramids over its facets and vertices are points
on at least r of them.
Dimensions are desk scale (r <= 3), so the facet enumeration is allowed
to be quadratic/cubic in the number of points.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import mul

from .exact_linalg import LatticeCoordinates


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
    """Primitive integer normal, first nonzero entry positive, of the
    hyperplane spanned by integer points; None unless their affine span
    is a hyperplane.  It is the cofactors of r - 1 independent
    difference rows, if every other row is orthogonal to them."""
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


def polytope_volume(points):
    """Exact volume of conv(points) in Q^r, as a Fraction (0 unless the
    points span Q^r): a sum of pyramids over the facets with apex
    points[0].  A facet <n, x> = c has height (c - <n, p0>) / |n| and
    area |n| / |n_k| times the volume of its projection along the first
    k with n_k != 0, so |n| cancels and the recursion stays exact down
    to r = 1, where the volume is max - min."""
    pts = [tuple(p) for p in points]
    r = len(pts[0])
    if r == 1:
        return Fraction(max(pts)[0] - min(pts)[0])
    total = Fraction(0)
    for facet, n, c in polytope_facets(pts):
        h = c - dot(n, pts[0])
        if h:
            k = next(k for k, x in enumerate(n) if x)
            total += h * polytope_volume(
                [p[:k] + p[k + 1:] for p in facet]) / abs(n[k])
    return total / r


def point_in_polytope(point, facets):
    """Membership test against a precomputed facet list, closed cells."""
    return all(dot(n, point) <= c for _, n, c in facets)
