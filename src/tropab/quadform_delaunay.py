"""Delaunay decompositions of lattices under positive-definite rational
quadratic forms, and membership in the closed second-Voronoi cones.

The subdivision is computed as the regular subdivision of the lift
x -> 1/2 Q(x): exact gift-wrapping of the lower hull over a finite
window of lattice points, with cospherical cells kept whole.  The hull
runs in Python integers: the sites are scaled by the common denominator
D of the shift, the heights are x^T (L Q) x with L the common
denominator of Q, and every supporting functional is kept as integer
numerators over one positive denominator.  Positive scalings change
neither the tight sets nor the order of the tilt ratios, so the facets
are those of the rational lift; each accepted facet is mapped back to
the rational sites once.

A QuadraticForm keeps the pavings computed from it, one per (period
basis, window, shift), for as long as the form lives: sigma_section and
voronoi_cone_contains, called on the form a caller has just paved, get
that paving back with the facets, walls and point locator it has
cached, instead of running the hull again.  The form's matrix is
read-only, so a kept paving cannot go stale.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import floor, gcd, lcm, prod
from operator import mul
from typing import List, Tuple

import numpy as np

from . import _geometry as geom
from .errors import (InvalidPaving, NotPositiveDefinite, TooLarge,
                     WindowTooSmall)
from .exact_linalg import (LatticeCoordinates, as_frac_matrix, as_int_matrix,
                           frac_det, hermite_normal_form, independent_rows,
                           is_positive_definite, is_positive_semidefinite,
                           is_symmetric, kernel, row_reduce,
                           saturated_quotient)


@dataclass(frozen=True)
class QuadraticForm:
    """A symmetric rational matrix; Q(x) = x^T M x.

    The matrix is a read-only copy of the one given (assigning into it
    raises ValueError); ``+`` and ``scaled`` build new forms.  The form
    keeps, in private attributes freed with it, whether it is positive
    definite, once asked, and every Delaunay paving
    delaunay_subdivision has computed from it.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = as_frac_matrix(self.matrix)
        if not is_symmetric(m):
            raise ValueError("quadratic form matrix must be symmetric")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_pavings", {})
        object.__setattr__(self, "_positive_definite", None)

    @property
    def rank(self) -> int:
        return self.matrix.shape[0]

    def value(self, x) -> Fraction:
        v = [Fraction(t) for t in x]
        return geom.bilinear(self.matrix, v, v)

    def is_positive_definite(self) -> bool:
        """Sylvester's criterion, run on the first call only."""
        if self._positive_definite is None:
            object.__setattr__(self, "_positive_definite",
                               is_positive_definite(self.matrix))
        return self._positive_definite

    def __add__(self, other):
        return QuadraticForm(self.matrix + other.matrix)

    def scaled(self, c) -> "QuadraticForm":
        return QuadraticForm(Fraction(c) * self.matrix)


def _as_int_if_possible(x):
    f = Fraction(x)
    return int(f) if f.denominator == 1 else f


@dataclass(frozen=True)
class LatticePolytope:
    """Vertex set of a cell, stored sorted for canonical comparison."""

    vertices: Tuple[Tuple, ...]

    def __post_init__(self):
        vs = tuple(sorted(tuple(_as_int_if_possible(x) for x in v)
                          for v in self.vertices))
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate vertices in cell %r" % (vs,))
        object.__setattr__(self, "vertices", vs)

    @property
    def dim(self) -> int:
        return geom.affine_dim(self.vertices)

    def translated(self, t) -> "LatticePolytope":
        return LatticePolytope(tuple(geom.vadd(v, t) for v in self.vertices))

    def facets(self):
        return geom.polytope_facets(self.vertices)

    def volume(self) -> Fraction:
        return geom.polytope_volume(self.vertices)


class PeriodicPaving:
    """A periodic polytopal subdivision, stored by cell-orbit reps.

    period_basis columns generate the translation lattice; ``cells``
    holds one canonical representative per orbit of maximal cells.
    """

    def __init__(self, rank, period_basis, cells, window):
        self.rank = int(rank)
        self.period_basis = as_int_matrix(period_basis)
        if self.period_basis.shape != (self.rank, self.rank):
            raise InvalidPaving("period basis must be square of the rank")
        if frac_det(self.period_basis) == 0:
            raise InvalidPaving("period basis must be nondegenerate")
        self.window = int(window)
        self.cells: List[LatticePolytope] = sorted(
            (c if isinstance(c, LatticePolytope) else LatticePolytope(tuple(c))
             for c in cells),
            key=lambda c: c.vertices)
        self.lattice = LatticeCoordinates(self.period_basis)
        self._facet_cache = {}
        self._wall_cache = None
        self._locator = None

    # -- canonical translates -------------------------------------------

    def canonical_cell(self, vertices):
        vs = sorted(tuple(v) for v in vertices)
        t = self.lattice.shift(vs[0])
        return LatticePolytope(tuple(geom.vsub(v, t) for v in vs))

    # -- structure ------------------------------------------------------

    def is_simplicial(self) -> bool:
        return all(len(c.vertices) == self.rank + 1 for c in self.cells)

    def cell_facets(self, idx):
        if idx not in self._facet_cache:
            self._facet_cache[idx] = self.cells[idx].facets()
        return self._facet_cache[idx]

    def vertex_orbits(self):
        out = set()
        for c in self.cells:
            for v in c.vertices:
                t = self.lattice.shift(v)
                out.add(geom.vsub(v, t))
        return out

    def walls(self):
        """Codimension-1 wall orbits.

        Returns dict: canonical facet vertex tuple -> list of
        (cell_index, shift) with cell[idx] + shift incident to the wall.
        """
        if self._wall_cache is not None:
            return self._wall_cache
        walls = {}
        for idx in range(len(self.cells)):
            for fverts, _n, _c in self.cell_facets(idx):
                t = self.lattice.shift(sorted(fverts)[0])
                key = tuple(sorted(geom.vsub(v, t) for v in fverts))
                shift = tuple(-x for x in t)
                walls.setdefault(key, []).append((idx, shift))
        for key, inc in walls.items():
            if len(inc) != 2:
                raise InvalidPaving(
                    "wall %r has %d incident cells" % (key, len(inc)))
        self._wall_cache = walls
        return walls

    def find_containing_cell(self, point):
        """Locate (cell_index, shift) with point in cells[idx] + shift.

        The point's denominators are cleared once and locate_cleared
        does the search; a point outside every translate raises
        InvalidPaving naming the point as given."""
        loc = self.locate_cleared(*self.lattice.clear_denominators(point))
        if loc is None:
            raise InvalidPaving("point %r not covered by the paving"
                                % (point,))
        return loc

    def locate_cleared(self, num, den):
        """(cell_index, shift) for the point num / den (integer
        numerators over den > 0), or None if no cell contains it.

        The point is reduced by a lattice vector t0 into the half-open
        fundamental parallelepiped P of the period basis B, then tested
        against the closed translates cells[idx] + B k, k in [-2, 2]^r,
        cell-major and then in box order; the first one containing it
        wins (shift = B k + t0), which fixes the tie-break for points on
        walls and vertices.  The translates come from a locator built
        lazily once per paving: it keeps, in that order, only those whose
        period-coordinate bounding box meets the closed P, each with its
        facet inequalities as integer rows.  Every translate containing a
        point of P is kept, so the first match is the one a full
        cells x [-2, 2]^r scan finds.  The rows are tested in integers on
        the reduced numerators.
        """
        t0 = self.lattice.shift_cleared(num, den)
        local = tuple(x - den * t for x, t in zip(num, t0))
        for idx, bk, rows in self._point_locator():
            if all(geom.dot(a, local) <= b * den for a, b in rows):
                return idx, geom.vadd(bk, t0)
        return None

    def _point_locator(self):
        """[(idx, B k, rows)] for locate_cleared; rows are integer
        (a, b) with <a, x> <= b exactly on cells[idx] + B k."""
        if self._locator is not None:
            return self._locator
        den = self.lattice.den
        locator = []
        for idx, cell in enumerate(self.cells):
            facets = self.cell_facets(idx)
            # per period coordinate, the k_i that let the translate's
            # bounding box meet [0, 1]; coordinates are scaled by den
            ks = []
            for row in self.lattice.inv_rows:
                coords = [geom.dot(row, v) for v in cell.vertices]
                lo, hi = min(coords), max(coords)
                ks.append([k for k in range(-2, 3)
                           if hi + k * den >= 0 and lo + k * den <= den])
            for k in product(*ks):
                bk = self.lattice.vector(k)
                rows = []
                for _f, n, c in facets:
                    b = c + geom.dot(n, bk)
                    rows.append((tuple(x * b.denominator for x in n),
                                 b.numerator))
                locator.append((idx, bk, tuple(rows)))
        self._locator = locator
        return locator

    def __eq__(self, other):
        if not isinstance(other, PeriodicPaving):
            return NotImplemented
        return (self.rank == other.rank
                and (self.period_basis == other.period_basis).all()
                and [c.vertices for c in self.cells]
                == [c.vertices for c in other.cells])

    def __repr__(self):
        return "PeriodicPaving(rank=%d, cells=%d, window=%d)" % (
            self.rank, len(self.cells), self.window)


# ---------------------------------------------------------------------------
# regular subdivision of the lift x -> 1/2 Q(x)
# ---------------------------------------------------------------------------

# The most lattice points the bounding box of a Delaunay window may hold.
# Every tilt of the hull scans all sites, so the work grows with the
# square of this count; rank 2 at window 16 visits 1089 points and rank 3
# at window 8 visits 4913.
MAX_WINDOW_POINTS = 100_000


def check_window_points(window, points):
    """Refuse, with TooLarge on the field ``window``, work over a window
    whose box holds more than MAX_WINDOW_POINTS lattice points."""
    if points > MAX_WINDOW_POINTS:
        raise TooLarge("window %d spans %d lattice points, more than %d"
                       % (window, points, MAX_WINDOW_POINTS), field="window")


def delaunay_subdivision(q: QuadraticForm, period_basis, window: int,
                         shift=None) -> PeriodicPaving:
    """The Delaunay decomposition of Q, as a periodic paving.

    Runs the exact lower-hull computation on the lattice points whose
    period-basis coordinates lie in [-window, window]; cells touching
    the window boundary are discarded, and completeness of the surviving
    cell orbits is certified by exact volume accounting (WindowTooSmall
    on the field ``window`` otherwise).  An optional rational ``shift``
    moves the site set (used for cusp models on shifted lattices).  A
    window whose bounding box holds more than MAX_WINDOW_POINTS lattice
    points is refused with TooLarge before any site is enumerated.

    The paving is kept on q, keyed by (period basis, window, shift), and
    a later call with the same key returns that same object.  Refusals
    are not kept: they are raised again on every call.
    """
    if not q.is_positive_definite():
        raise NotPositiveDefinite("Delaunay needs a positive definite form",
                                  field="q")
    if window < 2:
        raise WindowTooSmall("window must be >= 2", field="window")
    r = q.rank
    pb = as_int_matrix(period_basis)
    shift = tuple(Fraction(x) for x in (shift or (0,) * r))
    key = (tuple(map(tuple, pb.tolist())), window, shift)
    if key in q._pavings:
        return q._pavings[key]
    paving = PeriodicPaving(r, pb, [], window)
    # bounding box of the parallelepiped pb * [-w, w]^r, in std coords
    spans = [window * sum(abs(x) for x in row)
             for row in paving.lattice.basis]
    check_window_points(window, prod(2 * s + 1 for s in spans))
    sites, boundary, scale = _window_sites(paving, window, spans, shift)
    heights = _lift(q, sites)

    covol = abs(frac_det(pb))
    reps = {}
    total = Fraction(0)
    for eq, _fn in _lower_hull(sites, heights, r):
        if any(v in boundary for v in eq):
            continue
        if scale != 1:
            eq = [tuple(Fraction(x, scale) for x in v) for v in eq]
        cell = paving.canonical_cell(eq)
        if cell.vertices in reps:
            continue
        reps[cell.vertices] = cell
        total += cell.volume()
        if total == covol:  # one full fundamental domain is accounted for
            break
    if total != covol:
        raise WindowTooSmall(
            "cell orbits cover volume %s of %s; enlarge the window"
            % (total, covol), field="window")
    q._pavings[key] = PeriodicPaving(r, pb, list(reps.values()), window)
    return q._pavings[key]


def _window_sites(paving, window, spans, shift):
    """The sites for the lattice points p whose period coordinates lie
    in [-window, window], visiting the box |p_i| <= spans[i] (first
    coordinate of p varying fastest), in integer coordinates
    X = D (p + shift) with D the least common denominator of the shift;
    the set of those with a period coordinate at +-window; and D."""
    lat = paving.lattice
    bound = window * lat.den
    num, scale = LatticeCoordinates.clear_denominators(shift)
    sites, boundary = [], set()
    for p in product(*(range(-s, s + 1) for s in reversed(spans))):
        p = p[::-1]
        coords = [abs(geom.dot(row, p)) for row in lat.inv_rows]
        if max(coords) <= bound:
            x = tuple(scale * a + b for a, b in zip(p, num))
            sites.append(x)
            if bound in coords:
                boundary.add(x)
    return sites, boundary, scale


def _lift(q, sites):
    """The integer heights x^T (L Q) x of integer sites, L the least
    common denominator of Q's entries."""
    scale = lcm(*(x.denominator for x in q.matrix.flat))
    lq = [[int(x * scale) for x in row] for row in q.matrix]
    return [geom.bilinear(lq, x, x) for x in sites]


def _lower_hull(sites, heights, r):
    """Lower-hull facets of the lifted integer sites (x, heights[i]), by
    exact gift-wrapping in integers.

    Yields each facet as the frozenset of sites lying on its supporting
    affine functional (the equality set), together with that functional
    as (A, B, den): den > 0, gcd 1, and den * slack(x) = den * h(x) -
    <A, x> - B >= 0 for every site, zero exactly on the facet.  Facets
    come depth-first from an initial facet (the newest facet found is
    expanded next), so that callers can stop once they have seen enough.
    """
    # ---- initial facet: start from the global minimum and tilt up ----
    m = min(heights)
    fn = ((0,) * r, m, 1)
    tight = [x for x, h in zip(sites, heights) if h == m]
    units = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    while geom.affine_dim(tight) < r:
        # a direction orthogonal to the affine span of the tight sites:
        # the one that is zero past the least coordinate t it can be
        # nonzero at, and positive at t (a positive multiple of the
        # first kernel vector of their difference rows).  It is the
        # normal of the tight sites with tight[0] + e_j, j > t, added.
        for t in range(r):
            u = geom.normal_through(
                tight + [geom.vadd(tight[0], e) for e in units[t + 1:]])
            if u is not None:
                break
        if u[t] < 0:
            u = tuple(-x for x in u)
        c = geom.dot(u, tight[0])
        fn2, tight2 = _tilt(fn, u, c, sites, heights)
        if fn2 is None:  # no site on the positive side; tilt the other way
            u, c = tuple(-x for x in u), -c
            fn2, tight2 = _tilt(fn, u, c, sites, heights)
            assert fn2 is not None, "sites do not affinely span"
        fn, tight = fn2, tight2
    start = frozenset(tight)
    facet_fn = {start: fn}
    yield start, fn

    # ---- depth-first over ridges -------------------------------------
    queue = [start]
    done_ridges = set()
    while queue:
        eq = queue.pop()
        fn = facet_fn[eq]
        verts = sorted(eq)
        for ridge, n, c in geom.polytope_facets(verts):
            rkey = (frozenset(ridge), frozenset(eq))
            if rkey in done_ridges:
                continue
            done_ridges.add(rkey)
            # rotate about the ridge away from the facet, which lies on
            # the side <n, x> <= c of the outward ridge normal
            fn2, tight2 = _tilt(fn, n, c, sites, heights)
            if fn2 is None:
                continue  # hull boundary within the window
            new_eq = frozenset(tight2)
            if new_eq not in facet_fn:
                facet_fn[new_eq] = fn2
                queue.append(new_eq)
                yield new_eq, fn2


def _tilt(fn, u, c0, sites, heights):
    """Rotate the lower functional fn = (A, B, den) about the set
    <u, x> = c0 (u, c0 integers), raising it on the side <u, x> > c0 by
    the least ratio t = slack(x) / d(x), d(x) = <u, x> - c0 > 0, until
    it meets a site there.  Returns the new functional and its tight
    sites, or (None, None) if no site lies on that side.

    For the minimising (den * slack, d) = (bs, bd), den' slack' is
    proportional to bd * den * slack - bs * d, so the tight sites are
    the minimisers, the sites with d = 0 and slack 0, and, when bs = 0,
    those with d < 0 and slack 0 (all slacks are >= 0)."""
    a, b, den = fn
    bs = bd = None
    best, flat, below = [], [], []
    for x, h in zip(sites, heights):
        d = sum(map(mul, u, x)) - c0
        s = den * h - sum(map(mul, a, x)) - b
        if d > 0:
            if bs is None or s * bd < bs * d:
                bs, bd, best = s, d, [x]
            elif s * bd == bs * d:
                best.append(x)
        elif s == 0:
            (flat if d == 0 else below).append(x)
    if bs is None:
        return None, None
    a2 = tuple(bd * ai + bs * ui for ai, ui in zip(a, u))
    b2, den2 = bd * b - bs * c0, bd * den
    g = gcd(*a2, b2, den2)
    fn2 = (tuple(x // g for x in a2), b2 // g, den2 // g)
    return fn2, best + flat + (below if bs == 0 else [])


# ---------------------------------------------------------------------------
# empty sphere predicate
# ---------------------------------------------------------------------------

def empty_sphere_check(cell, q: QuadraticForm, window: int) -> bool:
    """Does the cell satisfy the empty-sphere condition for Q?

    True iff some rational center c is Q-equidistant from all cell
    vertices and strictly closer to them than to every other lattice
    point p with |p_i - floor(c_i)| <= window.  For full-dimensional
    cells the center is unique; for lower-dimensional cells the
    minimal-radius center (constrained to the affine hull) is the
    candidate tested.
    """
    if not q.is_positive_definite():
        raise NotPositiveDefinite("empty-sphere check needs Q > 0")
    check_window_points(window, (2 * window + 1) ** q.rank)
    verts = cell.vertices if isinstance(cell, LatticePolytope) else \
        tuple(tuple(v) for v in cell)
    center = _equidistant_center(verts, q)
    if center is None:
        return False
    radius = q.value(geom.vsub(verts[0], center))
    vset = set(verts)
    lows = [floor(x) - window for x in center]
    for p in product(*(range(a, a + 2 * window + 1) for a in lows)):
        if p in vset:
            continue
        if q.value(geom.vsub(p, center)) <= radius:
            return False
    return True


def _equidistant_center(verts, q):
    """Solve for a Q-equidistant center; constrained to the affine hull
    when the cell is lower-dimensional (minimal radius)."""
    r = q.rank
    v0 = verts[0]
    diffs = [geom.vsub(v, v0) for v in verts[1:]]
    basis = [diffs[i] for i in independent_rows(diffs)]
    d = len(basis)
    if d == 0:
        return tuple(Fraction(x) for x in v0)
    # center c = v0 + sum t_k basis_k ; equations Q(v - c) = Q(v0 - c)
    system = [[2 * geom.bilinear(q.matrix, dv, bk) for bk in basis]
              + [q.value(dv)] for dv in diffs]
    # the (possibly overdetermined) system needs a unique solution: a
    # pivot in every t column and none in the right-hand side
    reduced, pivots, _ = row_reduce(system, d + 1)
    if pivots != list(range(d)):
        return None
    ts = [row[d] for row in reduced]
    c = [Fraction(x) for x in v0]
    for t, bk in zip(ts, basis):
        for i in range(r):
            c[i] += t * bk[i]
    return tuple(c)


# ---------------------------------------------------------------------------
# second Voronoi cone membership
# ---------------------------------------------------------------------------

def voronoi_cone_contains(paving: PeriodicPaving, q: QuadraticForm) -> bool:
    """Is q in the closed cone C(paving) of the second Voronoi fan?

    True iff Delaunay(q) is equal to or coarser than the paving.  For a
    positive definite q that is the paving delaunay_subdivision keeps
    on q, if q has been paved at this paving's basis and window.
    Semidefinite forms are handled by passing to the quotient by the
    exact kernel lattice.
    """
    if not isinstance(paving, PeriodicPaving) or not paving.cells:
        raise InvalidPaving("need a nonempty periodic paving")
    if q.rank != paving.rank:
        raise InvalidPaving("rank mismatch between form and paving")
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
    ints = [LatticeCoordinates.clear_denominators(v)[0]
            for v in kernel(q.matrix, q.rank)]
    return saturated_quotient(list(zip(*ints)))


def _projected_lattice_basis(cols):
    """A square basis for the lattice generated by the columns of cols."""
    h, _ = hermite_normal_form(as_int_matrix(cols).T)
    return list(zip(*(row for row in h.tolist() if any(row))))
